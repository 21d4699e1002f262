//! Panic-surface rule: designated no-panic zones (RPC codec/server,
//! telemetry snapshot codec, NPE worker bodies, the decompress hot path)
//! must not contain `unwrap()`, `expect()`, panicking macros, or slice
//! indexing outside `#[cfg(test)]`. A panic in these paths unwinds through
//! a connection thread or a bounded channel send and wedges the system.

use crate::scan::{SourceFile, KEYWORDS};
use crate::{Config, Finding, FnFilter};

/// Macros that abort the surrounding thread when they fire.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

pub fn check(sf: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    for zone in &cfg.zones {
        if !sf.rel.ends_with(&zone.file_suffix) {
            continue;
        }
        for f in &sf.fns {
            if f.is_test {
                continue;
            }
            if let FnFilter::Named(names) = &zone.filter {
                if !names.iter().any(|n| n == &f.name) {
                    continue;
                }
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            scan_body(sf, &f.name, open, close, out);
        }
    }
}

fn scan_body(sf: &SourceFile, fn_name: &str, open: usize, close: usize, out: &mut Vec<Finding>) {
    let toks = sf.tokens();
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        if sf.in_test(i) {
            continue; // nested #[cfg(test)] item inside the fn
        }
        let t = &toks[i];
        let (line, col) = (t.line, t.col);
        let mut hit: Option<String> = None;

        // `.unwrap(` / `.expect(`
        if t.is_punct('.') {
            if let (Some(m), Some(p)) = (toks.get(i + 1), toks.get(i + 2)) {
                if p.is_punct('(') {
                    if m.is_ident("unwrap") {
                        hit = Some("`.unwrap()`".into());
                    } else if m.is_ident("expect") {
                        hit = Some("`.expect()`".into());
                    }
                }
            }
        }

        // `panic!`-family macro invocation (debug_assert* compiles out of
        // release builds and is deliberately not flagged).
        if hit.is_none() {
            if let Some(name) = t.ident() {
                if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    hit = Some(format!("`{name}!`"));
                }
            }
        }

        // Slice/array indexing: `expr[...]`. The `[` must directly follow
        // an index-able expression tail — an identifier (not a keyword),
        // `)`, or `]`.
        if hit.is_none() && t.is_punct('[') && i > open {
            let prev = &toks[i - 1];
            let indexable = match prev.ident() {
                Some(id) => !KEYWORDS.contains(&id),
                None => prev.is_punct(')') || prev.is_punct(']'),
            };
            if indexable {
                hit = Some("slice indexing".into());
            }
        }

        if let Some(what) = hit {
            if sf.allowed("panic", line) {
                continue;
            }
            out.push(Finding {
                rule: "panic",
                file: sf.rel.clone(),
                line,
                col,
                message: format!(
                    "{what} in no-panic zone fn `{fn_name}`; return an error (or use \
                     `.get()`) — or annotate with `// ndlint: allow(panic, reason = ...)`"
                ),
            });
        }
    }
}
