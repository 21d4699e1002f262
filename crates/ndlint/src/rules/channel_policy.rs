//! Channel-discipline rule: every bounded channel constructed inside the
//! policy paths (the RPC and NPE trees) must declare what happens when it
//! fills, and its send sites must match the declaration (unbounded
//! constructors are a clippy `disallowed-methods` error everywhere):
//!
//! ```text
//! // ndlint: policy(block, reason = "producer backpressure is the point")
//! let (work_tx, work_rx) = mpsc::sync_channel(cap);
//! ```
//!
//! Policies: `block` (producers stall — blocking `.send` sanctioned),
//! `drop` / `reject` (producers must stay non-blocking — send sites on
//! that channel have to use `try_send`, handling the full-queue case
//! explicitly). Send sites are tied to channels by the sender binding
//! name from the construction's `let (tx_name, ..) = ...` pattern — a
//! lint-grade stand-in for dataflow, which is why sender bindings in the
//! policy paths should carry distinctive names. A policy directive that
//! does not precede a bounded-channel construction is itself a finding,
//! so a stale note can't silently vouch for a channel that moved.

use crate::lexer::Token;
use crate::scan::SourceFile;
use crate::{Config, Finding};
use std::collections::BTreeMap;

/// Channel constructors that take a capacity.
const BOUNDED_CTORS: &[&str] = &["sync_channel", "bounded"];

pub fn check(files: &[SourceFile], cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.policy_paths.is_empty() {
        return;
    }
    // Pass 1: constructions — collect declared policies per sender name.
    let mut policy_of: BTreeMap<String, String> = BTreeMap::new();
    for sf in files {
        if !cfg.policy_paths.iter().any(|p| sf.rel.contains(p.as_str())) {
            continue;
        }
        let toks = sf.tokens();
        let mut lines = Vec::new();
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if !BOUNDED_CTORS.contains(&name) || !is_call(toks, i + 1) || sf.in_test(i) {
                continue;
            }
            let (line, col) = (toks[i].line, toks[i].col);
            lines.push(line);
            let Some(policy) = sf.policy_at(line) else {
                if sf.allowed("channel_policy", line) {
                    continue;
                }
                out.push(Finding {
                    rule: "channel_policy",
                    file: sf.rel.clone(),
                    line,
                    col,
                    message: format!(
                        "bounded channel (`{name}`) without a declared overload \
                         policy; state what happens when it fills: \
                         `// ndlint: policy(drop|block|reject, reason = ...)`"
                    ),
                });
                continue;
            };
            if let Some(tx) = sender_binding(sf, i) {
                // Two same-named senders with conflicting policies would
                // make send-site checks ambiguous; keep the stricter
                // (non-block) policy and flag the collision.
                match policy_of.get(&tx) {
                    Some(prev) if *prev != policy.kind => out.push(Finding {
                        rule: "channel_policy",
                        file: sf.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "sender binding `{tx}` already carries policy \
                             `{prev}` elsewhere; rename one binding so send \
                             sites resolve to a single policy"
                        ),
                    }),
                    Some(_) => {}
                    None => {
                        policy_of.insert(tx, policy.kind.clone());
                    }
                }
            }
        }
        // Stale policy notes: every `policy(...)` must govern a
        // construction line.
        for note in &sf.lexed.policies {
            let governs = sf
                .directive_target_line(note.line)
                .is_some_and(|l| lines.contains(&l));
            if !governs {
                out.push(Finding {
                    rule: "channel_policy",
                    file: sf.rel.clone(),
                    line: note.line,
                    col: 1,
                    message: format!(
                        "`policy({}, ...)` directive is not attached to a \
                         bounded channel construction; move it to the \
                         `sync_channel`/`bounded` call it vouches for",
                        note.kind
                    ),
                });
            }
        }
    }

    // Pass 2: send sites. Blocking `.send` on a drop/reject channel must
    // become `try_send` with explicit full-queue handling.
    for sf in files {
        if !cfg.policy_paths.iter().any(|p| sf.rel.contains(p.as_str())) {
            continue;
        }
        let toks = sf.tokens();
        for i in 0..toks.len() {
            if !toks[i].is_ident("send")
                || !i.checked_sub(1).is_some_and(|j| toks[j].is_punct('.'))
                || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                || sf.in_test(i)
            {
                continue;
            }
            let Some(recv) = i.checked_sub(2).and_then(|j| toks[j].ident()) else {
                continue;
            };
            let Some(kind) = policy_of.get(recv) else {
                continue;
            };
            if kind == "block" {
                continue;
            }
            let (line, col) = (toks[i].line, toks[i].col);
            if sf.allowed("channel_policy", line) {
                continue;
            }
            out.push(Finding {
                rule: "channel_policy",
                file: sf.rel.clone(),
                line,
                col,
                message: format!(
                    "blocking `send` on `{recv}`, whose channel declares \
                     policy `{kind}`; use `try_send` and handle the \
                     full-queue case per the policy"
                ),
            });
        }
    }
}

/// The first binding name of the `let ( name , ...` pattern opening the
/// statement that contains the construction at token `i` — the sender
/// half of `let (tx, rx) = sync_channel(..)`.
fn sender_binding(sf: &SourceFile, i: usize) -> Option<String> {
    let toks = sf.tokens();
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    if !toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    toks.get(j + 2).and_then(|t| t.ident()).map(str::to_string)
}

/// Whether the tokens at `j` begin a call: `(` directly, or a turbofish
/// `::<...>` followed by `(`.
fn is_call(toks: &[Token], mut j: usize) -> bool {
    if toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return true;
    }
    let turbofish = toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('<'));
    if !turbofish {
        return false;
    }
    j += 3;
    let mut depth = 1i32;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') {
            depth -= 1;
        }
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_punct('('))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lint(src: &str) -> Vec<Finding> {
        let cfg = Config {
            policy_paths: vec!["rpc/".into()],
            ..Config::default()
        };
        let files = vec![SourceFile::parse(
            Path::new("/x/rpc/ch.rs"),
            "rpc/ch.rs",
            src,
        )];
        let mut out = Vec::new();
        check(&files, &cfg, &mut out);
        out
    }

    #[test]
    fn undeclared_bounded_channel_fires() {
        let out = lint("fn f() { let (tx, rx) = mpsc::sync_channel(4); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0]
            .message
            .contains("without a declared overload policy"));
    }

    #[test]
    fn declared_block_policy_sanctions_blocking_send() {
        let out = lint(
            "fn f() {\n\
               // ndlint: policy(block, reason = \"backpressure\")\n\
               let (job_tx, rx) = mpsc::sync_channel(4);\n\
               job_tx.send(1).ok();\n\
             }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn drop_policy_rejects_blocking_send_even_cross_fn() {
        let out = lint(
            "fn f() {\n\
               // ndlint: policy(drop, reason = \"overload sheds\")\n\
               let (evt_tx, rx) = mpsc::sync_channel(4);\n\
             }\n\
             fn g(s: &Slot) { s.evt_tx.send(1).ok(); }\n\
             fn h(s: &Slot) { let _ = s.evt_tx.try_send(1); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("policy `drop`"));
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn stale_policy_note_fires() {
        let out = lint(
            "fn f() {\n\
               // ndlint: policy(block, reason = \"moved away\")\n\
               let x = 1;\n\
             }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("not attached"));
    }
}
