//! Per-function behaviour summaries, propagated transitively over the
//! call graph.
//!
//! Two facts are summarized per fn:
//!
//! - **Blocking primitives** performed directly in the body: channel
//!   send/recv, `thread::sleep`, `.join()`, socket `connect`, buffered
//!   socket/file reads & writes, and `std::fs` operations (the table in
//!   [`prim_of`]). Everything a fn *transitively* blocks on is the union
//!   of its own primitives and its callees' sets, computed to fixpoint —
//!   monotone by construction, so adding a call can only grow a summary.
//! - **Lock classes acquired** (`recv.lock()` / `.read()` / `.write()`
//!   zero-arg calls, classed by receiver identifier exactly like the
//!   `lock_order` rule), again closed transitively.
//!
//! For diagnostics each transitive fact carries a *witness*: the direct
//! call site it entered through, so a finding can print the chain
//! `handle -> extract_features_batched -> run_pipeline: recv()`.
//!
//! The module also computes **held regions**: token ranges of a body
//! during which a lock guard is live. Guard extent heuristics:
//! temporaries (`x.lock().push(..)`) end at the statement's `;`;
//! let-bound guards end at the enclosing block's `}` or at an explicit
//! `drop(name)`, whichever comes first; guards created in `if let` /
//! `match` heads end with the statement (≈ the construct's block).

use crate::callgraph::CallGraph;
use crate::scan::{SourceFile, KEYWORDS};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Kinds of blocking primitives the analysis models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockKind {
    /// Blocking bounded-channel send (`.send(..)`).
    ChanSend,
    /// Blocking channel receive (`.recv()` / `.recv_timeout(..)`).
    ChanRecv,
    /// `thread::sleep` (any `sleep(..)` call).
    Sleep,
    /// Thread join (`.join()` zero-arg).
    Join,
    /// Socket connect (`connect(..)` / `TcpStream::connect`).
    Connect,
    /// Buffered stream I/O: `.read(buf)` / `.write(buf)` with args,
    /// `.read_exact` / `.write_all` / `.flush()` / `.read_to_end`.
    SocketIo,
    /// Filesystem I/O: `fs::*`, `File::open/create`, `.sync_all()`.
    FileIo,
}

impl BlockKind {
    /// Short label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            BlockKind::ChanSend => "channel send",
            BlockKind::ChanRecv => "channel recv",
            BlockKind::Sleep => "thread::sleep",
            BlockKind::Join => "thread join",
            BlockKind::Connect => "socket connect",
            BlockKind::SocketIo => "stream I/O",
            BlockKind::FileIo => "file I/O",
        }
    }
}

/// A blocking primitive performed directly in a fn body.
#[derive(Debug, Clone)]
pub struct Primitive {
    pub kind: BlockKind,
    /// Token index of the operation's name.
    pub tok: usize,
    pub line: u32,
    pub col: u32,
    /// The identifier that triggered classification (for messages).
    pub what: String,
}

/// A lock acquisition site directly in a fn body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Receiver identifier (the lock "class").
    pub class: String,
    /// `lock` / `read` / `write`.
    pub method: String,
    /// Token index of the method name.
    pub tok: usize,
    pub line: u32,
    pub col: u32,
}

/// A token range of a body during which a lock guard is live.
#[derive(Debug, Clone)]
pub struct HeldRegion {
    pub class: String,
    /// Token index of the acquisition.
    pub acq_tok: usize,
    pub acq_line: u32,
    /// First token index after the acquisition covered by the guard.
    pub start: usize,
    /// Last token index (inclusive) covered by the guard.
    pub end: usize,
}

/// How a transitive fact entered a fn: directly, or through a call.
#[derive(Debug, Clone, Copy)]
pub enum Via {
    /// The fn performs the primitive itself at this token.
    Direct { tok: usize, line: u32, col: u32 },
    /// Inherited from `callee`, first reached through the call at
    /// `(line, col)`.
    Call { callee: usize, line: u32, col: u32 },
}

/// Everything summarized about one call-graph node.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Direct blocking primitives, in body order.
    pub prims: Vec<Primitive>,
    /// Direct lock acquisitions, in body order.
    pub locks: Vec<LockSite>,
    /// Guard-held token ranges of the body.
    pub held: Vec<HeldRegion>,
    /// Transitive blocking kinds with one witness each.
    pub blocking: BTreeMap<BlockKind, Via>,
    /// Transitive lock classes acquired, with one witness each.
    pub lock_classes: BTreeMap<String, Via>,
}

/// Summaries for every node of `graph`, fully propagated.
pub fn summarize(files: &[SourceFile], graph: &CallGraph) -> Vec<FnSummary> {
    let mut out: Vec<FnSummary> = Vec::with_capacity(graph.nodes.len());
    for (id, node) in graph.nodes.iter().enumerate() {
        let sf = &files[node.file];
        let decl = &sf.fns[node.decl];
        let mut s = FnSummary::default();
        if let Some((open, close)) = decl.body {
            s.prims = primitives(sf, open, close);
            s.locks = lock_sites(sf, open, close);
            s.held = held_regions(sf, &s.locks, open, close);
        }
        for p in &s.prims {
            s.blocking.entry(p.kind).or_insert(Via::Direct {
                tok: p.tok,
                line: p.line,
                col: p.col,
            });
        }
        for l in &s.locks {
            s.lock_classes
                .entry(l.class.clone())
                .or_insert(Via::Direct {
                    tok: l.tok,
                    line: l.line,
                    col: l.col,
                });
        }
        let _ = id;
        out.push(s);
    }
    // Fixpoint: union callee sets into callers until nothing changes.
    // Worst case O(nodes * edges * kinds); the workspace converges in a
    // handful of rounds because chains are shallow.
    loop {
        let mut changed = false;
        for id in 0..graph.nodes.len() {
            for site in &graph.calls[id] {
                if site.callee == id {
                    continue;
                }
                let (callee_blocking, callee_classes) = {
                    let c = &out[site.callee];
                    (
                        c.blocking.keys().copied().collect::<Vec<_>>(),
                        c.lock_classes.keys().cloned().collect::<Vec<_>>(),
                    )
                };
                let caller = &mut out[id];
                for k in callee_blocking {
                    if let Entry::Vacant(slot) = caller.blocking.entry(k) {
                        slot.insert(Via::Call {
                            callee: site.callee,
                            line: site.line,
                            col: site.col,
                        });
                        changed = true;
                    }
                }
                for c in callee_classes {
                    if let Entry::Vacant(slot) = caller.lock_classes.entry(c) {
                        slot.insert(Via::Call {
                            callee: site.callee,
                            line: site.line,
                            col: site.col,
                        });
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Renders the witness chain for `kind` starting at node `id`, e.g.
/// `extract_features_batched -> run_pipeline: channel recv at engine.rs:258`.
pub fn blocking_chain(
    graph: &CallGraph,
    files: &[SourceFile],
    sums: &[FnSummary],
    mut id: usize,
    kind: BlockKind,
) -> String {
    let mut hops: Vec<String> = Vec::new();
    for _ in 0..32 {
        let Some(via) = sums[id].blocking.get(&kind) else {
            break;
        };
        match *via {
            Via::Direct { line, .. } => {
                let n = &graph.nodes[id];
                hops.push(format!("`{}` ({}:{})", n.name, files[n.file].rel, line));
                break;
            }
            Via::Call { callee, .. } => {
                hops.push(format!("`{}`", graph.nodes[id].name));
                id = callee;
            }
        }
    }
    hops.join(" -> ")
}

const IO_METHODS: &[&str] = &["read_exact", "write_all", "read_to_end", "read_to_string"];
const FS_METHODS: &[&str] = &["sync_all", "sync_data", "set_len"];

/// Classifies the token at `i` as a blocking primitive, if it is one.
fn prim_of(sf: &SourceFile, i: usize) -> Option<BlockKind> {
    let toks = sf.tokens();
    let name = toks[i].ident()?;
    let after_dot = i > 0 && toks[i - 1].is_punct('.');
    let is_call = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    if !is_call {
        return None;
    }
    let zero_arg = toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
    let after_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
    let path_head = |back: usize| {
        i.checked_sub(back)
            .and_then(|j| toks.get(j))
            .and_then(|t| t.ident())
    };
    match name {
        "send" if after_dot && !zero_arg => Some(BlockKind::ChanSend),
        "recv" if after_dot && zero_arg => Some(BlockKind::ChanRecv),
        "recv_timeout" if after_dot => Some(BlockKind::ChanRecv),
        "sleep" => Some(BlockKind::Sleep),
        "join" if after_dot && zero_arg => Some(BlockKind::Join),
        "connect" | "connect_timeout" => Some(BlockKind::Connect),
        "read" | "write" if after_dot && !zero_arg => Some(BlockKind::SocketIo),
        "flush" if after_dot && zero_arg => Some(BlockKind::SocketIo),
        n if IO_METHODS.contains(&n) && after_dot => Some(BlockKind::SocketIo),
        n if FS_METHODS.contains(&n) && after_dot && zero_arg => Some(BlockKind::FileIo),
        "open" | "create" | "create_new" if after_path && path_head(3) == Some("File") => {
            Some(BlockKind::FileIo)
        }
        _ if after_path && path_head(3) == Some("fs") => Some(BlockKind::FileIo),
        _ => None,
    }
}

/// Direct blocking primitives inside a body, test regions excluded.
fn primitives(sf: &SourceFile, open: usize, close: usize) -> Vec<Primitive> {
    let toks = sf.tokens();
    let hi = close.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate().take(hi).skip(open + 1) {
        if sf.in_test(i) {
            continue;
        }
        if let Some(kind) = prim_of(sf, i) {
            out.push(Primitive {
                kind,
                tok: i,
                line: tok.line,
                col: tok.col,
                what: tok.ident().unwrap_or("?").to_string(),
            });
        }
    }
    out
}

/// Direct lock acquisitions inside a body (the `lock_order` heuristics:
/// zero-arg `.lock()` / `.read()` / `.write()` with an identifier
/// receiver), test regions excluded.
pub fn lock_sites(sf: &SourceFile, open: usize, close: usize) -> Vec<LockSite> {
    const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
    let toks = sf.tokens();
    let hi = close.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in (open + 1)..hi {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(method) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !LOCK_METHODS.contains(&method) {
            continue;
        }
        if !(toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let Some(class) = i.checked_sub(1).and_then(|j| toks[j].ident()) else {
            continue;
        };
        if KEYWORDS.contains(&class) || sf.in_test(i) {
            continue;
        }
        out.push(LockSite {
            class: class.to_string(),
            method: method.to_string(),
            tok: i + 1,
            line: toks[i + 1].line,
            col: toks[i + 1].col,
        });
    }
    out
}

/// Computes the guard-held token range for each acquisition.
fn held_regions(sf: &SourceFile, locks: &[LockSite], open: usize, close: usize) -> Vec<HeldRegion> {
    let toks = sf.tokens();
    let mut out = Vec::new();
    for l in locks {
        // The acquisition expression ends at the `)` of the zero-arg
        // call: tok is the method name, +2 is `)`.
        let acq_end = (l.tok + 2).min(close);
        // Statement start: walk back to the nearest `;`, `{` or `}`.
        let mut start = l.tok;
        while start > open {
            let t = &toks[start - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            start -= 1;
        }
        let binding = binding_name(toks, start, l.tok);
        let block_close = sf
            .enclosing_block(l.tok)
            .map(|(_, c)| c)
            .unwrap_or(close)
            .min(close);
        let end = match &binding {
            Some(name) => {
                // Held to `drop(name)` inside the block, else block end.
                let mut e = block_close;
                let mut j = acq_end;
                while j + 2 <= block_close {
                    if toks[j].is_ident("drop")
                        && toks[j + 1].is_punct('(')
                        && toks[j + 2].is_ident(name)
                    {
                        e = j;
                        break;
                    }
                    j += 1;
                }
                e
            }
            None => {
                // Temporary: held to the end of the statement. Besides
                // `;`, a `,` at depth 0 ends it (a match-arm body or an
                // argument position — under-approximating the tail of
                // the statement beats leaking the guard into the next
                // arm), as does leaving the enclosing brace or paren.
                let mut brace = 0i32;
                let mut paren = 0i32;
                let mut e = block_close;
                let mut j = acq_end + 1;
                while j < block_close {
                    let t = &toks[j];
                    if t.is_punct('{') {
                        brace += 1;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if brace < 0 {
                            e = j;
                            break;
                        }
                    } else if t.is_punct('(') {
                        paren += 1;
                    } else if t.is_punct(')') {
                        paren -= 1;
                        if paren < 0 {
                            e = j;
                            break;
                        }
                    } else if (t.is_punct(';') || t.is_punct(',')) && brace == 0 && paren <= 0 {
                        e = j;
                        break;
                    }
                    j += 1;
                }
                e
            }
        };
        if end > acq_end {
            out.push(HeldRegion {
                class: l.class.clone(),
                acq_tok: l.tok,
                acq_line: l.line,
                start: acq_end + 1,
                end,
            });
        }
    }
    out
}

/// If the statement starting at `start` binds the acquisition at
/// `acq_tok` with `let [mut] name = <receiver-path>.lock()`, the binding
/// name. The RHS up to the acquisition must be a bare receiver path — a
/// `(` in between (`let r = Arc::clone(m.lock().x())`) means the guard
/// is a temporary inside a larger expression, not the bound value.
fn binding_name(toks: &[crate::lexer::Token], start: usize, acq_tok: usize) -> Option<String> {
    if !toks.get(start).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut j = start + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j).and_then(|t| t.ident())?;
    // A destructuring pattern (`let (a, b) = ..` / `let Some(x) = ..`)
    // is not a simple guard binding; treat as temporary.
    if toks.get(j + 1).is_some_and(|t| t.is_punct('(')) || name.chars().next()?.is_uppercase() {
        return None;
    }
    // The `=` must come before the acquisition...
    let eq = (j + 1..acq_tok).find(|&k| toks[k].is_punct('='))?;
    // ...and the receiver path between them must be call-free. The
    // receiver ident sits at `acq_tok - 2` (before the `.method`).
    let recv = acq_tok.checked_sub(2)?;
    if (eq + 1..recv).any(|k| toks[k].is_punct('(')) {
        return None;
    }
    // A method chain continuing past the acquisition
    // (`let s = m.lock().clone()`) binds the derived value; the guard
    // itself is a temporary dropped at the statement's end.
    if toks.get(acq_tok + 3).is_some_and(|t| t.is_punct('.')) {
        return None;
    }
    Some(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use std::path::Path;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("/x/sum.rs"), "sum.rs", src)
    }

    fn summary_of<'a>(
        files: &[SourceFile],
        g: &'a CallGraph,
        sums: &'a [FnSummary],
        name: &str,
    ) -> &'a FnSummary {
        let _ = files;
        let id = g.nodes.iter().position(|n| n.name == name).unwrap();
        &sums[id]
    }

    #[test]
    fn direct_primitives_classify() {
        let files = vec![parse(
            "fn f(tx: &S, rx: &R, s: &mut T) {\n\
               tx.send(1).ok(); let _ = rx.recv();\n\
               std::thread::sleep(d); h.join().ok();\n\
               s.write_all(b).ok(); s.flush().ok();\n\
               let m = std::fs::read(p); File::open(p).ok();\n\
             }",
        )];
        let g = callgraph::build(&files);
        let sums = summarize(&files, &g);
        let s = summary_of(&files, &g, &sums, "f");
        let kinds: Vec<BlockKind> = s.blocking.keys().copied().collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::ChanSend,
                BlockKind::ChanRecv,
                BlockKind::Sleep,
                BlockKind::Join,
                BlockKind::SocketIo,
                BlockKind::FileIo,
            ]
        );
    }

    #[test]
    fn lock_read_write_zero_arg_is_not_io() {
        let files = vec![parse(
            "fn f(m: &L) { let g = m.read(); let h = m.write(); }",
        )];
        let g = callgraph::build(&files);
        let sums = summarize(&files, &g);
        let s = summary_of(&files, &g, &sums, "f");
        assert!(s.blocking.is_empty());
        assert_eq!(s.locks.len(), 2);
    }

    #[test]
    fn blocking_propagates_transitively() {
        let files = vec![parse(
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { std::thread::sleep(d); }",
        )];
        let g = callgraph::build(&files);
        let sums = summarize(&files, &g);
        let a = summary_of(&files, &g, &sums, "a");
        assert!(a.blocking.contains_key(&BlockKind::Sleep));
        let chain = blocking_chain(&g, &files, &sums, 0, BlockKind::Sleep);
        assert!(chain.contains("`a`") && chain.contains("`c`"), "{chain}");
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let files = vec![parse(
            "fn f(m: &L, tx: &S) { m.write().push(1); tx.send(2).ok(); }",
        )];
        let g = callgraph::build(&files);
        let sums = summarize(&files, &g);
        let s = summary_of(&files, &g, &sums, "f");
        assert_eq!(s.held.len(), 1);
        // The send's token must be outside the held region.
        let send_tok = s
            .prims
            .iter()
            .find(|p| p.kind == BlockKind::ChanSend)
            .unwrap()
            .tok;
        assert!(send_tok > s.held[0].end);
    }

    #[test]
    fn let_bound_guard_ends_at_drop_or_block() {
        let files = vec![parse(
            "fn f(m: &L, tx: &S) { let g = m.lock(); drop(g); tx.send(1).ok(); }\n\
             fn h(m: &L, tx: &S) { let g = m.lock(); tx.send(1).ok(); }",
        )];
        let g = callgraph::build(&files);
        let sums = summarize(&files, &g);
        let f = summary_of(&files, &g, &sums, "f");
        let send_tok = f
            .prims
            .iter()
            .find(|p| p.kind == BlockKind::ChanSend)
            .unwrap()
            .tok;
        assert!(send_tok > f.held[0].end, "drop(g) releases before send");
        let h = summary_of(&files, &g, &sums, "h");
        let send_tok = h
            .prims
            .iter()
            .find(|p| p.kind == BlockKind::ChanSend)
            .unwrap()
            .tok;
        assert!(
            send_tok <= h.held[0].end,
            "no drop: guard held to block end"
        );
    }
}
