//! Workspace-wide call graph over the scanned file set.
//!
//! Name resolution is lint-grade, not compiler-grade: it works from the
//! lexer/scan layer only, so it cannot see types. The resolution rules,
//! chosen to stay *conservative* (an edge we are unsure about is added,
//! so transitive summaries over-approximate rather than miss):
//!
//! - **Free calls** `foo(...)` resolve to every free fn named `foo` in
//!   the workspace (module paths are invisible to the scanner).
//! - **Path calls** `Type::foo(...)` resolve to the fns named `foo`
//!   inside an `impl Type`; an unknown `Type` resolves to nothing (it is
//!   std or a vendored dep, whose blocking behaviour is modelled by the
//!   primitive table in [`crate::summary`], not by edges).
//! - **Method calls** `recv.foo(...)` resolve by receiver heuristics:
//!   `self.foo(...)` prefers the enclosing `impl`'s own `foo`; a
//!   receiver whose identifier matches an impl target name (modulo
//!   case/underscores, e.g. `decoder` → `Decoder`) narrows to that type;
//!   anything else widens to *every* impl fn named `foo` — the
//!   trait-object/dyn-call treatment.
//! - **Ubiquitous std method names** (`len`, `push`, `get`, `clone`,
//!   ...) are never widened: without type information, `.get(...)` on a
//!   slab would otherwise grow an edge to every workspace type that
//!   happens to define `get`, and the graph would drown in false paths.
//!   They still resolve exactly through `self.` and `Type::` calls.
//!
//! Every edge targets a *defined* workspace fn by construction — calls
//! into std/vendored code produce no edges (the proptests in
//! `tests/callgraph_props.rs` pin this down).

use crate::scan::{SourceFile, KEYWORDS};
use std::collections::BTreeMap;

/// Method names too generic to widen across impls (std collection / trait
/// vocabulary). Exact `self.`/`Type::` resolution still applies to them.
pub const UBIQUITOUS_METHODS: &[&str] = &[
    "all",
    "any",
    "as_mut",
    "as_ref",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "default",
    "drain",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flatten",
    "fmt",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "name",
    "new",
    "next",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "rev",
    "set",
    "sort",
    "sort_unstable",
    "split",
    "sum",
    "take",
    "to_string",
    "to_vec",
    "trim",
    "values",
    "with_capacity",
    "write",
    "zip",
];

/// One fn definition in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into the scanned file slice.
    pub file: usize,
    /// Index into that file's `fns`.
    pub decl: usize,
    /// Fn name (duplicated out of the decl for cheap lookups).
    pub name: String,
    /// Enclosing impl target, if any.
    pub impl_target: Option<String>,
}

/// One resolved call site inside a caller's body.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Node id of the callee.
    pub callee: usize,
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
}

/// The workspace call graph: nodes in deterministic (file, decl) order,
/// plus per-node resolved call sites in body token order.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// `calls[n]` = resolved call sites inside node `n`'s body.
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Total number of resolved edges (call sites).
    pub fn edge_count(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }
}

/// Case/underscore-insensitive key for the receiver-name → type-name
/// heuristic: `frame_decoder` matches `FrameDecoder`.
fn loose_key(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Builds the call graph over `files`. Deterministic: nodes follow the
/// input file order, candidate lists are sorted by node id.
pub fn build(files: &[SourceFile]) -> CallGraph {
    let mut g = CallGraph::default();
    // Indexes: name -> free-fn nodes, name -> method nodes,
    // (type, name) -> nodes, loose(type) -> type.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut loose_types: BTreeMap<String, &str> = BTreeMap::new();

    for (fi, sf) in files.iter().enumerate() {
        for (di, f) in sf.fns.iter().enumerate() {
            if f.is_test {
                continue; // test-only fns are neither callers nor callees
            }
            g.nodes.push(FnNode {
                file: fi,
                decl: di,
                name: f.name.clone(),
                impl_target: f.impl_target.clone(),
            });
        }
    }
    for (id, n) in g.nodes.iter().enumerate() {
        match &n.impl_target {
            None => free_by_name.entry(n.name.as_str()).or_default().push(id),
            Some(t) => {
                methods_by_name.entry(n.name.as_str()).or_default().push(id);
                by_type_method
                    .entry((t.as_str(), n.name.as_str()))
                    .or_default()
                    .push(id);
                loose_types.entry(loose_key(t)).or_insert(t.as_str());
            }
        }
    }

    g.calls = vec![Vec::new(); g.nodes.len()];
    for (id, node) in g.nodes.iter().enumerate() {
        let sf = &files[node.file];
        let decl = &sf.fns[node.decl];
        let Some((open, close)) = decl.body else {
            continue;
        };
        let toks = sf.tokens();
        let hi = close.min(toks.len().saturating_sub(1));
        let mut sites = Vec::new();
        for i in (open + 1)..hi {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if KEYWORDS.contains(&name) || sf.in_test(i) {
                continue;
            }
            // Must be a call: `(` directly after (turbofish is rare in
            // this workspace's call sites and is handled as non-call).
            if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            // Not a macro (`name!(`), not a definition (`fn name(`).
            if toks
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_ident("fn"))
            {
                continue;
            }
            let prev = i.checked_sub(1).map(|j| &toks[j]);
            let prev2 = i.checked_sub(2).map(|j| &toks[j]);
            let prev3 = i.checked_sub(3).map(|j| &toks[j]);
            let candidates: Vec<usize> = if prev.is_some_and(|t| t.is_punct('.')) {
                // Method call: receiver heuristics.
                let recv = prev2.and_then(|t| t.ident());
                if recv == Some("self") {
                    match &node.impl_target {
                        Some(t) => by_type_method
                            .get(&(t.as_str(), name))
                            .cloned()
                            .unwrap_or_else(|| widened(&methods_by_name, name)),
                        None => widened(&methods_by_name, name),
                    }
                } else if let Some(t) = recv.and_then(|r| loose_types.get(&loose_key(r)).copied()) {
                    by_type_method
                        .get(&(t, name))
                        .cloned()
                        .unwrap_or_else(|| widened(&methods_by_name, name))
                } else {
                    widened(&methods_by_name, name)
                }
            } else if prev.is_some_and(|t| t.is_punct(':'))
                && prev2.is_some_and(|t| t.is_punct(':'))
            {
                // Path call `Seg::name(...)`: exact when `Seg` is a known
                // impl target, otherwise no edge (std / module path).
                match prev3.and_then(|t| t.ident()) {
                    Some(seg) => by_type_method
                        .get(&(seg, name))
                        .cloned()
                        .unwrap_or_default(),
                    None => Vec::new(),
                }
            } else {
                free_by_name.get(name).cloned().unwrap_or_default()
            };
            for callee in candidates {
                sites.push(CallSite {
                    callee,
                    tok: i,
                    line: toks[i].line,
                    col: toks[i].col,
                });
            }
        }
        g.calls[id] = sites;
    }
    g
}

/// Widened method resolution: every impl fn with this name, except for
/// ubiquitous std vocabulary (see [`UBIQUITOUS_METHODS`]).
fn widened(methods_by_name: &BTreeMap<&str, Vec<usize>>, name: &str) -> Vec<usize> {
    if UBIQUITOUS_METHODS.contains(&name) {
        return Vec::new();
    }
    methods_by_name.get(name).cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("/x/cg.rs"), "cg.rs", src)
    }

    fn names_called_by(g: &CallGraph, files: &[SourceFile], caller: &str) -> Vec<String> {
        let id = g
            .nodes
            .iter()
            .position(|n| n.name == caller)
            .expect("caller defined");
        let mut out: Vec<String> = g.calls[id]
            .iter()
            .map(|c| g.nodes[c.callee].name.clone())
            .collect();
        let _ = files;
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn free_and_path_and_self_calls_resolve() {
        let files = vec![parse(
            "fn helper() {}\n\
             struct S;\n\
             impl S { fn m(&self) { self.inner(); helper(); S::assoc(); }\n\
                      fn inner(&self) {} fn assoc() {} }\n\
             fn top() { helper(); std::thread::sleep(d); }",
        )];
        let g = build(&files);
        assert_eq!(
            names_called_by(&g, &files, "m"),
            ["assoc", "helper", "inner"]
        );
        // `sleep` is not defined in the workspace: no edge.
        assert_eq!(names_called_by(&g, &files, "top"), ["helper"]);
    }

    #[test]
    fn unknown_receiver_widens_but_ubiquitous_names_do_not() {
        let files = vec![parse(
            "struct A; struct B;\n\
             impl A { fn refresh(&self) {} fn get(&self) {} }\n\
             impl B { fn refresh(&self) {} }\n\
             fn top(x: &X) { x.refresh(); x.get(); }",
        )];
        let g = build(&files);
        let top = g.nodes.iter().position(|n| n.name == "top").unwrap();
        // refresh widens to both impls; `get` is ubiquitous -> no edge.
        assert_eq!(g.calls[top].len(), 2);
        assert_eq!(names_called_by(&g, &files, "top"), ["refresh"]);
    }

    #[test]
    fn receiver_name_matching_a_type_narrows() {
        let files = vec![parse(
            "struct Decoder; struct Encoder;\n\
             impl Decoder { fn step(&self) {} }\n\
             impl Encoder { fn step(&self) {} }\n\
             fn top(decoder: &Decoder) { decoder.step(); }",
        )];
        let g = build(&files);
        let top = g.nodes.iter().position(|n| n.name == "top").unwrap();
        assert_eq!(g.calls[top].len(), 1);
        let callee = &g.nodes[g.calls[top][0].callee];
        assert_eq!(callee.impl_target.as_deref(), Some("Decoder"));
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let files = vec![parse(
            "fn helper() {}\nfn top() { println!(\"helper()\"); format!(\"{}\", 1); }",
        )];
        let g = build(&files);
        let top = g.nodes.iter().position(|n| n.name == "top").unwrap();
        assert!(g.calls[top].is_empty());
    }

    #[test]
    fn every_edge_targets_a_defined_node() {
        let files = vec![parse(
            "fn a() { b(); missing(); }\nfn b() { a(); x.undefined_method(); }",
        )];
        let g = build(&files);
        for sites in &g.calls {
            for s in sites {
                assert!(s.callee < g.nodes.len());
            }
        }
    }
}
