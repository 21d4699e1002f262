//! Lock-order rule: build the inter-class lock acquisition graph
//! (class = receiver field/binding name) and fail on cycles — the
//! classic two-function AB/BA deadlock shape.
//!
//! Two edge sources:
//!
//! - **Intra-fn** (the PR 3 pass): the ordered sequence of `.lock()` /
//!   `.read()` / `.write()` acquisitions inside one body contributes an
//!   edge for every earlier→later pair of distinct classes.
//! - **Interprocedural** (v2): a call made while a guard of class `A` is
//!   held contributes edges `A -> B` for every class `B` the callee
//!   *transitively* acquires (per the call-graph summaries) — so the
//!   AB/BA shape is caught even when the two acquisitions sit three
//!   frames apart.
//!
//! Heuristics, chosen to stay sound-ish without type information:
//! - only zero-argument calls count (`io::Read::read(&mut buf)` has an
//!   argument, `Mutex::lock()` does not);
//! - the receiver class is the identifier token directly before the `.`;
//!   calls on temporaries (`foo().lock()`) are skipped;
//! - same-class pairs are ignored (re-acquiring the same lock is a
//!   different bug class, and guards are usually dropped in between);
//! - an edge can be suppressed at its anchor site (the later acquisition,
//!   or the call that imports the callee's acquisitions) with
//!   `// ndlint: allow(lock_order, reason = ...)`.

use crate::callgraph::CallGraph;
use crate::scan::SourceFile;
use crate::summary::{lock_sites, FnSummary};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One acquisition-order edge, with its diagnostic anchor.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    col: u32,
    message: String,
}

pub fn check(files: &[SourceFile], graph: &CallGraph, sums: &[FnSummary], out: &mut Vec<Finding>) {
    let mut edges: Vec<Edge> = Vec::new();

    // Intra-fn ordered pairs.
    for sf in files {
        for f in &sf.fns {
            if f.is_test {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let acqs = lock_sites(sf, open, close);
            for a in 0..acqs.len() {
                for b in (a + 1)..acqs.len() {
                    if acqs[a].class == acqs[b].class {
                        continue;
                    }
                    if sf.allowed("lock_order", acqs[b].line) {
                        continue;
                    }
                    edges.push(Edge {
                        from: acqs[a].class.clone(),
                        to: acqs[b].class.clone(),
                        file: sf.rel.clone(),
                        line: acqs[b].line,
                        col: acqs[b].col,
                        message: format!(
                            "fn `{}` acquires `{}`.{}() at {}:{} while `{}`.{}() \
                             from {}:{} may be held",
                            f.name,
                            acqs[b].class,
                            acqs[b].method,
                            sf.rel,
                            acqs[b].line,
                            acqs[a].class,
                            acqs[a].method,
                            sf.rel,
                            acqs[a].line,
                        ),
                    });
                }
            }
        }
    }

    // Interprocedural: calls under a held guard import the callee's
    // transitive acquisition classes.
    for (id, node) in graph.nodes.iter().enumerate() {
        let sf = &files[node.file];
        for region in &sums[id].held {
            for site in &graph.calls[id] {
                if site.tok < region.start || site.tok > region.end {
                    continue;
                }
                if sf.allowed("lock_order", site.line) {
                    continue;
                }
                for class in sums[site.callee].lock_classes.keys() {
                    if *class == region.class {
                        continue;
                    }
                    edges.push(Edge {
                        from: region.class.clone(),
                        to: class.clone(),
                        file: sf.rel.clone(),
                        line: site.line,
                        col: site.col,
                        message: format!(
                            "fn `{}` calls `{}` at {}:{}, which transitively \
                             acquires `{}`, while the `{}` guard from line {} \
                             is held",
                            node.name,
                            graph.nodes[site.callee].name,
                            sf.rel,
                            site.line,
                            class,
                            region.class,
                            region.acq_line,
                        ),
                    });
                }
            }
        }
    }

    // Adjacency over classes; an edge (u, v) is a finding iff v reaches u.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut seen_msgs: BTreeSet<String> = BTreeSet::new();
    for e in &edges {
        if !reaches(&adj, &e.to, &e.from) {
            continue;
        }
        let msg = format!(
            "lock-order cycle: `{}` -> `{}` ({}); another path acquires them \
             in the opposite order",
            e.from, e.to, e.message
        );
        if !seen_msgs.insert(msg.clone()) {
            continue;
        }
        out.push(Finding {
            rule: "lock_order",
            file: e.file.clone(),
            line: e.line,
            col: e.col,
            message: msg,
        });
    }
}

fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, target: &str) -> bool {
    let mut stack = vec![from];
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    while let Some(node) = stack.pop() {
        if node == target {
            return true;
        }
        if !visited.insert(node) {
            continue;
        }
        if let Some(next) = adj.get(node) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::summary;
    use std::path::Path;

    fn lint(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(Path::new("/x/lo.rs"), "lo.rs", src)];
        let g = callgraph::build(&files);
        let sums = summary::summarize(&files, &g);
        let mut out = Vec::new();
        check(&files, &g, &sums, &mut out);
        out
    }

    #[test]
    fn intra_fn_ab_ba_cycle_still_fires() {
        let out = lint(
            "fn f(a: &L, b: &L) { let x = a.lock(); let y = b.lock(); }\n\
             fn g(a: &L, b: &L) { let y = b.lock(); let x = a.lock(); }",
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(|f| f.rule == "lock_order"));
    }

    #[test]
    fn transitive_ab_ba_cycle_fires_across_fns() {
        let out = lint(
            "fn takes_b() { let g = b_lock.lock(); }\n\
             fn takes_a() { let g = a_lock.lock(); }\n\
             fn f() { let g = a_lock.lock(); takes_b(); }\n\
             fn h() { let g = b_lock.lock(); takes_a(); }",
        );
        assert!(!out.is_empty(), "interprocedural cycle must be seen");
        assert!(
            out.iter()
                .any(|f| f.message.contains("transitively acquires")),
            "{out:?}"
        );
    }

    #[test]
    fn consistent_transitive_order_is_clean() {
        let out = lint(
            "fn takes_b() { let g = b_lock.lock(); }\n\
             fn f() { let g = a_lock.lock(); takes_b(); }\n\
             fn h() { let g = a_lock.lock(); takes_b(); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn call_site_suppression_silences_imported_edge() {
        let out = lint(
            "fn takes_b() { let g = b_lock.lock(); }\n\
             fn takes_a() { let g = a_lock.lock(); }\n\
             fn f() {\n\
               let g = a_lock.lock();\n\
               // ndlint: allow(lock_order, reason = \"tested hand-off\")\n\
               takes_b();\n\
             }\n\
             fn h() {\n\
               let g = b_lock.lock();\n\
               // ndlint: allow(lock_order, reason = \"tested hand-off\")\n\
               takes_a();\n\
             }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
