//! Interprocedural blocking rules, built on the call graph + summaries:
//!
//! - `blocking` — no function may perform a blocking operation, directly
//!   or through any callee, while a `Mutex`/`RwLock` guard is live. A
//!   guard held across a channel send, socket read, or file write turns
//!   every other thread that wants the lock into a hostage of the slow
//!   peer on the far side. Findings anchor at the blocking call site
//!   (where the fix or the `// ndlint: allow(blocking, reason = ...)`
//!   suppression belongs), and carry the transitive witness chain.
//! - `event_zone` — hard zones: functions (e.g. the RPC event thread's
//!   `EventLoop::event_loop`) from which *any* transitively reachable blocking
//!   primitive is a finding, held lock or not. The event thread is the
//!   only thread driving every connection; one blocking call stalls the
//!   whole fleet's I/O. Findings anchor at the primitive itself so the
//!   suppression (`allow(event_zone, ...)`) documents the specific site
//!   (e.g. a read on a socket already set nonblocking).

use crate::callgraph::CallGraph;
use crate::scan::SourceFile;
use crate::summary::{blocking_chain, FnSummary};
use crate::{Config, Finding};
use std::collections::BTreeMap;

pub fn check(
    files: &[SourceFile],
    graph: &CallGraph,
    sums: &[FnSummary],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    blocking_under_lock(files, graph, sums, out);
    event_zones(files, graph, sums, cfg, out);
}

fn blocking_under_lock(
    files: &[SourceFile],
    graph: &CallGraph,
    sums: &[FnSummary],
    out: &mut Vec<Finding>,
) {
    for (id, node) in graph.nodes.iter().enumerate() {
        let sf = &files[node.file];
        let s = &sums[id];
        for region in &s.held {
            // Direct primitives inside the guard's extent.
            for p in &s.prims {
                if p.tok < region.start || p.tok > region.end {
                    continue;
                }
                if sf.allowed("blocking", p.line) {
                    continue;
                }
                out.push(Finding {
                    rule: "blocking",
                    file: sf.rel.clone(),
                    line: p.line,
                    col: p.col,
                    message: format!(
                        "{} (`{}`) while `{}` guard from line {} is held; \
                         snapshot-then-drop the guard first, or annotate \
                         `// ndlint: allow(blocking, reason = ...)`",
                        p.kind.label(),
                        p.what,
                        region.class,
                        region.acq_line,
                    ),
                });
            }
            // Calls inside the extent whose callee (transitively) blocks.
            for site in &graph.calls[id] {
                if site.tok < region.start || site.tok > region.end {
                    continue;
                }
                let callee = &sums[site.callee];
                let Some((&kind, _)) = callee.blocking.iter().next() else {
                    continue;
                };
                if sf.allowed("blocking", site.line) {
                    continue;
                }
                let chain = blocking_chain(graph, files, sums, site.callee, kind);
                out.push(Finding {
                    rule: "blocking",
                    file: sf.rel.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "call to `{}` may block ({} via {}) while `{}` guard \
                         from line {} is held; drop the guard before the call, \
                         or annotate `// ndlint: allow(blocking, reason = ...)`",
                        graph.nodes[site.callee].name,
                        kind.label(),
                        chain,
                        region.class,
                        region.acq_line,
                    ),
                });
            }
        }
    }
}

fn event_zones(
    files: &[SourceFile],
    graph: &CallGraph,
    sums: &[FnSummary],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    for zone in &cfg.event_zones {
        // Resolve the entry node.
        let entries: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                files[n.file].rel.ends_with(&zone.file_suffix)
                    && n.name == zone.fn_name
                    && match &zone.impl_target {
                        Some(t) => n.impl_target.as_deref() == Some(t),
                        None => n.impl_target.is_none(),
                    }
            })
            .map(|(id, _)| id)
            .collect();
        if entries.is_empty() {
            out.push(Finding {
                rule: "event_zone",
                file: zone.file_suffix.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "event zone entry `{}` not found — the zone config is \
                     stale and the {} is unprotected",
                    zone.fn_name, zone.label,
                ),
            });
            continue;
        }
        // BFS over call edges, tracking one parent per node for chains.
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = entries.clone();
        let mut seen: Vec<bool> = vec![false; graph.nodes.len()];
        for &e in &entries {
            seen[e] = true;
        }
        while let Some(id) = queue.pop() {
            for site in &graph.calls[id] {
                if !seen[site.callee] {
                    seen[site.callee] = true;
                    parent.insert(site.callee, id);
                    queue.push(site.callee);
                }
            }
        }
        for (id, node) in graph.nodes.iter().enumerate() {
            if !seen[id] {
                continue;
            }
            let sf = &files[node.file];
            for p in &sums[id].prims {
                if sf.allowed("event_zone", p.line) {
                    continue;
                }
                let path = chain_to(graph, &parent, id);
                out.push(Finding {
                    rule: "event_zone",
                    file: sf.rel.clone(),
                    line: p.line,
                    col: p.col,
                    message: format!(
                        "{} (`{}`) is reachable from the {} ({}); the event \
                         thread must never block — hand the work to a worker \
                         queue, or annotate \
                         `// ndlint: allow(event_zone, reason = ...)`",
                        p.kind.label(),
                        p.what,
                        zone.label,
                        path,
                    ),
                });
            }
        }
        // Contended `.lock()` calls also stall the zone, but flagging
        // every acquisition would make it unusable — the runtime witness
        // sanitizer covers lock stalls dynamically instead.
    }
}

/// Renders `entry -> ... -> node` from the BFS parent map.
fn chain_to(graph: &CallGraph, parent: &BTreeMap<usize, usize>, mut id: usize) -> String {
    let mut names = vec![format!("`{}`", graph.nodes[id].name)];
    for _ in 0..32 {
        let Some(&p) = parent.get(&id) else { break };
        names.push(format!("`{}`", graph.nodes[p].name));
        id = p;
    }
    names.reverse();
    names.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::summary;
    use crate::EventZone;
    use std::path::Path;

    fn lint(src: &str, cfg: &Config) -> Vec<Finding> {
        let files = vec![SourceFile::parse(Path::new("/x/bl.rs"), "bl.rs", src)];
        let g = callgraph::build(&files);
        let sums = summary::summarize(&files, &g);
        let mut out = Vec::new();
        check(&files, &g, &sums, cfg, &mut out);
        out
    }

    #[test]
    fn transitive_blocking_under_guard_fires_with_chain() {
        let out = lint(
            "fn leaf(tx: &S) { tx.send(1).ok(); }\n\
             fn mid() { leaf(t); }\n\
             fn top(m: &L) { let g = m.lock(); mid(); }",
            &Config::default(),
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "blocking");
        assert!(
            out[0].message.contains("`mid` -> `leaf`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn snapshot_then_drop_is_clean() {
        let out = lint(
            "fn top(m: &L, tx: &S) { let v = { let g = m.lock(); g.snap() }; \
             tx.send(v).ok(); }",
            &Config::default(),
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn event_zone_flags_all_reachable_primitives() {
        let cfg = Config {
            event_zones: vec![EventZone {
                file_suffix: "bl.rs".into(),
                impl_target: Some("Ev".into()),
                fn_name: "run".into(),
                label: "test event thread".into(),
            }],
            ..Config::default()
        };
        let out = lint(
            "struct Ev;\n\
             impl Ev { fn run(&self) { self.step(); }\n\
                       fn step(&self) { helper(); } }\n\
             fn helper() { std::thread::sleep(d); }\n\
             fn unrelated(tx: &S) { tx.send(1).ok(); }",
            &cfg,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "event_zone");
        assert!(
            out[0].message.contains("`run` -> `step` -> `helper`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn missing_zone_entry_is_itself_a_finding() {
        let cfg = Config {
            event_zones: vec![EventZone {
                file_suffix: "bl.rs".into(),
                impl_target: None,
                fn_name: "no_such_fn".into(),
                label: "test zone".into(),
            }],
            ..Config::default()
        };
        let out = lint("fn f() {}", &cfg);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("stale"));
    }
}
