//! Property tests of the call-graph builder and the summary fixpoint:
//!
//! - **Well-formedness**: on generated multi-file programs, every edge's
//!   callee is a defined node, the callee's name matches the call site's
//!   token, and node/edge construction never panics.
//! - **Monotonicity**: appending one more call to a function body can
//!   only grow (never shrink) that function's transitive blocking set —
//!   the property the fixpoint propagation's soundness rests on.
//! - **Determinism**: building twice from the same sources yields the
//!   same nodes and edges (the JSON report determinism test in
//!   `tests/ndlint_workspace.rs` covers the full pipeline end-to-end).

use ndlint::callgraph;
use ndlint::scan::SourceFile;
use ndlint::summary::{self, BlockKind};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;

const FN_NAMES: &[&str] = &[
    "alpha_task",
    "beta_task",
    "gamma_task",
    "delta_task",
    "epsilon_task",
];

/// One generated function body: which peers it calls, and whether it
/// performs a blocking primitive of its own.
#[derive(Debug, Clone)]
struct GenFn {
    calls: Vec<usize>,
    sleeps: bool,
    locks: bool,
}

fn gen_fns() -> impl Strategy<Value = Vec<GenFn>> {
    prop::collection::vec(
        (
            prop::collection::vec(0..FN_NAMES.len(), 0..4),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(calls, sleeps, locks)| GenFn {
                calls,
                sleeps,
                locks,
            }),
        FN_NAMES.len()..FN_NAMES.len() + 1,
    )
}

fn render(fns: &[GenFn]) -> String {
    let mut out = String::new();
    for (i, f) in fns.iter().enumerate() {
        out.push_str(&format!("fn {}() {{\n", FN_NAMES[i]));
        if f.locks {
            out.push_str("    let guard = shared_mu.lock();\n");
        }
        if f.sleeps {
            out.push_str("    std::thread::sleep(d);\n");
        }
        for &c in &f.calls {
            out.push_str(&format!("    {}();\n", FN_NAMES[c]));
        }
        out.push_str("}\n");
    }
    out
}

fn parse_one(src: &str) -> Vec<SourceFile> {
    vec![SourceFile::parse(Path::new("/x/props.rs"), "props.rs", src)]
}

fn node_id(g: &callgraph::CallGraph, name: &str) -> usize {
    g.nodes
        .iter()
        .position(|n| n.name == name)
        .unwrap_or_else(|| panic!("{name} must be a node"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every call edge points at a defined node whose name matches what
    /// the source actually calls.
    #[test]
    fn edges_resolve_to_defined_fns(fns in gen_fns()) {
        let files = parse_one(&render(&fns));
        let g = callgraph::build(&files);
        prop_assert_eq!(g.nodes.len(), FN_NAMES.len());
        for (id, sites) in g.calls.iter().enumerate() {
            let expected: BTreeSet<&str> =
                fns[id].calls.iter().map(|&c| FN_NAMES[c]).collect();
            for site in sites {
                prop_assert!(site.callee < g.nodes.len());
                let callee = g.nodes[site.callee].name.as_str();
                prop_assert!(
                    expected.contains(callee),
                    "edge {} -> {} has no call site in the source",
                    g.nodes[id].name, callee
                );
            }
            // Every written call resolves: the builder may fan one name
            // out to several candidates but never drops a defined callee.
            let resolved: BTreeSet<&str> =
                sites.iter().map(|s| g.nodes[s.callee].name.as_str()).collect();
            for want in expected {
                prop_assert!(
                    resolved.contains(want),
                    "call {} -> {} was dropped",
                    g.nodes[id].name, want
                );
            }
        }
    }

    /// Adding one more call can only grow a summary (monotone fixpoint).
    #[test]
    fn summaries_grow_monotonically_under_added_calls(
        fns in gen_fns(),
        caller in 0..FN_NAMES.len(),
        callee in 0..FN_NAMES.len(),
    ) {
        let before_files = parse_one(&render(&fns));
        let g0 = callgraph::build(&before_files);
        let s0 = summary::summarize(&before_files, &g0);

        let mut grown = fns.clone();
        grown[caller].calls.push(callee);
        let after_files = parse_one(&render(&grown));
        let g1 = callgraph::build(&after_files);
        let s1 = summary::summarize(&after_files, &g1);

        for name in FN_NAMES {
            let b: BTreeSet<BlockKind> =
                s0[node_id(&g0, name)].blocking.keys().copied().collect();
            let a: BTreeSet<BlockKind> =
                s1[node_id(&g1, name)].blocking.keys().copied().collect();
            prop_assert!(
                b.is_subset(&a),
                "{name}: blocking set shrank from {b:?} to {a:?} after adding a call"
            );
            let bl: BTreeSet<&String> =
                s0[node_id(&g0, name)].lock_classes.keys().collect();
            let al: BTreeSet<&String> =
                s1[node_id(&g1, name)].lock_classes.keys().collect();
            prop_assert!(
                bl.is_subset(&al),
                "{name}: lock-class set shrank after adding a call"
            );
        }
    }

    /// Two builds over identical sources agree node-for-node and
    /// edge-for-edge.
    #[test]
    fn build_is_deterministic(fns in gen_fns()) {
        let src = render(&fns);
        let g1 = callgraph::build(&parse_one(&src));
        let g2 = callgraph::build(&parse_one(&src));
        prop_assert_eq!(g1.nodes.len(), g2.nodes.len());
        prop_assert_eq!(g1.edge_count(), g2.edge_count());
        for (a, b) in g1.nodes.iter().zip(g2.nodes.iter()) {
            prop_assert_eq!(&a.name, &b.name);
        }
        for (sa, sb) in g1.calls.iter().zip(g2.calls.iter()) {
            prop_assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(sb.iter()) {
                prop_assert_eq!(x.callee, y.callee);
                prop_assert_eq!(x.line, y.line);
            }
        }
    }
}
