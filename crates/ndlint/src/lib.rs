//! ndlint — workspace-wide concurrency & protocol lint pass for the
//! NDPipe reproduction.
//!
//! Six rule families, tuned to the invariants this codebase depends on:
//!
//! 1. `lock_order`   — inter-type lock acquisition graph must be acyclic.
//! 2. `relaxed`      — every `Ordering::Relaxed` outside tests must carry
//!                     `// ndlint: allow(relaxed, reason = "...")`.
//! 3. `panic`        — no `unwrap`/`expect`/`panic!`-family/slice-index in
//!                     designated no-panic zones outside `#[cfg(test)]`.
//! 4. `wire`         — every RPC enum variant must appear in encode,
//!                     decode, and server dispatch.
//! 5. `metric`       — registered metric names are well-formed, kind-
//!                     consistent, and match DESIGN.md's canonical table.
//! 6. `bounded`      — channel construction inside the RPC and NPE trees
//!                     must name a capacity (backpressure, not growth).
//!
//! v2 adds an interprocedural layer — a workspace-wide call graph
//! ([`callgraph`]) with per-function blocking/lock summaries
//! ([`summary`]) — and three rule families on top of it:
//!
//! 7. `blocking`       — no (transitive) blocking op while a `Mutex`/
//!                       `RwLock` guard is held.
//! 8. `event_zone`     — hard zones (the RPC event thread) from which any
//!                       transitively reachable blocking op is a finding.
//! 9. `channel_policy` — every bounded queue declares its overload policy
//!                       (`// ndlint: policy(drop|block|reject, ...)`)
//!                       and send sites match it.
//!
//! Plus directive hygiene: malformed or unknown `// ndlint:` comments are
//! themselves findings, so a typo'd suppression can't silently disable a
//! rule.

pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod summary;

use scan::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule names accepted in `// ndlint: allow(<rule>, ...)` directives.
pub const KNOWN_RULES: &[&str] = &[
    "relaxed",
    "panic",
    "lock_order",
    "metric",
    "wire",
    "bounded",
    "blocking",
    "event_zone",
    "channel_policy",
];

/// Stable machine-readable id for a rule family. Ids are append-only:
/// once published in a baseline they never change meaning.
pub fn rule_id(rule: &str) -> &'static str {
    match rule {
        "directive" => "NDL000",
        "lock_order" => "NDL001",
        "relaxed" => "NDL002",
        "panic" => "NDL003",
        "wire" => "NDL004",
        "metric" => "NDL005",
        "bounded" => "NDL006",
        "blocking" => "NDL007",
        "event_zone" => "NDL008",
        "channel_policy" => "NDL009",
        "io" => "NDL098",
        _ => "NDL099",
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family that fired (one of [`KNOWN_RULES`] or `directive`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (0 when the finding is file-scoped).
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Which functions of a zone file the panic-surface rule covers.
#[derive(Debug, Clone)]
pub enum FnFilter {
    /// Every non-test function in the file.
    All,
    /// Only the named functions (worker/decode hot paths).
    Named(Vec<String>),
}

/// A no-panic zone: file (suffix match on the workspace-relative path)
/// plus the functions covered.
#[derive(Debug, Clone)]
pub struct Zone {
    pub file_suffix: String,
    pub filter: FnFilter,
}

/// One place an enum's variants must all be mentioned.
#[derive(Debug, Clone)]
pub struct WireSite {
    pub file_suffix: String,
    /// Required `impl` target of the function, if any.
    pub impl_target: Option<String>,
    pub fn_name: String,
    /// Short label used in diagnostics ("encode", "dispatch", ...).
    pub label: String,
}

/// Exhaustiveness check: `enum_name` (defined in `enum_file_suffix`) must
/// have every variant mentioned as `Enum::Variant` in each site.
#[derive(Debug, Clone)]
pub struct WireCheck {
    pub enum_file_suffix: String,
    pub enum_name: String,
    pub sites: Vec<WireSite>,
}

/// A canonical metric-name table entry: `(name, kind)` where kind is
/// `counter` | `gauge` | `histogram`.
pub type MetricTable = Vec<(String, String)>;

/// A hard no-blocking zone: the named entry fn and everything reachable
/// from it must be free of blocking primitives (the `event_zone` rule).
#[derive(Debug, Clone)]
pub struct EventZone {
    pub file_suffix: String,
    /// Required `impl` target of the entry fn (`None` = free fn).
    pub impl_target: Option<String>,
    pub fn_name: String,
    /// Diagnostic label ("RPC event thread").
    pub label: String,
}

/// Full analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub zones: Vec<Zone>,
    pub wire_checks: Vec<WireCheck>,
    /// Canonical metric table; `None` disables the DESIGN.md cross-check
    /// (name well-formedness and kind consistency still run).
    pub metric_table: Option<MetricTable>,
    /// Path substrings whose files must construct only bounded channels
    /// (the `bounded` rule); empty disables the rule.
    pub bounded_paths: Vec<String>,
    /// No-blocking hard zones (the `event_zone` rule).
    pub event_zones: Vec<EventZone>,
    /// Path substrings whose bounded channels must declare an overload
    /// policy (the `channel_policy` rule); empty disables the rule.
    pub policy_paths: Vec<String>,
}

impl Config {
    /// Configuration for the live NDPipe workspace.
    pub fn workspace() -> Config {
        Config {
            zones: vec![
                Zone {
                    file_suffix: "core/src/rpc/wire.rs".into(),
                    filter: FnFilter::All,
                },
                Zone {
                    file_suffix: "core/src/rpc/server.rs".into(),
                    filter: FnFilter::All,
                },
                // The cluster control plane: a flaky peer must surface
                // as a PeerFailure, never as a Tuner-side panic.
                Zone {
                    file_suffix: "core/src/rpc/cluster.rs".into(),
                    filter: FnFilter::All,
                },
                // The FT-DMP schedule: the cluster driver's scheduling
                // decisions live here, and its guarantee follows them.
                Zone {
                    file_suffix: "core/src/ftdmp/schedule.rs".into(),
                    filter: FnFilter::All,
                },
                // The poll(2)/pipe(2) shim under the event loop: a raw
                // syscall error must come back as io::Error, not a panic
                // that kills the only event thread.
                Zone {
                    file_suffix: "core/src/rpc/sys.rs".into(),
                    filter: FnFilter::All,
                },
                Zone {
                    file_suffix: "telemetry/src/snapshot.rs".into(),
                    filter: FnFilter::All,
                },
                // The byte reader every peer-supplied format decodes
                // through, and the decoders `handle` reaches: a crafted
                // InstallModel, ApplyDelta or placement payload must come
                // back as an error reply, not kill a server worker.
                Zone {
                    file_suffix: "telemetry/src/codec.rs".into(),
                    filter: FnFilter::All,
                },
                Zone {
                    file_suffix: "core/src/placement.rs".into(),
                    filter: FnFilter::Named(vec!["from_bytes".into()]),
                },
                Zone {
                    file_suffix: "core/src/checknrun.rs".into(),
                    filter: FnFilter::Named(vec![
                        "from_bytes".into(),
                        "apply".into(),
                        "dequantize".into(),
                    ]),
                },
                Zone {
                    file_suffix: "dnn/src/mlp.rs".into(),
                    filter: FnFilter::Named(vec!["from_bytes".into()]),
                },
                // The shared worker pool: every parallel kernel funnels
                // through it, and a panic that escapes the pool's own
                // machinery (rather than being contained per-task and
                // reported as PoolError) would tear down unrelated jobs.
                Zone {
                    file_suffix: "tensor/src/pool.rs".into(),
                    filter: FnFilter::All,
                },
                // NPE worker bodies: a panic here unwinds through a bounded
                // channel send and wedges the pipeline.
                Zone {
                    file_suffix: "core/src/npe/engine.rs".into(),
                    filter: FnFilter::Named(vec![
                        "run_pipeline".into(),
                        "run_pipeline_fallible".into(),
                    ]),
                },
                // Decompress side runs inside the NPE decode pool; corrupt
                // input must surface as Err, not a worker panic.
                Zone {
                    file_suffix: "data/src/deflate.rs".into(),
                    filter: FnFilter::Named(vec![
                        "decompress".into(),
                        "decompress_framed".into(),
                        "decompress_framed_with".into(),
                        "frame_u32".into(),
                        "decode_fixed_block".into(),
                        "decode_fixed_litlen".into(),
                        "read_bits".into(),
                        "read_code_bit".into(),
                        "read_u16_le".into(),
                        "read_raw".into(),
                    ]),
                },
            ],
            wire_checks: vec![
                WireCheck {
                    enum_file_suffix: "core/src/rpc/wire.rs".into(),
                    enum_name: "Request".into(),
                    sites: vec![
                        WireSite {
                            file_suffix: "core/src/rpc/wire.rs".into(),
                            impl_target: Some("Request".into()),
                            fn_name: "encode_body".into(),
                            label: "encode".into(),
                        },
                        WireSite {
                            file_suffix: "core/src/rpc/wire.rs".into(),
                            impl_target: Some("Request".into()),
                            fn_name: "decode_body".into(),
                            label: "decode".into(),
                        },
                        WireSite {
                            file_suffix: "core/src/rpc/server.rs".into(),
                            impl_target: None,
                            fn_name: "handle".into(),
                            label: "server dispatch".into(),
                        },
                    ],
                },
                // Session-opening frames: encode/decode plus the server's
                // greeting, which must consider every handshake shape.
                WireCheck {
                    enum_file_suffix: "core/src/rpc/wire.rs".into(),
                    enum_name: "Handshake".into(),
                    sites: vec![
                        WireSite {
                            file_suffix: "core/src/rpc/wire.rs".into(),
                            impl_target: Some("Handshake".into()),
                            fn_name: "encode_body".into(),
                            label: "encode".into(),
                        },
                        WireSite {
                            file_suffix: "core/src/rpc/wire.rs".into(),
                            impl_target: Some("Handshake".into()),
                            fn_name: "decode_body".into(),
                            label: "decode".into(),
                        },
                        WireSite {
                            file_suffix: "core/src/rpc/server.rs".into(),
                            impl_target: None,
                            fn_name: "greet".into(),
                            label: "server dispatch".into(),
                        },
                    ],
                },
                WireCheck {
                    enum_file_suffix: "core/src/rpc/wire.rs".into(),
                    enum_name: "Reply".into(),
                    sites: vec![
                        WireSite {
                            file_suffix: "core/src/rpc/wire.rs".into(),
                            impl_target: Some("Reply".into()),
                            fn_name: "encode_body".into(),
                            label: "encode".into(),
                        },
                        WireSite {
                            file_suffix: "core/src/rpc/wire.rs".into(),
                            impl_target: Some("Reply".into()),
                            fn_name: "decode_body".into(),
                            label: "decode".into(),
                        },
                    ],
                },
            ],
            metric_table: None, // filled from DESIGN.md by run_workspace
            // Backpressure zones: the event-driven RPC front door and the
            // NPE pipeline move unbounded request volume through fixed
            // worker pools, so every inter-stage queue must be bounded.
            bounded_paths: vec!["core/src/rpc/".into(), "core/src/npe/".into()],
            // The poll(2) event thread is the only thread driving every
            // connection; anything it transitively calls must not block.
            event_zones: vec![EventZone {
                file_suffix: "core/src/rpc/server.rs".into(),
                impl_target: Some("EventLoop".into()),
                fn_name: "event_loop".into(),
                label: "RPC event thread".into(),
            }],
            // Every bounded queue in the backpressure zones must state
            // its overload policy.
            policy_paths: vec!["core/src/rpc/".into(), "core/src/npe/".into()],
        }
    }
}

/// One suppression directive in force — recorded for provenance so the
/// JSON report shows *what* was waived, *where*, and *why*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// `allow` or `policy`.
    pub form: &'static str,
    /// Rule name (`allow`) or policy kind (`policy`).
    pub target: String,
    pub file: String,
    pub line: u32,
    pub reason: String,
}

/// Result of a full pass.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Every well-formed directive in the scanned files (provenance).
    pub suppressions: Vec<Suppression>,
    /// Call-graph size: `(nodes, edges)`.
    pub graph_stats: (usize, usize),
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line summary suitable for CI logs.
    pub fn summary(&self) -> String {
        format!(
            "ndlint: {} finding(s) across {} file(s) scanned \
             ({} fns / {} call edges, {} suppression(s))",
            self.findings.len(),
            self.files_scanned,
            self.graph_stats.0,
            self.graph_stats.1,
            self.suppressions.len(),
        )
    }
}

/// Runs every rule over an already-parsed file set.
pub fn run(files: &[SourceFile], cfg: &Config) -> Report {
    let mut findings = Vec::new();
    for sf in files {
        rules::directives::check(sf, &mut findings);
        rules::relaxed::check(sf, &mut findings);
        rules::bounded::check(sf, cfg, &mut findings);
        rules::panic_surface::check(sf, cfg, &mut findings);
        rules::metric_names::collect(sf, &mut findings);
    }
    let graph = callgraph::build(files);
    let sums = summary::summarize(files, &graph);
    rules::lock_order::check(files, &graph, &sums, &mut findings);
    rules::blocking_lock::check(files, &graph, &sums, cfg, &mut findings);
    rules::channel_policy::check(files, cfg, &mut findings);
    rules::wire_dispatch::check(files, cfg, &mut findings);
    rules::metric_names::check(files, cfg, &mut findings);
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings.dedup();
    let mut suppressions = Vec::new();
    for sf in files {
        for a in &sf.lexed.annotations {
            if a.has_reason {
                suppressions.push(Suppression {
                    form: "allow",
                    target: a.rule.clone(),
                    file: sf.rel.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
        }
        for p in &sf.lexed.policies {
            suppressions.push(Suppression {
                form: "policy",
                target: p.kind.clone(),
                file: sf.rel.clone(),
                line: p.line,
                reason: p.reason.clone(),
            });
        }
    }
    suppressions.sort_by(|a, b| (&a.file, a.line, a.form).cmp(&(&b.file, b.line, b.form)));
    Report {
        findings,
        files_scanned: files.len(),
        suppressions,
        graph_stats: (graph.nodes.len(), graph.edge_count()),
    }
}

/// Parses a set of files from disk. `rel` paths are computed against
/// `root`; unreadable files become file-scoped findings in the returned
/// report rather than panics.
pub fn parse_files(root: &Path, paths: &[PathBuf]) -> (Vec<SourceFile>, Vec<Finding>) {
    let mut files = Vec::new();
    let mut errs = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(p) {
            Ok(src) => files.push(SourceFile::parse(p, &rel, &src)),
            Err(e) => errs.push(Finding {
                rule: "io",
                file: rel,
                line: 0,
                col: 0,
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    (files, errs)
}

/// Walks `<root>/crates/*/src/**/*.rs`, sorted for deterministic output.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return out;
    };
    let mut crate_dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Extracts the canonical metric table from DESIGN.md: rows of the
/// markdown table under the `### Canonical metric names` heading, shaped
/// `| \`name\` | kind | ... |`.
pub fn parse_design_metric_table(design: &str) -> Option<MetricTable> {
    let mut in_section = false;
    let mut table = Vec::new();
    for line in design.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("### ") {
            in_section = trimmed == "### Canonical metric names";
            continue;
        }
        if trimmed.starts_with("## ") || trimmed.starts_with("# ") {
            in_section = false;
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 {
            continue;
        }
        let name = cells[0].trim_matches('`');
        let kind = cells[1].to_ascii_lowercase();
        if !name.starts_with("ndpipe_") {
            continue; // header / separator rows
        }
        table.push((name.to_string(), kind));
    }
    if in_section || !table.is_empty() {
        Some(table)
    } else {
        None
    }
}

/// Full workspace pass rooted at `root` (the repo checkout). Reads
/// DESIGN.md for the metric table; a missing table is itself a finding.
pub fn run_workspace(root: &Path) -> Report {
    let mut cfg = Config::workspace();
    let design_path = root.join("DESIGN.md");
    let mut pre_findings = Vec::new();
    match std::fs::read_to_string(&design_path) {
        Ok(text) => match parse_design_metric_table(&text) {
            Some(table) => cfg.metric_table = Some(table),
            None => pre_findings.push(Finding {
                rule: "metric",
                file: "DESIGN.md".into(),
                line: 0,
                col: 0,
                message: "missing `### Canonical metric names` table".into(),
            }),
        },
        Err(e) => pre_findings.push(Finding {
            rule: "metric",
            file: "DESIGN.md".into(),
            line: 0,
            col: 0,
            message: format!("unreadable: {e}"),
        }),
    }
    let paths = workspace_sources(root);
    let (files, io_errs) = parse_files(root, &paths);
    let mut report = run(&files, &cfg);
    report.findings.extend(pre_findings);
    report.findings.extend(io_errs);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_table_parser_extracts_backticked_names() {
        let md = "\
# DESIGN\n\n### Canonical metric names\n\n\
| name | kind | meaning |\n|---|---|---|\n\
| `ndpipe_x_total` | counter | things |\n\
| `ndpipe_y` | gauge | level |\n\n## Next section\n\
| `ndpipe_not_in_table` | counter | outside the section |\n";
        let table = parse_design_metric_table(md).unwrap();
        assert_eq!(
            table,
            vec![
                ("ndpipe_x_total".to_string(), "counter".to_string()),
                ("ndpipe_y".to_string(), "gauge".to_string()),
            ]
        );
    }

    #[test]
    fn design_table_parser_rejects_missing_section() {
        assert!(parse_design_metric_table("# DESIGN\nno table here\n").is_none());
    }
}
