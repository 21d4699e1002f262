//! ndlint — workspace-wide concurrency & protocol lint pass for the
//! NDPipe reproduction: the invariants neither the type system nor
//! clippy can check. Metric names live in `telemetry::catalog` (checked
//! by its tests) and unbounded channel constructors are a clippy
//! `disallowed-methods` error (`clippy.toml`).
//!
//! Four token-level rule families:
//!
//! 1. `lock_order` — inter-type lock acquisition graph must be acyclic.
//! 2. `relaxed` — every `Ordering::Relaxed` outside tests must carry
//!    `// ndlint: allow(relaxed, reason = "...")`.
//! 3. `panic` — no `unwrap`/`expect`/`panic!`-family/index expression in
//!    designated no-panic zones outside `#[cfg(test)]`.
//! 4. `wire` — every RPC enum variant must appear in encode, decode, and
//!    server dispatch.
//!
//! An interprocedural layer — a workspace-wide call graph
//! ([`callgraph`]) with per-function blocking/lock summaries
//! ([`summary`]) — carries `lock_order` across calls and three more
//! families:
//!
//! 5. `blocking` — no (transitive) blocking op while a `Mutex`/`RwLock`
//!    guard is held.
//! 6. `event_zone` — hard zones (the RPC event thread) from which any
//!    transitively reachable blocking op is a finding.
//! 7. `channel_policy` — every bounded queue declares its overload policy
//!    (`// ndlint: policy(drop|block|reject, ...)`) and send sites match
//!    it.
//!
//! Plus directive hygiene: malformed or unknown `// ndlint:` comments are
//! themselves findings, so a typo'd suppression can't silently disable a
//! rule.

pub mod callgraph;
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
    "wire",
    "blocking",
    "event_zone",
    "channel_policy",
];

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

/// Result of a full pass.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
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
             ({} fns / {} call edges)",
            self.findings.len(),
            self.files_scanned,
            self.graph_stats.0,
            self.graph_stats.1,
        )
    }
}

/// Runs every rule over an already-parsed file set.
pub fn run(files: &[SourceFile], cfg: &Config) -> Report {
    let mut findings = Vec::new();
    for sf in files {
        rules::directives::check(sf, &mut findings);
        rules::relaxed::check(sf, &mut findings);
        rules::panic_surface::check(sf, cfg, &mut findings);
    }
    let graph = callgraph::build(files);
    let sums = summary::summarize(files, &graph);
    rules::lock_order::check(files, &graph, &sums, &mut findings);
    rules::blocking_lock::check(files, &graph, &sums, cfg, &mut findings);
    rules::channel_policy::check(files, cfg, &mut findings);
    rules::wire_dispatch::check(files, cfg, &mut findings);
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings.dedup();
    Report {
        findings,
        files_scanned: files.len(),
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

/// Full workspace pass rooted at `root` (the repo checkout).
pub fn run_workspace(root: &Path) -> Report {
    let paths = workspace_sources(root);
    let (files, io_errs) = parse_files(root, &paths);
    let mut report = run(&files, &Config::workspace());
    report.findings.extend(io_errs);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report
}
