//! ndlint CLI: `cargo run -p ndlint [--release] -- [workspace-root]`.
//!
//! Prints every finding and a one-line summary. Exits 0 when the
//! workspace is clean, 1 when any finding fires, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    println!(
        "usage: ndlint [workspace-root]\n\n\
         Lints crates/*/src/**/*.rs for lock-order cycles (intra-fn and\n\
         interprocedural), blocking ops under held guards, blocking ops\n\
         reachable from the RPC event thread, undeclared bounded-queue\n\
         overload policies, unannotated Ordering::Relaxed, panics in\n\
         no-panic zones, and unplumbed RPC enum variants."
    );
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => root = Some(PathBuf::from(other)),
            other => {
                eprintln!("ndlint: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    if !root.join("crates").is_dir() {
        eprintln!(
            "ndlint: `{}` does not look like the workspace root (no crates/ dir)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let report = ndlint::run_workspace(&root);
    for f in &report.findings {
        println!("{f}");
    }
    println!("{}", report.summary());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
