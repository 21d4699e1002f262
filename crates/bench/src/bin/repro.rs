//! Regenerates the paper's tables and figures:
//!
//! ```text
//! repro [--fast] [<name>...]
//! ```
//!
//! Runs the named entries of `bench::reports::ALL`, or all of them in
//! paper order when no name is given. Each report is printed and written
//! to `results/<name>.txt`. `--fast` picks smaller (noisier)
//! configurations. An unknown name runs nothing and exits non-zero.

use bench::reports::ALL;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut fast = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--fast" {
            fast = true;
        } else {
            names.push(arg);
        }
    }
    let mut selected = Vec::new();
    for name in &names {
        match ALL.iter().find(|(n, _)| n == name) {
            Some(entry) => selected.push(entry),
            None => {
                let valid: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown report `{name}`; valid names: {}", valid.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    if names.is_empty() {
        selected = ALL.iter().collect();
    }

    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results dir");
    for (i, (name, run)) in selected.into_iter().enumerate() {
        let report = run(fast);
        if i > 0 {
            println!();
        }
        println!("{report}");
        fs::write(out_dir.join(format!("{name}.txt")), &report).expect("write report");
    }
    ExitCode::SUCCESS
}
