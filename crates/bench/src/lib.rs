//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§3–§7) and the artifact appendix.
//!
//! Each `reports::*` module produces one figure/table as a plain-text TSV
//! report with a paper-vs-measured note, and `reports::ALL` lists them in
//! paper order. The `repro` binary runs entries of that table by name
//! (`repro [--fast] [<name>...]`, all of them when no name is given) and
//! writes each report to `results/<name>.txt`. Per-layer micro-timings of
//! the hot paths live in the benchmark ledger (`ledger/`), not here.
//!
//! Accuracy experiments (Fig 4, Fig 17, Tables 1–2) run real SGD and take
//! a minute or two in release mode; `--fast` picks a smaller (noisier)
//! configuration.

pub mod reports;
pub mod util;

pub use util::Report;
