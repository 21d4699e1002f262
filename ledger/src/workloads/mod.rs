//! The four workloads and what each hands back.
//!
//! Work is fixed by *count*, not by duration, so a seed and a
//! `--seconds` value always give the same operations. `--seconds` only
//! picks the counts: they are sized so the timed part takes about that
//! long on the reference host (see the README).

pub mod ftdmp_round;
pub mod ingest_relabel;
pub mod mixed_upload_infer;
pub mod online_infer;

use crate::stats;
use crate::trace::Recorder;
use std::time::Instant;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = [
    "ingest_relabel",
    "online_infer",
    "ftdmp_round",
    "mixed_upload_infer",
];

/// Requests per p99 segment (ten samples beyond it): the issue's tail,
/// printed under each workload's own names. On a shared two-core host
/// one stall of the whole machine decides a segment's p99, so it does
/// not repeat within any bound the contract allows (see the README).
pub const SEGMENT: usize = 1000;

/// Requests per segment for the bounded tail `op_tail_ms`: p95 with ten
/// samples beyond it, and five times as many segments under the median,
/// which is what makes it hold still.
pub const TAIL_SEGMENT: usize = 200;

/// How often a run sets up before the measured pass; `setup_s` is the
/// median, so one slow bind or page-in does not decide it.
pub const SETUPS: usize = 5;

/// Operation counts for one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct photo payload pairs the upload loops cycle through.
    pub pool: usize,
    /// Mean JPEG-like blob size, bytes.
    pub blob_mean: usize,
    /// Preprocessed binary size, bytes.
    pub preproc_bytes: usize,
    /// `ingest_relabel`: photos uploaded.
    pub ingest_photos: usize,
    /// `ingest_relabel`: timed relabel passes (after one warm-up pass).
    pub relabel_passes: usize,
    /// Open-loop rate per connection, requests per second.
    pub paced_rate: u64,
    /// `online_infer`: paced requests over both connections.
    pub paced_requests: usize,
    /// `online_infer`: untimed one-second segments before the timed ones.
    pub burst_warm_segments: usize,
    /// `online_infer`: timed one-second closed-loop segments.
    pub burst_segments: usize,
    /// `online_infer`: pipelined window per connection.
    pub burst_window: usize,
    /// Distinct feature rows the infer loops cycle through.
    pub infer_rows: usize,
    /// `ftdmp_round`: training rows across the fleet.
    pub ft_rows: usize,
    /// `ftdmp_round`: warm-up rounds (part of set-up).
    pub ft_warm_rounds: usize,
    /// `ftdmp_round`: timed rounds.
    pub ft_rounds: usize,
    /// `ftdmp_round`: held-out rows for the accuracy triple.
    pub ft_test_rows: usize,
    /// `mixed_upload_infer`: photos uploaded.
    pub mixed_photos: usize,
    /// `mixed_upload_infer`: a relabel after this many uploads.
    pub mixed_relabel_every: usize,
    /// Records loaded into the local reference store for the relabel
    /// oracle.
    pub oracle_photos: usize,
}

impl Sizes {
    /// Counts for a timed part of about `seconds` on the reference
    /// host. Counts shrink with `seconds` but never below 1 000
    /// requests per tail segment, 5 relabel passes or 40 FT-DMP rounds.
    pub fn for_seconds(seconds: u64) -> Sizes {
        let s = seconds.max(1) as usize;
        Sizes {
            pool: 512,
            blob_mean: 32 * 1024,
            preproc_bytes: 64 * 1024,
            ingest_photos: (200 * s).max(SEGMENT),
            relabel_passes: (2 * s / 5).max(5),
            paced_rate: 200,
            paced_requests: (250 * s).max(2 * SEGMENT) / SEGMENT * SEGMENT,
            burst_warm_segments: 2,
            burst_segments: (s / 3).max(3),
            burst_window: 64,
            infer_rows: 1024,
            ft_rows: 4000,
            ft_warm_rounds: 3,
            ft_rounds: (4 * s).max(40),
            ft_test_rows: 1600,
            mixed_photos: (250 * s).max(SEGMENT) / SEGMENT * SEGMENT,
            mixed_relabel_every: SEGMENT,
            oracle_photos: 512,
        }
    }

    /// Every workload with every check, small enough for a debug build.
    pub fn tiny() -> Sizes {
        Sizes {
            pool: 8,
            blob_mean: 2048,
            preproc_bytes: 4096,
            ingest_photos: 24,
            relabel_passes: 2,
            paced_rate: 200,
            paced_requests: 40,
            burst_warm_segments: 0,
            burst_segments: 1,
            burst_window: 8,
            infer_rows: 16,
            ft_rows: 96,
            ft_warm_rounds: 1,
            ft_rounds: 12,
            ft_test_rows: 160,
            mixed_photos: 24,
            mixed_relabel_every: 8,
            oracle_photos: 24,
        }
    }
}

/// What a workload run is told.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seeds every generator.
    pub seed: u64,
    /// Operation counts.
    pub sizes: Sizes,
    /// Record spans and run the layer probes.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// The four end-to-end numbers every workload fills (see the README for
/// what fills each one where).
#[derive(Debug, Clone, Copy, Default)]
pub struct Slots {
    /// Photos per second through the workload's bulk stream.
    pub photos_per_s: f64,
    /// Time of the workload's latency-sensitive operation: the median for
    /// open-loop requests, the quiet-host quantile for closed-loop ones.
    pub op_ms: f64,
    /// Its tail: p95 per [`TAIL_SEGMENT`] samples, median across segments
    /// (for an FT-DMP round, the median round).
    pub op_tail_ms: f64,
    /// Bytes the stores moved on their sockets per photo of work.
    pub wire_bytes_per_photo: f64,
}

/// One line of a budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Which table of the workload (`upload`, `relabel`, `infer`, `round`).
    pub op: &'static str,
    /// Layer the time is attributed to.
    pub layer: &'static str,
    /// Time per operation on the blocking path, microseconds.
    pub per_op_us: f64,
}

/// What a workload's timed part produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness checks that did not hold (empty = correct).
    pub errors: Vec<String>,
    /// The contract's end-to-end vector.
    pub slots: Slots,
    /// The issue's named end-to-end metrics this workload reports.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Budget rows (traced runs only); each op's rows end with the
    /// end-to-end time per op under the layer name `end_to_end`.
    pub budget: Vec<BudgetRow>,
    /// Wall time of the timed part, seconds.
    pub timed_wall_s: f64,
    /// Span recorders of the helper threads (the main one is the
    /// caller's).
    pub recorders: Vec<Recorder>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A run's result plus what the harness measured around it.
#[derive(Debug)]
pub struct Measured {
    pub outcome: Outcome,
    /// Median of the set-up passes, seconds.
    pub setup_s: f64,
    /// Every recorder of the run, main thread first.
    pub recorders: Vec<Recorder>,
}

/// Sets up [`SETUPS`] times (tearing the spare fixtures down again),
/// then runs the timed part on the last fixture.
fn measure<F>(
    ctx: &Ctx,
    setup: impl Fn(&Ctx) -> F,
    teardown: impl Fn(F),
    run: impl FnOnce(&Ctx, F, &mut Recorder) -> Outcome,
) -> Measured {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        if let Some(spare) = fixture.take() {
            teardown(spare);
        }
        let t = Instant::now();
        fixture = Some(setup(ctx));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut main = Recorder::new(ctx.trace, Instant::now(), 0);
    let mut outcome = run(ctx, fixture.expect("SETUPS > 0"), &mut main);
    let mut recorders = vec![main];
    recorders.append(&mut outcome.recorders);
    Measured {
        outcome,
        setup_s: stats::median(&setups),
        recorders,
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Measured> {
    Some(match name {
        "ingest_relabel" => measure(
            ctx,
            ingest_relabel::setup,
            ingest_relabel::teardown,
            ingest_relabel::run,
        ),
        "online_infer" => measure(
            ctx,
            online_infer::setup,
            online_infer::teardown,
            online_infer::run,
        ),
        "ftdmp_round" => measure(
            ctx,
            ftdmp_round::setup,
            ftdmp_round::teardown,
            ftdmp_round::run,
        ),
        "mixed_upload_infer" => measure(
            ctx,
            mixed_upload_infer::setup,
            mixed_upload_infer::teardown,
            mixed_upload_infer::run,
        ),
        _ => return None,
    })
}

/// Budget rows for one op: the attributed layers, then what is left of
/// `end_to_end_us` as `unexplained`, then the total itself.
pub fn budget(
    op: &'static str,
    end_to_end_us: f64,
    layers: &[(&'static str, f64)],
) -> Vec<BudgetRow> {
    let explained: f64 = layers.iter().map(|(_, us)| us).sum();
    let mut rows: Vec<BudgetRow> = layers
        .iter()
        .map(|&(layer, per_op_us)| BudgetRow {
            op,
            layer,
            per_op_us,
        })
        .collect();
    rows.push(BudgetRow {
        op,
        layer: "unexplained",
        per_op_us: end_to_end_us - explained,
    });
    rows.push(BudgetRow {
        op,
        layer: "end_to_end",
        per_op_us: end_to_end_us,
    });
    rows
}

/// Share of the end-to-end time the attributed layers explain, weighted
/// over every op table of the workload by its end-to-end time.
pub fn explained_share(rows: &[BudgetRow]) -> f64 {
    let total: f64 = rows
        .iter()
        .filter(|r| r.layer == "end_to_end")
        .map(|r| r.per_op_us)
        .sum();
    let unexplained: f64 = rows
        .iter()
        .filter(|r| r.layer == "unexplained")
        .map(|r| r.per_op_us)
        .sum();
    if total > 0.0 {
        1.0 - unexplained / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_never_shrink_below_the_floors() {
        for seconds in [1, 5, 20, 60] {
            let s = Sizes::for_seconds(seconds);
            assert!(s.relabel_passes >= 5 && s.ft_rounds >= 40, "{seconds}s");
            assert!(s.ingest_photos >= SEGMENT && s.mixed_photos >= SEGMENT);
            assert!(s.paced_requests >= 2 * SEGMENT && s.paced_requests.is_multiple_of(SEGMENT));
            assert!(s.oracle_photos <= s.ingest_photos.min(s.mixed_photos));
        }
        let s = Sizes::for_seconds(20);
        assert_eq!(
            (
                s.ingest_photos,
                s.relabel_passes,
                s.paced_requests,
                s.ft_rounds,
                s.mixed_photos
            ),
            (4000, 8, 5000, 80, 5000)
        );
    }

    #[test]
    fn budget_rows_sum_back_to_the_total() {
        let rows = budget(
            "upload",
            2000.0,
            &[("data.deflate", 1500.0), ("wire", 100.0)],
        );
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2].layer, "unexplained");
        assert!((rows[2].per_op_us - 400.0).abs() < 1e-9);
        assert!((explained_share(&rows) - 0.8).abs() < 1e-12);
        assert_eq!(explained_share(&[]), 0.0);
    }
}
