//! Telemetry instrumentation overhead: measured NPE pipelined IPS with the
//! `ndpipe-telemetry` kill-switch off (uninstrumented baseline) vs. on
//! (every hot-path counter, histogram, and queue-depth sample live).
//!
//! The acceptance bar is < 5% IPS regression. Runs of the two modes are
//! interleaved so thermal/frequency drift hits both equally, and each
//! mode reports its *best* run (atomic-add overhead is deterministic;
//! scheduler noise is not).

use crate::reports::npe_pipeline::{build_store, BenchParams};
use crate::util::{fmt, Report};
use ndpipe::npe::engine::EngineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workload knobs for the overhead measurement.
#[derive(Debug, Clone, Copy)]
pub struct OverheadParams {
    /// The NPE workload (shared with the `npe_pipeline` report).
    pub base: BenchParams,
    /// Interleaved baseline/instrumented run pairs.
    pub repeats: usize,
    /// Decode-pool workers for every run.
    pub decomp_workers: usize,
}

impl OverheadParams {
    /// Full configuration.
    pub fn full() -> Self {
        OverheadParams {
            base: BenchParams::full(),
            repeats: 5,
            decomp_workers: 2,
        }
    }

    /// Smaller (noisier) configuration for `--fast` runs.
    pub fn fast() -> Self {
        OverheadParams {
            base: BenchParams::fast(),
            repeats: 3,
            decomp_workers: 2,
        }
    }

    /// Tiny configuration for unit tests (debug builds).
    pub fn tiny() -> Self {
        OverheadParams {
            base: BenchParams::tiny(),
            repeats: 2,
            decomp_workers: 1,
        }
    }
}

/// Everything the bench measures, ready for rendering.
#[derive(Debug, Clone)]
pub struct OverheadMeasurements {
    /// The workload that was run.
    pub params: OverheadParams,
    /// Host parallelism (`NDPIPE_THREADS` or available cores).
    pub cpus: usize,
    /// Per-run IPS with telemetry disabled, in run order.
    pub baseline_runs: Vec<f64>,
    /// Per-run IPS with telemetry enabled, in run order.
    pub instrumented_runs: Vec<f64>,
    /// Metric series the instrumented runs left in the store's registry.
    pub registry_series: usize,
}

impl OverheadMeasurements {
    /// Best uninstrumented throughput, images/second.
    pub fn baseline_ips(&self) -> f64 {
        self.baseline_runs.iter().copied().fold(0.0, f64::max)
    }

    /// Best instrumented throughput, images/second.
    pub fn instrumented_ips(&self) -> f64 {
        self.instrumented_runs.iter().copied().fold(0.0, f64::max)
    }

    /// Relative IPS regression, percent (negative = instrumented was
    /// faster, i.e. the difference is inside measurement noise).
    pub fn overhead_pct(&self) -> f64 {
        let base = self.baseline_ips();
        if base > 0.0 {
            (1.0 - self.instrumented_ips() / base) * 100.0
        } else {
            0.0
        }
    }

    /// Whether the < 5% acceptance bar holds.
    pub fn pass(&self) -> bool {
        self.overhead_pct() < 5.0
    }
}

/// Runs the measurement at the given workload size. Restores the global
/// telemetry kill-switch to its prior state before returning.
pub fn measure_with(p: &OverheadParams) -> OverheadMeasurements {
    let mut rng = StdRng::seed_from_u64(2207);
    let store = build_store(&p.base, &mut rng);
    let cfg = EngineConfig {
        batch: 128,
        decomp_workers: p.decomp_workers,
        queue_depth: 256,
    };

    let was_enabled = telemetry::enabled();
    // Warm both paths (thread spawns, page faults, decode dictionaries).
    telemetry::set_enabled(false);
    store.offline_inference_pipelined(&cfg);
    telemetry::set_enabled(true);
    store.offline_inference_pipelined(&cfg);

    let mut baseline_runs = Vec::with_capacity(p.repeats);
    let mut instrumented_runs = Vec::with_capacity(p.repeats);
    for _ in 0..p.repeats.max(1) {
        telemetry::set_enabled(false);
        let (_, stats) = store.offline_inference_pipelined(&cfg);
        baseline_runs.push(stats.ips());
        telemetry::set_enabled(true);
        let (_, stats) = store.offline_inference_pipelined(&cfg);
        instrumented_runs.push(stats.ips());
    }
    let registry_series = store.metrics().snapshot().len();
    telemetry::set_enabled(was_enabled);

    OverheadMeasurements {
        params: *p,
        cpus: tensor::configured_threads(),
        baseline_runs,
        instrumented_runs,
        registry_series,
    }
}

/// Renders the measurements as a human-readable report.
pub fn render(m: &OverheadMeasurements) -> String {
    let mut r = Report::new(
        "Telemetry overhead",
        "NPE pipelined IPS, kill-switch off (baseline) vs on (instrumented)",
    );
    r.note(&format!(
        "host parallelism: {}, {} photos, {} B sidecars, {} decode workers",
        m.cpus, m.params.base.photos, m.params.base.sidecar_bytes, m.params.decomp_workers
    ));
    r.blank();
    r.header(&["mode", "best IPS", "runs IPS"]);
    for (mode, best, runs) in [
        ("baseline (disabled)", m.baseline_ips(), &m.baseline_runs),
        ("instrumented", m.instrumented_ips(), &m.instrumented_runs),
    ] {
        let runs: Vec<String> = runs.iter().map(|x| fmt(*x, 2)).collect();
        r.row(&[mode.into(), fmt(best, 2), runs.join(" ")]);
    }
    r.blank();
    r.note(&format!(
        "overhead: {:.3}% ({} metric series live) — acceptance bar < 5%: {}",
        m.overhead_pct(),
        m.registry_series,
        if m.pass() { "PASS" } else { "FAIL" }
    ));
    r.render()
}

/// Standard entry point matching the other report modules.
pub fn run(fast: bool) -> String {
    let params = if fast {
        OverheadParams::fast()
    } else {
        OverheadParams::full()
    };
    render(&measure_with(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_restores_kill_switch() {
        let before = telemetry::enabled();
        let m = measure_with(&OverheadParams::tiny());
        assert_eq!(telemetry::enabled(), before, "kill-switch not restored");
        assert_eq!(m.baseline_runs.len(), 2);
        assert_eq!(m.instrumented_runs.len(), 2);
        assert!(m.baseline_ips() > 0.0);
        assert!(m.instrumented_ips() > 0.0);
        assert!(
            m.registry_series > 0,
            "instrumented runs left no metric series"
        );

        let text = render(&m);
        assert!(text.contains("instrumented"));
        assert!(text.contains("acceptance bar"));
    }
}
