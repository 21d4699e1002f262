//! Packed-panel GEMM kernel benchmark: GFLOP/s of the old naive kernel
//! (`linalg::reference_matmul`) vs the packed MR×NR microkernel, serial
//! and on the shared worker pool, with a machine-readable JSON artifact
//! (`BENCH_gemm_kernel.json`).
//!
//! Every measured point is checked bit-identical against the reference
//! kernel before its time is reported — a fast wrong kernel fails the
//! bench. On single-core machines the pooled points cannot scale, so the
//! JSON records the host CPU count alongside the thread sweep (same
//! convention as `BENCH_npe_pipeline.json`).

use crate::util::{fmt, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::linalg::{self, Gemm};
use tensor::pack::{MR, NR};
use tensor::{MathPolicy, Tensor};

/// Workload knobs (exposed so tests can run a tiny configuration).
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    /// Square problem size: C[m,n] = A[m,k]·B[k,n] with m = n = k = dim.
    pub dim: usize,
    /// Timed repetitions per point (best-of is reported).
    pub reps: usize,
}

impl BenchParams {
    /// Full configuration: the acceptance-criteria 512³ problem.
    pub fn full() -> Self {
        BenchParams { dim: 512, reps: 5 }
    }

    /// Smaller (noisier) configuration for `--fast` runs.
    pub fn fast() -> Self {
        BenchParams { dim: 256, reps: 3 }
    }

    /// Tiny configuration for unit tests (debug builds).
    pub fn tiny() -> Self {
        BenchParams { dim: 48, reps: 2 }
    }
}

/// One measured kernel configuration.
#[derive(Debug, Clone)]
pub struct GemmPoint {
    /// Which kernel ("old" or "packed").
    pub kernel: &'static str,
    /// Worker threads the packed driver was allowed (1 = serial).
    pub threads: usize,
    /// Best-of-reps throughput, GFLOP/s.
    pub gflops: f64,
    /// Best-of-reps wall seconds for one multiply.
    pub secs: f64,
}

/// Everything the bench measures, ready for rendering as text or JSON.
#[derive(Debug, Clone)]
pub struct GemmMeasurements {
    /// The workload that was run.
    pub params: BenchParams,
    /// Host parallelism (`NDPIPE_THREADS` or available cores).
    pub cpus: usize,
    /// Old naive kernel, then packed at 1/2/4 threads.
    pub points: Vec<GemmPoint>,
}

impl GemmMeasurements {
    fn find(&self, kernel: &str, threads: usize) -> Option<&GemmPoint> {
        self.points
            .iter()
            .find(|p| p.kernel == kernel && p.threads == threads)
    }

    /// Serial packed-kernel throughput (the acceptance-criteria number).
    pub fn packed_serial_gflops(&self) -> f64 {
        self.find("packed", 1).map_or(0.0, |p| p.gflops)
    }

    /// Packed serial speedup over the old kernel.
    pub fn speedup_vs_old(&self) -> f64 {
        match self.find("old", 1) {
            Some(old) if old.gflops > 0.0 => self.packed_serial_gflops() / old.gflops,
            _ => 0.0,
        }
    }

    /// Best pooled throughput across the thread sweep.
    pub fn best_pooled_gflops(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.kernel == "packed")
            .map(|p| p.gflops)
            .fold(0.0, f64::max)
    }
}

/// Times `mul()` `reps` times, checks each product bit-identical to
/// `oracle`, and returns the best (wall secs, GFLOP/s) pair.
fn time_best(p: &BenchParams, oracle: &Tensor, mul: impl Fn() -> Tensor) -> (f64, f64) {
    let flops = 2.0 * (p.dim as f64).powi(3);
    let mut best = f64::INFINITY;
    for _ in 0..p.reps {
        let t0 = Instant::now();
        let c = mul();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            c.data(),
            oracle.data(),
            "kernel diverged from the reference product"
        );
        best = best.min(secs);
    }
    (best, flops / best.max(1e-12) / 1e9)
}

/// Runs the measured benchmark at the given workload size.
pub fn measure_with(p: &BenchParams) -> GemmMeasurements {
    let mut rng = StdRng::seed_from_u64(2026);
    let a = Tensor::randn(&[p.dim, p.dim], &mut rng);
    let b = Tensor::randn(&[p.dim, p.dim], &mut rng);
    // On randn data the old kernel's zero-skip never fires, so all three
    // paths are bit-identical; the oracle doubles as the warm-up run.
    let oracle = linalg::reference_matmul(&a, &b);

    let mut points = Vec::new();
    let (secs, gflops) = time_best(p, &oracle, || linalg::reference_matmul(&a, &b));
    points.push(GemmPoint {
        kernel: "old",
        threads: 1,
        gflops,
        secs,
    });
    for threads in [1usize, 2, 4] {
        // Pinned: bit-identity to the reference is the Deterministic
        // family's contract (`gemm_fast` measures the others), whatever
        // `NDPIPE_MATH` makes the process default.
        let (secs, gflops) = time_best(p, &oracle, || {
            Gemm::new(&a, &b)
                .threads(threads)
                .policy(MathPolicy::Deterministic)
                .run()
        });
        points.push(GemmPoint {
            kernel: "packed",
            threads,
            gflops,
            secs,
        });
    }

    GemmMeasurements {
        params: *p,
        cpus: ndpipe_data::deflate::configured_threads(),
        points,
    }
}

/// Renders the measurements as the machine-readable JSON artifact.
pub fn to_json(m: &GemmMeasurements) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"gemm_kernel\",\n");
    s.push_str(&format!("  \"cpus\": {},\n", m.cpus));
    s.push_str(&format!("  \"dim\": {},\n", m.params.dim));
    s.push_str(&format!("  \"mr\": {MR},\n"));
    s.push_str(&format!("  \"nr\": {NR},\n"));
    s.push_str(&format!(
        "  \"old_gflops\": {:.2},\n",
        m.find("old", 1).map_or(0.0, |p| p.gflops)
    ));
    s.push_str(&format!(
        "  \"packed_serial_gflops\": {:.2},\n",
        m.packed_serial_gflops()
    ));
    s.push_str(&format!(
        "  \"speedup_vs_old\": {:.3},\n",
        m.speedup_vs_old()
    ));
    s.push_str(&format!(
        "  \"best_pooled_gflops\": {:.2},\n",
        m.best_pooled_gflops()
    ));
    s.push_str("  \"points\": [\n");
    for (i, pt) in m.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"threads\": {}, \"gflops\": {:.2}, \"secs\": {:.5}}}{}\n",
            pt.kernel,
            pt.threads,
            pt.gflops,
            pt.secs,
            if i + 1 < m.points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Renders the measurements as a human-readable report.
pub fn render(m: &GemmMeasurements) -> String {
    let mut r = Report::new(
        "GEMM kernel",
        "packed MRxNR microkernel vs old naive kernel (bit-identical products)",
    );
    r.note(&format!(
        "{d}x{d}x{d} f32, best of {} reps, MR={MR} NR={NR}, host parallelism: {}",
        m.params.reps,
        m.cpus,
        d = m.params.dim
    ));
    r.blank();
    r.header(&["kernel", "threads", "GFLOP/s", "secs"]);
    for pt in &m.points {
        r.row(&[
            pt.kernel.into(),
            pt.threads.to_string(),
            fmt(pt.gflops, 2),
            fmt(pt.secs, 4),
        ]);
    }
    r.blank();
    r.note(&format!(
        "packed serial speedup over old kernel: {:.2}x",
        m.speedup_vs_old()
    ));
    r.render()
}

/// Standard entry point matching the other report modules.
pub fn run(fast: bool) -> String {
    let params = if fast {
        BenchParams::fast()
    } else {
        BenchParams::full()
    };
    render(&measure_with(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_is_consistent_and_json_is_well_formed() {
        let m = measure_with(&BenchParams::tiny());
        assert_eq!(m.points.len(), 4);
        assert!(m.points.iter().all(|p| p.gflops > 0.0 && p.secs > 0.0));
        assert!(m.packed_serial_gflops() > 0.0);

        let json = to_json(&m);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"bench\"",
            "\"cpus\"",
            "\"old_gflops\"",
            "\"packed_serial_gflops\"",
            "\"speedup_vs_old\"",
            "\"kernel\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"));

        let text = render(&m);
        assert!(text.contains("packed"));
        assert!(text.contains("GFLOP/s"));
    }
}
