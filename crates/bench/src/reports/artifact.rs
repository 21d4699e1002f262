//! Artifact-appendix smoke run (§A): the end-to-end deployment the
//! paper's artifact demonstrates — Tuner + PipeStores fine-tuning and
//! offline inference on CIFAR-100-like data with ResNet50-like capacity.

use crate::util::{fmt, pct, Report};
use ndpipe::system::{NdPipeSystem, SystemConfig};
use ndpipe_data::DatasetSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Runs the artifact workflow: boot a deployment, drift for a week,
/// fine-tune near the data, and refresh labels offline. Reports wall
/// times and throughputs like the artifact's expected output.
pub fn run(fast: bool) -> String {
    let mut rng = StdRng::seed_from_u64(2024);
    let config = if fast {
        SystemConfig::small_test()
    } else {
        SystemConfig::paper_mini()
    };
    let spec = DatasetSpec::cifar100();

    let t0 = Instant::now();
    let mut system = NdPipeSystem::bootstrap(config, spec, &mut rng);
    let boot_secs = t0.elapsed().as_secs_f64();

    for _ in 0..7 {
        system.advance_day(&mut rng);
    }
    let stale = system.evaluate(&mut rng);

    let t1 = Instant::now();
    let outcome = system.fine_tune(&mut rng);
    let ft_secs = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let relabel = system.offline_relabel();
    let inf_secs = t2.elapsed().as_secs_f64();

    let mut r = Report::new("Artifact", "end-to-end NDPipe smoke run (§A workflow)");
    r.header(&["step", "value"]);
    r.row(&["bootstrap + initial training (s)".into(), fmt(boot_secs, 2)]);
    r.row(&[
        "stale top-1 after 7 days".into(),
        format!("{}%", pct(stale.top1)),
    ]);
    r.row(&["fine-tune time (s)".into(), fmt(ft_secs, 2)]);
    r.row(&[
        "feature-extraction throughput (img/s)".into(),
        fmt(outcome.report.examples as f64 / ft_secs.max(1e-9), 0),
    ]);
    r.row(&[
        "post-tune top-1".into(),
        format!("{}%", pct(outcome.final_accuracy.top1)),
    ]);
    r.row(&["offline inference time (s)".into(), fmt(inf_secs, 3)]);
    r.row(&[
        "offline inference throughput (img/s)".into(),
        fmt(relabel.examined as f64 / inf_secs.max(1e-9), 0),
    ]);
    r.row(&[
        "labels changed by relabel".into(),
        format!("{} of {}", relabel.changed, relabel.examined),
    ]);
    r.row(&[
        "model distribution reduction".into(),
        format!("{:.1}x", outcome.report.distribution_reduction),
    ]);
    r.blank();
    r.note("artifact expected output (their hardware): FE 1913 img/s, fine-tune");
    r.note("75.19s, offline inference 2417 img/s — ours runs a mini model on CPU");
    r.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_run_completes() {
        let s = super::run(true);
        assert!(s.contains("post-tune top-1"));
        assert!(s.contains("labels changed"));

        // The workflow runs FT-DMP, Check-N-Run and online inference, all
        // of which record into the process-global registry.
        let snapshot = telemetry::global().snapshot();
        assert!(
            !snapshot.is_empty(),
            "artifact run recorded no telemetry — instrumentation regressed"
        );
        telemetry::export::validate_json(&snapshot.to_json())
            .unwrap_or_else(|e| panic!("telemetry snapshot JSON malformed: {e}"));
    }
}
