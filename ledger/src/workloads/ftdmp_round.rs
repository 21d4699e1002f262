//! `ftdmp_round` — continuous training (§5.1–5.3): FE GEMM on the
//! stores, feature slices on the wire, Tuner SGD, the Check-N-Run delta
//! codec and the 1F1B micro-batch schedule. The FT-DMP path reads
//! preprocessed rows, so DEFLATE does nothing here: a codec gain must
//! leave this workload flat, a scheduler or GEMM gain must move it.
//!
//! Many short rounds rather than a few long ones: a single round varies
//! by tens of percent on a shared two-core host; the first decile of
//! dozens does not.

use super::{budget, Ctx, Metric, Outcome, Slots};
use crate::fleet::{self, Fleet};
use crate::probes;
use crate::stats;
use crate::trace::Recorder;
use dnn::{Mlp, TrainConfig, Trainer};
use ndpipe::ftdmp::FtdmpConfig;
use ndpipe::rpc::{Cluster, ClusterFtdmpReport};
use ndpipe::{PipeStore, PlacementMap, Tuner};
use ndpipe_data::LabeledDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const STORES: usize = 2;
const REPLICAS: usize = 2;
/// How far above the master's held-out top-1 a delta-rebuilt replica may
/// land before Base ≥ NDPipe counts as broken.
const TOP1_TOLERANCE: f64 = 0.01;

fn config() -> FtdmpConfig {
    FtdmpConfig {
        n_run: 3,
        epochs_per_run: 2,
        micro_batch: 0,
        staleness: 1,
        train: TrainConfig {
            batch: 64,
            ..TrainConfig::default()
        },
    }
}

pub struct Fixture {
    fleet: Fleet,
    cluster: Cluster,
    map: PlacementMap,
    tuner: Tuner,
    initial: Mlp,
    test: LabeledDataset,
    rng: StdRng,
    rows: usize,
}

/// One pipelined round including its Check-N-Run delta distribution.
fn round(
    cluster: &Cluster,
    tuner: &mut Tuner,
    rng: &mut StdRng,
    map: &PlacementMap,
) -> Result<ClusterFtdmpReport, String> {
    cluster
        .ftdmp_fine_tune_pipelined(tuner, &config(), 1, rng, Some(map))
        .map_err(|e| e.to_string())
}

pub fn setup(ctx: &Ctx) -> Fixture {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let s = &ctx.sizes;
    let u = fleet::universe(&mut rng);
    let train = fleet::dataset(&u, s.ft_rows, &mut rng);
    let test = fleet::dataset(&u, s.ft_test_rows, &mut rng);
    let initial = fleet::model(&mut rng);
    let shards = train.shards(STORES);
    let nodes: Vec<u64> = (0..STORES as u64).collect();
    let map = PlacementMap::new(&nodes, REPLICAS).expect("placement map");
    // Each store also holds the replica shards placement assigns it, so
    // the schedule can steal a straggler's micro-batches.
    let stores = (0..STORES)
        .map(|i| {
            let mut store = PipeStore::new(i, shards[i].clone());
            for &node in &nodes {
                if node != i as u64 && map.shard_holders(node).contains(&(i as u64)) {
                    store.add_replica_shard(node, shards[node as usize].clone());
                }
            }
            store
        })
        .collect();
    let fleet = Fleet::boot(stores);
    let cluster = fleet.cluster();
    fleet::prepare(&cluster, &map, &initial);
    let mut tuner = Tuner::new(initial.clone(), config().train);
    for _ in 0..s.ft_warm_rounds {
        round(&cluster, &mut tuner, &mut rng, &map).expect("warm-up round");
    }
    Fixture {
        fleet,
        cluster,
        map,
        tuner,
        initial,
        test,
        rng,
        rows: train.len(),
    }
}

pub fn teardown(fx: Fixture) {
    fx.cluster.shutdown();
    fx.fleet.drain();
}

pub fn run(ctx: &Ctx, fx: Fixture, rec: &mut Recorder) -> Outcome {
    let Fixture {
        fleet,
        cluster,
        map,
        mut tuner,
        initial,
        test,
        mut rng,
        rows,
    } = fx;
    let mut out = Outcome::default();
    let rounds = ctx.sizes.ft_rounds;
    let before = fleet::scrape(&cluster);
    let t_run = Instant::now();

    let mut round_s = Vec::with_capacity(rounds);
    let mut reports = Vec::with_capacity(rounds);
    for r in 0..rounds as u64 {
        let t = Instant::now();
        let result = rec.span("ftdmp_round", r, |rec| {
            rec.span("core.rpc.cluster.ftdmp_fine_tune_pipelined", r, |_| {
                round(&cluster, &mut tuner, &mut rng, &map)
            })
        });
        round_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match result {
            Ok(report) => {
                let ok = report.failures.is_empty()
                    && report.report.examples == rows
                    && report.report.run_losses.iter().all(|l| l.is_finite());
                out.failed += u64::from(!ok);
                out.check(ok, || {
                    format!(
                        "round {r}: failures {:?}, examples {} (want {rows}), losses {:?}",
                        report.failures, report.report.examples, report.report.run_losses
                    )
                });
                reports.push(report);
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("round {r}: {e}"));
            }
        }
    }
    out.timed_wall_s = t_run.elapsed().as_secs_f64();
    let after = fleet::scrape(&cluster);
    let scrape_layers = ctx.trace.then(|| probes::scrape_metrics(&cluster));

    // The accuracy triple on the held-out set: the Tuner's full-precision
    // master (Base), a store replica rebuilt from the 8-bit deltas
    // (NDPipe) and the never-updated model (Outdated).
    cluster.shutdown();
    let stores = fleet.drain();
    let top1 = |m: &Mlp| Trainer::evaluate(m, &test).top1;
    let base = top1(tuner.model());
    let outdated = top1(&initial);
    let replica = stores.iter().find_map(PipeStore::model).map_or(0.0, top1);
    // Base ≥ NDPipe holds up to quantisation noise: a replica rebuilt from
    // 8-bit deltas lands within a few held-out rows of the master, on
    // either side (1 seed in 40 here put it one row above).
    out.check(
        base + TOP1_TOLERANCE >= replica && replica > outdated,
        || format!("accuracy triple broken: base {base}, replica {replica}, outdated {outdated}"),
    );

    // End-to-end numbers.
    let per_round =
        |f: &dyn Fn(&ClusterFtdmpReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
    let examples: f64 = reports.iter().map(|r| r.report.examples as f64).sum();
    let wire_bytes: f64 = reports
        .iter()
        .map(|r| (r.report.feature_bytes + r.report.distribution_bytes) as f64)
        .sum();
    let delta_bytes = stats::median(&per_round(&|r| {
        r.report.distribution_bytes as f64 / STORES as f64
    }));
    // A round is closed-loop and CPU-bound on every core: the quiet-host
    // quantile is its time, the median (what interference makes of it on
    // this host) its tail.
    let quiet_s = stats::quantile(&round_s, stats::QUIET);
    out.slots = Slots {
        photos_per_s: rows as f64 / quiet_s,
        op_ms: quiet_s * 1e3,
        op_tail_ms: stats::median(&round_s) * 1e3,
        wire_bytes_per_photo: wire_bytes / examples.max(1.0),
    };
    out.named = vec![
        Metric::new("ftdmp_round_s", stats::median(&round_s), "s", rounds),
        Metric::new(
            "ftdmp_wire_bytes_per_example",
            wire_bytes / examples.max(1.0),
            "bytes",
            rounds,
        ),
        Metric::new("delta_wire_bytes", delta_bytes, "bytes", rounds),
        Metric::new("replica_top1", replica, "fraction", test.len()),
        Metric::new("base_top1", base, "fraction", test.len()),
        Metric::new("outdated_top1", outdated, "fraction", test.len()),
    ];

    if let Some(scrape_layers) = scrape_layers {
        let p = probes::run(ctx, &initial);
        let extract = fleet::server_op_since(&before, &after, "extract_slice");
        let apply = fleet::server_op_since(&before, &after, "apply_delta");
        let mean_of = |f: &dyn Fn(&ClusterFtdmpReport) -> f64| stats::mean(&per_round(f));
        let bubble_s = mean_of(&|r| r.report.schedule.bubble_secs);
        let round_mean_s = stats::mean(&round_s);
        out.layers = vec![
            Metric::new(
                "core.ftdmp.bubble_share",
                bubble_s / round_mean_s,
                "ratio",
                rounds,
            ),
            Metric::new(
                "core.ftdmp.micro_batches",
                mean_of(&|r| r.report.schedule.micro_batches as f64),
                "count",
                rounds,
            ),
            Metric::new(
                "core.ftdmp.steals",
                mean_of(&|r| r.report.schedule.steals as f64),
                "count",
                rounds,
            ),
            Metric::new(
                "core.ftdmp.stale_steps",
                mean_of(&|r| r.report.schedule.stale_steps as f64),
                "count",
                rounds,
            ),
            Metric::new(
                "core.ftdmp.reroutes",
                mean_of(&|r| r.reroutes as f64),
                "count",
                rounds,
            ),
            Metric::new("core.ftdmp.replica_top1", replica, "fraction", test.len()),
            Metric::new("core.checknrun.delta_wire_bytes", delta_bytes, "B", rounds),
        ];
        out.layers.extend(probes::server_op_metrics(&[
            ("extract_slice", &extract),
            ("apply_delta", &apply),
        ]));
        out.layers.extend(scrape_layers);
        // Per round, on the Tuner's blocking path: it waits for features
        // (the bubble: extraction and the wire), trains on them, builds
        // the delta and hands it to the peers. The train and delta rows
        // are the probes' prices times the round's counts.
        let cfg = config();
        let train_us = p.train_us_per_example * rows as f64 * cfg.epochs_per_run as f64;
        out.budget = budget(
            "round",
            round_mean_s * 1e6,
            &[
                ("core.ftdmp.bubble", bubble_s * 1e6),
                ("core.tuner.train", train_us),
                ("core.checknrun.build", p.delta_build_us),
            ],
        );
        out.layers.extend(p.metrics);
    }
    out
}
