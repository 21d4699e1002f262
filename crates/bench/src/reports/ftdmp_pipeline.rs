//! Pipelined FT-DMP vs the run-at-a-time barrier schedule, end to end
//! over real loopback `PipeStoreServer`s with one deliberately slow peer,
//! producing `BENCH_ftdmp_pipeline.json`.
//!
//! The slow store sleeps per *extracted row* (a genuinely slow device),
//! so the barrier schedule pays its full shard every round while the
//! pipelined schedule keeps only a small in-flight window there and lets
//! the placement-map replica steal the rest. `NDPIPE_THREADS` is pinned
//! to 1 during measurement so per-server forward passes are serial and
//! the reported speedup is schedule overlap plus stealing, not the GEMM
//! pool racing itself. Barrier and pipelined sweeps are interleaved per
//! repeat; each path reports its best sweep.
//!
//! Besides the speedup the artifact records the two acceptance facts the
//! schedule is sold on: `S = 0` bit-identity against the in-process
//! barrier schedule (`ftdmp_fine_tune`, the oracle), and the accuracy
//! ordering Base ≥ NDPipe > Outdated (Base is the Tuner's
//! full-precision master, NDPipe a store replica rebuilt from 8-bit
//! Check-N-Run deltas — ties allowed — and Outdated the never-fine-tuned
//! initial model).

use crate::util::{fmt, Report};
use dnn::{Mlp, TrainConfig, Trainer};
use ndpipe::ftdmp::FtdmpConfig;
use ndpipe::rpc::{Cluster, ConnectOptions, FailurePolicy, PipeStoreServer, ServerConfig};
use ndpipe::{PipeStore, PlacementMap, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Workload knobs for the pipelined-schedule measurement.
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// Loopback PipeStore servers (one of which is the straggler).
    pub peers: usize,
    /// Placement-map replication factor (R ≥ 2 enables stealing).
    pub replicas: usize,
    /// Label-space width of the synthetic corpus.
    pub classes: usize,
    /// Examples per class across the whole corpus (pre-sharding).
    pub per_class: usize,
    /// Input feature dimension (also the hidden width of the model).
    pub input_dim: usize,
    /// FT-DMP pipeline runs per round.
    pub n_run: usize,
    /// Classifier epochs per pipeline run.
    pub epochs_per_run: usize,
    /// Rows per extraction micro-batch (0 = auto).
    pub micro_batch: usize,
    /// Staleness bound for the pipelined path (the barrier path is S=0
    /// by construction).
    pub staleness: usize,
    /// Fine-tuning rounds per sweep (each round ends in Check-N-Run
    /// delta distribution).
    pub rounds: usize,
    /// Interleaved barrier/pipelined sweep pairs.
    pub repeats: usize,
    /// Per-row extraction sleep on the slow store (node 0).
    pub slow_row_delay_us: u64,
}

impl PipelineParams {
    /// Full configuration: the acceptance setup (4 stores, one slow).
    pub fn full() -> Self {
        PipelineParams {
            peers: 4,
            replicas: 2,
            classes: 8,
            per_class: 200,
            input_dim: 64,
            n_run: 3,
            epochs_per_run: 3,
            micro_batch: 4,
            staleness: 1,
            rounds: 2,
            repeats: 3,
            slow_row_delay_us: 200,
        }
    }

    /// Smaller (noisier) configuration for `--fast` runs.
    pub fn fast() -> Self {
        PipelineParams {
            peers: 4,
            replicas: 2,
            classes: 6,
            per_class: 100,
            input_dim: 32,
            n_run: 2,
            epochs_per_run: 3,
            micro_batch: 3,
            staleness: 1,
            rounds: 2,
            repeats: 2,
            slow_row_delay_us: 150,
        }
    }

    /// Tiny configuration for unit tests (debug builds).
    pub fn tiny() -> Self {
        PipelineParams {
            peers: 2,
            replicas: 2,
            classes: 4,
            per_class: 24,
            input_dim: 16,
            n_run: 2,
            epochs_per_run: 2,
            micro_batch: 2,
            staleness: 1,
            rounds: 1,
            repeats: 1,
            slow_row_delay_us: 100,
        }
    }

    fn ftdmp(&self, train: TrainConfig) -> FtdmpConfig {
        FtdmpConfig {
            n_run: self.n_run,
            epochs_per_run: self.epochs_per_run,
            micro_batch: self.micro_batch,
            staleness: self.staleness,
            train,
        }
    }
}

/// Everything the bench measures, ready for rendering as text or JSON.
#[derive(Debug, Clone)]
pub struct PipelineMeasurements {
    /// The workload that was run.
    pub params: PipelineParams,
    /// Physical parallelism available for overlap.
    pub cpus: usize,
    /// Shard size each server holds (home shard, replicas excluded).
    pub rows_per_peer: usize,
    /// Seconds per barrier sweep (`rounds` run-at-a-time jobs), in order.
    pub barrier_runs: Vec<f64>,
    /// Seconds per pipelined sweep (one `S ≥ 1` pipelined job covering
    /// the same rounds), in order.
    pub pipelined_runs: Vec<f64>,
    /// Micro-batches the last pipelined sweep executed.
    pub micro_batches: usize,
    /// Micro-batches stolen away from the slow store (last sweep).
    pub steals: usize,
    /// Micro-batches extracted ahead of training (last sweep).
    pub stale_steps: usize,
    /// Seconds the Tuner idled waiting for features (last sweep).
    pub bubble_secs: f64,
    /// Whether an `S = 0` pipelined job reproduced the barrier schedule
    /// bit for bit (losses, example counts, final weights).
    pub s0_bit_identical: bool,
    /// Top-1 of the Tuner's full-precision master after fine-tuning.
    pub base_top1: f64,
    /// Top-1 of a store replica rebuilt from quantized deltas.
    pub ndpipe_top1: f64,
    /// Top-1 of the initial, never-fine-tuned model.
    pub outdated_top1: f64,
}

impl PipelineMeasurements {
    /// Best barrier sweep, seconds.
    pub fn barrier_secs(&self) -> f64 {
        self.barrier_runs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Best pipelined sweep, seconds.
    pub fn pipelined_secs(&self) -> f64 {
        self.pipelined_runs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Best-vs-best speedup of the pipelined schedule over the barrier.
    pub fn speedup(&self) -> f64 {
        let pipe = self.pipelined_secs();
        if pipe > 0.0 {
            self.barrier_secs() / pipe
        } else {
            0.0
        }
    }

    /// The acceptance bar: ≥ 1.3× with cores to overlap on. The straggler
    /// sleeps rather than computes, so stealing pays off even on one
    /// core, but training/extraction overlap does not — the single-core
    /// bar only asks the pipeline to win at all.
    pub fn pass_speedup(&self) -> bool {
        if self.cpus >= 2 {
            self.speedup() >= 1.3
        } else {
            self.speedup() > 1.0
        }
    }

    /// Base ≥ NDPipe (8-bit delta quantization may tie, never win) and
    /// NDPipe strictly above the never-updated model.
    pub fn accuracy_ordering_ok(&self) -> bool {
        self.base_top1 >= self.ndpipe_top1 && self.ndpipe_top1 > self.outdated_top1
    }
}

fn fast_opts() -> ConnectOptions {
    ConnectOptions::new()
        .retries(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(5))
}

/// Boots one server per shard, wiring replica shards from the placement
/// map and the per-row straggler delay on node 0.
fn spawn_fleet(
    shards: &[LabeledDataset],
    map: &PlacementMap,
    slow_delay: Option<Duration>,
) -> (Vec<PipeStoreServer>, Vec<String>) {
    let mut servers = Vec::with_capacity(shards.len());
    let mut addrs = Vec::with_capacity(shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let mut store = PipeStore::new(i, shard.clone());
        for node in 0..shards.len() as u64 {
            if node != i as u64 && map.shard_holders(node).contains(&(i as u64)) {
                store.add_replica_shard(node, shards[node as usize].clone());
            }
        }
        if i == 0 {
            if let Some(delay) = slow_delay {
                store.set_extract_delay(Some(delay));
            }
        }
        let server = PipeStoreServer::bind(store, "127.0.0.1:0", ServerConfig::default())
            .expect("bind bench server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    (servers, addrs)
}

fn connect(addrs: &[String], map: &PlacementMap, quorum: usize) -> Cluster {
    let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(quorum))
        .connect_options(fast_opts())
        .connect(&addrs)
        .expect("connect bench cluster");
    let fan = cluster.publish_placement(map);
    assert!(fan.failures.is_empty(), "publish: {:?}", fan.failures);
    cluster
}

fn drain(cluster: Cluster, servers: Vec<PipeStoreServer>) -> Vec<PipeStore> {
    let fan = cluster.shutdown();
    assert!(fan.failures.is_empty(), "shutdown: {:?}", fan.failures);
    servers
        .into_iter()
        .map(|s| s.shutdown().expect("server drain"))
        .collect()
}

/// Runs the measurement at the given workload size. Pins
/// `NDPIPE_THREADS=1` while the servers are alive and restores the prior
/// value before returning (all server threads are joined first).
pub fn measure_with(p: &PipelineParams) -> PipelineMeasurements {
    let prior = std::env::var("NDPIPE_THREADS").ok();
    std::env::set_var("NDPIPE_THREADS", "1");
    let m = measure_pinned(p);
    match prior {
        Some(v) => std::env::set_var("NDPIPE_THREADS", v),
        None => std::env::remove_var("NDPIPE_THREADS"),
    }
    m
}

fn measure_pinned(p: &PipelineParams) -> PipelineMeasurements {
    let mut rng = StdRng::seed_from_u64(46_210);
    let universe = ClassUniverse::new(p.input_dim, 8, p.classes, 0.3, &mut rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..p.classes {
        for _ in 0..p.per_class {
            rows.push(universe.sample(c, &mut rng));
            labels.push(c);
        }
    }
    let dataset = LabeledDataset::new(rows, labels, p.classes).shuffled(&mut rng);
    let shards = dataset.shards(p.peers);
    let rows_per_peer = shards.iter().map(LabeledDataset::len).max().unwrap_or(0);
    let model = Mlp::new(
        &[p.input_dim, p.input_dim, p.input_dim, p.classes],
        2,
        &mut rng,
    );
    let train = TrainConfig {
        batch: 32,
        ..TrainConfig::default()
    };
    let ft = p.ftdmp(train);
    let nodes: Vec<u64> = (0..p.peers as u64).collect();
    let map = PlacementMap::new(&nodes, p.replicas.min(p.peers)).expect("placement map");
    let quorum = p.peers.saturating_sub(1).max(1);
    let delay = Duration::from_micros(p.slow_row_delay_us);

    // Oracle first: S = 0 over sockets vs the in-process barrier
    // schedule on local clones of the same shards, bit for bit, on a
    // healthy fleet (no straggler — this checks semantics, not speed,
    // and one round keeps it cheap).
    let s0 = FtdmpConfig {
        staleness: 0,
        ..ft
    };
    let mut ref_tuner = Tuner::new(model.clone(), train);
    let mut ref_rng = StdRng::seed_from_u64(9_201);
    let mut ref_stores: Vec<PipeStore> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| PipeStore::new(i, shard.clone()))
        .collect();
    let reference =
        ndpipe::ftdmp_fine_tune(&mut ref_tuner, &mut ref_stores, &s0, &mut ref_rng)
            .expect("reference oracle job");

    let mut s0_tuner = Tuner::new(model.clone(), train);
    let mut s0_rng = StdRng::seed_from_u64(9_201);
    let (servers, addrs) = spawn_fleet(&shards, &map, None);
    let cluster = connect(&addrs, &map, quorum);
    let oracle = cluster
        .ftdmp_fine_tune_pipelined(&mut s0_tuner, &s0, 1, &mut s0_rng, Some(&map))
        .expect("pipelined oracle job");
    drain(cluster, servers);
    let s0_bit_identical = oracle.failures.is_empty()
        && reference.run_losses == oracle.report.run_losses
        && reference.examples == oracle.report.examples
        && ref_tuner.model().to_bytes() == s0_tuner.model().to_bytes();

    // Timed sweeps: interleave barrier and pipelined, fresh fleet and
    // fresh seeds each sweep so neither path warms the other.
    let barrier = FtdmpConfig {
        staleness: 0,
        micro_batch: usize::MAX,
        ..ft
    };
    let mut barrier_runs = Vec::with_capacity(p.repeats);
    let mut pipelined_runs = Vec::with_capacity(p.repeats);
    let mut micro_batches = 0;
    let mut steals = 0;
    let mut stale_steps = 0;
    let mut bubble_secs = 0.0;
    let mut base_top1 = 0.0;
    let mut ndpipe_top1 = 0.0;
    for _ in 0..p.repeats.max(1) {
        // Barrier: `rounds` sequential run-at-a-time jobs — the same
        // entry point at S = 0, one extraction per peer per run, and no
        // placement map to steal through.
        let mut tuner = Tuner::new(model.clone(), train);
        let mut sweep_rng = StdRng::seed_from_u64(31_337);
        let (servers, addrs) = spawn_fleet(&shards, &map, Some(delay));
        let cluster = connect(&addrs, &map, quorum);
        let t = Instant::now();
        for _ in 0..p.rounds {
            let out = cluster
                .ftdmp_fine_tune_pipelined(&mut tuner, &barrier, 1, &mut sweep_rng, None)
                .expect("barrier sweep");
            assert!(out.failures.is_empty(), "barrier: {:?}", out.failures);
        }
        barrier_runs.push(t.elapsed().as_secs_f64());
        drain(cluster, servers);

        // Pipelined: one S ≥ 1 job covering the same rounds.
        let mut tuner = Tuner::new(model.clone(), train);
        let mut sweep_rng = StdRng::seed_from_u64(31_337);
        let (servers, addrs) = spawn_fleet(&shards, &map, Some(delay));
        let cluster = connect(&addrs, &map, quorum);
        let t = Instant::now();
        let out = cluster
            .ftdmp_fine_tune_pipelined(&mut tuner, &ft, p.rounds, &mut sweep_rng, Some(&map))
            .expect("pipelined sweep");
        pipelined_runs.push(t.elapsed().as_secs_f64());
        assert!(out.failures.is_empty(), "pipelined: {:?}", out.failures);
        let stores = drain(cluster, servers);

        micro_batches = out.report.schedule.micro_batches;
        steals = out.report.schedule.steals;
        stale_steps = out.report.schedule.stale_steps;
        bubble_secs = out.report.schedule.bubble_secs;

        // Accuracy triple off the final sweep's fleet: the Tuner master
        // (Base) and a replica reassembled from quantized deltas
        // (NDPipe), both on a held-out test set from the same universe.
        let test = held_out_test(&universe, p.classes);
        base_top1 = f64::from(Trainer::evaluate(tuner.model(), &test).top1);
        let replica = stores
            .iter()
            .find_map(PipeStore::model)
            .expect("a drained store still holds its model");
        ndpipe_top1 = f64::from(Trainer::evaluate(replica, &test).top1);
    }

    // The never-updated model, on the same held-out set.
    let test = held_out_test(&universe, p.classes);
    let outdated_top1 = f64::from(Trainer::evaluate(&model, &test).top1);

    PipelineMeasurements {
        params: *p,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows_per_peer,
        barrier_runs,
        pipelined_runs,
        micro_batches,
        steals,
        stale_steps,
        bubble_secs,
        s0_bit_identical,
        base_top1,
        ndpipe_top1,
        outdated_top1,
    }
}

/// A fixed-seed held-out test set drawn from the training universe, so
/// every accuracy number in the triple reads the same distribution.
fn held_out_test(universe: &ClassUniverse, classes: usize) -> LabeledDataset {
    let mut rng = StdRng::seed_from_u64(52_808);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for _ in 0..20 {
            rows.push(universe.sample(c, &mut rng));
            labels.push(c);
        }
    }
    LabeledDataset::new(rows, labels, classes)
}

fn json_run_list(runs: &[f64]) -> String {
    let items: Vec<String> = runs.iter().map(|r| format!("{r:.5}")).collect();
    format!("[{}]", items.join(", "))
}

/// Renders the measurements as the machine-readable JSON artifact.
pub fn to_json(m: &PipelineMeasurements) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"ftdmp_pipeline\",\n");
    s.push_str(&format!("  \"peers\": {},\n", m.params.peers));
    s.push_str(&format!("  \"replicas\": {},\n", m.params.replicas));
    s.push_str(&format!("  \"rounds\": {},\n", m.params.rounds));
    s.push_str(&format!("  \"n_run\": {},\n", m.params.n_run));
    s.push_str(&format!("  \"micro_batch\": {},\n", m.params.micro_batch));
    s.push_str(&format!("  \"staleness\": {},\n", m.params.staleness));
    s.push_str(&format!("  \"rows_per_peer\": {},\n", m.rows_per_peer));
    s.push_str(&format!(
        "  \"slow_row_delay_us\": {},\n",
        m.params.slow_row_delay_us
    ));
    s.push_str(&format!("  \"repeats\": {},\n", m.params.repeats));
    s.push_str(&format!("  \"cpus\": {},\n", m.cpus));
    s.push_str(&format!(
        "  \"barrier_best_secs\": {:.5},\n",
        m.barrier_secs()
    ));
    s.push_str(&format!(
        "  \"pipelined_best_secs\": {:.5},\n",
        m.pipelined_secs()
    ));
    s.push_str(&format!("  \"speedup\": {:.3},\n", m.speedup()));
    s.push_str(&format!("  \"pass_speedup_bar\": {},\n", m.pass_speedup()));
    s.push_str(&format!("  \"s0_bit_identical\": {},\n", m.s0_bit_identical));
    s.push_str(&format!("  \"micro_batches\": {},\n", m.micro_batches));
    s.push_str(&format!("  \"steals\": {},\n", m.steals));
    s.push_str(&format!("  \"stale_steps\": {},\n", m.stale_steps));
    s.push_str(&format!("  \"bubble_secs\": {:.5},\n", m.bubble_secs));
    s.push_str(&format!("  \"base_top1\": {:.4},\n", m.base_top1));
    s.push_str(&format!("  \"ndpipe_top1\": {:.4},\n", m.ndpipe_top1));
    s.push_str(&format!("  \"outdated_top1\": {:.4},\n", m.outdated_top1));
    s.push_str(&format!(
        "  \"accuracy_ordering_ok\": {},\n",
        m.accuracy_ordering_ok()
    ));
    s.push_str(&format!(
        "  \"barrier_runs_secs\": {},\n",
        json_run_list(&m.barrier_runs)
    ));
    s.push_str(&format!(
        "  \"pipelined_runs_secs\": {}\n",
        json_run_list(&m.pipelined_runs)
    ));
    s.push_str("}\n");
    s
}

/// Renders the measurements as a human-readable report.
pub fn render(m: &PipelineMeasurements) -> String {
    let mut r = Report::new(
        "FT-DMP pipeline",
        "micro-batch pipelined schedule vs run-at-a-time barriers, one slow store",
    );
    r.note(&format!(
        "{} loopback stores (R={}), {} rows/peer, store 0 sleeps {}us/row, \
         {} round(s) x {} run(s), mb {}, S={}, {} cores",
        m.params.peers,
        m.params.replicas,
        m.rows_per_peer,
        m.params.slow_row_delay_us,
        m.params.rounds,
        m.params.n_run,
        m.params.micro_batch,
        m.params.staleness,
        m.cpus
    ));
    r.blank();
    r.header(&["schedule", "best sweep s", "sweeps"]);
    r.row(&[
        "run-at-a-time".into(),
        fmt(m.barrier_secs(), 4),
        m.barrier_runs
            .iter()
            .map(|x| fmt(*x, 3))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    r.row(&[
        "pipelined".into(),
        fmt(m.pipelined_secs(), 4),
        m.pipelined_runs
            .iter()
            .map(|x| fmt(*x, 3))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    r.blank();
    r.note(&format!(
        "speedup {:.2}x ({} micro-batches, {} steals, {} stale, {:.3}s bubble) — {}",
        m.speedup(),
        m.micro_batches,
        m.steals,
        m.stale_steps,
        m.bubble_secs,
        if m.pass_speedup() { "PASS" } else { "FAIL" }
    ));
    r.note(&format!(
        "S=0 bit-identical: {}; accuracy base {:.3} >= ndpipe {:.3} > outdated {:.3}: {}",
        if m.s0_bit_identical { "yes" } else { "NO" },
        m.base_top1,
        m.ndpipe_top1,
        m.outdated_top1,
        if m.accuracy_ordering_ok() { "PASS" } else { "FAIL" }
    ));
    r.render()
}

/// Standard entry point matching the other report modules.
pub fn run(fast: bool) -> String {
    let params = if fast {
        PipelineParams::fast()
    } else {
        PipelineParams::full()
    };
    render(&measure_with(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_produces_valid_json_and_restores_env() {
        let before = std::env::var("NDPIPE_THREADS").ok();
        let m = measure_with(&PipelineParams::tiny());
        assert_eq!(
            std::env::var("NDPIPE_THREADS").ok(),
            before,
            "NDPIPE_THREADS not restored"
        );
        assert_eq!(m.barrier_runs.len(), 1);
        assert_eq!(m.pipelined_runs.len(), 1);
        assert!(m.barrier_secs() > 0.0);
        assert!(m.pipelined_secs() > 0.0);
        assert!(m.speedup().is_finite());
        assert!(m.s0_bit_identical, "S=0 oracle diverged");
        assert!(m.micro_batches > 0);
        assert!(m.base_top1 >= 0.0 && m.outdated_top1 >= 0.0);

        let json = to_json(&m);
        telemetry::export::validate_json(&json).expect("well-formed JSON");
        for key in [
            "\"bench\"",
            "\"barrier_best_secs\"",
            "\"pipelined_best_secs\"",
            "\"speedup\"",
            "\"pass_speedup_bar\"",
            "\"s0_bit_identical\"",
            "\"steals\"",
            "\"stale_steps\"",
            "\"accuracy_ordering_ok\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"));

        let text = render(&m);
        assert!(text.contains("pipelined"));
        assert!(text.contains("speedup"));
    }
}
