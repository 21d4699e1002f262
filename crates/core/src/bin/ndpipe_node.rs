//! Multi-process NDPipe node, mirroring the paper's artifact workflow
//! ("initiate Tuner ... then begin to run PipeStores by matching the port
//! number on the Tuner side") — except our PipeStores listen and the
//! Tuner connects, so no coordination service is needed.
//!
//! Every node derives its data deterministically from `--seed`, so shards
//! started on different machines fit together.
//!
//! ```bash
//! # terminal 1..3: storage nodes, each also replicating one peer's shard
//! ndpipe_node pipestore --listen 127.0.0.1:7401 --shard 0/3 --seed 42 --replicas 2
//! ndpipe_node pipestore --listen 127.0.0.1:7402 --shard 1/3 --seed 42 --replicas 2
//! ndpipe_node pipestore --listen 127.0.0.1:7403 --shard 2/3 --seed 42 --replicas 2
//! # terminal 4: the Tuner (placement-aware — a dead store's shard is
//! # extracted from a surviving replica instead of being dropped)
//! ndpipe_node tuner --connect 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 \
//!     --seed 42 --replicas 2 --quorum 2
//! ```
//!
//! With `--replicas R` every node derives the same rendezvous-hash
//! [`PlacementMap`] from the shard count, so the fleet agrees on which
//! stores replicate which shards without any coordination service.

use dnn::{Mlp, ModelProfile, TrainConfig, Trainer};
use ndpipe::ftdmp::FtdmpConfig;
use ndpipe::rpc::{Cluster, FailurePolicy, PipeStoreServer, ServerConfig};
use ndpipe::{pareto_front, ParetoInput, PipeStore, PlacementMap, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use tensor::{set_default_math_policy, MathPolicy};

const CLASSES: usize = 8;
const INPUT_DIM: usize = 16;
const PER_CLASS: usize = 60;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ndpipe_node pipestore --listen ADDR --shard I/N [--seed S] [--replicas R] \
         [--math deterministic|fast|int8]\n  \
         ndpipe_node tuner --connect ADDR[,ADDR...] [--seed S] [--runs ROUNDS] [--n-run N] \
         [--micro-batch M] [--staleness S] [--epochs E] [--quorum K] [--replicas R] \
         [--math deterministic|fast|int8] [--auto] [--partition K] [--peers N]"
    );
    ExitCode::FAILURE
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Applies `--math POLICY` (if present) as the process-wide default
/// before any store or kernel consults it. `Ok(None)` when the flag is
/// absent (the `NDPIPE_MATH` env default stays in force).
fn apply_math_flag(args: &[String]) -> Result<Option<MathPolicy>, ExitCode> {
    let Some(raw) = arg_value(args, "--math") else {
        return Ok(None);
    };
    let Some(policy) = MathPolicy::parse(&raw) else {
        eprintln!("bad --math {raw}: expected deterministic|fast|int8");
        return Err(usage());
    };
    if !set_default_math_policy(policy) {
        eprintln!("--math {policy} lost to an earlier default; startup ordering bug");
        return Err(ExitCode::FAILURE);
    }
    Ok(Some(policy))
}

/// The full training corpus every node can rebuild from the seed.
fn corpus(seed: u64) -> (ClassUniverse, LabeledDataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = ClassUniverse::new(INPUT_DIM, 8, CLASSES, 0.3, &mut rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..CLASSES {
        for _ in 0..PER_CLASS {
            rows.push(universe.sample(c, &mut rng));
            labels.push(c);
        }
    }
    let data = LabeledDataset::new(rows, labels, CLASSES).shuffled(&mut rng);
    (universe, data)
}

fn run_pipestore(args: &[String]) -> ExitCode {
    let math = match apply_math_flag(args) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let Some(listen) = arg_value(args, "--listen") else {
        return usage();
    };
    let Some(shard_spec) = arg_value(args, "--shard") else {
        return usage();
    };
    let seed: u64 = arg_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let Some((i, n)) = shard_spec
        .split_once('/')
        .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
    else {
        return usage();
    };
    if n == 0 || i >= n {
        eprintln!("bad shard spec {shard_spec}");
        return ExitCode::FAILURE;
    }
    let replicas: usize = arg_value(args, "--replicas")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (_, data) = corpus(seed);
    let mut shards = data.shards(n);
    let shard = shards[i].clone();
    eprintln!(
        "pipestore {i}/{n}: {} local examples, serving on {listen}",
        shard.len()
    );
    let mut store = PipeStore::new(i, shard);
    if let Some(policy) = math {
        // `new` already picked up the pinned default; restate it so the
        // log line records what `Describe` will report over RPC.
        store.set_math_policy(policy);
        eprintln!("pipestore {i}/{n}: math policy {policy}");
    }
    if replicas > 1 {
        // Same seed + same shard count on every node → identical map, so
        // the fleet agrees on replica placement with no coordination.
        let ids: Vec<u64> = (0..n as u64).collect();
        let map = match PlacementMap::new(&ids, replicas) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("pipestore {i}/{n}: bad --replicas {replicas}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (a, peer_shard) in shards.drain(..).enumerate() {
            if a != i && map.shard_holders(a as u64).contains(&(i as u64)) {
                eprintln!("pipestore {i}/{n}: replicating shard {a}/{n}");
                store.add_replica_shard(a as u64, peer_shard);
            }
        }
        match store.install_placement(map) {
            Ok(epoch) => eprintln!("pipestore {i}/{n}: placement epoch {epoch}"),
            Err(held) => {
                eprintln!("pipestore {i}/{n}: placement rejected (held epoch {held})");
                return ExitCode::FAILURE;
            }
        }
    }
    let server = match PipeStoreServer::bind(store, &listen, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pipestore {i}/{n}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("pipestore {i}/{n}: listening on {}", server.local_addr());
    // Serve until the first Tuner session finishes, then drain & exit —
    // the artifact workflow runs one fine-tuning round per invocation.
    server.wait_idle(1);
    match server.shutdown() {
        Ok(store) => {
            eprintln!(
                "pipestore {i}/{n}: session complete (model installed: {})",
                store.model().is_some()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipestore {i}/{n}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_tuner(args: &[String]) -> ExitCode {
    if let Err(code) = apply_math_flag(args) {
        return code;
    }
    let Some(connect) = arg_value(args, "--connect") else {
        return usage();
    };
    let seed: u64 = arg_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // `--runs`: pipelined fine-tuning rounds driven back to back; each
    // round is `--n-run` FT-DMP runs. `--micro-batch 0` sizes
    // micro-batches automatically. Results equal the in-process barrier
    // at every `--staleness`; `--staleness 0` only keeps extraction from
    // getting ahead of training.
    let rounds: usize = arg_value(args, "--runs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let defaults = FtdmpConfig::default();
    let n_run: usize = arg_value(args, "--n-run")
        .and_then(|s| s.parse().ok())
        .unwrap_or(defaults.n_run);
    // `--auto`: seed partition point, fleet width, and micro-batch count
    // from the APO Pareto knee (paper-default deployment profile).
    // Explicit `--partition` / `--peers` / `--micro-batch` flags override
    // the knee value individually.
    let knee = args.iter().any(|a| a == "--auto").then(|| {
        let front = pareto_front(&ParetoInput::paper_default(ModelProfile::resnet50()));
        eprintln!(
            "tuner: APO knee partition={} pipestores={} micro-batch={} ({} candidates)",
            front.knee.partition, front.knee.n_pipestores, front.knee.micro_batch, front.candidates
        );
        front.knee
    });
    let micro_batch: usize = arg_value(args, "--micro-batch")
        .and_then(|s| s.parse().ok())
        .or(knee.as_ref().map(|k| k.micro_batch))
        .unwrap_or(defaults.micro_batch);
    let staleness: usize = arg_value(args, "--staleness")
        .and_then(|s| s.parse().ok())
        .unwrap_or(defaults.staleness);
    let epochs: usize = arg_value(args, "--epochs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    // `--quorum K`: keep going as long as K stores survive the round;
    // without it any peer failure aborts (strict).
    let policy = match arg_value(args, "--quorum").map(|s| s.parse::<usize>()) {
        Some(Ok(k)) => FailurePolicy::Quorum(k),
        Some(Err(_)) => return usage(),
        None => FailurePolicy::Strict,
    };
    let replicas: usize = arg_value(args, "--replicas")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let (universe, _) = corpus(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A_BE);
    // `--partition K` (or the knee) picks how many of the 3 MLP layers
    // freeze on the PipeStores, clamped so at least one layer trains.
    let partition: usize = arg_value(args, "--partition")
        .and_then(|s| s.parse().ok())
        .or(knee.as_ref().map(|k| k.partition))
        .unwrap_or(2)
        .min(2);
    let model = Mlp::new(&[INPUT_DIM, 24, 16, CLASSES], partition, &mut rng);
    let test_rows: Vec<tensor::Tensor> = (0..400)
        .map(|k| universe.sample(k % CLASSES, &mut rng))
        .collect();
    let test_labels: Vec<usize> = (0..400).map(|k| k % CLASSES).collect();
    let test = LabeledDataset::new(test_rows, test_labels, CLASSES);

    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model, cfg);
    eprintln!(
        "tuner: untrained accuracy {}",
        Trainer::evaluate(tuner.model(), &test)
    );

    // `--peers N` (or the knee) drives only the first N connected
    // stores — the APO-chosen fleet width, never more than were given.
    let mut addrs: Vec<&str> = connect.split(',').map(str::trim).collect();
    let peers: usize = arg_value(args, "--peers")
        .and_then(|s| s.parse().ok())
        .or(knee.as_ref().map(|k| k.n_pipestores))
        .unwrap_or(addrs.len())
        .clamp(1, addrs.len());
    if peers < addrs.len() {
        eprintln!(
            "tuner: driving first {peers} of {} given peers",
            addrs.len()
        );
        addrs.truncate(peers);
    }
    let cluster = match Cluster::builder().policy(policy).connect(&addrs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tuner: cannot build cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in cluster.initial_failures() {
        eprintln!("tuner: peer down at connect (will retry per-op): {f}");
    }
    eprintln!(
        "tuner: driving {} store(s) under policy {:?}",
        cluster.len(),
        cluster.policy()
    );

    // With `--replicas R` the Tuner publishes the same map the stores
    // derived locally and drives a placement-aware sweep: a dead store's
    // shard is extracted from a surviving replica instead of dropped.
    let placement = if replicas > 1 {
        let ids: Vec<u64> = (0..addrs.len() as u64).collect();
        let map = match PlacementMap::new(&ids, replicas) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("tuner: bad --replicas {replicas}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for f in cluster.publish_placement(&map).failures {
            eprintln!("tuner: placement publish warning: {f}");
        }
        Some(map)
    } else {
        None
    };

    let outcome = match cluster.ftdmp_fine_tune_pipelined(
        &mut tuner,
        &FtdmpConfig {
            n_run,
            epochs_per_run: epochs,
            micro_batch,
            staleness,
            train: cfg,
        },
        rounds,
        &mut rng,
        placement.as_ref(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tuner: fine-tune failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in cluster.shutdown().failures {
        eprintln!("tuner: shutdown warning: {f}");
    }

    let report = &outcome.report;
    for f in &outcome.failures {
        eprintln!("tuner: peer excluded mid-round: {f}");
    }
    println!("peers completed       {}", outcome.peers_used.len());
    if placement.is_some() {
        println!("shard reroutes        {}", outcome.reroutes);
    }
    println!("examples trained      {}", report.examples);
    println!("feature bytes moved   {}", report.feature_bytes);
    println!(
        "pipeline schedule     {} micro-batches, {} steals, {} stale steps, {:.3}s bubble",
        report.schedule.micro_batches,
        report.schedule.steals,
        report.schedule.stale_steps,
        report.schedule.bubble_secs
    );
    println!(
        "model delta vs full   {} B ({:.1}x smaller)",
        report.distribution_bytes, report.distribution_reduction
    );
    println!(
        "final accuracy        {}",
        Trainer::evaluate(tuner.model(), &test)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pipestore") => run_pipestore(&args),
        Some("tuner") => run_tuner(&args),
        _ => usage(),
    }
}
