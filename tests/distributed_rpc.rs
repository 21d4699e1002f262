//! True distributed execution: PipeStore servers on localhost sockets,
//! a Tuner client driving FT-DMP and offline inference over TCP.

use dnn::{Mlp, TrainConfig, Trainer};
use ndpipe::ftdmp::FtdmpConfig;
use ndpipe::rpc::{
    Cluster, ClusterError, PipeStoreServer, RemotePipeStore, RpcError, ServerConfig,
};
use ndpipe::{PipeStore, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

fn dataset(rng: &mut StdRng, classes: usize, per_class: usize) -> (LabeledDataset, LabeledDataset) {
    let u = ClassUniverse::new(16, 8, classes, 0.3, rng);
    let make = |u: &ClassUniverse, rng: &mut StdRng, n: usize| {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..u.classes() {
            for _ in 0..n {
                rows.push(u.sample(c, rng));
                labels.push(c);
            }
        }
        LabeledDataset::new(rows, labels, u.classes())
    };
    (make(&u, rng, per_class), make(&u, rng, per_class / 2))
}

/// The run-at-a-time barrier schedule as a configuration of the one
/// cluster entry point: `S = 0`, one extraction per peer per run.
fn barrier(n_run: usize, epochs_per_run: usize, train: TrainConfig) -> FtdmpConfig {
    FtdmpConfig {
        n_run,
        epochs_per_run,
        micro_batch: usize::MAX,
        staleness: 0,
        train,
    }
}

/// Spawns `n` PipeStore servers on ephemeral localhost ports and returns
/// connected clients plus the server handles.
fn spawn_fleet(train: &LabeledDataset, n: usize) -> (Vec<RemotePipeStore>, Vec<PipeStoreServer>) {
    let mut clients = Vec::with_capacity(n);
    let mut servers = Vec::with_capacity(n);
    for (i, shard) in train.shards(n).into_iter().enumerate() {
        let server = PipeStoreServer::bind(
            PipeStore::new(i, shard),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind server");
        clients.push(RemotePipeStore::connect(server.local_addr().to_string()).expect("connect"));
        servers.push(server);
    }
    (clients, servers)
}

#[test]
fn distributed_fine_tune_over_sockets_learns() {
    let mut rng = StdRng::seed_from_u64(101);
    let (train, test) = dataset(&mut rng, 5, 30);
    let model = Mlp::new(&[16, 24, 16, 5], 2, &mut rng);
    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model, cfg);
    let before = Trainer::evaluate(tuner.model(), &test).top1;

    let (clients, servers) = spawn_fleet(&train, 3);
    let cluster = Cluster::builder().adopt(clients).expect("adopt fleet");
    let outcome = cluster
        .ftdmp_fine_tune_pipelined(&mut tuner, &barrier(2, 12, cfg), 1, &mut rng, None)
        .expect("distributed fine-tune");
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.peers_used, vec![0, 1, 2]);
    let report = outcome.report;

    // Offline inference over the wire: labels only. Recover the
    // per-peer handles for the direct calls.
    let mut clients = cluster.into_remotes();
    let mut total_labels = 0;
    for c in &mut clients {
        // No photos stored, so zero labels — but the call round-trips.
        total_labels += c.offline_infer().expect("offline infer").len();
    }
    assert_eq!(total_labels, 0);

    for c in clients {
        c.shutdown().expect("shutdown");
    }
    let stores: Vec<PipeStore> = servers
        .into_iter()
        .map(|s| s.shutdown().expect("server drain"))
        .collect();

    let after = Trainer::evaluate(tuner.model(), &test).top1;
    assert!(
        after > before + 0.2,
        "distributed tuning failed: {before:.3} -> {after:.3}"
    );
    assert_eq!(report.examples, train.len());
    assert!(report.feature_bytes > 0);

    // Every remote replica ended close to the master (8-bit delta
    // quantization compounds through two classifier layers, so allow a
    // small tolerance relative to logit scale).
    let x = Tensor::randn(&[4, 16], &mut rng);
    let master = tuner.model().forward(&x);
    for s in stores {
        let replica = s.model().expect("model installed").forward(&x);
        for (a, b) in master.data().iter().zip(replica.data()) {
            assert!((a - b).abs() < 0.15, "replica drifted: {a} vs {b}");
        }
        // And they agree on predictions.
        assert_eq!(master.argmax(), replica.argmax());
    }
}

#[test]
fn distributed_matches_local_ftdmp() {
    let mut rng = StdRng::seed_from_u64(102);
    let (train, test) = dataset(&mut rng, 4, 30);
    let model = Mlp::new(&[16, 24, 16, 4], 2, &mut rng);
    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let ft = barrier(1, 10, cfg);

    // Local threads.
    let mut local_tuner = Tuner::new(model.clone(), cfg);
    let mut local_stores: Vec<PipeStore> = train
        .shards(2)
        .into_iter()
        .enumerate()
        .map(|(i, s)| PipeStore::new(i, s))
        .collect();
    ndpipe::ftdmp_fine_tune(&mut local_tuner, &mut local_stores, &ft, &mut rng)
        .expect("valid FT-DMP job");
    let local_acc = Trainer::evaluate(local_tuner.model(), &test).top1;

    // Sockets.
    let mut remote_tuner = Tuner::new(model, cfg);
    let (clients, servers) = spawn_fleet(&train, 2);
    let cluster = Cluster::builder().adopt(clients).expect("adopt fleet");
    cluster
        .ftdmp_fine_tune_pipelined(&mut remote_tuner, &ft, 1, &mut rng, None)
        .expect("remote fine-tune");
    let fan = cluster.shutdown();
    assert!(fan.failures.is_empty());
    for s in servers {
        s.shutdown().expect("server drain");
    }
    let remote_acc = Trainer::evaluate(remote_tuner.model(), &test).top1;

    assert!(
        (local_acc - remote_acc).abs() < 0.15,
        "local {local_acc:.3} vs remote {remote_acc:.3}"
    );
}

#[test]
fn remote_errors_surface_cleanly() {
    let mut rng = StdRng::seed_from_u64(103);
    let (train, _) = dataset(&mut rng, 4, 10);
    // Model with a *narrower* label space than the shards: the remote
    // check must reject it before any bytes of model move.
    let model = Mlp::new(&[16, 12, 3], 1, &mut rng);
    let cfg = TrainConfig::default();
    let mut tuner = Tuner::new(model, cfg);
    let (clients, servers) = spawn_fleet(&train, 1);
    let cluster = Cluster::builder().adopt(clients).expect("adopt fleet");
    let result =
        cluster.ftdmp_fine_tune_pipelined(&mut tuner, &barrier(1, 1, cfg), 1, &mut rng, None);
    match result {
        Err(ClusterError::Rejected { ok, failures, .. }) => {
            assert_eq!(ok, 0);
            assert!(
                matches!(&failures[0].error, RpcError::Remote { msg, .. } if msg.contains("widen")),
                "expected a typed label-space rejection, got {:?}",
                failures[0].error
            );
        }
        other => panic!("should refuse wider label space, got {other:?}"),
    }
    cluster.shutdown();
    for s in servers {
        s.shutdown().expect("server drain");
    }
}
