//! Cluster failover semantics against real localhost sockets: killed
//! peers under `Quorum` vs `Strict`, structured handshake refusals, the
//! session cap, mid-sweep shard reroutes over a placement map, the
//! kill → restart → rejoin loop, and (ignored by default) concurrent
//! stress / rejoin soak runs.

use dnn::{Mlp, TrainConfig};
use ndpipe::ftdmp::FtdmpConfig;
use ndpipe::rpc::wire::{
    read_handshake, read_reply, read_request, write_handshake, write_reply, write_request,
    Handshake, PhotoRecord, Reply, Request, PROTOCOL_VERSION,
};
use ndpipe::rpc::{
    Cluster, ClusterError, ConnectOptions, FailurePolicy, Fanout, PeerFailure, PipeStoreServer,
    RebalanceConfig, RemotePipeStore, RpcError, ServerConfig,
};
use ndpipe::{PipeStore, PlacementMap, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use tensor::Tensor;

fn dataset(rng: &mut StdRng, classes: usize, per_class: usize) -> LabeledDataset {
    let u = ClassUniverse::new(16, 8, classes, 0.3, rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for _ in 0..per_class {
            rows.push(u.sample(c, rng));
            labels.push(c);
        }
    }
    LabeledDataset::new(rows, labels, classes)
}

/// Boots `n` PipeStore servers on ephemeral ports, one shard each.
fn spawn_servers(train: &LabeledDataset, n: usize) -> (Vec<PipeStoreServer>, Vec<String>) {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for (i, shard) in train.shards(n).into_iter().enumerate() {
        let server = PipeStoreServer::bind(
            PipeStore::new(i, shard),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    (servers, addrs)
}

/// Low-latency retry settings so dead-peer probes don't slow the test.
fn fast_opts() -> ConnectOptions {
    ConnectOptions::new()
        .retries(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(5))
}

#[test]
fn quorum_survives_killed_peer() {
    let mut rng = StdRng::seed_from_u64(201);
    let train = dataset(&mut rng, 5, 30);
    let model = Mlp::new(&[16, 24, 16, 5], 2, &mut rng);
    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model, cfg);
    let ft = FtdmpConfig {
        n_run: 1,
        epochs_per_run: 4,
        // The barrier schedule: S = 0, one extraction per peer per run.
        micro_batch: usize::MAX,
        staleness: 0,
        train: cfg,
    };

    let (mut servers, addrs) = spawn_servers(&train, 3);
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(2))
        .connect_options(fast_opts())
        .op_attempts(2)
        .connect(&addrs)
        .expect("connect cluster");
    assert!(cluster.initial_failures().is_empty());

    // Round 1: every peer healthy.
    let r1 = cluster
        .ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, None)
        .expect("healthy round");
    assert_eq!(r1.peers_used, vec![0, 1, 2]);
    assert!(r1.failures.is_empty());
    assert_eq!(r1.report.examples, train.len());

    // Kill peer 2 (hard: sockets slammed, listener closed).
    let victim = servers.remove(2);
    victim.abort().expect("abort victim");

    // Round 2: the quorum of two completes; the corpse is reported, not
    // fatal.
    let r2 = cluster
        .ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, None)
        .expect("quorum round with a dead peer");
    assert_eq!(r2.peers_used, vec![0, 1]);
    assert_eq!(r2.failures.len(), 1, "failures: {:?}", r2.failures);
    let f = &r2.failures[0];
    assert_eq!(f.index, 2);
    assert!(
        matches!(f.error, RpcError::PeerUnavailable { .. }),
        "expected PeerUnavailable, got {:?}",
        f.error
    );
    assert!(r2.report.examples > 0 && r2.report.examples < train.len());

    cluster.shutdown();
    for s in servers {
        s.shutdown().expect("server drain");
    }
}

#[test]
fn strict_surfaces_peer_unavailable() {
    let mut rng = StdRng::seed_from_u64(202);
    let train = dataset(&mut rng, 4, 20);
    let model = Mlp::new(&[16, 24, 16, 4], 2, &mut rng);
    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model, cfg);
    let ft = FtdmpConfig {
        n_run: 1,
        epochs_per_run: 2,
        // The barrier schedule: S = 0, one extraction per peer per run.
        micro_batch: usize::MAX,
        staleness: 0,
        train: cfg,
    };

    let (mut servers, addrs) = spawn_servers(&train, 2);
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Strict)
        .connect_options(fast_opts())
        .op_attempts(2)
        .connect(&addrs)
        .expect("connect cluster");

    servers.remove(1).abort().expect("abort victim");

    let err = cluster
        .ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, None)
        .expect_err("strict must reject a dead peer");
    match err {
        ClusterError::Rejected { ok, failures, .. } => {
            assert_eq!(ok, 1);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].index, 1);
            assert!(
                matches!(failures[0].error, RpcError::PeerUnavailable { .. }),
                "expected PeerUnavailable, got {:?}",
                failures[0].error
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    cluster.shutdown();
    for s in servers {
        s.shutdown().expect("server drain");
    }
}

#[test]
fn server_rejects_future_protocol_version() {
    let mut rng = StdRng::seed_from_u64(203);
    let train = dataset(&mut rng, 4, 4);
    let server = PipeStoreServer::bind(
        PipeStore::new(0, train),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind server");
    let addr = server.local_addr();

    // A client from the future: the server must answer with a `Reject`
    // carrying *its* version, so the client can diagnose the skew.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    write_handshake(
        &mut raw,
        &Handshake::Hello {
            version: 99,
            features: 0,
        },
    )
    .expect("send hello");
    match read_handshake(&mut raw).expect("read refusal") {
        Handshake::Reject { version, reason } => {
            assert_eq!(version, PROTOCOL_VERSION);
            assert!(!reason.is_empty());
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    drop(raw);

    // The refusal must not poison the server: a well-versioned client
    // still gets a session.
    let mut c = RemotePipeStore::connect_with(addr, fast_opts()).expect("normal connect");
    c.describe().expect("describe");
    c.shutdown().expect("client shutdown");
    server.shutdown().expect("server drain");
}

#[test]
fn client_maps_version_skew_to_protocol_mismatch() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        match read_handshake(&mut s).expect("client hello") {
            Handshake::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        }
        write_handshake(
            &mut s,
            &Handshake::Reject {
                version: 7,
                reason: "too old".into(),
            },
        )
        .expect("send reject");
    });

    let err = RemotePipeStore::connect_with(addr, fast_opts().retries(1))
        .expect_err("version skew must fail the connect");
    match err {
        RpcError::ProtocolMismatch { ours, theirs } => {
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, 7);
        }
        other => panic!("expected ProtocolMismatch, got {other:?}"),
    }
    fake.join().expect("fake server");
}

#[test]
fn session_cap_refusal_is_a_remote_error() {
    let mut rng = StdRng::seed_from_u64(204);
    let train = dataset(&mut rng, 4, 4);
    let server = PipeStoreServer::bind(
        PipeStore::new(0, train),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    let first = RemotePipeStore::connect_with(addr, fast_opts()).expect("first session");
    let err = RemotePipeStore::connect_with(addr, fast_opts().retries(1))
        .expect_err("second session must be refused at cap 1");
    match err {
        // Same protocol version on both sides, so the refusal is
        // operational — not a version mismatch.
        RpcError::Remote { op, msg, .. } => {
            assert_eq!(op, "hello");
            assert!(msg.contains("session cap"), "unexpected reason: {msg}");
        }
        other => panic!("expected Remote refusal, got {other:?}"),
    }

    first.shutdown().expect("first session shutdown");
    server.shutdown().expect("server drain");
}

#[test]
fn quorum_wider_than_fleet_is_a_config_error() {
    let err = Cluster::builder()
        .policy(FailurePolicy::Quorum(3))
        .connect_options(fast_opts())
        .connect(&["127.0.0.1:1", "127.0.0.1:1"])
        .expect_err("quorum(3) over 2 peers must be rejected before connecting");
    assert!(
        matches!(err, ClusterError::Config(_)),
        "expected Config, got {err:?}"
    );
}

/// One request a fake peer saw: its op label, plus the `node` of an
/// `ExtractSlice`.
type Seen = (&'static str, Option<u64>);

/// A fake PipeStore with store id `store_id`: accepts one session,
/// records every request and answers each with `Reply::Label(7)` — a
/// shape no fan-out asks for.
fn wrong_shape_peer(listener: TcpListener, store_id: u64) -> Vec<Seen> {
    let (mut s, _) = listener.accept().expect("accept");
    match read_handshake(&mut s).expect("client hello") {
        Handshake::Hello { .. } => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    write_handshake(
        &mut s,
        &Handshake::Accept {
            version: PROTOCOL_VERSION,
            features: 0,
            store_id,
        },
    )
    .expect("send accept");
    let mut seen = Vec::new();
    while let Ok((req, _)) = read_request(&mut s) {
        let node = match req {
            Request::ExtractSlice { node, .. } => Some(node),
            _ => None,
        };
        seen.push((req.op_name(), node));
        if write_reply(&mut s, &Reply::Label(7)).is_err() {
            break;
        }
    }
    seen
}

/// Exactly one `Protocol` failure labelled `op` per peer of a 2-peer
/// cluster.
fn assert_shape_failures(failures: &[PeerFailure], op: &str) {
    let mut peers: Vec<usize> = failures.iter().map(|f| f.index).collect();
    peers.sort_unstable();
    assert_eq!(peers, [0, 1], "{op}: {failures:?}");
    for f in failures {
        assert_eq!(f.op, op);
        assert!(
            matches!(f.error, RpcError::Protocol(_)),
            "{op}: expected a protocol error, got {:?}",
            f.error
        );
    }
}

fn assert_fanout_failed<T>(fan: Fanout<T>, op: &str) {
    assert!(fan.ok.is_empty(), "{op} accepted a wrong reply shape");
    assert_shape_failures(&fan.failures, op);
}

fn assert_rejected<T>(result: Result<T, ClusterError>, op: &str) {
    match result {
        Err(ClusterError::Rejected { ok, failures, .. }) => {
            assert_eq!(ok, 0, "{op}");
            assert_shape_failures(&failures, op);
        }
        Err(other) => panic!("{op}: expected Rejected, got {other}"),
        Ok(_) => panic!("{op} succeeded against peers that answer the wrong shape"),
    }
}

/// Pins every public fan-out against peers that answer the wrong reply
/// shape: each must fail per peer with `RpcError::Protocol` under its
/// op label, and peer `i` must be asked to extract node `i`'s shard.
#[test]
fn every_fanout_reports_a_wrong_reply_shape_per_peer() {
    let mut fakes = Vec::new();
    let mut addrs = Vec::new();
    for store_id in 0..2u64 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        fakes.push(std::thread::spawn(move || {
            wrong_shape_peer(listener, store_id)
        }));
    }
    let cluster = Cluster::builder()
        .connect_options(fast_opts())
        .connect(&addrs)
        .expect("connect to fake peers");

    let mut rng = StdRng::seed_from_u64(207);
    let model = Mlp::new(&[16, 12, 4], 1, &mut rng);
    let cfg = TrainConfig::default();
    let mut tuner = Tuner::new(model.clone(), cfg);
    let delta = tuner.delta_from(&model);
    let map = PlacementMap::new(&[0, 1], 2).expect("placement map");
    let ft = FtdmpConfig {
        n_run: 1,
        train: cfg,
        ..FtdmpConfig::default()
    };

    assert_fanout_failed(cluster.install_model(&model), "install_model");
    assert_fanout_failed(cluster.extract_features(0, 1), "extract_slice");
    assert_fanout_failed(cluster.offline_infer(), "offline_infer");
    assert_fanout_failed(cluster.apply_delta(&delta), "apply_delta");
    assert_fanout_failed(cluster.describe(), "describe");
    assert_fanout_failed(cluster.scrape(), "metrics");
    assert_rejected(cluster.scrape_metrics(), "metrics");
    assert_fanout_failed(cluster.placement(), "placement");
    assert_fanout_failed(cluster.publish_placement(&map), "install_placement");
    assert_fanout_failed(cluster.put_photo(&map, &photo(3)), "put_photo");
    assert_rejected(cluster.get_photo(&map, 3), "get_photo");
    assert_fanout_failed(cluster.list_photos(), "list_photos");
    assert_rejected(
        cluster.rebalance(&map, &map, &RebalanceConfig::default()),
        "install_placement",
    );
    assert_rejected(
        cluster.ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, Some(&map)),
        "describe",
    );
    assert_fanout_failed(cluster.shutdown(), "shutdown");

    let expected = [
        "install_model",
        "extract_slice",
        "offline_infer",
        "apply_delta",
        "describe",
        "metrics",
        "metrics",
        "placement",
        "install_placement",
        "put_photo",
        "get_photo",
        "list_photos",
        "install_placement",
        "describe",
        "shutdown",
    ];
    for (i, fake) in fakes.into_iter().enumerate() {
        let seen = fake.join().expect("fake peer");
        let ops: Vec<&str> = seen.iter().map(|&(op, _)| op).collect();
        assert_eq!(ops, expected, "peer {i} saw the wrong requests");
        for &(op, node) in &seen {
            let want = (op == "extract_slice").then_some(i as u64);
            assert_eq!(node, want, "peer {i}: {op} targeted the wrong node");
        }
    }
}

/// Rewrites one `Features` reply in flight.
type Rewrite = fn(&mut Tensor, &mut Vec<u32>);

/// Classes of the `Features` proxy test's model and shards.
const PROXY_CLASSES: usize = 4;

/// Appends a zero column to every feature row.
fn widen_features(features: &mut Tensor, _: &mut Vec<u32>) {
    let (rows, dim) = (features.dims()[0], features.dims()[1]);
    let mut data = Vec::with_capacity(rows * (dim + 1));
    for row in features.data().chunks_exact(dim) {
        data.extend_from_slice(row);
        data.push(0.0);
    }
    *features = Tensor::from_vec(data, &[rows, dim + 1]);
}

/// Names a class the model does not have.
fn label_past_the_classes(_: &mut Tensor, labels: &mut Vec<u32>) {
    labels[0] = PROXY_CLASSES as u32;
}

/// A relay for one session between the Tuner and the real store at
/// `upstream` that passes every frame through except `Features` replies,
/// which it rewrites. Returns how many it rewrote.
fn rewriting_proxy(listener: TcpListener, upstream: SocketAddr, rewrite: Rewrite) -> usize {
    let (mut tuner, _) = listener.accept().expect("accept");
    let mut store = TcpStream::connect(upstream).expect("connect upstream");
    let hello = read_handshake(&mut tuner).expect("tuner hello");
    write_handshake(&mut store, &hello).expect("forward hello");
    let answer = read_handshake(&mut store).expect("store answer");
    write_handshake(&mut tuner, &answer).expect("forward answer");
    let mut rewritten = 0;
    while let Ok((req, _)) = read_request(&mut tuner) {
        if write_request(&mut store, &req).is_err() {
            break;
        }
        let Ok((mut reply, _)) = read_reply(&mut store) else {
            break;
        };
        if let Reply::Features { features, labels } = &mut reply {
            rewrite(features, labels);
            rewritten += 1;
        }
        if write_reply(&mut tuner, &reply).is_err() {
            break;
        }
    }
    rewritten
}

/// The one failure a job met: peer 0's `extract_slice`, as a protocol
/// error.
fn assert_peer0_protocol_failure(failures: &[PeerFailure], case: &str) {
    assert_eq!(failures.len(), 1, "{case}: {failures:?}");
    let f = &failures[0];
    assert_eq!((f.index, f.op), (0, "extract_slice"), "{case}: {f:?}");
    assert!(
        matches!(f.error, RpcError::Protocol(_)),
        "{case}: expected a protocol error, got {:?}",
        f.error
    );
}

/// A `Features` reply that does not fit the slice it answers — a column
/// too many, or a label the model has no class for — is a protocol
/// failure of the peer that sent it, never a panic on the Tuner's
/// thread. Peer 0 sits behind a proxy that corrupts every such reply;
/// both stores hold both shards (R = 2).
#[test]
fn a_features_reply_that_does_not_fit_its_slice_counts_the_peer_out() {
    let cases: [(&str, Rewrite); 2] = [
        ("extra column", widen_features),
        ("label past the classes", label_past_the_classes),
    ];
    for (case, rewrite) in cases {
        for policy in [FailurePolicy::Strict, FailurePolicy::Quorum(1)] {
            let mut rng = StdRng::seed_from_u64(208);
            let train = dataset(&mut rng, PROXY_CLASSES, 12);
            let model = Mlp::new(&[16, 12, 8, PROXY_CLASSES], 2, &mut rng);
            let cfg = TrainConfig {
                batch: 8,
                ..TrainConfig::default()
            };
            let mut tuner = Tuner::new(model, cfg);
            let ft = FtdmpConfig {
                n_run: 1,
                epochs_per_run: 1,
                micro_batch: usize::MAX,
                staleness: 0,
                train: cfg,
            };

            let map = PlacementMap::new(&[0, 1], 2).expect("placement map");
            let shards = train.shards(2);
            let mut servers = Vec::with_capacity(2);
            for (i, shard) in shards.iter().enumerate() {
                let mut store = PipeStore::new(i, shard.clone());
                store.add_replica_shard(1 - i as u64, shards[1 - i].clone());
                servers.push(
                    PipeStoreServer::bind(store, "127.0.0.1:0", ServerConfig::default())
                        .expect("bind server"),
                );
            }
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
            let proxy_addr = listener.local_addr().expect("proxy addr").to_string();
            let upstream = servers[0].local_addr();
            let proxy = std::thread::spawn(move || rewriting_proxy(listener, upstream, rewrite));
            let addrs = [proxy_addr, servers[1].local_addr().to_string()];
            let cluster = Cluster::builder()
                .policy(policy)
                .connect_options(fast_opts())
                .connect(&addrs)
                .expect("connect cluster");
            assert!(cluster.publish_placement(&map).failures.is_empty());

            let result =
                cluster.ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, Some(&map));
            let case = format!("{case} under {policy:?}");
            match (policy, result) {
                (FailurePolicy::Strict, Err(ClusterError::Rejected { failures, .. })) => {
                    assert_peer0_protocol_failure(&failures, &case);
                }
                (FailurePolicy::Quorum(_), Ok(r)) => {
                    assert_peer0_protocol_failure(&r.failures, &case);
                    assert_eq!(r.peers_used, vec![1], "{case}");
                    assert_eq!(
                        r.report.examples,
                        train.len(),
                        "{case}: a shard was dropped"
                    );
                }
                (_, other) => panic!("{case}: unexpected outcome {other:?}"),
            }

            cluster.shutdown();
            let rewritten = proxy.join().expect("proxy");
            assert!(rewritten >= 1, "{case}: nothing rewritten");
            for s in servers {
                s.shutdown().expect("server drain");
            }
        }
    }
}

#[test]
fn placement_reroutes_dead_peers_shard_mid_sweep() {
    let mut rng = StdRng::seed_from_u64(206);
    let train = dataset(&mut rng, 5, 24);
    let model = Mlp::new(&[16, 24, 16, 5], 2, &mut rng);
    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model, cfg);
    let ft = FtdmpConfig {
        n_run: 2,
        epochs_per_run: 3,
        // The barrier schedule: S = 0, one extraction per peer per run.
        micro_batch: usize::MAX,
        staleness: 0,
        train: cfg,
    };

    // Three stores, R = 2: each node's shard also lives on the replica
    // `shard_holders` ranks for it.
    let map = PlacementMap::new(&[0, 1, 2], 2).expect("placement map");
    let shards = train.shards(3);
    let mut servers = Vec::with_capacity(3);
    let mut addrs = Vec::with_capacity(3);
    for (i, shard) in shards.iter().enumerate() {
        let mut store = PipeStore::new(i, shard.clone());
        for node in 0..3u64 {
            if node != i as u64 && map.shard_holders(node).contains(&(i as u64)) {
                store.add_replica_shard(node, shards[node as usize].clone());
            }
        }
        let server = PipeStoreServer::bind(store, "127.0.0.1:0", ServerConfig::default())
            .expect("bind server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(2))
        .connect_options(fast_opts())
        .op_attempts(2)
        .connect(&addrs)
        .expect("connect cluster");
    let fan = cluster.publish_placement(&map);
    assert!(fan.failures.is_empty());

    // Healthy sweep: every shard served by its owner, no reroutes.
    let r1 = cluster
        .ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, Some(&map))
        .expect("healthy sweep");
    assert_eq!(r1.report.examples, train.len());
    assert_eq!(r1.reroutes, 0);

    // Kill one of the two replicas and sweep again: the victim's shard
    // is extracted from its surviving replica every run, so not a
    // single shard assignment is dropped.
    let victim = 1usize;
    servers.remove(victim).abort().expect("abort victim");
    let r2 = cluster
        .ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut rng, Some(&map))
        .expect("sweep with a dead replica");
    assert_eq!(
        r2.report.examples,
        train.len(),
        "dead peer's shard assignments were dropped"
    );
    assert_eq!(r2.reroutes, ft.n_run as u64, "one reroute per run");
    assert!(r2.failures.iter().any(|f| f.index == victim));

    cluster.shutdown();
    for s in servers {
        s.shutdown().expect("server drain");
    }
}

/// A deterministic synthetic photo; regenerating it is the ground truth
/// for zero-loss checks.
fn photo(id: u64) -> PhotoRecord {
    let len = 96 + (id as usize % 32);
    PhotoRecord {
        id,
        class: (id % 4) as u32,
        day: (id % 7) as u32,
        preproc_bytes: 64,
        blob: vec![(id as u8).wrapping_mul(31).wrapping_add(7); len],
        sidecar: vec![(id as u8) ^ 0xa5; 24],
    }
}

fn assert_all_photos_readable(cluster: &Cluster, map: &PlacementMap, n_photos: u64) {
    for id in 0..n_photos {
        let rec = cluster
            .get_photo(map, id)
            .unwrap_or_else(|e| panic!("photo {id} lost: {e}"));
        assert_eq!(rec, photo(id), "photo {id} corrupted");
    }
}

/// Every live peer must hold exactly `expected` as its placement epoch;
/// the sequence of expectations is collected for a monotonicity check.
fn record_epochs(cluster: &Cluster, expected: u64, seen: &mut Vec<u64>) {
    let fan = cluster.placement();
    assert!(!fan.ok.is_empty(), "no peer answered the placement probe");
    for r in &fan.ok {
        assert_eq!(r.value.epoch(), expected, "peer {} lags", r.index);
    }
    seen.push(expected);
}

/// Boots an `n`-store fleet, publishes an R-way placement map and
/// replicates `n_photos` synthetic photos across it.
fn photo_fleet(
    n: usize,
    replicas: usize,
    n_photos: u64,
) -> (Vec<PipeStoreServer>, Vec<String>, PlacementMap, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(300);
    let train = dataset(&mut rng, 3, 4);
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for (i, shard) in train.shards(n).into_iter().enumerate() {
        let server = PipeStoreServer::bind(
            PipeStore::new(i, shard),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind server");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    let ids: Vec<u64> = (0..n as u64).collect();
    let map = PlacementMap::new(&ids, replicas).expect("placement map");
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(2))
        .connect_options(fast_opts())
        .connect(&addrs)
        .expect("connect cluster");
    let fan = cluster.publish_placement(&map);
    assert!(fan.failures.is_empty());
    for id in 0..n_photos {
        let fan = cluster.put_photo(&map, &photo(id));
        assert!(
            fan.failures.is_empty(),
            "replicated write failed: {:?}",
            fan.failures
        );
        assert_eq!(fan.ok.len(), replicas, "photo {id} under-replicated");
    }
    assert_all_photos_readable(&cluster, &map, n_photos);
    let epochs = vec![map.epoch()];
    cluster.shutdown();
    (servers, addrs, map, epochs)
}

/// One kill → rebalance → restart → rejoin → rebalance cycle, asserting
/// zero photo loss at every step and that the rejoined peer serves
/// reads afterwards.
fn kill_restart_rejoin_cycle(
    servers: &mut Vec<PipeStoreServer>,
    addrs: &mut [String],
    map: &mut PlacementMap,
    victim: usize,
    n_photos: u64,
    epochs: &mut Vec<u64>,
) {
    let pace = RebalanceConfig {
        max_bytes_per_wave: 4096,
        wave_pause: Duration::ZERO,
    };

    // Kill the victim hard; its address now refuses connections.
    servers.remove(victim).abort().expect("abort victim");
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(2))
        .connect_options(fast_opts())
        .op_attempts(2)
        .connect(&*addrs)
        .expect("connect with a dead peer");
    let old = map.clone();
    map.mark_down(victim as u64).expect("mark down");
    let report = cluster
        .rebalance(&old, map, &pace)
        .expect("rebalance after kill");
    assert!(report.photos_copied > 0, "kill must trigger backfill");
    assert!(report.bytes_copied > 0);
    assert_all_photos_readable(&cluster, map, n_photos);
    record_epochs(&cluster, map.epoch(), epochs);
    cluster.shutdown();

    // Restart the victim on a fresh port with an empty store (the
    // crash wiped it), then rejoin and heal.
    let mut rng = StdRng::seed_from_u64(victim as u64 + 77);
    let train = dataset(&mut rng, 3, 4);
    let server = PipeStoreServer::bind(
        PipeStore::new(victim, train),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("rebind victim");
    addrs[victim] = server.local_addr().to_string();
    servers.insert(victim, server);
    let cluster = Cluster::builder()
        .policy(FailurePolicy::Quorum(2))
        .connect_options(fast_opts())
        .op_attempts(2)
        .connect(&*addrs)
        .expect("reconnect full fleet");
    assert!(cluster.initial_failures().is_empty());
    let old = map.clone();
    map.mark_up(victim as u64).expect("mark up");
    let report = cluster
        .rebalance(&old, map, &pace)
        .expect("rebalance after rejoin");
    assert!(
        report.photos_copied > 0,
        "rejoin must backfill the wiped store"
    );
    assert_all_photos_readable(&cluster, map, n_photos);
    record_epochs(&cluster, map.epoch(), epochs);
    cluster.shutdown();

    // The rejoined peer serves reads for its shard directly.
    let rejoined = servers
        .get(victim)
        .map(|s| s.local_addr())
        .expect("rejoined server present");
    let mut direct = RemotePipeStore::connect_with(rejoined, fast_opts()).expect("connect rejoined");
    let held = direct.list_photos().expect("list photos");
    assert!(
        !held.is_empty(),
        "rejoined peer holds no photos after rebalance"
    );
    for id in held.iter().take(3) {
        let rec = direct.get_photo(*id).expect("read from rejoined peer");
        assert_eq!(rec, photo(*id), "rejoined peer serves a corrupt photo");
    }
    direct.shutdown().expect("direct session shutdown");
}

#[test]
fn kill_restart_rejoin_loses_no_photos() {
    const N_PHOTOS: u64 = 30;
    let (mut servers, mut addrs, mut map, mut epochs) = photo_fleet(3, 2, N_PHOTOS);
    kill_restart_rejoin_cycle(&mut servers, &mut addrs, &mut map, 1, N_PHOTOS, &mut epochs);
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "placement epochs not monotone: {epochs:?}"
    );
    for s in servers {
        s.shutdown().expect("server drain");
    }
    // Under `--cfg ndpipe_sanitize` the lock-order witness panics on any
    // inversion, so reaching this point means zero violations — but only
    // if the witnesses actually ran.
    #[cfg(ndpipe_sanitize)]
    assert!(
        ndpipe::sanitize::checks_performed() > 0,
        "sanitizer build ran the failover cycle without a single witness check"
    );
}

/// Rejoin soak: cycle the kill → restart → rejoin loop over every node;
/// run via `scripts/check.sh` (`cargo test ... -- --ignored`).
#[test]
#[ignore = "rejoin soak, run explicitly"]
fn soak_kill_restart_rejoin_every_node() {
    const N_PHOTOS: u64 = 30;
    let (mut servers, mut addrs, mut map, mut epochs) = photo_fleet(3, 2, N_PHOTOS);
    for cycle in 0..3 {
        kill_restart_rejoin_cycle(&mut servers, &mut addrs, &mut map, cycle, N_PHOTOS, &mut epochs);
    }
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "placement epochs not monotone: {epochs:?}"
    );
    for s in servers {
        s.shutdown().expect("server drain");
    }
    #[cfg(ndpipe_sanitize)]
    assert!(
        ndpipe::sanitize::checks_performed() > 0,
        "sanitizer build ran the rejoin soak without a single witness check"
    );
}

/// Stress smoke for the multi-session server; run via `scripts/check.sh`
/// (`cargo test ... -- --ignored`).
#[test]
#[ignore = "stress smoke, run explicitly"]
fn stress_eight_concurrent_sessions() {
    let mut rng = StdRng::seed_from_u64(205);
    let train = dataset(&mut rng, 4, 12);
    let model = Mlp::new(&[16, 12, 4], 1, &mut rng);
    let server = PipeStoreServer::bind(
        PipeStore::new(0, train),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind server");
    let addr = server.local_addr();

    let mut joins = Vec::new();
    for _ in 0..8 {
        let m = model.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = RemotePipeStore::connect(addr).expect("connect");
            c.install_model(&m).expect("install");
            for run in 0..4u32 {
                c.extract_features(run % 2, 2).expect("extract");
                c.describe().expect("describe");
            }
            c.shutdown().expect("client shutdown");
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    // The client's `shutdown()` doesn't wait for the server-side session
    // thread to retire, so drain before counting.
    assert!(
        server.wait_idle_timeout(8, Duration::from_secs(10)),
        "server did not drain 8 sessions"
    );
    assert_eq!(server.completed_sessions(), 8);
    assert_eq!(server.active_sessions(), 0);
    server.shutdown().expect("server drain");
}
