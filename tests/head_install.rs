//! Head-only model installs over real sockets (protocol v4). A `Cluster`
//! remembers the prefix digest each store last acknowledged and sends
//! `InstallHead` where it matches the master's, `InstallModel` elsewhere
//! and wherever a store refuses the head. Every case ends bit-identical to
//! the in-process barrier `ftdmp_fine_tune` run on the same events: same
//! losses, same master, and each store holding the reference store's
//! model. The server's `ndpipe_rpc_server_op_seconds{op}` counts show
//! which install each store was sent.

use dnn::{Mlp, TrainConfig};
use ndpipe::ftdmp::{ftdmp_fine_tune, FtdmpConfig};
use ndpipe::rpc::{Cluster, ConnectOptions, PipeStoreServer, RemotePipeStore, ServerConfig};
use ndpipe::{PipeStore, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use telemetry::SampleValue;

const FALLBACKS: &str = "ndpipe_model_install_fallbacks_total";

fn shards(rng: &mut StdRng) -> Vec<LabeledDataset> {
    let classes = 5;
    let u = ClassUniverse::new(16, 8, classes, 0.3, rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for _ in 0..24 {
            rows.push(u.sample(c, rng));
            labels.push(c);
        }
    }
    LabeledDataset::new(rows, labels, classes)
        .shuffled(rng)
        .shards(2)
}

fn model(rng: &mut StdRng) -> Mlp {
    Mlp::new(&[16, 24, 16, 5], 2, rng)
}

fn ft() -> FtdmpConfig {
    FtdmpConfig {
        n_run: 2,
        epochs_per_run: 2,
        micro_batch: 0,
        staleness: 1,
        train: TrainConfig {
            batch: 16,
            ..TrainConfig::default()
        },
    }
}

fn boot(store: PipeStore, addr: &str) -> PipeStoreServer {
    PipeStoreServer::bind(store, addr, ServerConfig::default()).expect("bind server")
}

fn connect(addrs: &[String]) -> Cluster {
    Cluster::builder()
        .connect_options(
            ConnectOptions::new()
                .retries(5)
                .backoff(Duration::from_millis(2), Duration::from_millis(20)),
        )
        .op_attempts(3)
        .connect(addrs)
        .expect("connect cluster")
}

/// How many `op` requests each store has handled, in peer order.
fn op_counts(cluster: &Cluster, op: &str) -> Vec<u64> {
    let fan = cluster.scrape();
    assert!(fan.failures.is_empty(), "scrape: {:?}", fan.failures);
    fan.ok
        .iter()
        .map(|r| {
            match r
                .value
                .find_with("ndpipe_rpc_server_op_seconds", &[("op", op)])
                .map(|s| &s.value)
            {
                Some(SampleValue::Histogram(h)) => h.count,
                _ => 0,
            }
        })
        .collect()
}

/// Head-only installs the Tuner re-sent in full, process-wide. Only the
/// refusal test below makes any.
fn fallbacks() -> u64 {
    telemetry::global()
        .snapshot()
        .counter_value(FALLBACKS)
        .unwrap_or(0)
}

/// The Tuner side of a socket fleet: one `ftdmp_fine_tune_pipelined`
/// call per job, as the benchmark's driver makes them.
struct Socket {
    tuner: Tuner,
    rng: StdRng,
    losses: Vec<f32>,
}

impl Socket {
    fn job(&mut self, cluster: &Cluster) {
        let out = cluster
            .ftdmp_fine_tune_pipelined(&mut self.tuner, &ft(), 1, &mut self.rng, None)
            .expect("socket job");
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        self.losses.extend(out.report.run_losses);
    }
}

/// The oracle: the same jobs through the in-process barrier.
struct Reference {
    tuner: Tuner,
    rng: StdRng,
    losses: Vec<f32>,
    stores: Vec<PipeStore>,
}

impl Reference {
    fn job(&mut self) {
        let out = ftdmp_fine_tune(&mut self.tuner, &mut self.stores, &ft(), &mut self.rng)
            .expect("reference job");
        self.losses.extend(out.run_losses);
    }
}

/// A socket fleet of two stores and its reference, both starting from
/// `initial`.
fn fleet(
    shards: &[LabeledDataset],
    initial: &Mlp,
) -> (Vec<PipeStoreServer>, Vec<String>, Socket, Reference) {
    let servers: Vec<PipeStoreServer> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| boot(PipeStore::new(i, s.clone()), "127.0.0.1:0"))
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let socket = Socket {
        tuner: Tuner::new(initial.clone(), ft().train),
        rng: StdRng::seed_from_u64(4040),
        losses: Vec::new(),
    };
    let reference = Reference {
        tuner: Tuner::new(initial.clone(), ft().train),
        rng: StdRng::seed_from_u64(4040),
        losses: Vec::new(),
        stores: shards
            .iter()
            .enumerate()
            .map(|(i, s)| PipeStore::new(i, s.clone()))
            .collect(),
    };
    (servers, addrs, socket, reference)
}

/// Shuts the fleet down and checks it against the reference bit for bit.
fn assert_matches(
    case: &str,
    cluster: Cluster,
    servers: Vec<PipeStoreServer>,
    socket: &Socket,
    reference: &Reference,
) {
    cluster.shutdown();
    let stores: Vec<PipeStore> = servers
        .into_iter()
        .map(|s| s.shutdown().expect("server drain"))
        .collect();
    assert_eq!(socket.losses, reference.losses, "{case}: losses");
    assert_eq!(
        socket.tuner.model().to_bytes(),
        reference.tuner.model().to_bytes(),
        "{case}: master"
    );
    for (i, (s, r)) in stores.iter().zip(&reference.stores).enumerate() {
        let held = |s: &PipeStore| s.model().expect("installed").to_bytes();
        assert_eq!(held(s), held(r), "{case}: store {i}'s model");
    }
}

#[test]
fn a_second_job_installs_only_the_head_on_every_peer() {
    let mut rng = StdRng::seed_from_u64(4001);
    let shards = shards(&mut rng);
    let (servers, addrs, mut socket, mut reference) = fleet(&shards, &model(&mut rng));
    let cluster = connect(&addrs);

    // A fresh handle knows no store's prefix: the first job sends it all.
    socket.job(&cluster);
    reference.job();
    assert_eq!(op_counts(&cluster, "install_model"), [1, 1]);
    assert_eq!(op_counts(&cluster, "install_head"), [0, 0]);

    for job in 2..=3 {
        socket.job(&cluster);
        reference.job();
        assert_eq!(op_counts(&cluster, "install_model"), [1, 1], "job {job}");
        assert_eq!(
            op_counts(&cluster, "install_head"),
            [job - 1; 2],
            "job {job}"
        );
    }
    assert_matches("second job", cluster, servers, &socket, &reference);
}

#[test]
fn refused_heads_fall_back_to_the_whole_model() {
    // Another handle replaced store 1's prefix: its head is refused and
    // re-sent in full; store 0 still takes the head.
    let mut rng = StdRng::seed_from_u64(4002);
    let shards = shards(&mut rng);
    let (servers, addrs, mut socket, mut reference) = fleet(&shards, &model(&mut rng));
    let other = model(&mut rng);
    let cluster = connect(&addrs);
    socket.job(&cluster);
    reference.job();

    let intruder = connect(&addrs[1..]);
    assert!(intruder.install_model(&other).failures.is_empty());
    intruder.shutdown();
    reference.stores[1].install_model(other);
    let before = fallbacks();
    socket.job(&cluster);
    reference.job();
    assert_eq!(fallbacks(), before + 1, "one refused head");
    assert_eq!(op_counts(&cluster, "install_head"), [1, 1]);
    // Store 1: the first job, the other handle's install, the fallback.
    assert_eq!(op_counts(&cluster, "install_model"), [1, 3]);
    assert_matches("replaced prefix", cluster, servers, &socket, &reference);

    // A store restarted on the same address holds no model: the head the
    // handle remembers it for is refused and re-sent in full.
    let mut rng = StdRng::seed_from_u64(4003);
    let shards = self::shards(&mut rng);
    let (mut servers, addrs, mut socket, mut reference) = fleet(&shards, &model(&mut rng));
    let cluster = connect(&addrs);
    for _ in 0..2 {
        socket.job(&cluster);
        reference.job();
    }
    assert_eq!(op_counts(&cluster, "install_head"), [1, 1]);
    servers.remove(0).abort().expect("abort store 0");
    servers.insert(0, boot(PipeStore::new(0, shards[0].clone()), &addrs[0]));
    reference.stores[0] = PipeStore::new(0, shards[0].clone());
    let before = fallbacks();
    socket.job(&cluster);
    reference.job();
    assert_eq!(fallbacks(), before + 1, "one refused head");
    // The restarted store's registry starts over.
    assert_eq!(op_counts(&cluster, "install_head"), [1, 2]);
    assert_eq!(op_counts(&cluster, "install_model"), [1, 1]);
    assert_matches("restarted store", cluster, servers, &socket, &reference);
}

#[test]
fn a_widened_head_installs_head_only_and_serves_the_masters_labels() {
    let mut rng = StdRng::seed_from_u64(4004);
    let shards = shards(&mut rng);
    let (servers, addrs, mut socket, mut reference) = fleet(&shards, &model(&mut rng));
    let cluster = connect(&addrs);
    socket.job(&cluster);
    reference.job();

    // Emerging categories: two more classes on the same prefix.
    socket
        .tuner
        .widen_classes(7, &mut StdRng::seed_from_u64(4005));
    reference
        .tuner
        .widen_classes(7, &mut StdRng::seed_from_u64(4005));
    let fan = cluster.install_model(socket.tuner.model());
    assert!(fan.failures.is_empty(), "{:?}", fan.failures);
    assert_eq!(op_counts(&cluster, "install_head"), [1, 1]);
    assert_eq!(op_counts(&cluster, "install_model"), [1, 1]);

    // Every store now holds the master: its labels are the master's.
    let master = socket.tuner.model();
    for (addr, shard) in addrs.iter().zip(&shards) {
        let x = shard.features();
        let logits = master.forward(x);
        let mut store = RemotePipeStore::connect(addr.as_str()).expect("connect");
        for r in 0..x.dims()[0] {
            let want = tensor::argmax_of(logits.row(r).data()) as u32;
            assert_eq!(
                store.infer(x.row(r).data()).expect("infer"),
                want,
                "row {r}"
            );
        }
        store.shutdown().expect("end session");
    }

    socket.job(&cluster);
    reference.job();
    assert_eq!(op_counts(&cluster, "install_head"), [2, 2]);
    assert_eq!(op_counts(&cluster, "install_model"), [1, 1]);
    assert_matches("widened head", cluster, servers, &socket, &reference);
}
