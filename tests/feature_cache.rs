//! The PipeStore feature cache: a frozen-prefix slice is extracted once
//! and read from memory afterwards, and what a read returns is always
//! the bytes a cold store would compute now. Warm FT-DMP rounds (socket
//! and in-process) against cold oracles under every math policy, a new
//! prefix (including a `0.0` / `-0.0` flip whose layer versions match),
//! a head-only delta, and every mutation that must force a miss.

use dnn::{Mlp, TrainConfig};
use ndpipe::ftdmp::schedule::slice_bounds;
use ndpipe::ftdmp::{ftdmp_fine_tune, FtdmpConfig};
use ndpipe::npe::engine::EngineConfig;
use ndpipe::rpc::wire::Request;
use ndpipe::rpc::{Cluster, PipeStoreServer, RemotePipeStore, ServerConfig};
use ndpipe::{PipeStore, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use tensor::{MathPolicy, Tensor};

const POLICIES: [MathPolicy; 3] = [
    MathPolicy::Deterministic,
    MathPolicy::Fast,
    MathPolicy::Int8,
];

const HITS: &str = "ndpipe_feature_cache_hits_total";
const MISSES: &str = "ndpipe_feature_cache_misses_total";

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
    LabeledDataset::new(rows, labels, classes).shuffled(rng)
}

fn model(rng: &mut StdRng) -> Mlp {
    Mlp::new(&[16, 24, 16, 5], 2, rng)
}

fn train() -> TrainConfig {
    TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    }
}

/// A tensor's exact bit patterns (`==` on `f32` equates `0.0` and `-0.0`).
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `(hits, misses)` on one store's own registry.
fn cache_counts(store: &PipeStore) -> (u64, u64) {
    let snap = store.metrics().snapshot();
    let count = |name| snap.counter_value(name).unwrap_or(0);
    (count(HITS), count(MISSES))
}

fn store_with(id: usize, shard: &LabeledDataset, policy: MathPolicy) -> PipeStore {
    let mut s = PipeStore::new(id, shard.clone());
    s.set_math_policy(policy);
    s
}

/// What a fresh store, cache cold, extracts for `rows` of `shard`.
fn cold(
    shard: &LabeledDataset,
    model: &Mlp,
    policy: MathPolicy,
    rows: Range<usize>,
) -> (Tensor, Vec<usize>) {
    let mut s = store_with(0, shard, policy);
    s.install_model(model.clone());
    s.extract_features_batched(rows, &EngineConfig::default()).0
}

/// Every `(run, micro-batch)` slice of a shard, cut as the schedule cuts
/// it: `(run, mb, n_mb, rows)`.
fn slices(shard_len: usize, cfg: &FtdmpConfig) -> Vec<(usize, usize, usize, Range<usize>)> {
    (0..cfg.n_run)
        .flat_map(|run| {
            let n_mb = cfg.micro_batches_for(slice_bounds(shard_len, run, cfg.n_run, 0, 1).len());
            (0..n_mb).map(move |mb| {
                (
                    run,
                    mb,
                    n_mb,
                    slice_bounds(shard_len, run, cfg.n_run, mb, n_mb),
                )
            })
        })
        .collect()
}

/// Three in-process rounds on stores that keep their caches train
/// exactly as three rounds on fresh stores; afterwards every slice is a
/// warm read of the bytes a cold store computes.
#[test]
fn warm_in_process_rounds_match_cold_stores_under_every_policy() {
    const ROUNDS: usize = 3;
    for policy in POLICIES {
        let mut rng = StdRng::seed_from_u64(901);
        let shards = dataset(&mut rng, 5, 60).shards(2);
        let initial = model(&mut rng);
        let ft = FtdmpConfig {
            n_run: 2,
            epochs_per_run: 2,
            micro_batch: 0,
            staleness: 1,
            train: train(),
        };

        let mut warm_tuner = Tuner::new(initial.clone(), train());
        let mut cold_tuner = Tuner::new(initial.clone(), train());
        let mut warm_rng = StdRng::seed_from_u64(902);
        let mut cold_rng = StdRng::seed_from_u64(902);
        let mut warm: Vec<PipeStore> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| store_with(i, s, policy))
            .collect();
        for round in 0..ROUNDS {
            let a = ftdmp_fine_tune(&mut warm_tuner, &mut warm, &ft, &mut warm_rng)
                .expect("warm round");
            let mut fresh: Vec<PipeStore> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| store_with(i, s, policy))
                .collect();
            let b = ftdmp_fine_tune(&mut cold_tuner, &mut fresh, &ft, &mut cold_rng)
                .expect("cold round");
            assert_eq!(a.run_losses, b.run_losses, "{policy:?} round {round}");
        }
        assert_eq!(
            warm_tuner.model().to_bytes(),
            cold_tuner.model().to_bytes(),
            "{policy:?}: warm stores trained a different model"
        );

        let cfg = EngineConfig::default();
        for (i, s) in warm.iter().enumerate() {
            let layout = slices(s.shard_len(), &ft);
            // Store `i` extracts node `i`'s slices every round: the first
            // round misses them all, every later one reads them.
            assert_eq!(
                cache_counts(s),
                (((ROUNDS - 1) * layout.len()) as u64, layout.len() as u64),
                "{policy:?} store {i}"
            );
            for (_, _, _, rows) in layout {
                let ((f, l), stats) = s.extract_features_batched(rows.clone(), &cfg);
                assert_eq!(stats.batches, 0, "{policy:?}: a warm slice ran a forward");
                let (cf, cl) = cold(&shards[i], warm_tuner.model(), policy, rows.clone());
                assert_eq!(bits(&f), bits(&cf), "{policy:?} store {i} rows {rows:?}");
                assert_eq!(l, cl);
                if policy == MathPolicy::Deterministic {
                    let (sf, sl) = s.extract_features(rows);
                    assert_eq!(bits(&f), bits(&sf), "warm slice vs the serial reference");
                    assert_eq!(l, sl);
                }
            }
        }
    }
}

/// Three socket rounds, one `ftdmp_fine_tune_pipelined` call each (so
/// every round re-sends the whole model, as the benchmark's driver
/// does), reproduce the barrier reference run on fresh stores every
/// round bit for bit. The servers then serve every slice again from
/// their caches, each equal to a cold store's bytes, and the scraped hit
/// counter counts every slice served after the first round.
#[test]
fn warm_socket_rounds_match_the_cold_reference_under_every_policy() {
    const ROUNDS: usize = 3;
    for policy in POLICIES {
        let mut rng = StdRng::seed_from_u64(911);
        let shards = dataset(&mut rng, 5, 120).shards(2);
        let initial = model(&mut rng);
        // Whole-run slices of 150 rows: two engine batches each.
        let ft = FtdmpConfig {
            n_run: 2,
            epochs_per_run: 2,
            micro_batch: usize::MAX,
            staleness: 0,
            train: train(),
        };

        let servers: Vec<PipeStoreServer> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                PipeStoreServer::bind(
                    store_with(i, s, policy),
                    "127.0.0.1:0",
                    ServerConfig::default(),
                )
                .expect("bind server")
            })
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let cluster = Cluster::builder().connect(&addrs).expect("connect cluster");
        let mut tuner = Tuner::new(initial.clone(), train());
        let mut job_rng = StdRng::seed_from_u64(912);
        let mut losses = Vec::new();
        for _ in 0..ROUNDS {
            let out = cluster
                .ftdmp_fine_tune_pipelined(&mut tuner, &ft, 1, &mut job_rng, None)
                .expect("socket round");
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            losses.extend(out.report.run_losses);
        }

        let mut ref_tuner = Tuner::new(initial.clone(), train());
        let mut ref_rng = StdRng::seed_from_u64(912);
        let mut ref_losses = Vec::new();
        for _ in 0..ROUNDS {
            let mut fresh: Vec<PipeStore> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| store_with(i, s, policy))
                .collect();
            let out = ftdmp_fine_tune(&mut ref_tuner, &mut fresh, &ft, &mut ref_rng)
                .expect("reference round");
            ref_losses.extend(out.run_losses);
        }
        assert_eq!(losses, ref_losses, "{policy:?}: losses diverged");
        assert_eq!(
            tuner.model().to_bytes(),
            ref_tuner.model().to_bytes(),
            "{policy:?}: final weights diverged"
        );

        let hits = |cluster: &Cluster| {
            let scrape = cluster.scrape_metrics().expect("scrape");
            scrape.merged.counter_value(HITS).unwrap_or(0)
        };
        let served: usize = shards.iter().map(|s| slices(s.len(), &ft).len()).sum();
        let before = hits(&cluster);
        assert_eq!(before, ((ROUNDS - 1) * served) as u64, "{policy:?}");
        for (i, addr) in addrs.iter().enumerate() {
            let mut c = RemotePipeStore::connect(addr.as_str()).expect("connect");
            for (run, mb, n_mb, rows) in slices(shards[i].len(), &ft) {
                let req = Request::ExtractSlice {
                    node: i as u64,
                    run: run as u32,
                    n_run: ft.n_run as u32,
                    mb: mb as u32,
                    n_mb: n_mb as u32,
                };
                let (f, l): (Tensor, Vec<usize>) = c.call(&req).expect("extract slice");
                let (cf, cl) = cold(&shards[i], &initial, policy, rows.clone());
                assert_eq!(bits(&f), bits(&cf), "{policy:?} node {i} rows {rows:?}");
                assert_eq!(l, cl);
            }
            c.shutdown().expect("end session");
        }
        assert_eq!(
            hits(&cluster),
            before + served as u64,
            "{policy:?}: a slice missed"
        );

        cluster.shutdown();
        for s in servers {
            s.shutdown().expect("server drain");
        }
    }
}

/// A model decoded off the wire: its layer version counters are the
/// same whatever its weights.
fn decoded(m: &Mlp) -> Mlp {
    Mlp::from_bytes(&m.to_bytes()).expect("model round-trips")
}

/// Installing a different prefix with equal dims — and, the trap, equal
/// layer versions — serves the new prefix's features, never the old.
#[test]
fn a_new_prefix_is_never_served_the_old_features() {
    let mut rng = StdRng::seed_from_u64(921);
    let shard = dataset(&mut rng, 5, 40);
    let a = decoded(&model(&mut rng));
    let b = decoded(&model(&mut rng));
    assert_eq!(a.weights_version(), b.weights_version());
    let rows = 0..shard.len();
    let cfg = EngineConfig::default();

    let mut s = PipeStore::new(0, shard.clone());
    let policy = s.math_policy();
    s.install_model(a.clone());
    let (fa, _) = s.extract_features_batched(rows.clone(), &cfg).0;
    s.install_model(b.clone());
    let (fb, _) = s.extract_features_batched(rows.clone(), &cfg).0;
    assert_eq!(bits(&fb), bits(&cold(&shard, &b, policy, rows.clone()).0));
    assert_ne!(bits(&fa), bits(&fb), "B's prefix computes other features");
    s.install_model(a.clone());
    let (again, _) = s.extract_features_batched(rows.clone(), &cfg).0;
    assert_eq!(bits(&again), bits(&fa), "back to A");
    assert_eq!(cache_counts(&s), (0, 3), "every install changed the prefix");
}

/// Two prefixes that differ only by the sign of one zero weight are two
/// prefixes: the second install starts a new prefix epoch.
#[test]
fn a_signed_zero_flip_in_the_prefix_is_a_new_prefix() {
    let mut rng = StdRng::seed_from_u64(922);
    let shard = dataset(&mut rng, 5, 40);
    let m = model(&mut rng);
    // Layer 0's first weight sits after the magic, the layer count, the
    // split and layer 0's two dims.
    let with_first_weight = |w: f32| {
        let mut blob = m.to_bytes();
        blob[20..24].copy_from_slice(&w.to_le_bytes());
        Mlp::from_bytes(&blob).expect("patched model decodes")
    };
    let (a, b) = (with_first_weight(0.0), with_first_weight(-0.0));
    let rows = 0..shard.len();
    let cfg = EngineConfig::default();

    let mut s = PipeStore::new(0, shard.clone());
    let policy = s.math_policy();
    s.install_model(a.clone());
    s.extract_features_batched(rows.clone(), &cfg);
    s.install_model(a);
    s.extract_features_batched(rows.clone(), &cfg);
    assert_eq!(
        cache_counts(&s),
        (1, 1),
        "re-installing the same prefix keeps the cache"
    );
    s.install_model(b.clone());
    let ((f, l), stats) = s.extract_features_batched(rows.clone(), &cfg);
    assert_eq!(cache_counts(&s), (1, 2), "-0.0 is not 0.0");
    assert!(stats.batches > 0);
    let (cf, cl) = cold(&shard, &b, policy, rows);
    assert_eq!(bits(&f), bits(&cf));
    assert_eq!(l, cl);
}

/// Check-N-Run deltas only touch the classifier head, so the cache
/// survives one: the next extraction is a read of unchanged bytes.
#[test]
fn a_head_only_delta_keeps_the_cache() {
    let mut rng = StdRng::seed_from_u64(923);
    let shard = dataset(&mut rng, 5, 40);
    let initial = model(&mut rng);
    let rows = 0..shard.len();
    let cfg = EngineConfig::default();
    let mut s = PipeStore::new(0, shard);
    s.install_model(initial.clone());
    let ((before, labels), _) = s.extract_features_batched(rows.clone(), &cfg);

    let mut tuner = Tuner::new(initial.clone(), train());
    tuner.train_on_features(&before, &labels, 1, &mut rng);
    let delta = tuner.delta_from(&initial);
    delta
        .apply(s.model_mut().expect("installed"))
        .expect("delta applies");
    assert_ne!(
        s.model().expect("installed").to_bytes(),
        initial.to_bytes(),
        "the delta moved the head"
    );

    let (hits, misses) = cache_counts(&s);
    let ((after, _), stats) = s.extract_features_batched(rows, &cfg);
    assert_eq!(cache_counts(&s), (hits + 1, misses));
    assert_eq!(stats.batches, 0);
    assert_eq!(bits(&after), bits(&before));
}

/// Warms `node`'s whole shard on `s`, applies `mutate`, and checks that
/// the next extraction misses and returns what a cold store computes
/// from the mutated state.
fn assert_forces_miss(
    s: &mut PipeStore,
    node: u64,
    what: &str,
    mutate: impl FnOnce(&mut PipeStore),
) {
    let cfg = EngineConfig::default();
    let rows = |s: &PipeStore| 0..s.shard_for(node).expect("shard held").len();
    let extract = |s: &PipeStore| {
        s.extract_features_batched_for(node, rows(s), &cfg)
            .expect("shard held")
    };
    extract(s);
    let (hits, misses) = cache_counts(s);
    extract(s);
    assert_eq!(
        cache_counts(s),
        (hits + 1, misses),
        "{what}: the warm-up missed"
    );

    mutate(s);
    let ((f, l), stats) = extract(s);
    assert_eq!(
        cache_counts(s),
        (hits + 1, misses + 1),
        "{what}: served stale features"
    );
    assert!(stats.batches > 0, "{what}: no forward ran");
    let shard = s.shard_for(node).expect("shard held");
    let model = s.model().expect("installed");
    let (cf, cl) = cold(shard, model, s.math_policy(), rows(s));
    assert_eq!(bits(&f), bits(&cf), "{what}");
    assert_eq!(l, cl, "{what}");
}

#[test]
fn every_policy_shard_or_prefix_change_forces_a_miss() {
    let mut rng = StdRng::seed_from_u64(924);
    let shards = dataset(&mut rng, 5, 48).shards(4);
    let mut s = store_with(0, &shards[0], MathPolicy::Deterministic);
    s.add_replica_shard(1, shards[1].clone());
    s.install_model(model(&mut rng));

    assert_forces_miss(&mut s, 0, "set_math_policy", |s| {
        s.set_math_policy(MathPolicy::Int8)
    });
    assert_forces_miss(&mut s, 0, "set_shard", |s| s.set_shard(shards[2].clone()));
    assert_forces_miss(&mut s, 1, "add_replica_shard", |s| {
        s.add_replica_shard(1, shards[3].clone())
    });
    assert_forces_miss(&mut s, 0, "a prefix train_step", |s| {
        let (x, labels) = (s.shard().features().clone(), s.shard().labels().to_vec());
        s.model_mut()
            .expect("installed")
            .train_step(&x, &labels, 0.05, 0.0, 0);
    });

    // A shard change drops only that node's slices.
    let cfg = EngineConfig::default();
    let own = 0..s.shard_len();
    s.extract_features_batched(own.clone(), &cfg);
    s.add_replica_shard(1, shards[1].clone());
    let (hits, _) = cache_counts(&s);
    s.extract_features_batched(own, &cfg);
    assert_eq!(
        cache_counts(&s).0,
        hits + 1,
        "node 0's slice outlived node 1's change"
    );
}
