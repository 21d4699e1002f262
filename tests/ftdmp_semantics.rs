//! Integration tests of FT-DMP's distributed-equals-centralized
//! semantics: distributing fine-tuning across PipeStores must not change
//! *what* is learned, only *where*.

use dnn::{Mlp, TrainConfig, Trainer};
use ndpipe::ftdmp::{ftdmp_fine_tune, FtdmpConfig, FtdmpError};
use ndpipe::{PipeStore, Tuner};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

fn world(
    seed: u64,
    classes: usize,
    per_class: usize,
) -> (Mlp, LabeledDataset, LabeledDataset, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = ClassUniverse::new(16, 8, classes, 0.3, &mut rng);
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
    let train = make(&u, &mut rng, per_class);
    let test = make(&u, &mut rng, per_class / 2);
    let model = Mlp::new(&[16, 24, 16, classes], 2, &mut rng);
    (model, train, test, rng)
}

/// The features PipeStores ship are *identical* to what the Tuner would
/// compute locally — weight-freeze layers are deterministic replicas.
#[test]
fn distributed_features_match_centralized() {
    let (model, train, _, _) = world(11, 4, 20);
    let stores: Vec<PipeStore> = train
        .shards(4)
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let mut s = PipeStore::new(i, shard);
            s.install_model(model.clone());
            s
        })
        .collect();
    let mut gathered_rows = Vec::new();
    for s in &stores {
        let (f, _) = s.extract_features(0..s.shard_len());
        for i in 0..f.dims()[0] {
            gathered_rows.push(f.row(i));
        }
    }
    let gathered = Tensor::stack_rows(&gathered_rows);
    // Centralized: concatenate the shards in the same order and extract.
    let central = model.features(&LabeledDataset::concat(&train.shards(4)).features().clone());
    assert_eq!(gathered.data(), central.data());
}

/// Distributed fine-tuning reaches (statistically) the same accuracy as
/// centralized classifier fine-tuning on the same data.
#[test]
fn distributed_accuracy_matches_centralized() {
    let (model, train, test, mut rng) = world(12, 5, 40);
    let cfg = TrainConfig {
        batch: 16,
        max_epochs: 20,
        ..TrainConfig::default()
    };

    // Centralized fine-tuning.
    let mut central = model.clone();
    let trainer = Trainer::new(cfg);
    let split = central.split();
    trainer.fit(&mut central, &train, None, split, &mut rng);
    let acc_central = Trainer::evaluate(&central, &test).top1;

    // Distributed FT-DMP over 5 stores.
    let mut tuner = Tuner::new(model, cfg);
    let mut stores: Vec<PipeStore> = train
        .shards(5)
        .into_iter()
        .enumerate()
        .map(|(i, s)| PipeStore::new(i, s))
        .collect();
    ftdmp_fine_tune(
        &mut tuner,
        &mut stores,
        &FtdmpConfig {
            n_run: 1,
            epochs_per_run: 20,
            train: cfg,
            ..FtdmpConfig::default()
        },
        &mut rng,
    )
    .expect("valid FT-DMP job");
    let acc_dist = Trainer::evaluate(tuner.model(), &test).top1;

    assert!(
        (acc_central - acc_dist).abs() < 0.12,
        "centralized {acc_central:.3} vs distributed {acc_dist:.3}"
    );
}

/// Scaling the fleet never changes the learning outcome, only the
/// sharding — 1 store and 8 stores land at comparable accuracy.
#[test]
fn fleet_size_does_not_change_learning() {
    let (model, train, test, mut rng) = world(13, 5, 40);
    let cfg = TrainConfig {
        batch: 16,
        max_epochs: 15,
        ..TrainConfig::default()
    };
    let mut accs = Vec::new();
    for n_stores in [1usize, 4, 8] {
        let mut tuner = Tuner::new(model.clone(), cfg);
        let mut stores: Vec<PipeStore> = train
            .shards(n_stores)
            .into_iter()
            .enumerate()
            .map(|(i, s)| PipeStore::new(i, s))
            .collect();
        ftdmp_fine_tune(
            &mut tuner,
            &mut stores,
            &FtdmpConfig {
                n_run: 1,
                epochs_per_run: 15,
                train: cfg,
                ..FtdmpConfig::default()
            },
            &mut rng,
        )
        .expect("valid FT-DMP job");
        accs.push(Trainer::evaluate(tuner.model(), &test).top1);
    }
    let spread =
        accs.iter().fold(0.0f64, |m, &a| m.max(a)) - accs.iter().fold(1.0f64, |m, &a| m.min(a));
    assert!(spread < 0.12, "accuracy varies with fleet size: {accs:?}");
}

/// Weight-freeze layers are bit-identical across every store and the
/// Tuner after a full FT-DMP round — the no-synchronization property.
#[test]
fn frozen_layers_never_diverge() {
    let (model, train, _, mut rng) = world(14, 4, 25);
    let cfg = TrainConfig {
        batch: 16,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model, cfg);
    let mut stores: Vec<PipeStore> = train
        .shards(3)
        .into_iter()
        .enumerate()
        .map(|(i, s)| PipeStore::new(i, s))
        .collect();
    ftdmp_fine_tune(
        &mut tuner,
        &mut stores,
        &FtdmpConfig {
            n_run: 2,
            epochs_per_run: 5,
            train: cfg,
            ..FtdmpConfig::default()
        },
        &mut rng,
    )
    .expect("valid FT-DMP job");
    let probe = Tensor::randn(&[6, 16], &mut rng);
    let master_feats = tuner.model().features(&probe);
    for s in &stores {
        let feats = s.model().expect("installed").features(&probe);
        assert_eq!(
            feats.data(),
            master_feats.data(),
            "store {} frozen layers diverged",
            s.id()
        );
    }
}

/// Regression: a shard narrower than the model's input used to panic an
/// extraction worker outside the schedule lock, after which the Tuner
/// thread waited on the condvar forever. The entry check now rejects it;
/// a watchdog turns a relapse into a failure instead of a wedged suite.
#[test]
fn feature_width_mismatch_is_a_typed_error_not_a_hang() {
    let (model, train, _, mut rng) = world(15, 4, 20);
    let mut tuner = Tuner::new(model, TrainConfig::default());
    let narrow: Vec<Tensor> = (0..24).map(|_| Tensor::randn(&[12], &mut rng)).collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 4).collect();
    let mut stores = vec![
        PipeStore::new(0, train),
        PipeStore::new(1, LabeledDataset::new(narrow, labels, 4)),
    ];
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tx.send(ftdmp_fine_tune(
            &mut tuner,
            &mut stores,
            &FtdmpConfig::default(),
            &mut rng,
        ))
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("watchdog: the FT-DMP job did not return");
    assert_eq!(
        result.expect_err("width 12 under a width-16 model"),
        FtdmpError::FeatureWidthMismatch {
            store: 1,
            shard_width: 12,
            model_width: 16,
        }
    );
}
