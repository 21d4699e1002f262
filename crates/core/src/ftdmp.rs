//! FT-DMP: fine-tuning-based data & model parallelism (§5.1–§5.2).
//!
//! The weight-freeze prefix of the model runs replicated on every
//! PipeStore (data parallelism, no synchronization needed — frozen
//! weights never change), and the trainable tail runs solely on the Tuner
//! (model parallelism with all updates local). The pipelined variant
//! splits the data into `N_run` sub-datasets: while the Tuner trains on
//! run *r*, PipeStores already extract features for run *r + 1*
//! (Fig 10b).
//!
//! That overlap is a 1F1B-style micro-batch schedule whose every
//! decision lives in the pure state machine [`schedule::Schedule`]:
//! each run's per-store slice is further split into micro-batches that
//! peers claim dynamically (with work stealing across replicas), while
//! the Tuner trains runs in order as soon as their features are
//! complete. Its one driver is `Cluster::ftdmp_fine_tune_pipelined`,
//! where a wire hides behind the overlap. A staleness bound `S`
//! ([`FtdmpConfig::staleness`]) caps how many runs extraction may lead
//! training. Because features depend only on the *frozen* prefix, any
//! `S` produces bit-identical features; the schedule only changes
//! wall-clock overlap, never results.
//!
//! In-process there is no wire to hide, so [`ftdmp_fine_tune`] is the
//! run-at-a-time barrier schedule: each run's extraction completes on
//! every store, cut into the same micro-batches, before the Tuner trains
//! it. It is also the oracle the socket driver is pinned against, bit
//! for bit, at every `S`.
//!
//! This module is the *functional* implementation: real forward passes,
//! real feature tensors, real SGD on the Tuner. The wall-clock/energy
//! behaviour of the same orchestration at data-center scale is modeled
//! by `cluster::training` and driven from [`crate::apo`].

pub mod schedule;

use crate::npe::engine::EngineConfig;
use crate::pipestore::PipeStore;
use crate::tuner::Tuner;
use dnn::{Mlp, TrainConfig};
use rand::Rng;
use schedule::{slice_bounds, SliceTask};
use tensor::Tensor;

/// Why an FT-DMP job was refused before any work started. The historic
/// `assert!` entry checks of [`ftdmp_fine_tune`] surface here instead,
/// so RPC servers and the CLI propagate a diagnosis rather than
/// unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtdmpError {
    /// No PipeStores to extract from.
    NoStores,
    /// `n_run` was zero.
    ZeroRuns,
    /// A store's shard has fewer examples than `N_run` sub-datasets.
    ShardTooSmall {
        /// Offending store id.
        store: usize,
        /// Its shard size.
        shard_len: usize,
        /// The requested pipeline depth.
        n_run: usize,
    },
    /// A shard's label space exceeds the Tuner model's class count;
    /// widen the Tuner model before fine-tuning on new classes.
    ClassOverflow {
        /// Offending store id.
        store: usize,
        /// Classes present in its shard.
        shard_classes: usize,
        /// Classes the model can emit.
        model_classes: usize,
    },
    /// A shard's rows are not as wide as the Tuner model's input.
    FeatureWidthMismatch {
        /// Offending store id.
        store: usize,
        /// Width of its shard's rows.
        shard_width: usize,
        /// Input width the model expects.
        model_width: usize,
    },
}

impl std::fmt::Display for FtdmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtdmpError::NoStores => write!(f, "need at least one PipeStore"),
            FtdmpError::ZeroRuns => write!(f, "need at least one run"),
            FtdmpError::ShardTooSmall {
                store,
                shard_len,
                n_run,
            } => write!(
                f,
                "store {store} shard smaller than N_run ({shard_len} < {n_run})"
            ),
            FtdmpError::ClassOverflow {
                store,
                shard_classes,
                model_classes,
            } => write!(
                f,
                "store {store} shard has {shard_classes} classes but the model has \
                 {model_classes}: widen the Tuner model before fine-tuning on new classes"
            ),
            FtdmpError::FeatureWidthMismatch {
                store,
                shard_width,
                model_width,
            } => write!(
                f,
                "store {store} shard rows are {shard_width} wide but the model takes {model_width}"
            ),
        }
    }
}

impl std::error::Error for FtdmpError {}

/// Configuration of one distributed fine-tuning job.
///
/// Only the socket driver (`Cluster::ftdmp_fine_tune_pipelined`) reads
/// `staleness`; [`ftdmp_fine_tune`] trains behind a barrier per run
/// whatever it says.
#[derive(Debug, Clone, Copy)]
pub struct FtdmpConfig {
    /// Number of pipeline runs (`N_run`); 1 = unpipelined.
    pub n_run: usize,
    /// Tuner epochs over each run's features.
    pub epochs_per_run: usize,
    /// Rows per extraction micro-batch; `0` = auto (each run slice
    /// splits into up to [`AUTO_MICRO_BATCHES`] micro-batches).
    pub micro_batch: usize,
    /// Staleness bound `S`: extraction may lead training by at most `S`
    /// runs. Results are bit-identical at every `S`.
    pub staleness: usize,
    /// Tuner-side SGD hyper-parameters.
    pub train: TrainConfig,
}

/// Micro-batches each run slice splits into when
/// [`FtdmpConfig::micro_batch`] is `0` (auto).
pub const AUTO_MICRO_BATCHES: usize = 4;

impl Default for FtdmpConfig {
    fn default() -> Self {
        FtdmpConfig {
            n_run: 3,
            epochs_per_run: 10,
            micro_batch: 0,
            staleness: 1,
            train: TrainConfig::default(),
        }
    }
}

impl FtdmpConfig {
    /// Number of micro-batches a slice of `slice_len` rows splits into
    /// under this config (≥ 1; auto mode caps at
    /// [`AUTO_MICRO_BATCHES`]).
    pub fn micro_batches_for(&self, slice_len: usize) -> usize {
        if slice_len == 0 {
            return 1;
        }
        if self.micro_batch == 0 {
            slice_len.min(AUTO_MICRO_BATCHES)
        } else {
            slice_len.div_ceil(self.micro_batch)
        }
    }
}

/// Pipeline-schedule observability for one FT-DMP job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScheduleStats {
    /// Micro-batch extraction tasks executed.
    pub micro_batches: usize,
    /// Tasks claimed away from their home store by an idle worker.
    pub steals: usize,
    /// Micro-batches extracted while training still lagged behind their
    /// run (only possible with `S ≥ 1`).
    pub stale_steps: usize,
    /// Seconds the Tuner spent waiting for a run's features to complete
    /// — the pipeline bubble the schedule exists to shrink.
    pub bubble_secs: f64,
}

/// Outcome of a distributed fine-tuning job.
#[derive(Debug, Clone)]
pub struct FtdmpReport {
    /// Final-epoch training loss of each pipeline run.
    pub run_losses: Vec<f32>,
    /// Feature bytes shipped from PipeStores to the Tuner (f32 payload).
    pub feature_bytes: usize,
    /// Wire bytes of the Check-N-Run model redistribution.
    pub distribution_bytes: usize,
    /// Traffic reduction of delta distribution vs full models (per store).
    pub distribution_reduction: f64,
    /// Number of training examples consumed.
    pub examples: usize,
    /// Micro-batch pipeline counters (all zero in-process, where runs
    /// are not pipelined).
    pub schedule: ScheduleStats,
}

/// The one shard-fitness rule, for a local store and a remote one's
/// `Describe`/`DescribeNode` alike: store `store`'s shard of `examples`
/// rows over `classes` labels can feed an `n_run`-deep job that trains
/// `model`.
///
/// # Errors
///
/// [`FtdmpError::ShardTooSmall`] or [`FtdmpError::ClassOverflow`].
pub(crate) fn check_shard(
    store: usize,
    examples: usize,
    classes: usize,
    config: &FtdmpConfig,
    model: &Mlp,
) -> Result<(), FtdmpError> {
    if examples < config.n_run {
        return Err(FtdmpError::ShardTooSmall {
            store,
            shard_len: examples,
            n_run: config.n_run,
        });
    }
    if classes > model.num_classes() {
        return Err(FtdmpError::ClassOverflow {
            store,
            shard_classes: classes,
            model_classes: model.num_classes(),
        });
    }
    Ok(())
}

/// The one rule a `Features` reply must meet, for the socket driver that
/// cannot trust it: `task`'s slice of a `shard_len`-row shard comes back
/// as exactly that many rows of `model.feature_dim()` features and as
/// many labels, each one of `model`'s classes. Anything else would panic
/// the Tuner's training step or train on the wrong rows.
///
/// # Errors
///
/// A static description of the first rule broken.
pub(crate) fn check_features(
    task: &SliceTask,
    shard_len: usize,
    config: &FtdmpConfig,
    features: &Tensor,
    labels: &[usize],
    model: &Mlp,
) -> Result<(), &'static str> {
    let rows = slice_bounds(shard_len, task.run, config.n_run, task.mb, task.n_mb).len();
    if features.dims() != [rows, model.feature_dim()] {
        return Err("feature matrix does not fit the slice");
    }
    if labels.len() != rows {
        return Err("label count does not fit the slice");
    }
    if labels.iter().any(|&l| l >= model.num_classes()) {
        return Err("label outside the model's classes");
    }
    Ok(())
}

fn validate(
    tuner: &Tuner,
    stores: &[PipeStore],
    config: &FtdmpConfig,
) -> Result<(), FtdmpError> {
    if stores.is_empty() {
        return Err(FtdmpError::NoStores);
    }
    if config.n_run == 0 {
        return Err(FtdmpError::ZeroRuns);
    }
    for s in stores {
        let shard = s.shard();
        check_shard(
            s.id(),
            shard.len(),
            shard.num_classes(),
            config,
            tuner.model(),
        )?;
        // Over sockets the store enforces this one: `ShardDesc` carries
        // no width, and `ExtractSlice` refuses a model of another width.
        if shard.input_dim() != tuner.model().input_dim() {
            return Err(FtdmpError::FeatureWidthMismatch {
                store: s.id(),
                shard_width: shard.input_dim(),
                model_width: tuner.model().input_dim(),
            });
        }
    }
    Ok(())
}

fn phase_hist(phase: &str) -> telemetry::Histogram {
    telemetry::global().histogram_with(
        "ndpipe_ftdmp_phase_seconds",
        &[("phase", phase)],
        "wall time of one in-process FT-DMP phase",
    )
}

/// Which path ran a job: the in-process barrier or the socket driver.
/// Picks the round counter; every other job metric is shared.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Origin {
    Local,
    Remote,
}

/// Job-level telemetry for both paths.
pub(crate) fn record_job(
    origin: Origin,
    rounds: usize,
    feature_bytes: usize,
    schedule: &ScheduleStats,
) {
    if !telemetry::enabled() {
        return;
    }
    let g = telemetry::global();
    match origin {
        Origin::Local => g.counter(
            "ndpipe_ftdmp_rounds_total",
            "completed in-process FT-DMP fine-tuning rounds",
        ),
        Origin::Remote => g.counter(
            "ndpipe_ftdmp_remote_rounds_total",
            "completed remote FT-DMP fine-tuning rounds",
        ),
    }
    .add(rounds as u64);
    g.counter(
        "ndpipe_ftdmp_feature_bytes_total",
        "feature bytes shipped from PipeStores to the Tuner",
    )
    .add(feature_bytes as u64);
    g.counter(
        "ndpipe_ftdmp_steals_total",
        "FT-DMP micro-batches re-extracted away from their home store",
    )
    .add(schedule.steals as u64);
    g.counter(
        "ndpipe_ftdmp_stale_steps_total",
        "FT-DMP micro-batches extracted ahead of the Tuner's training run",
    )
    .add(schedule.stale_steps as u64);
    g.histogram(
        "ndpipe_ftdmp_bubble_seconds",
        "seconds the Tuner idled waiting for a run's features",
    )
    .observe(schedule.bubble_secs);
}

/// Runs FT-DMP fine-tuning across in-process `stores` on the
/// run-at-a-time schedule, updating the Tuner's master model and
/// redistributing it to every PipeStore as a compressed delta.
///
/// Every run's extraction fully completes on every store (one barrier
/// per run) before the Tuner trains it, and no work crosses run
/// boundaries. Each store extracts its run slice as the
/// [`FtdmpConfig::micro_batch`] cut ([`slice_bounds`]), stacked in
/// `(store, micro-batch)` order. This is also the oracle: the socket
/// driver (`Cluster::ftdmp_fine_tune_pipelined`) must match it bit for
/// bit at every staleness bound and micro-batch size
/// (`tests/ftdmp_pipeline.rs`, the `ftdmp_pipeline` bench).
///
/// # Errors
///
/// [`FtdmpError`] when `stores` is empty, `n_run` is zero, a shard is
/// smaller than `n_run`, or a shard's label space or feature width does
/// not fit the model.
pub fn ftdmp_fine_tune<R: Rng + ?Sized>(
    tuner: &mut Tuner,
    stores: &mut [PipeStore],
    config: &FtdmpConfig,
    rng: &mut R,
) -> Result<FtdmpReport, FtdmpError> {
    validate(tuner, stores, config)?;
    let record = telemetry::enabled();

    // 1. Distribute the current master to every store.
    let timer = record.then(|| phase_hist("distribute").start_timer());
    for s in stores.iter_mut() {
        s.install_model(tuner.model().clone());
    }
    let model_before = tuner.model().clone();
    let version_before = tuner.version();
    timer.map(|t| t.observe_and_disarm());

    // 2. Pipeline runs: extract (parallel) then tune.
    let mut run_losses = Vec::with_capacity(config.n_run);
    let mut feature_bytes = 0usize;
    let mut examples = 0usize;
    let engine_cfg = EngineConfig::default();
    // Concurrent store extractions are capped by NDPIPE_THREADS. Stores
    // are claimed dynamically from the shared worker pool, and each
    // store's features land in its own index slot, so the gathered
    // order is deterministic at any cap.
    let max_concurrent = ndpipe_data::deflate::configured_threads().max(1);
    for run in 0..config.n_run {
        let timer = record.then(|| phase_hist("extract").start_timer());
        let stores_shared: &[PipeStore] = stores;
        // Each store cuts its run slice into the micro-batches the socket
        // driver would request: `Int8` scales each forward batch as one
        // tensor, so the cut is part of the features' bits.
        let extracted: Vec<Vec<(Tensor, Vec<usize>)>> =
            tensor::pool::map_indexed(max_concurrent, stores_shared.len(), |i| {
                let s = &stores_shared[i];
                let n = s.shard_len();
                let n_mb = config.micro_batches_for(slice_bounds(n, run, config.n_run, 0, 1).len());
                (0..n_mb)
                    .map(|mb| {
                        let rows = slice_bounds(n, run, config.n_run, mb, n_mb);
                        s.extract_features_batched(rows, &engine_cfg).0
                    })
                    .collect()
            })
            .unwrap_or_else(|e| panic!("pipestore extraction failed: {e}"));
        timer.map(|t| t.observe_and_disarm());

        // Gather at the Tuner in (store, micro-batch) order.
        let mut labels = Vec::new();
        let mut rows = Vec::new();
        for (f, l) in extracted.iter().flatten() {
            feature_bytes += f.len() * 4;
            for i in 0..l.len() {
                rows.push(f.row(i));
            }
            labels.extend_from_slice(l);
        }
        examples += labels.len();
        let features = Tensor::stack_rows(&rows);

        let timer = record.then(|| phase_hist("train").start_timer());
        let loss = tuner.train_on_features(&features, &labels, config.epochs_per_run, rng);
        timer.map(|t| t.observe_and_disarm());
        run_losses.push(loss);
    }

    // 3. Redistribute the fine-tuned model as Check-N-Run deltas.
    let timer = record.then(|| phase_hist("redistribute").start_timer());
    let delta = tuner
        .delta_from(&model_before)
        .with_versions(version_before, tuner.version());
    let mut distribution_bytes = 0usize;
    for s in stores.iter_mut() {
        if let Some(replica) = s.model_mut() {
            if delta.apply(replica).is_ok() {
                distribution_bytes += delta.wire_bytes();
            }
        }
    }
    timer.map(|t| t.observe_and_disarm());
    record_job(Origin::Local, 1, feature_bytes, &ScheduleStats::default());

    Ok(FtdmpReport {
        run_losses,
        feature_bytes,
        distribution_bytes,
        distribution_reduction: delta.traffic_reduction(),
        examples,
        schedule: ScheduleStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::Trainer;
    use ndpipe_data::{ClassUniverse, LabeledDataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(
        rng: &mut StdRng,
        n_stores: usize,
        per_class: usize,
    ) -> (Tuner, Vec<PipeStore>, LabeledDataset) {
        let u = ClassUniverse::new(16, 8, 5, 0.25, rng);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..u.classes() {
            for _ in 0..per_class {
                rows.push(u.sample(c, rng));
                labels.push(c);
            }
        }
        let all = LabeledDataset::new(rows, labels, u.classes()).shuffled(rng);
        let test_rows: Vec<Tensor> = (0..100).map(|i| u.sample(i % 5, rng)).collect();
        let test_labels: Vec<usize> = (0..100).map(|i| i % 5).collect();
        let test = LabeledDataset::new(test_rows, test_labels, 5);

        let model = Mlp::new(&[16, 32, 24, 5], 2, rng);
        let tuner = Tuner::new(
            model,
            TrainConfig {
                batch: 16,
                ..TrainConfig::default()
            },
        );
        let stores = all
            .shards(n_stores)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| PipeStore::new(i, shard))
            .collect();
        (tuner, stores, test)
    }

    fn clone_stores(stores: &[PipeStore]) -> Vec<PipeStore> {
        stores
            .iter()
            .map(|s| PipeStore::new(s.id(), s.shard().clone()))
            .collect()
    }

    #[test]
    fn distributed_fine_tuning_learns() {
        let mut rng = StdRng::seed_from_u64(71);
        let (mut tuner, mut stores, test) = world(&mut rng, 4, 40);
        let before = Trainer::evaluate(tuner.model(), &test);
        let cfg = FtdmpConfig {
            n_run: 1,
            epochs_per_run: 20,
            train: *tuner.config(),
            ..FtdmpConfig::default()
        };
        let report = ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        let after = Trainer::evaluate(tuner.model(), &test);
        assert!(
            after.top1 > before.top1 + 0.2,
            "{:.3} -> {:.3}",
            before.top1,
            after.top1
        );
        assert_eq!(report.examples, 200);
        assert!(report.feature_bytes > 0);
    }

    #[test]
    fn stores_end_up_with_the_master_model() {
        let mut rng = StdRng::seed_from_u64(72);
        let (mut tuner, mut stores, _) = world(&mut rng, 3, 20);
        let cfg = FtdmpConfig {
            n_run: 2,
            epochs_per_run: 5,
            train: *tuner.config(),
            ..FtdmpConfig::default()
        };
        ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        let x = Tensor::randn(&[4, 16], &mut rng);
        let master = tuner.model().forward(&x);
        for s in &stores {
            let replica = s.model().unwrap().forward(&x);
            for (a, b) in master.data().iter().zip(replica.data()) {
                assert!((a - b).abs() < 0.05, "replica diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn delta_distribution_is_cheap() {
        let mut rng = StdRng::seed_from_u64(73);
        let (mut tuner, mut stores, _) = world(&mut rng, 2, 20);
        let cfg = FtdmpConfig::default();
        let report = ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        assert!(
            report.distribution_reduction > 3.0,
            "reduction {}",
            report.distribution_reduction
        );
    }

    #[test]
    fn pipelined_accuracy_close_to_unpipelined_fig17() {
        let mut rng = StdRng::seed_from_u64(74);
        let (tuner0, stores0, test) = world(&mut rng, 4, 60);

        let accuracy = |n_run: usize, rng: &mut StdRng| {
            let mut tuner = tuner0.clone();
            let mut stores = clone_stores(&stores0);
            let cfg = FtdmpConfig {
                n_run,
                epochs_per_run: 30 / n_run,
                train: *tuner0.config(),
                ..FtdmpConfig::default()
            };
            ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, rng).expect("valid job");
            Trainer::evaluate(tuner.model(), &test).top1
        };
        let a1 = accuracy(1, &mut rng);
        let a3 = accuracy(3, &mut rng);
        assert!((a1 - a3).abs() < 0.08, "N_run=1 {a1:.3} vs N_run=3 {a3:.3}");
    }

    #[test]
    fn new_classes_require_widening_first() {
        let mut rng = StdRng::seed_from_u64(75);
        let (mut tuner, mut stores, _) = world(&mut rng, 2, 10);
        // Pretend a shard saw classes beyond the model's space.
        let wide = stores[0].shard().widened(9);
        stores[0].set_shard(wide);
        let err = ftdmp_fine_tune(&mut tuner, &mut stores, &FtdmpConfig::default(), &mut rng)
            .expect_err("label space exceeds the model");
        assert!(
            matches!(
                err,
                FtdmpError::ClassOverflow {
                    shard_classes: 9,
                    model_classes: 5,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("widen the Tuner model"));
    }

    #[test]
    fn entry_checks_are_typed_errors() {
        let mut rng = StdRng::seed_from_u64(76);
        let (mut tuner, mut stores, _) = world(&mut rng, 2, 10);
        assert_eq!(
            ftdmp_fine_tune(&mut tuner, &mut [], &FtdmpConfig::default(), &mut rng).unwrap_err(),
            FtdmpError::NoStores
        );
        let zero = FtdmpConfig {
            n_run: 0,
            ..FtdmpConfig::default()
        };
        assert_eq!(
            ftdmp_fine_tune(&mut tuner, &mut stores, &zero, &mut rng).unwrap_err(),
            FtdmpError::ZeroRuns
        );
        let deep = FtdmpConfig {
            n_run: 10_000,
            ..FtdmpConfig::default()
        };
        assert!(matches!(
            ftdmp_fine_tune(&mut tuner, &mut stores, &deep, &mut rng).unwrap_err(),
            FtdmpError::ShardTooSmall { n_run: 10_000, .. }
        ));
    }

    #[test]
    fn micro_batch_sizing() {
        let auto = FtdmpConfig::default();
        assert_eq!(auto.micro_batches_for(0), 1);
        assert_eq!(auto.micro_batches_for(3), 3);
        assert_eq!(auto.micro_batches_for(100), AUTO_MICRO_BATCHES);
        let fixed = FtdmpConfig {
            micro_batch: 8,
            ..FtdmpConfig::default()
        };
        assert_eq!(fixed.micro_batches_for(7), 1);
        assert_eq!(fixed.micro_batches_for(8), 1);
        assert_eq!(fixed.micro_batches_for(17), 3);
    }
}
