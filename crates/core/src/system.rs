//! The end-to-end NDPipe photo-storage system (Fig 7).
//!
//! Ties every component together over a synthetic drifting photo pool:
//! photos are sharded across PipeStores, uploads get online-inference
//! labels into the [`LabelDb`], continuous fine-tuning runs FT-DMP across
//! the stores, updated models flow back as Check-N-Run deltas, and
//! offline inference refreshes stale labels near the data.

use crate::ftdmp::{ftdmp_fine_tune, FtdmpConfig, FtdmpReport};
use crate::labeldb::{LabelDb, RelabelStats};
use crate::online::OnlineInferenceServer;
use crate::pipestore::PipeStore;
use crate::tuner::Tuner;
use dnn::{EvalMetrics, Mlp, TrainConfig, Trainer};
use ndpipe_data::photo::{preprocessed_binary, PhotoFactory};
use ndpipe_data::{DatasetSpec, DriftScenario, LabeledDataset, PhotoId};
use rand::Rng;
use tensor::argmax_of;

/// Deployment parameters of an [`NdPipeSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of PipeStores.
    pub n_pipestores: usize,
    /// Hidden widths of the weight-freeze feature extractor.
    pub feature_widths: Vec<usize>,
    /// SGD hyper-parameters for both initial training and fine-tuning.
    pub train: TrainConfig,
    /// Initial photo-pool size.
    pub initial_pool: usize,
    /// Epochs of initial (full) training for the bootstrap model.
    pub initial_epochs: usize,
    /// FT-DMP pipeline depth.
    pub n_run: usize,
    /// Tuner epochs per pipeline run when fine-tuning.
    pub epochs_per_run: usize,
    /// Physical photo blobs to materialize per store (the functional
    /// NPE path; labels cover the whole pool regardless).
    pub physical_photos_per_store: usize,
    /// Mean raw-photo blob size, bytes (small in tests).
    pub photo_bytes: usize,
    /// Preprocessed-binary size, bytes.
    pub preproc_bytes: usize,
}

impl SystemConfig {
    /// A configuration small enough for unit tests and doctests.
    pub fn small_test() -> Self {
        SystemConfig {
            n_pipestores: 3,
            feature_widths: vec![24, 16],
            train: TrainConfig {
                batch: 16,
                max_epochs: 10,
                ..TrainConfig::default()
            },
            initial_pool: 240,
            initial_epochs: 10,
            n_run: 2,
            epochs_per_run: 5,
            physical_photos_per_store: 4,
            photo_bytes: 2048,
            preproc_bytes: 1024,
        }
    }

    /// The laptop-scale equivalent of the paper's deployment: ten
    /// PipeStores, a deeper extractor, a bigger pool.
    pub fn paper_mini() -> Self {
        SystemConfig {
            n_pipestores: 10,
            feature_widths: vec![96, 64],
            train: TrainConfig {
                batch: 64,
                max_epochs: 20,
                ..TrainConfig::default()
            },
            initial_pool: 4000,
            initial_epochs: 20,
            n_run: 3,
            epochs_per_run: 8,
            physical_photos_per_store: 8,
            photo_bytes: 64 * 1024,
            preproc_bytes: 16 * 1024,
        }
    }
}

/// Outcome of one continuous-fine-tuning round.
#[derive(Debug, Clone)]
pub struct FineTuneOutcome {
    /// FT-DMP transport/loss report.
    pub report: FtdmpReport,
    /// Accuracy on a fresh test set drawn after the update.
    pub final_accuracy: EvalMetrics,
}

/// A complete NDPipe deployment over a synthetic drifting photo pool.
#[derive(Debug)]
pub struct NdPipeSystem {
    config: SystemConfig,
    scenario: DriftScenario,
    stores: Vec<PipeStore>,
    /// Pool indices assigned to each store (aligned with `stores`).
    assignments: Vec<Vec<usize>>,
    tuner: Tuner,
    labeldb: LabelDb,
    factory: PhotoFactory,
    /// The Fig 7 inference server: labels uploads in dynamic batches and
    /// produces the preprocessed binaries PipeStores archive (§5.4).
    online: OnlineInferenceServer,
}

impl NdPipeSystem {
    /// Boots a deployment: builds the drifting pool, fully trains the
    /// initial ("Base") model on it, shards photos across PipeStores,
    /// materializes some physical blobs, and labels everything with
    /// online inference.
    pub fn bootstrap<R: Rng + ?Sized>(
        config: SystemConfig,
        spec: DatasetSpec,
        rng: &mut R,
    ) -> Self {
        let scenario = DriftScenario::new(spec, config.initial_pool, rng);
        // Model: input → feature widths → classes; classifier = last layer.
        let mut dims = vec![spec.input_dim];
        dims.extend_from_slice(&config.feature_widths);
        dims.push(scenario.current_classes());
        let split = config.feature_widths.len();
        let mut model = Mlp::new(&dims, split, rng);

        // Initial full training (the paper's Base model).
        let trainer = Trainer::new(TrainConfig {
            max_epochs: config.initial_epochs,
            ..config.train
        });
        let train_set = scenario.train_set();
        trainer.fit(&mut model, &train_set, None, 0, rng);

        let tuner = Tuner::new(model, config.train);
        let online = OnlineInferenceServer::new(tuner.model().clone(), 8, config.preproc_bytes);
        let mut system = NdPipeSystem {
            stores: Vec::new(),
            assignments: Vec::new(),
            labeldb: LabelDb::new(),
            factory: PhotoFactory::new(config.photo_bytes),
            config,
            scenario,
            tuner,
            online,
        };
        system.reshard(rng);
        system.materialize_photos(rng);
        system.label_everything();
        system
    }

    /// The current master model.
    pub fn model(&self) -> &Mlp {
        self.tuner.model()
    }

    /// The Tuner.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// The PipeStore fleet.
    pub fn stores(&self) -> &[PipeStore] {
        &self.stores
    }

    /// The label database.
    pub fn labeldb(&self) -> &LabelDb {
        &self.labeldb
    }

    /// A cluster-wide telemetry view of this (in-process) deployment:
    /// the process-global registry merged with every PipeStore's local
    /// registry, each store's samples tagged `store=<id>`. The socket
    /// deployment gets the same view via
    /// [`crate::rpc::Cluster::scrape_metrics`].
    pub fn metrics_snapshot(&self) -> telemetry::Snapshot {
        let mut merged = telemetry::global().snapshot();
        for store in &self.stores {
            let tagged = store
                .metrics()
                .snapshot()
                .with_label("store", &store.id().to_string());
            merged.merge_from(&tagged);
        }
        merged
    }

    /// The underlying drift scenario (read access).
    pub fn scenario(&self) -> &DriftScenario {
        &self.scenario
    }

    /// Splits the current pool across PipeStores (round-robin by upload
    /// order, then shuffled within each shard so pipeline runs see
    /// similar distributions — §5.2 condition iii) and installs the
    /// current model on each store.
    fn reshard<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        use rand::seq::SliceRandom;
        let n = self.config.n_pipestores;
        let classes = self.scenario.current_classes();
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..self.scenario.pool_size() {
            assignments[i % n].push(i);
        }
        for a in &mut assignments {
            a.shuffle(rng);
        }
        let mut stores = Vec::with_capacity(n);
        for (sid, idx) in assignments.iter().enumerate() {
            let rows: Vec<tensor::Tensor> = idx
                .iter()
                .map(|&i| self.scenario.pool_item(i).1.clone())
                .collect();
            let labels: Vec<usize> = idx.iter().map(|&i| self.scenario.pool_item(i).0).collect();
            let shard = LabeledDataset::new(rows, labels, classes);
            let mut store = PipeStore::new(sid, shard);
            store.install_model(self.tuner.model().clone());
            // The physical photo archive stays on its server.
            if let Some(old) = self.stores.get_mut(sid) {
                store.adopt_photos(old.take_photos());
            }
            stores.push(store);
        }
        self.stores = stores;
        self.assignments = assignments;
    }

    /// Materializes a few physical photo blobs per store so the real
    /// compression/decompression path is exercised.
    fn materialize_photos<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let per_store = self.config.physical_photos_per_store;
        let preproc = self.config.preproc_bytes;
        for store in &mut self.stores {
            for k in 0..per_store.min(store.shard_len()) {
                let class = store.shard().labels()[k];
                let photo = self.factory.make(class, self.scenario.day(), rng);
                let bin = preprocessed_binary(preproc, rng);
                store.store_photo(photo, bin);
            }
        }
    }

    /// Online-inference labels for every pool item under the current
    /// model (used at bootstrap; uploads are labeled as they arrive).
    fn label_everything(&mut self) {
        let version = self.tuner.version();
        let model = self.tuner.model();
        for i in 0..self.scenario.pool_size() {
            let (_, x) = self.scenario.pool_item(i);
            let logits = model.forward(&x.reshape(&[1, x.len()]).expect("row reshape"));
            self.labeldb
                .put(PhotoId(i as u64), logits.argmax(), version);
        }
    }

    /// Advances the scenario one day: new uploads flow through the
    /// online-inference server (dynamic batching), which labels them and
    /// emits the preprocessed binaries their PipeStore archives — the
    /// full Fig 7 upload path.
    pub fn advance_day<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let before = self.scenario.pool_size();
        self.scenario.advance_day(rng);
        let version = self.tuner.version();
        let mut completed = Vec::new();
        for i in before..self.scenario.pool_size() {
            let (class, x) = self.scenario.pool_item(i);
            let features = x.clone();
            let mut photo = self.factory.make(class, self.scenario.day(), rng);
            // The pool index is the service-wide photo id.
            photo.id = PhotoId(i as u64);
            completed.extend(self.online.submit(photo, features, rng));
        }
        completed.extend(self.online.flush(rng));
        let n = self.stores.len();
        let cap = self.config.physical_photos_per_store * 4;
        for result in completed {
            // Out-of-vocabulary classes get the model's best guess — the
            // outdated-label problem in action.
            self.labeldb.put(result.photo.id, result.label, version);
            // §5.4 offload: the preprocessed binary ships with the photo
            // to its PipeStore (bounded per store to keep tests light).
            let sid = (result.photo.id.0 as usize) % n;
            if self.stores[sid].photo_count() < cap {
                self.stores[sid].store_photo(result.photo, result.preprocessed);
            }
        }
        self.reshard(rng);
    }

    /// Online-inference server statistics (batches, mean batch size).
    pub fn online_stats(&self) -> crate::online::OnlineStats {
        self.online.stats()
    }

    /// Runs one FT-DMP continuous-fine-tuning round over the current
    /// pool: widens the classifier if new categories emerged, fine-tunes
    /// across the PipeStores, and redistributes the model.
    pub fn fine_tune<R: Rng + ?Sized>(&mut self, rng: &mut R) -> FineTuneOutcome {
        let classes = self.scenario.current_classes();
        if classes > self.tuner.model().num_classes() {
            self.tuner.widen_classes(classes, rng);
            self.reshard(rng);
        }
        let cfg = FtdmpConfig {
            n_run: self.config.n_run,
            epochs_per_run: self.config.epochs_per_run,
            train: self.config.train,
            ..FtdmpConfig::default()
        };
        let report = ftdmp_fine_tune(&mut self.tuner, &mut self.stores, &cfg, rng)
            .expect("system resharding keeps every FT-DMP job valid");
        // The inference server serves uploads with the fresh model.
        self.online.update_model(self.tuner.model().clone());
        let test = self.scenario.test_set(rng);
        let final_accuracy = Trainer::evaluate(self.tuner.model(), &test);
        FineTuneOutcome {
            report,
            final_accuracy,
        }
    }

    /// Accuracy of the current model on a fresh test set.
    pub fn evaluate<R: Rng + ?Sized>(&self, rng: &mut R) -> EvalMetrics {
        let test = self.scenario.test_set(rng);
        Trainer::evaluate(self.tuner.model(), &test)
    }

    /// Near-data offline inference: every PipeStore relabels its shard
    /// with its local model replica; only `(photo id, label)` pairs flow
    /// back into the label database.
    pub fn offline_relabel(&mut self) -> RelabelStats {
        let version = self.tuner.version();
        let mut all = Vec::new();
        for (store, idx) in self.stores.iter().zip(&self.assignments) {
            let model = store.model().expect("model installed at reshard");
            let logits = model.forward(store.shard().features());
            let rows = logits.data().chunks(logits.dims()[1]);
            for (row, &pool_i) in rows.zip(idx) {
                all.push((PhotoId(pool_i as u64), argmax_of(row)));
            }
        }
        self.labeldb.apply_relabels(all, version)
    }

    /// Label-database accuracy against ground truth.
    pub fn label_accuracy(&self) -> f64 {
        self.labeldb
            .accuracy_against(|id| self.scenario.pool_item(id.0 as usize).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn boot(seed: u64) -> (NdPipeSystem, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys =
            NdPipeSystem::bootstrap(SystemConfig::small_test(), DatasetSpec::tiny(), &mut rng);
        (sys, rng)
    }

    #[test]
    fn bootstrap_labels_every_photo() {
        let (sys, _) = boot(81);
        assert_eq!(sys.labeldb().len(), sys.scenario().pool_size());
        // The Base model labels far better than chance (10 classes).
        assert!(sys.label_accuracy() > 0.4, "{}", sys.label_accuracy());
    }

    #[test]
    fn shards_cover_the_pool() {
        let (sys, _) = boot(82);
        let total: usize = sys.stores().iter().map(|s| s.shard_len()).sum();
        assert_eq!(total, sys.scenario().pool_size());
        assert_eq!(sys.stores().len(), 3);
        // Physical photos exist with compressed sidecars.
        for s in sys.stores() {
            assert!(s.photo_count() > 0);
            assert!(s.sidecar_overhead().unwrap() < 1.0);
        }
    }

    #[test]
    fn days_add_photos_and_eventually_classes() {
        let (mut sys, mut rng) = boot(83);
        let pool0 = sys.scenario().pool_size();
        for _ in 0..20 {
            sys.advance_day(&mut rng);
        }
        assert!(sys.scenario().pool_size() > pool0);
        assert_eq!(sys.labeldb().len(), sys.scenario().pool_size());
        assert!(sys.scenario().current_classes() >= 10);
    }

    #[test]
    fn fine_tune_recovers_drift_losses() {
        let (mut sys, mut rng) = boot(84);
        for _ in 0..14 {
            sys.advance_day(&mut rng);
        }
        let stale = sys.evaluate(&mut rng);
        let outcome = sys.fine_tune(&mut rng);
        // Fresh test draws carry ±2-3pp sampling noise at this size, so
        // require "no worse than noise" rather than strict improvement.
        assert!(
            outcome.final_accuracy.top1 >= stale.top1 - 0.03,
            "stale {:.3} vs tuned {:.3}",
            stale.top1,
            outcome.final_accuracy.top1
        );
        assert!(outcome.report.examples > 0);
    }

    #[test]
    fn offline_relabel_fixes_labels_after_update() {
        let (mut sys, mut rng) = boot(85);
        for _ in 0..14 {
            sys.advance_day(&mut rng);
        }
        let acc_before = sys.label_accuracy();
        sys.fine_tune(&mut rng);
        let stats = sys.offline_relabel();
        let acc_after = sys.label_accuracy();
        assert_eq!(stats.examined, sys.scenario().pool_size());
        assert!(
            acc_after >= acc_before,
            "label accuracy {acc_before:.3} -> {acc_after:.3}"
        );
    }

    #[test]
    fn uploads_flow_through_the_online_server() {
        let (mut sys, mut rng) = boot(87);
        assert_eq!(sys.online_stats().processed, 0);
        let photos_before: usize = sys.stores().iter().map(|s| s.photo_count()).sum();
        for _ in 0..5 {
            sys.advance_day(&mut rng);
        }
        let stats = sys.online_stats();
        assert!(stats.processed > 0, "no uploads served");
        assert!(stats.batches > 0);
        assert!(stats.mean_batch() >= 1.0);
        // Uploads landed physical photos + sidecars on stores.
        let photos_after: usize = sys.stores().iter().map(|s| s.photo_count()).sum();
        assert!(photos_after > photos_before, "no photos archived");
        // Photos survive the daily reshard.
        sys.advance_day(&mut rng);
        let photos_final: usize = sys.stores().iter().map(|s| s.photo_count()).sum();
        assert!(photos_final >= photos_after);
    }

    #[test]
    fn doctest_shape_holds() {
        let (mut sys, mut rng) = boot(86);
        let outcome = sys.fine_tune(&mut rng);
        assert!(outcome.final_accuracy.top1 > 0.0);
    }
}
