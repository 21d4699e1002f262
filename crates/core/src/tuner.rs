//! The Tuner: the fine-tuning server that manages PipeStores.
//!
//! The Tuner holds the master model, triggers fine-tuning and offline
//! inference, trains the trainable tail on features shipped from
//! PipeStores, and redistributes updated models as Check-N-Run deltas.

use crate::checknrun::ModelDelta;
use dnn::{Mlp, TrainConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use tensor::Tensor;

/// The training server of an NDPipe deployment.
#[derive(Debug, Clone)]
pub struct Tuner {
    model: Mlp,
    config: TrainConfig,
    version: u64,
}

impl Tuner {
    /// Creates a Tuner around an initial (pre-trained) model.
    pub fn new(model: Mlp, config: TrainConfig) -> Self {
        Tuner {
            model,
            config,
            version: 0,
        }
    }

    /// The current master model.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// Mutable access to the master model (full-training experiments).
    pub fn model_mut(&mut self) -> &mut Mlp {
        &mut self.model
    }

    /// Monotonic model version, bumped by every fine-tuning round.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Tuner-stage of FT-DMP: trains the classifier tail on features
    /// gathered from PipeStores for `epochs` epochs, reshuffling every
    /// epoch. Returns the mean loss of the final epoch.
    ///
    /// Each epoch draws the permutation `LabeledDataset::shuffled` would
    /// (a fresh identity order, shuffled once) and gathers every batch's
    /// rows straight from `features`: the rng stream, the batch order and
    /// the bits are a dataset copy's, without the copy.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not a matrix with one label per row, a
    /// label is not below the model's class count, `epochs == 0`, the
    /// configured batch is 0, or the momentum is outside `[0, 1)`.
    pub fn train_on_features<R: Rng + ?Sized>(
        &mut self,
        features: &Tensor,
        labels: &[usize],
        epochs: usize,
        rng: &mut R,
    ) -> f32 {
        assert!(epochs > 0, "need at least one epoch");
        assert!(self.config.batch > 0, "batch size must be positive");
        assert_eq!(features.shape().rank(), 2, "features must be a matrix");
        assert_eq!(features.dims()[0], labels.len(), "one label per row");
        let classes = self.model.num_classes();
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        let dim = features.dims()[1];
        let rows: Vec<&[f32]> = features.data().chunks_exact(dim.max(1)).collect();
        let mut order: Vec<usize> = Vec::with_capacity(labels.len());
        let mut y = Vec::with_capacity(self.config.batch);
        let mut last = 0.0f32;
        for _ in 0..epochs {
            order.clear();
            order.extend(0..labels.len());
            order.shuffle(rng);
            let mut sum = 0.0f32;
            let mut n = 0;
            for batch in order.chunks(self.config.batch) {
                let mut x = Vec::with_capacity(batch.len() * dim);
                y.clear();
                for &i in batch {
                    x.extend_from_slice(rows[i]);
                    y.push(labels[i]);
                }
                let x = Tensor::from_vec(x, &[batch.len(), dim]);
                sum +=
                    self.model
                        .tune_step_on_features(x, &y, self.config.lr, self.config.momentum);
                n += 1;
            }
            last = sum / n.max(1) as f32;
        }
        self.version += 1;
        last
    }

    /// Widens the classifier for emerging categories before fine-tuning.
    pub fn widen_classes<R: Rng + ?Sized>(&mut self, new_classes: usize, rng: &mut R) {
        self.model.widen_classes(new_classes, rng);
    }

    /// Produces the Check-N-Run delta that upgrades `old` to the current
    /// master model.
    pub fn delta_from(&self, old: &Mlp) -> ModelDelta {
        ModelDelta::between(old, &self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (Tuner, Tensor, Vec<usize>) {
        let model = Mlp::new(&[6, 10, 8, 4], 2, rng);
        let feats = Tensor::randn(&[40, 8], rng);
        let labels: Vec<usize> = (0..40).map(|i| i % 4).collect();
        (
            Tuner::new(
                model,
                TrainConfig {
                    batch: 8,
                    ..TrainConfig::default()
                },
            ),
            feats,
            labels,
        )
    }

    #[test]
    fn training_bumps_version_and_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(51);
        let (mut tuner, feats, labels) = setup(&mut rng);
        assert_eq!(tuner.version(), 0);
        let first = tuner.train_on_features(&feats, &labels, 1, &mut rng);
        let last = tuner.train_on_features(&feats, &labels, 20, &mut rng);
        assert_eq!(tuner.version(), 2);
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn training_never_touches_feature_layers() {
        let mut rng = StdRng::seed_from_u64(52);
        let (mut tuner, feats, labels) = setup(&mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let before = tuner.model().features(&x);
        tuner.train_on_features(&feats, &labels, 3, &mut rng);
        let after = tuner.model().features(&x);
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn widen_then_train_handles_new_classes() {
        let mut rng = StdRng::seed_from_u64(53);
        let (mut tuner, feats, _) = setup(&mut rng);
        tuner.widen_classes(6, &mut rng);
        let labels: Vec<usize> = (0..40).map(|i| i % 6).collect();
        let loss = tuner.train_on_features(&feats, &labels, 5, &mut rng);
        assert!(loss.is_finite());
        assert_eq!(tuner.model().num_classes(), 6);
    }

    /// A Tuner over `setup`'s model and features with `edit` applied to
    /// the config, labels and epochs, trained once.
    fn train_with(edit: impl FnOnce(&mut TrainConfig, &mut Vec<usize>, &mut usize)) {
        let mut rng = StdRng::seed_from_u64(55);
        let (tuner, feats, mut labels) = setup(&mut rng);
        let mut cfg = *tuner.config();
        let mut epochs = 1;
        edit(&mut cfg, &mut labels, &mut epochs);
        let mut tuner = Tuner::new(tuner.model().clone(), cfg);
        tuner.train_on_features(&feats, &labels, epochs, &mut rng);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn momentum_of_one_is_rejected() {
        train_with(|cfg, _, _| cfg.momentum = 1.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn a_label_past_the_classes_is_rejected() {
        train_with(|_, labels, _| labels[7] = 4);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn a_missing_label_is_rejected() {
        train_with(|_, labels, _| {
            labels.pop();
        });
    }

    #[test]
    #[should_panic(expected = "need at least one epoch")]
    fn zero_epochs_are_rejected() {
        train_with(|_, _, epochs| *epochs = 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn a_zero_batch_is_rejected() {
        train_with(|cfg, _, _| cfg.batch = 0);
    }

    #[test]
    fn delta_roundtrip_upgrades_old_replica() {
        let mut rng = StdRng::seed_from_u64(54);
        let (mut tuner, feats, labels) = setup(&mut rng);
        let old = tuner.model().clone();
        tuner.train_on_features(&feats, &labels, 10, &mut rng);
        let delta = tuner.delta_from(&old);
        let mut replica = old.clone();
        delta.apply(&mut replica).expect("delta applies");
        // The upgraded replica closely matches the master (quantized).
        let x = Tensor::randn(&[4, 6], &mut rng);
        let a = tuner.model().forward(&x);
        let b = replica.forward(&x);
        for (p, q) in a.data().iter().zip(b.data()) {
            assert!((p - q).abs() < 0.05, "{p} vs {q}");
        }
    }
}
