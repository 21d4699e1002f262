//! Executable multi-layer perceptron with a feature/classifier split.
//!
//! The paper's fine-tuning setup (§2.1) freezes the feature-extraction
//! layers and trains the classifier tail. `Mlp` makes that split a
//! first-class concept: layers `0..split` are the *weight-freeze* feature
//! extractor, layers `split..` the *trainable* classifier. FT-DMP runs
//! [`Mlp::features`] on PipeStores and the classifier update on the Tuner.

use crate::linear::Linear;
use rand::Rng;
use std::sync::OnceLock;
use tensor::codec::{self, Reader};
use tensor::{activation, default_math_policy, MathPolicy, Tensor};

/// An MLP with ReLU between layers and a feature/classifier boundary.
///
/// # Example
///
/// ```
/// use dnn::Mlp;
/// use tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // 8-dim input → [16, 12] features → 4 classes; classifier = last layer.
/// let m = Mlp::new(&[8, 16, 12, 4], 2, &mut rng);
/// let x = Tensor::zeros(&[3, 8]);
/// assert_eq!(m.forward(&x).dims(), &[3, 4]);
/// assert_eq!(m.features(&x).dims(), &[3, 12]);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    split: usize,
    /// [`Mlp::prefix_digest`], computed on first use. Only a training
    /// step that starts below `split` moves a prefix layer, and it
    /// resets this; every other mutation touches the head alone.
    prefix_digest: OnceLock<u64>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths.
    ///
    /// `dims = [in, h1, ..., out]` produces `dims.len() - 1` layers.
    /// `split` is the index of the first *trainable* (classifier) layer;
    /// `split == 0` means everything is trainable, `split == n_layers`
    /// would freeze everything and is rejected.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or `split` is out of range.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], split: usize, rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let n_layers = dims.len() - 1;
        assert!(
            split < n_layers,
            "split {split} leaves no trainable layer (of {n_layers})"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            split,
            prefix_digest: OnceLock::new(),
        }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Index of the first trainable (classifier) layer.
    pub fn split(&self) -> usize {
        self.split
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].d_in()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.layers.last().expect("non-empty").d_out()
    }

    /// Feature dimensionality at the freeze boundary.
    pub fn feature_dim(&self) -> usize {
        if self.split == 0 {
            self.input_dim()
        } else {
            self.layers[self.split - 1].d_out()
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Aggregate weights version: folds every layer's
    /// [`Linear::version`] so *any* weight mutation (full install, delta
    /// apply, optimizer step) changes the value. Keys arc-swap-style
    /// model-snapshot publication on the RPC server — equal versions mean
    /// a published `Arc<Mlp>` is still current.
    pub fn weights_version(&self) -> u64 {
        self.layers.iter().enumerate().fold(0u64, |acc, (i, l)| {
            acc.wrapping_mul(31)
                .wrapping_add(l.version())
                .wrapping_add(i as u64)
        })
    }

    /// Parameter count of the trainable classifier tail.
    pub fn classifier_param_count(&self) -> usize {
        self.layers[self.split..]
            .iter()
            .map(Linear::param_count)
            .sum()
    }

    /// The weight-freeze feature-extraction layers (`0..split`).
    pub fn feature_layers(&self) -> &[Linear] {
        &self.layers[..self.split]
    }

    /// Takes `other`'s classifier tail when its weight-freeze prefix is
    /// this model's bit for bit (same split, same layer dims, every
    /// weight and bias equal under `f32::to_bits`, so `0.0` and `-0.0`
    /// differ). The held prefix layers stay, with their version counters
    /// and prepared forward weights. Otherwise `other` comes back
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns `other` when the prefixes differ.
    pub fn adopt_head(&mut self, other: Mlp) -> Result<(), Mlp> {
        let same_bits = |a: &Tensor, b: &Tensor| {
            a.dims() == b.dims()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let same_layer = |a: &Linear, b: &Linear| {
            same_bits(a.weights(), b.weights()) && same_bits(a.bias(), b.bias())
        };
        let same_prefix = self.split == other.split
            && self
                .feature_layers()
                .iter()
                .zip(other.feature_layers())
                .all(|(a, b)| same_layer(a, b));
        if !same_prefix {
            return Err(other);
        }
        let head = other.layers.into_iter().skip(other.split);
        self.layers.truncate(self.split);
        self.layers.extend(head);
        Ok(())
    }

    /// A 64-bit digest of the weight-freeze prefix: `split`, each prefix
    /// layer's dims, and the bits of its weights and biases (so `0.0` and
    /// `-0.0` differ). Two models with equal digests are taken to hold
    /// the same prefix; a head-only install rests on that assumption.
    /// Computed once per model and kept until a training step reaches
    /// the prefix.
    pub fn prefix_digest(&self) -> u64 {
        *self.prefix_digest.get_or_init(|| {
            // A multiply-xorshift over 64-bit words: the multiply carries
            // a changed bit upwards, the shift carries it back down.
            let mix = |h: u64, v: u64| {
                let h = (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^ (h >> 29)
            };
            let bits = |h: u64, xs: &[f32]| {
                let mut pairs = xs.chunks_exact(2);
                let h = pairs.by_ref().fold(h, |h, p| {
                    mix(
                        h,
                        u64::from(p[0].to_bits()) | (u64::from(p[1].to_bits()) << 32),
                    )
                });
                pairs
                    .remainder()
                    .iter()
                    .fold(h, |h, x| mix(h, u64::from(x.to_bits())))
            };
            let mut h = mix(0xcbf2_9ce4_8422_2325, self.split as u64);
            for l in self.feature_layers() {
                h = mix(h, ((l.d_in() as u64) << 32) | l.d_out() as u64);
                h = bits(h, l.weights().data());
                h = bits(h, l.bias().data());
            }
            h
        })
    }

    /// Replaces the classifier head with every layer of `head` (a model
    /// as [`Mlp::head_to_bytes`] encodes it). The prefix stays, with its
    /// version counters, prepared forward weights and digest.
    ///
    /// # Errors
    ///
    /// Returns `head` untouched when its input width is not this model's
    /// [`Mlp::feature_dim`].
    pub fn install_head(&mut self, head: Mlp) -> Result<(), Mlp> {
        if head.input_dim() != self.feature_dim() {
            return Err(head);
        }
        self.layers.truncate(self.split);
        self.layers.extend(head.layers);
        Ok(())
    }

    /// The trainable classifier layers (for convergence checks and
    /// Check-N-Run deltas).
    pub fn classifier_layers(&self) -> &[Linear] {
        &self.layers[self.split..]
    }

    /// Mutable access to the classifier layers (for applying distributed
    /// weight deltas).
    pub fn classifier_layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers[self.split..]
    }

    /// Full forward pass: `[n, in]` → logits `[n, classes]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < self.layers.len() {
                h = activation::relu(&h);
            }
        }
        h
    }

    /// Feature extraction: the weight-freeze prefix only (what a PipeStore
    /// computes and ships to the Tuner). For `split == 0` this is the
    /// identity. Runs under the session's default [`MathPolicy`].
    pub fn features(&self, x: &Tensor) -> Tensor {
        self.features_with(x, default_math_policy())
    }

    /// [`Mlp::features`] under an explicit [`MathPolicy`]. The frozen
    /// prefix is exactly where the opt-in fast and int8 kernel families
    /// pay off: it never trains, so its packed (or quantized) weights are
    /// built once and reused every batch.
    pub fn features_with(&self, x: &Tensor, policy: MathPolicy) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers[..self.split] {
            h = activation::relu(&layer.forward_with(&h, policy));
        }
        h
    }

    /// Classifier-only forward from precomputed features (what the Tuner
    /// computes).
    pub fn classify_features(&self, features: &Tensor) -> Tensor {
        let mut h = features.clone();
        for (i, layer) in self.layers[self.split..].iter().enumerate() {
            h = layer.forward(&h);
            if self.split + i + 1 < self.layers.len() {
                h = activation::relu(&h);
            }
        }
        h
    }

    /// One SGD step training layers `freeze_below..`, back-propagating the
    /// cross-entropy loss. Returns the pre-update batch loss.
    ///
    /// - `freeze_below = 0` → full training,
    /// - `freeze_below = self.split()` → fine-tuning (FT-DMP's Tuner-side
    ///   update),
    ///
    /// # Panics
    ///
    /// Panics unless `momentum ∈ [0, 1)`, if `freeze_below >= n_layers`
    /// (nothing to train), or if shapes mismatch.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        lr: f32,
        momentum: f32,
        freeze_below: usize,
    ) -> f32 {
        assert!(
            freeze_below < self.layers.len(),
            "freeze_below leaves no trainable layer"
        );
        // The frozen layers run forward only; training starts at
        // `freeze_below`.
        let mut h = x.clone();
        for layer in &self.layers[..freeze_below] {
            h = activation::relu(&layer.forward(&h));
        }
        self.sgd_step_from(freeze_below, h, labels, lr, momentum)
    }

    /// One fine-tuning step from *precomputed features* (the Tuner-side
    /// path of FT-DMP: features arrive from PipeStores, only the
    /// classifier is updated). Takes the batch by value: it is the
    /// classifier's first cached input. Returns the pre-update batch loss.
    ///
    /// # Panics
    ///
    /// Panics unless `momentum ∈ [0, 1)`, or if shapes mismatch.
    pub fn tune_step_on_features(
        &mut self,
        features: Tensor,
        labels: &[usize],
        lr: f32,
        momentum: f32,
    ) -> f32 {
        self.sgd_step_from(self.split, features, labels, lr, momentum)
    }

    /// The one backprop loop: forward from layer `start` with caches,
    /// cross-entropy on the logits, then backward and update every layer
    /// from the last down to `start`. `h` is layer `start`'s input; the
    /// input gradient is taken only where a trained layer sits below.
    fn sgd_step_from(
        &mut self,
        start: usize,
        mut h: Tensor,
        labels: &[usize],
        lr: f32,
        momentum: f32,
    ) -> f32 {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        if start < self.split {
            // The frozen prefix moves: its digest is stale.
            self.prefix_digest = OnceLock::new();
        }
        let n = self.layers.len();
        // inputs[k] is the input to layer start + k, pre[k] its
        // pre-activation output (the last layer's is the logits).
        let mut inputs = Vec::with_capacity(n - start);
        let mut pre = Vec::with_capacity(n - start);
        for (i, layer) in self.layers.iter().enumerate().skip(start) {
            let z = layer.forward(&h);
            if i + 1 < n {
                let next = activation::relu(&z);
                inputs.push(std::mem::replace(&mut h, next));
            } else {
                inputs.push(std::mem::take(&mut h));
            }
            pre.push(z);
        }
        let logits = pre.last().expect("at least one trained layer");
        let loss = activation::cross_entropy(logits, labels);
        let mut dy = activation::cross_entropy_grad(logits, labels);
        for k in (0..n - start).rev() {
            let layer = &mut self.layers[start + k];
            let grads = layer.backward(&inputs[k], &dy);
            let dx = (k > 0).then(|| layer.input_grad(&dy));
            layer.apply(&grads, lr, momentum);
            if let Some(dx) = dx {
                // Gradient through the ReLU that preceded this layer.
                let mask = activation::relu_grad_mask(&pre[k - 1]);
                dy = dx.mul(&mask);
            }
        }
        loss
    }

    /// Widens the output layer to `new_classes`, preserving existing class
    /// weights and initializing the new rows near zero. This is how the
    /// model learns *emerging categories* without forgetting old ones.
    ///
    /// # Panics
    ///
    /// Panics if `new_classes` is smaller than the current class count.
    pub fn widen_classes<R: Rng + ?Sized>(&mut self, new_classes: usize, rng: &mut R) {
        let old = self.num_classes();
        assert!(new_classes >= old, "cannot drop classes");
        if new_classes == old {
            return;
        }
        let last = self.layers.last().expect("non-empty");
        let d_in = last.d_in();
        let mut fresh = Linear::new(d_in, new_classes, rng);
        // Copy old rows; scale fresh rows down so they start unconfident.
        let mut w = fresh.weights().scale(0.1);
        let mut b = Tensor::zeros(&[new_classes]);
        for r in 0..old {
            for c in 0..d_in {
                w.set(&[r, c], last.weights().at(&[r, c]));
            }
            b.set(&[r], last.bias().at(&[r]));
        }
        fresh.set_weights(w, b);
        *self.layers.last_mut().expect("non-empty") = fresh;
    }

    /// Serializes the model (architecture + weights, not optimizer state)
    /// to a portable little-endian byte format, used for model
    /// distribution over the wire and for checkpoints.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.layers, self.split)
    }

    /// The classifier head alone, in the [`Mlp::to_bytes`] format: the
    /// layers `split..` as a model whose split is 0. It is what a
    /// head-only install ships; [`Mlp::install_head`] takes it back.
    pub fn head_to_bytes(&self) -> Vec<u8> {
        encode(&self.layers[self.split..], 0)
    }

    /// Reconstructs a model from [`Mlp::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first framing problem found.
    pub fn from_bytes(bytes: &[u8]) -> Result<Mlp, String> {
        let blob = |e: codec::Error| format!("model blob {e}");
        let mut r = Reader::new(bytes);
        if r.take(4).map_err(blob)? != b"NDPM" {
            return Err("bad model magic".to_string());
        }
        // The smallest layer (1 → 1) takes 16 bytes, so the count is
        // refused before anything is sized from it.
        let n_layers = r.count(16).map_err(blob)?;
        let split = r.u32().map_err(blob)? as usize;
        if n_layers == 0 || split >= n_layers {
            return Err("invalid layer count or split".to_string());
        }
        let mut layers: Vec<Linear> = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let d_in = r.u32().map_err(blob)? as usize;
            let d_out = r.u32().map_err(blob)? as usize;
            if d_in == 0 || d_out == 0 {
                return Err("zero layer dimension".to_string());
            }
            // Layers must chain, or forward() would panic later.
            if let Some(prev) = layers.last() {
                if prev.d_out() != d_in {
                    return Err(format!(
                        "layer dimension mismatch: {} feeds {}",
                        prev.d_out(),
                        d_in
                    ));
                }
            }
            // Checked: a crafted header must not wrap `d_out·d_in` into a
            // small read; `f32s` refuses a count the blob cannot fill.
            let n_w = d_out
                .checked_mul(d_in)
                .ok_or_else(|| "layer dimensions overflow".to_string())?;
            let w = Tensor::from_vec(r.f32s(n_w).map_err(blob)?, &[d_out, d_in]);
            let b = Tensor::from_vec(r.f32s(d_out).map_err(blob)?, &[d_out]);
            layers.push(Linear::from_weights(w, b));
        }
        r.finish()
            .map_err(|_| "trailing bytes after model".to_string())?;
        Ok(Mlp {
            layers,
            split,
            prefix_digest: OnceLock::new(),
        })
    }
}

/// The portable model blob: magic, layer count, split, then each layer's
/// dims, weights and bias.
fn encode(layers: &[Linear], split: usize) -> Vec<u8> {
    let mut out = b"NDPM".to_vec();
    codec::put_u32(&mut out, layers.len() as u32);
    codec::put_u32(&mut out, split as u32);
    for l in layers {
        codec::put_u32(&mut out, l.d_in() as u32);
        codec::put_u32(&mut out, l.d_out() as u32);
        codec::put_f32s(&mut out, l.weights().data());
        codec::put_f32s(&mut out, l.bias().data());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(rng: &mut StdRng) -> Mlp {
        Mlp::new(&[4, 12, 8, 3], 2, rng)
    }

    #[test]
    fn shapes_and_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = toy_model(&mut rng);
        assert_eq!(m.n_layers(), 3);
        assert_eq!(m.split(), 2);
        assert_eq!(m.feature_dim(), 8);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.param_count(), (4 * 12 + 12) + (12 * 8 + 8) + (8 * 3 + 3));
        assert_eq!(m.classifier_param_count(), 8 * 3 + 3);
    }

    #[test]
    fn features_then_classify_equals_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = toy_model(&mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let direct = m.forward(&x);
        let via = m.classify_features(&m.features(&x));
        for (a, b) in direct.data().iter().zip(via.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn fine_tuning_leaves_features_frozen() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = toy_model(&mut rng);
        let x = Tensor::randn(&[8, 4], &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let feats_before = m.features(&x);
        for _ in 0..5 {
            m.train_step(&x, &labels, 0.1, 0.9, m.split());
        }
        let feats_after = m.features(&x);
        assert_eq!(feats_before.data(), feats_after.data());
    }

    #[test]
    fn full_training_moves_features() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = toy_model(&mut rng);
        let x = Tensor::randn(&[8, 4], &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let feats_before = m.features(&x);
        for _ in 0..5 {
            m.train_step(&x, &labels, 0.1, 0.9, 0);
        }
        let feats_after = m.features(&x);
        assert_ne!(feats_before.data(), feats_after.data());
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = toy_model(&mut rng);
        let x = Tensor::randn(&[30, 4], &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let first = m.train_step(&x, &labels, 0.2, 0.9, 0);
        let mut last = first;
        for _ in 0..100 {
            last = m.train_step(&x, &labels, 0.2, 0.9, 0);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn tune_on_features_matches_train_step_semantics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = toy_model(&mut rng);
        let mut b = a.clone();
        let x = Tensor::randn(&[10, 4], &mut rng);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let la = a.train_step(&x, &labels, 0.1, 0.0, a.split());
        let feats = b.features(&x);
        let lb = b.tune_step_on_features(feats, &labels, 0.1, 0.0);
        assert!((la - lb).abs() < 1e-6, "{la} vs {lb}");
        // Resulting classifier weights agree.
        for (wa, wb) in a.classifier_layers().iter().zip(b.classifier_layers()) {
            for (x1, x2) in wa.weights().data().iter().zip(wb.weights().data()) {
                assert!((x1 - x2).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn adopt_head_keeps_an_equal_prefix_and_refuses_another() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut held = toy_model(&mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        held.features(&x); // prepare the prefix's forward weights
        let prefix_versions: Vec<u64> = held.feature_layers().iter().map(Linear::version).collect();

        // Same prefix, retrained head: the head comes over, the held
        // prefix layers (and their version counters) stay.
        let mut incoming = Mlp::from_bytes(&held.to_bytes()).expect("round trip");
        let labels = [0usize, 1, 2, 0, 1];
        incoming.train_step(&x, &labels, 0.1, 0.0, incoming.split());
        held.adopt_head(incoming.clone()).expect("equal prefix");
        assert_eq!(held.to_bytes(), incoming.to_bytes());
        let after: Vec<u64> = held.feature_layers().iter().map(Linear::version).collect();
        assert_eq!(after, prefix_versions);

        // One prefix bias flipped from 0.0 to -0.0 is another prefix.
        let mut blob = held.to_bytes();
        let bias0 = 4 + 8 + 8 + 4 * 12 * 4;
        assert_eq!(
            f32::from_le_bytes(blob[bias0..bias0 + 4].try_into().unwrap()),
            0.0
        );
        blob[bias0..bias0 + 4].copy_from_slice(&(-0.0f32).to_le_bytes());
        let other = Mlp::from_bytes(&blob).expect("patched blob");
        let back = held.adopt_head(other).expect_err("prefix differs");
        assert_eq!(
            back.to_bytes(),
            blob,
            "the refused model comes back untouched"
        );
    }

    #[test]
    fn prefix_digest_tracks_the_prefix_bits_and_nothing_else() {
        let mut rng = StdRng::seed_from_u64(15);
        let m = toy_model(&mut rng);
        let d = m.prefix_digest();
        let decoded = Mlp::from_bytes(&m.to_bytes()).expect("round trip");
        assert_eq!(decoded.prefix_digest(), d, "a decoded copy");

        // The head moves, the widening grows it: the prefix stays.
        let mut tuned = decoded;
        let x = Tensor::randn(&[6, 4], &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        tuned.train_step(&x, &labels, 0.1, 0.9, tuned.split());
        tuned.widen_classes(5, &mut rng);
        assert_eq!(tuned.prefix_digest(), d, "head-only changes");

        // A training step that reaches the prefix drops the cached digest.
        tuned.train_step(&x, &[0, 1, 2, 3, 4, 0], 0.1, 0.9, 0);
        assert_ne!(tuned.prefix_digest(), d, "a trained prefix");

        // One bias flipped from 0.0 to -0.0, and another split.
        let mut blob = m.to_bytes();
        let bias0 = 4 + 8 + 8 + 4 * 12 * 4;
        blob[bias0..bias0 + 4].copy_from_slice(&(-0.0f32).to_le_bytes());
        let flipped = Mlp::from_bytes(&blob).expect("patched blob");
        assert_ne!(flipped.prefix_digest(), d, "-0.0 is not 0.0");
        let mut resplit = m.to_bytes();
        resplit[8..12].copy_from_slice(&1u32.to_le_bytes());
        let resplit = Mlp::from_bytes(&resplit).expect("other split");
        assert_ne!(resplit.prefix_digest(), d, "another split");
    }

    #[test]
    fn a_head_install_equals_the_whole_model() {
        let mut rng = StdRng::seed_from_u64(16);
        let held = toy_model(&mut rng);
        let mut master = Mlp::from_bytes(&held.to_bytes()).expect("round trip");
        let x = Tensor::randn(&[6, 4], &mut rng);
        master.train_step(&x, &[0, 1, 2, 0, 1, 2], 0.1, 0.9, master.split());
        master.widen_classes(4, &mut rng);

        let mut store = held.clone();
        let head = Mlp::from_bytes(&master.head_to_bytes()).expect("head blob");
        assert_eq!(head.split(), 0);
        assert_eq!(head.n_layers(), master.classifier_layers().len());
        store.install_head(head).expect("as wide as the features");
        assert_eq!(store.to_bytes(), master.to_bytes());
        assert_eq!(store.prefix_digest(), held.prefix_digest());

        // A head that does not read the features comes back untouched.
        let narrow = Mlp::new(&[7, 3], 0, &mut rng);
        let back = store.install_head(narrow.clone()).expect_err("7 ≠ 8");
        assert_eq!(back.to_bytes(), narrow.to_bytes());
        assert_eq!(store.to_bytes(), master.to_bytes());
    }

    #[test]
    fn widen_preserves_old_logits() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = toy_model(&mut rng);
        let x = Tensor::randn(&[4, 4], &mut rng);
        let before = m.forward(&x);
        m.widen_classes(5, &mut rng);
        assert_eq!(m.num_classes(), 5);
        let after = m.forward(&x);
        for r in 0..4 {
            for c in 0..3 {
                assert!((before.at(&[r, c]) - after.at(&[r, c])).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut m = toy_model(&mut rng);
        let x = Tensor::randn(&[3, 4], &mut rng);
        m.train_step(&x, &[0, 1, 2], 0.1, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "no trainable layer")]
    fn split_must_leave_trainable_layers() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = Mlp::new(&[4, 4, 2], 2, &mut rng);
    }

    #[test]
    fn serialization_roundtrips_exactly() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = toy_model(&mut rng);
        let bytes = m.to_bytes();
        let back = Mlp::from_bytes(&bytes).expect("valid blob");
        assert_eq!(back.n_layers(), m.n_layers());
        assert_eq!(back.split(), m.split());
        let x = Tensor::randn(&[5, 4], &mut rng);
        assert_eq!(m.forward(&x).data(), back.forward(&x).data());
    }

    #[test]
    fn mismatched_layer_chain_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        // Serialize two models and splice layer records so dims don't chain.
        let a = Mlp::new(&[4, 6, 3], 1, &mut rng);
        let mut bytes = a.to_bytes();
        // Patch the second layer's d_in (offset: magic 4 + counts 8 +
        // layer0 header 8 + layer0 weights/bias (6*4+6)*4 bytes).
        let layer1_d_in = 4 + 8 + 8 + (6 * 4 + 6) * 4;
        bytes[layer1_d_in..layer1_d_in + 4].copy_from_slice(&9u32.to_le_bytes());
        let err = Mlp::from_bytes(&bytes).unwrap_err();
        assert!(
            err.contains("mismatch") || err.contains("truncated"),
            "{err}"
        );
    }

    #[test]
    fn wrapping_layer_dimensions_are_rejected() {
        // d_in = d_out = 2^31: `d_out·d_in·4` wraps to 0 in usize, so an
        // unchecked decode reads zero weight bytes and then builds a
        // 2^31 × 2^31 tensor from them.
        let header = |n_layers: u32, split: u32| {
            let mut b = b"NDPM".to_vec();
            for v in [n_layers, split, 1 << 31, 1 << 31] {
                b.extend_from_slice(&v.to_le_bytes());
            }
            b
        };
        let blob = header(2, 1);
        assert_eq!(blob.len(), 20);
        assert!(Mlp::from_bytes(&blob).is_err());
        // One layer, padded so the layer-count bound passes and the
        // dimension check itself must refuse.
        let mut padded = header(1, 0);
        padded.extend_from_slice(&[0; 16]);
        assert!(Mlp::from_bytes(&padded).is_err());
        // A layer count the blob cannot hold fails before allocating.
        let mut many = b"NDPM".to_vec();
        many.extend_from_slice(&u32::MAX.to_le_bytes());
        many.extend_from_slice(&0u32.to_le_bytes());
        assert!(Mlp::from_bytes(&many).is_err());
    }

    #[test]
    fn corrupted_blobs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = toy_model(&mut rng);
        let bytes = m.to_bytes();
        assert!(Mlp::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(Mlp::from_bytes(b"XXXX").is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Mlp::from_bytes(&extra).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] = b'Z';
        assert!(Mlp::from_bytes(&bad_magic).is_err());
    }
}
