//! Fully-connected layer with hand-written backward pass.

use rand::Rng;
use std::sync::{Arc, Mutex, PoisonError};
use tensor::linalg::Gemm;
use tensor::pack::PackedB;
use tensor::quant::{self, QuantizedMatrix};
use tensor::{default_math_policy, init, MathPolicy, Tensor};

/// A dense layer `y = x Wᵀ + b` with SGD-with-momentum state.
///
/// Weights are stored `[out, in]`; inputs and outputs are row-major
/// batches `[n, in]` / `[n, out]`.
///
/// # Example
///
/// ```
/// use dnn::Linear;
/// use tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Tensor::zeros(&[3, 4]);
/// let y = layer.forward(&x);
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Debug)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
    vw: Tensor,
    vb: Tensor,
    /// Version counter for `w`, bumped on every weight mutation. Keys the
    /// packed-forward-weight cache: frozen layers (never mutated) pack
    /// once and reuse the panels every batch.
    w_version: u64,
    /// Lazily prepared forward weights for [`Linear::forward_with`],
    /// keyed by the `(w_version, policy)` they were built for: f32
    /// panels for `Deterministic`/`Fast`, a quantized matrix for `Int8`.
    packed: Mutex<Option<(u64, MathPolicy, CachedW)>>,
}

/// Policy-specific prepared forward weights.
#[derive(Debug, Clone)]
enum CachedW {
    /// Packed `wᵀ` panels for the f32 kernel families.
    F32(Arc<PackedB>),
    /// Symmetrically quantized `w` for the int8 path.
    Int8(Arc<QuantizedMatrix>),
}

impl Clone for Linear {
    fn clone(&self) -> Self {
        let packed = self
            .packed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            vw: self.vw.clone(),
            vb: self.vb.clone(),
            w_version: self.w_version,
            packed: Mutex::new(packed),
        }
    }
}

/// Parameter gradients of a [`Linear`] layer for one batch. The input
/// gradient is [`Linear::input_grad`], computed only where a layer below
/// trains.
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// `∂L/∂W`, shape `[out, in]`.
    pub dw: Tensor,
    /// `∂L/∂b`, shape `[out]`.
    pub db: Tensor,
}

impl Linear {
    /// A new layer with δ-balanced Gaussian weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        assert!(d_in > 0 && d_out > 0, "layer dimensions must be positive");
        Linear {
            w: init::balanced_linear(d_out, d_in, 1.0, rng),
            b: Tensor::zeros(&[d_out]),
            vw: Tensor::zeros(&[d_out, d_in]),
            vb: Tensor::zeros(&[d_out]),
            w_version: 0,
            packed: Mutex::new(None),
        }
    }

    /// A layer holding exactly `w` (`[out, in]`) and `b` (`[out]`), with
    /// zero momentum. Its version is 1: one weight install past a fresh
    /// layer, which is what a decoded layer has always reported.
    /// `Mlp::from_bytes` checks the shapes before calling this.
    pub(crate) fn from_weights(w: Tensor, b: Tensor) -> Self {
        Linear {
            vw: Tensor::zeros(w.dims()),
            vb: Tensor::zeros(b.dims()),
            w,
            b,
            w_version: 1,
            packed: Mutex::new(None),
        }
    }

    /// Marks the weights as changed, invalidating the packed cache.
    fn bump_version(&mut self) {
        self.w_version = self.w_version.wrapping_add(1);
    }

    /// The prepared forward weights for `policy`, rebuilt only when the
    /// weights changed since the last build or the cached representation
    /// does not fit the policy (the two f32 policies share one pack; the
    /// int8 path quantizes instead).
    fn packed_forward_weights(&self, policy: MathPolicy) -> CachedW {
        let want_int8 = policy == MathPolicy::Int8;
        let mut guard = self.packed.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((v, p, cached)) = guard.as_ref() {
            let compatible = (*p == MathPolicy::Int8) == want_int8;
            if *v == self.w_version && compatible {
                return cached.clone();
            }
        }
        let cached = if want_int8 {
            CachedW::Int8(Arc::new(quant::QuantizedMatrix::quantize(&self.w)))
        } else {
            CachedW::F32(Arc::new(PackedB::pack_nt(&self.w)))
        };
        *guard = Some((self.w_version, policy, cached.clone()));
        cached
    }

    /// Input dimensionality.
    pub fn d_in(&self) -> usize {
        self.w.dims()[1]
    }

    /// The layer's weight-version counter: bumped on every weight
    /// mutation, stable across clones. Keys both the packed-panel cache
    /// and the RPC server's published model snapshots.
    pub fn version(&self) -> u64 {
        self.w_version
    }

    /// Output dimensionality.
    pub fn d_out(&self) -> usize {
        self.w.dims()[0]
    }

    /// The weight matrix `[out, in]`.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    /// Overwrites the weights (used by model distribution / deltas).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn set_weights(&mut self, w: Tensor, b: Tensor) {
        assert_eq!(w.dims(), self.w.dims(), "weight shape mismatch");
        assert_eq!(b.dims(), self.b.dims(), "bias shape mismatch");
        self.w = w;
        self.b = b;
        self.bump_version();
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass over a batch `[n, in]` → `[n, out]` under the
    /// session's default [`MathPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from `d_in`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_with(x, default_math_policy())
    }

    /// Forward pass under an explicit [`MathPolicy`]. `Deterministic`
    /// and `Fast` run `x·wᵀ` over cached prepacked panels; `Int8`
    /// dynamically quantizes `x` against cached quantized weights.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from `d_in`.
    pub fn forward_with(&self, x: &Tensor, policy: MathPolicy) -> Tensor {
        assert_eq!(x.dims()[1], self.d_in(), "input width mismatch");
        match self.packed_forward_weights(policy) {
            CachedW::F32(pb) => Gemm::prepacked_b(x, &pb)
                .policy(policy)
                .run()
                .add_row_bias(&self.b),
            CachedW::Int8(wq) => quant::matmul_nt_quant(x, &wq).add_row_bias(&self.b),
        }
    }

    /// Backward pass: given the upstream gradient `dy` `[n, out]` and the
    /// cached input `x` `[n, in]`, computes the parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward(&self, x: &Tensor, dy: &Tensor) -> LinearGrads {
        assert_eq!(x.dims()[0], dy.dims()[0], "batch size mismatch");
        assert_eq!(dy.dims()[1], self.d_out(), "grad width mismatch");
        LinearGrads {
            dw: Gemm::new(dy, x).transpose_a().run(),
            db: dy.sum_rows(),
        }
    }

    /// `∂L/∂x = dy·W`, shape `[n, in]`: the gradient to propagate to the
    /// previous layer. Take it before [`Linear::apply`] moves `W`.
    ///
    /// # Panics
    ///
    /// Panics if `dy` is not `d_out` wide.
    pub fn input_grad(&self, dy: &Tensor) -> Tensor {
        assert_eq!(dy.dims()[1], self.d_out(), "grad width mismatch");
        Gemm::new(dy, &self.w).run()
    }

    /// SGD-with-momentum update: `v ← μv − lr·g; θ ← θ + v`, in place.
    /// Each element rounds as `v·μ`, then `+ (−lr)·g`, then `θ + v`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or the gradient shapes differ.
    pub fn apply(&mut self, grads: &LinearGrads, lr: f32, momentum: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        assert_eq!(grads.dw.dims(), self.w.dims(), "weight grad shape mismatch");
        assert_eq!(grads.db.dims(), self.b.dims(), "bias grad shape mismatch");
        let step = |theta: &mut [f32], v: &mut [f32], g: &[f32]| {
            for ((t, v), &g) in theta.iter_mut().zip(v.iter_mut()).zip(g) {
                *v *= momentum;
                *v += -lr * g;
                *t += *v;
            }
        };
        step(self.w.data_mut(), self.vw.data_mut(), grads.dw.data());
        step(self.b.data_mut(), self.vb.data_mut(), grads.db.data());
        self.bump_version();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::activation;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(5, 3, &mut rng);
        let x = Tensor::randn(&[7, 5], &mut rng);
        assert_eq!(l.forward(&x).dims(), &[7, 3]);
        assert_eq!(l.param_count(), 18);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let labels = [0usize, 1, 2, 0, 1];

        let loss = |l: &Linear| activation::cross_entropy(&l.forward(&x), &labels);
        let logits = l.forward(&x);
        let dy = activation::cross_entropy_grad(&logits, &labels);
        let grads = l.backward(&x, &dy);

        let eps = 1e-2;
        // Check a sample of weight entries.
        for &(i, j) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let orig = l.weights().at(&[i, j]);
            let mut wp = l.weights().clone();
            wp.set(&[i, j], orig + eps);
            let mut lp = l.clone();
            lp.set_weights(wp, l.bias().clone());
            let mut wm = l.weights().clone();
            wm.set(&[i, j], orig - eps);
            let mut lm = l.clone();
            lm.set_weights(wm, l.bias().clone());
            let num = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            let ana = grads.dw.at(&[i, j]);
            assert!((num - ana).abs() < 1e-2, "dW[{i},{j}]: {num} vs {ana}");
        }
        // Check bias gradient.
        let orig_b = l.bias().clone();
        let mut bp = orig_b.clone();
        bp.set(&[1], orig_b.at(&[1]) + eps);
        let mut lp = l.clone();
        lp.set_weights(l.weights().clone(), bp);
        let mut bm = orig_b.clone();
        bm.set(&[1], orig_b.at(&[1]) - eps);
        let mut lm = l.clone();
        lm.set_weights(l.weights().clone(), bm);
        let num = (loss(&lp) - loss(&lm)) / (2.0 * eps);
        assert!((num - grads.db.at(&[1])).abs() < 1e-2);
        // dx has the input's shape.
        assert_eq!(l.input_grad(&dy).dims(), x.dims());
        let _ = &mut l;
    }

    #[test]
    fn sgd_descends_on_a_toy_problem() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        // Learn to classify x by sign of first coordinate.
        let x = Tensor::from_vec(vec![1.0, 0.3, -1.0, 0.1, 2.0, -0.5, -2.0, 0.8], &[4, 2]);
        let labels = [0usize, 1, 0, 1];
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for step in 0..200 {
            let logits = l.forward(&x);
            let loss = activation::cross_entropy(&logits, &labels);
            if step == 0 {
                first_loss = loss;
            }
            last_loss = loss;
            let dy = activation::cross_entropy_grad(&logits, &labels);
            let g = l.backward(&x, &dy);
            l.apply(&g, 0.5, 0.9);
        }
        assert!(
            last_loss < first_loss * 0.1,
            "loss {first_loss} -> {last_loss}"
        );
    }

    #[test]
    fn packed_cache_invalidates_on_every_mutation_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut l = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        // Pack per call (same operand form as the cache) so the check is
        // bit-exact under every math policy.
        let fresh = |l: &Linear, x: &Tensor| {
            Gemm::prepacked_b(x, &PackedB::pack_nt(l.weights()))
                .run()
                .add_row_bias(l.bias())
        };
        // Populate the cache, then mutate through each path and check the
        // cached forward tracks the live weights bit-for-bit.
        assert_eq!(l.forward(&x), fresh(&l, &x));

        l.set_weights(l.weights().scale(2.0), l.bias().clone());
        assert_eq!(l.forward(&x), fresh(&l, &x), "after set_weights");

        let dy = Tensor::randn(&[3, 4], &mut rng);
        let g = l.backward(&x, &dy);
        l.apply(&g, 0.1, 0.9);
        assert_eq!(l.forward(&x), fresh(&l, &x), "after sgd apply");

        // Clones carry the cache but stay independent.
        let c = l.clone();
        l.set_weights(l.weights().scale(0.5), l.bias().clone());
        assert_eq!(c.forward(&x), fresh(&c, &x), "clone after parent mutation");
        assert_eq!(l.forward(&x), fresh(&l, &x), "parent after mutation");
    }

    #[test]
    fn forward_with_switches_policies_on_one_cache() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut l = Linear::new(8, 5, &mut rng);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let det = l.forward_with(&x, MathPolicy::Deterministic);
        // Int8 replaces the cached f32 pack; the result tracks the f32
        // product within the quantization error bound.
        let q = l.forward_with(&x, MathPolicy::Int8);
        assert_eq!(q.dims(), det.dims());
        let amax = x.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let wmax = l
            .weights()
            .data()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()));
        let (sa, sw) = (amax / 127.0, wmax / 127.0);
        let bound = 8.0 * (amax * sw / 2.0 + wmax * sa / 2.0 + sa * sw / 4.0) * 1.05 + 1e-6;
        for (a, b) in q.data().iter().zip(det.data()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
        // Switching back re-packs f32 and is bit-identical to the first
        // deterministic run; mutation still invalidates the int8 cache.
        assert_eq!(l.forward_with(&x, MathPolicy::Deterministic), det);
        let before = l.forward_with(&x, MathPolicy::Int8);
        l.set_weights(l.weights().scale(2.0), l.bias().clone());
        let after = l.forward_with(&x, MathPolicy::Int8);
        assert_ne!(before.data(), after.data(), "int8 cache went stale");
    }
}
