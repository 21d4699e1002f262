//! Drifting class-prototype generator.
//!
//! Classes are Gaussian prototypes in a latent space; an "image" is a
//! latent sample pushed through a fixed random nonlinear rendering map.
//! A feature extractor must (approximately) invert the rendering, which is
//! what makes full training meaningfully better than classifier-only
//! fine-tuning — exactly the gap the paper's Table 2 shows between `Full`
//! and `NDPipe`.
//!
//! Drift has the two ingredients of §2.2:
//! - *input-distribution drift*: prototypes perform a random walk,
//! - *new categories*: emerging classes outside the initial label space.

use rand::Rng;
use tensor::Tensor;

/// A universe of classes over a latent space with a fixed rendering map.
///
/// # Example
///
/// ```
/// use ndpipe_data::ClassUniverse;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let u = ClassUniverse::new(16, 8, 10, 0.3, &mut rng);
/// let x = u.sample(3, &mut rng);
/// assert_eq!(x.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ClassUniverse {
    input_dim: usize,
    latent_dim: usize,
    noise_sigma: f32,
    prototypes: Vec<Tensor>,
    /// Fixed rendering matrix `[input_dim, latent_dim]`.
    render: Tensor,
    /// Fixed rendering bias `[input_dim]`.
    render_bias: Tensor,
}

impl ClassUniverse {
    /// Creates a universe of `classes` prototypes.
    ///
    /// `noise_sigma` controls class overlap: small values give separable
    /// (CIFAR-100-like) problems, large values give hard
    /// (ImageNet-21K-like) problems.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the class count is zero, or
    /// `noise_sigma` is negative.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        latent_dim: usize,
        classes: usize,
        noise_sigma: f32,
        rng: &mut R,
    ) -> Self {
        assert!(
            input_dim > 0 && latent_dim > 0,
            "dimensions must be positive"
        );
        assert!(classes > 0, "need at least one class");
        assert!(noise_sigma >= 0.0, "noise must be non-negative");
        let prototypes = (0..classes)
            .map(|_| Tensor::randn(&[latent_dim], rng))
            .collect();
        let render =
            Tensor::randn(&[input_dim, latent_dim], rng).scale(1.0 / (latent_dim as f32).sqrt());
        let render_bias = Tensor::randn(&[input_dim], rng).scale(0.1);
        ClassUniverse {
            input_dim,
            latent_dim,
            noise_sigma,
            prototypes,
            render,
            render_bias,
        }
    }

    /// Number of classes currently in the universe.
    pub fn classes(&self) -> usize {
        self.prototypes.len()
    }

    /// Input ("image") dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Draws one rendered sample of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn sample<R: Rng + ?Sized>(&self, class: usize, rng: &mut R) -> Tensor {
        assert!(class < self.prototypes.len(), "class {class} out of range");
        let mut z = self.prototypes[class].clone();
        let eps = Tensor::randn(&[self.latent_dim], rng).scale(self.noise_sigma);
        z.axpy(1.0, &eps);
        self.render_latent(&z)
    }

    /// Renders a latent vector to input space: `tanh(A z + b)`.
    fn render_latent(&self, z: &Tensor) -> Tensor {
        let zm = z
            .reshape(&[self.latent_dim, 1])
            .expect("latent is a vector");
        let x = tensor::linalg::Gemm::new(&self.render, &zm)
            .run()
            .reshape(&[self.input_dim])
            .expect("render output is a vector");
        x.add(&self.render_bias).map(f32::tanh)
    }

    /// Random-walks every prototype by `rate` (input-distribution drift).
    pub fn drift<R: Rng + ?Sized>(&mut self, rate: f32, rng: &mut R) {
        for p in &mut self.prototypes {
            let step = Tensor::randn(&[self.latent_dim], rng).scale(rate);
            p.axpy(1.0, &step);
        }
    }

    /// Adds a brand-new class (an emerging category) and returns its id.
    pub fn add_class<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        self.prototypes.push(Tensor::randn(&[self.latent_dim], rng));
        self.prototypes.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn universe(sigma: f32) -> (ClassUniverse, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let u = ClassUniverse::new(32, 12, 8, sigma, &mut rng);
        (u, rng)
    }

    #[test]
    fn samples_have_input_dim_and_bounded_range() {
        let (u, mut rng) = universe(0.3);
        let x = u.sample(0, &mut rng);
        assert_eq!(x.len(), 32);
        assert!(x.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn same_class_samples_are_closer_than_cross_class() {
        let (u, mut rng) = universe(0.2);
        let mut within = 0.0;
        let mut across = 0.0;
        let n = 30;
        for _ in 0..n {
            let a = u.sample(1, &mut rng);
            let b = u.sample(1, &mut rng);
            let c = u.sample(5, &mut rng);
            within += a.sub(&b).frobenius_norm();
            across += a.sub(&c).frobenius_norm();
        }
        assert!(
            within < across,
            "within {within} should be < across {across}"
        );
    }

    #[test]
    fn drift_moves_prototypes() {
        let (mut u, mut rng) = universe(0.2);
        let before = u.prototypes[0].clone();
        u.drift(0.5, &mut rng);
        let moved = u.prototypes[0].sub(&before).frobenius_norm();
        assert!(moved > 0.0);
    }

    #[test]
    fn zero_drift_is_identity_scale() {
        let (mut u, mut rng) = universe(0.2);
        let before = u.prototypes[0].clone();
        u.drift(0.0, &mut rng);
        assert_eq!(u.prototypes[0], before);
    }

    #[test]
    fn add_class_extends_universe() {
        let (mut u, mut rng) = universe(0.2);
        let n = u.classes();
        let id = u.add_class(&mut rng);
        assert_eq!(id, n);
        assert_eq!(u.classes(), n + 1);
        // Samples of the new class are valid.
        let x = u.sample(id, &mut rng);
        assert_eq!(x.len(), 32);
    }

    #[test]
    fn noisier_universe_has_more_overlap() {
        let (clean, mut rng1) = universe(0.05);
        let (noisy, mut rng2) = universe(1.5);
        // Ratio of within-class spread to prototype distance grows with sigma.
        let spread = |u: &ClassUniverse, rng: &mut StdRng| {
            let a = u.sample(0, rng);
            let b = u.sample(0, rng);
            a.sub(&b).frobenius_norm()
        };
        let s_clean: f32 = (0..20).map(|_| spread(&clean, &mut rng1)).sum();
        let s_noisy: f32 = (0..20).map(|_| spread(&noisy, &mut rng2)).sum();
        assert!(s_noisy > s_clean);
    }
}
