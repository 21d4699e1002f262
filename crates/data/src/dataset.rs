//! Labeled datasets and the day-by-day drift scenario of §3.

use crate::synth::ClassUniverse;
use rand::seq::SliceRandom;
use rand::Rng;
use tensor::Tensor;

/// A labeled dataset: a `[n, input_dim]` feature matrix plus one integer
/// label per row, over a label space of `num_classes`.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    features: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl LabeledDataset {
    /// Builds a dataset from rows and labels.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, lengths mismatch, or a label is out of
    /// range.
    pub fn new(rows: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert!(!rows.is_empty(), "dataset cannot be empty");
        assert_eq!(rows.len(), labels.len(), "one label per row required");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        LabeledDataset {
            features: Tensor::stack_rows(&rows),
            labels,
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no examples (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.features.dims()[1]
    }

    /// Size of the label space.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The stacked `[n, input_dim]` feature matrix.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The labels, one per row.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Iterates over `(features, labels)` mini-batches of size `batch`.
    ///
    /// The final batch may be smaller. Batches preserve row order; shuffle
    /// first for SGD.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn batches(&self, batch: usize) -> impl Iterator<Item = (Tensor, &[usize])> + '_ {
        assert!(batch > 0, "batch size must be positive");
        let n = self.len();
        let dim = self.input_dim();
        (0..n).step_by(batch).map(move |start| {
            let end = (start + batch).min(n);
            let rows = end - start;
            let slice = self.features.data()[start * dim..end * dim].to_vec();
            (
                Tensor::from_vec(slice, &[rows, dim]),
                &self.labels[start..end],
            )
        })
    }

    /// Returns a shuffled copy.
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> LabeledDataset {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        self.select(&order)
    }

    /// Returns the rows at `indices` (in that order).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> LabeledDataset {
        assert!(!indices.is_empty(), "selection cannot be empty");
        let dim = self.input_dim();
        let mut data = Vec::with_capacity(indices.len() * dim);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of bounds");
            data.extend_from_slice(&self.features.data()[i * dim..(i + 1) * dim]);
            labels.push(self.labels[i]);
        }
        LabeledDataset {
            features: Tensor::from_vec(data, &[indices.len(), dim]),
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Splits into `k` nearly equal contiguous shards (for distributing
    /// local batches across PipeStores, and for the `N_run` sub-datasets
    /// of pipelined FT-DMP).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > len`.
    pub fn shards(&self, k: usize) -> Vec<LabeledDataset> {
        assert!(k > 0, "need at least one shard");
        assert!(k <= self.len(), "more shards than examples");
        let n = self.len();
        let base = n / k;
        let rem = n % k;
        let mut out = Vec::with_capacity(k);
        let mut start = 0;
        for s in 0..k {
            let size = base + usize::from(s < rem);
            let idx: Vec<usize> = (start..start + size).collect();
            out.push(self.select(&idx));
            start += size;
        }
        out
    }

    /// Concatenates datasets over the same feature space. The label space
    /// becomes the maximum of the parts'.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or feature dims differ.
    pub fn concat(parts: &[LabeledDataset]) -> LabeledDataset {
        assert!(!parts.is_empty(), "nothing to concatenate");
        let dim = parts[0].input_dim();
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut classes = 0;
        for p in parts {
            assert_eq!(p.input_dim(), dim, "feature dim mismatch");
            data.extend_from_slice(p.features.data());
            labels.extend_from_slice(&p.labels);
            classes = classes.max(p.num_classes);
        }
        let n = labels.len();
        LabeledDataset {
            features: Tensor::from_vec(data, &[n, dim]),
            labels,
            num_classes: classes,
        }
    }

    /// Re-labels the dataset into a wider label space.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is smaller than the current label space.
    pub fn widened(&self, num_classes: usize) -> LabeledDataset {
        assert!(
            num_classes >= self.num_classes,
            "cannot narrow the label space"
        );
        LabeledDataset {
            features: self.features.clone(),
            labels: self.labels.clone(),
            num_classes,
        }
    }
}

/// Day-by-day data evolution following §3.2 of the paper:
///
/// - the photo pool grows by [`DriftScenario::DAILY_GROWTH`] per day,
/// - [`DriftScenario::NEW_CATEGORY_FRAC`] of newly added photos belong to
///   categories outside the initial label space,
/// - the underlying distribution random-walks a little every day.
///
/// # Example
///
/// ```
/// use ndpipe_data::{DriftScenario, DatasetSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut sc = DriftScenario::new(DatasetSpec::tiny(), 200, &mut rng);
/// let before = sc.pool_size();
/// sc.advance_day(&mut rng);
/// assert!(sc.pool_size() > before);
/// ```
#[derive(Debug)]
pub struct DriftScenario {
    universe: ClassUniverse,
    initial_classes: usize,
    /// All (class, feature) pairs stored so far, in upload order.
    pool: Vec<(usize, Tensor)>,
    day: usize,
    samples_per_test: usize,
    drift_rate: f32,
}

impl DriftScenario {
    /// Daily growth of the stored-photo pool (paper: 1.78 %).
    pub const DAILY_GROWTH: f64 = 0.0178;
    /// Fraction of newly added photos in brand-new categories (paper: 5.3 %).
    pub const NEW_CATEGORY_FRAC: f64 = 0.053;

    /// Creates a scenario with an initial pool of `initial_pool` photos
    /// drawn uniformly over the spec's initial classes.
    ///
    /// # Panics
    ///
    /// Panics if `initial_pool` is zero.
    pub fn new<R: Rng + ?Sized>(
        spec: crate::spec::DatasetSpec,
        initial_pool: usize,
        rng: &mut R,
    ) -> Self {
        assert!(initial_pool > 0, "initial pool cannot be empty");
        let universe = ClassUniverse::new(
            spec.input_dim,
            spec.latent_dim,
            spec.initial_classes,
            spec.noise_sigma,
            rng,
        );
        let mut pool = Vec::with_capacity(initial_pool);
        for i in 0..initial_pool {
            let class = i % spec.initial_classes;
            let x = universe.sample(class, rng);
            pool.push((class, x));
        }
        DriftScenario {
            universe,
            initial_classes: spec.initial_classes,
            pool,
            day: 0,
            samples_per_test: spec.test_samples,
            drift_rate: spec.daily_drift,
        }
    }

    /// The current day (0 = scenario start).
    pub fn day(&self) -> usize {
        self.day
    }

    /// Number of photos stored so far.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// The `i`-th stored item: `(ground-truth class, features)`. Items
    /// are indexed in upload order, which systems use as the photo id.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn pool_item(&self, i: usize) -> (usize, &Tensor) {
        let (class, x) = &self.pool[i];
        (*class, x)
    }

    /// Number of classes in the initial label space.
    pub fn initial_classes(&self) -> usize {
        self.initial_classes
    }

    /// Number of classes that exist today (initial + emerged).
    pub fn current_classes(&self) -> usize {
        self.universe.classes()
    }

    /// Read access to the evolving universe.
    pub fn universe(&self) -> &ClassUniverse {
        &self.universe
    }

    /// Advances one day: drift the distribution, then add
    /// `ceil(pool × 1.78 %)` new photos, 5.3 % of them in new categories.
    pub fn advance_day<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.day += 1;
        self.universe.drift(self.drift_rate, rng);
        let added = ((self.pool.len() as f64 * Self::DAILY_GROWTH).ceil() as usize).max(1);
        for _ in 0..added {
            // Each upload is an emerging-category photo with prob 5.3 %,
            // so the rate holds at any pool scale.
            let class = if rng.gen_bool(Self::NEW_CATEGORY_FRAC) {
                if self.universe.classes() > self.initial_classes && rng.gen_bool(0.7) {
                    // Usually another photo of an already-emerged class.
                    rng.gen_range(self.initial_classes..self.universe.classes())
                } else {
                    self.universe.add_class(rng)
                }
            } else {
                rng.gen_range(0..self.universe.classes())
            };
            let x = self.universe.sample(class, rng);
            self.pool.push((class, x));
        }
    }

    /// The training set visible at scenario start (the paper's "initial
    /// model trains with 78 % of the total dataset" setup is expressed by
    /// choosing `initial_pool` accordingly).
    pub fn train_set(&self) -> LabeledDataset {
        self.dataset_over(&self.pool)
    }

    /// The most recent `n` uploads (for fine-tuning on fresh data).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn recent_train_set(&self, n: usize) -> LabeledDataset {
        assert!(n > 0, "need at least one example");
        let start = self.pool.len().saturating_sub(n);
        self.dataset_over(&self.pool[start..])
    }

    /// Draws a fresh test set reflecting *today's* class mix: classes are
    /// sampled in proportion to their share of the stored pool, features
    /// from today's (drifted) distribution.
    pub fn test_set<R: Rng + ?Sized>(&self, rng: &mut R) -> LabeledDataset {
        let mut rows = Vec::with_capacity(self.samples_per_test);
        let mut labels = Vec::with_capacity(self.samples_per_test);
        for _ in 0..self.samples_per_test {
            let &(class, _) = &self.pool[rng.gen_range(0..self.pool.len())];
            rows.push(self.universe.sample(class, rng));
            labels.push(class);
        }
        LabeledDataset::new(rows, labels, self.universe.classes())
    }

    fn dataset_over(&self, items: &[(usize, Tensor)]) -> LabeledDataset {
        let rows: Vec<Tensor> = items.iter().map(|(_, x)| x.clone()).collect();
        let labels: Vec<usize> = items.iter().map(|(c, _)| *c).collect();
        LabeledDataset::new(rows, labels, self.universe.classes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> LabeledDataset {
        let rows: Vec<Tensor> = (0..10)
            .map(|i| Tensor::from_vec(vec![i as f32, (i * 2) as f32], &[2]))
            .collect();
        let labels = (0..10).map(|i| i % 3).collect();
        LabeledDataset::new(rows, labels, 3)
    }

    #[test]
    fn construction_invariants() {
        let d = small();
        assert_eq!(d.len(), 10);
        assert_eq!(d.input_dim(), 2);
        assert_eq!(d.num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        let rows = vec![Tensor::zeros(&[2])];
        let _ = LabeledDataset::new(rows, vec![5], 3);
    }

    #[test]
    fn batches_cover_everything() {
        let d = small();
        let mut seen = 0;
        for (x, y) in d.batches(3) {
            assert_eq!(x.dims()[0], y.len());
            seen += y.len();
        }
        assert_eq!(seen, 10);
        // Last batch is the remainder.
        let sizes: Vec<usize> = d.batches(3).map(|(_, y)| y.len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn shards_partition_the_data() {
        let d = small();
        let shards = d.shards(3);
        assert_eq!(shards.len(), 3);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, d.len());
        // Sizes differ by at most one.
        let min = shards.iter().map(|s| s.len()).min().unwrap();
        let max = shards.iter().map(|s| s.len()).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn select_and_shuffle_preserve_pairing() {
        let d = small();
        let mut rng = StdRng::seed_from_u64(3);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), d.len());
        // Every (feature, label) pair in the shuffle exists in the source.
        for i in 0..s.len() {
            let row = s.features().row(i);
            let found =
                (0..d.len()).any(|j| d.features().row(j) == row && d.labels()[j] == s.labels()[i]);
            assert!(found, "row {i} lost its label");
        }
    }

    #[test]
    fn concat_and_widen() {
        let d = small();
        let c = LabeledDataset::concat(&[d.clone(), d.clone()]);
        assert_eq!(c.len(), 20);
        let w = d.widened(10);
        assert_eq!(w.num_classes(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot narrow")]
    fn widen_cannot_narrow() {
        let _ = small().widened(2);
    }

    #[test]
    fn scenario_grows_and_adds_classes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sc = DriftScenario::new(DatasetSpec::tiny(), 300, &mut rng);
        let classes0 = sc.current_classes();
        for _ in 0..14 {
            sc.advance_day(&mut rng);
        }
        assert_eq!(sc.day(), 14);
        // ~1.78%/day over 14 days ≈ 28% growth.
        let grown = sc.pool_size() as f64 / 300.0;
        assert!((1.2..1.4).contains(&grown), "growth factor {grown}");
        assert!(sc.current_classes() > classes0, "no classes emerged");
    }

    #[test]
    fn test_set_reflects_new_classes_eventually() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut sc = DriftScenario::new(DatasetSpec::tiny(), 500, &mut rng);
        for _ in 0..20 {
            sc.advance_day(&mut rng);
        }
        let t = sc.test_set(&mut rng);
        assert_eq!(t.num_classes(), sc.current_classes());
        // With 20 days of additions some test labels should be emerging
        // classes (not guaranteed per-sample; check label space grew).
        assert!(t.num_classes() > sc.initial_classes());
    }

    #[test]
    fn recent_train_set_takes_tail() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut sc = DriftScenario::new(DatasetSpec::tiny(), 100, &mut rng);
        sc.advance_day(&mut rng);
        let recent = sc.recent_train_set(10);
        assert_eq!(recent.len(), 10);
    }
}
