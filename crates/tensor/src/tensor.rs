//! Dense row-major `f32` tensor.

use crate::shape::Shape;
use crate::TensorError;
use rand::distributions::Distribution;
use rand::Rng;

/// A dense, row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// let u = t.map(|x| x + 1.0);
/// assert_eq!(u.sum(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a dimension list.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor of i.i.d. standard-normal samples drawn from `rng`.
    pub fn randn<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let normal = StandardNormal;
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| normal.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// A tensor of i.i.d. uniform samples in `[lo, hi)` drawn from `rng`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true; see [`Shape`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self
            .shape
            .offset(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for {}", self.shape));
        self.data[off]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self
            .shape
            .offset(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for {}", self.shape));
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadReshape`] if the element count changes.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.data.len(),
                to: shape.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert!(
            self.shape.same_dims(&other.shape),
            "zip_with shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| x * k)
    }

    /// Accumulates `k * other` into `self` (axpy). Used by SGD updates.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Tensor) {
        assert!(
            self.shape.same_dims(&other.shape),
            "axpy shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Adds `bias` (shape `[cols]`) to every row of a `[rows, cols]` matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 2 and `bias` is rank 1 with matching width.
    pub fn add_row_bias(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "add_row_bias needs a matrix");
        assert_eq!(bias.shape.rank(), 1, "bias must be a vector");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        assert_eq!(cols, bias.dims()[0], "bias width mismatch");
        let mut out = self.clone();
        for r in 0..rows {
            for c in 0..cols {
                out.data[r * cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Maximum element. For the scalar shape this is the single element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in flattened order (first on ties);
    /// see [`argmax_of`].
    pub fn argmax(&self) -> usize {
        argmax_of(&self.data)
    }

    /// Frobenius norm (L2 norm of the flattened data).
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sums a `[rows, cols]` matrix down its rows, producing `[cols]`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "sum_rows needs a matrix");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[cols]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c] += self.data[r * cols + c];
            }
        }
        out
    }

    /// Extracts row `r` of a `[rows, cols]` matrix as a `[cols]` vector.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 2 and `r` is in range.
    pub fn row(&self, r: usize) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "row needs a matrix");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        Tensor::from_vec(self.data[r * cols..(r + 1) * cols].to_vec(), &[cols])
    }

    /// Stacks rank-1 tensors of equal length into a `[n, len]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "stack_rows length mismatch");
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }
}

impl Default for Tensor {
    /// The scalar zero tensor.
    fn default() -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![0.0],
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())
    }
}

/// Index of the largest value in `xs`: the one argmax rule every served
/// label uses. A value replaces the current best only if strictly greater,
/// starting from index 0, so ties go to the first index and a leading NaN
/// (nothing compares greater than it) keeps index 0. Empty input is 0.
pub fn argmax_of(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Standard normal distribution via Box–Muller, avoiding a rand_distr dep.
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // Box–Muller transform; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.at(&[1, 1]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let u = t.reshape(&[2, 6]).unwrap();
        assert_eq!(u.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn row_bias_broadcasts() {
        let m = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = m.add_row_bias(&b);
        assert_eq!(out.row(0).data(), b.data());
        assert_eq!(out.row(1).data(), b.data());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[2, 2]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax(), 2);
        let frob = t.frobenius_norm();
        assert!((frob - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_of_keeps_the_first_strict_maximum() {
        // The loop `Tensor::argmax` carried before it delegated here.
        fn old_loop(xs: &[f32]) -> usize {
            let mut best = 0;
            for (i, &x) in xs.iter().enumerate() {
                if x > xs[best] {
                    best = i;
                }
            }
            best
        }
        let nan = f32::NAN;
        let ninf = f32::NEG_INFINITY;
        for (xs, want) in [
            (&[1.0, 3.0, 3.0, 2.0][..], 1), // ties: first index
            (&[nan, 1.0, 2.0][..], 0),      // leading NaN is never beaten
            (&[1.0, nan, 2.0][..], 2),      // a later NaN is skipped
            (&[ninf, ninf, ninf][..], 0),
            (&[-7.5][..], 0),
            (&[][..], 0),
        ] {
            assert_eq!(argmax_of(xs), want, "{xs:?}");
            assert_eq!(argmax_of(xs), old_loop(xs), "{xs:?}");
            if !xs.is_empty() {
                let t = Tensor::from_vec(xs.to_vec(), &[xs.len()]);
                assert_eq!(t.argmax(), want, "{xs:?}");
            }
        }
    }

    #[test]
    fn sum_rows_collapses() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(m.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn stack_rows_roundtrip() {
        let r0 = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let r1 = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let m = Tensor::stack_rows(&[r0.clone(), r1.clone()]);
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.row(0), r0);
        assert_eq!(m.row(1), r1);
    }

    #[test]
    fn randn_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(&[1000], -2.0, 3.0, &mut rng);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }
}
