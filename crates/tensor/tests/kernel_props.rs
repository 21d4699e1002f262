//! Property tests of the tensor kernels against naive reference
//! implementations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::linalg::Gemm;
use tensor::{activation, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-entropy gradients match central finite differences at
    /// random points.
    #[test]
    fn ce_grad_matches_finite_difference(seed in 0u64..300, rows in 1usize..5, cols in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Tensor::randn(&[rows, cols], &mut rng);
        let labels: Vec<usize> = (0..rows).map(|i| i % cols).collect();
        let grad = activation::cross_entropy_grad(&logits, &labels);
        let eps = 1e-2;
        // Spot-check one coordinate per row.
        for r in 0..rows {
            let i = r * cols + (r + 1) % cols;
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let num = (activation::cross_entropy(&plus, &labels)
                - activation::cross_entropy(&minus, &labels))
                / (2.0 * eps);
            prop_assert!((num - grad.data()[i]).abs() < 5e-3, "{} vs {}", num, grad.data()[i]);
        }
    }

    /// `matmul(A, B)` rows are linear: scaling A's row scales the output
    /// row.
    #[test]
    fn matmul_row_linearity(seed in 0u64..500, k in 1usize..6, scale in -4.0f32..4.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[2, k], &mut rng);
        let b = Tensor::randn(&[k, 3], &mut rng);
        let base = Gemm::new(&a, &b).run();
        let mut scaled = a.clone();
        for x in &mut scaled.data_mut()[..k] {
            *x *= scale;
        }
        let out = Gemm::new(&scaled, &b).run();
        for j in 0..3 {
            prop_assert!((out.at(&[0, j]) - scale * base.at(&[0, j])).abs() < 1e-3);
            prop_assert!((out.at(&[1, j]) - base.at(&[1, j])).abs() < 1e-5);
        }
    }
}
