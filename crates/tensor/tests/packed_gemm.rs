//! Property tests of the packed-panel GEMM driver against a naive
//! triple-loop oracle, over adversarial shapes, plus determinism checks
//! across worker counts.
//!
//! Bit-equality (not tolerance) is the contract, so every product here
//! pins [`MathPolicy::Deterministic`]: under that policy every kernel
//! path — portable, AVX-dispatched, serial, pooled — accumulates each
//! output element over k in ascending order with separate multiply and
//! add, so all paths execute the identical IEEE operation sequence per
//! element. The opt-in fast families are tolerance-gated separately in
//! `tests/fast_math.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::linalg::{transpose, Gemm};
use tensor::pack::PackedB;
use tensor::{MathPolicy, Tensor};

/// Naive j-inner triple loop, accumulating over k ascending — the same
/// per-element operation order the microkernel guarantees.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.at(&[i, p]) * b.at(&[p, j]);
            }
            out.set(&[i, j], acc);
        }
    }
    out
}

fn det<'a>(a: &'a Tensor, b: &'a Tensor) -> Gemm<'a> {
    Gemm::new(a, b).policy(MathPolicy::Deterministic)
}

/// Shapes the blocking logic finds adversarial: unit dims, dims straddling
/// the MR=4 / NR=8 panel edges, primes, and tall/skinny aspect ratios.
const EDGE_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 17, 1),
    (1, 5, 23),  // m = 1: a single ragged A panel
    (23, 5, 1),  // n = 1: a single ragged B panel
    (3, 7, 5),   // everything below one full panel
    (4, 8, 8),   // exactly one full MR x NR tile
    (5, 9, 9),   // one past every panel edge
    (13, 31, 7), // primes
    (37, 2, 41),
    (97, 3, 2), // tall and skinny
    (2, 3, 97), // short and wide
];

#[test]
fn edge_shapes_match_naive_for_all_layouts() {
    let mut rng = StdRng::seed_from_u64(9001);
    for &(m, k, n) in EDGE_SHAPES {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let want = naive_matmul(&a, &b);
        assert_eq!(
            det(&a, &b).run().data(),
            want.data(),
            "nn layout diverged at {m}x{k}x{n}"
        );
        let at = transpose(&a);
        assert_eq!(
            det(&at, &b).transpose_a().run().data(),
            want.data(),
            "tn layout diverged at {m}x{k}x{n}"
        );
        let bt = transpose(&b);
        assert_eq!(
            det(&a, &bt).transpose_b().run().data(),
            want.data(),
            "nt layout diverged at {m}x{k}x{n}"
        );
        assert_eq!(
            Gemm::prepacked_b(&a, &PackedB::pack(&b))
                .policy(MathPolicy::Deterministic)
                .run()
                .data(),
            want.data(),
            "prepacked B diverged at {m}x{k}x{n}"
        );
    }
}

/// The parallel band split must be invisible: products big enough to
/// cross the parallel threshold are bit-identical at every worker count.
#[test]
fn parallel_products_are_bit_identical_across_worker_counts() {
    let mut rng = StdRng::seed_from_u64(9002);
    // Both cross the 2*m*n*k >= 2^21 parallel threshold; the second is
    // tall/skinny so the band split hits ragged final bands.
    for &(m, k, n) in &[(128, 96, 96), (517, 600, 9)] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let serial = det(&a, &b).threads(1).run();
        for threads in [2usize, 8] {
            assert_eq!(
                det(&a, &b).threads(threads).run().data(),
                serial.data(),
                "matmul not deterministic at {m}x{k}x{n}, {threads} threads"
            );
        }
        let at = transpose(&a);
        let tn_serial = det(&at, &b).transpose_a().threads(1).run();
        assert_eq!(tn_serial.data(), serial.data());
        let bt = transpose(&b);
        let nt_serial = det(&a, &bt).transpose_b().threads(1).run();
        assert_eq!(nt_serial.data(), serial.data());
        for threads in [2usize, 8] {
            assert_eq!(
                det(&at, &b).transpose_a().threads(threads).run().data(),
                serial.data(),
                "tn not deterministic at {m}x{k}x{n}, {threads} threads"
            );
            assert_eq!(
                det(&a, &bt).transpose_b().threads(threads).run().data(),
                serial.data(),
                "nt not deterministic at {m}x{k}x{n}, {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed kernel agrees bit-for-bit with the naive oracle on
    /// arbitrary small shapes.
    #[test]
    fn matmul_matches_naive(
        seed in 0u64..1000,
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let got = det(&a, &b).run();
        let want = naive_matmul(&a, &b);
        prop_assert_eq!(got.data(), want.data());
    }

    /// The transposed-operand layouts agree with multiplying explicit
    /// transposes, so all three layouts share one kernel's semantics.
    #[test]
    fn tn_and_nt_match_explicit_transposes(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = Tensor::randn(&[k, m], &mut rng); // aᵀ stored [k, m]
        let bt = Tensor::randn(&[n, k], &mut rng); // bᵀ stored [n, k]
        let a = transpose(&at);
        let b = transpose(&bt);
        let want = naive_matmul(&a, &b);
        let tn = det(&at, &b).transpose_a().run();
        prop_assert_eq!(tn.data(), want.data());
        let nt = det(&a, &bt).transpose_b().run();
        prop_assert_eq!(nt.data(), want.data());
    }

    /// Prepacking the right operand changes nothing about the product.
    #[test]
    fn prepacked_operands_are_transparent(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let want = det(&a, &b).run();
        let pb = PackedB::pack(&b);
        let via_pb = Gemm::prepacked_b(&a, &pb)
            .policy(MathPolicy::Deterministic)
            .run();
        prop_assert_eq!(via_pb.data(), want.data());
        let bt = transpose(&b);
        let pbt = PackedB::pack_nt(&bt);
        let via_pbt = Gemm::prepacked_b(&a, &pbt)
            .policy(MathPolicy::Deterministic)
            .run();
        prop_assert_eq!(via_pbt.data(), want.data());
    }

    /// Blocked transpose round-trips and matches the naive definition.
    #[test]
    fn transpose_is_an_involution(
        seed in 0u64..1000,
        m in 1usize..70,
        n in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, n], &mut rng);
        let t = transpose(&a);
        prop_assert_eq!(t.dims(), &[n, m]);
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(a.at(&[i, j]), t.at(&[j, i]));
            }
        }
        let back = transpose(&t);
        prop_assert_eq!(back.data(), a.data());
    }

    /// Explicit worker budgets never change the product, even below the
    /// parallel threshold (where they must collapse to the serial path).
    #[test]
    fn thread_budget_is_invisible(
        seed in 0u64..1000,
        m in 1usize..32,
        k in 1usize..32,
        n in 1usize..32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let serial = det(&a, &b).threads(1).run();
        for threads in [2usize, 8] {
            let pooled = det(&a, &b).threads(threads).run();
            prop_assert_eq!(pooled.data(), serial.data());
        }
    }
}
