//! Symmetric int8 quantization and the `i8×i8→i32` inference kernel
//! behind [`MathPolicy::Int8`](crate::MathPolicy::Int8).
//!
//! The paper's PipeStores run inference under TensorRT — a quantized
//! kernel stack — and low-precision arithmetic is the canonical lever
//! for compute-constrained near-data nodes. This module is the
//! reproduction's version of that lever for the *frozen* feature
//! extractor (training gradients stay f32):
//!
//! - **Per-tensor symmetric scale.** `scale = max|x| / 127`; values map
//!   to `q = round(x / scale)` in `[-127, 127]` (−128 unused, so the
//!   grid is symmetric and `x ≈ -x` quantizes to `q ≈ -q`). Weights are
//!   quantized once per `(w_version, policy)` cache entry; activations
//!   are quantized dynamically per batch.
//! - **Integer accumulation.** Each output is an exact `i8×i8→i32` dot
//!   over `k` — integer addition is associative, so the quantized path
//!   is bit-reproducible across hosts and thread counts by
//!   construction. (`k` must stay below ~2^17 to rule out i32 overflow;
//!   every model in this workspace is orders of magnitude smaller.)
//! - **Dequantize on write-back.** The i32 accumulator is scaled by
//!   `scale_a * scale_b` back to f32.
//!
//! The absolute error of one output element is bounded by
//! `k * (max|a|·s_b/2 + max|b|·s_a/2 + s_a·s_b/4)` — each factor is off
//! by at most half a quantization step. The accuracy gate for the whole
//! path is end-to-end: the mini-model experiments must preserve the
//! paper's accuracy ordering (Base ≥ NDPipe > Outdated) under `Int8`,
//! with the measured delta recorded in `BENCH_gemm_fast.json`.

use crate::linalg::count_gemm_flops;
use crate::pack::MatRef;
use crate::Tensor;

/// An int8-quantized matrix: row-major `i8` payload plus the per-tensor
/// dequantization scale (`x ≈ q * scale`). This is what the dnn crate's
/// frozen-layer weight cache stores under
/// [`MathPolicy::Int8`](crate::MathPolicy::Int8).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    data: Vec<i8>,
    rows: usize,
    cols: usize,
    scale: f32,
}

impl QuantizedMatrix {
    /// Quantizes a rank-2 tensor with a per-tensor symmetric scale.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is rank 2.
    pub fn quantize(t: &Tensor) -> Self {
        assert_eq!(
            t.shape().rank(),
            2,
            "QuantizedMatrix::quantize needs a matrix"
        );
        quantize_view(&MatRef::row_major(t.data(), t.dims()[0], t.dims()[1]))
    }

    /// Reconstructs the f32 tensor (`q * scale`); each element is within
    /// half a quantization step of the original.
    pub fn dequantize(&self) -> Tensor {
        let data = self.data.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(data, &[self.rows, self.cols])
    }

    /// Logical dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The dequantization scale (`x ≈ q * scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bytes of quantized payload (cache accounting: 4× smaller than the
    /// f32 weights it replaces).
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Quantizes a strided view (rows become contiguous in the output, so a
/// transposed view yields the transposed quantized matrix).
pub(crate) fn quantize_view(v: &MatRef<'_>) -> QuantizedMatrix {
    let max_abs = if v.cs == 1 && v.rs == v.cols {
        // Contiguous row-major: one linear pass.
        v.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    } else {
        let mut m = 0.0f32;
        for r in 0..v.rows {
            for c in 0..v.cols {
                m = m.max(v.at(r, c).abs());
            }
        }
        m
    };
    // An all-zero (or empty) matrix has no scale to recover; 1.0 keeps
    // dequantization exact for it.
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let inv = 1.0 / scale;
    let mut data = Vec::with_capacity(v.rows * v.cols);
    if v.cs == 1 {
        for r in 0..v.rows {
            let row = &v.data[r * v.rs..r * v.rs + v.cols];
            data.extend(row.iter().map(|&x| quantize_one(x, inv)));
        }
    } else {
        for r in 0..v.rows {
            for c in 0..v.cols {
                data.push(quantize_one(v.at(r, c), inv));
            }
        }
    }
    QuantizedMatrix {
        data,
        rows: v.rows,
        cols: v.cols,
        scale,
    }
}

#[inline]
fn quantize_one(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round().clamp(-127.0, 127.0) as i8
}

/// `a @ b` through the int8 path: both operands are dynamically
/// quantized (a row-major, b transposed so its columns become contiguous
/// `k`-vectors), multiplied with exact integer accumulation, and
/// dequantized.
pub(crate) fn gemm_int8(a: &MatRef<'_>, b: &MatRef<'_>) -> Tensor {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(b.rows, k);
    let aq = quantize_view(a);
    // Transpose the [k, n] view so row j of bq is column j of b,
    // k-contiguous for the dot kernel.
    let bt = MatRef {
        data: b.data,
        rows: b.cols,
        cols: b.rows,
        rs: b.cs,
        cs: b.rs,
    };
    let bq = quantize_view(&bt);
    count_gemm_flops(m, n, k, true);
    let out = matmul_quantized(&aq, &bq);
    debug_assert_eq!(out.dims(), &[m, n]);
    out
}

/// `x @ wᵀ` with a pre-quantized weight (`wq` holds `[n, k]`, the linear
/// layer's `[out, in]` weight quantized as-is) — the frozen-layer cached
/// fast path under [`MathPolicy::Int8`](crate::MathPolicy::Int8). `x` is
/// quantized dynamically per call.
///
/// # Panics
///
/// Panics unless `x` is rank 2 with `x.dims()[1] == wq.dims().1`.
pub fn matmul_nt_quant(x: &Tensor, wq: &QuantizedMatrix) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "matmul_nt_quant lhs must be a matrix");
    let (m, k) = (x.dims()[0], x.dims()[1]);
    let (n, wk) = wq.dims();
    assert_eq!(k, wk, "matmul_nt_quant inner dimension mismatch");
    let xq = quantize_view(&MatRef::row_major(x.data(), m, k));
    count_gemm_flops(m, n, k, true);
    matmul_quantized(&xq, wq)
}

/// Core kernel: `aq: [m, k]` × `bqᵀ: [n, k]` (both row-major over `k`),
/// i32 accumulation, dequant on write-back.
fn matmul_quantized(aq: &QuantizedMatrix, bq: &QuantizedMatrix) -> Tensor {
    let (m, k) = aq.dims();
    let (n, _) = bq.dims();
    let rescale = aq.scale() * bq.scale();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = aq.row(i);
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = bq.row(j);
            let mut acc = 0i32;
            // i8×i8 products fit i16; LLVM turns this widening dot into
            // pmaddwd-style vector code without hand-written intrinsics.
            for kk in 0..k {
                acc += arow[kk] as i32 * brow[kk] as i32;
            }
            *o = acc as f32 * rescale;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Gemm;
    use crate::MathPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[13, 9], &mut rng);
        let q = QuantizedMatrix::quantize(&t);
        let back = q.dequantize();
        let half_step = q.scale() / 2.0 * 1.0001;
        for (&x, &y) in t.data().iter().zip(back.data()) {
            assert!((x - y).abs() <= half_step, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_matrix_quantizes_exactly() {
        let t = Tensor::zeros(&[3, 4]);
        let q = QuantizedMatrix::quantize(&t);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn extremes_hit_full_range() {
        let t = Tensor::from_vec(vec![2.0, -2.0, 1.0, 0.0], &[2, 2]);
        let q = QuantizedMatrix::quantize(&t);
        let back = q.dequantize();
        // max|x| maps to exactly ±127 steps, so the extremes round-trip.
        assert_eq!(back.at(&[0, 0]), 2.0);
        assert_eq!(back.at(&[0, 1]), -2.0);
    }

    #[test]
    fn nt_kernel_matches_int8_gemm_builder() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(&[6, 20], &mut rng);
        let w = Tensor::randn(&[11, 20], &mut rng); // [out, in]
        let wq = QuantizedMatrix::quantize(&w);
        let cached = matmul_nt_quant(&x, &wq);
        let builder = Gemm::new(&x, &w)
            .transpose_b()
            .policy(MathPolicy::Int8)
            .run();
        // Same quantization decisions on both routes → identical output.
        assert_eq!(cached, builder);
    }

    #[test]
    fn payload_is_quarter_of_f32() {
        let t = Tensor::zeros(&[8, 16]);
        let q = QuantizedMatrix::quantize(&t);
        assert_eq!(q.payload_bytes() * 4, t.len() * 4);
        assert_eq!(q.payload_bytes(), 8 * 16);
    }
}
