//! Panel packing and thread-local scratch for the packed GEMM kernel.
//!
//! The [`crate::linalg`] microkernel multiplies an `MR×k` micro-panel of A
//! by a `k×NR` micro-panel of B into an `MR×NR` register tile. This module
//! produces those panels:
//!
//! - **A panels** (`pack_a_panels`): groups of [`MR`] rows, stored
//!   k-major — for each `kk`, the `MR` row elements are adjacent — so the
//!   microkernel loads one contiguous `[f32; MR]` per k step.
//! - **B panels** (`pack_b_panels`): groups of [`NR`] columns, stored
//!   k-major — for each `kk`, the `NR` column elements are adjacent — so
//!   the inner loop is a contiguous `[f32; NR]` vector op.
//!
//! Edge panels (when `m % MR != 0` or `n % NR != 0`) are zero-padded:
//! the microkernel always computes a full tile and the driver masks the
//! write-back, so there is no scalar edge path.
//!
//! Packing reads the source through [`MatRef`], a strided view. That is
//! what lets one kernel serve `matmul` (both operands natural),
//! `matmul_tn` (A read column-major from a `[k, m]` buffer) and
//! `matmul_nt` (B read column-major from an `[n, k]` buffer): transposes
//! are absorbed into the pack strides and never materialized.
//!
//! Scratch buffers ([`with_pack_a`], [`with_pack_b`]) are thread-local
//! and keep their capacity across calls, so steady-state GEMM does no
//! per-call allocation. They are distinct cells because they nest: a
//! band packs its rows of A while the call holds the packed B.

use crate::Tensor;
use std::cell::RefCell;

/// Micro-tile rows: each microkernel invocation produces `MR` output rows.
pub const MR: usize = 4;
/// Micro-tile columns: the innermost loop is an `NR`-wide f32 vector op.
/// Sized so the `MR×NR` f32 accumulator fits the baseline x86-64 SSE2
/// register file with room for the A broadcast and B row.
pub const NR: usize = 8;

/// Wide micro-tile columns for the fast kernel family: one AVX-512 zmm
/// (or two ymm) per accumulator row. B packed at this width feeds the
/// fast microkernels with a single contiguous load per k step.
pub const WR: usize = 2 * NR;

/// Borrowed strided matrix view: element `(r, c)` is
/// `data[r * rs + c * cs]`. Lets the packers read natural and transposed
/// operands with the same code.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef<'a> {
    pub data: &'a [f32],
    pub rows: usize,
    pub cols: usize,
    pub rs: usize,
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// Natural view of a row-major `[rows, cols]` buffer.
    pub fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        MatRef {
            data,
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// Transposed view of a row-major `[cols, rows]` buffer: the view is
    /// `[rows, cols]` but walks the buffer column-first.
    pub fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        MatRef {
            data,
            rows,
            cols,
            rs: 1,
            cs: rows,
        }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// Packs rows `r0..r1` of `a` into `MR`-row micro-panels, k-major,
/// zero-padding the final panel. `buf` is resized to exactly
/// `ceil((r1-r0)/MR) * MR * a.cols`.
pub(crate) fn pack_a_panels(a: &MatRef<'_>, r0: usize, r1: usize, buf: &mut Vec<f32>) {
    let rows = r1 - r0;
    let k = a.cols;
    let panels = rows.div_ceil(MR);
    buf.clear();
    buf.resize(panels * MR * k, 0.0);
    for p in 0..panels {
        let base = p * MR * k;
        let pr0 = r0 + p * MR;
        let pr_n = MR.min(r1 - pr0);
        if a.cs == 1 {
            // Natural rows are contiguous: walk each row once.
            for r in 0..pr_n {
                let src = &a.data[(pr0 + r) * a.rs..(pr0 + r) * a.rs + k];
                for (kk, &v) in src.iter().enumerate() {
                    buf[base + kk * MR + r] = v;
                }
            }
        } else {
            for kk in 0..k {
                for r in 0..pr_n {
                    buf[base + kk * MR + r] = a.at(pr0 + r, kk);
                }
            }
        }
    }
}

/// Packs all columns of `b` into `NR`-column micro-panels, k-major,
/// zero-padding the final panel. `buf` is resized to exactly
/// `ceil(b.cols/NR) * NR * b.rows`.
pub(crate) fn pack_b_panels(b: &MatRef<'_>, buf: &mut Vec<f32>) {
    let k = b.rows;
    let n = b.cols;
    let panels = n.div_ceil(NR);
    buf.clear();
    buf.resize(panels * NR * k, 0.0);
    for p in 0..panels {
        let base = p * NR * k;
        let pc0 = p * NR;
        let pc_n = NR.min(n - pc0);
        if b.cs == 1 {
            // Natural B: each k step copies a contiguous NR-slice of a row.
            for kk in 0..k {
                let src = &b.data[kk * b.rs + pc0..kk * b.rs + pc0 + pc_n];
                buf[base + kk * NR..base + kk * NR + pc_n].copy_from_slice(src);
            }
        } else {
            // Transposed B (matmul_nt): columns of the view are contiguous
            // source rows, so walk column-first.
            for c in 0..pc_n {
                let col = &b.data[(pc0 + c) * b.cs..(pc0 + c) * b.cs + k];
                for (kk, &v) in col.iter().enumerate() {
                    buf[base + kk * NR + c] = v;
                }
            }
        }
    }
}

/// Packs all columns of `b` into [`WR`]-column micro-panels, k-major,
/// zero-padding the final panel — the fast kernel family's B layout
/// (`buf` sized `ceil(b.cols/WR) * WR * b.rows`).
pub(crate) fn pack_b_panels_wide(b: &MatRef<'_>, buf: &mut Vec<f32>) {
    let k = b.rows;
    let n = b.cols;
    let panels = n.div_ceil(WR);
    buf.clear();
    buf.resize(panels * WR * k, 0.0);
    for p in 0..panels {
        let base = p * WR * k;
        let pc0 = p * WR;
        let pc_n = WR.min(n - pc0);
        if b.cs == 1 {
            for kk in 0..k {
                let src = &b.data[kk * b.rs + pc0..kk * b.rs + pc0 + pc_n];
                buf[base + kk * WR..base + kk * WR + pc_n].copy_from_slice(src);
            }
        } else {
            for c in 0..pc_n {
                let col = &b.data[(pc0 + c) * b.cs..(pc0 + c) * b.cs + k];
                for (kk, &v) in col.iter().enumerate() {
                    buf[base + kk * WR + c] = v;
                }
            }
        }
    }
}

/// An owned, fully packed right operand (`[k, n]`), reusable across calls.
/// This is what the frozen-layer packed-weight cache stores.
#[derive(Debug, Clone)]
pub struct PackedB {
    pub(crate) buf: Vec<f32>,
    pub(crate) k: usize,
    pub(crate) n: usize,
}

impl PackedB {
    /// Packs a row-major `[k, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `b` is rank 2.
    pub fn pack(b: &Tensor) -> Self {
        assert_eq!(b.shape().rank(), 2, "PackedB::pack needs a matrix");
        let (k, n) = (b.dims()[0], b.dims()[1]);
        let mut buf = Vec::new();
        pack_b_panels(&MatRef::row_major(b.data(), k, n), &mut buf);
        PackedB { buf, k, n }
    }

    /// Packs the transpose of a row-major `[n, k]` matrix — i.e. packs
    /// `wᵀ` from a linear layer's `[out, in]` weight so `x @ wᵀ`
    /// (`Gemm::new(x, w).transpose_b()`) can run prepacked.
    ///
    /// # Panics
    ///
    /// Panics unless `w` is rank 2.
    pub fn pack_nt(w: &Tensor) -> Self {
        assert_eq!(w.shape().rank(), 2, "PackedB::pack_nt needs a matrix");
        let (n, k) = (w.dims()[0], w.dims()[1]);
        let mut buf = Vec::new();
        pack_b_panels(&MatRef::transposed(w.data(), k, n), &mut buf);
        PackedB { buf, k, n }
    }

    /// Logical dimensions `[k, n]`.
    pub fn dims(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

thread_local! {
    static PACK_A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's A-pack scratch buffer (capacity persists).
pub(crate) fn with_pack_a<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_A_SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

/// Runs `f` with this thread's B-pack scratch buffer (capacity persists).
pub(crate) fn with_pack_b<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_B_SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_layout_and_padding() {
        // 3×2 matrix, MR=4: one panel, row 3 zero-padded.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::row_major(&a, 3, 2);
        let mut buf = Vec::new();
        pack_a_panels(&v, 0, 3, &mut buf);
        assert_eq!(buf.len(), MR * 2);
        // kk = 0 column then kk = 1 column, each MR wide.
        assert_eq!(&buf[..MR], &[1.0, 3.0, 5.0, 0.0]);
        assert_eq!(&buf[MR..], &[2.0, 4.0, 6.0, 0.0]);
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // 2×3 matrix, NR=8: one panel, cols 3..8 zero-padded.
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::row_major(&b, 2, 3);
        let mut buf = Vec::new();
        pack_b_panels(&v, &mut buf);
        assert_eq!(buf.len(), NR * 2);
        assert_eq!(&buf[..3], &[1.0, 2.0, 3.0]);
        assert_eq!(&buf[3..NR], &[0.0; 5]);
        assert_eq!(&buf[NR..NR + 3], &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transposed_view_matches_explicit_transpose() {
        // w: [3, 2] row-major; transposed view is [2, 3].
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::transposed(&w, 2, 3);
        assert_eq!(v.at(0, 0), 1.0);
        assert_eq!(v.at(1, 0), 2.0);
        assert_eq!(v.at(0, 2), 5.0);
        assert_eq!(v.at(1, 2), 6.0);
    }

    #[test]
    fn packed_b_nt_equals_packed_transpose() {
        let w = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let wt = crate::linalg::transpose(&w);
        let direct = PackedB::pack(&wt);
        let nt = PackedB::pack_nt(&w);
        assert_eq!(direct.buf, nt.buf);
        assert_eq!(direct.dims(), nt.dims());
    }

    #[test]
    fn scratch_keeps_capacity() {
        with_pack_a(|buf| {
            buf.resize(1024, 1.0);
        });
        with_pack_a(|buf| {
            assert!(buf.capacity() >= 1024);
        });
    }
}
