//! Dense linear algebra: the [`Gemm`] descriptor over a packed-panel
//! kernel, transposes, dot.
//!
//! # One entry point
//!
//! Every matrix product in the workspace is described by a [`Gemm`]
//! builder and executed by one BLIS-style packed driver:
//!
//! ```
//! use tensor::{Tensor, linalg::Gemm, MathPolicy};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
//! let c = Gemm::new(&a, &b).policy(MathPolicy::Deterministic).run();
//! assert_eq!(c.data(), &[2.0, 1.0, 4.0, 3.0]);
//! ```
//!
//! The descriptor carries operand layouts (`transpose_a`/`transpose_b`
//! absorb transposes into packing strides — nothing is materialized), an
//! optional prepacked right operand ([`PackedB`]), an explicit thread
//! budget, and a [`MathPolicy`] selecting the kernel family.
//!
//! # Compute kernel
//!
//! 1. B is packed once per call into `NR`-column k-major micro-panels
//!    (thread-local scratch, or a cached [`PackedB`] for frozen weights).
//! 2. The `m` output rows are split into bands of whole `MR`-row panels;
//!    bands are claimed dynamically from the shared [`crate::pool`].
//! 3. Each band packs its rows of A into k-major micro-panels and runs
//!    the register-blocked microkernel of the selected family over
//!    `MR×NR` accumulator tiles.
//!
//! # Policies and determinism
//!
//! Under [`MathPolicy::Deterministic`] every output element is
//! accumulated over `k` in ascending order by the same serial
//! mul-then-add microkernel (no FMA contraction) regardless of which
//! thread computes its band — results are bit-identical across hosts,
//! dispatch decisions, and `NDPIPE_THREADS` values. This family is the
//! oracle the others are tested against.
//!
//! [`MathPolicy::Fast`] dispatches at runtime to FMA or AVX-512 f32
//! microkernels (paired B-panels, unrolled accumulator chains). Those
//! contract rounding steps and re-associate the `k` loop, so outputs
//! differ from the oracle by bounded rounding noise; they are still
//! reproducible run-to-run and across thread counts, because band
//! geometry never changes per-tile arithmetic.
//!
//! [`MathPolicy::Int8`] routes tensor-backed products through
//! [`crate::quant`] (per-tensor symmetric scales, `i8×i8→i32`
//! accumulation, dequantize on write-back); products over a prepacked
//! f32 B fall back to the `Fast` family.

use crate::pack::{
    self, pack_a_panels, pack_b_panels, pack_b_panels_wide, MatRef, PackedB, MR, NR, WR,
};
use crate::pool::{self, PoolError};
use crate::{MathPolicy, Tensor, TensorError};
use std::sync::{Mutex, OnceLock};
use telemetry::catalog;

/// Cache-blocking tile size for [`reference_matmul`]. 64×64 f32 tiles
/// (16 KiB) fit comfortably in L1 on every machine this project targets.
const TILE: usize = 64;

/// Work threshold (in multiply-adds) above which the GEMM driver fans
/// output-row bands across the worker pool. Below it, submission overhead
/// dominates the kernel itself.
const PAR_THRESHOLD: usize = 1 << 21;

/// Cached handle for the `ndpipe_gemm_flops_total` counter so the hot
/// path pays one relaxed atomic add, not a registry lookup.
fn flops_counter() -> &'static telemetry::Counter {
    static FLOPS: OnceLock<telemetry::Counter> = OnceLock::new();
    FLOPS.get_or_init(|| telemetry::global().counter(catalog::GEMM_FLOPS_TOTAL))
}

/// Cached handle for `ndpipe_gemm_fast_flops_total`: the subset of GEMM
/// flops executed under the opt-in `Fast`/`Int8` kernel families.
fn fast_flops_counter() -> &'static telemetry::Counter {
    static FLOPS: OnceLock<telemetry::Counter> = OnceLock::new();
    FLOPS.get_or_init(|| telemetry::global().counter(catalog::GEMM_FAST_FLOPS_TOTAL))
}

pub(crate) fn count_gemm_flops(m: usize, n: usize, k: usize, fast: bool) {
    if telemetry::enabled() {
        let fl = 2 * (m * n * k) as u64;
        flops_counter().add(fl);
        if fast {
            fast_flops_counter().add(fl);
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel families and dispatch
// ---------------------------------------------------------------------------

/// The concrete microkernel family a [`MathPolicy`] resolves to on this
/// host — what `ndpipe_node` logs and the RPC `DescribeNode` reply
/// reports per peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Auto-vectorized mul-then-add loop (the non-x86 oracle).
    Portable,
    /// AVX mul-then-add, bit-identical to [`KernelFamily::Portable`].
    Avx,
    /// AVX2 FMA, paired B-panels, 8 accumulator chains.
    Fma,
    /// AVX-512F FMA over zmm-paired B-panels.
    Avx512,
    /// Symmetric int8 `i8×i8→i32` dot kernel; dequantize on write-back.
    Int8Dot,
}

impl KernelFamily {
    /// Canonical lowercase name (logs, describe output).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelFamily::Portable => "portable",
            KernelFamily::Avx => "avx",
            KernelFamily::Fma => "fma",
            KernelFamily::Avx512 => "avx512",
            KernelFamily::Int8Dot => "int8dot",
        }
    }

    /// Stable wire encoding (RPC `ShardInfo`).
    pub fn to_u8(self) -> u8 {
        match self {
            KernelFamily::Portable => 0,
            KernelFamily::Avx => 1,
            KernelFamily::Fma => 2,
            KernelFamily::Avx512 => 3,
            KernelFamily::Int8Dot => 4,
        }
    }

    /// Inverse of [`KernelFamily::to_u8`].
    pub fn from_u8(v: u8) -> Option<KernelFamily> {
        match v {
            0 => Some(KernelFamily::Portable),
            1 => Some(KernelFamily::Avx),
            2 => Some(KernelFamily::Fma),
            3 => Some(KernelFamily::Avx512),
            4 => Some(KernelFamily::Int8Dot),
            _ => None,
        }
    }

    /// Whether this family contracts multiply-add rounding (FMA). The
    /// deterministic oracle must never report `true`.
    pub fn uses_fma(self) -> bool {
        matches!(self, KernelFamily::Fma | KernelFamily::Avx512)
    }
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kernel family `policy` dispatches to on this host (cached CPUID
/// probes). [`MathPolicy::Deterministic`] never resolves to an
/// FMA-contracting family.
pub fn selected_kernel(policy: MathPolicy) -> KernelFamily {
    match policy {
        MathPolicy::Deterministic => det_family(),
        MathPolicy::Fast => fast_family(),
        MathPolicy::Int8 => KernelFamily::Int8Dot,
    }
}

fn det_family() -> KernelFamily {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        return KernelFamily::Avx;
    }
    KernelFamily::Portable
}

fn fast_family() -> KernelFamily {
    #[cfg(target_arch = "x86_64")]
    match fast_level() {
        FastLevel::Avx512 => return KernelFamily::Avx512,
        FastLevel::Fma => return KernelFamily::Fma,
        FastLevel::None => {}
    }
    det_family()
}

/// Internal two-way kernel split the driver actually branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kern {
    Det,
    Fast,
}

fn kern_for(policy: MathPolicy) -> Kern {
    match policy {
        MathPolicy::Deterministic => Kern::Det,
        // Int8 reaching the f32 driver means the product had prepacked
        // f32 panels — run them under the fast family.
        MathPolicy::Fast | MathPolicy::Int8 => Kern::Fast,
    }
}

// ---------------------------------------------------------------------------
// Gemm descriptor
// ---------------------------------------------------------------------------

enum GemmB<'a> {
    Mat { t: &'a Tensor, trans: bool },
    Packed(&'a PackedB),
}

/// A matrix-product descriptor: operands and layouts, thread seats, and
/// [`MathPolicy`]. Build one with [`Gemm::new`] / [`Gemm::prepacked_b`],
/// refine it with the chained setters, execute with [`Gemm::run`] or
/// [`Gemm::try_run`].
///
/// # Example
///
/// ```
/// use tensor::{Tensor, linalg::Gemm};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let x = Tensor::randn(&[3, 5], &mut rng);
/// let w = Tensor::randn(&[4, 5], &mut rng); // [out, in]
/// // y = x @ wᵀ without materializing the transpose.
/// let y = Gemm::new(&x, &w).transpose_b().run();
/// assert_eq!(y.dims(), &[3, 4]);
/// ```
#[must_use = "a Gemm descriptor does nothing until run"]
pub struct Gemm<'a> {
    a: &'a Tensor,
    trans_a: bool,
    b: GemmB<'a>,
    threads: Option<usize>,
    policy: Option<MathPolicy>,
}

/// Operation label in every [`Gemm`] panic and [`TensorError`].
const OP: &str = "gemm";

impl<'a> Gemm<'a> {
    /// `a @ b` for `a: [m, k]`, `b: [k, n]` (both natural layout).
    pub fn new(a: &'a Tensor, b: &'a Tensor) -> Self {
        Gemm {
            a,
            trans_a: false,
            b: GemmB::Mat { t: b, trans: false },
            threads: None,
            policy: None,
        }
    }

    /// `a @ B` with a prepacked right operand — the frozen-layer fast
    /// path: a feature extractor packs its weights once
    /// ([`PackedB::pack_nt`]) and every batch reuses the panels.
    pub fn prepacked_b(a: &'a Tensor, pb: &'a PackedB) -> Self {
        Gemm {
            a,
            trans_a: false,
            b: GemmB::Packed(pb),
            threads: None,
            policy: None,
        }
    }

    /// Treat `a` as transposed: the left operand is `aᵀ` of a `[k, m]`
    /// buffer (the weight-gradient shape `dW = dyᵀ @ x`).
    pub fn transpose_a(mut self) -> Self {
        self.trans_a = true;
        self
    }

    /// Treat `b` as transposed: the right operand is `bᵀ` of an `[n, k]`
    /// buffer (the linear-forward shape `y = x @ Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if the right operand is prepacked — panel layout is fixed
    /// at pack time.
    pub fn transpose_b(mut self) -> Self {
        match &mut self.b {
            GemmB::Mat { trans, .. } => *trans = true,
            GemmB::Packed(_) => panic!("{OP}: cannot transpose a prepacked operand"),
        }
        self
    }

    /// Explicit thread budget (determinism tests, benches). Defaults to
    /// [`crate::configured_threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Kernel family selection. Defaults to
    /// [`crate::default_math_policy`] (the `NDPIPE_MATH` environment).
    pub fn policy(mut self, policy: MathPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Resolved `(m, k, n)` after layout flags, or a shape error.
    fn shapes(&self) -> Result<(usize, usize, usize), TensorError> {
        let (lhs, rhs) = (self.a_dims(), self.b_dims());
        let mismatch = || TensorError::ShapeMismatch {
            op: OP,
            lhs: lhs.clone().unwrap_or_default(),
            rhs: rhs.clone().unwrap_or_default(),
        };
        let (lhs, rhs) = match (&lhs, &rhs) {
            (Some(l), Some(r)) => (l, r),
            _ => return Err(mismatch()),
        };
        let (m, k) = if self.trans_a {
            (lhs[1], lhs[0])
        } else {
            (lhs[0], lhs[1])
        };
        let (k2, n) = match &self.b {
            GemmB::Mat { trans: false, .. } | GemmB::Packed(_) => (rhs[0], rhs[1]),
            GemmB::Mat { trans: true, .. } => (rhs[1], rhs[0]),
        };
        if k != k2 {
            return Err(mismatch());
        }
        Ok((m, k, n))
    }

    /// Stored (pre-transpose) dims of the left operand; `None` if it is
    /// not rank 2.
    fn a_dims(&self) -> Option<Vec<usize>> {
        (self.a.shape().rank() == 2).then(|| self.a.dims().to_vec())
    }

    fn b_dims(&self) -> Option<Vec<usize>> {
        match &self.b {
            GemmB::Mat { t, .. } => (t.shape().rank() == 2).then(|| t.dims().to_vec()),
            GemmB::Packed(pb) => {
                let (k, n) = pb.dims();
                Some(vec![k, n])
            }
        }
    }

    /// Executes the product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if a pool worker panics; see
    /// [`Gemm::try_run`] for the typed-error form.
    pub fn run(self) -> Tensor {
        self.try_run().unwrap_or_else(|e| panic!("{OP}: {e}"))
    }

    /// Executes the product, reporting failures as [`TensorError`].
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] on rank/dimension mismatch,
    /// [`TensorError::WorkerPanicked`] if a pool task panicked.
    pub fn try_run(self) -> Result<Tensor, TensorError> {
        let (m, k, n) = self.shapes()?;
        let policy = self.policy.unwrap_or_else(crate::default_math_policy);
        let threads = self.threads.unwrap_or_else(crate::configured_threads);

        let av = mat_view(self.a, self.trans_a);
        let bsrc = match &self.b {
            GemmB::Mat { t, trans } => BSrc::Mat(mat_view(t, *trans)),
            GemmB::Packed(pb) => BSrc::Packed(pb),
        };
        if policy == MathPolicy::Int8 {
            if let BSrc::Mat(bv) = &bsrc {
                return Ok(crate::quant::gemm_int8(&av, bv));
            }
            // Prepacked f32 panels have no integer form — fall through
            // to the fast f32 family.
        }
        gemm(m, n, k, &av, bsrc, threads, kern_for(policy)).map_err(|e| {
            TensorError::WorkerPanicked {
                op: OP,
                msg: e.to_string(),
            }
        })
    }
}

/// Strided view of a rank-2 tensor, optionally transposed.
fn mat_view(t: &Tensor, trans: bool) -> MatRef<'_> {
    if trans {
        MatRef::transposed(t.data(), t.dims()[1], t.dims()[0])
    } else {
        MatRef::row_major(t.data(), t.dims()[0], t.dims()[1])
    }
}

// ---------------------------------------------------------------------------
// Non-GEMM kernels
// ---------------------------------------------------------------------------

/// Transpose of a `[m, n]` matrix, tiled so both the source reads and the
/// destination writes stay within cache lines of a 32×32 block (the naive
/// column-scatter loop misses on every store for wide matrices).
///
/// # Panics
///
/// Panics unless the input is rank 2.
pub fn transpose(a: &Tensor) -> Tensor {
    const TR_TILE: usize = 32;
    assert_eq!(a.shape().rank(), 2, "transpose needs a matrix");
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let ad = a.data();
    let mut out = vec![0.0f32; m * n];
    for i0 in (0..m).step_by(TR_TILE) {
        let i1 = (i0 + TR_TILE).min(m);
        for j0 in (0..n).step_by(TR_TILE) {
            let j1 = (j0 + TR_TILE).min(n);
            for i in i0..i1 {
                for j in j0..j1 {
                    out[j * m + i] = ad[i * n + j];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Dot product of two equal-length rank-1 tensors.
///
/// # Panics
///
/// Panics unless both inputs are rank 1 of equal length.
pub fn dot(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape().rank(), 1, "dot lhs must be a vector");
    assert_eq!(b.shape().rank(), 1, "dot rhs must be a vector");
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.data().iter().zip(b.data()).map(|(&x, &y)| x * y).sum()
}

/// The pre-packing serial kernel (i-k-j saxpy over 64×64 tiles), kept as
/// the benchmark baseline and test oracle for the packed driver.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with compatible inner dimensions.
pub fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be a matrix");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch");
    let mut out = vec![0.0f32; m * n];
    matmul_rows(a.data(), b.data(), &mut out, 0, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Serial tiled kernel over output rows `i_lo..i_hi`; `out` holds exactly
/// those rows. This was the PR-1 production kernel; see
/// [`reference_matmul`].
fn matmul_rows(
    ad: &[f32],
    bd: &[f32],
    out: &mut [f32],
    i_lo: usize,
    i_hi: usize,
    k: usize,
    n: usize,
) {
    for i0 in (i_lo..i_hi).step_by(TILE) {
        let i1 = (i0 + TILE).min(i_hi);
        for k0 in (0..k).step_by(TILE) {
            let k1 = (k0 + TILE).min(k);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    for kk in k0..k1 {
                        let aik = ad[i * k + kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &bd[kk * n + j0..kk * n + j1];
                        let o_base = (i - i_lo) * n;
                        let orow = &mut out[o_base + j0..o_base + j1];
                        for (o, &bv) in orow.iter_mut().zip(brow) {
                            *o += aik * bv;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed GEMM driver
// ---------------------------------------------------------------------------

/// Right-operand source: a strided view to pack once per call, or a cached
/// [`PackedB`].
enum BSrc<'a> {
    Mat(MatRef<'a>),
    Packed(&'a PackedB),
}

/// How the packed B buffer is laid out: [`NR`]-column panels (the
/// deterministic layout, also what a cached [`PackedB`] holds) or
/// [`WR`]-column panels (the fast family's zmm-ready layout, built only
/// when B is packed per call and a fast kernel will consume it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BLayout {
    Narrow,
    Wide,
}

/// Whether the wide-B fast kernel will actually run for `kern` on this
/// host. AVX-512 only: the zmm kernel performs the *same* per-element
/// even/odd FMA arithmetic as the narrow paired kernels, so a product is
/// bit-identical whether B arrived prepacked (narrow) or packed per call
/// (wide). A ymm wide kernel would need 16 accumulator registers to
/// match — more than AVX2 has — so FMA-level hosts stay on the narrow
/// paired path everywhere.
fn wants_wide_b(kern: Kern) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        kern == Kern::Fast && fast_level() == FastLevel::Avx512
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = kern;
        false
    }
}

/// The shared packed-panel driver behind every f32 matrix product.
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &MatRef<'_>,
    b: BSrc<'_>,
    threads: usize,
    kern: Kern,
) -> Result<Tensor, PoolError> {
    count_gemm_flops(m, n, k, kern == Kern::Fast);
    let mut out = vec![0.0f32; m * n];
    match b {
        BSrc::Packed(pb) => gemm_packed_b(
            m,
            n,
            k,
            a,
            &pb.buf,
            BLayout::Narrow,
            threads,
            kern,
            &mut out,
        )?,
        BSrc::Mat(mb) => pack::with_pack_b(|buf| {
            let layout = if wants_wide_b(kern) {
                pack_b_panels_wide(&mb, buf);
                BLayout::Wide
            } else {
                pack_b_panels(&mb, buf);
                BLayout::Narrow
            };
            gemm_packed_b(m, n, k, a, buf, layout, threads, kern, &mut out)
        })?,
    }
    Ok(Tensor::from_vec(out, &[m, n]))
}

/// Dispatches row bands over the pool (or runs one serial band).
#[allow(clippy::too_many_arguments)]
fn gemm_packed_b(
    m: usize,
    n: usize,
    k: usize,
    a: &MatRef<'_>,
    pb: &[f32],
    layout: BLayout,
    threads: usize,
    kern: Kern,
    out: &mut [f32],
) -> Result<(), PoolError> {
    let m_panels = m.div_ceil(MR);
    let threads = if 2 * m * n * k >= PAR_THRESHOLD {
        threads.max(1)
    } else {
        1
    };
    if threads == 1 || m_panels == 1 {
        gemm_band(a, 0, m, k, n, pb, layout, kern, out);
        return Ok(());
    }
    // Split whole MR-panels into bands; a couple of bands per thread lets
    // the pool's chunked self-scheduling absorb load imbalance.
    let band_target = (threads * 2).min(m_panels);
    let panels_per_band = m_panels.div_ceil(band_target);
    let rows_per_band = panels_per_band * MR;
    let bands: Vec<Mutex<(usize, &mut [f32])>> = out
        .chunks_mut(rows_per_band * n)
        .enumerate()
        .map(|(i, c)| Mutex::new((i * rows_per_band, c)))
        .collect();
    pool::run(threads, bands.len(), &|t| {
        if let Some(slot) = bands.get(t) {
            let mut guard = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (r0, band_out) = &mut *guard;
            let rows = band_out.len() / n;
            gemm_band(a, *r0, *r0 + rows, k, n, pb, layout, kern, band_out);
        }
    })
}

/// Serial packed kernel over output rows `r0..r1` (MR-panel aligned);
/// `out` holds exactly those rows.
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    a: &MatRef<'_>,
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    pb: &[f32],
    layout: BLayout,
    kern: Kern,
    out: &mut [f32],
) {
    pack::with_pack_a(|buf| {
        pack_a_panels(a, r0, r1, buf);
        gemm_panels(buf, r1 - r0, k, n, pb, layout, kern, out);
    })
}

/// Multiplies packed A panels (covering `rows` valid rows) against packed
/// B panels with the selected kernel family, masking the write-back at
/// the edges.
#[allow(clippy::too_many_arguments)]
fn gemm_panels(
    pa: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    pb: &[f32],
    layout: BLayout,
    kern: Kern,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if kern == Kern::Fast {
        let level = fast_level();
        if level != FastLevel::None {
            // Safety: the CPUID probe verified the features the fast
            // kernels require; panel slices are sized by the packers.
            unsafe {
                match layout {
                    BLayout::Wide => gemm_panels_fast_wide(pa, rows, k, n, pb, level, out),
                    BLayout::Narrow => gemm_panels_fast(pa, rows, k, n, pb, level, out),
                }
            }
            return;
        }
    }
    let _ = kern;
    // Non-x86 hosts (and fast-less CPUs) run the oracle kernel; the wide
    // layout is only ever built when a fast kernel was going to consume
    // it, so it cannot reach here.
    debug_assert_eq!(layout, BLayout::Narrow);
    let n_panels = n.div_ceil(NR);
    for (p, pa_panel) in pa.chunks_exact(MR * k).enumerate() {
        let row0 = p * MR;
        if row0 >= rows {
            break;
        }
        let tile_rows = MR.min(rows - row0);
        for jp in 0..n_panels {
            let pb_panel = &pb[jp * NR * k..(jp + 1) * NR * k];
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(k, pa_panel, pb_panel, &mut acc);
            write_tile(&acc, row0, jp * NR, tile_rows, n, out);
        }
    }
}

/// Writes one accumulator tile, masked to the output's edges. `W` is the
/// tile width (NR for single panels, 2*NR for the paired fast kernels).
#[inline(always)]
fn write_tile<const W: usize>(
    acc: &[[f32; W]; MR],
    row0: usize,
    col0: usize,
    tile_rows: usize,
    n: usize,
    out: &mut [f32],
) {
    let tile_cols = W.min(n - col0);
    for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
        let dst = &mut out[(row0 + r) * n + col0..(row0 + r) * n + col0 + tile_cols];
        dst.copy_from_slice(&acc_row[..tile_cols]);
    }
}

// ---------------------------------------------------------------------------
// Deterministic (oracle) microkernels
// ---------------------------------------------------------------------------

/// Register-blocked micro-tile update: `acc += A_panel @ B_panel` where
/// `A_panel` is `MR×k` (k-major) and `B_panel` is `k×NR`.
///
/// Dispatches once (cached CPUID probe) to an AVX variant on x86-64
/// hosts that support it, else to the portable auto-vectorized loop.
/// Both variants perform the *same* IEEE mul-then-add per element in the
/// same ascending-k order — the AVX path deliberately uses separate
/// multiply and add (no FMA contraction) — so results are bit-identical
/// across hosts and dispatch decisions.
#[inline(always)]
fn microkernel(k: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // Safety: AVX support was verified at runtime, and the panel
        // slices are sized `k*MR` / `k*NR` by the packers.
        unsafe { microkernel_avx(k, pa, pb, acc) };
        return;
    }
    microkernel_portable(k, pa, pb, acc);
}

/// Portable fallback: fixed-size array arithmetic shaped for LLVM
/// auto-vectorization — NR independent f32 multiply-adds per A broadcast.
#[inline(always)]
fn microkernel_portable(k: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    let (a_steps, _) = pa.as_chunks::<MR>();
    let (b_steps, _) = pb.as_chunks::<NR>();
    for (a_step, b_step) in a_steps.iter().zip(b_steps).take(k) {
        for (&av, acc_row) in a_step.iter().zip(acc.iter_mut()) {
            for (c, &bv) in acc_row.iter_mut().zip(b_step) {
                *c += av * bv;
            }
        }
    }
}

/// Cached runtime probe for the AVX microkernel.
#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
}

/// AVX micro-tile update: each accumulator row is one 8-lane `ymm`
/// register (`NR == 8`), updated with separate `vmulps`/`vaddps` so the
/// rounding matches the portable kernel exactly.
///
/// # Safety
///
/// Requires AVX at runtime; `pa`/`pb` must hold at least `k*MR` / `k*NR`
/// elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn microkernel_avx(k: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4) };
    debug_assert!(pa.len() >= k * MR && pb.len() >= k * NR);
    let mut c0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c3 = _mm256_loadu_ps(acc[3].as_ptr());
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    for kk in 0..k {
        let b = _mm256_loadu_ps(pb.add(kk * NR));
        let a = pa.add(kk * MR);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(&*a), b));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(1)), b));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(2)), b));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(3)), b));
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
}

// ---------------------------------------------------------------------------
// Fast (FMA / AVX-512) microkernels
// ---------------------------------------------------------------------------

/// Runtime capability tier for the fast kernel family.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FastLevel {
    None,
    Fma,
    Avx512,
}

/// Cached CPUID probe for the fast kernels. AVX-512 requires `fma` too:
/// the odd-panel tail runs the 256-bit FMA kernel.
#[cfg(target_arch = "x86_64")]
fn fast_level() -> FastLevel {
    static LEVEL: OnceLock<FastLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let fma = std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("avx");
        if fma && std::arch::is_x86_feature_detected!("avx512f") {
            FastLevel::Avx512
        } else if fma {
            FastLevel::Fma
        } else {
            FastLevel::None
        }
    })
}

/// Fast-family panel loop: B panels are consumed in pairs so each A
/// broadcast feeds 16 output columns (8 independent FMA chains on AVX2,
/// eight zmm chains on AVX-512); the odd tail panel runs the unrolled
/// single-panel FMA kernel.
///
/// Loop order is the transpose of the deterministic path: the B
/// panel-pair is the *outer* loop and A panels the inner one, so the
/// 2·NR·k pair (32 KiB at k=512) stays L1-resident across every A panel
/// and the packed A block streams from L2 — at large sizes the straight
/// loop re-reads the full packed B (≈ k·n·4 bytes) from L2/L3 once per
/// A panel and goes memory-bound near 45 GFLOPS on this class of
/// machine. The interchange only reorders whole output tiles (each is
/// still computed in one uninterrupted ascending-k pass), so results
/// are unchanged.
///
/// # Safety
///
/// `level` must come from [`fast_level`] (features verified at runtime)
/// and must not be `FastLevel::None`; panel slices must be packer-sized.
#[cfg(target_arch = "x86_64")]
unsafe fn gemm_panels_fast(
    pa: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    pb: &[f32],
    level: FastLevel,
    out: &mut [f32],
) {
    let n_panels = n.div_ceil(NR);
    let m_panels = rows.div_ceil(MR);
    let a_panels = pa.chunks_exact(MR * k).take(m_panels);
    let mut jp = 0;
    while jp + 2 <= n_panels {
        let pb0 = &pb[jp * NR * k..(jp + 1) * NR * k];
        let pb1 = &pb[(jp + 1) * NR * k..(jp + 2) * NR * k];
        for (p, pa_panel) in a_panels.clone().enumerate() {
            let row0 = p * MR;
            let tile_rows = MR.min(rows - row0);
            let mut acc = [[0.0f32; 2 * NR]; MR];
            match level {
                FastLevel::Avx512 => microkernel_avx512_2x(k, pa_panel, pb0, pb1, &mut acc),
                _ => microkernel_fma_2x(k, pa_panel, pb0, pb1, &mut acc),
            }
            write_tile(&acc, row0, jp * NR, tile_rows, n, out);
        }
        jp += 2;
    }
    if jp < n_panels {
        let pb0 = &pb[jp * NR * k..(jp + 1) * NR * k];
        for (p, pa_panel) in a_panels.enumerate() {
            let row0 = p * MR;
            let tile_rows = MR.min(rows - row0);
            let mut acc = [[0.0f32; NR]; MR];
            microkernel_fma_1x(k, pa_panel, pb0, &mut acc);
            write_tile(&acc, row0, jp * NR, tile_rows, n, out);
        }
    }
}

/// Fast-family panel loop over the [`WR`]-wide B layout: contiguous zmm
/// loads, no cross-panel shuffles. The main body works on 8 output rows
/// × 32 output columns at a time (two A panels × two wide B panels), so
/// each broadcast A element feeds two FMAs from a register and each B
/// load feeds eight — the kernel is FMA-port bound rather than
/// load-port bound. Ragged right edges are zero-padded by the packer
/// and masked at write-back.
///
/// Every kernel in this family accumulates each output element in ONE
/// chain over ascending k (the 16 independent row×panel chains supply
/// the instruction-level parallelism that the narrow kernels get from
/// even/odd splitting), so results are bit-identical regardless of how
/// the driver groups panels — and therefore across thread counts.
///
/// # Safety
///
/// [`fast_level`] must have returned `FastLevel::Avx512`; `pb` must be
/// packed by [`pack_b_panels_wide`].
#[cfg(target_arch = "x86_64")]
unsafe fn gemm_panels_fast_wide(
    pa: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    pb: &[f32],
    level: FastLevel,
    out: &mut [f32],
) {
    debug_assert_eq!(level, FastLevel::Avx512);
    let _ = level;
    let n_panels = n.div_ceil(WR);
    let m_panels = rows.div_ceil(MR);
    let b_panel = |jp: usize| &pb[jp * WR * k..(jp + 1) * WR * k];
    let a_panel = |p: usize| &pa[p * MR * k..(p + 1) * MR * k];
    let mut jp = 0;
    while jp + 2 <= n_panels {
        let pb0 = b_panel(jp);
        let pb1 = b_panel(jp + 1);
        let mut p = 0;
        while p + 2 <= m_panels {
            let mut acc = [[[0.0f32; WR]; MR]; 4];
            microkernel_avx512_w832(k, a_panel(p), a_panel(p + 1), pb0, pb1, &mut acc);
            let row0 = p * MR;
            let rows1 = MR.min(rows - (row0 + MR));
            write_tile(&acc[0], row0, jp * WR, MR, n, out);
            write_tile(&acc[1], row0, (jp + 1) * WR, MR, n, out);
            write_tile(&acc[2], row0 + MR, jp * WR, rows1, n, out);
            write_tile(&acc[3], row0 + MR, (jp + 1) * WR, rows1, n, out);
            p += 2;
        }
        if p < m_panels {
            let row0 = p * MR;
            let tile_rows = MR.min(rows - row0);
            let mut acc0 = [[0.0f32; WR]; MR];
            let mut acc1 = [[0.0f32; WR]; MR];
            microkernel_avx512_w2(k, a_panel(p), pb0, pb1, &mut acc0, &mut acc1);
            write_tile(&acc0, row0, jp * WR, tile_rows, n, out);
            write_tile(&acc1, row0, (jp + 1) * WR, tile_rows, n, out);
        }
        jp += 2;
    }
    if jp < n_panels {
        // Odd final wide panel: pair A panels so the B panel is still
        // read once per 8 output rows.
        let pbw = b_panel(jp);
        let mut p = 0;
        while p + 2 <= m_panels {
            let mut acc0 = [[0.0f32; WR]; MR];
            let mut acc1 = [[0.0f32; WR]; MR];
            microkernel_avx512_w8(k, a_panel(p), a_panel(p + 1), pbw, &mut acc0, &mut acc1);
            let row0 = p * MR;
            let rows1 = MR.min(rows - (row0 + MR));
            write_tile(&acc0, row0, jp * WR, MR, n, out);
            write_tile(&acc1, row0 + MR, jp * WR, rows1, n, out);
            p += 2;
        }
        if p < m_panels {
            let row0 = p * MR;
            let tile_rows = MR.min(rows - row0);
            let mut acc = [[0.0f32; WR]; MR];
            microkernel_avx512_w(k, a_panel(p), pbw, &mut acc);
            write_tile(&acc, row0, jp * WR, tile_rows, n, out);
        }
    }
}

/// The peak-rate kernel: 8 output rows (two A panels) × 32 output
/// columns (two wide B panels). Per k step: 2 zmm B loads + 8 register
/// broadcasts feed 16 FMAs across 16 single-chain zmm accumulators —
/// FMA-port bound with every chain touched once per 16-FMA round, well
/// past the FMA latency. Tiles are `acc[0]`=rows0×pb0, `acc[1]`=
/// rows0×pb1, `acc[2]`=rows1×pb0, `acc[3]`=rows1×pb1.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `pa0`/`pa1` must each hold `k*MR`
/// elements and `pb0`/`pb1` `k*WR` each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512_w832(
    k: usize,
    pa0: &[f32],
    pa1: &[f32],
    pb0: &[f32],
    pb1: &[f32],
    acc: &mut [[[f32; WR]; MR]; 4],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4 && WR == 16) };
    debug_assert!(pa0.len() >= k * MR && pa1.len() >= k * MR);
    debug_assert!(pb0.len() >= k * WR && pb1.len() >= k * WR);
    let mut c00 = [_mm512_setzero_ps(); MR];
    let mut c01 = [_mm512_setzero_ps(); MR];
    let mut c10 = [_mm512_setzero_ps(); MR];
    let mut c11 = [_mm512_setzero_ps(); MR];
    let pa0 = pa0.as_ptr();
    let pa1 = pa1.as_ptr();
    let pb0 = pb0.as_ptr();
    let pb1 = pb1.as_ptr();
    for kk in 0..k {
        let b0 = _mm512_loadu_ps(pb0.add(kk * WR));
        let b1 = _mm512_loadu_ps(pb1.add(kk * WR));
        let a0 = pa0.add(kk * MR);
        let a1 = pa1.add(kk * MR);
        for r in 0..MR {
            let av = _mm512_set1_ps(*a0.add(r));
            c00[r] = _mm512_fmadd_ps(av, b0, c00[r]);
            c01[r] = _mm512_fmadd_ps(av, b1, c01[r]);
            let aw = _mm512_set1_ps(*a1.add(r));
            c10[r] = _mm512_fmadd_ps(aw, b0, c10[r]);
            c11[r] = _mm512_fmadd_ps(aw, b1, c11[r]);
        }
    }
    for r in 0..MR {
        _mm512_storeu_ps(acc[0][r].as_mut_ptr(), c00[r]);
        _mm512_storeu_ps(acc[1][r].as_mut_ptr(), c01[r]);
        _mm512_storeu_ps(acc[2][r].as_mut_ptr(), c10[r]);
        _mm512_storeu_ps(acc[3][r].as_mut_ptr(), c11[r]);
    }
}

/// Ragged-row tail of [`microkernel_avx512_w832`]: one A panel against
/// two wide B panels. Same single-chain-per-element arithmetic.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `pa` must hold `k*MR` elements and
/// `pb0`/`pb1` `k*WR` each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512_w2(
    k: usize,
    pa: &[f32],
    pb0: &[f32],
    pb1: &[f32],
    acc0: &mut [[f32; WR]; MR],
    acc1: &mut [[f32; WR]; MR],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4 && WR == 16) };
    debug_assert!(pa.len() >= k * MR && pb0.len() >= k * WR && pb1.len() >= k * WR);
    let mut c0 = [_mm512_setzero_ps(); MR];
    let mut c1 = [_mm512_setzero_ps(); MR];
    let pa = pa.as_ptr();
    let pb0 = pb0.as_ptr();
    let pb1 = pb1.as_ptr();
    for kk in 0..k {
        let b0 = _mm512_loadu_ps(pb0.add(kk * WR));
        let b1 = _mm512_loadu_ps(pb1.add(kk * WR));
        let a = pa.add(kk * MR);
        for r in 0..MR {
            let av = _mm512_set1_ps(*a.add(r));
            c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
            c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
        }
    }
    for r in 0..MR {
        _mm512_storeu_ps(acc0[r].as_mut_ptr(), c0[r]);
        _mm512_storeu_ps(acc1[r].as_mut_ptr(), c1[r]);
    }
}

/// Ragged-column tail: two A panels against the final odd wide B panel.
/// Same single-chain-per-element arithmetic.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `pa0`/`pa1` must each hold `k*MR`
/// elements and `pbw` `k*WR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512_w8(
    k: usize,
    pa0: &[f32],
    pa1: &[f32],
    pbw: &[f32],
    acc0: &mut [[f32; WR]; MR],
    acc1: &mut [[f32; WR]; MR],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4 && WR == 16) };
    debug_assert!(pa0.len() >= k * MR && pa1.len() >= k * MR && pbw.len() >= k * WR);
    let mut c0 = [_mm512_setzero_ps(); MR];
    let mut c1 = [_mm512_setzero_ps(); MR];
    let pa0 = pa0.as_ptr();
    let pa1 = pa1.as_ptr();
    let pb = pbw.as_ptr();
    for kk in 0..k {
        let b0 = _mm512_loadu_ps(pb.add(kk * WR));
        let a0 = pa0.add(kk * MR);
        let a1 = pa1.add(kk * MR);
        for r in 0..MR {
            c0[r] = _mm512_fmadd_ps(_mm512_set1_ps(*a0.add(r)), b0, c0[r]);
            c1[r] = _mm512_fmadd_ps(_mm512_set1_ps(*a1.add(r)), b0, c1[r]);
        }
    }
    for r in 0..MR {
        _mm512_storeu_ps(acc0[r].as_mut_ptr(), c0[r]);
        _mm512_storeu_ps(acc1[r].as_mut_ptr(), c1[r]);
    }
}

/// Corner tail: one A panel against the final odd wide B panel. Same
/// single-chain-per-element arithmetic.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `pa` must hold `k*MR` elements and
/// `pbw` `k*WR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(
    clippy::needless_range_loop,
    reason = "indexed loops over the MR accumulator rows keep the microkernel's loop structure explicit"
)]
unsafe fn microkernel_avx512_w(k: usize, pa: &[f32], pbw: &[f32], acc: &mut [[f32; WR]; MR]) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4 && WR == 16) };
    debug_assert!(pa.len() >= k * MR && pbw.len() >= k * WR);
    let mut c = [_mm512_setzero_ps(); MR];
    let pa = pa.as_ptr();
    let pb = pbw.as_ptr();
    for kk in 0..k {
        let b0 = _mm512_loadu_ps(pb.add(kk * WR));
        let a = pa.add(kk * MR);
        for r in 0..MR {
            c[r] = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r)), b0, c[r]);
        }
    }
    for r in 0..MR {
        _mm512_storeu_ps(acc[r].as_mut_ptr(), c[r]);
    }
}

/// Single-panel FMA kernel, `k` unrolled 2× into independent even/odd
/// accumulator chains (summed at the end) to cover FMA latency.
///
/// # Safety
///
/// Requires AVX+FMA at runtime; `pa`/`pb` must hold at least `k*MR` /
/// `k*NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[allow(
    clippy::needless_range_loop,
    reason = "indexed loops over the MR accumulator rows keep the microkernel's loop structure explicit"
)]
unsafe fn microkernel_fma_1x(k: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4) };
    debug_assert!(pa.len() >= k * MR && pb.len() >= k * NR);
    let mut ce = [_mm256_setzero_ps(); MR];
    let mut co = [_mm256_setzero_ps(); MR];
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    let mut kk = 0;
    while kk + 2 <= k {
        let b0 = _mm256_loadu_ps(pb.add(kk * NR));
        let b1 = _mm256_loadu_ps(pb.add((kk + 1) * NR));
        let a0 = pa.add(kk * MR);
        let a1 = pa.add((kk + 1) * MR);
        for r in 0..MR {
            ce[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(r)), b0, ce[r]);
            co[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a1.add(r)), b1, co[r]);
        }
        kk += 2;
    }
    if kk < k {
        let b0 = _mm256_loadu_ps(pb.add(kk * NR));
        let a0 = pa.add(kk * MR);
        for r in 0..MR {
            ce[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(r)), b0, ce[r]);
        }
    }
    for r in 0..MR {
        let sum = _mm256_add_ps(
            _mm256_add_ps(ce[r], co[r]),
            _mm256_loadu_ps(acc[r].as_ptr()),
        );
        _mm256_storeu_ps(acc[r].as_mut_ptr(), sum);
    }
}

/// Paired-panel FMA kernel: 8 independent ymm accumulator chains
/// (4 rows × 2 panels), one A broadcast feeding both panels per k step.
///
/// # Safety
///
/// Requires AVX+FMA at runtime; `pa` must hold `k*MR` elements and each
/// of `pb0`/`pb1` `k*NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn microkernel_fma_2x(
    k: usize,
    pa: &[f32],
    pb0: &[f32],
    pb1: &[f32],
    acc: &mut [[f32; 2 * NR]; MR],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4) };
    debug_assert!(pa.len() >= k * MR && pb0.len() >= k * NR && pb1.len() >= k * NR);
    let mut c0 = [_mm256_setzero_ps(); MR];
    let mut c1 = [_mm256_setzero_ps(); MR];
    let pa = pa.as_ptr();
    let p0 = pb0.as_ptr();
    let p1 = pb1.as_ptr();
    for kk in 0..k {
        let b0 = _mm256_loadu_ps(p0.add(kk * NR));
        let b1 = _mm256_loadu_ps(p1.add(kk * NR));
        let a = pa.add(kk * MR);
        for r in 0..MR {
            let av = _mm256_broadcast_ss(&*a.add(r));
            c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
            c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
        }
    }
    for r in 0..MR {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), c0[r]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(NR), c1[r]);
    }
}

/// Paired-panel AVX-512 kernel: each accumulator row is one zmm holding
/// both panels' 8-lane halves, so a k step is two 256-bit loads, one
/// 128-lane shuffle, and four zmm FMAs for 128 flops. The k loop is
/// unrolled 2× into independent even/odd chains (8 zmm accumulators,
/// summed at the end) so FMA latency never serializes a chain, and dual
/// 512-bit FMA ports are kept fed where present.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `pa` must hold `k*MR` elements and each
/// of `pb0`/`pb1` `k*NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(
    clippy::needless_range_loop,
    reason = "indexed loops over the MR accumulator rows keep the microkernel's loop structure explicit"
)]
unsafe fn microkernel_avx512_2x(
    k: usize,
    pa: &[f32],
    pb0: &[f32],
    pb1: &[f32],
    acc: &mut [[f32; 2 * NR]; MR],
) {
    use std::arch::x86_64::*;
    const { assert!(NR == 8 && MR == 4) };
    debug_assert!(pa.len() >= k * MR && pb0.len() >= k * NR && pb1.len() >= k * NR);
    let mut ce = [_mm512_setzero_ps(); MR];
    let mut co = [_mm512_setzero_ps(); MR];
    let pa = pa.as_ptr();
    let p0 = pb0.as_ptr();
    let p1 = pb1.as_ptr();
    // 0x44: lanes [0,1] of the first operand in the low half, lanes
    // [0,1] of the second in the high half.
    let pair = |pe: *const f32, po: *const f32| {
        _mm512_shuffle_f32x4(
            _mm512_castps256_ps512(_mm256_loadu_ps(pe)),
            _mm512_castps256_ps512(_mm256_loadu_ps(po)),
            0x44,
        )
    };
    let mut kk = 0;
    while kk + 2 <= k {
        let b0 = pair(p0.add(kk * NR), p1.add(kk * NR));
        let b1 = pair(p0.add((kk + 1) * NR), p1.add((kk + 1) * NR));
        let a0 = pa.add(kk * MR);
        let a1 = pa.add((kk + 1) * MR);
        for r in 0..MR {
            ce[r] = _mm512_fmadd_ps(_mm512_set1_ps(*a0.add(r)), b0, ce[r]);
            co[r] = _mm512_fmadd_ps(_mm512_set1_ps(*a1.add(r)), b1, co[r]);
        }
        kk += 2;
    }
    if kk < k {
        let b0 = pair(p0.add(kk * NR), p1.add(kk * NR));
        let a0 = pa.add(kk * MR);
        for r in 0..MR {
            ce[r] = _mm512_fmadd_ps(_mm512_set1_ps(*a0.add(r)), b0, ce[r]);
        }
    }
    for r in 0..MR {
        _mm512_storeu_ps(acc[r].as_mut_ptr(), _mm512_add_ps(ce[r], co[r]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    fn det(a: &Tensor, b: &Tensor) -> Tensor {
        Gemm::new(a, b).policy(MathPolicy::Deterministic).run()
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[5, 5], &mut rng);
        assert_close(&det(&a, &Tensor::eye(5)), &a, 1e-6);
        assert_close(&det(&Tensor::eye(5), &a), &a, 1e-6);
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (65, 3, 70), (130, 67, 2)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            assert_close(&det(&a, &b), &naive_matmul(&a, &b), 1e-3);
        }
    }

    #[test]
    fn packed_matches_reference_kernel() {
        let mut rng = StdRng::seed_from_u64(21);
        for (m, k, n) in [(4, 8, 8), (33, 17, 29), (70, 64, 66)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            // Same ascending-k accumulation order → bit-identical to the
            // PR-1 kernel on finite nonzero data.
            assert_eq!(det(&a, &b), reference_matmul(&a, &b));
        }
    }

    #[test]
    fn prepacked_operands_match_unpacked() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = Tensor::randn(&[13, 27], &mut rng);
        let b = Tensor::randn(&[27, 19], &mut rng);
        let w = Tensor::randn(&[19, 27], &mut rng);
        // Under Deterministic, prepacking produces the same panels the
        // per-call pack would, so it is bit-transparent.
        let policy = MathPolicy::Deterministic;
        let base = Gemm::new(&a, &b).policy(policy).run();
        assert_eq!(
            Gemm::prepacked_b(&a, &PackedB::pack(&b))
                .policy(policy)
                .run(),
            base
        );
        // pack_nt: w is [n, k], used as bᵀ.
        assert_eq!(
            Gemm::prepacked_b(&a, &PackedB::pack_nt(&w))
                .policy(policy)
                .run(),
            Gemm::new(&a, &w).transpose_b().policy(policy).run(),
        );
    }

    /// Under `Fast`, a prepacked B keeps the narrow layout (its wide
    /// counterpart is built per call only), so prepacked and per-call
    /// products may round differently — but both must stay within the
    /// fast-vs-oracle tolerance.
    #[test]
    fn prepacked_operands_track_fast_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Tensor::randn(&[13, 27], &mut rng);
        let b = Tensor::randn(&[27, 19], &mut rng);
        let base = Gemm::new(&a, &b).policy(MathPolicy::Fast).run();
        let via_pb = Gemm::prepacked_b(&a, &PackedB::pack(&b))
            .policy(MathPolicy::Fast)
            .run();
        let amax = a.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bmax = b.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let tol = (16.0 * f32::EPSILON * amax * bmax * 27.0).max(1e-7);
        for (x, y) in via_pb.data().iter().zip(base.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[4, 9], &mut rng);
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        let mut rng = StdRng::seed_from_u64(31);
        for (m, n) in [(1, 1), (3, 95), (95, 3), (33, 70), (64, 64)] {
            let a = Tensor::randn(&[m, n], &mut rng);
            let t = transpose(&a);
            assert_eq!(t.dims(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(t.at(&[j, i]), a.at(&[i, j]));
                }
            }
        }
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::randn(&[6, 4], &mut rng);
        let b = Tensor::randn(&[6, 5], &mut rng);
        assert_close(
            &Gemm::new(&a, &b).transpose_a().run(),
            &det(&transpose(&a), &b),
            1e-4,
        );

        let c = Tensor::randn(&[3, 8], &mut rng);
        let d = Tensor::randn(&[7, 8], &mut rng);
        assert_close(
            &Gemm::new(&c, &d).transpose_b().run(),
            &det(&c, &transpose(&d)),
            1e-4,
        );
    }

    #[test]
    fn try_run_reports_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let err = Gemm::new(&a, &b).try_run().expect_err("mismatched shapes");
        assert!(matches!(err, TensorError::ShapeMismatch { op: "gemm", .. }));
        assert!(Gemm::new(&a, &b).transpose_a().try_run().is_err());
        assert!(Gemm::new(&a, &Tensor::zeros(&[4, 4]))
            .transpose_b()
            .try_run()
            .is_err());
        // And succeed on valid shapes.
        let ok = Gemm::new(&a, &Tensor::zeros(&[3, 5]))
            .try_run()
            .expect("valid shapes");
        assert_eq!(ok.dims(), &[2, 5]);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(dot(&a, &b), 32.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch in gemm")]
    fn mismatched_matmul_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = Gemm::new(&a, &b).run();
    }

    #[test]
    #[should_panic(expected = "cannot transpose a prepacked operand")]
    fn prepacked_transpose_rejected() {
        let a = Tensor::zeros(&[2, 2]);
        let pb = PackedB::pack(&Tensor::zeros(&[2, 2]));
        let _ = Gemm::prepacked_b(&a, &pb).transpose_b();
    }

    #[test]
    fn deterministic_never_selects_fma() {
        // The dispatch invariant behind the bit-identity guarantee.
        assert!(!selected_kernel(MathPolicy::Deterministic).uses_fma());
    }

    #[test]
    fn fast_tracks_oracle_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(41);
        for (m, k, n) in [(1, 9, 1), (7, 31, 13), (64, 64, 64), (257, 40, 3)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let oracle = det(&a, &b);
            let fast = Gemm::new(&a, &b).policy(MathPolicy::Fast).run();
            let tol = 1e-5 * (k as f32).sqrt().max(1.0) * 4.0;
            assert_close(&fast, &oracle, tol);
        }
    }

    #[test]
    fn fast_is_reproducible_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[300, 120], &mut rng);
        let b = Tensor::randn(&[120, 130], &mut rng);
        let serial = Gemm::new(&a, &b).policy(MathPolicy::Fast).threads(1).run();
        for threads in [2, 3, 8] {
            assert_eq!(
                Gemm::new(&a, &b)
                    .policy(MathPolicy::Fast)
                    .threads(threads)
                    .run(),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn int8_policy_runs_quantized_and_tracks_oracle() {
        let mut rng = StdRng::seed_from_u64(45);
        let a = Tensor::randn(&[12, 33], &mut rng);
        let b = Tensor::randn(&[33, 10], &mut rng);
        let oracle = det(&a, &b);
        let q = Gemm::new(&a, &b).policy(MathPolicy::Int8).run();
        // Per-tensor symmetric quantization: error per output element is
        // bounded by k * (|a|max·sb/2 + |b|max·sa/2 + sa·sb/4).
        let amax = a.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bmax = b.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let (sa, sb) = (amax / 127.0, bmax / 127.0);
        let bound = 33.0 * (amax * sb / 2.0 + bmax * sa / 2.0 + sa * sb / 4.0) * 1.05;
        for (x, y) in q.data().iter().zip(oracle.data()) {
            assert!((x - y).abs() <= bound, "{x} vs {y} (bound {bound})");
        }
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The pooled path (large product) must agree with the single-thread
    /// packed kernel bit-for-bit, including when rows don't divide evenly
    /// into MR panels or bands.
    #[test]
    fn parallel_matches_serial_exactly() {
        let mut rng = StdRng::seed_from_u64(77);
        for (m, k, n) in [(300, 120, 130), (257, 90, 101)] {
            assert!(
                2 * m * k * n >= PAR_THRESHOLD,
                "case too small to exercise the parallel path"
            );
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let serial = Gemm::new(&a, &b)
                .policy(MathPolicy::Deterministic)
                .threads(1)
                .run();
            for threads in [2, 3, 8] {
                assert_eq!(
                    Gemm::new(&a, &b)
                        .policy(MathPolicy::Deterministic)
                        .threads(threads)
                        .run(),
                    serial,
                    "threads={threads}"
                );
            }
            // And the packed kernel still agrees with the PR-1 kernel.
            assert_eq!(serial, reference_matmul(&a, &b));
        }
    }
}
