//! 2-D convolution (via im2col) and pooling over NCHW tensors.
//!
//! Convolution runs on the same packed GEMM kernel as
//! [`linalg::Gemm`]: the `[c_out, c_in*k*k]` weight matrix is packed
//! into micro-panels **once per call** (or once per layer via
//! [`PackedConvWeight`] — the frozen-feature-extractor cache), each
//! image's patches are lowered into a thread-local im2col buffer (no
//! per-image allocation), and batch images band across the shared
//! [`crate::pool`]. Every image is computed by the same serial kernel
//! whichever thread claims it, so results are bit-identical at any
//! worker count.
//!
//! [`conv2d_prepacked_opts`] additionally takes [`ConvOpts`]: a
//! [`MathPolicy`] selecting the GEMM kernel family and an optional fused
//! bias+ReLU epilogue applied inside the GEMM write-back (the
//! conv+ReLU fusion the frozen CNN feature extractor uses). Fusion
//! performs the same IEEE ops in the same order as the unfused
//! bias-then-ReLU sequence, so it never changes bits — only memory
//! traffic. `Int8` has no im2col integer path and runs as `Fast`.

use crate::linalg::Epilogue;
use crate::pack::{self, PackedA};
use crate::{linalg, MathPolicy, Tensor};

/// Work threshold (in multiply-adds) above which [`conv2d`] fans batch
/// images across the worker pool — the same band pattern as
/// [`linalg::Gemm`], applied to the batch dimension. Below it,
/// scheduling overhead dominates the kernel itself.
const PAR_THRESHOLD: usize = 1 << 21;

/// Convolution / pooling spatial hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each spatial edge.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec; `stride` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, n: usize) -> usize {
        let padded = n + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {padded}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Lowers `[c, h, w]` image patches into a `[c*k*k, oh*ow]` matrix so
/// convolution becomes a single matmul. Writes into `cols` (resized,
/// capacity reused across calls via the thread-local scratch).
fn im2col_into(input: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, cols: &mut Vec<f32>) {
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let k = spec.kernel;
    cols.clear();
    cols.resize(c * k * k * oh * ow, 0.0);
    let row_len = oh * ow;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k * k + ky * k + kx) * row_len;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            input[ch * h * w + iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        cols[row + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
}

/// A conv2d weight prepacked for the GEMM microkernel: the
/// `[c_out, c_in*k*k]` matrix as A micro-panels. Frozen feature
/// extractors build one per layer and reuse it every batch
/// ([`conv2d_prepacked`]); [`conv2d`] builds one per call.
#[derive(Debug, Clone)]
pub struct PackedConvWeight {
    pa: PackedA,
    c_out: usize,
    c_in: usize,
    kernel: usize,
}

impl PackedConvWeight {
    /// Packs an OIKK `[c_out, c_in, k, k]` weight tensor.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is rank 4 with a square kernel.
    pub fn pack(weight: &Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 4, "conv2d weight must be OIKK");
        let (c_out, c_in, k, k2) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        assert_eq!(k, k2, "conv2d kernel must be square");
        let wmat = weight
            .reshape(&[c_out, c_in * k * k])
            .expect("weight reshape is size-preserving");
        PackedConvWeight {
            pa: PackedA::pack(&wmat),
            c_out,
            c_in,
            kernel: k,
        }
    }

    /// `(c_out, c_in, kernel)` of the packed weight.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.c_out, self.c_in, self.kernel)
    }
}

/// 2-D convolution of a batched NCHW input.
///
/// - `input`: `[n, c_in, h, w]`
/// - `weight`: `[c_out, c_in, k, k]`
/// - `bias`: `[c_out]` or `None`
///
/// Returns `[n, c_out, oh, ow]`.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    conv2d_with_threads(input, weight, bias, spec, crate::configured_threads())
}

/// [`conv2d`] with an explicit thread budget (determinism tests, benches).
///
/// # Panics
///
/// Same contract as [`conv2d`].
pub fn conv2d_with_threads(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    threads: usize,
) -> Tensor {
    let pw = PackedConvWeight::pack(weight);
    conv2d_prepacked_with_threads(input, &pw, bias, spec, threads)
}

/// [`conv2d`] with a weight packed ahead of time — the frozen-layer fast
/// path: the weight-matrix pack pass is skipped entirely.
///
/// # Panics
///
/// Same contract as [`conv2d`].
pub fn conv2d_prepacked(
    input: &Tensor,
    pw: &PackedConvWeight,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Tensor {
    conv2d_prepacked_with_threads(input, pw, bias, spec, crate::configured_threads())
}

/// Execution options for [`conv2d_prepacked_opts`].
#[derive(Debug, Clone, Copy)]
pub struct ConvOpts {
    /// GEMM kernel family; defaults to [`crate::default_math_policy`].
    pub policy: MathPolicy,
    /// Fuse a ReLU (and the bias, when present) into the GEMM
    /// write-back instead of running separate passes.
    pub fuse_relu: bool,
    /// Thread budget; defaults to [`crate::configured_threads`].
    pub threads: usize,
}

impl Default for ConvOpts {
    fn default() -> Self {
        ConvOpts {
            policy: crate::default_math_policy(),
            fuse_relu: false,
            threads: crate::configured_threads(),
        }
    }
}

/// [`conv2d_prepacked`] with an explicit thread budget.
///
/// # Panics
///
/// Same contract as [`conv2d`].
pub fn conv2d_prepacked_with_threads(
    input: &Tensor,
    pw: &PackedConvWeight,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    threads: usize,
) -> Tensor {
    conv2d_prepacked_opts(
        input,
        pw,
        bias,
        spec,
        ConvOpts {
            threads,
            ..ConvOpts::default()
        },
    )
}

/// The full-control conv entry point: [`conv2d_prepacked`] plus
/// [`ConvOpts`] (kernel policy, fused bias+ReLU epilogue, threads).
///
/// # Panics
///
/// Same contract as [`conv2d`].
pub fn conv2d_prepacked_opts(
    input: &Tensor,
    pw: &PackedConvWeight,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    opts: ConvOpts,
) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "conv2d input must be NCHW");
    let (n, c_in, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (c_out, pc_in, k) = pw.dims();
    assert_eq!(c_in, pc_in, "conv2d channel mismatch");
    assert_eq!(k, spec.kernel, "conv2d spec kernel mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "conv2d bias length mismatch");
    }

    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    let img_out_len = c_out * oh * ow;

    // Each image is an independent im2col + prepacked GEMM, so batch
    // images band across the pool exactly like matmul's output rows:
    // every image is computed by the same serial kernel whichever thread
    // claims it, and the result is bit-identical to the single-threaded
    // path.
    let flops = n * c_out * c_in * k * k * oh * ow;
    if flops >= PAR_THRESHOLD && opts.threads > 1 && n >= 2 {
        let images: Vec<std::sync::Mutex<(usize, &mut [f32])>> = out
            .chunks_mut(img_out_len)
            .enumerate()
            .map(std::sync::Mutex::new)
            .collect();
        crate::pool::run(opts.threads.min(n), images.len(), &|t| {
            if let Some(slot) = images.get(t) {
                let mut guard = slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let (b_idx, dst) = &mut *guard;
                conv2d_image(input, pw, bias, spec, opts, *b_idx, dst);
            }
        })
        .unwrap_or_else(|e| panic!("conv2d: {e}"));
    } else {
        for (b_idx, dst) in out.chunks_mut(img_out_len).enumerate() {
            conv2d_image(input, pw, bias, spec, opts, b_idx, dst);
        }
    }
    Tensor::from_vec(out, &[n, c_out, oh, ow])
}

/// Serial kernel for one batch image: thread-local im2col, then the
/// prepacked-A GEMM (with the fused epilogue when requested) into the
/// image's output plane.
fn conv2d_image(
    input: &Tensor,
    pw: &PackedConvWeight,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    opts: ConvOpts,
    b_idx: usize,
    dst: &mut [f32],
) {
    let (c_in, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let c_out = pw.c_out;
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let img_len = c_in * h * w;
    let img = &input.data()[b_idx * img_len..(b_idx + 1) * img_len];
    // The GEMM's output rows are the c_out channels, so a fused per-row
    // bias is exactly the conv bias.
    let epi = match (opts.fuse_relu, bias) {
        (true, Some(bvec)) => Epilogue::BiasRelu(bvec.data()),
        (true, None) => Epilogue::Relu,
        (false, _) => Epilogue::None,
    };
    pack::with_im2col(|cols| {
        im2col_into(img, c_in, h, w, spec, cols);
        linalg::matmul_packed_a_into(&pw.pa, cols, oh * ow, dst, opts.policy, &epi);
    });
    if !opts.fuse_relu {
        if let Some(bvec) = bias {
            for co in 0..c_out {
                let add = bvec.data()[co];
                for v in &mut dst[co * oh * ow..(co + 1) * oh * ow] {
                    *v += add;
                }
            }
        }
    }
}

/// Max pooling over an NCHW input. Returns `[n, c, oh, ow]`.
///
/// # Panics
///
/// Panics unless the input is rank 4.
pub fn max_pool2d(input: &Tensor, spec: Conv2dSpec) -> Tensor {
    pool2d(input, spec, true)
}

/// Average pooling over an NCHW input. Padding cells count toward the
/// divisor (the `count_include_pad = true` convention). Returns
/// `[n, c, oh, ow]`.
///
/// # Panics
///
/// Panics unless the input is rank 4.
pub fn avg_pool2d(input: &Tensor, spec: Conv2dSpec) -> Tensor {
    pool2d(input, spec, false)
}

fn pool2d(input: &Tensor, spec: Conv2dSpec, take_max: bool) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "pool2d input must be NCHW");
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let k = spec.kernel;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let data = input.data();
    for b in 0..n {
        for ch in 0..c {
            let plane = &data[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            let dst = &mut out[(b * c + ch) * oh * ow..(b * c + ch + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        for kx in 0..k {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                plane[iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                            best = best.max(v);
                            acc += v;
                        }
                    }
                    dst[oy * ow + ox] = if take_max { best } else { acc / (k * k) as f32 };
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Global average pooling: `[n, c, h, w]` → `[n, c]`.
///
/// # Panics
///
/// Panics unless the input is rank 4.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    assert_eq!(
        input.shape().rank(),
        4,
        "global_avg_pool input must be NCHW"
    );
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let mut out = vec![0.0f32; n * c];
    let hw = (h * w) as f32;
    for b in 0..n {
        for ch in 0..c {
            let plane = &input.data()[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            out[b * c + ch] = plane.iter().sum::<f32>() / hw;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_size_formula() {
        let s = Conv2dSpec::new(3, 1, 1);
        assert_eq!(s.out_size(8), 8); // same padding
        let s2 = Conv2dSpec::new(3, 2, 0);
        assert_eq!(s2.out_size(7), 3);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 should copy the input.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(1, 1, 0));
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_known_answer() {
        // 2x2 input, 2x2 all-ones kernel, no padding: single output = sum.
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(2, 1, 0));
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        assert_eq!(out.data()[0], 10.0);
    }

    #[test]
    fn conv_bias_and_channels() {
        // Two output channels differing only by bias.
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let bias = Tensor::from_vec(vec![0.0, 100.0], &[2]);
        let out = conv2d(&input, &weight, Some(&bias), Conv2dSpec::new(3, 1, 0));
        assert_eq!(out.data(), &[9.0, 109.0]);
    }

    #[test]
    fn conv_padding_zeroes_edges() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(3, 1, 1));
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // Every output sees exactly the 4 ones.
        assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn max_pool_picks_max() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let out = max_pool2d(&input, Conv2dSpec::new(2, 2, 0));
        assert_eq!(out.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let out = avg_pool2d(&input, Conv2dSpec::new(2, 2, 0));
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn global_avg_pool_per_channel() {
        let input = Tensor::from_vec(
            vec![
                1.0, 1.0, 1.0, 1.0, // channel 0
                2.0, 2.0, 2.0, 2.0, // channel 1
            ],
            &[1, 2, 2, 2],
        );
        let out = global_avg_pool(&input);
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.data(), &[1.0, 2.0]);
    }

    #[test]
    fn parallel_conv_matches_serial_exactly() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(88);
        // 9 images (not a multiple of typical core counts), 8→16
        // channels, 16×16 with a 3×3 kernel: above PAR_THRESHOLD.
        let (n, c_in, c_out, hw, k) = (9usize, 8usize, 16usize, 16usize, 3usize);
        let spec = Conv2dSpec::new(k, 1, 1);
        let o = spec.out_size(hw);
        assert!(
            n * c_out * c_in * k * k * o * o >= PAR_THRESHOLD,
            "case too small to exercise the parallel path"
        );
        let input = Tensor::randn(&[n, c_in, hw, hw], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, k, k], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let serial = conv2d_with_threads(&input, &weight, Some(&bias), spec, 1);
        for threads in [2, 3, 8] {
            let fast = conv2d_with_threads(&input, &weight, Some(&bias), spec, threads);
            assert_eq!(fast.data(), serial.data(), "threads={threads}");
        }
        // Prepacked weights take the same kernel path bit-for-bit.
        let pw = PackedConvWeight::pack(&weight);
        let pre = conv2d_prepacked(&input, &pw, Some(&bias), spec);
        assert_eq!(pre.data(), serial.data());
    }

    #[test]
    fn fused_relu_matches_unfused_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(89);
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::randn(&[3, 4, 8, 8], &mut rng);
        let weight = Tensor::randn(&[6, 4, 3, 3], &mut rng);
        let bias = Tensor::randn(&[6], &mut rng);
        let pw = PackedConvWeight::pack(&weight);
        for policy in [MathPolicy::Deterministic, MathPolicy::Fast] {
            let opts = ConvOpts {
                policy,
                fuse_relu: false,
                threads: 1,
            };
            let unfused = conv2d_prepacked_opts(&input, &pw, Some(&bias), spec, opts);
            let fused = conv2d_prepacked_opts(
                &input,
                &pw,
                Some(&bias),
                spec,
                ConvOpts {
                    fuse_relu: true,
                    ..opts
                },
            );
            for (&f, &u) in fused.data().iter().zip(unfused.data()) {
                assert_eq!(f, u.max(0.0), "policy={policy}");
            }
        }
    }

    #[test]
    fn batch_dimension_is_independent() {
        let a = Tensor::from_vec(vec![1.0; 4], &[1, 1, 2, 2]);
        let b = Tensor::from_vec(vec![2.0; 4], &[1, 1, 2, 2]);
        let mut both = Vec::new();
        both.extend_from_slice(a.data());
        both.extend_from_slice(b.data());
        let batch = Tensor::from_vec(both, &[2, 1, 2, 2]);
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let spec = Conv2dSpec::new(2, 1, 0);
        let out = conv2d(&batch, &weight, None, spec);
        let oa = conv2d(&a, &weight, None, spec);
        let ob = conv2d(&b, &weight, None, spec);
        assert_eq!(out.data()[0], oa.data()[0]);
        assert_eq!(out.data()[1], ob.data()[0]);
    }
}
