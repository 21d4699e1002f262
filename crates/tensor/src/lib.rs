//! Minimal f32 n-dimensional tensor library.
//!
//! This crate is the numerical substrate for the NDPipe reproduction. It
//! provides exactly what fine-tuning a classifier head and running
//! feature-extraction forward passes require:
//!
//! - [`Shape`] — dimension/stride bookkeeping with checked index math,
//! - [`Tensor`] — a dense, row-major `f32` tensor with elementwise and
//!   broadcasting operations,
//! - [`linalg`] — packed-panel (BLIS-style) matrix multiplication behind
//!   the [`linalg::Gemm`] descriptor, plus transposes,
//! - [`policy`] — the [`MathPolicy`] kernel-family selector
//!   (deterministic oracle / opt-in FMA+AVX-512 / int8),
//! - [`quant`] — symmetric int8 quantization and the `i8×i8→i32`
//!   inference kernel behind [`MathPolicy::Int8`],
//! - [`pack`] — panel packing + thread-local scratch feeding the GEMM
//!   microkernel, and the prepacked right operand the frozen-layer
//!   weight cache stores,
//! - [`pool`] — the persistent worker pool every parallel kernel in the
//!   workspace shares (honours `NDPIPE_THREADS`),
//! - [`activation`] — ReLU, GELU, sigmoid, (log-)softmax,
//! - [`init`] — Kaiming/Xavier weight initializers over a seeded RNG.
//!
//! The library is intentionally small: no autograd graph, no views, no
//! generic element types. The NDPipe fine-tuning path only back-propagates
//! through the trainable classifier layers, and those gradients are written
//! by hand in the `dnn` crate on top of these primitives.
//!
//! # Example
//!
//! ```
//! use tensor::{Tensor, linalg::Gemm};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = Gemm::new(&a, &b).run();
//! assert_eq!(c.data(), a.data());
//! ```

pub mod activation;
pub mod init;
pub mod linalg;
pub mod pack;
pub mod policy;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use policy::{default_math_policy, set_default_math_policy, MathPolicy};
pub use shape::Shape;
/// The workspace's one bounded byte reader and its writers, re-exported
/// so crates above `tensor` (the `Mlp` codec) share it without a new
/// dependency edge.
pub use telemetry::codec;
pub use tensor::{argmax_of, Tensor};

/// Thread budget for parallel kernels ([`linalg::Gemm`], the chunked
/// DEFLATE codec, the NPE decode pool): the
/// `NDPIPE_THREADS` environment variable when set (minimum 1), otherwise
/// the machine's available parallelism.
///
/// Every parallel kernel in this crate partitions work into bands that
/// are each computed by the serial kernel, so results are bit-identical
/// at any thread count — `NDPIPE_THREADS=1` is a determinism *check*,
/// not a determinism *requirement*.
pub fn configured_threads() -> usize {
    match std::env::var("NDPIPE_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Error type for tensor operations that validate their inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// The left-hand shape.
        lhs: Vec<usize>,
        /// The right-hand shape.
        rhs: Vec<usize>,
    },
    /// A reshape changed the total number of elements.
    BadReshape {
        /// Number of elements in the source tensor.
        from: usize,
        /// Number of elements implied by the requested shape.
        to: usize,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's dimensions.
        dims: Vec<usize>,
    },
    /// A worker-pool task panicked while computing this operation. The
    /// remaining bands still ran to completion before this was reported
    /// (see [`pool::run`]).
    WorkerPanicked {
        /// The operation whose band failed.
        op: &'static str,
        /// The contained panic message.
        msg: String,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::BadReshape { from, to } => {
                write!(f, "cannot reshape {from} elements into {to} elements")
            }
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index:?} out of bounds for dims {dims:?}")
            }
            TensorError::WorkerPanicked { op, msg } => {
                write!(f, "worker panicked in {op}: {msg}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("[2, 3]"));
    }

    #[test]
    fn error_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
        assert_send_sync::<Tensor>();
    }
}
