//! Numerical-policy selection for the compute kernels.
//!
//! Every matrix product in the workspace runs under a [`MathPolicy`]:
//!
//! - [`MathPolicy::Deterministic`] — the bit-exact oracle. Separate
//!   IEEE multiply-then-add in ascending-`k` order, identical across
//!   hosts, thread counts, and dispatch decisions. This is the kernel
//!   family every other policy is tested against.
//! - [`MathPolicy::Fast`] — opt-in FMA / AVX-512 microkernels. Fused
//!   multiply-add contracts the intermediate rounding and the `k` loop
//!   is unrolled into independent accumulator chains, so results differ
//!   from the oracle by bounded rounding noise (tolerance-gated tests).
//! - [`MathPolicy::Int8`] — opt-in symmetric int8 quantized inference
//!   ([`crate::quant`]): per-tensor scales, `i8×i8→i32` accumulation,
//!   dequantize on write-back. For products with no integer path (a
//!   prepacked f32 right operand) this behaves like `Fast`.
//!
//! The process-wide default comes from the `NDPIPE_MATH` environment
//! variable (`deterministic` | `fast` | `int8`, unset ⇒ deterministic),
//! read once and cached; [`set_default_math_policy`] lets a binary pin
//! it from a CLI flag (`ndpipe_node --math`) before first use.

use std::sync::OnceLock;

/// Numerical contract a matrix product is computed under. See the
/// [module docs](self) for what each level guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MathPolicy {
    /// Bit-exact mul-then-add kernels; the test oracle.
    #[default]
    Deterministic,
    /// Runtime-dispatched FMA / AVX-512 f32 kernels, tolerance-gated.
    Fast,
    /// Symmetric int8 quantized path where available, else `Fast`.
    Int8,
}

impl MathPolicy {
    /// Canonical lowercase name (CLI flags, RPC describe output, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            MathPolicy::Deterministic => "deterministic",
            MathPolicy::Fast => "fast",
            MathPolicy::Int8 => "int8",
        }
    }

    /// Parses a policy name as accepted by `NDPIPE_MATH` and
    /// `ndpipe_node --math`. Case-insensitive; `det` is accepted as an
    /// abbreviation of `deterministic`.
    pub fn parse(s: &str) -> Option<MathPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "deterministic" | "det" => Some(MathPolicy::Deterministic),
            "fast" => Some(MathPolicy::Fast),
            "int8" => Some(MathPolicy::Int8),
            _ => None,
        }
    }

    /// Stable wire encoding (RPC `ShardInfo`).
    pub fn to_u8(self) -> u8 {
        match self {
            MathPolicy::Deterministic => 0,
            MathPolicy::Fast => 1,
            MathPolicy::Int8 => 2,
        }
    }

    /// Inverse of [`MathPolicy::to_u8`].
    pub fn from_u8(v: u8) -> Option<MathPolicy> {
        match v {
            0 => Some(MathPolicy::Deterministic),
            1 => Some(MathPolicy::Fast),
            2 => Some(MathPolicy::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for MathPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

static DEFAULT_POLICY: OnceLock<MathPolicy> = OnceLock::new();

/// The process-wide default [`MathPolicy`]: the value pinned by
/// [`set_default_math_policy`] if any, else `NDPIPE_MATH` (unset or
/// unparsable ⇒ [`MathPolicy::Deterministic`]). Cached after first read.
pub fn default_math_policy() -> MathPolicy {
    *DEFAULT_POLICY.get_or_init(|| {
        std::env::var("NDPIPE_MATH")
            .ok()
            .and_then(|v| MathPolicy::parse(&v))
            .unwrap_or_default()
    })
}

/// Pins the process-wide default policy (e.g. from `ndpipe_node --math`)
/// before any kernel consults it. Returns `false` if the default was
/// already resolved to a *different* value — callers that care (the CLI)
/// should treat that as a startup-ordering bug and report it.
pub fn set_default_math_policy(policy: MathPolicy) -> bool {
    DEFAULT_POLICY.set(policy).is_ok() || default_math_policy() == policy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in [MathPolicy::Deterministic, MathPolicy::Fast, MathPolicy::Int8] {
            assert_eq!(MathPolicy::parse(p.as_str()), Some(p));
            assert_eq!(MathPolicy::from_u8(p.to_u8()), Some(p));
        }
        assert_eq!(MathPolicy::parse("DET"), Some(MathPolicy::Deterministic));
        assert_eq!(MathPolicy::parse("tensorrt"), None);
        assert_eq!(MathPolicy::from_u8(250), None);
    }

    #[test]
    fn default_is_deterministic_unless_configured() {
        // The test harness never sets NDPIPE_MATH for unit tests of this
        // crate module, and other tests never pin the global here — but a
        // full-suite run under `NDPIPE_MATH=fast` (check.sh) legitimately
        // changes the default, so only assert self-consistency.
        let p = default_math_policy();
        assert_eq!(MathPolicy::parse(p.as_str()), Some(p));
    }
}
