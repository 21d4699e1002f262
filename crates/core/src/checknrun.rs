//! Check-N-Run-style model distribution (§5, paper reference 29).
//!
//! After every fine-tuning round the updated model must reach every
//! PipeStore. Shipping whole models is wasteful: fine-tuning only touches
//! the trainable tail. Following Check-N-Run, [`ModelDelta`] encodes the
//! *difference* between two models — only layers that changed, quantized
//! to 8 bits with a per-tensor scale, DEFLATE-compressed — achieving
//! traffic reductions of hundreds of × versus full-model distribution.

use bytes::Bytes;
use dnn::Mlp;
use ndpipe_data::deflate;
use telemetry::codec::{self, put_f32, put_u32, put_u64, Reader};
use tensor::Tensor;

/// Errors applying a delta to a model replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The replica's classifier shape differs from the delta's source
    /// (e.g. the master was widened for new classes — distribute the full
    /// model instead).
    ShapeMismatch,
    /// The encoded payload failed to decompress or parse.
    Corrupt,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::ShapeMismatch => write!(f, "delta does not match replica shape"),
            DeltaError::Corrupt => write!(f, "delta payload is corrupt"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<codec::Error> for DeltaError {
    fn from(_: codec::Error) -> Self {
        DeltaError::Corrupt
    }
}

/// A compressed, quantized diff between two fine-tuned models.
///
/// # Example
///
/// ```
/// use dnn::Mlp;
/// use ndpipe::ModelDelta;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let old = Mlp::new(&[8, 16, 4], 1, &mut rng);
/// let new = old.clone(); // unchanged model -> near-empty delta
/// let delta = ModelDelta::between(&old, &new);
/// assert!(delta.wire_bytes() < 128);
/// ```
#[derive(Debug, Clone)]
pub struct ModelDelta {
    payload: Bytes,
    /// Bytes a full-model distribution would have moved.
    full_model_bytes: usize,
    /// Tuner model version this delta upgrades *from* (0 = unstamped).
    base_version: u64,
    /// Tuner model version this delta upgrades *to* (0 = unstamped).
    target_version: u64,
}

/// Quantization: i8 with symmetric per-tensor scale.
fn quantize(delta: &Tensor, out: &mut Vec<u8>) {
    let max_abs = delta.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
    put_f32(out, scale);
    out.extend(delta.data().iter().map(|&x| {
        let q = if scale > 0.0 {
            (x / scale).round().clamp(-127.0, 127.0) as i8
        } else {
            0
        };
        q as u8
    }));
}

fn dequantize(r: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, DeltaError> {
    let scale = r.f32()?;
    Ok(r.take(n)?.iter().map(|&q| q as i8 as f32 * scale).collect())
}

impl ModelDelta {
    /// Encodes the difference `new − old` over the classifier layers.
    ///
    /// Weight-freeze layers are bit-identical between fine-tuned models
    /// and are skipped entirely; changed layers are quantized to 8 bits
    /// and the whole payload is DEFLATE-compressed.
    ///
    /// # Panics
    ///
    /// Panics if the two models have different architectures.
    pub fn between(old: &Mlp, new: &Mlp) -> Self {
        assert_eq!(old.n_layers(), new.n_layers(), "architecture mismatch");
        assert_eq!(old.split(), new.split(), "split mismatch");
        let old_cls = old.classifier_layers();
        let new_cls = new.classifier_layers();
        let mut raw = Vec::new();
        put_u32(&mut raw, new_cls.len() as u32);
        for (o, n) in old_cls.iter().zip(new_cls) {
            assert_eq!(o.weights().dims(), n.weights().dims(), "shape mismatch");
            put_u32(&mut raw, n.d_out() as u32);
            put_u32(&mut raw, n.d_in() as u32);
            let dw = n.weights().sub(o.weights());
            let db = n.bias().sub(o.bias());
            quantize(&dw, &mut raw);
            quantize(&db, &mut raw);
        }
        // Chunked frame: large deltas compress across cores; small ones
        // fall back to a plain stream automatically.
        let payload = Bytes::from(deflate::compress_chunked(&raw, deflate::DEFAULT_CHUNK_SIZE));
        if telemetry::enabled() {
            let g = telemetry::global();
            g.counter(
                "ndpipe_checknrun_deltas_total",
                "Check-N-Run deltas encoded",
            )
            .inc();
            g.counter(
                "ndpipe_checknrun_delta_bytes_total",
                "compressed delta payload bytes encoded",
            )
            .add(payload.len() as u64);
            g.counter(
                "ndpipe_checknrun_full_model_bytes_total",
                "bytes a full-model distribution would have moved",
            )
            .add((new.param_count() * 4) as u64);
            g.histogram(
                "ndpipe_checknrun_traffic_reduction",
                "full-model bytes over delta bytes, per encoded delta",
            )
            .observe((new.param_count() * 4) as f64 / payload.len().max(1) as f64);
        }
        ModelDelta {
            payload,
            full_model_bytes: new.param_count() * 4,
            base_version: 0,
            target_version: 0,
        }
    }

    /// Stamps the Tuner model-version span this delta covers
    /// (`w_version` before → after the fine-tuning round), so replicas
    /// and schedulers can audit how stale an in-flight distribution is.
    #[must_use]
    pub fn with_versions(mut self, base: u64, target: u64) -> Self {
        self.base_version = base;
        self.target_version = target;
        self
    }

    /// The stamped `(base, target)` Tuner version span; `(0, 0)` when
    /// the delta was never stamped.
    pub fn versions(&self) -> (u64, u64) {
        (self.base_version, self.target_version)
    }

    /// Bytes this delta puts on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Serializes the delta for network transport:
    /// `[full_model_bytes u64][base_version u64][target_version u64]`
    /// then the compressed payload, all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.payload.len());
        put_u64(&mut out, self.full_model_bytes as u64);
        put_u64(&mut out, self.base_version);
        put_u64(&mut out, self.target_version);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Reconstructs a delta from [`ModelDelta::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Corrupt`] if the framing is too short.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelDelta, DeltaError> {
        let mut r = Reader::new(bytes);
        let full_model_bytes = r.u64()? as usize;
        let base_version = r.u64()?;
        let target_version = r.u64()?;
        Ok(ModelDelta {
            payload: Bytes::copy_from_slice(r.rest()),
            full_model_bytes,
            base_version,
            target_version,
        })
    }

    /// Traffic reduction versus shipping the full model
    /// (`full_model_bytes / wire_bytes`). The paper reports up to 427.4×.
    pub fn traffic_reduction(&self) -> f64 {
        self.full_model_bytes as f64 / self.payload.len().max(1) as f64
    }

    /// Applies the delta to a replica of the *old* model, upgrading its
    /// classifier in place.
    ///
    /// # Errors
    ///
    /// [`DeltaError::ShapeMismatch`] if the replica's classifier differs
    /// from the encoded shapes; [`DeltaError::Corrupt`] on a bad payload.
    pub fn apply(&self, replica: &mut Mlp) -> Result<(), DeltaError> {
        // `decompress_framed` also accepts legacy plain-deflate deltas.
        let raw = deflate::decompress_framed(&self.payload).map_err(|_| DeltaError::Corrupt)?;
        let mut r = Reader::new(&raw);
        // Smallest layer: two dims and two scales around one weight and
        // one bias.
        let n_layers = r.count(4 + 4 + 4 + 1 + 4 + 1)?;
        if n_layers != replica.classifier_layers().len() {
            return Err(DeltaError::ShapeMismatch);
        }
        for layer in replica.classifier_layers_mut() {
            let d_out = r.u32()? as usize;
            let d_in = r.u32()? as usize;
            if d_out != layer.d_out() || d_in != layer.d_in() {
                return Err(DeltaError::ShapeMismatch);
            }
            let dw = dequantize(&mut r, d_out * d_in)?;
            let db = dequantize(&mut r, d_out)?;
            let mut w = layer.weights().clone();
            for (t, d) in w.data_mut().iter_mut().zip(&dw) {
                *t += d;
            }
            let mut b = layer.bias().clone();
            for (t, d) in b.data_mut().iter_mut().zip(&db) {
                *t += d;
            }
            layer.set_weights(w, b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fine_tuned_pair(rng: &mut StdRng) -> (Mlp, Mlp) {
        // A model with a large frozen body and a small trainable head,
        // like ResNet50's FC over its conv stack.
        let old = Mlp::new(&[64, 256, 256, 64, 10], 3, rng);
        let mut new = old.clone();
        let x = tensor::Tensor::randn(&[32, 64], rng);
        let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
        for _ in 0..10 {
            new.train_step(&x, &labels, 0.1, 0.9, new.split());
        }
        (old, new)
    }

    #[test]
    fn delta_is_far_smaller_than_full_model() {
        let mut rng = StdRng::seed_from_u64(61);
        let (old, new) = fine_tuned_pair(&mut rng);
        let delta = ModelDelta::between(&old, &new);
        let reduction = delta.traffic_reduction();
        // Frozen body skipped (≈150×) plus 4× quantization and deflate.
        assert!(reduction > 100.0, "reduction only {reduction}x");
    }

    #[test]
    fn apply_reconstructs_master_within_quantization_error() {
        let mut rng = StdRng::seed_from_u64(62);
        let (old, new) = fine_tuned_pair(&mut rng);
        let delta = ModelDelta::between(&old, &new);
        let mut replica = old.clone();
        delta.apply(&mut replica).unwrap();
        for (r, m) in replica
            .classifier_layers()
            .iter()
            .zip(new.classifier_layers())
        {
            let err = r.weights().sub(m.weights()).frobenius_norm();
            let mag = m.weights().frobenius_norm();
            assert!(err < mag * 0.02, "err {err} vs mag {mag}");
        }
    }

    #[test]
    fn identical_models_yield_tiny_delta() {
        let mut rng = StdRng::seed_from_u64(63);
        let m = Mlp::new(&[8, 16, 4], 1, &mut rng);
        let delta = ModelDelta::between(&m, &m);
        let mut replica = m.clone();
        delta.apply(&mut replica).unwrap();
        assert_eq!(
            replica.classifier_layers()[0].weights().data(),
            m.classifier_layers()[0].weights().data()
        );
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut rng = StdRng::seed_from_u64(64);
        let a = Mlp::new(&[8, 16, 4], 1, &mut rng);
        let delta = ModelDelta::between(&a, &a);
        let mut widened = a.clone();
        widened.widen_classes(6, &mut rng);
        assert_eq!(delta.apply(&mut widened), Err(DeltaError::ShapeMismatch));
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut rng = StdRng::seed_from_u64(65);
        let a = Mlp::new(&[8, 16, 4], 1, &mut rng);
        let mut delta = ModelDelta::between(&a, &a);
        delta.payload = Bytes::from_static(&[1, 2, 3]);
        let mut replica = a.clone();
        assert!(delta.apply(&mut replica).is_err());
    }

    #[test]
    fn error_display() {
        assert!(DeltaError::ShapeMismatch.to_string().contains("shape"));
    }

    #[test]
    fn version_stamp_survives_the_wire() {
        let mut rng = StdRng::seed_from_u64(66);
        let (old, new) = fine_tuned_pair(&mut rng);
        let delta = ModelDelta::between(&old, &new).with_versions(4, 7);
        assert_eq!(delta.versions(), (4, 7));
        let back = ModelDelta::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(back.versions(), (4, 7));
        assert_eq!(back.wire_bytes(), delta.wire_bytes());
        assert_eq!(back.traffic_reduction(), delta.traffic_reduction());
        let mut replica = old.clone();
        back.apply(&mut replica).unwrap();
        // Truncated headers are corrupt, not misparsed.
        assert_eq!(
            ModelDelta::from_bytes(&delta.to_bytes()[..23]).unwrap_err(),
            DeltaError::Corrupt
        );
    }
}
