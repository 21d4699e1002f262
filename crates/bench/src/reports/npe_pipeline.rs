//! Executable NPE pipeline benchmark: measured serial-vs-pipelined
//! offline-inference throughput and parallel chunked-codec throughput.
//!
//! Unlike `fig12_npe` (the analytic capacity model), every number here is
//! wall-clock measured on the real threaded engine over real compressed
//! sidecars. On single-core machines the decode pool cannot speed up, but
//! batched FE still does (weights stream from memory once per batch
//! instead of once per photo) — the report records the host's CPU count
//! so scaling numbers can be read in context.

use crate::util::{fmt, Report};
use dnn::Mlp;
use ndpipe::npe::engine::EngineConfig;
use ndpipe::PipeStore;
use ndpipe_data::deflate;
use ndpipe_data::photo::{preprocessed_binary, PhotoFactory};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Workload knobs (exposed so tests can run a tiny configuration).
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    /// Photos stored on the PipeStore.
    pub photos: usize,
    /// Preprocessed-binary bytes per photo.
    pub sidecar_bytes: usize,
    /// Model input dimension (= shard feature dimension).
    pub input_dim: usize,
    /// Hidden widths of the local model replica.
    pub hidden: [usize; 2],
    /// Shard rows backing classification inputs.
    pub shard_rows: usize,
    /// Classes.
    pub classes: usize,
    /// Bytes of the codec thread-sweep input.
    pub codec_bytes: usize,
}

impl BenchParams {
    /// Full configuration: ≥512 photos, paper-like 1 MiB-class sidecars.
    pub fn full() -> Self {
        BenchParams {
            photos: 512,
            sidecar_bytes: 16 * 1024,
            input_dim: 512,
            hidden: [1024, 512],
            shard_rows: 64,
            classes: 16,
            codec_bytes: 16 * 1024 * 1024,
        }
    }

    /// Smaller (noisier) configuration for `--fast` runs.
    pub fn fast() -> Self {
        BenchParams {
            photos: 128,
            sidecar_bytes: 8 * 1024,
            input_dim: 256,
            hidden: [512, 256],
            shard_rows: 32,
            classes: 8,
            codec_bytes: 4 * 1024 * 1024,
        }
    }

    /// Tiny configuration for unit tests (debug builds).
    pub fn tiny() -> Self {
        BenchParams {
            photos: 24,
            sidecar_bytes: 1024,
            input_dim: 32,
            hidden: [48, 32],
            shard_rows: 8,
            classes: 4,
            codec_bytes: 192 * 1024,
        }
    }
}

/// One pipelined-engine measurement.
#[derive(Debug, Clone, Copy)]
pub struct PipelinePoint {
    /// Decode-pool worker count.
    pub decomp_workers: usize,
    /// Measured images/second.
    pub ips: f64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// `[load, decode, fe]` stage occupancy.
    pub occupancy: [f64; 3],
}

/// One codec thread-sweep measurement.
#[derive(Debug, Clone, Copy)]
pub struct CodecPoint {
    /// Worker threads.
    pub threads: usize,
    /// Chunked compression throughput over the raw input, MB/s.
    pub compress_mb_s: f64,
    /// Chunked decompression throughput (raw output bytes), MB/s.
    pub decompress_mb_s: f64,
}

/// Everything the bench measures, ready for rendering.
#[derive(Debug, Clone)]
pub struct NpeMeasurements {
    /// The workload that was run.
    pub params: BenchParams,
    /// Host parallelism (`NDPIPE_THREADS` or available cores).
    pub cpus: usize,
    /// Serial reference: seconds for all photos.
    pub serial_secs: f64,
    /// Serial reference throughput, images/second.
    pub serial_ips: f64,
    /// Pipelined engine at 1/2/4 decode workers (batch 128).
    pub pipelined: Vec<PipelinePoint>,
    /// Codec throughput at 1/2/4 worker threads.
    pub codec: Vec<CodecPoint>,
}

impl NpeMeasurements {
    /// Best pipelined throughput across the worker sweep.
    pub fn best_pipelined_ips(&self) -> f64 {
        self.pipelined.iter().map(|p| p.ips).fold(0.0, f64::max)
    }

    /// Best pipelined speedup over the serial reference.
    pub fn speedup(&self) -> f64 {
        if self.serial_ips > 0.0 {
            self.best_pipelined_ips() / self.serial_ips
        } else {
            0.0
        }
    }

    /// Decompression speedup of the widest sweep point over 1 thread.
    pub fn codec_decompress_speedup(&self) -> f64 {
        let one = self.codec.iter().find(|c| c.threads == 1);
        let top = self.codec.iter().max_by_key(|c| c.threads);
        match (one, top) {
            (Some(a), Some(b)) if a.decompress_mb_s > 0.0 => b.decompress_mb_s / a.decompress_mb_s,
            _ => 0.0,
        }
    }
}

/// Builds the benchmark world: one PipeStore with a model replica and
/// `p.photos` stored photos carrying real compressed preprocessed sidecars.
/// Shared with the `telemetry_overhead` report so both benches measure the
/// same workload.
pub(crate) fn build_store(p: &BenchParams, rng: &mut StdRng) -> PipeStore {
    let universe = ClassUniverse::new(p.input_dim, 16, p.classes, 0.25, rng);
    let rows: Vec<tensor::Tensor> = (0..p.shard_rows)
        .map(|i| universe.sample(i % p.classes, rng))
        .collect();
    let labels: Vec<usize> = (0..p.shard_rows).map(|i| i % p.classes).collect();
    let shard = LabeledDataset::new(rows, labels, p.classes);
    let mut store = PipeStore::new(0, shard);
    store.install_model(Mlp::new(
        &[p.input_dim, p.hidden[0], p.hidden[1], p.classes],
        2,
        rng,
    ));
    let mut factory = PhotoFactory::new(4096);
    for i in 0..p.photos {
        let photo = factory.make(i % p.classes, 0, rng);
        store.store_photo(photo, preprocessed_binary(p.sidecar_bytes, rng));
    }
    store
}

/// Measures just the engine (no codec sweep): serial seconds plus one
/// pipelined run at `workers` decode workers. Used by the `fig12_npe`
/// report to put measured bars next to the analytic ones.
pub fn measure_engine(p: &BenchParams, workers: usize) -> (f64, PipelinePoint) {
    let mut rng = StdRng::seed_from_u64(1207);
    let store = build_store(p, &mut rng);
    let t0 = Instant::now();
    let serial = store.offline_inference_serial();
    let serial_secs = t0.elapsed().as_secs_f64();
    let cfg = EngineConfig {
        batch: 128,
        decomp_workers: workers,
        queue_depth: 256,
    };
    let (out, stats) = store.offline_inference_pipelined(&cfg);
    assert_eq!(out, serial, "pipelined result diverged from serial");
    (
        serial_secs,
        PipelinePoint {
            decomp_workers: workers,
            ips: stats.ips(),
            wall_secs: stats.wall_secs,
            occupancy: stats.occupancies(),
        },
    )
}

/// Runs the measured benchmark at the given workload size.
pub fn measure_with(p: &BenchParams) -> NpeMeasurements {
    let mut rng = StdRng::seed_from_u64(1207);
    let store = build_store(p, &mut rng);

    // Serial reference: one photo at a time, one forward per photo.
    let t0 = Instant::now();
    let serial = store.offline_inference_serial();
    let serial_secs = t0.elapsed().as_secs_f64();
    let serial_ips = p.photos as f64 / serial_secs.max(1e-9);

    // Pipelined engine across decode-pool sizes.
    let mut pipelined = Vec::new();
    for workers in [1usize, 2, 4] {
        let cfg = EngineConfig {
            batch: 128,
            decomp_workers: workers,
            queue_depth: 256,
        };
        let (out, stats) = store.offline_inference_pipelined(&cfg);
        assert_eq!(out, serial, "pipelined result diverged from serial");
        pipelined.push(PipelinePoint {
            decomp_workers: workers,
            ips: stats.ips(),
            wall_secs: stats.wall_secs,
            occupancy: stats.occupancies(),
        });
    }

    // Codec thread sweep over one big photo-like buffer.
    let data = preprocessed_binary(p.codec_bytes, &mut rng);
    let mb = data.len() as f64 / 1e6;
    let mut codec = Vec::new();
    for threads in [1usize, 2, 4] {
        let t0 = Instant::now();
        let packed = deflate::compress_chunked_with(&data, deflate::DEFAULT_CHUNK_SIZE, threads);
        let compress_mb_s = mb / t0.elapsed().as_secs_f64().max(1e-9);
        let t0 = Instant::now();
        let restored = deflate::decompress_framed_with(&packed, threads).expect("codec roundtrip");
        let decompress_mb_s = mb / t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(restored.len(), data.len(), "codec roundtrip length");
        codec.push(CodecPoint {
            threads,
            compress_mb_s,
            decompress_mb_s,
        });
    }

    NpeMeasurements {
        params: *p,
        cpus: tensor::configured_threads(),
        serial_secs,
        serial_ips,
        pipelined,
        codec,
    }
}

/// Renders the measurements as a human-readable report.
pub fn render(m: &NpeMeasurements) -> String {
    let mut r = Report::new(
        "NPE pipeline",
        "measured 3-stage engine vs serial reference (real codec, real forwards)",
    );
    r.note(&format!(
        "host parallelism: {} (NDPIPE_THREADS or available cores)",
        m.cpus
    ));
    r.blank();
    r.header(&[
        "path",
        "decomp workers",
        "IPS",
        "wall s",
        "occ load/decode/fe",
    ]);
    r.row(&[
        "serial".into(),
        "1".into(),
        fmt(m.serial_ips, 2),
        fmt(m.serial_secs, 4),
        "-".into(),
    ]);
    for pt in &m.pipelined {
        r.row(&[
            "pipelined".into(),
            pt.decomp_workers.to_string(),
            fmt(pt.ips, 2),
            fmt(pt.wall_secs, 4),
            format!(
                "{}/{}/{}",
                fmt(pt.occupancy[0], 3),
                fmt(pt.occupancy[1], 3),
                fmt(pt.occupancy[2], 3)
            ),
        ]);
    }
    r.blank();
    r.note(&format!(
        "best pipelined: {:.2} IPS, {:.3}x over serial ({} photos, {} B sidecars)",
        m.best_pipelined_ips(),
        m.speedup(),
        m.params.photos,
        m.params.sidecar_bytes
    ));
    r.blank();
    r.note(&format!(
        "codec sweep: {:.2} MB input, {} B chunks",
        m.params.codec_bytes as f64 / 1e6,
        deflate::DEFAULT_CHUNK_SIZE
    ));
    r.header(&["codec threads", "compress MB/s", "decompress MB/s"]);
    for pt in &m.codec {
        r.row(&[
            pt.threads.to_string(),
            fmt(pt.compress_mb_s, 2),
            fmt(pt.decompress_mb_s, 2),
        ]);
    }
    r.note(&format!(
        "chunked decompression speedup at widest sweep point: {:.3}x",
        m.codec_decompress_speedup()
    ));
    r.render()
}

/// Standard entry point matching the other report modules.
pub fn run(fast: bool) -> String {
    let params = if fast {
        BenchParams::fast()
    } else {
        BenchParams::full()
    };
    render(&measure_with(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_is_consistent() {
        let m = measure_with(&BenchParams::tiny());
        assert!(m.serial_ips > 0.0);
        assert_eq!(m.pipelined.len(), 3);
        assert_eq!(m.codec.len(), 3);
        assert!(m.best_pipelined_ips() > 0.0);

        let text = render(&m);
        assert!(text.contains("pipelined"));
        assert!(text.contains("codec threads"));
    }
}
