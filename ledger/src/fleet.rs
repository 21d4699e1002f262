//! What every workload needs from the program under test: seeded
//! inputs, a loopback fleet of real `PipeStoreServer`s, and readers for
//! the telemetry the program already publishes.

use dnn::Mlp;
use ndpipe::rpc::wire::PhotoRecord;
use ndpipe::rpc::{Cluster, ConnectOptions, FailurePolicy, PipeStoreServer, ServerConfig};
use ndpipe::{PipeStore, PlacementMap};
use ndpipe_data::deflate;
use ndpipe_data::photo::{preprocessed_binary, PhotoFactory};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::SocketAddr;
use std::time::Duration;
use telemetry::{HistogramSnapshot, SampleValue, Snapshot};
use tensor::Tensor;

/// Width of a preprocessed feature row (the model's input).
pub const INPUT_DIM: usize = 512;
/// Label-space width.
pub const CLASSES: usize = 16;
/// Rows in the shard offline inference classifies photos against.
pub const SHARD_ROWS: usize = 256;

/// The model every workload runs: a frozen 512→1024→512 prefix on the
/// stores and a trainable 512→16 head on the Tuner.
pub fn model(rng: &mut StdRng) -> Mlp {
    Mlp::new(&[INPUT_DIM, 1024, 512, CLASSES], 2, rng)
}

/// The class universe rows are drawn from.
pub fn universe(rng: &mut StdRng) -> ClassUniverse {
    ClassUniverse::new(INPUT_DIM, 8, CLASSES, 0.6, rng)
}

/// `n` labelled rows, classes in rotation, shuffled.
pub fn dataset(u: &ClassUniverse, n: usize, rng: &mut StdRng) -> LabeledDataset {
    let labels: Vec<usize> = (0..n).map(|i| i % CLASSES).collect();
    let rows: Vec<Tensor> = labels.iter().map(|&c| u.sample(c, rng)).collect();
    LabeledDataset::new(rows, labels, CLASSES).shuffled(rng)
}

/// The label `model` gives each row on its own — what a correct
/// `Infer` must return whatever batch the server put the row in.
pub fn expected_labels(model: &Mlp, rows: &[Vec<f32>]) -> Vec<u32> {
    rows.iter()
        .map(|r| {
            model
                .forward(&Tensor::from_vec(r.clone(), &[1, r.len()]))
                .argmax() as u32
        })
        .collect()
}

/// The rows of a dataset as the plain vectors `Infer` takes.
pub fn rows_of(data: &LabeledDataset) -> Vec<Vec<f32>> {
    (0..data.len())
        .map(|i| data.features().row(i).into_vec())
        .collect()
}

/// Distinct photo payloads the upload loops cycle through: a JPEG-like
/// blob (incompressible) and the preprocessed binary that becomes the
/// DEFLATE sidecar.
pub struct PhotoPool {
    blobs: Vec<Vec<u8>>,
    preproc: Vec<Vec<u8>>,
}

impl PhotoPool {
    /// `n` payload pairs: blobs around `blob_mean` bytes, preprocessed
    /// binaries of exactly `preproc_bytes`.
    pub fn generate(n: usize, blob_mean: usize, preproc_bytes: usize, rng: &mut StdRng) -> Self {
        let mut factory = PhotoFactory::new(blob_mean);
        let mut blobs = Vec::with_capacity(n);
        let mut preproc = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.gen_range(0..CLASSES);
            blobs.push(factory.make(class, 0, rng).blob.to_vec());
            preproc.push(preprocessed_binary(preproc_bytes, rng));
        }
        PhotoPool { blobs, preproc }
    }

    /// Number of distinct payload pairs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// The preprocessed binary photo `id` carries.
    pub fn preproc(&self, id: u64) -> &[u8] {
        &self.preproc[id as usize % self.len()]
    }

    /// The wire record for photo `id` around an already-compressed
    /// `sidecar`.
    pub fn record(&self, id: u64, sidecar: Vec<u8>) -> PhotoRecord {
        let k = id as usize % self.len();
        PhotoRecord {
            id,
            class: (k % CLASSES) as u32,
            day: 0,
            preproc_bytes: self.preproc[k].len() as u32,
            blob: self.blobs[k].clone(),
            sidecar,
        }
    }

    /// The record for photo `id`, compressing its sidecar here (checks
    /// and probes; the timed loops compress under their own span).
    pub fn compressed_record(&self, id: u64) -> PhotoRecord {
        let sidecar = deflate::compress_chunked(self.preproc(id), deflate::DEFAULT_CHUNK_SIZE);
        self.record(id, sidecar)
    }
}

/// Loopback servers, one per store, in placement-node order.
pub struct Fleet {
    servers: Vec<PipeStoreServer>,
    addrs: Vec<SocketAddr>,
}

impl Fleet {
    /// Binds one server per store on `127.0.0.1:0` with the shipped
    /// `ServerConfig`.
    pub fn boot(stores: Vec<PipeStore>) -> Fleet {
        let servers: Vec<PipeStoreServer> = stores
            .into_iter()
            .map(|s| {
                PipeStoreServer::bind(s, "127.0.0.1:0", ServerConfig::default())
                    .expect("bind loopback server")
            })
            .collect();
        let addrs = servers.iter().map(PipeStoreServer::local_addr).collect();
        Fleet { servers, addrs }
    }

    /// Address of store `i`.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// Connects the Tuner-side control plane, requiring every peer.
    pub fn cluster(&self) -> Cluster {
        let addrs: Vec<String> = self.addrs.iter().map(SocketAddr::to_string).collect();
        Cluster::builder()
            .policy(FailurePolicy::Strict)
            .connect_options(connect_options())
            .connect(&addrs)
            .expect("connect cluster")
    }

    /// Stops the servers and hands back their stores.
    pub fn drain(self) -> Vec<PipeStore> {
        self.servers
            .into_iter()
            .map(|s| s.shutdown().expect("server drain"))
            .collect()
    }
}

/// Client options for loopback: few retries, short backoff.
pub fn connect_options() -> ConnectOptions {
    ConnectOptions::new()
        .retries(5)
        .backoff(Duration::from_millis(2), Duration::from_millis(50))
}

/// Publishes `map` and installs `model` fleet-wide, panicking on any
/// refusal (setup, not a measured operation).
pub fn prepare(cluster: &Cluster, map: &PlacementMap, model: &Mlp) {
    let fan = cluster.publish_placement(map);
    assert!(
        fan.failures.is_empty(),
        "publish placement: {:?}",
        fan.failures
    );
    let fan = cluster.install_model(model);
    assert!(fan.failures.is_empty(), "install model: {:?}", fan.failures);
}

/// The fleet's merged telemetry.
pub fn scrape(cluster: &Cluster) -> Snapshot {
    cluster.scrape_metrics().expect("scrape fleet").merged
}

/// Sum of a counter across the fleet (0 when absent).
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter_value(name).unwrap_or(0)
}

/// The server-side handling times of operation `op` observed between
/// the scrapes `before` and `after`.
pub fn server_op_since(before: &Snapshot, after: &Snapshot, op: &str) -> HistogramSnapshot {
    let at = |snap| histogram(snap, "ndpipe_rpc_server_op_seconds", &[("op", op)]);
    histogram_since(&at(after), &at(before))
}

/// A histogram sample by name and labels (empty when absent).
pub fn histogram(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    match snap.find_with(name, labels).map(|s| &s.value) {
        Some(SampleValue::Histogram(h)) => h.clone(),
        _ => HistogramSnapshot::default(),
    }
}

/// What `later` observed that `earlier` had not: count and sum subtract
/// exactly; buckets subtract per bound, so quantiles of the difference
/// describe only the interval between the two scrapes.
pub fn histogram_since(
    later: &HistogramSnapshot,
    earlier: &HistogramSnapshot,
) -> HistogramSnapshot {
    let buckets: Vec<(f64, u64)> = later
        .buckets
        .iter()
        .map(|&(bound, n)| {
            let before = earlier
                .buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map_or(0, |&(_, n)| n);
            (bound, n.saturating_sub(before))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        count: later.count.saturating_sub(earlier.count),
        sum: later.sum - earlier.sum,
        min: later.min,
        max: later.max,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_inputs() {
        let make = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = PhotoPool::generate(4, 2048, 4096, &mut rng);
            let u = universe(&mut rng);
            (
                pool.compressed_record(6),
                rows_of(&dataset(&u, 8, &mut rng)),
            )
        };
        assert_eq!(make(3), make(3));
        assert_ne!(make(3).0.blob, make(4).0.blob);
        let (rec, rows) = make(3);
        assert_eq!(rec.id, 6);
        assert_eq!(rec.preproc_bytes, 4096);
        assert_eq!(
            deflate::decompress_framed(&rec.sidecar).unwrap().len(),
            4096
        );
        assert_eq!((rows.len(), rows[0].len()), (8, INPUT_DIM));
    }

    #[test]
    fn histogram_difference_isolates_the_interval() {
        let h = telemetry::Histogram::new();
        h.observe(0.001);
        h.observe(0.001);
        let before = h.snapshot();
        h.observe(0.5);
        h.observe(0.5);
        h.observe(0.5);
        let d = histogram_since(&h.snapshot(), &before);
        assert_eq!(d.count, 3);
        assert!((d.sum - 1.5).abs() < 1e-9);
        assert!(d.quantile(0.5) > 0.1, "old fast samples must not count");
    }
}
