//! `ingest_relabel` — the paper's offline path (§5.4). One closed-loop
//! client compresses each photo's preprocessed binary, builds the wire
//! record and writes it to both replicas through `Cluster::put_photo`;
//! then the whole corpus is relabelled by repeated
//! `Cluster::offline_infer` passes. DEFLATE does most of the work on
//! both halves (compress on the way in, inflate in the NPE decode pool),
//! the wire carries real blob bytes, and GEMM does little.

use super::{budget, Ctx, Metric, Outcome, Slots, TAIL_SEGMENT};
use crate::fleet::{self, Fleet, PhotoPool};
use crate::probes;
use crate::stats;
use crate::trace::Recorder;
use dnn::Mlp;
use ndpipe::rpc::wire::PhotoRecord;
use ndpipe::rpc::Cluster;
use ndpipe::{PipeStore, PlacementMap};
use ndpipe_data::{deflate, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

const STORES: usize = 2;
const REPLICAS: usize = 2;
/// Photos read back and compared byte for byte.
const SAMPLED_READS: usize = 64;

pub struct Fixture {
    fleet: Fleet,
    cluster: Cluster,
    map: PlacementMap,
    pool: PhotoPool,
    shard: LabeledDataset,
    model: Mlp,
}

pub fn setup(ctx: &Ctx) -> Fixture {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let s = &ctx.sizes;
    let pool = PhotoPool::generate(s.pool, s.blob_mean, s.preproc_bytes, &mut rng);
    let shard = fleet::dataset(&fleet::universe(&mut rng), fleet::SHARD_ROWS, &mut rng);
    let model = fleet::model(&mut rng);
    // Offline inference classifies photo `i` against shard row `i`, so
    // replicas agree only if they hold the same shard.
    let fleet = Fleet::boot(
        (0..STORES)
            .map(|i| PipeStore::new(i, shard.clone()))
            .collect(),
    );
    let cluster = fleet.cluster();
    let nodes: Vec<u64> = (0..STORES as u64).collect();
    let map = PlacementMap::new(&nodes, REPLICAS).expect("placement map");
    fleet::prepare(&cluster, &map, &model);
    Fixture {
        fleet,
        cluster,
        map,
        pool,
        shard,
        model,
    }
}

pub fn teardown(fx: Fixture) {
    fx.cluster.shutdown();
    fx.fleet.drain();
}

/// Compresses photo `id`'s sidecar under its own span and builds the
/// record.
pub(super) fn make_record(pool: &PhotoPool, id: u64, rec: &mut Recorder) -> PhotoRecord {
    let sidecar = rec.span("data.deflate.compress_chunked", id, |_| {
        deflate::compress_chunked(pool.preproc(id), deflate::DEFAULT_CHUNK_SIZE)
    });
    pool.record(id, sidecar)
}

/// The client-side rows of an upload's budget, microseconds per photo:
/// the generator's own work (the `upload_photo` spans' self time),
/// `compress_chunked` (its spans), and the wire codec (the probe's price
/// times the mean record size).
pub(super) fn client_upload_rows(
    rec: &Recorder,
    photos: usize,
    record_bytes: u64,
    p: &probes::Probes,
) -> [(&'static str, f64); 3] {
    let totals = crate::trace::totals(rec.spans());
    let per_photo = |ns: f64| ns / 1e3 / photos as f64;
    let self_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| per_photo(t.self_ns as f64))
    };
    [
        ("ledger.generator", self_us("upload_photo")),
        (
            "data.deflate.compress",
            self_us("data.deflate.compress_chunked"),
        ),
        (
            "core.rpc.wire",
            per_photo(p.put_wire_ns_per_byte * record_bytes as f64),
        ),
    ]
}

/// Checks a relabel's output against `offline_inference_serial` on a
/// local store loaded with the first `n` uploaded records.
pub(super) fn check_against_oracle(
    out: &mut Outcome,
    pool: &PhotoPool,
    shard: &LabeledDataset,
    model: &Mlp,
    labels: &BTreeMap<u64, u32>,
    n: usize,
) {
    let mut local = PipeStore::new(0, shard.clone());
    local.install_model(model.clone());
    for id in 0..n as u64 {
        local.store_photo_record(pool.compressed_record(id));
    }
    for (id, label) in local.offline_inference_serial() {
        out.check(labels.get(&id.0) == Some(&(label as u32)), || {
            format!(
                "photo {}: relabel {:?} != serial oracle {label}",
                id.0,
                labels.get(&id.0)
            )
        });
    }
}

/// Checks a record read back from the fleet: byte-identical to what was
/// uploaded, and its sidecar inflates to the original preprocessed
/// bytes.
pub(super) fn check_stored_record(out: &mut Outcome, pool: &PhotoPool, got: &PhotoRecord) {
    let id = got.id;
    out.check(*got == pool.compressed_record(id), || {
        format!("photo {id}: stored record differs from the upload")
    });
    out.check(
        deflate::decompress_framed(&got.sidecar).as_deref() == Ok(pool.preproc(id)),
        || format!("photo {id}: sidecar does not inflate to its preprocessed bytes"),
    );
}

/// One relabel pass: every peer's `(id, label)` pairs folded into one
/// map, with the replicas required to agree.
pub(super) fn fold_labels(
    out: &mut Outcome,
    per_peer: impl IntoIterator<Item = Vec<(u64, u32)>>,
) -> BTreeMap<u64, u32> {
    let mut labels = BTreeMap::new();
    for pairs in per_peer {
        for (id, label) in pairs {
            let first = *labels.entry(id).or_insert(label);
            out.check(first == label, || {
                format!("photo {id}: replicas disagree ({first} vs {label})")
            });
        }
    }
    labels
}

pub fn run(ctx: &Ctx, fx: Fixture, rec: &mut Recorder) -> Outcome {
    let Fixture {
        fleet,
        cluster,
        map,
        pool,
        shard,
        model,
    } = fx;
    let mut out = Outcome::default();
    let n = ctx.sizes.ingest_photos;
    let t_run = Instant::now();

    // Upload: closed loop, one client.
    let before = fleet::scrape(&cluster);
    let mut upload_ms = Vec::with_capacity(n);
    let mut put_us = Vec::with_capacity(n);
    let mut record_bytes = 0u64;
    let t_upload = Instant::now();
    for id in 0..n as u64 {
        let t = Instant::now();
        let acked = rec.span("upload_photo", id, |rec| {
            let record = make_record(&pool, id, rec);
            record_bytes += record.transfer_bytes();
            let t_put = Instant::now();
            let fan = rec.span("core.rpc.cluster.put_photo", id, |_| {
                cluster.put_photo(&map, &record)
            });
            put_us.push(t_put.elapsed().as_secs_f64() * 1e6);
            fan.failures.is_empty() && fan.ok.len() == REPLICAS
        });
        upload_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        out.failed += u64::from(!acked);
    }
    let upload_wall = t_upload.elapsed().as_secs_f64();
    let after_upload = fleet::scrape(&cluster);

    // Relabel: one warm-up pass, then the timed ones.
    let warm = cluster.offline_infer();
    out.check(warm.failures.is_empty(), || {
        format!("warm-up relabel: {:?}", warm.failures)
    });
    let after_warm = fleet::scrape(&cluster);
    let mut pass_s = Vec::new();
    let mut pass_rate = Vec::new();
    let mut labels = BTreeMap::new();
    for pass in 0..ctx.sizes.relabel_passes as u64 {
        let t = Instant::now();
        let fan = rec.span("relabel_pass", pass, |rec| {
            rec.span("core.rpc.cluster.offline_infer", pass, |_| {
                cluster.offline_infer()
            })
        });
        let wall = t.elapsed().as_secs_f64();
        out.attempted += 1;
        out.failed += u64::from(!fan.failures.is_empty());
        labels = fold_labels(&mut out, fan.into_values());
        pass_s.push(wall);
        pass_rate.push(labels.len() as f64 / wall);
    }
    let after_relabel = fleet::scrape(&cluster);
    out.timed_wall_s = t_run.elapsed().as_secs_f64();

    // Correctness.
    let ids: Vec<u64> = (0..n as u64).collect();
    out.check(labels.keys().copied().eq(ids.iter().copied()), || {
        format!("relabel covered {} of {n} photos", labels.len())
    });
    let listed = cluster.list_photos();
    out.check(listed.failures.is_empty(), || {
        format!("list_photos: {:?}", listed.failures)
    });
    for peer in &listed.ok {
        let want: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|&id| map.replicas_for(id).contains(&(peer.index as u64)))
            .collect();
        out.check(peer.value == want, || {
            format!(
                "store {} lists {} photos, placement assigns it {}",
                peer.index,
                peer.value.len(),
                want.len()
            )
        });
    }
    for k in 0..SAMPLED_READS.min(n) {
        let id = (k * n / SAMPLED_READS.min(n)) as u64;
        match cluster.get_photo(&map, id) {
            Ok(got) => check_stored_record(&mut out, &pool, &got),
            Err(e) => out.errors.push(format!("get_photo {id}: {e}")),
        }
    }
    let oracle_n = ctx.sizes.oracle_photos.min(n);
    check_against_oracle(&mut out, &pool, &shard, &model, &labels, oracle_n);

    // End-to-end numbers.
    let acked = (n as u64 - out.failed.min(n as u64)) as f64;
    let upload_rate = acked / upload_wall;
    let delta =
        |name: &str| (fleet::counter(&after_upload, name) - fleet::counter(&before, name)) as f64;
    let wire_per_photo = delta("ndpipe_rpc_server_bytes_read_total") / n as f64;
    let sidecar_ratio =
        delta("ndpipe_store_sidecar_bytes_total") / delta("ndpipe_store_preproc_bytes_total");
    let tail = stats::segment_tail(&upload_ms, TAIL_SEGMENT);
    // Both loops are closed and CPU-bound: quiet-host quantiles.
    out.slots = Slots {
        photos_per_s: stats::quantile(&pass_rate, 1.0 - stats::QUIET),
        op_ms: stats::quantile(&upload_ms, stats::QUIET),
        op_tail_ms: tail.map_or(0.0, |t| t.value),
        wire_bytes_per_photo: wire_per_photo,
    };
    out.named = vec![
        Metric::new("upload_photos_per_s", upload_rate, "photos/s", n),
        Metric::new(
            "relabel_photos_per_s",
            stats::median(&pass_rate),
            "photos/s",
            pass_rate.len(),
        ),
        Metric::new("sidecar_bytes_per_preproc_byte", sidecar_ratio, "ratio", n),
        Metric::new("upload_wire_bytes_per_photo", wire_per_photo, "bytes", n),
    ];

    if ctx.trace {
        let p = probes::run(ctx, &model);
        let put = fleet::server_op_since(&before, &after_upload, "put_photo");
        let relabel = fleet::server_op_since(&after_warm, &after_relabel, "offline_infer");
        let [generator, compress, wire] = client_upload_rows(rec, n, record_bytes, &p);
        let wire_us = wire.1;
        let put_p50 = stats::median(&put_us);
        out.layers = vec![
            Metric::new("core.rpc.cluster.put_photo_us", put_p50, "us", n),
            Metric::new(
                "core.rpc.cluster.offline_infer_s",
                stats::median(&pass_s),
                "s",
                pass_s.len(),
            ),
            Metric::new(
                "core.rpc.server.residual_us.put_photo",
                put_p50 - put.quantile(0.5) * 1e6 - wire_us,
                "us",
                n,
            ),
        ];
        out.layers.extend(probes::server_op_metrics(&[
            ("put_photo", &put),
            ("offline_infer", &relabel),
        ]));
        // Per photo uploaded: the replicas are written in parallel, so one
        // replica's server time is on the blocking path, not the sum.
        out.budget = budget(
            "upload",
            upload_wall * 1e6 / n as f64,
            &[
                generator,
                compress,
                wire,
                ("core.rpc.server.put_photo", put.mean() * 1e6),
            ],
        );
        // Per pass: the stores relabel in parallel; the slower one binds,
        // approximated by the mean server time per store.
        out.budget.extend(budget(
            "relabel",
            stats::mean(&pass_s) * 1e6,
            &[("core.rpc.server.offline_infer", relabel.mean() * 1e6)],
        ));
        out.layers.extend(probes::scrape_metrics(&cluster));
        out.layers.extend(p.metrics);
    }

    cluster.shutdown();
    fleet.drain();
    out
}
