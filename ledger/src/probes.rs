//! Layer probes: after a traced workload's timed part, the ledger calls
//! each layer's public functions directly on seeded inputs of the
//! workloads' shapes and times them. Nothing is added inside the
//! program; these are the prices the budget tables multiply out.
//!
//! Every probe runs on every workload, on inputs generated here from the
//! run's seed, so a layer's price can be compared across workloads.

use crate::fleet::{self, PhotoPool, CLASSES, INPUT_DIM};
use crate::workloads::{Ctx, Metric};
use dnn::{Mlp, TrainConfig};
use ndpipe::ftdmp::AUTO_MICRO_BATCHES;
use ndpipe::npe::engine::EngineConfig;
use ndpipe::rpc::wire::{
    read_reply, read_request, write_reply, write_request, FrameDecoder, Reply, Request,
};
use ndpipe::rpc::Cluster;
use ndpipe::{LabelDb, ModelDelta, PipeStore, PlacementMap, Tuner};
use ndpipe_data::{deflate, PhotoId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::HistogramSnapshot;
use tensor::linalg::Gemm;
use tensor::{default_math_policy, Tensor};

/// Photos in the probe corpus.
const PROBE_PHOTOS: usize = 64;
/// Each timing loop runs at least this long.
const MIN_PROBE: Duration = Duration::from_millis(40);

/// Probe results: the per-layer metrics, plus the prices the workloads'
/// budget tables and residuals need by name.
pub struct Probes {
    pub metrics: Vec<Metric>,
    /// Encode + decode of a `PutPhoto` frame, nanoseconds per payload byte.
    pub put_wire_ns_per_byte: f64,
    /// Encode + decode of one `Infer` request and its `Label` reply.
    pub infer_frame_ns: f64,
    /// Tuner SGD, microseconds per example per epoch.
    pub train_us_per_example: f64,
    /// `ModelDelta::between` + `to_bytes` for one model update.
    pub delta_build_us: f64,
}

/// Mean nanoseconds per call of `f`, over at least [`MIN_PROBE`] and
/// `min_iters` calls (after one untimed call to warm caches).
fn ns_per_call(min_iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    let mut iters = 0usize;
    while iters < min_iters || t.elapsed() < MIN_PROBE {
        f();
        iters += 1;
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Frame bytes of `req` as `write_request` puts them on the wire.
fn request_frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, req).expect("encode into a Vec");
    buf
}

/// What the server does with arriving bytes: incremental framing, then
/// the typed decode.
fn decode_request(frame: &[u8]) {
    let mut dec = FrameDecoder::new();
    dec.feed(frame);
    black_box(dec.next_frame().expect("well-formed frame"));
    black_box(read_request(&mut &frame[..]).expect("decodes"));
}

/// Runs every probe.
pub fn run(ctx: &Ctx, model: &Mlp) -> Probes {
    // A seed of its own: the probes must not replay the workload's draws.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x9E37_79B9_7F4A_7C15);
    let s = &ctx.sizes;
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, n: usize| {
        m.push(Metric::new(name, value, unit, n));
    };

    // data::deflate over the probe corpus.
    let photos = PROBE_PHOTOS.min(s.pool.max(1) * 8);
    let pool = PhotoPool::generate(photos, s.blob_mean, s.preproc_bytes, &mut rng);
    let raw_bytes = (photos * s.preproc_bytes) as f64;
    let records: Vec<_> = (0..photos as u64)
        .map(|id| pool.compressed_record(id))
        .collect();
    let compress_ns = ns_per_call(1, || {
        for id in 0..photos as u64 {
            black_box(deflate::compress_chunked(
                pool.preproc(id),
                deflate::DEFAULT_CHUNK_SIZE,
            ));
        }
    });
    let inflate_ns = ns_per_call(1, || {
        for r in &records {
            black_box(deflate::decompress_framed(&r.sidecar).expect("valid sidecar"));
        }
    });
    let sidecar_bytes: usize = records.iter().map(|r| r.sidecar.len()).sum();
    push(
        "data.deflate.compress_ns_per_byte",
        compress_ns / raw_bytes,
        "ns/B",
        photos,
    );
    push(
        "data.deflate.inflate_ns_per_byte",
        inflate_ns / raw_bytes,
        "ns/B",
        photos,
    );
    push(
        "data.deflate.ratio",
        sidecar_bytes as f64 / raw_bytes,
        "ratio",
        photos,
    );

    // core::placement on the two-store, R = 2 map the workloads publish.
    let map = PlacementMap::new(&[0, 1], 2).expect("placement map");
    let ids = 10_000u64;
    let replicas_ns = ns_per_call(1, || {
        for id in 0..ids {
            black_box(map.replicas_for(id));
        }
    }) / ids as f64;
    let mut primaries = [0u64; 2];
    for id in 0..ids {
        if let Some(&first) = map.replicas_for(id).first() {
            primaries[first as usize] += 1;
        }
    }
    let max_primary = primaries.iter().copied().max().unwrap_or(0) as f64;
    push(
        "core.placement.replicas_for_ns",
        replicas_ns,
        "ns",
        ids as usize,
    );
    push(
        "core.placement.primary_max_over_mean",
        max_primary / (ids as f64 / primaries.len() as f64),
        "ratio",
        ids as usize,
    );

    // core::rpc::wire — PutPhoto frames.
    let put_reqs: Vec<Request> = records.iter().cloned().map(Request::PutPhoto).collect();
    let put_frames: Vec<Vec<u8>> = put_reqs.iter().map(request_frame).collect();
    let payload: usize = records.iter().map(|r| r.transfer_bytes() as usize).sum();
    let framed: usize = put_frames.iter().map(Vec::len).sum();
    let put_encode = ns_per_call(1, || {
        for r in &put_reqs {
            black_box(request_frame(r));
        }
    }) / payload as f64;
    let put_decode = ns_per_call(1, || {
        for f in &put_frames {
            decode_request(f);
        }
    }) / payload as f64;
    push(
        "core.rpc.wire.put_encode_ns_per_byte",
        put_encode,
        "ns/B",
        photos,
    );
    push(
        "core.rpc.wire.put_decode_ns_per_byte",
        put_decode,
        "ns/B",
        photos,
    );
    push(
        "core.rpc.wire.overhead_bytes_per_frame",
        (framed - payload) as f64 / photos as f64,
        "B",
        photos,
    );

    // core::rpc::wire — one Infer request and its Label reply.
    let rows = fleet::rows_of(&fleet::dataset(&fleet::universe(&mut rng), 128, &mut rng));
    let infer_req = Request::Infer {
        features: rows[0].clone(),
    };
    let infer_frame = request_frame(&infer_req);
    let mut label_frame = Vec::new();
    write_reply(&mut label_frame, &Reply::Label(7)).expect("encode into a Vec");
    let infer_frame_ns = ns_per_call(1000, || {
        black_box(request_frame(&infer_req));
        decode_request(&infer_frame);
        let mut buf = Vec::new();
        write_reply(&mut buf, &Reply::Label(7)).expect("encode into a Vec");
        black_box(read_reply(&mut &label_frame[..]).expect("decodes"));
    });
    push("core.rpc.wire.infer_frame_ns", infer_frame_ns, "ns", 1000);

    // core::rpc::wire — one extract-slice reply of the ftdmp_round shape.
    let slice_rows = (s.ft_rows / 2 / 3 / AUTO_MICRO_BATCHES).max(1);
    let slice = Reply::Features {
        features: Tensor::randn(&[slice_rows, model.feature_dim()], &mut rng),
        labels: (0..slice_rows).map(|i| (i % CLASSES) as u32).collect(),
    };
    let mut slice_frame = Vec::new();
    write_reply(&mut slice_frame, &slice).expect("encode into a Vec");
    let features_ns_per_byte = ns_per_call(3, || {
        let mut buf = Vec::new();
        write_reply(&mut buf, &slice).expect("encode into a Vec");
        black_box(read_reply(&mut &slice_frame[..]).expect("decodes"));
    }) / slice_frame.len() as f64;
    push(
        "core.rpc.wire.features_ns_per_byte",
        features_ns_per_byte,
        "ns/B",
        slice_rows,
    );

    // core::pipestore — adopt and read back wire records on a local store.
    let shard = fleet::dataset(&fleet::universe(&mut rng), fleet::SHARD_ROWS, &mut rng);
    let store_ns = ns_per_call(1, || {
        let local = PipeStore::new(0, shard.clone());
        for r in &records {
            black_box(local.store_photo_record(r.clone()));
        }
    }) / photos as f64;
    let mut local = PipeStore::new(0, shard.clone());
    local.install_model(model.clone());
    for r in &records {
        local.store_photo_record(r.clone());
    }
    let read_ns = ns_per_call(1, || {
        for id in 0..photos as u64 {
            black_box(local.photo_record(PhotoId(id)));
        }
    }) / photos as f64;
    push(
        "core.pipestore.store_record_us",
        store_ns / 1e3,
        "us",
        photos,
    );
    push(
        "core.pipestore.photo_record_us",
        read_ns / 1e3,
        "us",
        photos,
    );

    // core::npe — the 3-stage engine over one replica's records.
    let (labels, npe) = local.offline_inference_pipelined(&EngineConfig::default());
    let [load, decode, fe] = npe.occupancies();
    push("core.npe.occupancy.load", load, "ratio", labels.len());
    push("core.npe.occupancy.decode", decode, "ratio", labels.len());
    push("core.npe.occupancy.fe", fe, "ratio", labels.len());
    push(
        "core.npe.queue_depth_mean.in",
        npe.in_queue.mean(),
        "count",
        npe.in_queue.samples,
    );
    push(
        "core.npe.queue_depth_mean.mid",
        npe.mid_queue.mean(),
        "count",
        npe.mid_queue.samples,
    );
    push(
        "core.npe.batches",
        npe.batches as f64,
        "count",
        labels.len(),
    );
    push(
        "core.npe.stage_errors",
        npe.stage_errors as f64,
        "count",
        labels.len(),
    );

    // core::labeldb — bookkeeping after a relabel fan-out.
    let db = LabelDb::new();
    let relabels: Vec<(PhotoId, usize)> = (0..s.ingest_photos as u64)
        .map(|id| (PhotoId(id), id as usize % CLASSES))
        .collect();
    let mut version = 0;
    let relabel_ns = ns_per_call(3, || {
        version += 1;
        black_box(db.apply_relabels(relabels.iter().copied(), version));
    }) / relabels.len() as f64;
    push(
        "core.labeldb.apply_relabels_ns_per_photo",
        relabel_ns,
        "ns",
        relabels.len(),
    );

    // objstore — persist and restore the local store's photos.
    let dir = std::path::PathBuf::from(format!(
        "results/ledger/objstore-probe-{}",
        std::process::id()
    ));
    let user_bytes = (payload + 4 * photos) as f64;
    let mut objects = objstore::ObjectStore::open(&dir, 64 << 20).expect("open probe objstore");
    let t = Instant::now();
    local.persist_photos(&mut objects).expect("persist photos");
    let persist_s = t.elapsed().as_secs_f64();
    let stored_bytes = objects.size_bytes() as f64;
    let t = Instant::now();
    let restored = local.restore_photos(&mut objects).expect("restore photos");
    let restore_s = t.elapsed().as_secs_f64();
    assert_eq!(restored, photos, "objstore probe lost photos");
    drop(objects);
    // Best effort: a leftover probe directory is only clutter.
    let _ = std::fs::remove_dir_all(&dir);
    push(
        "objstore.persist_mb_per_s",
        user_bytes / 1e6 / persist_s,
        "MB/s",
        photos,
    );
    push(
        "objstore.restore_mb_per_s",
        user_bytes / 1e6 / restore_s,
        "MB/s",
        photos,
    );
    push(
        "objstore.bytes_per_user_byte",
        stored_bytes / user_bytes,
        "ratio",
        photos,
    );

    // dnn::mlp — the forward pass at the batch sizes the paths use.
    let data = fleet::dataset(&fleet::universe(&mut rng), 1024.min(s.ft_rows), &mut rng);
    for batch in [1usize, 32, 128] {
        let idx: Vec<usize> = (0..batch.min(data.len())).collect();
        let x = data.select(&idx).features().clone();
        let ns = ns_per_call(10, || {
            black_box(model.forward(&x));
        });
        push(
            &format!("dnn.mlp.forward_us.b{batch}"),
            ns / 1e3,
            "us",
            batch,
        );
    }
    let policy = default_math_policy();
    let features_ns = ns_per_call(2, || {
        black_box(model.features_with(data.features(), policy));
    });
    push(
        "dnn.mlp.features_us_per_row",
        features_ns / 1e3 / data.len() as f64,
        "us",
        data.len(),
    );

    // tensor::linalg — the FE GEMM shape (one 128-row batch into layer 1).
    let (gm, gk, gn) = (128, INPUT_DIM, 1024);
    let a = Tensor::randn(&[gm, gk], &mut rng);
    let b = Tensor::randn(&[gk, gn], &mut rng);
    let gemm_ns = ns_per_call(5, || {
        black_box(Gemm::new(&a, &b).run());
    });
    push(
        "tensor.linalg.fe_gflops",
        2.0 * (gm * gk * gn) as f64 / gemm_ns,
        "GFLOP/s",
        gm,
    );

    // core::tuner and core::checknrun — one run's features, one update.
    let run_rows = (s.ft_rows / 3).clamp(1, data.len());
    let idx: Vec<usize> = (0..run_rows).collect();
    let run_set = data.select(&idx);
    let feats = model.features(run_set.features());
    let train = TrainConfig {
        batch: 64,
        ..TrainConfig::default()
    };
    let mut tuner = Tuner::new(model.clone(), train);
    let train_ns = ns_per_call(2, || {
        black_box(tuner.train_on_features(&feats, run_set.labels(), 1, &mut rng));
    });
    let train_us_per_example = train_ns / 1e3 / run_rows as f64;
    push(
        "core.tuner.train_us_per_example",
        train_us_per_example,
        "us",
        run_rows,
    );

    let between_ns = ns_per_call(3, || {
        black_box(ModelDelta::between(model, tuner.model()));
    });
    let delta = ModelDelta::between(model, tuner.model());
    let encode_ns = ns_per_call(3, || {
        black_box(delta.to_bytes());
    });
    let bytes = delta.to_bytes();
    let apply_ns = ns_per_call(3, || {
        let mut replica = model.clone();
        ModelDelta::from_bytes(&bytes)
            .expect("delta decodes")
            .apply(&mut replica)
            .expect("delta applies");
        black_box(replica);
    });
    push("core.checknrun.between_us", between_ns / 1e3, "us", 1);
    push("core.checknrun.encode_us", encode_ns / 1e3, "us", 1);
    push("core.checknrun.decode_apply_us", apply_ns / 1e3, "us", 1);
    push(
        "core.checknrun.reduction_x",
        delta.traffic_reduction(),
        "x",
        1,
    );

    Probes {
        metrics: m,
        put_wire_ns_per_byte: put_encode + put_decode,
        infer_frame_ns,
        train_us_per_example,
        delta_build_us: (between_ns + encode_ns) / 1e3,
    }
}

/// `core.rpc.server.op_s.<op>.p50` / `.p99` for each observed
/// server-side handling-time histogram.
pub fn server_op_metrics(observed: &[(&str, &HistogramSnapshot)]) -> Vec<Metric> {
    observed
        .iter()
        .flat_map(|(op, h)| {
            [("p50", 0.5), ("p99", 0.99)].map(|(tag, q)| {
                Metric::new(
                    format!("core.rpc.server.op_s.{op}.{tag}"),
                    h.quantile(q),
                    "s",
                    h.count as usize,
                )
            })
        })
        .collect()
}

/// `telemetry.scrape_ms` (median of a few `Cluster::scrape` calls) and
/// `telemetry.snapshot_bytes` — the cost of the per-layer view itself.
pub fn scrape_metrics(cluster: &Cluster) -> Vec<Metric> {
    let mut ms = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..5 {
        let t = Instant::now();
        let fan = cluster.scrape();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = fan.ok.iter().map(|r| r.value.to_bytes().len()).sum();
    }
    vec![
        Metric::new(
            "telemetry.scrape_ms",
            crate::stats::median(&ms),
            "ms",
            ms.len(),
        ),
        Metric::new("telemetry.snapshot_bytes", bytes as f64, "B", 1),
    ]
}
