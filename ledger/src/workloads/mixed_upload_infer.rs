//! `mixed_upload_infer` — the same layers used differently: writes and
//! bulk relabels beside latency-sensitive reads on one store's lock,
//! worker pool and event thread. Connection A issues paced `Infer`s
//! (open loop) until connection B has finished; B uploads in a closed
//! loop with an `offline_infer` after every thousand photos. A gain for
//! `Infer` bought by starving ingest (or the reverse) shows here as one
//! number rising while the other falls; on `online_infer` alone it would
//! be invisible.

use super::ingest_relabel::{
    check_against_oracle, check_stored_record, client_upload_rows, fold_labels, make_record,
};
use super::online_infer::{
    boot_single_store, check_late_share, infer_budget, infer_layers, paced_infer, paced_spans,
    summarize_paced,
};
use super::{budget, Ctx, Metric, Outcome, Slots};
use crate::fleet::{self, Fleet, PhotoPool};
use crate::pacing::{self, Schedule};
use crate::probes;
use crate::trace::Recorder;
use dnn::Mlp;
use ndpipe::rpc::{Cluster, RemotePipeStore};
use ndpipe_data::LabeledDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Stored photos read back and compared byte for byte.
const SAMPLED_READS: usize = 64;
/// The generator may run late on at most this share of paced requests.
/// Looser than `online_infer`'s 0.02: here the paced thread shares the
/// host's two cores with a CPU-bound uploader as well as the server, and
/// runs late on 1–4 % of requests however it waits. The lateness is
/// inside every latency (timed from the due instant) and is printed.
const MAX_LATE_SHARE: f64 = 0.08;

pub struct Fixture {
    fleet: Fleet,
    cluster: Cluster,
    clients: Vec<RemotePipeStore>,
    pool: PhotoPool,
    shard: LabeledDataset,
    model: Mlp,
    rows: Vec<Vec<f32>>,
    expected: Vec<u32>,
}

pub fn setup(ctx: &Ctx) -> Fixture {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let s = &ctx.sizes;
    let pool = PhotoPool::generate(s.pool, s.blob_mean, s.preproc_bytes, &mut rng);
    let u = fleet::universe(&mut rng);
    let rows = fleet::rows_of(&fleet::dataset(&u, s.infer_rows, &mut rng));
    let model = fleet::model(&mut rng);
    let expected = fleet::expected_labels(&model, &rows);
    let shard = fleet::dataset(&u, fleet::SHARD_ROWS, &mut rng);
    let (fleet, cluster, clients) = boot_single_store(shard.clone(), &model, &rows, 2);
    Fixture {
        fleet,
        cluster,
        clients,
        pool,
        shard,
        model,
        rows,
        expected,
    }
}

pub fn teardown(fx: Fixture) {
    for c in fx.clients {
        c.shutdown().expect("end load session");
    }
    fx.cluster.shutdown();
    fx.fleet.drain();
}

pub fn run(ctx: &Ctx, fx: Fixture, rec: &mut Recorder) -> Outcome {
    let Fixture {
        fleet,
        cluster,
        mut clients,
        pool,
        shard,
        model,
        rows,
        expected,
    } = fx;
    let mut out = Outcome::default();
    let s = &ctx.sizes;
    let n = s.mixed_photos;
    let epoch = rec.epoch();
    let mut uploader = clients.pop().expect("connection B");
    let mut reader = clients.pop().expect("connection A");
    let before = fleet::scrape(&cluster);
    let t_run = Instant::now();

    // B (this thread) uploads and relabels; A (its own thread) keeps a
    // paced Infer stream going until B is done.
    let b_done = AtomicBool::new(false);
    let mut labels = BTreeMap::new();
    let mut record_bytes = 0u64;
    let mut upload_ms = Vec::with_capacity(n);
    let (paced, upload_wall) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let schedule = Schedule::new(s.paced_rate, pacing::since(epoch) + 1_000_000);
            paced_infer(
                &mut reader,
                epoch,
                schedule,
                u64::MAX,
                &rows,
                &expected,
                (0, 1),
                // Release/Acquire: B's last write happens-before A stops.
                || b_done.load(Ordering::Acquire),
            )
        });
        let t_upload = Instant::now();
        for id in 0..n as u64 {
            let t = Instant::now();
            let stored = rec.span("upload_photo", id, |rec| {
                let record = make_record(&pool, id, rec);
                record_bytes += record.transfer_bytes();
                rec.span("core.rpc.client.put_photo", id, |_| {
                    uploader.put_photo(&record).is_ok()
                })
            });
            upload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            out.failed += u64::from(!stored);
            if (id + 1) % s.mixed_relabel_every as u64 == 0 {
                let relabelled = rec.span("relabel_pass", id, |rec| {
                    rec.span("core.rpc.client.offline_infer", id, |_| {
                        uploader.offline_infer()
                    })
                });
                out.attempted += 1;
                match relabelled {
                    Ok(pairs) => labels = fold_labels(&mut out, [pairs]),
                    Err(_) => out.failed += 1,
                }
            }
        }
        let wall = t_upload.elapsed().as_secs_f64();
        b_done.store(true, Ordering::Release);
        (a.join().expect("paced generator thread"), wall)
    });
    out.timed_wall_s = t_run.elapsed().as_secs_f64();
    let after = fleet::scrape(&cluster);

    // Correctness.
    out.attempted += paced.timings.len() as u64;
    out.failed += paced.failed;
    out.check(paced.wrong == 0, || {
        format!(
            "{} Infer labels differ from the local forward's argmax",
            paced.wrong
        )
    });
    let relabelled_upto = n / s.mixed_relabel_every * s.mixed_relabel_every;
    out.check(labels.len() == relabelled_upto, || {
        format!(
            "last relabel covered {} of {relabelled_upto} photos",
            labels.len()
        )
    });
    match uploader.list_photos() {
        Ok(ids) => out.check(ids.iter().copied().eq(0..n as u64), || {
            format!("store lists {} photos, {n} were uploaded", ids.len())
        }),
        Err(e) => out.errors.push(format!("list_photos: {e}")),
    }
    let reads = SAMPLED_READS.min(n);
    for k in 0..reads {
        let id = (k * n / reads) as u64;
        match uploader.get_photo(id) {
            Ok(got) => check_stored_record(&mut out, &pool, &got),
            Err(e) => out.errors.push(format!("get_photo {id}: {e}")),
        }
    }
    let oracle_n = s.oracle_photos.min(relabelled_upto);
    labels.retain(|&id, _| id < oracle_n as u64);
    check_against_oracle(&mut out, &pool, &shard, &model, &labels, oracle_n);
    let summary = summarize_paced(paced.timings.clone());
    check_late_share(&mut out, &summary, MAX_LATE_SHARE);

    // End-to-end numbers.
    let stored = (n as u64).saturating_sub(out.failed) as f64;
    let upload_rate = stored / upload_wall;
    let wire_per_photo = (fleet::counter(&after, "ndpipe_rpc_server_bytes_read_total")
        - fleet::counter(&before, "ndpipe_rpc_server_bytes_read_total"))
        as f64
        / n as f64;
    // The upload loop is closed and CPU-bound: its quiet-host quantile,
    // as a rate. (`upload_photos_per_s` below keeps the relabel pauses in.)
    out.slots = Slots {
        photos_per_s: 1e3 / crate::stats::quantile(&upload_ms, crate::stats::QUIET),
        op_ms: summary.p50_ms,
        op_tail_ms: summary.tail_ms,
        wire_bytes_per_photo: wire_per_photo,
    };
    out.named = vec![
        Metric::new("upload_photos_per_s", upload_rate, "photos/s", n),
        Metric::new("infer_p50_ms", summary.p50_ms, "ms", summary.n),
        Metric::new("infer_p99_ms", summary.p99_ms, "ms", summary.p99_samples),
        Metric::new(
            "generator_late_share",
            summary.late_share,
            "ratio",
            summary.n,
        ),
    ];

    if ctx.trace {
        let p = probes::run(ctx, &model);
        let mut a_spans = Recorder::new(true, epoch, 1);
        paced_spans(&mut a_spans, &paced.timings);
        out.recorders.push(a_spans);
        let put = fleet::server_op_since(&before, &after, "put_photo");
        let relabel = fleet::server_op_since(&before, &after, "offline_infer");
        out.layers = infer_layers(&before, &after, &summary, p.infer_frame_ns);
        out.layers.extend(probes::server_op_metrics(&[
            ("put_photo", &put),
            ("offline_infer", &relabel),
        ]));
        out.layers.extend(probes::scrape_metrics(&cluster));
        // Per photo uploaded, the interleaved relabels amortised over the
        // photos (the upload wall includes them).
        let [generator, compress, wire] = client_upload_rows(rec, n, record_bytes, &p);
        out.budget = budget(
            "upload",
            upload_wall * 1e6 / n as f64,
            &[
                generator,
                compress,
                wire,
                ("core.rpc.server.put_photo", put.mean() * 1e6),
                (
                    "core.rpc.server.offline_infer",
                    relabel.sum * 1e6 / n as f64,
                ),
            ],
        );
        out.budget
            .extend(infer_budget(&before, &after, &summary, p.infer_frame_ns));
        out.layers.extend(p.metrics);
    }

    uploader.shutdown().expect("end session B");
    reader.shutdown().expect("end session A");
    cluster.shutdown();
    fleet.drain();
    out
}
