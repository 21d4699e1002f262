//! The event-driven RPC front door under concurrency: session-slot
//! reaping on abort, client-side request pipelining, malformed-frame
//! and crafted-model handling, the work-conserving `Infer` batcher over real sockets, and
//! an (ignored-by-default) thousand-session soak that `scripts/check.sh`
//! runs explicitly.

use dnn::Mlp;
use ndpipe::rpc::server::{PipeStoreServer, ServerConfig};
use ndpipe::rpc::wire::{
    read_handshake, read_reply, write_handshake, write_request, Handshake, Reply, Request,
    PROTOCOL_VERSION,
};
use ndpipe::rpc::{ConnectOptions, RemotePipeStore, RpcError};
use ndpipe::PipeStore;
use ndpipe_data::photo::{preprocessed_binary, PhotoFactory};
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tensor::Tensor;

fn dataset(rng: &mut StdRng, classes: usize, per_class: usize) -> LabeledDataset {
    let u = ClassUniverse::new(16, 8, classes, 0.3, rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for _ in 0..per_class {
            rows.push(u.sample(c, rng));
            labels.push(c);
        }
    }
    LabeledDataset::new(rows, labels, classes)
}

fn bind_server(rng: &mut StdRng) -> PipeStoreServer {
    let train = dataset(rng, 4, 8);
    PipeStoreServer::bind(
        PipeStore::new(0, train),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind event server")
}

/// Feature rows plus the labels the installed model must produce for
/// them, computed by a local forward pass.
fn rows_and_expected(model: &Mlp, rng: &mut StdRng, n: usize) -> (Vec<Vec<f32>>, Vec<u32>) {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| Tensor::randn(&[16], rng).data().to_vec())
        .collect();
    let expected: Vec<u32> = rows
        .iter()
        .map(|r| {
            model
                .forward(&Tensor::from_vec(r.clone(), &[1, 16]))
                .argmax() as u32
        })
        .collect();
    (rows, expected)
}

#[test]
fn abort_reaps_every_session_and_gauge_returns_to_zero() {
    let mut rng = StdRng::seed_from_u64(601);
    let server = bind_server(&mut rng);
    let addr = server.local_addr();

    let mut clients: Vec<RemotePipeStore> = (0..4)
        .map(|_| RemotePipeStore::connect(addr).expect("connect"))
        .collect();
    for c in &mut clients {
        c.describe().expect("describe");
    }
    assert_eq!(server.active_sessions(), 4);

    // Hard stop with all four sessions still open: every slot must be
    // reaped, so the gauge lands back at zero — not at whatever the
    // abort interleaving left behind.
    let store = server.abort().expect("abort");
    let snap = store.metrics().snapshot();
    let gauge = snap
        .find("ndpipe_rpc_sessions_active")
        .expect("session gauge registered");
    match gauge.value {
        telemetry::SampleValue::Gauge(v) => {
            assert_eq!(v, 0.0, "session gauge drifted after abort");
        }
        ref other => panic!("expected gauge, got {}", other.kind()),
    }

    // The peers were slammed shut; their next call errors, never hangs.
    for mut c in clients {
        assert!(c.describe().is_err(), "session survived a hard abort");
    }
}

#[test]
fn pipelined_inference_matches_direct_forward() {
    let mut rng = StdRng::seed_from_u64(602);
    let server = bind_server(&mut rng);
    let model = Mlp::new(&[16, 24, 4], 1, &mut rng);

    let mut client = RemotePipeStore::connect(server.local_addr()).expect("connect");
    client.install_model(&model).expect("install");

    // 25 rows through a window of 8: three full windows plus a remnant,
    // all answered in request order.
    let (rows, expected) = rows_and_expected(&model, &mut rng, 25);
    let labels = client.infer_pipelined(&rows, 8).expect("pipelined infer");
    assert_eq!(labels, expected, "replies out of order or mislabeled");

    // The explicit window API composes with plain calls once drained.
    client.start_infer(&rows[0]).expect("start");
    client.start_infer(&rows[1]).expect("start");
    assert_eq!(client.pending_infers(), 2);
    assert_eq!(
        client.finish_infer().expect("finish"),
        vec![expected[0], expected[1]]
    );
    assert_eq!(client.infer(&rows[2]).expect("single infer"), expected[2]);

    client.shutdown().expect("end session");
    server.shutdown().expect("clean server stop");
}

/// Every `Infer` row is answered from the batch path, per-row errors
/// included: no model installed, and one wrong-width row inside a
/// pipelined wave. Neither is a session fault — the window drains, and
/// the same session's next wave is labeled as the local forward labels it.
#[test]
fn batch_path_errors_reach_the_client_and_the_session_survives() {
    let mut rng = StdRng::seed_from_u64(607);
    let server = bind_server(&mut rng);
    let model = Mlp::new(&[16, 24, 4], 1, &mut rng);
    let (rows, expected) = rows_and_expected(&model, &mut rng, 8);
    let mut client = RemotePipeStore::connect(server.local_addr()).expect("connect");

    match client.infer(&rows[0]) {
        Err(RpcError::Remote {
            op: "infer", msg, ..
        }) => assert!(msg.contains("no model"), "unexpected error text: {msg}"),
        other => panic!("expected a remote no-model error, got {other:?}"),
    }

    client.install_model(&model).expect("install");
    client.start_infer(&rows[0]).expect("start");
    client.start_infer(&rows[1]).expect("start");
    client.start_infer(&[0.5; 3]).expect("start");
    client.start_infer(&rows[2]).expect("start");
    match client.finish_infer() {
        Err(RpcError::Remote {
            op: "infer", msg, ..
        }) => assert!(
            msg.contains("bad feature dim"),
            "unexpected error text: {msg}"
        ),
        other => panic!("expected a remote bad-width error, got {other:?}"),
    }

    // Had the window not drained, its stale replies would be read as
    // this wave's labels.
    let labels = client.infer_pipelined(&rows, 4).expect("next wave");
    assert_eq!(labels, expected, "session desynchronized after an error");

    client.shutdown().expect("end session");
    server.shutdown().expect("clean server stop");
}

/// A raw socket session past the handshake, with a read timeout so a
/// reply that never comes fails the test instead of hanging it.
fn raw_session(addr: std::net::SocketAddr, timeout: Duration) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(timeout)).expect("timeout");
    write_handshake(
        &mut stream,
        &Handshake::Hello {
            version: PROTOCOL_VERSION,
            features: 0,
        },
    )
    .expect("hello");
    match read_handshake(&mut stream).expect("greeting") {
        Handshake::Accept { .. } => {}
        other => panic!("expected accept, got {other:?}"),
    }
    stream
}

#[test]
fn malformed_request_body_gets_structured_error_and_session_survives() {
    let mut rng = StdRng::seed_from_u64(603);
    let server = bind_server(&mut rng);

    let mut stream = raw_session(server.local_addr(), Duration::from_secs(10));

    // A well-formed frame (honest length prefix) around a body the
    // request decoder must reject: unknown tag, three junk bytes.
    let mut frame = Vec::new();
    frame.extend_from_slice(&3u32.to_le_bytes());
    frame.push(0xEE);
    frame.extend_from_slice(&[1, 2, 3]);
    stream.write_all(&frame).expect("send malformed frame");

    match read_reply(&mut stream).expect("error reply").0 {
        Reply::Error(msg) => assert!(
            msg.contains("bad request frame"),
            "unexpected error text: {msg}"
        ),
        other => panic!("expected structured error, got {other:?}"),
    }

    // The session survived the bad body: a valid request still works.
    write_request(&mut stream, &Request::Describe).expect("describe");
    match read_reply(&mut stream).expect("describe reply").0 {
        Reply::ShardInfo { .. } => {}
        other => panic!("expected shard info, got {other:?}"),
    }
    drop(stream);

    // And the malformed body was the peer's fault, not a server-side
    // session failure: shutdown reports no first error.
    server
        .shutdown()
        .expect("malformed body must not poison shutdown");
}

/// A 20-byte model blob whose first layer claims `2^31 × 2^31` weights:
/// the weight byte count `d_out·d_in·4` wraps to zero in `usize`. More such
/// installs than the server has workers must each get an error reply,
/// and the server must still answer afterwards — a decode that panics
/// would take a worker thread with it.
#[test]
fn crafted_model_blobs_cannot_kill_the_worker_pool() {
    let mut rng = StdRng::seed_from_u64(608);
    let server = bind_server(&mut rng);
    let mut blob = b"NDPM".to_vec();
    for v in [2u32, 1, 1 << 31, 1 << 31] {
        blob.extend_from_slice(&v.to_le_bytes());
    }

    for _ in 0..ServerConfig::default().workers + 1 {
        let mut stream = raw_session(server.local_addr(), Duration::from_secs(3));
        write_request(&mut stream, &Request::InstallModel(blob.clone())).expect("install");
        match read_reply(&mut stream).expect("install reply").0 {
            Reply::Error(msg) => assert!(msg.contains("bad model blob"), "{msg}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    let mut stream = raw_session(server.local_addr(), Duration::from_secs(3));
    write_request(&mut stream, &Request::Describe).expect("describe");
    match read_reply(&mut stream).expect("describe reply").0 {
        Reply::ShardInfo { .. } => {}
        other => panic!("expected shard info, got {other:?}"),
    }
    drop(stream);
    server.shutdown().expect("clean server stop");
}

/// A well-formed model narrower than the store's 16-wide shard: its
/// `ExtractSlice` must come back as an error reply. Running the forward
/// instead panics on the width check and takes a worker thread with it,
/// so one more such session than the server has workers would leave
/// nobody to answer the fresh session's `Describe`.
#[test]
fn narrow_model_extract_cannot_kill_the_worker_pool() {
    let mut rng = StdRng::seed_from_u64(609);
    let server = bind_server(&mut rng);
    let narrow = Mlp::new(&[8, 12, 4], 1, &mut rng);
    let opts = ConnectOptions::new()
        .retries(1)
        .timeout(Duration::from_secs(3));

    for _ in 0..ServerConfig::default().workers + 1 {
        let mut c = RemotePipeStore::connect_with(server.local_addr(), opts).expect("connect");
        c.install_model(&narrow)
            .expect("a well-formed model installs");
        match c.extract_features(0, 1) {
            Err(RpcError::Remote { op, .. }) => assert_eq!(op, "extract_slice"),
            Err(other) => panic!("expected a remote error, got {other:?}"),
            Ok(_) => panic!("a narrow model extracted a 16-wide shard"),
        }
        c.shutdown().expect("end session");
    }

    let mut c = RemotePipeStore::connect_with(server.local_addr(), opts).expect("fresh session");
    c.describe().expect("describe after the narrow extracts");
    c.shutdown().expect("end session");
    server.shutdown().expect("clean server stop");
}

/// The same narrow model under `OfflineInfer` on a store that holds
/// photos: the relabel classifies the store's 16-wide shard rows with the
/// full forward, which asserts the width just as extraction does. Each
/// session must get an error reply and the pool must still answer a
/// fresh session's `Describe` afterwards.
#[test]
fn narrow_model_offline_infer_cannot_kill_the_worker_pool() {
    let mut rng = StdRng::seed_from_u64(610);
    let store = PipeStore::new(0, dataset(&mut rng, 4, 8));
    let mut factory = PhotoFactory::new(512);
    for i in 0..6 {
        let photo = factory.make(i % 4, 0, &mut rng);
        store.store_photo(photo, preprocessed_binary(256, &mut rng));
    }
    let server = PipeStoreServer::bind(store, "127.0.0.1:0", ServerConfig::default())
        .expect("bind event server");
    let narrow = Mlp::new(&[8, 12, 4], 1, &mut rng);
    let opts = ConnectOptions::new()
        .retries(1)
        .timeout(Duration::from_secs(3));

    for _ in 0..ServerConfig::default().workers + 1 {
        let mut c = RemotePipeStore::connect_with(server.local_addr(), opts).expect("connect");
        c.install_model(&narrow)
            .expect("a well-formed model installs");
        match c.offline_infer() {
            Err(RpcError::Remote { op, .. }) => assert_eq!(op, "offline_infer"),
            Err(other) => panic!("expected a remote error, got {other:?}"),
            Ok(_) => panic!("a narrow model relabelled a 16-wide shard"),
        }
        c.shutdown().expect("end session");
    }

    let mut c = RemotePipeStore::connect_with(server.local_addr(), opts).expect("fresh session");
    c.describe().expect("describe after the narrow relabels");
    c.shutdown().expect("end session");
    server.shutdown().expect("clean server stop");
}

/// `(count, sum)` of the `ndpipe_rpc_batch_size` histogram and the
/// `ndpipe_online_coalesced_total` counter (0 when never touched).
fn batch_metrics(snap: &telemetry::Snapshot) -> (u64, f64, u64) {
    let (count, sum) = match snap.find("ndpipe_rpc_batch_size").map(|s| &s.value) {
        Some(telemetry::SampleValue::Histogram(h)) => (h.count, h.sum),
        _ => (0, 0.0),
    };
    let coalesced = match snap.find("ndpipe_online_coalesced_total").map(|s| &s.value) {
        Some(telemetry::SampleValue::Counter(c)) => *c,
        _ => 0,
    };
    (count, sum, coalesced)
}

/// No batch window: a row that arrives at an idle server is on a worker
/// in the same sweep, so 200 sequential blocking round trips cost 200
/// forwards — not 200 `poll(2)` ticks, which is the least the old timed
/// window could charge (≥ 200 ms). Coalescing is not lost with it: rows
/// that arrive together still leave together.
#[test]
fn idle_server_fires_at_once_and_a_pipelined_wave_still_coalesces() {
    const LONE: usize = 200;
    let mut rng = StdRng::seed_from_u64(605);
    let server = bind_server(&mut rng);
    let model = Mlp::new(&[16, 24, 4], 1, &mut rng);
    let mut client = RemotePipeStore::connect(server.local_addr()).expect("connect");
    client.install_model(&model).expect("install");

    let (rows, expected) = rows_and_expected(&model, &mut rng, LONE);
    let t0 = Instant::now();
    for (row, want) in rows.iter().zip(&expected) {
        assert_eq!(client.infer(row).expect("lone infer"), *want);
    }
    let took = t0.elapsed();
    // A round trip here is under 100 µs even in a debug build (≈ 15 ms
    // for the lot); a timed window cannot beat one poll tick per row
    // (200 ms). The bar sits between them, with room for a noisy host.
    assert!(
        took < Duration::from_millis(LONE as u64 * 3 / 4),
        "{LONE} lone infers took {took:?}: rows are waiting on a clock"
    );

    assert_eq!(
        batch_metrics(&client.scrape().expect("scrape")),
        (LONE as u64, LONE as f64, 0),
        "expected exactly {LONE} one-row batches"
    );

    // One 8-row wave coalesces: it normally reaches the server in one
    // read and leaves in one batch; a split read may send its head
    // ahead (alone, if it is one row) and the rest behind it.
    let wave = client.infer_pipelined(&rows[..8], 8).expect("wave");
    assert_eq!(wave, expected[..8]);

    client.shutdown().expect("end session");
    let store = server.shutdown().expect("clean server stop");
    let (batches, batched_rows, coalesced) = batch_metrics(&store.metrics().snapshot());
    assert_eq!(batched_rows, LONE as f64 + 8.0);
    assert!(
        batches <= LONE as u64 + 2 && coalesced >= 7,
        "the wave did not coalesce ({} batches, {coalesced} coalesced rows)",
        batches - LONE as u64
    );
}

/// A batch whose session died before its replies came back must still
/// release the batcher: the in-flight count comes back on every path a
/// finished reply can take, or the next lone row waits for company that
/// may never come.
#[test]
fn a_dead_sessions_batch_does_not_strand_the_next_row() {
    let mut rng = StdRng::seed_from_u64(606);
    let server = bind_server(&mut rng);
    let addr = server.local_addr();
    let model = Mlp::new(&[16, 24, 4], 1, &mut rng);
    let mut b = RemotePipeStore::connect(addr).expect("connect b");
    b.install_model(&model).expect("install");
    let (rows, expected) = rows_and_expected(&model, &mut rng, 9);

    for _ in 0..20 {
        // Session A: eight rows on the wire, gone before any reply.
        let mut a = TcpStream::connect(addr).expect("connect a");
        write_handshake(
            &mut a,
            &Handshake::Hello {
                version: PROTOCOL_VERSION,
                features: 0,
            },
        )
        .expect("hello");
        read_handshake(&mut a).expect("greeting");
        let mut wave = Vec::new();
        for row in &rows[..8] {
            write_request(
                &mut wave,
                &Request::Infer {
                    features: row.clone(),
                },
            )
            .expect("encode");
        }
        a.write_all(&wave).expect("send wave");
        drop(a);

        // Session B's lone row must come back promptly — a watchdog, not
        // the 30 s idle timeout, decides what "stranded" means.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let row = rows[8].clone();
        let worker = std::thread::spawn(move || {
            let label = b.infer(&row);
            let _ = tx.send(());
            (b, label)
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("lone infer stranded behind a dead session's batch");
        let (back, label) = worker.join().expect("infer thread");
        assert_eq!(label.expect("lone infer"), expected[8]);
        b = back;
    }

    b.shutdown().expect("end session");
    // A hanging up on unread replies may be reported as the first
    // session error (a reset); anything else is a server fault.
    match server.shutdown() {
        Ok(_) | Err(RpcError::Io(_)) => {}
        Err(e) => panic!("server fault after dead sessions: {e}"),
    }
}

/// The ISSUE's soak gate: ≥1000 concurrent sessions on the DEFAULT
/// config, every reply accounted for, p99 asserted from the telemetry
/// histogram. Ignored by default (it's a load test); `scripts/check.sh`
/// runs it with `--ignored`.
#[test]
#[ignore = "1k-session soak; run explicitly or via scripts/check.sh"]
fn soak_holds_a_thousand_concurrent_sessions() {
    const THREADS: usize = 16;
    const CONNS: usize = 64; // 16 × 64 = 1024 concurrent sessions
    const INFERS: usize = 16; // per session
    const WINDOW: usize = 8;

    let mut rng = StdRng::seed_from_u64(604);
    let server = bind_server(&mut rng);
    let addr = server.local_addr();
    let model = Arc::new(Mlp::new(&[16, 24, 4], 1, &mut rng));
    {
        let mut c = RemotePipeStore::connect(addr).expect("installer connect");
        c.install_model(&model).expect("install");
        c.shutdown().expect("installer end");
    }

    let connected = Arc::new(Barrier::new(THREADS + 1));
    let proceed = Arc::new(Barrier::new(THREADS + 1));
    let mut handles = Vec::with_capacity(THREADS);
    for t in 0..THREADS {
        let connected = Arc::clone(&connected);
        let proceed = Arc::clone(&proceed);
        let model = Arc::clone(&model);
        handles.push(std::thread::spawn(move || -> usize {
            let mut rng = StdRng::seed_from_u64(700 + t as u64);
            // The connect storm can outrun the accept loop; generous
            // retries keep the ramp-up honest instead of flaky.
            let opts = ConnectOptions::new()
                .retries(10)
                .backoff(Duration::from_millis(5), Duration::from_millis(200));
            let mut clients: Vec<RemotePipeStore> = (0..CONNS)
                .map(|_| RemotePipeStore::connect_with(addr, opts).expect("connect"))
                .collect();
            connected.wait();
            // Hold every session open until the main thread has observed
            // the concurrent population.
            proceed.wait();
            let mut replies = 0usize;
            for c in clients.iter_mut() {
                let (rows, expected) = rows_and_expected(&model, &mut rng, INFERS);
                let got = c.infer_pipelined(&rows, WINDOW).expect("pipelined infer");
                assert_eq!(got, expected, "reply demultiplexed to the wrong request");
                replies += got.len();
            }
            for c in clients {
                c.shutdown().expect("end session");
            }
            replies
        }));
    }

    connected.wait();
    let peak = server.active_sessions();
    assert!(
        peak >= THREADS * CONNS,
        "soak never reached 1000 concurrent sessions: {peak}"
    );
    proceed.wait();
    let total: usize = handles
        .into_iter()
        .map(|h| h.join().expect("soak thread"))
        .sum();
    assert_eq!(total, THREADS * CONNS * INFERS, "lost replies");

    let store = server.shutdown().expect("clean shutdown after soak");
    let snap = store.metrics().snapshot();
    let lat = snap
        .find_with("ndpipe_rpc_server_op_seconds", &[("op", "infer")])
        .expect("infer latency histogram");
    match lat.value {
        telemetry::SampleValue::Histogram(ref h) => {
            assert_eq!(
                h.count,
                (THREADS * CONNS * INFERS) as u64,
                "latency histogram lost observations"
            );
            let p99 = h.quantile(0.99);
            assert!(
                p99.is_finite() && p99 >= 0.0,
                "p99 must be recorded, got {p99}"
            );
            println!(
                "soak: {} sessions, {} infers, p99 infer latency {:.6}s",
                peak, total, p99
            );
        }
        ref other => panic!("expected histogram, got {}", other.kind()),
    }
    // The batcher is work-conserving, not batch-averse: with a thousand
    // sessions pipelining, rows do coalesce.
    let (batches, batched_rows, _) = batch_metrics(&snap);
    assert_eq!(batched_rows, (THREADS * CONNS * INFERS) as f64);
    assert!(
        batched_rows / batches as f64 > 1.0,
        "soak never coalesced: {batches} batches for {batched_rows} rows"
    );
    // Under `--cfg ndpipe_sanitize` every send samples queue depth and
    // every instrumented acquisition checks lock order; the soak passing
    // means zero violations. Confirm the witnesses ran and that the
    // bounded queues stayed within their declared capacities.
    #[cfg(ndpipe_sanitize)]
    {
        assert!(
            ndpipe::sanitize::checks_performed() > 0,
            "sanitizer build ran the soak without a single witness check"
        );
        // Caps mirror WORK_QUEUE_CAP / DONE_QUEUE_CAP in rpc/server.rs.
        let work_hw = ndpipe::sanitize::high_water("rpc.work");
        let done_hw = ndpipe::sanitize::high_water("rpc.done");
        assert!(
            work_hw <= 1024,
            "work queue overflowed its bound: {work_hw}"
        );
        assert!(
            done_hw <= 4096,
            "done queue overflowed its bound: {done_hw}"
        );
        println!("soak sanitizer: work hw {work_hw}, done hw {done_hw}");
    }
}
