//! Cross-session dynamic batching under concurrency: many pipelining
//! Tuner sessions firing `Infer` rows at one loopback `PipeStoreServer`,
//! whose event loop coalesces them through its work-conserving batcher
//! (the one path every `Infer` row takes). Each swept session count is
//! one cell reporting throughput, p99 latency and the mean batch the
//! batcher formed. Every cell answers the same number of rows, so the
//! one-session cell is as long as the widest one (a few hundred rows last
//! milliseconds and time thread start-up, not the server).
//!
//! `NDPIPE_THREADS` is pinned to 1 while the servers run. A batch is at
//! most 32 rows through a `dim → dim → classes` model, far below the GEMM
//! driver's parallel threshold, so every forward is serial either way;
//! what the pin removes is the per-GEMM thread-budget probe
//! (`tensor::configured_threads` asks the OS for the core count on every
//! product when the variable is unset). Unpinned, that probe lands on
//! every batch: on a 2-core host the `--fast` one-session p99 read
//! 0.12–0.14 ms over 3 runs against 0.04–0.08 ms pinned. What
//! batching buys is then one `[n, d]` GEMM amortizing per-call overhead
//! over `n` rows. p99 latency comes from the server's own
//! `ndpipe_rpc_server_op_seconds{op="infer"}` histogram, so the report
//! shows what the telemetry path records — not a bench-side stopwatch.

use crate::util::{fmt, Report};
use dnn::Mlp;
use ndpipe::rpc::{ConnectOptions, PipeStoreServer, RemotePipeStore, ServerConfig};
use ndpipe::PipeStore;
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Workload knobs for the concurrency sweep.
#[derive(Debug, Clone)]
pub struct ConcurrencyParams {
    /// Concurrent session counts to sweep (ascending).
    pub session_counts: Vec<usize>,
    /// `Infer` rows every cell answers, split evenly over its sessions.
    pub rows_per_cell: usize,
    /// Client pipelining window (in-flight rows per session).
    pub window: usize,
    /// Input feature dimension (also the model's hidden width).
    pub input_dim: usize,
    /// Label-space width of the synthetic corpus.
    pub classes: usize,
}

impl ConcurrencyParams {
    /// Full configuration: 1, 8 and 64 sessions.
    pub fn full() -> Self {
        ConcurrencyParams {
            session_counts: vec![1, 8, 64],
            rows_per_cell: 65_536,
            window: 8,
            input_dim: 32,
            classes: 8,
        }
    }

    /// Smaller (noisier) configuration for `--fast` runs.
    pub fn fast() -> Self {
        ConcurrencyParams {
            session_counts: vec![1, 8, 64],
            rows_per_cell: 4_096,
            window: 8,
            input_dim: 16,
            classes: 4,
        }
    }

    /// Tiny configuration for unit tests (debug builds).
    pub fn tiny() -> Self {
        ConcurrencyParams {
            session_counts: vec![1, 4],
            rows_per_cell: 64,
            window: 4,
            input_dim: 16,
            classes: 4,
        }
    }
}

/// One session-count sweep cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Concurrent sessions driving the server.
    pub sessions: usize,
    /// Total `Infer` rows answered.
    pub rows: usize,
    /// Wall seconds from release barrier to last session joined.
    pub wall_secs: f64,
    /// Rows per second over the whole fleet.
    pub rps: f64,
    /// p99 of `ndpipe_rpc_server_op_seconds{op="infer"}`: arrival to
    /// completion, so it *includes* any wait behind the batch in flight.
    pub p99_secs: f64,
    /// Mean rows per coalesced batch.
    pub mean_batch: f64,
}

/// Everything the bench measures, ready for rendering.
#[derive(Debug, Clone)]
pub struct ConcurrencyMeasurements {
    pub params: ConcurrencyParams,
    /// Physical parallelism available to server + sessions.
    pub cpus: usize,
    /// One cell per swept session count.
    pub cells: Vec<Cell>,
}

/// Runs the measurement at the given workload size. Pins
/// `NDPIPE_THREADS=1` while the servers are alive and restores the prior
/// value before returning (all server threads are joined first).
pub fn measure_with(p: &ConcurrencyParams) -> ConcurrencyMeasurements {
    let prior = std::env::var("NDPIPE_THREADS").ok();
    std::env::set_var("NDPIPE_THREADS", "1");
    let m = measure_pinned(p);
    match prior {
        Some(v) => std::env::set_var("NDPIPE_THREADS", v),
        None => std::env::remove_var("NDPIPE_THREADS"),
    }
    m
}

fn corpus(p: &ConcurrencyParams, rng: &mut StdRng) -> LabeledDataset {
    let u = ClassUniverse::new(p.input_dim, 8, p.classes, 0.3, rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..p.classes {
        for _ in 0..8 {
            rows.push(u.sample(c, rng));
            labels.push(c);
        }
    }
    LabeledDataset::new(rows, labels, p.classes)
}

/// Drives one sweep cell: a fresh server, `sessions` client threads each
/// pushing their share of `rows_per_cell` through a pipelined window,
/// wall-clocked from the release barrier.
fn run_cell(p: &ConcurrencyParams, model: &Arc<Mlp>, sessions: usize, rng: &mut StdRng) -> Cell {
    let server = PipeStoreServer::bind(
        PipeStore::new(0, corpus(p, rng)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind bench server");
    let addr = server.local_addr();
    {
        let mut c = RemotePipeStore::connect(addr).expect("installer connect");
        c.install_model(model).expect("install");
        c.shutdown().expect("installer end");
    }

    let start = Arc::new(Barrier::new(sessions + 1));
    let dim = p.input_dim;
    let per = p.rows_per_cell / sessions.max(1);
    let window = p.window;
    let mut handles = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let start = Arc::clone(&start);
        let model = Arc::clone(model);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(9_000 + s as u64);
            let rows: Vec<Vec<f32>> = (0..per)
                .map(|_| Tensor::randn(&[dim], &mut rng).data().to_vec())
                .collect();
            let expected: Vec<u32> = rows
                .iter()
                .map(|r| {
                    model
                        .forward(&Tensor::from_vec(r.clone(), &[1, dim]))
                        .argmax() as u32
                })
                .collect();
            let opts = ConnectOptions::new()
                .retries(10)
                .backoff(Duration::from_millis(5), Duration::from_millis(200));
            let mut client = RemotePipeStore::connect_with(addr, opts).expect("session connect");
            start.wait();
            let got = client
                .infer_pipelined(&rows, window)
                .expect("pipelined infer");
            assert_eq!(got, expected, "bench replies demuxed to the wrong request");
            client.shutdown().expect("end session");
        }));
    }

    start.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("session thread");
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let rows = sessions * per;

    let store = server.shutdown().expect("server drain");
    let snap = store.metrics().snapshot();
    let p99 = match snap
        .find_with("ndpipe_rpc_server_op_seconds", &[("op", "infer")])
        .map(|s| &s.value)
    {
        Some(telemetry::SampleValue::Histogram(h)) => h.quantile(0.99),
        _ => f64::NAN,
    };
    let mean_batch = match snap.find("ndpipe_rpc_batch_size").map(|s| &s.value) {
        Some(telemetry::SampleValue::Histogram(h)) => h.mean(),
        _ => f64::NAN,
    };

    Cell {
        sessions,
        rows,
        wall_secs: wall,
        rps: rows as f64 / wall,
        p99_secs: p99,
        mean_batch,
    }
}

fn measure_pinned(p: &ConcurrencyParams) -> ConcurrencyMeasurements {
    let mut rng = StdRng::seed_from_u64(45_205);
    let model = Arc::new(Mlp::new(
        &[p.input_dim, p.input_dim, p.classes],
        1,
        &mut rng,
    ));
    let cells = p
        .session_counts
        .iter()
        .map(|&sessions| run_cell(p, &model, sessions, &mut rng))
        .collect();
    ConcurrencyMeasurements {
        params: p.clone(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cells,
    }
}

/// Renders the measurements as a human-readable report.
pub fn render(m: &ConcurrencyMeasurements) -> String {
    let mut r = Report::new(
        "RPC concurrency",
        "cross-session dynamic batching at 1 to many sessions",
    );
    r.note(&format!(
        "{} rows/cell, window {}, dim {}, server GEMM pinned to 1 \
         thread ({} cores); p99 from the server's op_seconds histogram \
         (arrival to completion, wait behind a running batch included)",
        m.params.rows_per_cell, m.params.window, m.params.input_dim, m.cpus
    ));
    r.blank();
    r.header(&[
        "sessions",
        "rows",
        "wall s",
        "rows/s",
        "p99 ms",
        "mean batch",
    ]);
    for c in &m.cells {
        r.row(&[
            c.sessions.to_string(),
            c.rows.to_string(),
            fmt(c.wall_secs, 5),
            fmt(c.rps, 1),
            fmt(c.p99_secs * 1e3, 3),
            fmt(c.mean_batch, 2),
        ]);
    }
    r.render()
}

/// Standard entry point matching the other report modules.
pub fn run(fast: bool) -> String {
    let params = if fast {
        ConcurrencyParams::fast()
    } else {
        ConcurrencyParams::full()
    };
    render(&measure_with(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_answers_every_row_and_restores_env() {
        let before = std::env::var("NDPIPE_THREADS").ok();
        let m = measure_with(&ConcurrencyParams::tiny());
        assert_eq!(
            std::env::var("NDPIPE_THREADS").ok(),
            before,
            "NDPIPE_THREADS not restored"
        );
        // One cell per swept session count, all rows answered, and every
        // row went through a batch.
        assert_eq!(m.cells.len(), m.params.session_counts.len());
        for c in &m.cells {
            assert_eq!(c.rows, m.params.rows_per_cell);
            assert!(c.rps > 0.0, "cell produced no throughput: {c:?}");
            assert!(
                c.p99_secs.is_finite() && c.p99_secs >= 0.0,
                "p99 unrecorded for {c:?}"
            );
            assert!(c.mean_batch >= 1.0, "no batch recorded for {c:?}");
        }

        let text = render(&m);
        assert!(text.contains("RPC concurrency"));
        assert!(text.contains("mean batch"));
    }
}
