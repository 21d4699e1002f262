//! The executable NPE engine: a real threaded 3-stage pipeline (§5.4).
//!
//! Where the parent module *models* Fig 12's stage times analytically,
//! this module *runs* them: [`run_pipeline`] wires a loader stage, a
//! decode pool (the paper's ≤2-core decompression stage) and an in-order
//! batched FE&Cl stage over bounded crossbeam channels. The FE stage
//! assembles up to [`EngineConfig::batch`] decoded items into a single
//! batched forward pass (the paper's `+Batch` enlargement).
//!
//! Determinism: decoded items leave the pool out of order, but the FE
//! stage reorders them by index before batching, and batches are always
//! `[0..batch)`, `[batch..2·batch)`, … regardless of worker count or
//! scheduling. Any decode function that is itself deterministic therefore
//! yields bit-identical results at every `decomp_workers` setting — the
//! property the `NDPIPE_THREADS` knob relies on.
//!
//! The engine measures per-stage busy time so the analytic Fig 12 bars
//! can be validated against wall-clock reality: `sum(busy)` approximates
//! serial execution, `wall` the pipelined one, and per-stage occupancy
//! shows which stage binds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Configuration of the threaded 3-stage pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// FE&Cl batch size (the paper uses 128 for ResNet50 on a T4).
    pub batch: usize,
    /// Decode-pool workers. The paper budgets at most 2 storage-server
    /// cores for decompression; the default honours `NDPIPE_THREADS`
    /// when it asks for less.
    pub decomp_workers: usize,
    /// Capacity of the bounded channels between stages (backpressure
    /// depth, in items).
    pub queue_depth: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch: 128,
            decomp_workers: tensor::configured_threads().clamp(1, 2),
            queue_depth: 256,
        }
    }
}

/// Busy-time accounting for one pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    /// Seconds spent doing stage work (excludes channel waits).
    pub busy_secs: f64,
    /// Items that passed through the stage.
    pub items: usize,
}

/// Queue-depth sampling of one inter-stage channel: the loader samples
/// the load→decode queue at each send, the FE stage samples the
/// decode→FE queue at each receive. Sampling is skipped entirely while
/// [`telemetry::enabled`] is off, so the uninstrumented baseline pays
/// nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Number of depth samples taken.
    pub samples: usize,
    /// Sum of sampled depths (for the mean).
    pub depth_sum: u64,
    /// Largest sampled depth.
    pub depth_max: usize,
}

impl QueueStats {
    fn record(&mut self, depth: usize) {
        self.samples += 1;
        self.depth_sum += depth as u64;
        self.depth_max = self.depth_max.max(depth);
    }

    /// Mean sampled depth (0 when never sampled).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.samples as f64
        }
    }
}

/// Execution report of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Loader stage (disk / sidecar fetch).
    pub load: StageStats,
    /// Decode pool (decompression / preprocessing), summed over workers.
    pub decode: StageStats,
    /// Batched FE&Cl stage.
    pub fe: StageStats,
    /// Number of batched forward passes issued.
    pub batches: usize,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Depth of the load→decode queue, sampled at each send.
    pub in_queue: QueueStats,
    /// Depth of the decode→FE queue, sampled at each receive.
    pub mid_queue: QueueStats,
    /// Items dropped because their decode failed (an `Err` from the
    /// decode fn, or a decode panic contained by the pool worker).
    pub stage_errors: usize,
    /// First stage error message, kept for diagnostics when
    /// `stage_errors > 0`.
    pub first_error: Option<String>,
}

impl PipelineStats {
    /// Measured pipelined throughput, items per second.
    pub fn ips(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.fe.items as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Estimated serial (unpipelined) time: the sum of all stage work.
    pub fn serial_estimate_secs(&self) -> f64 {
        self.load.busy_secs + self.decode.busy_secs + self.fe.busy_secs
    }

    /// Per-stage occupancy `[load, decode, fe]`: the fraction of the wall
    /// time each stage was busy. The stage closest to 1.0 binds the
    /// pipeline — Fig 12's `1 / max(stage)` argument, observed.
    pub fn occupancies(&self) -> [f64; 3] {
        if self.wall_secs <= 0.0 {
            return [0.0; 3];
        }
        [
            self.load.busy_secs / self.wall_secs,
            self.decode.busy_secs / self.wall_secs,
            self.fe.busy_secs / self.wall_secs,
        ]
    }
}

/// Runs `items` through the 3-stage pipeline and returns the FE outputs
/// in item order plus per-stage statistics.
///
/// - **Stage 1 (loader, 1 thread):** drains the `items` iterator; the
///   iterator's own work (e.g. fetching a compressed sidecar) is
///   attributed to the load stage.
/// - **Stage 2 (decode pool, `decomp_workers` threads):** applies
///   `decode(index, item)` — typically real DEFLATE inflation.
/// - **Stage 3 (FE&Cl, caller thread):** restores index order, groups up
///   to `batch` decoded items, and calls `forward` once per group (the
///   single batched forward). `forward` must return one output per input,
///   in input order.
///
/// # Panics
///
/// Panics if a stage errors (decode `Err` or a decode panic — use
/// [`run_pipeline_fallible`] to observe those as data instead) or if
/// `forward` returns a different number of outputs than inputs.
pub fn run_pipeline<I, M, T, L, D, F>(
    cfg: &EngineConfig,
    items: L,
    decode: D,
    forward: F,
) -> (Vec<T>, PipelineStats)
where
    I: Send,
    M: Send,
    L: IntoIterator<Item = I> + Send,
    L::IntoIter: Send,
    D: Fn(usize, I) -> M + Sync,
    F: FnMut(Vec<M>) -> Vec<T>,
{
    let (out, stats) = run_pipeline_fallible(
        cfg,
        items,
        |idx, item| Ok::<M, String>(decode(idx, item)),
        forward,
    );
    if let Some(err) = &stats.first_error {
        // ndlint: allow(panic, reason = "infallible API re-raises contained decode failures on the caller thread; fallible callers use run_pipeline_fallible")
        panic!("npe decode stage failed: {err}");
    }
    (out, stats)
}

/// [`run_pipeline`] with a fallible decode stage.
///
/// `decode` returns `Result<M, String>`; an `Err` (or a panic inside
/// `decode`, which the pool worker catches) drops that item, increments
/// [`PipelineStats::stage_errors`], records the first message in
/// [`PipelineStats::first_error`], and lets every other item flow through.
/// The FE stage still sees surviving items in index order, so batches stay
/// deterministic; the pipeline drains cleanly instead of unwinding through
/// a bounded channel send and wedging its peers.
///
/// # Panics
///
/// Panics only if `forward` returns a different number of outputs than
/// inputs (a caller bug, raised on the caller's own thread).
pub fn run_pipeline_fallible<I, M, T, L, D, F>(
    cfg: &EngineConfig,
    items: L,
    decode: D,
    mut forward: F,
) -> (Vec<T>, PipelineStats)
where
    I: Send,
    M: Send,
    L: IntoIterator<Item = I> + Send,
    L::IntoIter: Send,
    D: Fn(usize, I) -> Result<M, String> + Sync,
    F: FnMut(Vec<M>) -> Vec<T>,
{
    let batch = cfg.batch.max(1);
    let workers = cfg.decomp_workers.max(1);
    let depth = cfg.queue_depth.max(1);

    // ndlint: policy(block, reason = "inter-stage backpressure is the design: a slow decode pool stalls the loader at queue_depth instead of buffering the shard")
    let (tx_in, rx_in) = crossbeam::channel::bounded::<(usize, I)>(depth);
    // ndlint: policy(block, reason = "same backpressure contract for decode -> FE; the FE stage drains in submission order via the reorder window")
    let (tx_mid, rx_mid) = crossbeam::channel::bounded::<(usize, Result<M, String>)>(depth);

    let load_busy_ns = AtomicU64::new(0);
    let decode_busy_ns = AtomicU64::new(0);
    let loaded = AtomicU64::new(0);
    let decoded = AtomicU64::new(0);
    // Queue-depth sampling (telemetry): the loader publishes its local
    // tallies through these once it finishes.
    let sample_queues = telemetry::enabled();
    let in_samples = AtomicU64::new(0);
    let in_depth_sum = AtomicU64::new(0);
    let in_depth_max = AtomicU64::new(0);

    let mut results: Vec<T> = Vec::new();
    let mut stats = PipelineStats::default();
    let start = Instant::now();

    crossbeam::thread::scope(|s| {
        // Stage 1: loader.
        {
            let load_busy_ns = &load_busy_ns;
            let loaded = &loaded;
            let (in_samples, in_depth_sum, in_depth_max) =
                (&in_samples, &in_depth_sum, &in_depth_max);
            s.spawn(move |_| {
                let mut iter = items.into_iter();
                let mut idx = 0usize;
                let mut queue = QueueStats::default();
                loop {
                    let t0 = Instant::now();
                    let next = iter.next();
                    // ndlint: allow(relaxed, reason = "monotonic busy-time tally; published to the caller by the scope join, not by this store")
                    load_busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let Some(item) = next else { break };
                    if tx_in.send((idx, item)).is_err() {
                        break; // all consumers gone (a stage panicked)
                    }
                    crate::sanitize::channel_depth("npe.load", tx_in.len(), depth);
                    if sample_queues {
                        queue.record(tx_in.len());
                    }
                    idx += 1;
                }
                // Final publication of the loader's local tallies; Release
                // pairs with the Acquire loads after the scope join.
                loaded.store(idx as u64, Ordering::Release);
                in_samples.store(queue.samples as u64, Ordering::Release);
                in_depth_sum.store(queue.depth_sum, Ordering::Release);
                in_depth_max.store(queue.depth_max as u64, Ordering::Release);
                // `tx_in` drops here: decode workers drain and exit.
            });
        }

        // Stage 2: decode pool.
        for _ in 0..workers {
            let rx_in = rx_in.clone();
            let tx_mid = tx_mid.clone();
            let decode = &decode;
            let decode_busy_ns = &decode_busy_ns;
            let decoded = &decoded;
            s.spawn(move |_| {
                for (idx, item) in rx_in.iter() {
                    let t0 = Instant::now();
                    // Contain decode panics to this item: unwinding out of
                    // a pool worker would silently shrink the pool and can
                    // wedge the pipeline on a bounded channel.
                    let m = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        decode(idx, item)
                    }))
                    .unwrap_or_else(|payload| Err(panic_message(&*payload)));
                    // ndlint: allow(relaxed, reason = "monotonic busy-time and item tallies; published to the caller by the scope join")
                    decode_busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    // ndlint: allow(relaxed, reason = "monotonic item counter; published to the caller by the scope join")
                    decoded.fetch_add(1, Ordering::Relaxed);
                    if tx_mid.send((idx, m)).is_err() {
                        break;
                    }
                    crate::sanitize::channel_depth("npe.mid", tx_mid.len(), depth);
                }
            });
        }
        drop(rx_in);
        drop(tx_mid); // FE sees disconnect once every worker finishes

        // Stage 3 (this thread): reorder, batch, forward. Failed items
        // are dropped here (after restoring index order) so survivors
        // still batch deterministically.
        let mut pending: BTreeMap<usize, Result<M, String>> = BTreeMap::new();
        let mut next = 0usize;
        let mut bucket: Vec<M> = Vec::with_capacity(batch);
        let mut flush = |bucket: &mut Vec<M>, results: &mut Vec<T>, stats: &mut PipelineStats| {
            if bucket.is_empty() {
                return;
            }
            let n = bucket.len();
            let t0 = Instant::now();
            let out = forward(std::mem::take(bucket));
            stats.fe.busy_secs += t0.elapsed().as_secs_f64();
            // ndlint: allow(panic, reason = "forward() contract violation is a caller bug; this raises on the caller's own thread, not inside a pool worker")
            assert_eq!(out.len(), n, "forward must return one output per input");
            stats.batches += 1;
            results.extend(out);
        };
        for (idx, m) in rx_mid.iter() {
            if sample_queues {
                stats.mid_queue.record(rx_mid.len());
            }
            pending.insert(idx, m);
            while let Some(m) = pending.remove(&next) {
                next += 1;
                match m {
                    Ok(m) => {
                        bucket.push(m);
                        if bucket.len() == batch {
                            flush(&mut bucket, &mut results, &mut stats);
                        }
                    }
                    Err(e) => {
                        stats.stage_errors += 1;
                        if stats.first_error.is_none() {
                            stats.first_error = Some(e);
                        }
                    }
                }
            }
        }
        flush(&mut bucket, &mut results, &mut stats);
        // ndlint: allow(panic, reason = "an index gap here means the engine itself lost an item; fail fast on the caller thread rather than return silently short results")
        assert!(pending.is_empty(), "pipeline dropped in-flight items");
    })
    .unwrap_or_else(|_| {
        // Only the loader can still panic (a user-supplied iterator);
        // decode panics are contained per-item above. Surface it as a
        // stage error so callers see a drained, unwedged pipeline.
        stats.stage_errors += 1;
        if stats.first_error.is_none() {
            stats.first_error = Some("loader stage panicked".to_string());
        }
    });

    stats.wall_secs = start.elapsed().as_secs_f64();
    // Acquire pairs with the loader's Release stores; the scope join
    // already synchronizes, this keeps the pairing explicit and lintable.
    stats.load.busy_secs = load_busy_ns.load(Ordering::Acquire) as f64 * 1e-9;
    stats.load.items = loaded.load(Ordering::Acquire) as usize;
    stats.decode.busy_secs = decode_busy_ns.load(Ordering::Acquire) as f64 * 1e-9;
    stats.decode.items = decoded.load(Ordering::Acquire) as usize;
    stats.fe.items = results.len();
    stats.in_queue = QueueStats {
        samples: in_samples.load(Ordering::Acquire) as usize,
        depth_sum: in_depth_sum.load(Ordering::Acquire),
        depth_max: in_depth_max.load(Ordering::Acquire) as usize,
    };
    (results, stats)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("decode panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("decode panicked: {s}")
    } else {
        "decode panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(batch: usize, workers: usize) -> EngineConfig {
        EngineConfig {
            batch,
            decomp_workers: workers,
            queue_depth: 8,
        }
    }

    #[test]
    fn outputs_preserve_item_order() {
        for workers in [1, 2, 4] {
            let (out, stats) = run_pipeline(
                &cfg(7, workers),
                0..100u64,
                |_, x| x * 2,
                |batch| batch.iter().map(|&x| x + 1).collect::<Vec<u64>>(),
            );
            let expect: Vec<u64> = (0..100).map(|x| x * 2 + 1).collect();
            assert_eq!(out, expect, "workers={workers}");
            assert_eq!(stats.fe.items, 100);
            assert_eq!(stats.load.items, 100);
            assert_eq!(stats.decode.items, 100);
        }
    }

    #[test]
    fn batches_are_formed_in_index_order() {
        // Record each batch's index span; they must partition 0..n in
        // order, with only the last batch short.
        let n = 53usize;
        let batch = 8usize;
        let (spans, stats) = run_pipeline(
            &cfg(batch, 3),
            0..n,
            |idx, item| {
                assert_eq!(idx, item);
                item
            },
            |b| vec![(b[0], b.len()); b.len()],
        );
        assert_eq!(stats.batches, n.div_ceil(batch));
        let mut expect_start = 0usize;
        for &(start, len) in &spans {
            assert_eq!(start - (start % batch), start, "aligned batch start");
            assert!(start >= expect_start.saturating_sub(batch));
            expect_start = expect_start.max(start + len);
        }
        assert_eq!(spans.len(), n);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) =
            run_pipeline(&EngineConfig::default(), Vec::<u8>::new(), |_, x| x, |b| b);
        assert!(out.is_empty());
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.ips(), 0.0);
    }

    #[test]
    fn stats_are_consistent() {
        let (_, stats) = run_pipeline(
            &cfg(16, 2),
            0..256u32,
            |_, x| {
                // Some real decode work so busy time registers.
                (0..500).fold(x, |a, _| a.wrapping_mul(31).wrapping_add(7))
            },
            |b| b,
        );
        assert!(stats.wall_secs > 0.0);
        assert!(stats.decode.busy_secs > 0.0);
        assert_eq!(stats.batches, 16);
        let occ = stats.occupancies();
        assert!(occ.iter().all(|&o| o >= 0.0));
        assert!(stats.ips() > 0.0);
        assert!(stats.serial_estimate_secs() > 0.0);
    }

    #[test]
    fn queue_depths_are_sampled_when_enabled() {
        telemetry::set_enabled(true);
        let (_, stats) = run_pipeline(&cfg(16, 2), 0..64u32, |_, x| x, |b| b);
        assert_eq!(stats.in_queue.samples, 64, "one sample per loaded item");
        assert_eq!(stats.mid_queue.samples, 64, "one sample per received item");
        assert!(stats.in_queue.depth_max <= 8, "bounded by queue_depth");
        assert!(stats.in_queue.mean() <= stats.in_queue.depth_max as f64);
    }

    #[test]
    fn default_config_respects_paper_budget() {
        let c = EngineConfig::default();
        assert!(c.decomp_workers >= 1 && c.decomp_workers <= 2);
        assert_eq!(c.batch, 128);
    }

    #[test]
    fn fallible_decode_drops_failed_items_and_keeps_order() {
        for workers in [1, 2, 4] {
            let (out, stats) = run_pipeline_fallible(
                &cfg(4, workers),
                0..40u64,
                |_, x| {
                    if x % 10 == 3 {
                        Err(format!("item {x} corrupt"))
                    } else {
                        Ok(x)
                    }
                },
                |b| b,
            );
            let expect: Vec<u64> = (0..40).filter(|x| x % 10 != 3).collect();
            assert_eq!(out, expect, "workers={workers}");
            assert_eq!(stats.stage_errors, 4);
            assert_eq!(stats.load.items, 40);
            assert_eq!(stats.decode.items, 40, "errored items still pass decode");
            assert_eq!(stats.fe.items, 36);
            let first = stats.first_error.expect("first error recorded");
            assert_eq!(first, "item 3 corrupt", "errors surface in index order");
        }
    }

    #[test]
    fn decode_panics_are_contained_per_item() {
        for workers in [1, 3] {
            let (out, stats) = run_pipeline_fallible(
                &cfg(8, workers),
                0..32u32,
                |_, x| {
                    if x == 17 {
                        panic!("poisoned sidecar {x}");
                    }
                    Ok::<u32, String>(x)
                },
                |b| b,
            );
            assert_eq!(out.len(), 31, "workers={workers}");
            assert!(!out.contains(&17));
            assert_eq!(stats.stage_errors, 1);
            let msg = stats.first_error.expect("panic surfaced as error");
            assert!(msg.contains("poisoned sidecar 17"), "msg: {msg}");
        }
    }

    #[test]
    fn all_items_failing_still_drains_cleanly() {
        let (out, stats) = run_pipeline_fallible(
            &cfg(4, 2),
            0..16u32,
            |_, x| Err::<u32, String>(format!("nope {x}")),
            |b: Vec<u32>| b,
        );
        assert!(out.is_empty());
        assert_eq!(stats.stage_errors, 16);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.load.items, 16, "loader finished despite failures");
    }

    #[test]
    fn infallible_api_panics_on_contained_decode_failure() {
        let result = std::panic::catch_unwind(|| {
            run_pipeline(
                &cfg(4, 2),
                0..8u32,
                |_, x| {
                    if x == 5 {
                        panic!("bad item");
                    }
                    x
                },
                |b| b,
            )
        });
        let err = result.expect_err("run_pipeline must re-raise decode failures");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("npe decode stage failed"), "msg: {msg}");
    }
}
