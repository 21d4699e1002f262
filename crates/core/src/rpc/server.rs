//! The PipeStore-side RPC serving machinery: an event-driven front door.
//!
//! [`PipeStoreServer`] runs one *event thread* over a readiness loop
//! ([`crate::rpc::sys::poll_fds`]): nonblocking accepts, per-session
//! read/write buffers with incremental frame decode
//! ([`crate::rpc::wire::FrameDecoder`]), and request pipelining — a
//! session may have many requests in flight, and replies flush back in
//! request order through a per-session reorder buffer. Store work runs
//! on a small configurable worker pool ([`ServerConfig::workers`]) so a
//! slow operation never blocks the poll loop, and every `Infer` row goes
//! through one cross-session batcher: rows from *different* sessions are
//! coalesced into one batched forward call (cross-session dynamic
//! batching). The batcher has no timer: [`crate::online::Batcher`] owns
//! the work-conserving rule (a row waits only behind a batch that is
//! actually running) and the event loop only moves batches between it
//! and the work queue.
//!
//! The session cap is a real concurrency cap, not a thread cap: the
//! default [`ServerConfig::max_sessions`] admits thousands of idle
//! sessions because each one costs a slab slot and two buffers, not a
//! stack.

use crate::checknrun::ModelDelta;
use crate::ftdmp::schedule::slice_bounds;
use crate::npe::engine::EngineConfig;
use crate::online::Batcher;
use crate::pipestore::PipeStore;
use crate::rpc::sys::{poll_fds, PollFd, WakePipe, POLLIN, POLLOUT};
use crate::rpc::wire::{
    frame_bytes, FrameDecoder, Handshake, Reply, Request, ShardDesc, FEATURE_DELTAS,
    FEATURE_METRICS, FEATURE_MULTI_SESSION, PROTOCOL_VERSION,
};
use crate::rpc::RpcError;
use crossbeam::channel::{Receiver, Sender, TrySendError};
use dnn::Mlp;
use ndpipe_data::{LabeledDataset, PhotoId};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::catalog;
use tensor::{argmax_of, Tensor};

/// Default idle timeout on accepted sessions: a stuck or vanished peer
/// releases its slot instead of pinning it forever.
pub const SERVER_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Feature bits this server offers in its handshake `Accept`.
pub const SERVER_FEATURES: u64 = FEATURE_METRICS | FEATURE_DELTAS | FEATURE_MULTI_SESSION;

/// Bounded depth of the event-thread → worker-pool request queue; the
/// event thread drains finished replies while waiting for space, so a
/// full queue is backpressure, not a deadlock.
const WORK_QUEUE_CAP: usize = 1024;

/// The largest cross-session `Infer` batch: once this many rows are
/// pending the batch fires, whatever is in flight.
const MAX_BATCH: usize = 32;

/// Bounded depth of the worker-pool → event-thread reply queue.
const DONE_QUEUE_CAP: usize = 4096;

/// The event loop's one poll timeout: the cadence at which it re-checks
/// the stop flag and the idle sweep when no descriptor is ready.
const IDLE_TICK: Duration = Duration::from_millis(10);

/// Read buffer per readable event; large enough to swallow a batch of
/// pipelined frames in one syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Tuning knobs for [`PipeStoreServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent session cap; connection attempts beyond it are refused
    /// with a handshake `Reject` so the Tuner sees a clear error. The
    /// event-driven server spends a slab slot (not a thread) per
    /// session, so the default is generous.
    pub max_sessions: usize,
    /// Idle timeout: a session with no traffic and no work in flight for
    /// this long is closed (`None` keeps idle sessions forever).
    pub io_timeout: Option<Duration>,
    /// Worker threads executing store operations off the event thread.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 4096,
            io_timeout: Some(SERVER_IO_TIMEOUT),
            workers: 2,
        }
    }
}

/// Outcome of the server half of the session handshake.
#[derive(Debug)]
enum Greeting {
    /// Send this `Accept` frame; the session proceeds to requests.
    Accepted(Handshake),
    /// Send this `Reject` frame; the session ends once it flushes.
    Refused(Handshake),
}

/// Decides the server's answer to a client's opening handshake frame.
/// Version skew is an expected condition (the peer is told and refused),
/// not a server fault. Handshake frames are deliberately *not* counted
/// in the per-op request metrics — they are session plumbing, not store
/// work.
///
/// # Errors
///
/// [`RpcError::Protocol`] when the peer opens with `Accept` or `Reject`
/// instead of `Hello` — only clients greet first.
fn greet(hs: &Handshake, store_id: u64) -> Result<Greeting, RpcError> {
    match hs {
        Handshake::Hello { version, .. } => {
            if *version == PROTOCOL_VERSION {
                Ok(Greeting::Accepted(Handshake::Accept {
                    version: PROTOCOL_VERSION,
                    features: SERVER_FEATURES,
                    store_id,
                }))
            } else {
                Ok(Greeting::Refused(Handshake::Reject {
                    version: PROTOCOL_VERSION,
                    reason: format!("server speaks protocol v{PROTOCOL_VERSION}"),
                }))
            }
        }
        Handshake::Accept { .. } | Handshake::Reject { .. } => {
            Err(RpcError::Protocol("expected hello from client"))
        }
    }
}

/// Handles one request; `None` means the session should end (after the
/// final Ack). Read-mostly operations take the store's read lock so
/// parallel workers can overlap; `InstallModel`, `InstallHead` and
/// `ApplyDelta` take the write lock for exclusivity. The event loop
/// routes `Infer` to the batcher instead ([`exec_batch`]); its arm here
/// labels the one row through the same [`infer_rows`].
fn handle(store: &RwLock<PipeStore>, request: Request) -> Option<Reply> {
    // Sanitizer witness for the store lock each arm acquires; held for
    // the whole dispatch, which over-approximates the guard's extent in
    // exactly the direction the ordering check needs.
    let _w = crate::sanitize::order(crate::sanitize::RANK_STORE, "store");
    Some(match request {
        Request::InstallModel(bytes) => match Mlp::from_bytes(&bytes) {
            Ok(model) => {
                // ndlint: allow(blocking, reason = "this resolves to PipeStore::install_model (in-memory swap + republish); the widened chains through the Tuner-side RemotePipeStore::install_model and Cluster::install_model are different receiver types")
                store.write().install_model(model);
                Reply::Ack
            }
            Err(e) => Reply::Error(format!("bad model blob: {e}")),
        },
        Request::InstallHead {
            prefix_digest,
            head,
        } => match Mlp::from_bytes(&head) {
            Ok(head) => match store.write().install_head(prefix_digest, head) {
                Ok(()) => Reply::Ack,
                Err(why) => Reply::Error(format!("head refused: {why}")),
            },
            Err(e) => Reply::Error(format!("bad head blob: {e}")),
        },
        Request::OfflineInfer => {
            let store = store.read();
            let Some(model) = store.model() else {
                return Some(Reply::Error("no model installed".to_string()));
            };
            if let Some(refusal) = width_refusal(model, store.shard(), "the store's") {
                return Some(refusal);
            }
            let pairs = store
                .offline_inference()
                .into_iter()
                .map(|(id, label)| (id.0, label as u32))
                .collect();
            Reply::Labels(pairs)
        }
        Request::ApplyDelta(bytes) => match ModelDelta::from_bytes(&bytes) {
            Ok(delta) => {
                let mut guard = store.write();
                match guard.model_mut() {
                    Some(model) => match delta.apply(model) {
                        Ok(()) => {
                            // Republish eagerly so the next batched Infer
                            // reads the fine-tuned snapshot without paying
                            // the lazy version check.
                            guard.republish_model();
                            Reply::Ack
                        }
                        Err(e) => Reply::Error(format!("delta apply failed: {e}")),
                    },
                    None => Reply::Error("no model installed".to_string()),
                }
            }
            Err(e) => Reply::Error(format!("bad delta blob: {e}")),
        },
        Request::Describe => {
            let store = store.read();
            Reply::ShardInfo(ShardDesc {
                examples: store.shard_len() as u64,
                classes: store.shard().num_classes() as u32,
                math: store.math_policy(),
                kernel: tensor::linalg::selected_kernel(store.math_policy()),
            })
        }
        Request::Infer { features } => {
            let model = store.read().model_snapshot();
            match infer_rows(model.as_deref(), &[features.as_slice()]).pop() {
                Some(reply) => reply,
                None => Reply::Error("infer produced no reply".to_string()),
            }
        }
        Request::Metrics => Reply::Metrics(store.read().metrics().snapshot()),
        // ndlint: allow(blocking, reason = "this resolves to PipeStore::placement (clones the cached map); the widened chain through the Tuner-side Cluster::placement is a different receiver type")
        Request::Placement => match store.read().placement() {
            Some(map) => Reply::Placement(map),
            None => Reply::Error("no placement map installed".to_string()),
        },
        Request::InstallPlacement(map) => match store.read().install_placement(map) {
            Ok(_) => Reply::Ack,
            Err(held) => Reply::Error(format!("stale placement epoch (holding {held})")),
        },
        Request::PutPhoto(rec) => {
            // Duplicate ids are an idempotent success: rebalance and a
            // retried replicated write may both land the same record.
            store.read().store_photo_record(rec);
            Reply::Ack
        }
        Request::GetPhoto(id) => match store.read().photo_record(PhotoId(id)) {
            Some(rec) => Reply::Photo(rec),
            None => Reply::Error(format!("photo {id} not stored here")),
        },
        Request::ListPhotos => Reply::PhotoIds(store.read().photo_ids()),
        Request::ExtractSlice {
            node,
            run,
            n_run,
            mb,
            n_mb,
        } => {
            if n_run == 0 || run >= n_run {
                return Some(Reply::Error("bad run index".to_string()));
            }
            if n_mb == 0 || mb >= n_mb {
                return Some(Reply::Error("bad micro-batch index".to_string()));
            }
            let store = store.read();
            let Some(model) = store.model() else {
                return Some(Reply::Error("no model installed".to_string()));
            };
            let Some(shard) = store.shard_for(node) else {
                return Some(Reply::Error(format!("no replica shard for node {node}")));
            };
            if let Some(refusal) = width_refusal(model, shard, &format!("node {node}'s")) {
                return Some(refusal);
            }
            // Micro-batch sub-slices partition the run contiguously, so
            // concatenating replies in mb order is bit-identical to one
            // whole-run extraction.
            let rows = slice_bounds(
                shard.len(),
                run as usize,
                n_run as usize,
                mb as usize,
                n_mb as usize,
            );
            if rows.is_empty() {
                return Some(Reply::Error("empty micro-batch slice".to_string()));
            }
            // The batched NPE path: bit-identical to the serial
            // reference, and it feeds the store's pipeline stats.
            // ndlint: allow(blocking, reason = "the only sleep on this path is the opt-in straggler simulation delay (PipeStore::set_extract_delay), never set on production paths; extraction itself must hold the store guard")
            match store.extract_features_batched_for(node, rows, &EngineConfig::default()) {
                Some(((features, labels), _stats)) => Reply::Features {
                    features,
                    labels: labels.into_iter().map(|l| l as u32).collect(),
                },
                None => Reply::Error(format!("no replica shard for node {node}")),
            }
        }
        Request::DescribeNode(node) => {
            let store = store.read();
            match store.shard_for(node) {
                Some(shard) => Reply::ShardInfo(ShardDesc {
                    examples: shard.len() as u64,
                    classes: shard.num_classes() as u32,
                    math: store.math_policy(),
                    kernel: tensor::linalg::selected_kernel(store.math_policy()),
                }),
                None => Reply::Error(format!("no replica shard for node {node}")),
            }
        }
        Request::Shutdown => return None,
    })
}

/// The error reply for a model that is not as wide as `whose` shard's
/// rows. Extraction and relabel both run the model over shard rows, and
/// the forward asserts the width; a panic there would take the worker
/// thread with it.
fn width_refusal(model: &Mlp, shard: &LabeledDataset, whose: &str) -> Option<Reply> {
    (model.input_dim() != shard.input_dim()).then(|| {
        Reply::Error(format!(
            "model takes {}-wide rows but {whose} shard is {} wide",
            model.input_dim(),
            shard.input_dim()
        ))
    })
}

/// The one way an `Infer` row becomes a label: a single `[n, dim]`
/// forward over every row of the model's input width, then
/// [`argmax_of`] per logits row — the rule `Tensor::argmax` uses, so a
/// served label always equals the local forward's. One reply per row, in
/// order; a row of the wrong width gets its own error without poisoning
/// the rest, and with no model installed every row gets one.
fn infer_rows(model: Option<&Mlp>, rows: &[&[f32]]) -> Vec<Reply> {
    let Some(model) = model else {
        return rows
            .iter()
            .map(|_| Reply::Error("no model installed".to_string()))
            .collect();
    };
    let dim = model.input_dim();
    let mut x: Vec<f32> = Vec::with_capacity(rows.len() * dim);
    for r in rows.iter().filter(|r| r.len() == dim) {
        x.extend_from_slice(r);
    }
    let n = x.len() / dim.max(1);
    let logits = (n > 0).then(|| model.forward(&Tensor::from_vec(x, &[n, dim])));
    let mut labels = logits.iter().flat_map(|l| {
        let classes = l.dims().get(1).copied().unwrap_or(1);
        l.data().chunks(classes.max(1)).map(argmax_of)
    });
    rows.iter()
        .map(|r| {
            if r.len() != dim {
                return Reply::Error(format!(
                    "bad feature dim: got {}, model wants {dim}",
                    r.len()
                ));
            }
            match labels.next() {
                Some(label) => Reply::Label(label as u32),
                None => Reply::Error("batch row missing".to_string()),
            }
        })
        .collect()
}

/// One pending `Infer` row in the cross-session batch.
struct BatchItem {
    slot: usize,
    gen: u64,
    seq: u64,
    t0: Instant,
    features: Vec<f32>,
}

/// A unit handed to the worker pool.
enum Work {
    /// One request from one session.
    One {
        slot: usize,
        gen: u64,
        seq: u64,
        t0: Instant,
        req: Request,
    },
    /// A coalesced cross-session inference batch.
    Batch(Vec<BatchItem>),
}

/// A finished reply heading back to the event thread; `(slot, gen)`
/// route it, `seq` orders it within the session, `end` closes the
/// session after this reply flushes, `batch_end` marks the last reply of
/// a coalesced batch (the batcher's "no longer in flight" signal, which
/// counts whether or not the session is still there to take the reply).
struct Done {
    slot: usize,
    gen: u64,
    seq: u64,
    frame: Vec<u8>,
    end: bool,
    batch_end: bool,
}

/// An encoded reply waiting in the reorder buffer for its turn on the
/// wire.
struct Flush {
    frame: Vec<u8>,
    end: bool,
}

/// Where a session is in its life.
enum Phase {
    /// Waiting for the client's `Hello`.
    Greeting,
    /// Handshake accepted; frames are requests.
    Open,
    /// Refused (cap or version skew): inbound bytes are drained and
    /// discarded so closing never turns the queued `Reject` into a TCP
    /// RST; the session ends on peer EOF or the idle sweep.
    Refused,
}

/// What an I/O step decided about a session's future.
enum Fate {
    Alive,
    Closed(Option<RpcError>),
}

/// One live session in the event loop's slab.
struct Session {
    stream: TcpStream,
    /// Generation tag: replies carry `(slot, gen)` so a reply for a
    /// closed session can never be misrouted to the slot's next tenant.
    gen: u64,
    phase: Phase,
    decoder: FrameDecoder,
    /// Outbound bytes; `wpos` marks how much has hit the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next request sequence number (assigned at dispatch).
    next_seq: u64,
    /// Next sequence number allowed onto the wire — replies flush in
    /// request order even when workers finish out of order.
    next_flush: u64,
    reorder: BTreeMap<u64, Flush>,
    /// Requests dispatched but not yet flushed back.
    inflight: usize,
    read_closed: bool,
    close_after_flush: bool,
    /// Whether this session occupies a slot under `max_sessions` (cap
    /// refusals are parked uncounted).
    counted: bool,
    last_activity: Instant,
}

/// State shared between the server handle, the event thread, and the
/// worker pool.
struct Shared {
    store: RwLock<PipeStore>,
    /// The store's registry, cloned out so workers record metrics
    /// without touching the store lock.
    registry: Arc<telemetry::Registry>,
    store_id: u64,
    cfg: ServerConfig,
    /// Soft stop: stop accepting, drain live sessions, then exit.
    stop: AtomicBool,
    /// Hard stop: slam every session shut and exit now.
    halt: AtomicBool,
    /// Live counted sessions. Written with `Release` by the event
    /// thread, read with `Acquire` by observers: an observer that sees
    /// the count move also sees the session transition that caused it
    /// (the pairing `wait_idle` relies on).
    active: AtomicUsize,
    /// Counted sessions ended since bind; same Release/Acquire pairing
    /// as `active`, and always incremented *after* the matching `active`
    /// decrement so `completed >= n && active == 0` is a stable "n
    /// sessions fully drained" condition.
    completed: AtomicUsize,
    first_error: Mutex<Option<RpcError>>,
}

impl Shared {
    fn session_gauge(&self, delta: f64) {
        if telemetry::enabled() {
            self.registry.gauge(catalog::RPC_SESSIONS_ACTIVE).add(delta);
        }
    }
}

/// Records the first session-level fault since bind. Version skew is
/// excluded: telling a mismatched peer "no" is the server working as
/// designed.
fn record_first_error(shared: &Shared, e: RpcError) {
    if matches!(e, RpcError::ProtocolMismatch { .. }) {
        return;
    }
    let _w = crate::sanitize::order(crate::sanitize::RANK_FIRST_ERROR, "first_error");
    let mut slot = shared.first_error.lock();
    if slot.is_none() {
        *slot = Some(e);
    }
}

/// A concurrent RPC server wrapping one [`PipeStore`]: binds a
/// listener, serves up to [`ServerConfig::max_sessions`] simultaneous
/// Tuner sessions from a single event thread plus a worker pool, and
/// gives the store back on [`PipeStoreServer::shutdown`].
///
/// ```no_run
/// use ndpipe::rpc::{PipeStoreServer, ServerConfig};
/// # fn demo(store: ndpipe::PipeStore) -> Result<(), ndpipe::rpc::RpcError> {
/// let server = PipeStoreServer::bind(store, "127.0.0.1:0", ServerConfig::default())?;
/// println!("serving on {}", server.local_addr());
/// // ... Tuners connect, do work, end their sessions ...
/// let store = server.shutdown()?;
/// # let _ = store; Ok(()) }
/// ```
pub struct PipeStoreServer {
    shared: Arc<Shared>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    wake: Arc<WakePipe>,
    addr: SocketAddr,
}

impl PipeStoreServer {
    /// Binds `addr` and starts the event thread and worker pool.
    ///
    /// # Errors
    ///
    /// Bind/socket/thread-spawn errors.
    pub fn bind(store: PipeStore, addr: &str, cfg: ServerConfig) -> Result<Self, RpcError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let registry = Arc::clone(store.metrics());
        let store_id = store.id() as u64;
        let shared = Arc::new(Shared {
            store: RwLock::new(store),
            registry,
            store_id,
            cfg,
            stop: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            first_error: Mutex::new(None),
        });
        let wake = Arc::new(WakePipe::new()?);
        // Both queues are bounded: a flooded server applies backpressure
        // instead of growing queues without limit.
        // ndlint: policy(block, reason = "the only producer is the event thread, which spins on try_send while draining `done` (send_work), so a full queue throttles intake without deadlocking the pipeline")
        let (work_tx, work_rx) = crossbeam::channel::bounded::<Work>(WORK_QUEUE_CAP);
        // ndlint: policy(block, reason = "workers stall when the event thread falls behind on replies; the wake pipe guarantees the event thread drains `done` on its next tick")
        let (done_tx, done_rx) = crossbeam::channel::bounded::<Done>(DONE_QUEUE_CAP);
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            let rx = work_rx.clone();
            let tx = done_tx.clone();
            let wk = Arc::clone(&wake);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ndpipe-rpc-worker-{i}"))
                    .spawn(move || worker_main(&sh, &rx, &tx, &wk))?,
            );
        }
        let ev = EventLoop {
            shared: Arc::clone(&shared),
            listener: Some(listener),
            wake: Arc::clone(&wake),
            work: work_tx,
            done_rx,
            sessions: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            live: 0,
            busy: 0,
            batcher: Batcher::new(MAX_BATCH),
            fds: Vec::new(),
            slots: Vec::new(),
            detached: None,
            stash: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
        };
        let event = std::thread::Builder::new()
            .name(format!("ndpipe-rpc-event-{store_id}"))
            .spawn(move || ev.event_loop())?;
        Ok(PipeStoreServer {
            shared,
            event: Some(event),
            workers,
            wake,
            addr: local,
        })
    }

    /// The bound listen address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        // Acquire pairs with the event thread's Release updates: see
        // the ordering notes on `Shared::active`.
        self.shared.active.load(Ordering::Acquire)
    }

    /// Sessions that have ended (cleanly or not) since bind.
    pub fn completed_sessions(&self) -> usize {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Blocks until at least `min_completed` sessions have ended and no
    /// session is in flight.
    pub fn wait_idle(&self, min_completed: usize) {
        loop {
            if self.shared.completed.load(Ordering::Acquire) >= min_completed
                && self.shared.active.load(Ordering::Acquire) == 0
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Like [`PipeStoreServer::wait_idle`] but gives up after `timeout`,
    /// returning whether the condition was reached.
    pub fn wait_idle_timeout(&self, min_completed: usize, timeout: Duration) -> bool {
        let t0 = Instant::now();
        loop {
            if self.shared.completed.load(Ordering::Acquire) >= min_completed
                && self.shared.active.load(Ordering::Acquire) == 0
            {
                return true;
            }
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops accepting, drains in-flight sessions (each runs until its
    /// Tuner ends the session, hangs up, or idles past the timeout),
    /// and returns the store.
    ///
    /// # Errors
    ///
    /// The first session-level error observed since bind, if any.
    pub fn shutdown(self) -> Result<PipeStore, RpcError> {
        self.teardown(false)
    }

    /// Hard-stops the server: every live session socket is slammed shut
    /// by the event thread, so peers observe connection errors. Session
    /// errors caused by the abort are discarded. Used by
    /// failure-injection tests to simulate a killed store.
    ///
    /// # Errors
    ///
    /// Only internal teardown failures; peer-visible errors are expected
    /// and swallowed.
    pub fn abort(self) -> Result<PipeStore, RpcError> {
        self.teardown(true)
    }

    fn teardown(mut self, hard: bool) -> Result<PipeStore, RpcError> {
        if hard {
            // Release pairs with the event thread's Acquire load at the
            // top of its loop; `halt` must be visible no later than
            // `stop`.
            self.shared.halt.store(true, Ordering::Release);
        }
        self.shared.stop.store(true, Ordering::Release);
        self.wake.wake();
        if let Some(h) = self.event.take() {
            let _ = h.join();
        }
        // The event loop owned the work sender; its exit disconnects the
        // channel and every worker's `recv` returns Err.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let PipeStoreServer { shared, .. } = self;
        let shared = Arc::try_unwrap(shared)
            .map_err(|_| RpcError::Protocol("server state still referenced after join"))?;
        let store = shared.store.into_inner();
        match shared.first_error.into_inner() {
            Some(e) if !hard => Err(e),
            _ => Ok(store),
        }
    }
}

/// The event thread's whole world. Sessions live in a slab
/// (`sessions` + `free`) so poll-set indices stay cheap to rebuild.
struct EventLoop {
    shared: Arc<Shared>,
    /// Dropped (closing the listen socket) as soon as a stop is seen.
    listener: Option<TcpListener>,
    wake: Arc<WakePipe>,
    work: Sender<Work>,
    done_rx: Receiver<Done>,
    sessions: Vec<Option<Session>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Counted live sessions (the `max_sessions` population).
    live: usize,
    /// Sessions with at least one request in flight; exported as the
    /// `ndpipe_rpc_pending_sessions` gauge.
    busy: usize,
    /// Cross-session `Infer` rows not yet on a worker, and the count of
    /// coalesced batches that are; it alone decides when a batch fires.
    batcher: Batcher<BatchItem>,
    /// The poll set and the session slot behind each of its entries,
    /// rebuilt in place every iteration.
    fds: Vec<PollFd>,
    slots: Vec<usize>,
    /// Set while a session is temporarily out of the slab in
    /// `drive_read`; its finished replies land in `stash` instead of
    /// being dropped by the slot lookup.
    detached: Option<(usize, u64)>,
    stash: Vec<Done>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn event_loop(mut self) {
        loop {
            // Acquire pairs with teardown's Release stores: observing
            // the flag implies the handle's prior writes are visible.
            if self.shared.halt.load(Ordering::Acquire) {
                self.close_all();
                return;
            }
            let stopping = self.shared.stop.load(Ordering::Acquire);
            if stopping {
                self.listener = None;
                // Refused sessions only linger to avoid an RST racing
                // their Reject; on shutdown, flushed ones go now.
                for slot in 0..self.sessions.len() {
                    let flushed_refusal = matches!(
                        self.sessions.get(slot).and_then(Option::as_ref),
                        Some(s) if matches!(s.phase, Phase::Refused) && s.wpos >= s.wbuf.len()
                    );
                    if flushed_refusal {
                        self.close_slot(slot, None);
                    }
                }
                if self.sessions.iter().all(Option::is_none) {
                    return;
                }
            }

            // Build the poll set: wake pipe, listener, then one entry
            // per session that wants readability or has bytes to flush.
            self.fds.clear();
            self.slots.clear();
            self.fds.push(self.wake.poll_fd());
            let lidx = match &self.listener {
                Some(l) => {
                    self.fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                    Some(self.fds.len() - 1)
                }
                None => None,
            };
            let base = self.fds.len();
            for (i, entry) in self.sessions.iter().enumerate() {
                let Some(s) = entry else { continue };
                let mut ev = 0i16;
                if !s.read_closed {
                    ev |= POLLIN;
                }
                if s.wpos < s.wbuf.len() {
                    ev |= POLLOUT;
                }
                if ev == 0 {
                    continue; // waiting only on the worker pool
                }
                self.fds.push(PollFd::new(s.stream.as_raw_fd(), ev));
                self.slots.push(i);
            }
            if poll_fds(&mut self.fds, IDLE_TICK.as_millis() as i32).is_err() {
                // ndlint: allow(event_zone, reason = "1ms backoff on a failed poll(2) is the bounded retry path, not request-path blocking")
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            if self.fds.first().is_some_and(|f| f.readable()) {
                self.wake.drain();
            }
            self.drain_done();
            if let Some(i) = lidx {
                if self.fds.get(i).is_some_and(|f| f.readable()) {
                    self.accept_new();
                }
            }
            for k in 0..self.slots.len() {
                let (Some(slot), Some(pf)) =
                    (self.slots.get(k).copied(), self.fds.get(base + k).copied())
                else {
                    continue;
                };
                if pf.readable() {
                    self.drive_read(slot);
                }
                if pf.writable() {
                    self.drive_write(slot);
                }
                if pf.failed() && !pf.readable() {
                    self.close_slot(slot, None);
                }
            }
            self.sweep_idle();
            // Work conservation: rows still pending go to a worker now
            // unless a batch is running for them to wait behind — the
            // `Done`s of one that finished woke this very sweep.
            let idle_rows = self.batcher.sweep_end();
            self.fire(idle_rows);
        }
    }

    /// Accepts everything the listener has queued.
    fn accept_new(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue; // socket already dead
                    }
                    let counted = self.live < self.shared.cfg.max_sessions;
                    self.admit(stream, counted);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient; retry on the next readable
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, counted: bool) {
        let gen = self.next_gen;
        self.next_gen += 1;
        let mut s = Session {
            stream,
            gen,
            phase: Phase::Greeting,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            next_flush: 0,
            reorder: BTreeMap::new(),
            inflight: 0,
            read_closed: false,
            close_after_flush: false,
            counted,
            last_activity: Instant::now(),
        };
        if counted {
            self.live += 1;
            // Release: pairs with the Acquire in `active_sessions` (see
            // `Shared::active`).
            self.shared.active.fetch_add(1, Ordering::Release);
            self.shared.session_gauge(1.0);
        } else {
            // Over the cap: park the socket as an uncounted Refused
            // session. It keeps draining inbound bytes so the close
            // can't RST away the queued Reject, and it ends on peer EOF
            // or the idle sweep.
            s.phase = Phase::Refused;
            match handshake_frame(&Handshake::Reject {
                version: PROTOCOL_VERSION,
                reason: "session cap reached".to_string(),
            }) {
                Ok(frame) => s.wbuf.extend_from_slice(&frame),
                Err(_) => return, // tiny static frame; cannot exceed the cap
            }
            if let Fate::Closed(_) = try_write(&mut s) {
                return; // peer already gone
            }
        }
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                self.sessions.push(None);
                self.sessions.len() - 1
            }
        };
        if let Some(entry) = self.sessions.get_mut(slot) {
            *entry = Some(s);
        }
    }

    /// Pulls bytes off a readable session and walks every complete
    /// frame. The session is detached from the slab for the duration so
    /// nested `drain_done` calls (backpressure) can't alias it; replies
    /// for it land in `stash` and replay on reattach.
    fn drive_read(&mut self, slot: usize) {
        let Some(mut s) = self.sessions.get_mut(slot).and_then(|e| e.take()) else {
            return;
        };
        self.detached = Some((slot, s.gen));
        let mut fate = Fate::Alive;
        loop {
            // ndlint: allow(event_zone, reason = "the session socket is set nonblocking at accept; read returns WouldBlock instead of stalling")
            match s.stream.read(self.scratch.as_mut_slice()) {
                Ok(0) => {
                    s.read_closed = true;
                    if s.inflight == 0 && s.reorder.is_empty() && s.wpos >= s.wbuf.len() {
                        fate = Fate::Closed(None);
                    } else {
                        s.close_after_flush = true;
                    }
                    break;
                }
                Ok(n) => {
                    s.last_activity = Instant::now();
                    if matches!(s.phase, Phase::Refused) {
                        continue; // drain and discard
                    }
                    s.decoder.feed(self.scratch.get(..n).unwrap_or(&[]));
                    fate = self.process_frames(slot, &mut s);
                    if !matches!(fate, Fate::Alive) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    fate = Fate::Closed(Some(RpcError::Io(e)));
                    break;
                }
            }
        }
        self.finish_session(slot, s, fate);
    }

    /// Reattaches (or destroys) a session after `drive_read`, replaying
    /// any replies that completed while it was detached.
    fn finish_session(&mut self, slot: usize, mut s: Session, fate: Fate) {
        self.detached = None;
        let stash = std::mem::take(&mut self.stash);
        if let Fate::Closed(err) = fate {
            drop(stash); // replies for a dead session are moot
            self.destroy(slot, s, err);
            return;
        }
        let mut went_idle = false;
        for d in stash {
            if d.gen == s.gen && apply_done(&mut s, d, &self.shared.registry) {
                went_idle = true;
            }
        }
        if went_idle {
            self.busy = self.busy.saturating_sub(1);
            self.update_pending_gauge();
        }
        match try_write(&mut s) {
            Fate::Closed(err) => self.destroy(slot, s, err),
            Fate::Alive => {
                if let Some(entry) = self.sessions.get_mut(slot) {
                    *entry = Some(s);
                }
            }
        }
    }

    /// Decodes and acts on every complete frame buffered for `s`.
    fn process_frames(&mut self, slot: usize, s: &mut Session) -> Fate {
        loop {
            if s.read_closed || matches!(s.phase, Phase::Refused) {
                return Fate::Alive;
            }
            match s.decoder.next_frame() {
                Ok(None) => return Fate::Alive,
                Ok(Some((tag, payload))) => match s.phase {
                    Phase::Greeting => match Handshake::decode_body(tag, &payload) {
                        Ok(hs) => match greet(&hs, self.shared.store_id) {
                            Ok(Greeting::Accepted(accept)) => match handshake_frame(&accept) {
                                Ok(frame) => {
                                    s.wbuf.extend_from_slice(&frame);
                                    s.phase = Phase::Open;
                                }
                                Err(e) => return Fate::Closed(Some(e)),
                            },
                            Ok(Greeting::Refused(reject)) => match handshake_frame(&reject) {
                                Ok(frame) => {
                                    s.wbuf.extend_from_slice(&frame);
                                    s.phase = Phase::Refused;
                                }
                                Err(e) => return Fate::Closed(Some(e)),
                            },
                            Err(e) => return Fate::Closed(Some(e)),
                        },
                        Err(e) => return Fate::Closed(Some(e)),
                    },
                    Phase::Open => {
                        if telemetry::enabled() {
                            self.shared
                                .registry
                                .counter(catalog::RPC_SERVER_BYTES_READ_TOTAL)
                                .add((5 + payload.len()) as u64);
                        }
                        match Request::decode_body(tag, &payload) {
                            Ok(req) => self.dispatch(slot, s, req),
                            Err(RpcError::Protocol(msg)) => {
                                // A malformed body inside a well-formed
                                // frame gets a structured error reply;
                                // the session survives.
                                self.self_done(
                                    s,
                                    &Reply::Error(format!("bad request frame: {msg}")),
                                    false,
                                );
                            }
                            Err(e) => return Fate::Closed(Some(e)),
                        }
                    }
                    Phase::Refused => return Fate::Alive,
                },
                Err(e) => {
                    // Unframeable input (e.g. an oversized length
                    // prefix): tell the peer, then end the session once
                    // the error flushes.
                    self.self_done(s, &Reply::Error(format!("protocol violation: {e}")), true);
                    s.read_closed = true;
                    record_first_error(&self.shared, e);
                    return Fate::Alive;
                }
            }
        }
    }

    /// Routes one decoded request: `Shutdown` is answered inline,
    /// `Infer` joins the cross-session batch, and everything else goes
    /// to the worker pool.
    fn dispatch(&mut self, slot: usize, s: &mut Session, req: Request) {
        let op = req.op_name();
        if telemetry::enabled() {
            self.shared
                .registry
                .counter_with(catalog::RPC_SERVER_REQUESTS_TOTAL, &[("op", op)])
                .inc();
        }
        match req {
            Request::Shutdown => {
                if telemetry::enabled() {
                    self.shared
                        .registry
                        .histogram_with(catalog::RPC_SERVER_OP_SECONDS, &[("op", op)])
                        .observe(0.0);
                }
                s.read_closed = true;
                self.self_done(s, &Reply::Ack, true);
            }
            req => {
                let seq = s.next_seq;
                s.next_seq += 1;
                if s.inflight == 0 {
                    self.busy += 1;
                    self.update_pending_gauge();
                }
                s.inflight += 1;
                let (gen, t0) = (s.gen, Instant::now());
                match req {
                    Request::Infer { features } => {
                        let full = self.batcher.push(BatchItem {
                            slot,
                            gen,
                            seq,
                            t0,
                            features,
                        });
                        self.fire(full);
                    }
                    req => self.send_work(Work::One {
                        slot,
                        gen,
                        seq,
                        t0,
                        req,
                    }),
                }
            }
        }
    }

    /// Queues an event-thread-generated reply directly into the
    /// session's ordered flush stream (no worker round-trip).
    fn self_done(&mut self, s: &mut Session, reply: &Reply, end: bool) {
        let seq = s.next_seq;
        s.next_seq += 1;
        s.reorder.insert(
            seq,
            Flush {
                frame: reply_frame(reply),
                end,
            },
        );
        flush_order(s, &self.shared.registry);
    }

    /// Ships a batch the batcher released (if it released one) to the
    /// worker pool.
    fn fire(&mut self, batch: Option<Vec<BatchItem>>) {
        if let Some(items) = batch {
            self.send_work(Work::Batch(items));
        }
    }

    /// Enqueues work, draining finished replies while the queue is full
    /// — the event thread keeps consuming its side of the pipeline, so
    /// backpressure can't deadlock it against the worker pool.
    fn send_work(&mut self, w: Work) {
        let mut w = w;
        loop {
            match self.work.try_send(w) {
                Ok(()) => {
                    crate::sanitize::channel_depth("rpc.work", self.work.len(), WORK_QUEUE_CAP);
                    return;
                }
                Err(TrySendError::Full(back)) => {
                    w = back;
                    self.drain_done();
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(_)) => return, // teardown
            }
        }
    }

    /// Books every finished reply. The batcher hears about a completed
    /// batch *before* any routing decision — a batch whose every session
    /// has died must still stop counting as in flight — and what
    /// coalesced behind it fires at the end of the sweep this runs in.
    fn drain_done(&mut self) {
        while let Ok(d) = self.done_rx.try_recv() {
            if d.batch_end {
                self.batcher.batch_done();
            }
            self.complete(d);
        }
    }

    /// Routes one finished reply back to its session (or stashes it if
    /// that session is detached in `drive_read`, or drops it if the
    /// session died — the generation tag prevents misrouting to a slot's
    /// next tenant).
    fn complete(&mut self, d: Done) {
        if let Some((slot, gen)) = self.detached {
            if d.slot == slot && d.gen == gen {
                self.stash.push(d);
                return;
            }
        }
        let slot = d.slot;
        let (went_idle, fate) = match self.sessions.get_mut(slot).and_then(Option::as_mut) {
            Some(s) if s.gen == d.gen => {
                let went_idle = apply_done(s, d, &self.shared.registry);
                (went_idle, try_write(s))
            }
            _ => return,
        };
        if went_idle {
            self.busy = self.busy.saturating_sub(1);
            self.update_pending_gauge();
        }
        if let Fate::Closed(err) = fate {
            self.close_slot(slot, err);
        }
    }

    fn drive_write(&mut self, slot: usize) {
        let mut fate = Fate::Alive;
        if let Some(s) = self.sessions.get_mut(slot).and_then(Option::as_mut) {
            s.last_activity = Instant::now();
            fate = try_write(s);
        }
        if let Fate::Closed(err) = fate {
            self.close_slot(slot, err);
        }
    }

    /// Closes sessions idle past the configured timeout (only ones with
    /// no work in flight — a slow batch is not idleness).
    fn sweep_idle(&mut self) {
        let Some(limit) = self.shared.cfg.io_timeout else {
            return;
        };
        let now = Instant::now();
        for slot in 0..self.sessions.len() {
            let timed_out = matches!(
                self.sessions.get(slot).and_then(Option::as_ref),
                Some(s) if s.inflight == 0
                    && s.reorder.is_empty()
                    && now.duration_since(s.last_activity) > limit
            );
            if timed_out {
                self.close_slot(
                    slot,
                    Some(RpcError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "session idle past io_timeout",
                    ))),
                );
            }
        }
    }

    fn close_slot(&mut self, slot: usize, err: Option<RpcError>) {
        let Some(s) = self.sessions.get_mut(slot).and_then(|e| e.take()) else {
            return;
        };
        self.destroy(slot, s, err);
    }

    /// The single exit point for a session: frees its slot and settles
    /// every counter, so `ndpipe_rpc_sessions_active` always returns to
    /// zero no matter how the session ended (including `abort`).
    fn destroy(&mut self, slot: usize, s: Session, err: Option<RpcError>) {
        self.free.push(slot);
        if s.inflight > 0 {
            self.busy = self.busy.saturating_sub(1);
            self.update_pending_gauge();
        }
        if s.counted {
            self.live = self.live.saturating_sub(1);
            // Release decrement *before* the completed increment: an
            // observer (Acquire) that sees `completed` move has already
            // seen `active` drop, keeping `wait_idle`'s condition
            // monotone. Pairs with the loads in `active_sessions` /
            // `wait_idle`.
            self.shared.active.fetch_sub(1, Ordering::Release);
            self.shared.completed.fetch_add(1, Ordering::Release);
            self.shared.session_gauge(-1.0);
            if let Some(e) = err {
                record_first_error(&self.shared, e);
            }
        }
        drop(s); // the socket closes here
    }

    fn close_all(&mut self) {
        for slot in 0..self.sessions.len() {
            self.close_slot(slot, None);
        }
    }

    fn update_pending_gauge(&self) {
        if telemetry::enabled() {
            self.shared
                .registry
                .gauge(catalog::RPC_PENDING_SESSIONS)
                .set(self.busy as f64);
        }
    }
}

/// Books one finished reply into a session: decrements inflight, queues
/// the frame in sequence order, and flushes whatever became contiguous.
/// Returns whether the session just went idle (for the pending gauge).
fn apply_done(s: &mut Session, d: Done, registry: &telemetry::Registry) -> bool {
    s.inflight = s.inflight.saturating_sub(1);
    let went_idle = s.inflight == 0;
    s.reorder.insert(
        d.seq,
        Flush {
            frame: d.frame,
            end: d.end,
        },
    );
    flush_order(s, registry);
    s.last_activity = Instant::now();
    went_idle
}

/// Moves contiguously-sequenced replies from the reorder buffer into the
/// write buffer: pipelined sessions always see replies in request order,
/// however the worker pool interleaved them.
fn flush_order(s: &mut Session, registry: &telemetry::Registry) {
    while let Some(f) = s.reorder.remove(&s.next_flush) {
        if telemetry::enabled() {
            registry
                .counter(catalog::RPC_SERVER_BYTES_WRITTEN_TOTAL)
                .add(f.frame.len() as u64);
        }
        s.wbuf.extend_from_slice(&f.frame);
        if f.end {
            s.close_after_flush = true;
            s.read_closed = true;
        }
        s.next_flush += 1;
    }
}

/// Pushes as much buffered output as the socket will take, and decides
/// whether the session is finished (everything flushed and either side
/// closed it).
fn try_write(s: &mut Session) -> Fate {
    loop {
        let pending = s.wbuf.get(s.wpos..).unwrap_or(&[]);
        if pending.is_empty() {
            s.wbuf.clear();
            s.wpos = 0;
            let drained = s.inflight == 0 && s.reorder.is_empty();
            if drained
                && (s.close_after_flush || (s.read_closed && !matches!(s.phase, Phase::Refused)))
            {
                return Fate::Closed(None);
            }
            return Fate::Alive;
        }
        // ndlint: allow(event_zone, reason = "the session socket is set nonblocking at accept; write returns WouldBlock and the remainder stays in wbuf")
        match s.stream.write(pending) {
            Ok(0) => {
                return Fate::Closed(Some(RpcError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))))
            }
            Ok(n) => s.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Fate::Alive,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Fate::Closed(Some(RpcError::Io(e))),
        }
    }
}

/// Encodes a handshake as one wire frame.
fn handshake_frame(hs: &Handshake) -> Result<Vec<u8>, RpcError> {
    let (tag, payload) = hs.encode_body();
    frame_bytes(tag, &payload)
}

/// Encodes a reply as one wire frame; a reply too large for the frame
/// cap degrades to a structured error frame.
fn reply_frame(reply: &Reply) -> Vec<u8> {
    let (tag, payload) = reply.encode_body();
    match frame_bytes(tag, &payload) {
        Ok(frame) => frame,
        Err(_) => {
            let (tag, payload) = Reply::Error("reply exceeded frame cap".to_string()).encode_body();
            frame_bytes(tag, &payload).unwrap_or_default()
        }
    }
}

/// Worker-pool thread: executes store operations and batched inference,
/// then hands encoded reply frames back to the event thread.
fn worker_main(shared: &Arc<Shared>, work: &Receiver<Work>, done: &Sender<Done>, wake: &WakePipe) {
    while let Ok(w) = work.recv() {
        match w {
            Work::One {
                slot,
                gen,
                seq,
                t0,
                req,
            } => {
                let op = req.op_name();
                let reply = handle(&shared.store, req);
                let end = reply.is_none();
                let frame = reply_frame(&reply.unwrap_or(Reply::Ack));
                if telemetry::enabled() {
                    shared
                        .registry
                        .histogram_with(catalog::RPC_SERVER_OP_SECONDS, &[("op", op)])
                        .observe(t0.elapsed().as_secs_f64());
                }
                if done
                    .send(Done {
                        slot,
                        gen,
                        seq,
                        frame,
                        end,
                        batch_end: false,
                    })
                    .is_err()
                {
                    return; // event loop is gone
                }
                crate::sanitize::channel_depth("rpc.done", done.len(), DONE_QUEUE_CAP);
                wake.wake();
            }
            Work::Batch(items) => {
                let mut dones = exec_batch(shared, items);
                if let Some(last) = dones.last_mut() {
                    last.batch_end = true;
                }
                for d in dones {
                    if done.send(d).is_err() {
                        return;
                    }
                }
                crate::sanitize::channel_depth("rpc.done", done.len(), DONE_QUEUE_CAP);
                wake.wake();
            }
        }
    }
}

/// Runs one coalesced cross-session inference batch through
/// [`infer_rows`], demultiplexed back into one reply per originating
/// session.
fn exec_batch(shared: &Arc<Shared>, items: Vec<BatchItem>) -> Vec<Done> {
    let snapshot = {
        let _w = crate::sanitize::order(crate::sanitize::RANK_STORE, "store");
        shared.store.read().model_snapshot()
    };
    let rows: Vec<&[f32]> = items.iter().map(|it| it.features.as_slice()).collect();
    let replies = infer_rows(snapshot.as_deref(), &rows);
    if telemetry::enabled() {
        shared
            .registry
            .histogram(catalog::RPC_BATCH_SIZE)
            .observe(items.len() as f64);
        if items.len() > 1 {
            shared
                .registry
                .counter(catalog::ONLINE_COALESCED_TOTAL)
                .add(items.len() as u64);
        }
        let h = shared
            .registry
            .histogram_with(catalog::RPC_SERVER_OP_SECONDS, &[("op", "infer")]);
        for it in &items {
            h.observe(it.t0.elapsed().as_secs_f64());
        }
    }
    items
        .iter()
        .zip(replies)
        .map(|(it, reply)| Done {
            slot: it.slot,
            gen: it.gen,
            seq: it.seq,
            frame: reply_frame(&reply),
            end: false,
            batch_end: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::wire::MAX_FRAME;
    use ndpipe_data::{ClassUniverse, LabeledDataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store(rng: &mut StdRng) -> PipeStore {
        let u = ClassUniverse::new(8, 4, 3, 0.2, rng);
        let rows: Vec<tensor::Tensor> = (0..9).map(|i| u.sample(i % 3, rng)).collect();
        let labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        PipeStore::new(0, LabeledDataset::new(rows, labels, 3))
    }

    /// Whole run `run` of `n_run` over store 0's own shard.
    fn whole_run(run: u32, n_run: u32) -> Request {
        Request::ExtractSlice {
            node: 0,
            run,
            n_run,
            mb: 0,
            n_mb: 1,
        }
    }

    fn shared_for(store: PipeStore) -> Arc<Shared> {
        let registry = Arc::clone(store.metrics());
        Arc::new(Shared {
            store: RwLock::new(store),
            registry,
            store_id: 0,
            cfg: ServerConfig::default(),
            stop: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            first_error: Mutex::new(None),
        })
    }

    fn decode_done(d: &Done) -> Reply {
        let mut dec = FrameDecoder::new();
        dec.feed(&d.frame);
        let (tag, payload) = dec
            .next_frame()
            .expect("frame decodes")
            .expect("one whole frame");
        Reply::decode_body(tag, &payload).expect("reply decodes")
    }

    #[test]
    fn handle_rejects_work_without_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = RwLock::new(store(&mut rng));
        match handle(&s, whole_run(0, 1)) {
            Some(Reply::Error(msg)) => assert!(msg.contains("no model")),
            other => panic!("unexpected {other:?}"),
        }
        match handle(&s, Request::OfflineInfer) {
            Some(Reply::Error(msg)) => assert!(msg.contains("no model")),
            other => panic!("unexpected {other:?}"),
        }
        match handle(
            &s,
            Request::Infer {
                features: vec![0.0; 8],
            },
        ) {
            Some(Reply::Error(msg)) => assert!(msg.contains("no model")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn handle_describe_and_install() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = RwLock::new(store(&mut rng));
        match handle(&s, Request::Describe) {
            Some(Reply::ShardInfo(desc)) => {
                assert_eq!(desc.examples, 9);
                assert_eq!(desc.classes, 3);
                // The reply reports the store's policy and the kernel it
                // dispatches to on this host.
                assert_eq!(desc.math, s.read().math_policy());
                assert_eq!(desc.kernel, tensor::linalg::selected_kernel(desc.math));
            }
            other => panic!("unexpected {other:?}"),
        }
        let model = Mlp::new(&[8, 6, 3], 1, &mut rng);
        assert_eq!(
            handle(&s, Request::InstallModel(model.to_bytes())),
            Some(Reply::Ack)
        );
        match handle(&s, whole_run(0, 3)) {
            Some(Reply::Features { features, labels }) => {
                assert_eq!(features.dims()[0], labels.len());
                assert_eq!(features.dims()[1], 6);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A micro-batch index past its count, and a node with no shard here.
        let slice = |node, mb, n_mb| Request::ExtractSlice {
            node,
            run: 0,
            n_run: 1,
            mb,
            n_mb,
        };
        for (bad, why) in [
            (slice(0, 2, 2), "micro-batch"),
            (slice(0, 0, 0), "micro-batch"),
            (slice(7, 0, 1), "no replica shard"),
        ] {
            match handle(&s, bad) {
                Some(Reply::Error(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn handle_rejects_garbage_blobs() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = RwLock::new(store(&mut rng));
        assert!(matches!(
            handle(&s, Request::InstallModel(vec![0, 1, 2])),
            Some(Reply::Error(_))
        ));
        assert!(matches!(
            handle(&s, Request::ApplyDelta(vec![1])),
            Some(Reply::Error(_))
        ));
        assert!(matches!(handle(&s, whole_run(5, 3)), Some(Reply::Error(_))));
    }

    #[test]
    fn handle_metrics_returns_store_snapshot() {
        telemetry::set_enabled(true);
        let mut rng = StdRng::seed_from_u64(5);
        let s = RwLock::new(store(&mut rng));
        let model = Mlp::new(&[8, 6, 3], 1, &mut rng);
        assert_eq!(
            handle(&s, Request::InstallModel(model.to_bytes())),
            Some(Reply::Ack)
        );
        // An extraction run populates NPE metrics in the store registry.
        let _ = handle(&s, whole_run(0, 1));
        match handle(&s, Request::Metrics) {
            Some(Reply::Metrics(snap)) => {
                assert!(!snap.is_empty(), "store registry must have NPE metrics");
                assert!(snap.find("ndpipe_npe_run_wall_seconds").is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shutdown_ends_session() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = RwLock::new(store(&mut rng));
        assert_eq!(handle(&s, Request::Shutdown), None);
    }

    #[test]
    fn infer_matches_direct_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let st = store(&mut rng);
        let model = Mlp::new(&[8, 6, 3], 1, &mut rng);
        let row = st.shard().features().row(0);
        let features = row.data().to_vec();
        let expected = model
            .forward(&row.reshape(&[1, 8]).expect("row reshape"))
            .argmax() as u32;
        let s = RwLock::new(st);
        assert_eq!(
            handle(&s, Request::InstallModel(model.to_bytes())),
            Some(Reply::Ack)
        );
        assert_eq!(
            handle(&s, Request::Infer { features }),
            Some(Reply::Label(expected))
        );
        // Wrong width is an application error, not a session fault.
        match handle(
            &s,
            Request::Infer {
                features: vec![0.0; 3],
            },
        ) {
            Some(Reply::Error(msg)) => assert!(msg.contains("bad feature dim")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn greet_accepts_matching_version() {
        match greet(
            &Handshake::Hello {
                version: PROTOCOL_VERSION,
                features: 0,
            },
            42,
        ) {
            Ok(Greeting::Accepted(Handshake::Accept {
                version,
                features,
                store_id,
            })) => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(features, SERVER_FEATURES);
                assert_eq!(store_id, 42);
            }
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn greet_rejects_version_skew_with_structured_reject() {
        match greet(
            &Handshake::Hello {
                version: 99,
                features: 0,
            },
            1,
        ) {
            Ok(Greeting::Refused(Handshake::Reject { version, reason })) => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert!(reason.contains("protocol"));
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // Only clients greet first.
        assert!(greet(
            &Handshake::Accept {
                version: PROTOCOL_VERSION,
                features: 0,
                store_id: 0
            },
            1
        )
        .is_err());
    }

    #[test]
    fn exec_batch_without_model_errors_every_row() {
        let mut rng = StdRng::seed_from_u64(7);
        let shared = shared_for(store(&mut rng));
        let items = vec![
            BatchItem {
                slot: 0,
                gen: 1,
                seq: 0,
                t0: Instant::now(),
                features: vec![0.0; 8],
            },
            BatchItem {
                slot: 3,
                gen: 9,
                seq: 2,
                t0: Instant::now(),
                features: vec![0.0; 8],
            },
        ];
        let dones = exec_batch(&shared, items);
        assert_eq!(dones.len(), 2);
        assert_eq!((dones[0].slot, dones[0].gen, dones[0].seq), (0, 1, 0));
        assert_eq!((dones[1].slot, dones[1].gen, dones[1].seq), (3, 9, 2));
        for d in &dones {
            match decode_done(d) {
                Reply::Error(msg) => assert!(msg.contains("no model")),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn exec_batch_demuxes_and_matches_serial_path() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut st = store(&mut rng);
        let model = Mlp::new(&[8, 6, 3], 1, &mut rng);
        st.install_model(model);
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|i| st.shard().features().row(i).data().to_vec())
            .collect();
        let m = st.model_snapshot().expect("model installed");
        let expected: Vec<u32> = rows
            .iter()
            .map(|r| m.forward(&Tensor::from_vec(r.clone(), &[1, 8])).argmax() as u32)
            .collect();
        let shared = shared_for(st);
        let mut items: Vec<BatchItem> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| BatchItem {
                slot: i,
                gen: i as u64,
                seq: 7,
                t0: Instant::now(),
                features: r.clone(),
            })
            .collect();
        // One malformed row in the middle must not poison the batch.
        items.insert(
            2,
            BatchItem {
                slot: 99,
                gen: 0,
                seq: 0,
                t0: Instant::now(),
                features: vec![1.0; 5],
            },
        );
        let dones = exec_batch(&shared, items);
        assert_eq!(dones.len(), 5);
        let mut label_idx = 0usize;
        for d in &dones {
            if d.slot == 99 {
                match decode_done(d) {
                    Reply::Error(msg) => assert!(msg.contains("bad feature dim")),
                    other => panic!("unexpected {other:?}"),
                }
            } else {
                match decode_done(d) {
                    Reply::Label(l) => assert_eq!(l, expected[label_idx]),
                    other => panic!("unexpected {other:?}"),
                }
                label_idx += 1;
            }
        }
        assert_eq!(label_idx, 4);
    }

    #[test]
    fn reply_frame_oversize_degrades_to_error_frame() {
        // A reply bigger than MAX_FRAME must yield a decodable error
        // frame, not a panic or an empty write.
        let huge = Reply::Error("x".repeat(MAX_FRAME + 1));
        let frame = reply_frame(&huge);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let (tag, payload) = dec
            .next_frame()
            .expect("frame decodes")
            .expect("one whole frame");
        match Reply::decode_body(tag, &payload).expect("reply decodes") {
            Reply::Error(msg) => assert!(msg.contains("frame cap")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
