//! The Tuner's cluster control plane: one worker thread per remote
//! PipeStore, parallel fan-out of control operations, per-peer retry,
//! and a [`FailurePolicy`] so an FT-DMP round survives flaky peers.
//!
//! A [`Cluster`] owns its peers, fans every operation out concurrently —
//! the paper's near-linear-scaling claim (§6) assumes the Store stage of
//! every peer runs at once — and gathers *typed* per-peer results
//! ([`Fanout`]) instead of dying on the first [`RpcError`].
//!
//! This file is an ndlint no-panic zone: a flaky peer must surface as a
//! [`PeerFailure`], never as a Tuner-side panic.

use crate::checknrun::ModelDelta;
use crate::ftdmp::schedule::{Schedule, SliceTask};
use crate::ftdmp::{
    check_features, check_shard, record_job, FtdmpConfig, FtdmpError, FtdmpReport, Origin,
    ScheduleStats,
};
use crate::placement::PlacementMap;
use crate::rpc::client::{ConnectOptions, RemotePipeStore};
use crate::rpc::wire::{FromReply, PhotoRecord, Reply, Request, ShardDesc};
use crate::rpc::RpcError;
use crate::tuner::Tuner;
use dnn::Mlp;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::catalog;
use tensor::Tensor;

/// Per-peer job queue depth. A fan-out puts one `Job::Op` on each peer
/// and gathers every reply before returning; an FT-DMP job keeps at most
/// two extractions and one delta in flight per peer; `Job::Stop` is the
/// fourth. The bound exists to keep the queue from masking a stuck round
/// as silent memory growth.
const PEER_JOB_QUEUE_CAP: usize = 4;

/// What the control plane does when peers fail an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Any peer failure aborts the round (the pre-redesign behavior,
    /// minus the lost work: surviving results are still reported).
    Strict,
    /// The round proceeds as long as at least `k` peers stay healthy;
    /// failed peers are excluded and reported as [`PeerFailure`]s.
    Quorum(usize),
}

impl FailurePolicy {
    /// Whether a phase outcome of `ok` healthy peers and `failed`
    /// failures lets the round continue.
    pub fn admits(&self, ok: usize, failed: usize) -> bool {
        match self {
            FailurePolicy::Strict => failed == 0,
            FailurePolicy::Quorum(k) => ok >= *k,
        }
    }
}

impl std::fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailurePolicy::Strict => write!(f, "strict"),
            FailurePolicy::Quorum(k) => write!(f, "quorum({k})"),
        }
    }
}

/// One peer's failure on one operation, with enough context to act on.
#[derive(Debug)]
pub struct PeerFailure {
    /// Position of the peer in the cluster.
    pub index: usize,
    /// Peer address.
    pub peer: String,
    /// Operation that failed.
    pub op: &'static str,
    /// Attempts made (including retries) before giving up.
    pub attempts: u32,
    /// The final error.
    pub error: RpcError,
}

impl PeerFailure {
    fn new(index: usize, peer: String, op: &'static str, attempts: u32, error: RpcError) -> Self {
        PeerFailure {
            index,
            peer,
            op,
            attempts,
            error,
        }
    }
}

impl std::fmt::Display for PeerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peer #{} ({}) failed {} after {} attempt(s): {}",
            self.index, self.peer, self.op, self.attempts, self.error
        )
    }
}

/// One peer's successful result, with the wire traffic it cost.
#[derive(Debug)]
pub struct PeerResult<T> {
    /// Position of the peer in the cluster.
    pub index: usize,
    /// Peer address.
    pub peer: SocketAddr,
    /// The operation's result.
    pub value: T,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Request bytes this operation put on the wire to this peer.
    pub sent_bytes: u64,
    /// Reply bytes read back from this peer.
    pub recv_bytes: u64,
}

/// The gathered outcome of fanning one operation across the cluster:
/// per-peer successes (sorted by peer index, so concatenating them is
/// deterministic) and per-peer failures.
#[derive(Debug)]
pub struct Fanout<T> {
    /// Successful peers, ascending by index.
    pub ok: Vec<PeerResult<T>>,
    /// Failed peers, ascending by index.
    pub failures: Vec<PeerFailure>,
    /// Wall-clock time of the whole fan-out (slowest peer dominates).
    pub elapsed: Duration,
}

impl<T> Fanout<T> {
    /// Values in peer-index order, discarding per-peer bookkeeping.
    pub fn into_values(self) -> Vec<T> {
        self.ok.into_iter().map(|r| r.value).collect()
    }
}

/// Why a cluster-level operation could not complete.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster has no peers.
    NoPeers,
    /// A configuration problem independent of any peer.
    Config(&'static str),
    /// The FT-DMP job itself was invalid before any peer was touched.
    Ftdmp(crate::ftdmp::FtdmpError),
    /// The [`FailurePolicy`] rejected the round.
    Rejected {
        /// The policy that rejected.
        policy: FailurePolicy,
        /// Healthy peers at the point of rejection.
        ok: usize,
        /// Everything that went wrong, across all phases so far.
        failures: Vec<PeerFailure>,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoPeers => write!(f, "cluster has no peers"),
            ClusterError::Config(msg) => write!(f, "cluster misconfigured: {msg}"),
            ClusterError::Ftdmp(e) => write!(f, "invalid FT-DMP job: {e}"),
            ClusterError::Rejected {
                policy,
                ok,
                failures,
            } => {
                write!(
                    f,
                    "failure policy {policy} rejected the round ({ok} healthy, {} failed",
                    failures.len()
                )?;
                match failures.iter().next() {
                    Some(first) => write!(f, "; first: {first})"),
                    None => write!(f, ")"),
                }
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The Tuner's cluster-wide view after scraping every PipeStore.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Each store's snapshot, tagged with its socket address.
    pub per_peer: Vec<(SocketAddr, telemetry::Snapshot)>,
    /// All peer snapshots folded into one: counters summed, histograms
    /// merged bucket-wise. Peer identity is erased here — use
    /// [`ClusterMetrics::merged_labelled`] to keep it.
    pub merged: telemetry::Snapshot,
}

impl ClusterMetrics {
    /// A merged view that keeps per-store resolution by tagging every
    /// sample with a `peer` label before folding.
    pub fn merged_labelled(&self) -> telemetry::Snapshot {
        let mut out = telemetry::Snapshot::default();
        for (peer, snap) in &self.per_peer {
            out.merge_from(&snap.clone().with_label("peer", &peer.to_string()));
        }
        out
    }
}

/// An FT-DMP round's outcome at cluster granularity: the training report
/// plus which peers contributed and which fell out along the way.
#[derive(Debug)]
pub struct ClusterFtdmpReport {
    /// The usual FT-DMP report, with `feature_bytes` and
    /// `distribution_bytes` measured as *actual wire bytes* (frame
    /// headers included), not uncompressed element counts.
    pub report: FtdmpReport,
    /// Peers that failed (and were excluded) during the round.
    pub failures: Vec<PeerFailure>,
    /// Indices of the peers that completed every phase.
    pub peers_used: Vec<usize>,
    /// Shard extractions that a dead owner's surviving replica served
    /// mid-sweep (always 0 without a placement map).
    pub reroutes: u64,
}

/// How fast [`Cluster::rebalance`] may move data: photos are copied in
/// waves of at most `max_bytes_per_wave`, pausing `wave_pause` between
/// waves so a healing fleet does not starve production reads.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Upper bound on payload bytes copied per wave.
    pub max_bytes_per_wave: u64,
    /// Pause between waves (zero disables pacing entirely).
    pub wave_pause: Duration,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            max_bytes_per_wave: 8 << 20,
            wave_pause: Duration::from_millis(2),
        }
    }
}

/// What one [`Cluster::rebalance`] sweep did.
#[derive(Debug, Default)]
pub struct RebalanceReport {
    /// Photos that gained at least one new replica.
    pub photos_copied: u64,
    /// Payload bytes shipped to backfilling replicas (counted once per
    /// new copy).
    pub bytes_copied: u64,
    /// Pacing waves the sweep was split into.
    pub waves: u64,
    /// Wall-clock time of the whole sweep.
    pub elapsed: Duration,
    /// Per-photo copy failures (the sweep continues past them).
    pub failures: Vec<PeerFailure>,
}

struct WorkerReply {
    index: usize,
    peer: SocketAddr,
    op: &'static str,
    attempts: u32,
    sent_bytes: u64,
    recv_bytes: u64,
    result: Result<Reply, RpcError>,
}

enum Job {
    /// One request for this peer. The `Arc` is shared by every peer of a
    /// fan-out, so a model, delta, map or photo is allocated once.
    Op {
        req: Arc<Request>,
        attempts: u32,
        done: mpsc::SyncSender<WorkerReply>,
    },
    Stop,
}

struct PeerSlot {
    addr: SocketAddr,
    tx: mpsc::SyncSender<Job>,
    thread: Option<JoinHandle<RemotePipeStore>>,
}

/// Executes `req` against one peer with bounded retry: transport errors
/// drop the session and reconnect (the peer may have restarted); remote
/// application errors and protocol violations are final. Exhausted
/// retries collapse into [`RpcError::PeerUnavailable`].
fn run_op(
    remote: &mut RemotePipeStore,
    req: &Request,
    max_attempts: u32,
) -> (Result<Reply, RpcError>, u32) {
    let shutdown = matches!(req, Request::Shutdown);
    // Ending a session that is already gone is a no-op, not a failure,
    // and must not trigger a pointless reconnect.
    if shutdown && !remote.is_connected() {
        return (Ok(Reply::Ack), 0);
    }
    let max = max_attempts.max(1);
    let mut last_io: Option<std::io::Error> = None;
    for attempt in 1..=max {
        if !remote.is_connected() {
            match remote.reconnect() {
                Ok(()) => {}
                Err(RpcError::Io(e)) => {
                    last_io = Some(e);
                    continue;
                }
                Err(RpcError::PeerUnavailable { source, .. }) => {
                    last_io = source;
                    continue;
                }
                // Version skew / handshake refusal: retrying won't help.
                Err(fatal) => return (Err(fatal), attempt),
            }
        }
        // `end_session` drains pending infers before the `Shutdown`.
        let result = if shutdown {
            remote.end_session().map(|()| Reply::Ack)
        } else {
            remote.call(req)
        };
        match result {
            Ok(reply) => return (Ok(reply), attempt),
            Err(RpcError::Io(e)) => {
                remote.disconnect();
                last_io = Some(e);
            }
            Err(fatal) => return (Err(fatal), attempt),
        }
    }
    (
        Err(RpcError::PeerUnavailable {
            peer: remote.peer().to_string(),
            attempts: max,
            source: last_io,
        }),
        max,
    )
}

/// Bumps the shard-reroute counter: a read or feature extraction that
/// could not be served by its primary replica and fell through to a
/// surviving one.
fn count_reroutes(n: u64) {
    if n > 0 && telemetry::enabled() {
        telemetry::global()
            .counter(catalog::SHARD_REROUTES_TOTAL)
            .add(n);
    }
}

fn worker_main(
    index: usize,
    mut remote: RemotePipeStore,
    rx: mpsc::Receiver<Job>,
) -> RemotePipeStore {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Op {
                req,
                attempts,
                done,
            } => {
                let (sent_before, recv_before) = remote.wire_totals();
                let (result, attempts) = run_op(&mut remote, &req, attempts);
                let (sent_after, recv_after) = remote.wire_totals();
                let reply = WorkerReply {
                    index,
                    peer: remote.peer(),
                    op: req.op_name(),
                    attempts,
                    sent_bytes: sent_after.saturating_sub(sent_before),
                    recv_bytes: recv_after.saturating_sub(recv_before),
                    result,
                };
                if done.send(reply).is_err() {
                    // The gathering side went away; nothing left to do
                    // for this job.
                }
            }
            Job::Stop => break,
        }
    }
    remote
}

/// Configures and connects a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterBuilder {
    connect: ConnectOptions,
    policy: FailurePolicy,
    op_attempts: u32,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            connect: ConnectOptions::default(),
            policy: FailurePolicy::Strict,
            op_attempts: 2,
        }
    }
}

impl ClusterBuilder {
    /// Starts from the defaults: [`FailurePolicy::Strict`], default
    /// [`ConnectOptions`], 2 attempts per operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the failure policy for every subsequent round.
    #[must_use]
    pub fn policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Connection policy used both at construction and for worker-side
    /// reconnects.
    #[must_use]
    pub fn connect_options(mut self, opts: ConnectOptions) -> Self {
        self.connect = opts;
        self
    }

    /// Attempts per fanned-out operation (clamped to ≥ 1); transport
    /// errors reconnect and retry up to this bound.
    #[must_use]
    pub fn op_attempts(mut self, attempts: u32) -> Self {
        self.op_attempts = attempts.max(1);
        self
    }

    /// Connects to every address in parallel and builds the cluster.
    /// Under [`FailurePolicy::Quorum`], peers that are down get detached
    /// slots (their workers keep trying to reconnect per-operation) as
    /// long as the quorum holds; under [`FailurePolicy::Strict`] any
    /// connect failure is an error.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoPeers`] for an empty list,
    /// [`ClusterError::Config`] for unresolvable addresses, or
    /// [`ClusterError::Rejected`] when the policy does not admit the
    /// surviving set.
    pub fn connect<S: AsRef<str>>(self, addrs: &[S]) -> Result<Cluster, ClusterError> {
        if addrs.is_empty() {
            return Err(ClusterError::NoPeers);
        }
        if let FailurePolicy::Quorum(k) = self.policy {
            if k > addrs.len() {
                return Err(ClusterError::Config("quorum exceeds peer count"));
            }
        }
        let mut resolved = Vec::with_capacity(addrs.len());
        for a in addrs {
            match a.as_ref().to_socket_addrs().ok().and_then(|mut i| i.next()) {
                Some(sa) => resolved.push(sa),
                None => return Err(ClusterError::Config("unresolvable peer address")),
            }
        }
        let opts = self.connect;
        let results: Vec<Result<RemotePipeStore, RpcError>> = std::thread::scope(|s| {
            let handles: Vec<_> = resolved
                .iter()
                .map(|&sa| s.spawn(move || RemotePipeStore::connect_with(sa, opts)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => Err(RpcError::Protocol("peer connect thread panicked")),
                })
                .collect()
        });
        let mut remotes = Vec::with_capacity(resolved.len());
        let mut failures = Vec::new();
        for (index, (result, sa)) in results.into_iter().zip(resolved).enumerate() {
            match result {
                Ok(r) => remotes.push(r),
                Err(error) => {
                    failures.push(PeerFailure {
                        index,
                        peer: sa.to_string(),
                        op: "connect",
                        attempts: opts.max_attempts.max(1),
                        error,
                    });
                    remotes.push(RemotePipeStore::detached(sa, opts));
                }
            }
        }
        let healthy = remotes.iter().filter(|r| r.is_connected()).count();
        if !self.policy.admits(healthy, failures.len()) {
            return Err(ClusterError::Rejected {
                policy: self.policy,
                ok: healthy,
                failures,
            });
        }
        self.adopt_with_failures(remotes, failures)
    }

    /// Builds a cluster around already-connected handles. Order is
    /// preserved: peer `i` of the cluster is `remotes[i]`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoPeers`] for an empty vector, or
    /// [`ClusterError::Config`] if a worker thread cannot be spawned.
    pub fn adopt(self, remotes: Vec<RemotePipeStore>) -> Result<Cluster, ClusterError> {
        self.adopt_with_failures(remotes, Vec::new())
    }

    fn adopt_with_failures(
        self,
        remotes: Vec<RemotePipeStore>,
        initial_failures: Vec<PeerFailure>,
    ) -> Result<Cluster, ClusterError> {
        if remotes.is_empty() {
            return Err(ClusterError::NoPeers);
        }
        if let FailurePolicy::Quorum(k) = self.policy {
            if k > remotes.len() {
                return Err(ClusterError::Config("quorum exceeds peer count"));
            }
        }
        let mut peers = Vec::with_capacity(remotes.len());
        for (index, remote) in remotes.into_iter().enumerate() {
            // ndlint: policy(block, reason = "a lagging peer stalls the Tuner's fan-out wave instead of queueing unbounded jobs; failover marks it dead after op_attempts")
            let (tx, rx) = mpsc::sync_channel(PEER_JOB_QUEUE_CAP);
            let addr = remote.peer();
            let thread = std::thread::Builder::new()
                .name(format!("ndpipe-peer-{index}"))
                .spawn(move || worker_main(index, remote, rx))
                .map_err(|_| ClusterError::Config("failed to spawn peer worker thread"))?;
            peers.push(PeerSlot {
                addr,
                tx,
                thread: Some(thread),
            });
        }
        Ok(Cluster {
            acked_prefix: parking_lot::Mutex::new(vec![None; peers.len()]),
            peers,
            policy: self.policy,
            op_attempts: self.op_attempts,
            initial_failures,
        })
    }
}

/// The Tuner's handle to a fleet of PipeStores: owns one worker thread
/// per peer and fans control operations out concurrently, so the wall
/// clock of a phase is the slowest peer, not the sum of all peers.
///
/// ```no_run
/// use ndpipe::rpc::{Cluster, FailurePolicy};
/// # fn demo() -> Result<(), ndpipe::rpc::ClusterError> {
/// let cluster = Cluster::builder()
///     .policy(FailurePolicy::Quorum(2))
///     .connect(&["10.0.0.1:7401", "10.0.0.2:7401", "10.0.0.3:7401"])?;
/// let metrics = cluster.scrape_metrics()?;
/// println!("fleet requests: {:?}",
///          metrics.merged.counter_value("ndpipe_rpc_server_requests_total"));
/// cluster.shutdown();
/// # Ok(()) }
/// ```
pub struct Cluster {
    peers: Vec<PeerSlot>,
    policy: FailurePolicy,
    op_attempts: u32,
    initial_failures: Vec<PeerFailure>,
    /// Per peer, the [`Mlp::prefix_digest`] of the last model it
    /// acknowledged through this handle (`None` when unknown):
    /// [`Cluster::install_model`] ships only the head where it matches.
    acked_prefix: parking_lot::Mutex<Vec<Option<u64>>>,
}

impl Cluster {
    /// Entry point: `Cluster::builder().policy(..).connect(&addrs)`.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Number of peers (healthy or not).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the cluster has no peers (never true for a built cluster).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The failure policy rounds run under.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Peer addresses in index order.
    pub fn peer_addrs(&self) -> Vec<SocketAddr> {
        self.peers.iter().map(|p| p.addr).collect()
    }

    /// Connect-time failures (peers admitted as detached slots under a
    /// quorum policy; their workers reconnect per-operation).
    pub fn initial_failures(&self) -> &[PeerFailure] {
        &self.initial_failures
    }

    /// Every peer index, ascending.
    fn all(&self) -> Vec<usize> {
        (0..self.peers.len()).collect()
    }

    /// Queues `req` on peer `index`'s worker; the reply lands on `done`.
    fn submit(
        &self,
        index: usize,
        req: Arc<Request>,
        done: &mpsc::SyncSender<WorkerReply>,
    ) -> Result<(), PeerFailure> {
        let op = req.op_name();
        let job = Job::Op {
            req,
            attempts: self.op_attempts,
            done: done.clone(),
        };
        match self.peers.get(index) {
            Some(slot) if slot.tx.send(job).is_ok() => Ok(()),
            Some(_) => Err(self.unreached(index, op, "peer worker is gone")),
            None => Err(self.unreached(index, op, "peer index out of range")),
        }
    }

    /// Fans one shared `req` out to the peers at `indices` and gathers
    /// every reply as `T`.
    fn fanout_on<T: FromReply>(&self, indices: &[usize], req: Request) -> Fanout<T> {
        let req = Arc::new(req);
        self.fanout_each(req.op_name(), indices, |_| Arc::clone(&req))
    }

    /// Sends `req_for(i)` to each peer `i` in `indices` and gathers every
    /// reply as `T`; a reply of another shape is that peer's failure.
    fn fanout_each<T: FromReply>(
        &self,
        op: &'static str,
        indices: &[usize],
        req_for: impl Fn(usize) -> Arc<Request>,
    ) -> Fanout<T> {
        let t0 = Instant::now();
        // Each targeted peer sends exactly one reply per fan-out, so a
        // bound of `indices.len()` means workers never block on `done`.
        // ndlint: policy(block, reason = "capacity equals the reply count, so the blocking case is unreachable by construction")
        let (tx, rx) = mpsc::sync_channel(indices.len().max(1));
        let mut failures = Vec::new();
        for &index in indices {
            if let Err(f) = self.submit(index, req_for(index), &tx) {
                failures.push(f);
            }
        }
        drop(tx);
        let mut ok = Vec::new();
        for reply in rx {
            match reply.result.and_then(Reply::into_typed) {
                Ok(value) => ok.push(PeerResult {
                    index: reply.index,
                    peer: reply.peer,
                    value,
                    attempts: reply.attempts,
                    sent_bytes: reply.sent_bytes,
                    recv_bytes: reply.recv_bytes,
                }),
                Err(error) => failures.push(PeerFailure::new(
                    reply.index,
                    reply.peer.to_string(),
                    reply.op,
                    reply.attempts,
                    error,
                )),
            }
        }
        ok.sort_by_key(|r| r.index);
        failures.sort_by_key(|f| f.index);
        let elapsed = t0.elapsed();
        if telemetry::enabled() {
            let m = telemetry::global();
            m.histogram_with(catalog::CLUSTER_FANOUT_SECONDS, &[("op", op)])
                .observe(elapsed.as_secs_f64());
            if !failures.is_empty() {
                m.counter_with(catalog::CLUSTER_PEER_FAILURES_TOTAL, &[("op", op)])
                    .add(failures.len() as u64);
            }
        }
        Fanout {
            ok,
            failures,
            elapsed,
        }
    }

    fn fanout_all<T: FromReply>(&self, req: Request) -> Fanout<T> {
        self.fanout_on(&self.all(), req)
    }

    /// Installs `model` on every peer: the head alone
    /// ([`Request::InstallHead`]) where the peer last acknowledged this
    /// prefix through this handle, the whole model (serialized once, every
    /// peer's frame borrowing the same bytes) elsewhere and wherever a
    /// store refuses the head (counted in
    /// `ndpipe_model_install_fallbacks_total`). Only a refusal is re-sent
    /// in full; a transport failure stays that peer's failure. Each peer
    /// that acknowledges is remembered as holding this model's prefix.
    pub fn install_model(&self, model: &Mlp) -> Fanout<()> {
        self.install_on(&self.all(), model)
    }

    /// [`Cluster::install_model`] on the peers at `indices`.
    fn install_on(&self, indices: &[usize], model: &Mlp) -> Fanout<()> {
        let digest = model.prefix_digest();
        let (heads, mut fulls): (Vec<usize>, Vec<usize>) = {
            let acked = self.acked_prefix.lock();
            indices
                .iter()
                .partition(|&&i| acked.get(i).copied().flatten() == Some(digest))
        };
        let mut fan = Fanout {
            ok: Vec::new(),
            failures: Vec::new(),
            elapsed: Duration::ZERO,
        };
        if !heads.is_empty() {
            let head = Request::InstallHead {
                prefix_digest: digest,
                head: model.head_to_bytes(),
            };
            fan = self.fanout_on::<()>(&heads, head);
            let (refused, failed): (Vec<PeerFailure>, Vec<PeerFailure>) = fan
                .failures
                .into_iter()
                .partition(|f| matches!(f.error, RpcError::Remote { .. }));
            fan.failures = failed;
            if !refused.is_empty() && telemetry::enabled() {
                telemetry::global()
                    .counter(catalog::MODEL_INSTALL_FALLBACKS_TOTAL)
                    .add(refused.len() as u64);
            }
            fulls.extend(refused.iter().map(|f| f.index));
        }
        if !fulls.is_empty() {
            let full = self.fanout_on::<()>(&fulls, Request::InstallModel(model.to_bytes()));
            fan.ok.extend(full.ok);
            fan.failures.extend(full.failures);
            fan.ok.sort_by_key(|r| r.index);
            fan.failures.sort_by_key(|f| f.index);
            fan.elapsed += full.elapsed;
        }
        self.remember_prefix(&fan, digest);
        fan
    }

    /// Records `digest` for every peer that acknowledged an install in
    /// `fan`; a peer that failed one holds an unknown model.
    fn remember_prefix(&self, fan: &Fanout<()>, digest: u64) {
        let mut acked = self.acked_prefix.lock();
        let updates = fan
            .ok
            .iter()
            .map(|r| (r.index, Some(digest)))
            .chain(fan.failures.iter().map(|f| (f.index, None)));
        for (index, held) in updates {
            if let Some(slot) = acked.get_mut(index) {
                *slot = held;
            }
        }
    }

    /// Extracts features for pipeline run `run` of `n_run` on every peer
    /// concurrently — the fan-out that carries the paper's scaling claim.
    /// Peer index `i` is placement node `i`: peer `i` extracts node `i`'s
    /// shard, so the store built as node `i` must sit at index `i`.
    pub fn extract_features(&self, run: u32, n_run: u32) -> Fanout<(Tensor, Vec<usize>)> {
        let slice = |i: usize| {
            Arc::new(Request::ExtractSlice {
                node: i as u64,
                run,
                n_run,
                mb: 0,
                n_mb: 1,
            })
        };
        self.fanout_each("extract_slice", &self.all(), slice)
    }

    /// Runs near-data offline inference on every peer.
    pub fn offline_infer(&self) -> Fanout<Vec<(u64, u32)>> {
        self.fanout_all(Request::OfflineInfer)
    }

    /// Ships a Check-N-Run delta to every peer (serialized once, the
    /// bytes shared by every peer's frame).
    pub fn apply_delta(&self, delta: &ModelDelta) -> Fanout<()> {
        self.fanout_all(Request::ApplyDelta(delta.to_bytes()))
    }

    /// Fetches every peer's [`ShardDesc`]: example/class counts plus the
    /// math policy and kernel family its FE paths run under — the
    /// fleet-uniformity audit input (mixing features extracted under
    /// different policies silently degrades fine-tuning).
    pub fn describe(&self) -> Fanout<ShardDesc> {
        self.fanout_all(Request::Describe)
    }

    /// Scrapes every peer's telemetry registry concurrently.
    pub fn scrape(&self) -> Fanout<telemetry::Snapshot> {
        self.fanout_all(Request::Metrics)
    }

    /// Scrapes the fleet and folds the snapshots into a cluster-wide
    /// [`ClusterMetrics`] view, subject to the failure policy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] when too few peers answered.
    pub fn scrape_metrics(&self) -> Result<ClusterMetrics, ClusterError> {
        let fan = self.scrape();
        if !self.policy.admits(fan.ok.len(), fan.failures.len()) {
            return Err(self.reject(fan.ok.len(), fan.failures));
        }
        let per_peer: Vec<(SocketAddr, telemetry::Snapshot)> =
            fan.ok.into_iter().map(|r| (r.peer, r.value)).collect();
        let merged = telemetry::Snapshot::merged(per_peer.iter().map(|(_, s)| s));
        Ok(ClusterMetrics { per_peer, merged })
    }

    /// Fetches the placement map every peer currently holds (peers with
    /// no map installed report a failure).
    pub fn placement(&self) -> Fanout<PlacementMap> {
        self.fanout_all(Request::Placement)
    }

    /// Publishes `map` cluster-wide. Peers holding a newer epoch reject
    /// the install (reported as per-peer failures); equal epochs are
    /// idempotent acks. The map is cloned once and shared.
    pub fn publish_placement(&self, map: &PlacementMap) -> Fanout<()> {
        self.fanout_all(Request::InstallPlacement(map.clone()))
    }

    /// Replicated write: stores `rec` on every live replica `map`
    /// assigns its photo id. Peer index `i` is placement node `i`.
    pub fn put_photo(&self, map: &PlacementMap, rec: &PhotoRecord) -> Fanout<()> {
        let indices: Vec<usize> = map
            .replicas_for(rec.id)
            .into_iter()
            .map(|n| n as usize)
            .collect();
        self.fanout_on(&indices, Request::PutPhoto(rec.clone()))
    }

    /// Read with failover: tries the replicas `map` ranks for `id` in
    /// order and returns the first copy that answers. Every replica
    /// skipped on the way counts into `ndpipe_shard_reroutes_total`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] when the map ranks no live replica,
    /// [`ClusterError::Rejected`] when every ranked replica failed.
    pub fn get_photo(&self, map: &PlacementMap, id: u64) -> Result<PhotoRecord, ClusterError> {
        let replicas = map.replicas_for(id);
        if replicas.is_empty() {
            return Err(ClusterError::Config("placement map ranks no live replica"));
        }
        let mut failures = Vec::new();
        for (rank, &node) in replicas.iter().enumerate() {
            let fan = self.fanout_on(&[node as usize], Request::GetPhoto(id));
            failures.extend(fan.failures);
            if let Some(r) = fan.ok.into_iter().next() {
                count_reroutes(rank as u64);
                return Ok(r.value);
            }
        }
        Err(self.reject(0, failures))
    }

    /// Lists the photo ids each peer holds (its own shard plus any
    /// replicas parked on it).
    pub fn list_photos(&self) -> Fanout<Vec<u64>> {
        self.fanout_all(Request::ListPhotos)
    }

    /// Self-healing sweep after a membership change: publishes `new`
    /// cluster-wide, then copies exactly the photos whose replica set
    /// differs between `old` and `new` onto the replicas that lack
    /// them, in bounded-rate waves. Payload bytes land in
    /// `ndpipe_rebalance_bytes_total`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] when publishing the map or listing
    /// current holders falls below the failure policy; per-photo copy
    /// failures are reported in the returned report instead.
    pub fn rebalance(
        &self,
        old: &PlacementMap,
        new: &PlacementMap,
        config: &RebalanceConfig,
    ) -> Result<RebalanceReport, ClusterError> {
        let t0 = Instant::now();
        let mut report = RebalanceReport::default();

        // Publish first: reads and writes flip to the new epoch
        // immediately, and the copy loop below backfills under it.
        let fan = self.publish_placement(new);
        let published = fan.ok.len();
        report.failures.extend(fan.failures);
        if !self.policy.admits(published, report.failures.len()) {
            return Err(self.reject(published, report.failures));
        }

        // Who holds what right now (ground truth beats the old map:
        // a crashed-and-wiped peer shows up empty here).
        let fan = self.list_photos();
        let listed = fan.ok.len();
        let mut holders: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for r in fan.ok {
            for id in r.value {
                holders.entry(id).or_default().push(r.index);
            }
        }
        report.failures.extend(fan.failures);
        if !self.policy.admits(listed, report.failures.len()) {
            return Err(self.reject(listed, report.failures));
        }

        let mut wave_bytes = 0u64;
        for (&id, holding) in &holders {
            if !PlacementMap::replica_set_changed(old, new, id) {
                continue;
            }
            let missing: Vec<usize> = new
                .replicas_for(id)
                .into_iter()
                .map(|n| n as usize)
                .filter(|i| !holding.contains(i))
                .collect();
            if missing.is_empty() {
                continue;
            }
            // Fetch one copy from any current holder.
            let mut rec = None;
            for &h in holding {
                let fan = self.fanout_on::<PhotoRecord>(&[h], Request::GetPhoto(id));
                report.failures.extend(fan.failures);
                if let Some(r) = fan.ok.into_iter().next() {
                    rec = Some(r.value);
                    break;
                }
            }
            let Some(rec) = rec else {
                // Every holder refused; the photo keeps its old copies.
                continue;
            };
            let copy_bytes = rec.transfer_bytes();
            let fan = self.fanout_on::<()>(&missing, Request::PutPhoto(rec));
            let stored = fan.ok.len() as u64;
            report.failures.extend(fan.failures);
            if stored == 0 {
                continue;
            }
            report.photos_copied += 1;
            let shipped = copy_bytes * stored;
            report.bytes_copied += shipped;
            wave_bytes += shipped;
            if wave_bytes >= config.max_bytes_per_wave {
                report.waves += 1;
                wave_bytes = 0;
                if !config.wave_pause.is_zero() {
                    std::thread::sleep(config.wave_pause);
                }
            }
        }
        if wave_bytes > 0 || report.photos_copied == 0 {
            report.waves += 1;
        }
        if telemetry::enabled() && report.bytes_copied > 0 {
            telemetry::global()
                .counter(catalog::REBALANCE_BYTES_TOTAL)
                .add(report.bytes_copied);
        }
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Runs `rounds` back-to-back FT-DMP fine-tuning rounds across the
    /// cluster: the socket transport under
    /// [`Schedule`](crate::ftdmp::schedule::Schedule), which makes
    /// every scheduling decision (staleness gate `g ≤ trained + S`, own
    /// shard first then steal the deepest backlog a peer holds a replica
    /// of, requeue on failure, orphaning, `(node, micro-batch)` gather
    /// order). This driver describes and validates the fleet,
    /// distributes the master model, keeps up to two
    /// [`Request::ExtractSlice`] jobs in flight per live peer, feeds
    /// replies back, trains each run as it completes and ships each
    /// round's Check-N-Run delta — overlapped with the next round's
    /// extraction when `S ≥ 1` (safe because features depend only on the
    /// *frozen* prefix, which deltas never touch), acknowledged at the
    /// round boundary when `S = 0`.
    ///
    /// Results are bit-identical at every `S` to `rounds` calls of the
    /// in-process barrier [`crate::ftdmp::ftdmp_fine_tune`] under the
    /// same config, whose stores cut their run slices into the same
    /// micro-batches. `staleness: 0` keeps extraction from leading
    /// training. Peers that fail
    /// are excluded from the rest of the job and the [`FailurePolicy`]
    /// decides whether the survivors suffice; with a placement map a
    /// dead peer's shard is still trained on through a surviving replica
    /// (counted in `reroutes`), and a steal from a *live* owner counts
    /// in `schedule.steals`. `feature_bytes`/`distribution_bytes` in the
    /// report are actual wire bytes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Ftdmp`] for an invalid job,
    /// [`ClusterError::Rejected`] when the [`FailurePolicy`] gives up.
    pub fn ftdmp_fine_tune_pipelined<R: Rng + ?Sized>(
        &self,
        tuner: &mut Tuner,
        config: &FtdmpConfig,
        rounds: usize,
        rng: &mut R,
        placement: Option<&PlacementMap>,
    ) -> Result<ClusterFtdmpReport, ClusterError> {
        /// Extraction ops each peer keeps in flight: enough to hide the
        /// round-trip, small enough that a steal can rebalance the tail.
        const MAX_INFLIGHT: usize = 2;

        if self.peers.is_empty() {
            return Err(ClusterError::NoPeers);
        }
        if config.n_run == 0 {
            return Err(ClusterError::Ftdmp(FtdmpError::ZeroRuns));
        }
        if rounds == 0 {
            return Err(ClusterError::Config("need at least one round"));
        }
        let phase_timer = |phase: &str| {
            telemetry::enabled().then(|| {
                telemetry::global()
                    .histogram_with(catalog::FTDMP_REMOTE_PHASE_SECONDS, &[("phase", phase)])
                    .start_timer()
            })
        };
        let mut failures: Vec<PeerFailure> = Vec::new();
        let mut live: Vec<usize> = (0..self.peers.len()).collect();

        // 0. Describe every reachable peer; validate label spaces and
        // shard depths up front (an incompatible shard is a recorded
        // failure, not a panic).
        let mut shard_len: BTreeMap<usize, usize> = BTreeMap::new();
        let mut unfit: Vec<usize> = Vec::new();
        let fan = self.fanout_on::<ShardDesc>(&live, Request::Describe);
        failures.extend(fan.failures);
        live.clear();
        for r in fan.ok {
            let (examples, classes) = (r.value.examples as usize, r.value.classes as usize);
            match check_shard(r.index, examples, classes, config, tuner.model()) {
                Ok(()) => {
                    shard_len.insert(r.index, examples);
                    live.push(r.index);
                }
                Err(e) => {
                    unfit.push(r.index);
                    let error = RpcError::Remote {
                        peer: r.peer.to_string(),
                        op: "describe",
                        msg: e.to_string(),
                    };
                    failures.push(PeerFailure::new(
                        r.index,
                        r.peer.to_string(),
                        "describe",
                        r.attempts,
                        error,
                    ));
                }
            }
        }
        self.admit(&live, &mut failures)?;

        // 1. Distribute the current master model: its head alone to the
        // peers that hold its prefix, the whole model to the rest.
        let timer = phase_timer("distribute");
        let model_before = tuner.model().clone();
        let fan = self.install_on(&live, &model_before);
        live = fan.ok.iter().map(|r| r.index).collect();
        failures.extend(fan.failures);
        drop(timer);
        self.admit(&live, &mut failures)?;

        // Shard assignments come from the placement map when supplied
        // (a dead node's shard is still trained on, via a replica);
        // otherwise every live peer serves exactly its own shard. Shards
        // the Describe fan-out could not reach (nodes dead at connect)
        // are sized through a surviving holder's replica.
        let can_serve = |peer: usize, node: usize| -> bool {
            peer == node
                || placement.is_some_and(|m| {
                    m.shard_holders(node as u64)
                        .iter()
                        .any(|&h| h as usize == peer)
                })
        };
        let assignments: Vec<usize> = match placement {
            Some(map) => map
                .nodes()
                .iter()
                .map(|n| n.id as usize)
                .filter(|i| !unfit.contains(i))
                .collect(),
            None => live.clone(),
        };
        let mut lens: BTreeMap<usize, usize> = BTreeMap::new();
        for a in assignments {
            let known = shard_len.get(&a).copied().or_else(|| {
                let holders = live.iter().filter(|&&h| h != a && can_serve(h, a));
                holders
                    .flat_map(|&h| {
                        self.fanout_on::<ShardDesc>(&[h], Request::DescribeNode(a as u64))
                            .ok
                    })
                    .find_map(|r| {
                        let (examples, classes) =
                            (r.value.examples as usize, r.value.classes as usize);
                        let fit = check_shard(a, examples, classes, config, tuner.model());
                        fit.is_ok().then_some(examples)
                    })
            });
            if let Some(n) = known {
                lens.insert(a, n);
            }
        }
        if lens.is_empty() {
            return Err(ClusterError::Ftdmp(FtdmpError::NoStores));
        }

        // 2. Extract ∥ train under the schedule.
        let mut sched = Schedule::new(&lens, config, rounds);
        // One shared reply lane for every streaming extract; capacity
        // covers the dispatch window, so workers never block on it.
        let lane_cap = self.peers.len().max(1) * MAX_INFLIGHT;
        // ndlint: policy(block, reason = "capacity equals peers times the per-peer in-flight cap, the most extract jobs the dispatch window allows, so the blocking case is unreachable by construction")
        let (ext_tx, ext_rx) = mpsc::sync_channel::<WorkerReply>(lane_cap);
        // Per-peer FIFO of dispatched tasks: each peer worker answers
        // its job queue in order, so the front entry always matches the
        // next reply from that peer.
        let mut in_flight: Vec<VecDeque<SliceTask>> = vec![VecDeque::new(); self.peers.len()];
        let mut pending_acks: Vec<mpsc::Receiver<WorkerReply>> = Vec::new();

        let mut run_losses = Vec::with_capacity(sched.total_runs());
        let mut feature_bytes = 0usize;
        let mut distribution_bytes = 0usize;
        let mut examples = 0usize;
        let mut bubble_secs = 0.0f64;
        let mut round_base = model_before;
        let mut round_base_version = tuner.version();
        let mut last_reduction = 1.0f64;

        // Collects every outstanding delta ack, folding failures in.
        let collect_acks = |pending: &mut Vec<mpsc::Receiver<WorkerReply>>,
                            live: &mut Vec<usize>,
                            failures: &mut Vec<PeerFailure>,
                            distribution_bytes: &mut usize| {
            for reply in pending.drain(..).flatten() {
                match reply.result.and_then(Reply::into_typed::<()>) {
                    Ok(()) => *distribution_bytes += reply.sent_bytes as usize,
                    Err(error) => {
                        live.retain(|&p| p != reply.index);
                        failures.push(PeerFailure::new(
                            reply.index,
                            reply.peer.to_string(),
                            reply.op,
                            reply.attempts,
                            error,
                        ));
                    }
                }
            }
        };

        for g in 0..sched.total_runs() {
            let t0 = Instant::now();
            while !sched.run_ready(g) {
                // Dispatch: fill every live peer's window with whatever
                // the schedule hands it.
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    for p in live.clone() {
                        let Some(window) = in_flight.get_mut(p).filter(|w| w.len() < MAX_INFLIGHT)
                        else {
                            continue;
                        };
                        let claim = sched.next_for(|node| node == p, |node| can_serve(p, node));
                        let Some((task, stolen)) = claim else {
                            continue;
                        };
                        if stolen {
                            let owner_live = live.contains(&task.node);
                            sched.record_steal(owner_live);
                            if !owner_live {
                                count_reroutes(1);
                            }
                        }
                        let req = Request::ExtractSlice {
                            node: task.node as u64,
                            run: task.run as u32,
                            n_run: config.n_run as u32,
                            mb: task.mb as u32,
                            n_mb: task.n_mb as u32,
                        };
                        match self.submit(p, Arc::new(req), &ext_tx) {
                            Ok(()) => {
                                window.push_back(task);
                                progressed = true;
                            }
                            Err(failure) => {
                                // Worker gone: treat like a transport death.
                                live.retain(|&q| q != p);
                                failures.push(failure);
                                sched.fail(task);
                            }
                        }
                    }
                }

                let servable = |node| live.iter().any(|&p| can_serve(p, node));
                for node in sched.orphan_unservable(servable) {
                    failures.push(self.unreached(
                        node,
                        "extract_slice",
                        "no surviving replica for shard",
                    ));
                }
                self.admit(&live, &mut failures)?;
                if sched.run_ready(g) {
                    break;
                }

                // Gather: block on one extract reply.
                let Ok(reply) = ext_rx.recv() else {
                    return Err(ClusterError::Config("extract reply lane closed"));
                };
                let Some(task) = in_flight.get_mut(reply.index).and_then(VecDeque::pop_front)
                else {
                    return Err(ClusterError::Config("unmatched extract reply"));
                };
                let error = match reply
                    .result
                    .and_then(Reply::into_typed::<(Tensor, Vec<usize>)>)
                {
                    Ok((features, labels)) => {
                        let shard = lens.get(&task.node).copied().unwrap_or(0);
                        let model = tuner.model();
                        match check_features(&task, shard, config, &features, &labels, model) {
                            Ok(()) => {
                                feature_bytes += reply.recv_bytes as usize;
                                sched.complete(task, features, labels);
                                continue;
                            }
                            Err(why) => RpcError::Protocol(why),
                        }
                    }
                    Err(error) => error,
                };
                // A failed, malformed or misfit reply counts the peer out.
                live.retain(|&p| p != reply.index);
                failures.push(PeerFailure::new(
                    reply.index,
                    reply.peer.to_string(),
                    reply.op,
                    reply.attempts,
                    error,
                ));
                sched.fail(task);
                self.admit(&live, &mut failures)?;
            }
            bubble_secs += t0.elapsed().as_secs_f64();

            let Some((features, labels)) = sched.take_run(g) else {
                return Err(ClusterError::Config("no features survived for a run"));
            };
            examples += labels.len();
            let timer = phase_timer("train");
            let loss = tuner.train_on_features(&features, &labels, config.epochs_per_run, rng);
            drop(timer);
            run_losses.push(loss);
            sched.mark_trained(g);

            // Round boundary: distribute the delta. With S = 0 the
            // schedule waits for every ack (the oracle's barrier);
            // otherwise acks gather lazily while the next round's
            // extraction is already in flight.
            if (g + 1) % config.n_run == 0 {
                let _timer = phase_timer("redistribute");
                let delta = tuner
                    .delta_from(&round_base)
                    .with_versions(round_base_version, tuner.version());
                last_reduction = delta.traffic_reduction();
                round_base = tuner.model().clone();
                round_base_version = tuner.version();
                let req = Arc::new(Request::ApplyDelta(delta.to_bytes()));
                // Each targeted peer sends exactly one ack per round, so
                // a bound of `live.len()` means workers never block.
                // ndlint: policy(block, reason = "capacity equals the reply count, so the blocking case is unreachable by construction")
                let (dtx, drx) = mpsc::sync_channel::<WorkerReply>(live.len().max(1));
                for p in live.clone() {
                    if let Err(failure) = self.submit(p, Arc::clone(&req), &dtx) {
                        live.retain(|&q| q != p);
                        failures.push(failure);
                    }
                }
                drop(dtx);
                pending_acks.push(drx);
                if config.staleness == 0 {
                    collect_acks(
                        &mut pending_acks,
                        &mut live,
                        &mut failures,
                        &mut distribution_bytes,
                    );
                    self.admit(&live, &mut failures)?;
                }
            }
        }

        // Settle the overlapped delta acks from the tail rounds.
        collect_acks(
            &mut pending_acks,
            &mut live,
            &mut failures,
            &mut distribution_bytes,
        );
        self.admit(&live, &mut failures)?;

        let schedule = ScheduleStats {
            bubble_secs,
            ..sched.stats()
        };
        record_job(Origin::Remote, rounds, feature_bytes, &schedule);

        Ok(ClusterFtdmpReport {
            report: FtdmpReport {
                run_losses,
                feature_bytes,
                distribution_bytes,
                distribution_reduction: last_reduction,
                examples,
                schedule,
            },
            failures,
            peers_used: live,
            reroutes: sched.reroutes(),
        })
    }

    /// A failure of `op` for peer or node `index` that no request reached.
    fn unreached(&self, index: usize, op: &'static str, why: &'static str) -> PeerFailure {
        let peer = match self.peers.get(index) {
            Some(slot) => slot.addr.to_string(),
            None => "<out of range>".to_string(),
        };
        PeerFailure::new(index, peer, op, 0, RpcError::Protocol(why))
    }

    /// Applies the failure policy to the survivors; on rejection the
    /// collected failures move into the error.
    fn admit(&self, live: &[usize], failures: &mut Vec<PeerFailure>) -> Result<(), ClusterError> {
        if self.policy.admits(live.len(), failures.len()) {
            Ok(())
        } else {
            Err(self.reject(live.len(), std::mem::take(failures)))
        }
    }

    fn reject(&self, ok: usize, failures: Vec<PeerFailure>) -> ClusterError {
        ClusterError::Rejected {
            policy: self.policy,
            ok,
            failures,
        }
    }

    /// Ends every peer session cleanly, then stops and joins the worker
    /// threads. Per-peer shutdown failures are reported, not fatal.
    pub fn shutdown(mut self) -> Fanout<()> {
        let fan = self.fanout_all(Request::Shutdown);
        self.stop_and_join();
        fan
    }

    /// Stops the workers and returns the underlying per-peer handles in
    /// index order (sessions intact), e.g. for direct per-peer calls
    /// after the fan-out phase of a round is done.
    pub fn into_remotes(mut self) -> Vec<RemotePipeStore> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Vec<RemotePipeStore> {
        for slot in &self.peers {
            let _ = slot.tx.send(Job::Stop);
        }
        let mut out = Vec::with_capacity(self.peers.len());
        for slot in self.peers.iter_mut() {
            if let Some(thread) = slot.thread.take() {
                if let Ok(remote) = thread.join() {
                    out.push(remote);
                }
            }
        }
        out
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Best-effort: unblock workers; shutdown()/into_remotes() join.
        for slot in &self.peers {
            let _ = slot.tx.send(Job::Stop);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("peers", &self.peer_addrs())
            .field("policy", &self.policy)
            .field("op_attempts", &self.op_attempts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_admission_rules() {
        assert!(FailurePolicy::Strict.admits(3, 0));
        assert!(!FailurePolicy::Strict.admits(3, 1));
        assert!(FailurePolicy::Quorum(2).admits(2, 1));
        assert!(!FailurePolicy::Quorum(2).admits(1, 2));
        assert!(FailurePolicy::Quorum(0).admits(0, 5));
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let addrs: [&str; 0] = [];
        assert!(matches!(
            Cluster::builder().connect(&addrs),
            Err(ClusterError::NoPeers)
        ));
        assert!(matches!(
            Cluster::builder().adopt(Vec::new()),
            Err(ClusterError::NoPeers)
        ));
    }

    #[test]
    fn strict_connect_to_dead_peers_fails_with_peer_failures() {
        let opts = ConnectOptions::new()
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(1));
        let err = Cluster::builder()
            .connect_options(opts)
            .connect(&["127.0.0.1:1", "127.0.0.1:1"])
            .expect_err("dead peers must not connect");
        match err {
            ClusterError::Rejected { ok, failures, .. } => {
                assert_eq!(ok, 0);
                assert_eq!(failures.len(), 2);
                assert!(failures
                    .iter()
                    .all(|f| matches!(f.error, RpcError::PeerUnavailable { .. })));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn quorum_zero_admits_all_dead_peers_as_detached() {
        let opts = ConnectOptions::new()
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(1));
        let cluster = Cluster::builder()
            .connect_options(opts)
            .policy(FailurePolicy::Quorum(0))
            .connect(&["127.0.0.1:1"])
            .expect("quorum(0) admits anything");
        assert_eq!(cluster.len(), 1);
        assert_eq!(cluster.initial_failures().len(), 1);
        // Operations fail per-peer instead of erroring the whole call.
        let fan = cluster.describe();
        assert!(fan.ok.is_empty());
        assert_eq!(fan.failures.len(), 1);
        // Quorum(0) admits an empty surviving set, so the scrape
        // "succeeds" with zero peers rather than rejecting.
        let metrics = cluster.scrape_metrics().expect("quorum(0) admits");
        assert!(metrics.per_peer.is_empty());
        let fan = cluster.shutdown();
        // Nothing to end on a detached peer; shutdown is clean.
        assert!(fan.failures.is_empty());
    }
}
