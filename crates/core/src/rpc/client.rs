//! The Tuner-side handle to a remote PipeStore, including a pipelined
//! in-flight request window ([`RemotePipeStore::start_infer`] /
//! [`RemotePipeStore::finish_infer`]) that keeps many `Infer` rows on
//! the wire at once against the event-driven server.

use crate::rpc::wire::{
    read_handshake, read_reply, write_handshake, write_request, write_request_noflush, FromReply,
    Handshake, PhotoRecord, Reply, Request, ShardDesc, FEATURE_DELTAS, FEATURE_METRICS,
    FEATURE_MULTI_SESSION, PROTOCOL_VERSION,
};
use crate::rpc::RpcError;
use dnn::Mlp;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use tensor::Tensor;

/// Feature bits this client understands; advertised in the `Hello`.
pub const CLIENT_FEATURES: u64 = FEATURE_METRICS | FEATURE_DELTAS | FEATURE_MULTI_SESSION;

/// Connection policy for [`RemotePipeStore::connect_with`]: bounded
/// retry with exponential backoff, plus socket read/write timeouts so a
/// wedged store cannot pin the Tuner forever.
///
/// Build one fluently:
///
/// ```
/// use ndpipe::rpc::ConnectOptions;
/// use std::time::Duration;
/// let opts = ConnectOptions::new()
///     .retries(3)
///     .backoff(Duration::from_millis(10), Duration::from_millis(100))
///     .timeout(Duration::from_secs(5));
/// assert_eq!(opts.max_attempts, 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ConnectOptions {
    /// Connection attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Sleep before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Read/write timeout applied to the connected socket; `None`
    /// blocks indefinitely.
    pub io_timeout: Option<Duration>,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ConnectOptions {
    /// Starts from the defaults; chain [`ConnectOptions::retries`],
    /// [`ConnectOptions::backoff`], [`ConnectOptions::timeout`] /
    /// [`ConnectOptions::no_timeout`] to adjust.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total connection attempts (clamped to ≥ 1).
    #[must_use]
    pub fn retries(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Backoff schedule: sleep `initial` before the second attempt,
    /// doubling up to `max`.
    #[must_use]
    pub fn backoff(mut self, initial: Duration, max: Duration) -> Self {
        self.initial_backoff = initial;
        self.max_backoff = max;
        self
    }

    /// Socket read/write timeout once connected.
    #[must_use]
    pub fn timeout(mut self, t: Duration) -> Self {
        self.io_timeout = Some(t);
        self
    }

    /// Block indefinitely on socket reads/writes.
    #[must_use]
    pub fn no_timeout(mut self) -> Self {
        self.io_timeout = None;
        self
    }
}

/// The buffered socket halves of one live session.
#[derive(Debug)]
struct Io {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A remote PipeStore handle. Holds at most one live session; when the
/// transport is lost (or the handle was detached into a
/// [`crate::rpc::Cluster`] worker), calls fail with
/// [`RpcError::PeerUnavailable`] until [`RemotePipeStore::reconnect`]
/// succeeds.
#[derive(Debug)]
pub struct RemotePipeStore {
    io: Option<Io>,
    peer: SocketAddr,
    opts: ConnectOptions,
    store_id: u64,
    features: u64,
    sent_bytes: u64,
    recv_bytes: u64,
    /// `Infer` requests written to the wire whose replies have not been
    /// collected yet (the pipelined in-flight window).
    pending: usize,
}

impl RemotePipeStore {
    /// Connects to a PipeStore server with the default
    /// [`ConnectOptions`] (retries transient failures with exponential
    /// backoff, then applies I/O timeouts) and performs the versioned
    /// `Hello` handshake.
    ///
    /// # Errors
    ///
    /// [`RpcError::PeerUnavailable`] once every attempt is exhausted,
    /// [`RpcError::ProtocolMismatch`] on version skew, or the server's
    /// refusal as [`RpcError::Remote`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemotePipeStore, RpcError> {
        Self::connect_with(addr, ConnectOptions::default())
    }

    /// Connects under an explicit policy; see [`ConnectOptions`].
    ///
    /// # Errors
    ///
    /// As [`RemotePipeStore::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: ConnectOptions,
    ) -> Result<RemotePipeStore, RpcError> {
        let label = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .map(|a| a.to_string())
            .unwrap_or_else(|| "<unresolved>".to_string());
        let attempts = opts.max_attempts.max(1);
        let mut backoff = opts.initial_backoff;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(opts.max_backoff);
                if telemetry::enabled() {
                    telemetry::global()
                        .counter(
                            "ndpipe_rpc_client_connect_retries_total",
                            "connection attempts beyond the first",
                        )
                        .inc();
                }
            }
            match TcpStream::connect(&addr) {
                Ok(stream) => match Self::open_session(stream, opts) {
                    Ok(remote) => return Ok(remote),
                    // Version skew and handshake refusals are permanent:
                    // retrying the same peer cannot fix them.
                    Err(RpcError::Io(e)) => last_err = Some(e),
                    Err(fatal) => return Err(fatal),
                },
                Err(e) => last_err = Some(e),
            }
        }
        Err(RpcError::PeerUnavailable {
            peer: label,
            attempts,
            source: last_err,
        })
    }

    /// Handshakes over a freshly connected socket.
    fn open_session(stream: TcpStream, opts: ConnectOptions) -> Result<RemotePipeStore, RpcError> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(opts.io_timeout)?;
        stream.set_write_timeout(opts.io_timeout)?;
        let peer = stream.peer_addr()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let sent = write_handshake(
            &mut writer,
            &Handshake::Hello {
                version: PROTOCOL_VERSION,
                features: CLIENT_FEATURES,
            },
        )? as u64;
        let (store_id, features) = match read_handshake(&mut reader)? {
            Handshake::Accept {
                version,
                features,
                store_id,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(RpcError::ProtocolMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
                (store_id, features)
            }
            Handshake::Reject { version, reason } => {
                return Err(if version != PROTOCOL_VERSION {
                    RpcError::ProtocolMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    }
                } else {
                    RpcError::Remote {
                        peer: peer.to_string(),
                        op: "hello",
                        msg: reason,
                    }
                });
            }
            Handshake::Hello { .. } => {
                return Err(RpcError::Protocol("unexpected hello from server"));
            }
        };
        Ok(RemotePipeStore {
            io: Some(Io { reader, writer }),
            peer,
            opts,
            store_id,
            features,
            sent_bytes: sent,
            recv_bytes: 0,
            pending: 0,
        })
    }

    /// A handle with no live session (used by the cluster layer for
    /// peers that were down at construction; calls fail with
    /// [`RpcError::PeerUnavailable`] until [`RemotePipeStore::reconnect`]).
    pub(crate) fn detached(peer: SocketAddr, opts: ConnectOptions) -> RemotePipeStore {
        RemotePipeStore {
            io: None,
            peer,
            opts,
            store_id: 0,
            features: 0,
            sent_bytes: 0,
            recv_bytes: 0,
            pending: 0,
        }
    }

    /// Whether a live session is attached.
    pub fn is_connected(&self) -> bool {
        self.io.is_some()
    }

    /// Drops the live session (e.g. after an I/O error), keeping the
    /// address and policy for a later [`RemotePipeStore::reconnect`].
    pub(crate) fn disconnect(&mut self) {
        self.io = None;
        // Replies for the old transport can never arrive now.
        self.pending = 0;
    }

    /// Re-dials the peer under the stored [`ConnectOptions`], replacing
    /// any previous session.
    ///
    /// # Errors
    ///
    /// As [`RemotePipeStore::connect`].
    pub fn reconnect(&mut self) -> Result<(), RpcError> {
        let fresh = Self::connect_with(self.peer, self.opts)?;
        let (sent, recv) = (self.sent_bytes, self.recv_bytes);
        *self = fresh;
        // Wire counters are cumulative across reconnects of this handle.
        self.sent_bytes += sent;
        self.recv_bytes += recv;
        Ok(())
    }

    /// The remote address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// The store id the server reported in its handshake `Accept`.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Feature bits the server offered in its handshake `Accept`.
    pub fn features(&self) -> u64 {
        self.features
    }

    /// Cumulative `(sent, received)` wire bytes over this handle,
    /// including frame headers — the honest traffic numbers the
    /// FT-DMP reports are built from.
    pub fn wire_totals(&self) -> (u64, u64) {
        (self.sent_bytes, self.recv_bytes)
    }

    /// Sends one request and reads its reply as `T` — the one blocking
    /// round-trip every typed method below is.
    ///
    /// # Errors
    ///
    /// Socket/framing errors, [`RpcError::Remote`] for an error reply,
    /// and [`RpcError::Protocol`] for a reply of another shape or while
    /// pipelined `Infer` replies are outstanding.
    pub fn call<T: FromReply>(&mut self, req: &Request) -> Result<T, RpcError> {
        if self.pending > 0 {
            // A blocking call would read a pipelined reply as its own.
            return Err(RpcError::Protocol(
                "pipelined infer replies outstanding; call finish_infer first",
            ));
        }
        let op = req.op_name();
        let peer = self.peer;
        let io = self.io.as_mut().ok_or(RpcError::PeerUnavailable {
            peer: peer.to_string(),
            attempts: 0,
            source: None,
        })?;
        let record = telemetry::enabled();
        let timer = record.then(|| {
            let m = telemetry::global();
            m.counter_with(
                "ndpipe_rpc_client_requests_total",
                &[("op", op)],
                "RPC calls issued by this process",
            )
            .inc();
            m.histogram_with(
                "ndpipe_rpc_client_op_seconds",
                &[("op", op)],
                "round-trip latency per operation",
            )
            .start_timer()
        });
        let sent = write_request(&mut io.writer, req)?;
        let (reply, received) = read_reply(&mut io.reader)?;
        self.sent_bytes += sent as u64;
        self.recv_bytes += received as u64;
        if let Some(t) = timer {
            t.observe_and_disarm();
            let m = telemetry::global();
            m.counter(
                "ndpipe_rpc_client_bytes_written_total",
                "request bytes put on the wire",
            )
            .add(sent as u64);
            m.counter(
                "ndpipe_rpc_client_bytes_read_total",
                "reply bytes read off the wire",
            )
            .add(received as u64);
        }
        match reply {
            Reply::Error(msg) => Err(RpcError::Remote {
                peer: peer.to_string(),
                op,
                msg,
            }),
            reply => reply.into_typed(),
        }
    }

    /// Installs a model replica on the remote store.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn install_model(&mut self, model: &Mlp) -> Result<(), RpcError> {
        self.call(&Request::InstallModel(model.to_bytes()))
    }

    /// Asks the store to extract features for pipeline run `run` of
    /// `n_run` over its own shard, returning `(features, labels)`.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn extract_features(
        &mut self,
        run: u32,
        n_run: u32,
    ) -> Result<(Tensor, Vec<usize>), RpcError> {
        self.call(&Request::ExtractSlice {
            node: self.store_id,
            run,
            n_run,
            mb: 0,
            n_mb: 1,
        })
    }

    /// Runs near-data offline inference; only `(photo, label)` pairs come
    /// back.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn offline_infer(&mut self) -> Result<Vec<(u64, u32)>, RpcError> {
        self.call(&Request::OfflineInfer)
    }

    /// Fetches the store's shard metadata: example/class counts plus the
    /// math policy and kernel family its FE paths run under.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn describe(&mut self) -> Result<ShardDesc, RpcError> {
        self.call(&Request::Describe)
    }

    /// Scrapes the store's telemetry registry: one point-in-time
    /// [`telemetry::Snapshot`] of every metric the store recorded.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn scrape(&mut self) -> Result<telemetry::Snapshot, RpcError> {
        self.call(&Request::Metrics)
    }

    /// Stores one replicated photo record on the remote store.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn put_photo(&mut self, rec: &PhotoRecord) -> Result<(), RpcError> {
        self.call(&Request::PutPhoto(rec.clone()))
    }

    /// Reads one photo record by id.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors (a missing photo is a remote
    /// error).
    pub fn get_photo(&mut self, id: u64) -> Result<PhotoRecord, RpcError> {
        self.call(&Request::GetPhoto(id))
    }

    /// Lists the photo ids the store holds, ascending.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn list_photos(&mut self) -> Result<Vec<u64>, RpcError> {
        self.call(&Request::ListPhotos)
    }

    /// Classifies one feature row on the remote store (one blocking
    /// round-trip). See [`RemotePipeStore::start_infer`] for the
    /// pipelined variant.
    ///
    /// # Errors
    ///
    /// Socket/protocol/remote errors.
    pub fn infer(&mut self, features: &[f32]) -> Result<u32, RpcError> {
        self.call(&Request::Infer {
            features: features.to_vec(),
        })
    }

    /// Queues one `Infer` on the wire without waiting for its reply,
    /// growing the in-flight window; collect the window with
    /// [`RemotePipeStore::finish_infer`]. Frames are buffered — the
    /// flush happens in `finish_infer`, so a whole window can leave in
    /// one segment.
    ///
    /// # Errors
    ///
    /// Socket/framing errors ([`RpcError::PeerUnavailable`] when
    /// detached).
    pub fn start_infer(&mut self, features: &[f32]) -> Result<(), RpcError> {
        let peer = self.peer;
        let io = self.io.as_mut().ok_or(RpcError::PeerUnavailable {
            peer: peer.to_string(),
            attempts: 0,
            source: None,
        })?;
        let req = Request::Infer {
            features: features.to_vec(),
        };
        let sent = write_request_noflush(&mut io.writer, &req)?;
        self.sent_bytes += sent as u64;
        self.pending += 1;
        if telemetry::enabled() {
            let m = telemetry::global();
            m.counter_with(
                "ndpipe_rpc_client_requests_total",
                &[("op", "infer")],
                "RPC calls issued by this process",
            )
            .inc();
            m.counter(
                "ndpipe_rpc_client_bytes_written_total",
                "request bytes put on the wire",
            )
            .add(sent as u64);
        }
        Ok(())
    }

    /// Requests queued by [`RemotePipeStore::start_infer`] whose replies
    /// have not been collected yet.
    pub fn pending_infers(&self) -> usize {
        self.pending
    }

    /// Flushes the queued window and collects every outstanding reply,
    /// in issue order.
    ///
    /// # Errors
    ///
    /// Transport errors drop the session (remaining replies can never
    /// arrive). A per-row remote error is reported as
    /// [`RpcError::Remote`] *after* the whole window has been drained,
    /// so the session stays usable.
    pub fn finish_infer(&mut self) -> Result<Vec<u32>, RpcError> {
        let peer = self.peer;
        let Some(io) = self.io.as_mut() else {
            self.pending = 0;
            return Err(RpcError::PeerUnavailable {
                peer: peer.to_string(),
                attempts: 0,
                source: None,
            });
        };
        let mut pending = std::mem::replace(&mut self.pending, 0);
        let mut recv_total = 0u64;
        let result = (|| -> Result<Vec<u32>, RpcError> {
            io.writer.flush()?;
            let mut out = Vec::with_capacity(pending);
            let mut first_remote: Option<RpcError> = None;
            while pending > 0 {
                let (reply, n) = read_reply(&mut io.reader)?;
                recv_total += n as u64;
                pending -= 1;
                match reply {
                    Reply::Error(msg) => {
                        if first_remote.is_none() {
                            first_remote = Some(RpcError::Remote {
                                peer: peer.to_string(),
                                op: "infer",
                                msg,
                            });
                        }
                    }
                    reply => out.push(reply.into_typed()?),
                }
            }
            match first_remote {
                Some(e) => Err(e),
                None => Ok(out),
            }
        })();
        self.recv_bytes += recv_total;
        if telemetry::enabled() {
            telemetry::global()
                .counter(
                    "ndpipe_rpc_client_bytes_read_total",
                    "reply bytes read off the wire",
                )
                .add(recv_total);
        }
        if matches!(result, Err(RpcError::Io(_)) | Err(RpcError::Protocol(_))) {
            // Transport state is unknown mid-stream; force a reconnect.
            self.disconnect();
        }
        result
    }

    /// Classifies many rows through the pipelined window: keeps up to
    /// `window` requests in flight per wave, returning the labels in
    /// row order. This is what makes the event-driven server's
    /// cross-session batching bite — many rows on the wire at once.
    ///
    /// # Errors
    ///
    /// As [`RemotePipeStore::finish_infer`].
    pub fn infer_pipelined(
        &mut self,
        rows: &[Vec<f32>],
        window: usize,
    ) -> Result<Vec<u32>, RpcError> {
        let window = window.max(1);
        let mut out = Vec::with_capacity(rows.len());
        for wave in rows.chunks(window) {
            for row in wave {
                self.start_infer(row)?;
            }
            out.extend(self.finish_infer()?);
        }
        Ok(out)
    }

    /// Ends the session without consuming the handle (the cluster layer
    /// reuses the handle for reconnects); the server side returns once
    /// it has acknowledged.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub(crate) fn end_session(&mut self) -> Result<(), RpcError> {
        if self.pending > 0 {
            // Drain any open window so the Shutdown ack isn't read as a
            // pipelined reply (best-effort; errors surface below if the
            // transport is really gone).
            let _ = self.finish_infer();
        }
        let r = self.call(&Request::Shutdown);
        self.io = None;
        r
    }

    /// Ends the session; the server returns after acknowledging.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn shutdown(mut self) -> Result<(), RpcError> {
        self.end_session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn connect_gives_up_after_bounded_attempts() {
        // Port 1 on localhost refuses immediately; the retry loop must
        // back off, then surface a structured PeerUnavailable.
        let opts = ConnectOptions::new()
            .retries(3)
            .backoff(Duration::from_millis(5), Duration::from_millis(10))
            .no_timeout();
        let t0 = Instant::now();
        match RemotePipeStore::connect_with("127.0.0.1:1", opts) {
            Err(RpcError::PeerUnavailable { peer, attempts, .. }) => {
                assert_eq!(attempts, 3);
                assert!(peer.contains("127.0.0.1:1"), "{peer}");
            }
            other => panic!("expected PeerUnavailable, got {other:?}"),
        }
        // Two backoffs happened: 5ms + 10ms at minimum.
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        let opts = ConnectOptions::new()
            .retries(0)
            .backoff(Duration::from_millis(1), Duration::from_millis(1))
            .no_timeout();
        assert_eq!(opts.max_attempts, 1);
        assert!(RemotePipeStore::connect_with("127.0.0.1:1", opts).is_err());
    }

    #[test]
    fn detached_handle_reports_peer_unavailable() {
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let mut r = RemotePipeStore::detached(peer, ConnectOptions::new().retries(1));
        assert!(!r.is_connected());
        match r.describe() {
            Err(RpcError::PeerUnavailable { attempts: 0, .. }) => {}
            other => panic!("expected PeerUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn builder_options_compose() {
        let o = ConnectOptions::new()
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(2))
            .no_timeout();
        assert_eq!(o.max_attempts, 2);
        assert!(o.io_timeout.is_none());
    }
}
