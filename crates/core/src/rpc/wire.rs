//! Frame format: `[u32 len][u8 tag][payload]`, all little-endian.
//!
//! Sessions open with a versioned [`Handshake`]: the client sends
//! `Hello` (protocol version + feature bits), the server answers
//! `Accept` (version + features + store id) or `Reject`. Peers speaking
//! a different protocol revision fail fast with a structured
//! [`RpcError::ProtocolMismatch`] instead of a mid-stream decode error.

use crate::placement::PlacementMap;
use crate::rpc::RpcError;
use std::borrow::Cow;
use std::io::{Read, Write};
use telemetry::codec::{put_f32s, put_u32, put_u64, Reader};
use tensor::linalg::KernelFamily;
use tensor::{MathPolicy, Tensor};

/// Hard cap on a single frame (guards against garbage length prefixes).
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Wire protocol revision. Bump on any frame-layout change; the
/// handshake refuses mismatched peers before any payload moves.
/// v2: `ShardInfo` carries the store's math policy and kernel family.
/// v3: `ExtractSlice` is the only extraction request (tags 2 and 14,
/// the whole-run and replica-run extracts, are retired).
/// v4: `InstallHead` ships the classifier head alone to a store that
/// holds the prefix it was trained on.
pub const PROTOCOL_VERSION: u32 = 4;

/// Feature bit: the peer serves telemetry scrapes (`Metrics`).
pub const FEATURE_METRICS: u64 = 1 << 0;
/// Feature bit: the peer applies Check-N-Run deltas (`ApplyDelta`).
pub const FEATURE_DELTAS: u64 = 1 << 1;
/// Feature bit: the peer serves concurrent sessions (PipeStoreServer).
pub const FEATURE_MULTI_SESSION: u64 = 1 << 2;

/// One replicated photo as it moves between PipeStores: the original
/// blob plus the *already-compressed* chunked-DEFLATE preprocessed
/// sidecar, so replication and rebalance ride the existing codec
/// instead of re-preprocessing at the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhotoRecord {
    /// Stable photo id (the placement key).
    pub id: u64,
    /// Ground-truth class at upload time.
    pub class: u32,
    /// Upload day (drives the labeldb outdated-label bookkeeping).
    pub day: u32,
    /// Uncompressed length of the preprocessed binary inside `sidecar`.
    pub preproc_bytes: u32,
    /// The original photo blob.
    pub blob: Vec<u8>,
    /// Chunked-DEFLATE compressed preprocessed binary.
    pub sidecar: Vec<u8>,
}

impl PhotoRecord {
    /// Bytes this record puts on the wire (blob + sidecar payloads),
    /// the quantity the rebalance rate limiter budgets.
    pub fn transfer_bytes(&self) -> u64 {
        self.blob.len() as u64 + self.sidecar.len() as u64
    }

    fn encode_into(&self, p: &mut Vec<u8>) {
        put_u64(p, self.id);
        put_u32(p, self.class);
        put_u32(p, self.day);
        put_u32(p, self.preproc_bytes);
        put_u32(p, self.blob.len() as u32);
        p.extend_from_slice(&self.blob);
        put_u32(p, self.sidecar.len() as u32);
        p.extend_from_slice(&self.sidecar);
    }

    fn decode_from(c: &mut Reader<'_>) -> Result<Self, RpcError> {
        let id = c.u64()?;
        let class = c.u32()?;
        let day = c.u32()?;
        let preproc_bytes = c.u32()?;
        let n = c.count(1)?;
        let blob = c.take(n)?.to_vec();
        let n = c.count(1)?;
        let sidecar = c.take(n)?.to_vec();
        Ok(PhotoRecord {
            id,
            class,
            day,
            preproc_bytes,
            blob,
            sidecar,
        })
    }
}

/// Requests the Tuner sends to a PipeStore.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Install a full model replica (serialized `Mlp`).
    InstallModel(Vec<u8>),
    /// Install a classifier head on the held weight-freeze prefix. The
    /// store takes it only when its prefix has `prefix_digest`
    /// ([`dnn::Mlp::prefix_digest`]) and the head is as wide as its
    /// features; any other store answers [`Reply::Error`].
    InstallHead {
        /// Digest of the prefix the head was trained on.
        prefix_digest: u64,
        /// The head, as [`dnn::Mlp::head_to_bytes`] encodes it.
        head: Vec<u8>,
    },
    /// Run offline inference over the local shard.
    OfflineInfer,
    /// Apply a Check-N-Run delta to the local replica.
    ApplyDelta(Vec<u8>),
    /// Report shard metadata.
    Describe,
    /// Scrape the store's telemetry registry.
    Metrics,
    /// Classify one feature row with the store's published model
    /// snapshot. The event-driven server coalesces `Infer` requests from
    /// *different* sessions into one batched forward (cross-session
    /// dynamic batching); the reply is a single [`Reply::Label`].
    Infer {
        /// One feature row, model-input-width floats.
        features: Vec<f32>,
    },
    /// Fetch the placement map the store currently holds.
    Placement,
    /// Publish an epoch-numbered placement map. Stores accept only
    /// epochs at or above the one they hold (monotone), so a delayed
    /// publish cannot roll placement backwards.
    InstallPlacement(PlacementMap),
    /// Store one replicated photo record (write-path replication and
    /// rebalance copies both land here).
    PutPhoto(PhotoRecord),
    /// Read one photo record by id (read-failover walks the replica
    /// set with this).
    GetPhoto(u64),
    /// List the photo ids this store holds (rebalance planning).
    ListPhotos,
    /// The one extraction op: micro-batch `mb` of `n_mb` within run `run`
    /// of `n_run`, over node `node`'s shard (the store's own when `node`
    /// is its id, otherwise a replica — so it is the pipelined extract,
    /// the straggler steal and the dead-owner reroute alike; `mb: 0,
    /// n_mb: 1` extracts a whole run).
    ExtractSlice {
        /// Whose shard to extract (a placement node id).
        node: u64,
        /// Zero-based run index.
        run: u32,
        /// Total pipeline runs.
        n_run: u32,
        /// Zero-based micro-batch index within the run slice.
        mb: u32,
        /// Total micro-batches the run slice splits into.
        n_mb: u32,
    },
    /// Report shard metadata for node `node` (own shard or a held
    /// replica) — how the pipelined scheduler sizes micro-batch counts
    /// for shards it must steal.
    DescribeNode(u64),
    /// Close the session.
    Shutdown,
}

impl Request {
    /// Stable operation name, used as the `op` metric label on both
    /// sides of the wire.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::InstallModel(_) => "install_model",
            Request::InstallHead { .. } => "install_head",
            Request::OfflineInfer => "offline_infer",
            Request::ApplyDelta(_) => "apply_delta",
            Request::Describe => "describe",
            Request::Metrics => "metrics",
            Request::Infer { .. } => "infer",
            Request::Placement => "placement",
            Request::InstallPlacement(_) => "install_placement",
            Request::PutPhoto(_) => "put_photo",
            Request::GetPhoto(_) => "get_photo",
            Request::ListPhotos => "list_photos",
            Request::ExtractSlice { .. } => "extract_slice",
            Request::DescribeNode(_) => "describe_node",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Shard metadata reported by `Describe`/`DescribeNode`: how much data
/// the store holds for that node plus the numerical contract it is
/// extracting features under. The Tuner uses `examples`/`classes` to
/// size micro-batches and `math`/`kernel` to verify a fleet runs a
/// uniform policy before mixing features from different stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDesc {
    /// Local examples for the described node.
    pub examples: u64,
    /// Label-space size.
    pub classes: u32,
    /// The [`MathPolicy`] the store's FE paths run under.
    pub math: MathPolicy,
    /// The kernel family that policy dispatches to on the store's host.
    pub kernel: KernelFamily,
}

/// Replies a PipeStore sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Plain acknowledgment.
    Ack,
    /// Extracted features plus their labels.
    Features {
        /// `[rows, dim]` feature matrix.
        features: Tensor,
        /// One label per row.
        labels: Vec<u32>,
    },
    /// Offline-inference output: `(photo index, label)` pairs.
    Labels(Vec<(u64, u32)>),
    /// Shard metadata ([`ShardDesc`]).
    ShardInfo(ShardDesc),
    /// A telemetry snapshot of the store's registry.
    Metrics(telemetry::Snapshot),
    /// The predicted class for one [`Request::Infer`] row.
    Label(u32),
    /// The placement map a store holds ([`Request::Placement`]).
    Placement(PlacementMap),
    /// One photo record ([`Request::GetPhoto`]).
    Photo(PhotoRecord),
    /// The photo ids a store holds ([`Request::ListPhotos`]),
    /// ascending.
    PhotoIds(Vec<u64>),
    /// The store failed to handle the request.
    Error(String),
}

/// The Rust value one [`Reply`] shape carries — the one place that says
/// which shape answers which request. Any other shape is `None`; a type
/// with no impl cannot be asked for, so a new `Reply` variant is
/// unreachable from client code until it gets one.
pub trait FromReply: Sized {
    /// `reply` as `Self`, or `None` when it has another shape.
    fn from_reply(reply: Reply) -> Option<Self>;
}

impl Reply {
    /// This reply as `T`; any other shape is a protocol violation.
    ///
    /// # Errors
    ///
    /// [`RpcError::Protocol`] when the shape does not convert to `T`.
    pub fn into_typed<T: FromReply>(self) -> Result<T, RpcError> {
        T::from_reply(self).ok_or(RpcError::Protocol("unexpected reply shape"))
    }
}

/// Any shape, untyped (the cluster's peer workers forward it as is).
impl FromReply for Reply {
    fn from_reply(reply: Reply) -> Option<Self> {
        Some(reply)
    }
}

/// Implements [`FromReply`] for each `type: shape => value` row.
macro_rules! from_reply {
    ($($ty:ty: $shape:pat => $value:expr;)*) => {$(
        impl FromReply for $ty {
            fn from_reply(reply: Reply) -> Option<Self> {
                match reply {
                    $shape => Some($value),
                    _ => None,
                }
            }
        }
    )*};
}

from_reply! {
    (): Reply::Ack => ();
    // Labels widen to class indices.
    (Tensor, Vec<usize>): Reply::Features { features, labels } =>
        (features, labels.into_iter().map(|l| l as usize).collect());
    Vec<(u64, u32)>: Reply::Labels(pairs) => pairs;
    ShardDesc: Reply::ShardInfo(desc) => desc;
    telemetry::Snapshot: Reply::Metrics(snapshot) => snapshot;
    u32: Reply::Label(label) => label;
    PlacementMap: Reply::Placement(map) => map;
    PhotoRecord: Reply::Photo(rec) => rec;
    Vec<u64>: Reply::PhotoIds(ids) => ids;
}

/// Session-opening frames. A session is exactly one `Hello` from the
/// connecting Tuner answered by one `Accept` or `Reject` from the store;
/// only then does the request/reply stream begin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    /// Client greeting: protocol revision and the features it can use.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Feature bits the client understands.
        features: u64,
    },
    /// Server acceptance: the session may proceed.
    Accept {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Feature bits the server offers.
        features: u64,
        /// Stable identity of the PipeStore behind this socket.
        store_id: u64,
    },
    /// Server refusal; the connection closes after this frame.
    Reject {
        /// The server's [`PROTOCOL_VERSION`] so the client can tell a
        /// version skew from an operational refusal (e.g. session cap).
        version: u32,
        /// Human-readable refusal reason.
        reason: String,
    },
}

const TAG_INSTALL: u8 = 1;
const TAG_INFER: u8 = 3;
const TAG_DELTA: u8 = 4;
const TAG_DESCRIBE: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_METRICS_REQ: u8 = 7;
const TAG_INFER_ROW: u8 = 8;
const TAG_PLACEMENT_REQ: u8 = 9;
const TAG_INSTALL_PLACEMENT: u8 = 10;
const TAG_PUT_PHOTO: u8 = 11;
const TAG_GET_PHOTO: u8 = 12;
const TAG_LIST_PHOTOS: u8 = 13;
const TAG_EXTRACT_SLICE: u8 = 15;
const TAG_DESCRIBE_NODE: u8 = 16;
const TAG_INSTALL_HEAD: u8 = 17;
const TAG_HELLO: u8 = 32;
const TAG_ACCEPT: u8 = 33;
const TAG_REJECT: u8 = 34;
const TAG_ACK: u8 = 64;
const TAG_FEATURES: u8 = 65;
const TAG_LABELS: u8 = 66;
const TAG_SHARD_INFO: u8 = 67;
const TAG_METRICS: u8 = 68;
const TAG_LABEL: u8 = 69;
const TAG_PLACEMENT: u8 = 70;
const TAG_PHOTO: u8 = 71;
const TAG_PHOTO_IDS: u8 = 72;
const TAG_ERROR: u8 = 127;

/// Decodes a whole payload with `f`, refusing trailing bytes.
fn decode_all<T>(
    payload: &[u8],
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, RpcError>,
) -> Result<T, RpcError> {
    let mut c = Reader::new(payload);
    let value = f(&mut c)?;
    c.finish()?;
    Ok(value)
}

impl Request {
    /// The frame tag and payload. Model and delta blobs are borrowed, so
    /// a request shared by many peers is not copied once per frame.
    pub(crate) fn encode_body(&self) -> (u8, Cow<'_, [u8]>) {
        let (tag, payload) = match self {
            Request::InstallModel(m) => return (TAG_INSTALL, Cow::Borrowed(m)),
            Request::InstallHead {
                prefix_digest,
                head,
            } => {
                let mut p = Vec::with_capacity(8 + head.len());
                put_u64(&mut p, *prefix_digest);
                p.extend_from_slice(head);
                (TAG_INSTALL_HEAD, p)
            }
            Request::OfflineInfer => (TAG_INFER, Vec::new()),
            Request::ApplyDelta(d) => return (TAG_DELTA, Cow::Borrowed(d)),
            Request::Describe => (TAG_DESCRIBE, Vec::new()),
            Request::Metrics => (TAG_METRICS_REQ, Vec::new()),
            Request::Infer { features } => {
                let mut p = Vec::with_capacity(4 + features.len() * 4);
                put_u32(&mut p, features.len() as u32);
                put_f32s(&mut p, features);
                (TAG_INFER_ROW, p)
            }
            Request::Placement => (TAG_PLACEMENT_REQ, Vec::new()),
            Request::InstallPlacement(map) => (TAG_INSTALL_PLACEMENT, map.to_bytes()),
            Request::PutPhoto(rec) => {
                let mut p = Vec::new();
                rec.encode_into(&mut p);
                (TAG_PUT_PHOTO, p)
            }
            Request::GetPhoto(id) => (TAG_GET_PHOTO, id.to_le_bytes().to_vec()),
            Request::ListPhotos => (TAG_LIST_PHOTOS, Vec::new()),
            Request::ExtractSlice {
                node,
                run,
                n_run,
                mb,
                n_mb,
            } => {
                let mut p = Vec::with_capacity(24);
                put_u64(&mut p, *node);
                for v in [run, n_run, mb, n_mb] {
                    put_u32(&mut p, *v);
                }
                (TAG_EXTRACT_SLICE, p)
            }
            Request::DescribeNode(node) => (TAG_DESCRIBE_NODE, node.to_le_bytes().to_vec()),
            Request::Shutdown => (TAG_SHUTDOWN, Vec::new()),
        };
        (tag, Cow::Owned(payload))
    }

    pub(crate) fn decode_body(tag: u8, payload: &[u8]) -> Result<Request, RpcError> {
        match tag {
            TAG_INSTALL => Ok(Request::InstallModel(payload.to_vec())),
            TAG_INSTALL_HEAD => decode_all(payload, |c| {
                Ok(Request::InstallHead {
                    prefix_digest: c.u64()?,
                    head: c.rest().to_vec(),
                })
            }),
            TAG_INFER => Ok(Request::OfflineInfer),
            TAG_DELTA => Ok(Request::ApplyDelta(payload.to_vec())),
            TAG_DESCRIBE => Ok(Request::Describe),
            TAG_METRICS_REQ => Ok(Request::Metrics),
            TAG_INFER_ROW => decode_all(payload, |c| {
                let n = c.count(4)?;
                Ok(Request::Infer {
                    features: c.f32s(n)?,
                })
            }),
            TAG_PLACEMENT_REQ => Ok(Request::Placement),
            TAG_INSTALL_PLACEMENT => PlacementMap::from_bytes(payload)
                .map(Request::InstallPlacement)
                .map_err(|_| RpcError::Protocol("corrupt placement map")),
            TAG_PUT_PHOTO => decode_all(payload, |c| {
                PhotoRecord::decode_from(c).map(Request::PutPhoto)
            }),
            TAG_GET_PHOTO => decode_all(payload, |c| Ok(Request::GetPhoto(c.u64()?))),
            TAG_LIST_PHOTOS => Ok(Request::ListPhotos),
            // Struct-literal fields evaluate in source order, which is
            // the wire order.
            TAG_EXTRACT_SLICE => decode_all(payload, |c| {
                Ok(Request::ExtractSlice {
                    node: c.u64()?,
                    run: c.u32()?,
                    n_run: c.u32()?,
                    mb: c.u32()?,
                    n_mb: c.u32()?,
                })
            }),
            TAG_DESCRIBE_NODE => decode_all(payload, |c| Ok(Request::DescribeNode(c.u64()?))),
            TAG_SHUTDOWN => Ok(Request::Shutdown),
            _ => Err(RpcError::Protocol("unknown request tag")),
        }
    }
}

impl Reply {
    pub(crate) fn encode_body(&self) -> (u8, Vec<u8>) {
        match self {
            Reply::Ack => (TAG_ACK, Vec::new()),
            Reply::Features { features, labels } => {
                // A non-2D tensor is a caller bug; encode (0, 0) so the
                // peer rejects the frame instead of panicking here.
                let (rows, cols) = match *features.dims() {
                    [r, c] => (r, c),
                    _ => (0, 0),
                };
                let mut p = Vec::with_capacity(12 + 4 * (features.data().len() + labels.len()));
                put_u32(&mut p, rows as u32);
                put_u32(&mut p, cols as u32);
                put_f32s(&mut p, features.data());
                put_u32(&mut p, labels.len() as u32);
                for &l in labels {
                    put_u32(&mut p, l);
                }
                (TAG_FEATURES, p)
            }
            Reply::Labels(pairs) => {
                let mut p = Vec::with_capacity(4 + pairs.len() * 12);
                put_u32(&mut p, pairs.len() as u32);
                for &(id, label) in pairs {
                    put_u64(&mut p, id);
                    put_u32(&mut p, label);
                }
                (TAG_LABELS, p)
            }
            Reply::ShardInfo(desc) => {
                let mut p = Vec::with_capacity(14);
                put_u64(&mut p, desc.examples);
                put_u32(&mut p, desc.classes);
                p.push(desc.math.to_u8());
                p.push(desc.kernel.to_u8());
                (TAG_SHARD_INFO, p)
            }
            Reply::Metrics(snapshot) => (TAG_METRICS, snapshot.to_bytes()),
            Reply::Label(label) => (TAG_LABEL, label.to_le_bytes().to_vec()),
            Reply::Placement(map) => (TAG_PLACEMENT, map.to_bytes()),
            Reply::Photo(rec) => {
                let mut p = Vec::new();
                rec.encode_into(&mut p);
                (TAG_PHOTO, p)
            }
            Reply::PhotoIds(ids) => {
                let mut p = Vec::with_capacity(4 + ids.len() * 8);
                put_u32(&mut p, ids.len() as u32);
                for &id in ids {
                    put_u64(&mut p, id);
                }
                (TAG_PHOTO_IDS, p)
            }
            Reply::Error(msg) => (TAG_ERROR, msg.as_bytes().to_vec()),
        }
    }

    pub(crate) fn decode_body(tag: u8, payload: &[u8]) -> Result<Reply, RpcError> {
        match tag {
            TAG_ACK => Ok(Reply::Ack),
            TAG_FEATURES => decode_all(payload, |c| {
                let rows = c.u32()? as usize;
                let dim = c.u32()? as usize;
                if rows == 0 || dim == 0 {
                    return Err(RpcError::Protocol("empty feature matrix"));
                }
                // Checked arithmetic: a crafted frame must not wrap the
                // element count into a small number that parses.
                let n = rows
                    .checked_mul(dim)
                    .ok_or(RpcError::Protocol("feature matrix too large"))?;
                let data = c.f32s(n)?;
                if c.count(4)? != rows {
                    return Err(RpcError::Protocol("label count mismatch"));
                }
                let mut labels = Vec::with_capacity(rows);
                for _ in 0..rows {
                    labels.push(c.u32()?);
                }
                Ok(Reply::Features {
                    features: Tensor::from_vec(data, &[rows, dim]),
                    labels,
                })
            }),
            TAG_LABELS => decode_all(payload, |c| {
                let n = c.count(12)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((c.u64()?, c.u32()?));
                }
                Ok(Reply::Labels(pairs))
            }),
            TAG_SHARD_INFO => decode_all(payload, |c| {
                let examples = c.u64()?;
                let classes = c.u32()?;
                let math = MathPolicy::from_u8(c.u8()?)
                    .ok_or(RpcError::Protocol("unknown math policy"))?;
                let kernel = KernelFamily::from_u8(c.u8()?)
                    .ok_or(RpcError::Protocol("unknown kernel family"))?;
                Ok(Reply::ShardInfo(ShardDesc {
                    examples,
                    classes,
                    math,
                    kernel,
                }))
            }),
            TAG_METRICS => telemetry::Snapshot::from_bytes(payload)
                .map(Reply::Metrics)
                .map_err(RpcError::Protocol),
            TAG_LABEL => decode_all(payload, |c| Ok(Reply::Label(c.u32()?))),
            TAG_PLACEMENT => PlacementMap::from_bytes(payload)
                .map(Reply::Placement)
                .map_err(|_| RpcError::Protocol("corrupt placement map")),
            TAG_PHOTO => decode_all(payload, |c| PhotoRecord::decode_from(c).map(Reply::Photo)),
            TAG_PHOTO_IDS => decode_all(payload, |c| {
                let n = c.count(8)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(c.u64()?);
                }
                Ok(Reply::PhotoIds(ids))
            }),
            TAG_ERROR => Ok(Reply::Error(String::from_utf8_lossy(payload).into_owned())),
            _ => Err(RpcError::Protocol("unknown reply tag")),
        }
    }
}

impl Handshake {
    pub(crate) fn encode_body(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::with_capacity(20);
        match self {
            Handshake::Hello { version, features } => {
                put_u32(&mut p, *version);
                put_u64(&mut p, *features);
                (TAG_HELLO, p)
            }
            Handshake::Accept {
                version,
                features,
                store_id,
            } => {
                put_u32(&mut p, *version);
                put_u64(&mut p, *features);
                put_u64(&mut p, *store_id);
                (TAG_ACCEPT, p)
            }
            Handshake::Reject { version, reason } => {
                put_u32(&mut p, *version);
                p.extend_from_slice(reason.as_bytes());
                (TAG_REJECT, p)
            }
        }
    }

    pub(crate) fn decode_body(tag: u8, payload: &[u8]) -> Result<Handshake, RpcError> {
        decode_all(payload, |c| match tag {
            TAG_HELLO => Ok(Handshake::Hello {
                version: c.u32()?,
                features: c.u64()?,
            }),
            TAG_ACCEPT => Ok(Handshake::Accept {
                version: c.u32()?,
                features: c.u64()?,
                store_id: c.u64()?,
            }),
            TAG_REJECT => Ok(Handshake::Reject {
                version: c.u32()?,
                reason: String::from_utf8_lossy(c.rest()).into_owned(),
            }),
            _ => Err(RpcError::Protocol("expected handshake frame")),
        })
    }
}

/// Writes a handshake frame, returning the bytes put on the wire.
///
/// # Errors
///
/// Socket or framing errors.
pub fn write_handshake<W: Write>(w: &mut W, hs: &Handshake) -> Result<usize, RpcError> {
    let (tag, payload) = hs.encode_body();
    write_frame(w, tag, &payload)
}

/// Reads a handshake frame. Any non-handshake tag is a protocol error —
/// a pre-handshake peer fails here with a clear message rather than a
/// mid-stream decode failure.
///
/// # Errors
///
/// Socket or framing errors.
pub fn read_handshake<R: Read>(r: &mut R) -> Result<Handshake, RpcError> {
    let (tag, payload) = read_frame(r)?;
    Handshake::decode_body(tag, &payload)
}

/// Frame header bytes: `[u32 len][u8 tag]`.
const HEADER: usize = 5;

/// The header for `payload`, refusing one above [`MAX_FRAME`].
fn frame_header(tag: u8, payload: &[u8]) -> Result<[u8; HEADER], RpcError> {
    if payload.len() > MAX_FRAME {
        return Err(RpcError::Protocol("frame too large"));
    }
    let [l0, l1, l2, l3] = (payload.len() as u32).to_le_bytes();
    Ok([l0, l1, l2, l3, tag])
}

/// `(tag, payload length)` from a header, refusing a length above
/// [`MAX_FRAME`] before anything is allocated for it.
fn parse_header(head: [u8; HEADER]) -> Result<(u8, usize), RpcError> {
    let [l0, l1, l2, l3, tag] = head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME {
        return Err(RpcError::Protocol("frame too large"));
    }
    Ok((tag, len))
}

fn write_frame_noflush<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<usize, RpcError> {
    w.write_all(&frame_header(tag, payload)?)?;
    w.write_all(payload)?;
    Ok(HEADER + payload.len())
}

fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<usize, RpcError> {
    let n = write_frame_noflush(w, tag, payload)?;
    w.flush()?;
    Ok(n)
}

fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), RpcError> {
    let mut head = [0u8; HEADER];
    r.read_exact(&mut head)?;
    let (tag, len) = parse_header(head)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((tag, payload))
}

/// Serializes one complete frame (`[u32 len][u8 tag][payload]`) into an
/// owned buffer. The event-driven server's workers encode replies with
/// this and hand the bytes to the event thread for nonblocking writes.
pub(crate) fn frame_bytes(tag: u8, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
    let head = frame_header(tag, payload)?;
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&head);
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental frame decoder for nonblocking sockets.
///
/// Bytes arrive in arbitrary chunks via [`FrameDecoder::feed`]; complete
/// frames drain out of [`FrameDecoder::next_frame`] as `(tag, payload)`.
/// The decoder produces *exactly* the same frame sequence as the
/// blocking [`read_frame`] path regardless of how reads were sliced
/// (property-tested below). A length prefix above [`MAX_FRAME`] is a
/// sticky protocol error: the session must be torn down, since the
/// byte stream can no longer be trusted.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by drained frames; compacted
    /// lazily so a burst of small frames doesn't memmove per frame.
    pos: usize,
}

impl FrameDecoder {
    /// Fresh decoder with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly-read socket bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: drained prefix space is reused instead
        // of letting the buffer creep.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet drained as frames.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`RpcError::Protocol`] when the length prefix exceeds
    /// [`MAX_FRAME`]; the connection is unrecoverable after that.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, RpcError> {
        let avail = self.buf.get(self.pos..).unwrap_or(&[]);
        let Some(head) = avail.get(..HEADER).and_then(|h| h.try_into().ok()) else {
            return Ok(None);
        };
        let (tag, len) = parse_header(head)?;
        let Some(payload) = avail.get(HEADER..HEADER + len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.pos += HEADER + len;
        Ok(Some((tag, payload)))
    }
}

/// Writes a request frame, returning the bytes put on the wire.
///
/// # Errors
///
/// Socket or framing errors.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<usize, RpcError> {
    let (tag, payload) = req.encode_body();
    write_frame(w, tag, &payload)
}

/// Writes a request frame without flushing the writer, so a pipelining
/// client can queue a whole window of requests and flush once.
///
/// # Errors
///
/// Socket or framing errors.
pub(crate) fn write_request_noflush<W: Write>(w: &mut W, req: &Request) -> Result<usize, RpcError> {
    let (tag, payload) = req.encode_body();
    write_frame_noflush(w, tag, &payload)
}

/// Reads a request frame, returning it with the bytes consumed.
///
/// # Errors
///
/// Socket or framing errors.
pub fn read_request<R: Read>(r: &mut R) -> Result<(Request, usize), RpcError> {
    let (tag, payload) = read_frame(r)?;
    let n = HEADER + payload.len();
    Ok((Request::decode_body(tag, &payload)?, n))
}

/// Writes a reply frame, returning the bytes put on the wire.
///
/// # Errors
///
/// Socket or framing errors.
pub fn write_reply<W: Write>(w: &mut W, reply: &Reply) -> Result<usize, RpcError> {
    let (tag, payload) = reply.encode_body();
    write_frame(w, tag, &payload)
}

/// Reads a reply frame (with the bytes consumed). `Error` replies come
/// back as [`Reply::Error`]; the client layer converts them into
/// [`RpcError::Remote`] enriched with the peer address and operation.
///
/// # Errors
///
/// Socket or framing errors.
pub fn read_reply<R: Read>(r: &mut R) -> Result<(Reply, usize), RpcError> {
    let (tag, payload) = read_frame(r)?;
    let n = HEADER + payload.len();
    Ok((Reply::decode_body(tag, &payload)?, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        let wrote = write_request(&mut buf, &req).expect("write");
        assert_eq!(wrote, buf.len(), "write_request reports wire bytes");
        let (back, read) = read_request(&mut buf.as_slice()).expect("read");
        assert_eq!(back, req);
        assert_eq!(read, buf.len(), "read_request reports wire bytes");
    }

    fn roundtrip_reply(reply: Reply) {
        let mut buf = Vec::new();
        let wrote = write_reply(&mut buf, &reply).expect("write");
        assert_eq!(wrote, buf.len(), "write_reply reports wire bytes");
        let (back, read) = read_reply(&mut buf.as_slice()).expect("read");
        assert_eq!(back, reply);
        assert_eq!(read, buf.len(), "read_reply reports wire bytes");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::InstallModel(vec![1, 2, 3]));
        roundtrip_req(Request::InstallHead {
            prefix_digest: u64::MAX - 1,
            head: vec![4, 5, 6],
        });
        roundtrip_req(Request::InstallHead {
            prefix_digest: 0,
            head: Vec::new(),
        });
        // A whole run of the store's own shard is one micro-batch of one.
        roundtrip_req(Request::ExtractSlice {
            node: 0,
            run: 2,
            n_run: 3,
            mb: 0,
            n_mb: 1,
        });
        roundtrip_req(Request::OfflineInfer);
        roundtrip_req(Request::ApplyDelta(vec![9; 100]));
        roundtrip_req(Request::Describe);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Infer {
            features: vec![0.5, -1.25, f32::MAX, 0.0],
        });
        roundtrip_req(Request::Infer { features: vec![] });
        roundtrip_req(Request::Shutdown);
    }

    /// Protocol v3 retired the whole-run (2) and replica-run (14)
    /// extraction tags; a v2 frame must be refused, not misparsed.
    #[test]
    fn retired_extraction_tags_are_unknown() {
        for tag in [2u8, 14] {
            assert!(matches!(
                Request::decode_body(tag, &[0; 16]),
                Err(RpcError::Protocol("unknown request tag"))
            ));
        }
    }

    fn sample_record() -> PhotoRecord {
        PhotoRecord {
            id: 42,
            class: 3,
            day: 7,
            preproc_bytes: 1024,
            blob: vec![5; 96],
            sidecar: vec![9; 33],
        }
    }

    #[test]
    fn placement_ops_roundtrip() {
        let mut map = crate::placement::PlacementMap::new(&[0, 1, 2, 3], 2).expect("map");
        map.mark_down(1).expect("known node");
        roundtrip_req(Request::Placement);
        roundtrip_req(Request::InstallPlacement(map.clone()));
        roundtrip_req(Request::PutPhoto(sample_record()));
        roundtrip_req(Request::GetPhoto(u64::MAX));
        roundtrip_req(Request::ListPhotos);
        roundtrip_req(Request::ExtractSlice {
            node: 9,
            run: 1,
            n_run: 4,
            mb: 0,
            n_mb: 1,
        });
        roundtrip_req(Request::ExtractSlice {
            node: 3,
            run: 1,
            n_run: 4,
            mb: 2,
            n_mb: 8,
        });
        roundtrip_req(Request::DescribeNode(u64::MAX));
        roundtrip_reply(Reply::Placement(map));
        roundtrip_reply(Reply::Photo(sample_record()));
        roundtrip_reply(Reply::PhotoIds(vec![1, 2, 3, u64::MAX]));
        roundtrip_reply(Reply::PhotoIds(Vec::new()));
    }

    #[test]
    fn truncated_photo_record_rejected() {
        let req = Request::PutPhoto(sample_record());
        let (tag, full) = req.encode_body();
        for cut in 0..full.len() {
            assert!(
                Request::decode_body(tag, &full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Trailing garbage is a protocol error too.
        let mut padded = full.into_owned();
        padded.push(0);
        assert!(Request::decode_body(tag, &padded).is_err());
    }

    #[test]
    fn corrupt_placement_payload_is_a_protocol_error() {
        assert!(matches!(
            Request::decode_body(TAG_INSTALL_PLACEMENT, &[1, 2, 3]),
            Err(RpcError::Protocol("corrupt placement map"))
        ));
        assert!(matches!(
            Reply::decode_body(TAG_PLACEMENT, &[0; 7]),
            Err(RpcError::Protocol("corrupt placement map"))
        ));
    }

    /// A count prefix that claims more elements than the payload can
    /// hold is refused before anything is sized from it. The 9-byte
    /// `Labels` frame once asked the allocator for 64 GiB and aborted
    /// the decoding process.
    #[test]
    fn overclaimed_counts_are_protocol_errors() {
        fn overclaimed<T>(r: Result<T, RpcError>) -> bool {
            matches!(r, Err(RpcError::Protocol("count larger than payload")))
        }
        let mut frame = Vec::new();
        put_u32(&mut frame, 4);
        frame.push(TAG_LABELS);
        put_u32(&mut frame, u32::MAX);
        assert_eq!(frame.len(), 9);
        assert!(overclaimed(read_reply(&mut frame.as_slice())));

        let claim = |n: u32, tail: &[u8]| {
            let mut p = Vec::new();
            put_u32(&mut p, n);
            p.extend_from_slice(tail);
            p
        };
        // An Infer row of 2 floats claiming 3, and one claiming 2^32 - 1.
        for n in [3, u32::MAX] {
            let row = claim(n, &[0; 8]);
            assert!(overclaimed(Request::decode_body(TAG_INFER_ROW, &row)));
        }
        // One id's worth of bytes behind a u32::MAX count.
        let ids = claim(u32::MAX, &[0; 8]);
        assert!(overclaimed(Reply::decode_body(TAG_PHOTO_IDS, &ids)));

        // Snapshot: the sample count, then one sample's label count,
        // then one histogram's bucket count.
        let samples = claim(u32::MAX, &[0; 21]);
        let sample_head = |n_labels: u32| {
            let mut p = claim(1, &[]);
            telemetry::codec::put_str(&mut p, "h");
            telemetry::codec::put_str(&mut p, "");
            put_u32(&mut p, n_labels);
            p
        };
        let mut labels = sample_head(u32::MAX);
        labels.extend_from_slice(&[0; 16]);
        let mut buckets = sample_head(0);
        buckets.push(2);
        buckets.extend_from_slice(&[0; 32]);
        put_u32(&mut buckets, u32::MAX);
        buckets.extend_from_slice(&[0; 16]);
        for p in [samples, labels, buckets] {
            assert!(overclaimed(Reply::decode_body(TAG_METRICS, &p)));
        }
    }

    #[test]
    fn label_reply_roundtrips() {
        roundtrip_reply(Reply::Label(0));
        roundtrip_reply(Reply::Label(u32::MAX));
    }

    #[test]
    fn metrics_reply_roundtrips_a_real_registry() {
        let reg = telemetry::Registry::new();
        reg.counter_with(
            telemetry::catalog::RPC_SERVER_REQUESTS_TOTAL,
            &[("op", "describe")],
        )
        .add(4);
        reg.histogram(telemetry::catalog::RPC_SERVER_OP_SECONDS)
            .observe(0.003);
        let snap = reg.snapshot();
        roundtrip_reply(Reply::Metrics(snap.clone()));

        // And over a simulated wire the decoded snapshot still answers
        // queries.
        let mut buf = Vec::new();
        write_reply(&mut buf, &Reply::Metrics(snap)).expect("write");
        match read_reply(&mut buf.as_slice()).expect("read").0 {
            Reply::Metrics(back) => {
                assert_eq!(
                    back.counter_value("ndpipe_rpc_server_requests_total"),
                    Some(4)
                );
            }
            other => panic!("expected metrics reply, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_metrics_payload_is_a_protocol_error() {
        assert!(matches!(
            Reply::decode_body(TAG_METRICS, &[1, 2, 3]),
            Err(RpcError::Protocol(_))
        ));
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::Ack);
        roundtrip_reply(Reply::Features {
            features: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            labels: vec![0, 1],
        });
        roundtrip_reply(Reply::Labels(vec![(7, 3), (9, 0)]));
        roundtrip_reply(Reply::ShardInfo(ShardDesc {
            examples: 123,
            classes: 10,
            math: MathPolicy::Fast,
            kernel: KernelFamily::Avx512,
        }));
    }

    #[test]
    fn shard_info_rejects_unknown_policy_bytes() {
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u32(&mut p, 2);
        p.push(99); // no such MathPolicy
        p.push(0);
        assert!(matches!(
            Reply::decode_body(TAG_SHARD_INFO, &p),
            Err(RpcError::Protocol("unknown math policy"))
        ));
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u32(&mut p, 2);
        p.push(0);
        p.push(99); // no such KernelFamily
        assert!(matches!(
            Reply::decode_body(TAG_SHARD_INFO, &p),
            Err(RpcError::Protocol("unknown kernel family"))
        ));
    }

    #[test]
    fn remote_error_reply_roundtrips() {
        let mut buf = Vec::new();
        write_reply(&mut buf, &Reply::Error("shard missing".into())).expect("write");
        match read_reply(&mut buf.as_slice()) {
            Ok((Reply::Error(msg), _)) => assert!(msg.contains("shard missing")),
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    #[test]
    fn handshake_roundtrips() {
        for hs in [
            Handshake::Hello {
                version: PROTOCOL_VERSION,
                features: FEATURE_METRICS | FEATURE_DELTAS,
            },
            Handshake::Accept {
                version: PROTOCOL_VERSION,
                features: FEATURE_METRICS | FEATURE_DELTAS | FEATURE_MULTI_SESSION,
                store_id: 7,
            },
            Handshake::Reject {
                version: 2,
                reason: "session cap reached".into(),
            },
        ] {
            let mut buf = Vec::new();
            let wrote = write_handshake(&mut buf, &hs).expect("write");
            assert_eq!(wrote, buf.len());
            let back = read_handshake(&mut buf.as_slice()).expect("read");
            assert_eq!(back, hs);
        }
    }

    #[test]
    fn pre_handshake_request_is_a_clear_error() {
        // An old-protocol peer that skips the handshake and sends a
        // request first must fail fast, not misparse.
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Describe).expect("write");
        assert!(matches!(
            read_handshake(&mut buf.as_slice()),
            Err(RpcError::Protocol("expected handshake frame"))
        ));
    }

    #[test]
    fn truncated_handshake_rejected() {
        assert!(Handshake::decode_body(TAG_ACCEPT, &[1, 2, 3]).is_err());
        assert!(Handshake::decode_body(TAG_HELLO, &[0; 11]).is_err());
        // Reject with an empty reason is fine (version survives).
        match Handshake::decode_body(TAG_REJECT, &9u32.to_le_bytes()) {
            Ok(Handshake::Reject { version, reason }) => {
                assert_eq!(version, 9);
                assert!(reason.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(TAG_ACK);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(RpcError::Protocol("frame too large"))
        ));
    }

    #[test]
    fn overflowing_feature_dims_rejected() {
        // rows * dim * 4 would wrap; must be a protocol error, not a
        // misparse.
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        put_u32(&mut p, u32::MAX);
        let r = Reply::decode_body(TAG_FEATURES, &p);
        assert!(r.is_err(), "wrapped dimensions accepted: {r:?}");
    }

    #[test]
    fn label_count_mismatch_rejected() {
        // Hand-craft a Features payload with inconsistent counts.
        let mut p = Vec::new();
        put_u32(&mut p, 2);
        put_u32(&mut p, 1);
        p.extend_from_slice(&1.0f32.to_le_bytes());
        p.extend_from_slice(&2.0f32.to_le_bytes());
        put_u32(&mut p, 1); // wrong: 2 rows but 1 label
        put_u32(&mut p, 0);
        assert!(Reply::decode_body(TAG_FEATURES, &p).is_err());
    }

    /// Drains every complete frame currently buffered in `dec`.
    fn drain(dec: &mut FrameDecoder) -> Vec<(u8, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("decode") {
            out.push(f);
        }
        out
    }

    #[test]
    fn decoder_matches_blocking_codec_byte_at_a_time() {
        let reqs = vec![
            Request::Describe,
            Request::Infer {
                features: vec![1.0, 2.0, 3.0],
            },
            Request::InstallModel(vec![7; 33]),
            Request::Shutdown,
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            write_request(&mut wire, r).expect("write");
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            got.extend(drain(&mut dec));
        }
        let back: Vec<Request> = got
            .into_iter()
            .map(|(tag, p)| Request::decode_body(tag, &p).expect("decode body"))
            .collect();
        assert_eq!(back, reqs);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        dec.feed(&[TAG_ACK]);
        assert!(matches!(
            dec.next_frame(),
            Err(RpcError::Protocol("frame too large"))
        ));
    }

    #[test]
    fn decoder_holds_partial_frames() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::ApplyDelta(vec![1; 64])).expect("write");
        let mut dec = FrameDecoder::new();
        let (head, tail) = wire.split_at(wire.len() - 1);
        dec.feed(head);
        assert!(dec.next_frame().expect("partial").is_none());
        dec.feed(tail);
        let (tag, p) = dec.next_frame().expect("full").expect("frame");
        assert_eq!(
            Request::decode_body(tag, &p).expect("body"),
            Request::ApplyDelta(vec![1; 64])
        );
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_request() -> impl Strategy<Value = Request> {
            prop_oneof![
                Just(Request::Describe),
                Just(Request::Metrics),
                Just(Request::OfflineInfer),
                Just(Request::Shutdown),
                proptest::collection::vec(any::<u8>(), 0..256).prop_map(Request::InstallModel),
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256)).prop_map(
                    |(prefix_digest, head)| Request::InstallHead {
                        prefix_digest,
                        head
                    }
                ),
                proptest::collection::vec(any::<u8>(), 0..256).prop_map(Request::ApplyDelta),
                proptest::collection::vec(-1e6f32..1e6, 0..64)
                    .prop_map(|features| Request::Infer { features }),
                Just(Request::Placement),
                Just(Request::ListPhotos),
                any::<u64>().prop_map(Request::GetPhoto),
                (any::<u64>(), 0u32..8, 1u32..8, 0u32..8, 1u32..8).prop_map(
                    |(node, run, n_run, mb, n_mb)| Request::ExtractSlice {
                        node,
                        run,
                        n_run,
                        mb,
                        n_mb
                    }
                ),
                any::<u64>().prop_map(Request::DescribeNode),
                (
                    any::<u64>(),
                    0u32..1000,
                    0u32..4000,
                    proptest::collection::vec(any::<u8>(), 0..128),
                    proptest::collection::vec(any::<u8>(), 0..128),
                )
                    .prop_map(|(id, class, day, blob, sidecar)| {
                        let preproc_bytes = sidecar.len() as u32 * 3;
                        Request::PutPhoto(PhotoRecord {
                            id,
                            class,
                            day,
                            preproc_bytes,
                            blob,
                            sidecar,
                        })
                    }),
            ]
        }

        proptest! {
            /// Satellite: interleaved partial-frame reads across many
            /// sessions decode to exactly what the blocking codec wrote,
            /// per session, in order — regardless of chunk boundaries.
            #[test]
            fn interleaved_sessions_decode_identically(
                sessions in proptest::collection::vec(
                    proptest::collection::vec(arb_request(), 1..8), 2..6),
                chunk_sizes in proptest::collection::vec(1usize..48, 1..64),
                seed in any::<u64>(),
            ) {
                // Encode each session's stream with the blocking writer.
                let wires: Vec<Vec<u8>> = sessions.iter().map(|reqs| {
                    let mut w = Vec::new();
                    for r in reqs {
                        write_request(&mut w, r).expect("write");
                    }
                    w
                }).collect();

                // Interleave: round-robin with pseudorandom chunk sizes,
                // each session owning its own decoder (as the event loop
                // does).
                let mut offsets = vec![0usize; wires.len()];
                let mut decs: Vec<FrameDecoder> =
                    wires.iter().map(|_| FrameDecoder::new()).collect();
                let mut outs: Vec<Vec<Request>> = wires.iter().map(|_| Vec::new()).collect();
                let mut rr = seed as usize;
                let mut ci = 0usize;
                while offsets.iter().zip(&wires).any(|(o, w)| *o < w.len()) {
                    let s = rr % wires.len();
                    rr = rr.wrapping_mul(6364136223846793005).wrapping_add(1) >> 3;
                    let (off, wire) = (&mut offsets[s], &wires[s]);
                    if *off >= wire.len() {
                        continue;
                    }
                    let n = chunk_sizes[ci % chunk_sizes.len()].min(wire.len() - *off);
                    ci += 1;
                    decs[s].feed(&wire[*off..*off + n]);
                    *off += n;
                    while let Some((tag, p)) = decs[s].next_frame().expect("decode") {
                        outs[s].push(Request::decode_body(tag, &p).expect("body"));
                    }
                }
                prop_assert_eq!(outs, sessions);
                for d in &decs {
                    prop_assert_eq!(d.pending_bytes(), 0);
                }
            }

            /// Satellite: malformed bytes must surface as a structured
            /// error (`RpcError::Protocol`) or an incomplete-frame stall —
            /// never a panic, and never a silently misparsed frame that
            /// decodes to garbage without a diagnostic.
            #[test]
            fn malformed_frames_yield_structured_errors(
                junk in proptest::collection::vec(any::<u8>(), 0..512),
                chunk in 1usize..32,
            ) {
                let mut dec = FrameDecoder::new();
                for c in junk.chunks(chunk) {
                    dec.feed(c);
                    loop {
                        match dec.next_frame() {
                            Ok(Some((tag, p))) => {
                                // A frame parsed out of junk is fine only
                                // if its body decode gives a structured
                                // verdict; both arms below are Results,
                                // so a panic here fails the test.
                                let _ = Request::decode_body(tag, &p);
                                let _ = Reply::decode_body(tag, &p);
                            }
                            Ok(None) => break,
                            Err(RpcError::Protocol(msg)) => {
                                prop_assert!(!msg.is_empty());
                                return Ok(());
                            }
                            Err(e) => return Err(TestCaseError::Fail(format!("{e:?}"))),
                        }
                    }
                }
            }
        }
    }
}
