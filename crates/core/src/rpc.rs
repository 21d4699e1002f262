//! Wire protocol and TCP transport for a *genuinely distributed* NDPipe:
//! PipeStores serve their shard over a socket, the Tuner drives them
//! remotely. This is the deployment shape of the paper's artifact ("the
//! evaluation needs two or more machines ... matching the port number on
//! the Tuner side").
//!
//! - [`wire`] — length-prefixed, tagged frames whose little-endian
//!   payloads go through [`telemetry::codec`] (no external
//!   serialization crates),
//!   including the versioned [`wire::Handshake`] that opens every session,
//! - [`server`] — [`server::PipeStoreServer`]: an event-driven
//!   (poll-based) front door around a [`crate::PipeStore`] — nonblocking
//!   sockets, incremental frame decode, a worker pool off the event
//!   thread, and cross-session dynamic batching of
//!   [`wire::Request::Infer`] rows,
//! - [`sys`] — the tiny `poll(2)`/self-pipe shim the server's event
//!   loop stands on (no external crates),
//! - [`client`] — [`client::RemotePipeStore`]: the Tuner's handle to one
//!   remote store, now with a pipelined in-flight request window,
//! - [`cluster`] — [`cluster::Cluster`]: the Tuner's control plane over a
//!   fleet: one worker thread per peer, parallel fan-out, per-peer retry
//!   and a [`cluster::FailurePolicy`] so a flaky peer doesn't abort the
//!   round.

pub mod client;
pub mod cluster;
pub mod server;
pub mod sys;
pub mod wire;

pub use client::{ConnectOptions, RemotePipeStore};
pub use cluster::{
    Cluster, ClusterBuilder, ClusterError, ClusterFtdmpReport, ClusterMetrics, FailurePolicy,
    Fanout, PeerFailure, PeerResult, RebalanceConfig, RebalanceReport,
};
pub use server::{PipeStoreServer, ServerConfig};

/// Errors on the RPC path, structured so failover logic can `match`
/// instead of string-sniffing.
#[derive(Debug)]
pub enum RpcError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame violated the protocol.
    Protocol(&'static str),
    /// The peer reported an application-level failure for one operation.
    Remote {
        /// Peer address the failure came from.
        peer: String,
        /// Operation that failed (`Request::op_name` or `"hello"`).
        op: &'static str,
        /// The peer's error message.
        msg: String,
    },
    /// The peer speaks a different wire-protocol revision.
    ProtocolMismatch {
        /// Our [`wire::PROTOCOL_VERSION`].
        ours: u32,
        /// The peer's version.
        theirs: u32,
    },
    /// The peer could not be reached (connect attempts exhausted, or the
    /// handle is detached) — the canonical "this store is down" signal.
    PeerUnavailable {
        /// Peer address (or the connect string when unresolvable).
        peer: String,
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last socket error, when one was observed.
        source: Option<std::io::Error>,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "rpc i/o error: {e}"),
            RpcError::Protocol(s) => write!(f, "rpc protocol violation: {s}"),
            RpcError::Remote { peer, op, msg } => {
                write!(f, "remote pipestore error ({peer}, {op}): {msg}")
            }
            RpcError::ProtocolMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: ours v{ours}, peer speaks v{theirs}"
            ),
            RpcError::PeerUnavailable {
                peer,
                attempts,
                source,
            } => match source {
                Some(e) => write!(
                    f,
                    "peer {peer} unavailable after {attempts} attempt(s): {e}"
                ),
                None => write!(f, "peer {peer} unavailable after {attempts} attempt(s)"),
            },
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Io(e) => Some(e),
            RpcError::PeerUnavailable {
                source: Some(e), ..
            } => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

impl From<telemetry::codec::Error> for RpcError {
    fn from(e: telemetry::codec::Error) -> Self {
        RpcError::Protocol(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(RpcError::Protocol("bad tag")
            .to_string()
            .contains("bad tag"));
        let remote = RpcError::Remote {
            peer: "10.0.0.1:7401".into(),
            op: "apply_delta",
            msg: "boom".into(),
        };
        let s = remote.to_string();
        assert!(s.contains("boom") && s.contains("10.0.0.1:7401") && s.contains("apply_delta"));
        let mismatch = RpcError::ProtocolMismatch { ours: 1, theirs: 3 };
        assert!(mismatch.to_string().contains("v3"));
        let down = RpcError::PeerUnavailable {
            peer: "10.0.0.2:7401".into(),
            attempts: 5,
            source: None,
        };
        assert!(down.to_string().contains("5 attempt"));
    }

    #[test]
    fn failover_code_can_match_structured_variants() {
        // The point of the redesign: no string-sniffing required.
        let e = RpcError::PeerUnavailable {
            peer: "x".into(),
            attempts: 1,
            source: None,
        };
        assert!(matches!(e, RpcError::PeerUnavailable { .. }));
        let e = RpcError::ProtocolMismatch { ours: 1, theirs: 2 };
        assert!(matches!(
            e,
            RpcError::ProtocolMismatch { ours: 1, theirs: 2 }
        ));
    }
}
