//! Pluggable transports.
//!
//! Netty selects a transport implementation (NIO, epoll, ...) under a stable
//! channel/pipeline API; the paper adds an MPI transport at exactly this
//! seam (Fig. 2: "a new MPI transport (Netty+MPI) that uses MPI Java
//! bindings"). Here the seam is the [`Transport`] trait: the default
//! [`NioTransport`] leaves the default socket encode/decode paths in place,
//! while `mpi4spark::transport::{MpiTransportBasic, MpiTransportOptimized}`
//! build a pipeline of handlers and, for Basic, a receive loop per
//! communicator.

use fabric::NodeId;

use std::sync::Arc;

use crate::channel::ChannelCore;
use crate::endpoint::Endpoint;
use crate::pipeline::Pipeline;
use crate::wire::{CommKind, Handshake};

/// A transport implementation.
pub trait Transport: Send + Sync + 'static {
    /// Short name for reports (`nio`, `mpi-basic`, `mpi-optimized`).
    fn name(&self) -> &'static str;

    /// Identity this side presents during connection establishment. MPI
    /// transports return their rank and communicator kind here — the
    /// paper's rank + communicator-type-byte exchange (§VI-B).
    fn handshake(&self, node: NodeId) -> Handshake {
        Handshake { node, mpi_rank: None, comm: CommKind::None }
    }

    /// Called once when an endpoint starts: returns the handler pipeline
    /// that every channel of the endpoint shares (its handlers keep no
    /// per-channel state). MPI transports also start their polling model
    /// here.
    fn start(&self, endpoint: &Endpoint) -> Pipeline {
        let _ = endpoint;
        Pipeline::new()
    }

    /// Admit a newly established channel of `endpoint` before it serves
    /// anything (MPI transports check the peer's rank; Basic routes the
    /// channel's MPI envelopes).
    fn configure(&self, endpoint: &Endpoint, chan: &Arc<ChannelCore>) {
        let _ = (endpoint, chan);
    }
}

/// The default transport: Netty NIO over Java sockets. Everything —
/// headers and bodies — moves on the socket path; no extra handlers.
pub struct NioTransport;

impl Transport for NioTransport {
    fn name(&self) -> &'static str {
        "nio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nio_handshake_is_rankless() {
        let hs = NioTransport.handshake(3);
        assert_eq!(hs.node, 3);
        assert_eq!(hs.mpi_rank, None);
        assert_eq!(hs.comm, CommKind::None);
    }
}
