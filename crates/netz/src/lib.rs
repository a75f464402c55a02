//! # netz — an event-driven network application framework (Netty analog)
//!
//! Apache Spark communicates RPC and shuffle messages through Netty
//! (paper §II-C); MPI4Spark's whole contribution is a modification *inside*
//! this layer. `netz` therefore reproduces the pieces of Netty and of
//! Spark's `network-common` that the paper touches:
//!
//! * the message vocabulary of Spark's transport layer (paper Table II):
//!   `RpcRequest`/`RpcResponse`, `OneWayMessage`, `ChunkFetchRequest`/
//!   `ChunkFetchSuccess`, `StreamRequest`/`StreamResponse` and failures —
//!   see [`message`];
//! * the `MessageWithHeader` framing of paper Fig. 6 (length, type, body
//!   size in an encoded header; the body carried separately) — see
//!   [`message::Message::encode_header`];
//! * channels with unique [`ChannelId`]s, channel pipelines with inbound /
//!   outbound handlers (paper Figs. 5 and 7) — see [`pipeline`];
//! * event loops multiplexing many channels over one selector-like blocking
//!   receive — see [`endpoint`];
//! * a pluggable [`transport::Transport`]: the default
//!   [`transport::NioTransport`] moves every frame over the Java-sockets
//!   cost model, while the `mpi4spark` crate installs handlers that divert
//!   message bodies to MPI.
//!
//! The public entry point mirrors Spark: build a [`context::TransportContext`]
//! with an [`context::RpcHandler`], create servers and clients from it.

#![forbid(unsafe_code)]

pub mod buf;
pub mod channel;
pub mod client;
pub mod context;
pub mod endpoint;
pub mod error;
pub mod message;
pub mod pipeline;
pub mod retry;
pub mod transport;
pub mod wire;

pub use buf::{ByteReader, ByteWriter};
pub use channel::{ChannelCore, ChannelId};
pub use client::TransportClient;
pub use context::{NoOpRpcHandler, RpcHandler, StreamManager, TransportConf, TransportContext};
pub use endpoint::{Endpoint, WeakEndpoint};
pub use error::NetzError;
pub use message::Message;
pub use pipeline::{
    InboundAction, InboundHandler, OutboundAction, OutboundHandler, Pipeline, Then,
};
pub use retry::RetryPolicy;
pub use transport::{NioTransport, Transport};
pub use wire::{CommKind, Frame, Handshake, WireEvent};
