//! `TransportContext` and the server-side application interfaces
//! (`RpcHandler`, `StreamManager`) — mirrors Spark's `network-common`
//! equivalents: every component in a Spark cluster creates its Netty clients
//! and servers through a `TransportContext` (paper §II-C).

use std::sync::Arc;

use fabric::{Net, NodeId, Payload, StackModel};

use crate::channel::ChannelCore;
use crate::endpoint::Endpoint;
use crate::transport::{NioTransport, Transport};

/// Reply hook handed to [`RpcHandler::receive`]; call it exactly once.
pub type RpcResponseCallback = Box<dyn FnOnce(Result<Payload, String>) + Send>;

/// Server-side RPC dispatch (Spark's `RpcHandler`).
///
/// Every method runs on the endpoint's event loop (or the Basic design's MPI
/// receive loop), a continuation on the engine, so none may block.
pub trait RpcHandler: Send + Sync {
    /// Handle a two-way RPC; `reply` sends the `RpcResponse`/`RpcFailure`.
    /// Hand anything that blocks to a worker mailbox. A reply made before
    /// this returns holds the endpoint's port until its write is booked; one
    /// made later, from a green thread, is that thread's blocking write.
    fn receive(&self, chan: &Arc<ChannelCore>, body: Payload, reply: RpcResponseCallback);

    /// Handle a fire-and-forget RPC.
    fn receive_oneway(&self, chan: &Arc<ChannelCore>, body: Payload) {
        let _ = (chan, body);
    }

    /// The stream manager serving chunk fetches and stream opens.
    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        Arc::new(NoStreams)
    }

    /// A channel finished establishment.
    fn channel_active(&self, chan: &Arc<ChannelCore>) {
        let _ = chan;
    }

    /// A channel was torn down.
    fn channel_inactive(&self, chan: &Arc<ChannelCore>) {
        let _ = chan;
    }

    /// A crash window opened on `node`: every channel to it has just been
    /// reset (each through [`channel_inactive`](RpcHandler::channel_inactive)).
    /// Called once per endpoint and crash.
    fn peer_lost(&self, node: NodeId) {
        let _ = node;
    }
}

/// Serves chunk and stream data (Spark's `StreamManager`, registered by the
/// shuffle service; one stream per `OpenBlocks` RPC, one chunk per block).
/// Called on the endpoint's event loop, like [`RpcHandler`]: no method may
/// block.
pub trait StreamManager: Send + Sync {
    /// Fetch one chunk of a registered stream.
    fn get_chunk(&self, stream_id: u64, chunk_index: u32) -> Result<Payload, String>;

    /// Open a named stream (jar/file distribution).
    fn open_stream(&self, stream_id: &str) -> Result<Payload, String> {
        Err(format!("no stream registered for '{stream_id}'"))
    }

    /// CPU cost of locating and mapping a chunk (block-manager lookup).
    fn chunk_fetch_cpu_ns(&self) -> u64 {
        2_000
    }
}

/// Stream manager that serves nothing.
pub struct NoStreams;

impl StreamManager for NoStreams {
    fn get_chunk(&self, stream_id: u64, chunk_index: u32) -> Result<Payload, String> {
        Err(format!("no chunk {chunk_index} in stream {stream_id}"))
    }
}

/// RPC handler that rejects everything (client-only endpoints).
pub struct NoOpRpcHandler;

impl RpcHandler for NoOpRpcHandler {
    fn receive(&self, _chan: &Arc<ChannelCore>, _body: Payload, reply: RpcResponseCallback) {
        reply(Err("endpoint does not accept RPCs".to_string()));
    }
}

/// Transport-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TransportConf {
    /// Socket-path cost model (the MPI transports still use it for
    /// connection establishment and headers).
    pub stack: StackModel,
    /// Connection establishment timeout (ns).
    pub connect_timeout_ns: u64,
    /// Request/response timeout (ns).
    pub request_timeout_ns: u64,
}

impl TransportConf {
    /// Defaults: Java-sockets stack, 120 s connect and request timeouts
    /// (Spark's `spark.network.timeout` default covers both).
    pub fn default_sockets() -> Self {
        TransportConf {
            stack: StackModel::java_sockets_ipoib(),
            connect_timeout_ns: simt::time::secs(120),
            request_timeout_ns: simt::time::secs(120),
        }
    }
}

/// Factory for servers and client endpoints sharing one handler, transport,
/// and configuration.
pub struct TransportContext {
    conf: TransportConf,
    handler: Arc<dyn RpcHandler>,
    transport: Arc<dyn Transport>,
    net: Net,
}

impl TransportContext {
    /// Context with the default NIO (pure socket) transport.
    pub fn new(net: Net, conf: TransportConf, handler: Arc<dyn RpcHandler>) -> Self {
        Self::with_transport(net, conf, handler, Arc::new(NioTransport))
    }

    /// Context with a custom transport (the MPI4Spark designs plug in here).
    pub fn with_transport(
        net: Net,
        conf: TransportConf,
        handler: Arc<dyn RpcHandler>,
        transport: Arc<dyn Transport>,
    ) -> Self {
        TransportContext { conf, handler, transport, net }
    }

    /// The configuration.
    pub fn conf(&self) -> TransportConf {
        self.conf
    }

    /// The fabric.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Create a server endpoint bound to a well-known port on `node`.
    pub fn create_server(&self, name: impl Into<String>, node: NodeId, port: u64) -> Endpoint {
        Endpoint::start(
            name.into(),
            self.net.clone(),
            self.net.bind(node, port),
            self.conf,
            self.handler.clone(),
            self.transport.clone(),
        )
    }

    /// Create a client endpoint (auto-assigned port) on `node`.
    pub fn create_client_endpoint(&self, name: impl Into<String>, node: NodeId) -> Endpoint {
        Endpoint::start(
            name.into(),
            self.net.clone(),
            self.net.bind_auto(node),
            self.conf,
            self.handler.clone(),
            self.transport.clone(),
        )
    }
}
