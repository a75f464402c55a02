//! Endpoints: one selector-style event loop multiplexing all channels bound
//! to one fabric port (paper Fig. 5).
//!
//! Netty's NIO selector blocks in `select()` until a registered channel has
//! a state change, then dispatches it. Here the event loop blocks on the
//! endpoint's port queue — the simulation equivalent of a `select()` over
//! all of this endpoint's sockets — then decodes and dispatches the frame on
//! the loop thread, exactly like a Netty event loop running its pipeline.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use fabric::{Net, NodeId, Packet, Payload, PortAddr};
use simt::sync::{Mutex, OnceCell};

use crate::channel::{ChannelCore, ChannelId};
use crate::client::TransportClient;
use crate::context::{RpcHandler, TransportConf};
use crate::error::NetzError;
use crate::message::Message;
use crate::pipeline::InboundAction;
use crate::transport::Transport;
use crate::wire::{Frame, Handshake, WireEvent, CONTROL_EVENT_BYTES};

pub(crate) struct EndpointInner {
    pub name: String,
    pub net: Net,
    pub node: NodeId,
    /// Control address: where peers send `Connect` (the boss loop).
    pub addr: PortAddr,
    /// Data address: where established channels send frames (worker loop).
    pub data_addr: PortAddr,
    pub conf: TransportConf,
    pub handler: Arc<dyn RpcHandler>,
    pub transport: Arc<dyn Transport>,
    channels: Mutex<BTreeMap<ChannelId, Arc<ChannelCore>>>,
    pending_connects: Mutex<BTreeMap<ChannelId, OnceCell<Result<Arc<ChannelCore>, NetzError>>>>,
    accepting: Mutex<bool>,
}

/// A bound endpoint: either a server (well-known port) or a client factory
/// (auto port). Cheap to clone.
#[derive(Clone)]
pub struct Endpoint {
    inner: Arc<EndpointInner>,
}

/// A handle that does not keep the endpoint alive. An endpoint owns its
/// transport, so anything the transport (or state it shares per process)
/// stores about the endpoint must be weak, or neither is ever freed.
#[derive(Clone)]
pub struct WeakEndpoint {
    inner: Weak<EndpointInner>,
}

impl WeakEndpoint {
    /// The endpoint, if an event loop or an owner still holds it.
    pub fn upgrade(&self) -> Option<Endpoint> {
        self.inner.upgrade().map(|inner| Endpoint { inner })
    }
}

impl Endpoint {
    pub(crate) fn start(
        name: String,
        net: Net,
        rx: fabric::net::PortRx,
        conf: TransportConf,
        handler: Arc<dyn RpcHandler>,
        transport: Arc<dyn Transport>,
    ) -> Endpoint {
        let addr = rx.addr();
        let node = addr.node;
        // Netty's boss/worker split: connection establishment is served by
        // its own loop so accepts never queue behind bulk data frames.
        let data_rx = net.bind_auto(node);
        let data_addr = data_rx.addr();
        let inner = Arc::new(EndpointInner {
            name: name.clone(),
            net,
            node,
            addr,
            data_addr,
            conf,
            handler,
            transport,
            channels: Mutex::new(BTreeMap::new()),
            pending_connects: Mutex::new(BTreeMap::new()),
            accepting: Mutex::new(true),
        });
        let ep = Endpoint { inner: inner.clone() };
        let boss_ep = ep.clone();
        simt::spawn_daemon(format!("netz-boss:{name}"), move || {
            boss_ep.event_loop(rx);
        });
        let worker_ep = ep.clone();
        simt::spawn_daemon(format!("netz-loop:{name}"), move || {
            worker_ep.event_loop(data_rx);
        });
        ep.inner.transport.clone().start(&ep);
        ep
    }

    /// A handle for state the endpoint itself (transitively) owns.
    pub fn downgrade(&self) -> WeakEndpoint {
        WeakEndpoint { inner: Arc::downgrade(&self.inner) }
    }

    /// Address peers connect to.
    pub fn addr(&self) -> PortAddr {
        self.inner.addr
    }

    /// Node this endpoint runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The fabric.
    pub fn net(&self) -> &Net {
        &self.inner.net
    }

    /// How long a request on this endpoint may wait for its reply
    /// ([`TransportConf::request_timeout_ns`]).
    pub fn request_timeout_ns(&self) -> u64 {
        self.inner.conf.request_timeout_ns
    }

    /// Endpoint name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Currently established channels.
    pub fn channels(&self) -> Vec<Arc<ChannelCore>> {
        self.inner.channels.lock().values().cloned().collect()
    }

    /// Look up a channel by id.
    pub fn channel(&self, id: ChannelId) -> Option<Arc<ChannelCore>> {
        self.inner.channels.lock().get(&id).cloned()
    }

    /// Open a channel to a remote endpoint and wrap it in a client.
    pub fn connect(&self, remote: PortAddr) -> Result<TransportClient, NetzError> {
        let (id, cell, request) = self.post_connect();
        self.inner.net.send(&self.inner.conf.stack, self.inner.node, remote, request);
        self.connected(id, remote, cell.take_timeout(self.inner.conf.connect_timeout_ns))
    }

    /// [`connect`](Endpoint::connect) without parking: `then` gets the
    /// client, or the failure, on the engine.
    pub fn connect_then(
        &self,
        remote: PortAddr,
        then: impl FnOnce(Result<TransportClient, NetzError>) + Send + 'static,
    ) {
        let (id, cell, request) = self.post_connect();
        let (ep, timeout) = (self.clone(), self.inner.conf.connect_timeout_ns);
        self.inner.net.send_then(
            &self.inner.conf.stack,
            self.inner.node,
            remote,
            request,
            move || {
                cell.take_timeout_then(timeout, move |r| then(ep.connected(id, remote, r)));
            },
        );
    }

    /// A fresh channel id, the cell its accept lands in, and the `Connect`
    /// request to send for it.
    fn post_connect(&self) -> (ChannelId, OnceCell<Result<Arc<ChannelCore>, NetzError>>, Payload) {
        let id = ChannelId::fresh();
        let cell: OnceCell<Result<Arc<ChannelCore>, NetzError>> = OnceCell::new();
        self.inner.pending_connects.lock().insert(id, cell.clone());
        let hs = self.inner.transport.handshake(self.inner.node);
        let request = Payload::control(
            WireEvent::Connect { channel: id, reply_to: self.inner.data_addr, handshake: hs },
            CONTROL_EVENT_BYTES,
        );
        (id, cell, request)
    }

    /// What a connect's wait ended with, as a client.
    fn connected(
        &self,
        id: ChannelId,
        remote: PortAddr,
        result: Option<Result<Arc<ChannelCore>, NetzError>>,
    ) -> Result<TransportClient, NetzError> {
        self.inner.pending_connects.lock().remove(&id);
        match result {
            Some(Ok(chan)) => Ok(TransportClient::new(chan, self.inner.conf)),
            Some(Err(e)) => Err(e),
            None => Err(NetzError::ConnectFailed(format!("timeout connecting to {remote}"))),
        }
    }

    /// Stop accepting, close every channel, and unbind the port (stops the
    /// event loop).
    pub fn shutdown(&self) {
        *self.inner.accepting.lock() = false;
        let chans: Vec<_> =
            std::mem::take(&mut *self.inner.channels.lock()).into_values().collect();
        for c in chans {
            c.close();
        }
        // Poison both loops; their PortRx recv unblocks and they exit.
        for addr in [self.inner.addr, self.inner.data_addr] {
            if self.inner.net.is_bound(addr) {
                self.inner.net.send(
                    &self.inner.conf.stack,
                    self.inner.node,
                    addr,
                    Payload::control(
                        WireEvent::Reject { channel: ChannelId(0), reason: "__shutdown".into() },
                        16,
                    ),
                );
            }
        }
    }

    fn event_loop(&self, rx: fabric::net::PortRx) {
        loop {
            let pkt = match rx.recv() {
                Ok(p) => p,
                Err(_) => break,
            };
            if !self.handle_packet(pkt) {
                break;
            }
        }
        rx.close();
    }

    /// Process one wire event; returns false to stop the loop.
    fn handle_packet(&self, pkt: Packet) -> bool {
        let Some(ev) = pkt.payload.value_as::<WireEvent>() else {
            return true; // foreign traffic on our port: ignore
        };
        match (*ev).clone() {
            WireEvent::Connect { channel, reply_to, handshake } => {
                self.on_connect(channel, reply_to, handshake);
            }
            WireEvent::Accept { channel, data_to, handshake } => {
                self.on_accept(channel, data_to, handshake);
            }
            WireEvent::Reject { channel, reason } => {
                if reason == "__shutdown" {
                    return false;
                }
                if let Some(cell) = self.inner.pending_connects.lock().remove(&channel) {
                    cell.put(Err(NetzError::ConnectFailed(reason)));
                }
            }
            WireEvent::Data { channel, frame } => {
                let chan = self.channel(channel);
                if let Some(chan) = chan {
                    self.on_frame(&chan, frame);
                }
            }
            WireEvent::Close { channel } => {
                let chan = self.inner.channels.lock().remove(&channel);
                if let Some(chan) = chan {
                    chan.closed_by_peer();
                    self.inner.handler.channel_inactive(&chan);
                }
            }
        }
        true
    }

    fn on_connect(&self, id: ChannelId, reply_to: PortAddr, peer_hs: Handshake) {
        if !*self.inner.accepting.lock() {
            let ev = WireEvent::Reject { channel: id, reason: "endpoint shut down".into() };
            self.inner.net.send(
                &self.inner.conf.stack,
                self.inner.node,
                reply_to,
                Payload::control(ev, CONTROL_EVENT_BYTES),
            );
            return;
        }
        let local_hs = self.inner.transport.handshake(self.inner.node);
        let chan = ChannelCore::new(
            id,
            self.inner.node,
            peer_hs.node,
            reply_to,
            self.inner.data_addr,
            self.inner.conf.stack,
            self.inner.net.clone(),
            local_hs,
            peer_hs,
        );
        self.inner.transport.configure(&chan);
        self.inner.channels.lock().insert(id, chan.clone());
        self.inner.handler.channel_active(&chan);
        chan.send_event(
            WireEvent::Accept { channel: id, data_to: self.inner.data_addr, handshake: local_hs },
            CONTROL_EVENT_BYTES,
        );
    }

    fn on_accept(&self, id: ChannelId, data_to: PortAddr, peer_hs: Handshake) {
        let Some(cell) = self.inner.pending_connects.lock().remove(&id) else {
            return; // late accept after timeout
        };
        let local_hs = self.inner.transport.handshake(self.inner.node);
        let chan = ChannelCore::new(
            id,
            self.inner.node,
            peer_hs.node,
            data_to,
            self.inner.data_addr,
            self.inner.conf.stack,
            self.inner.net.clone(),
            local_hs,
            peer_hs,
        );
        self.inner.transport.configure(&chan);
        self.inner.channels.lock().insert(id, chan.clone());
        self.inner.handler.channel_active(&chan);
        cell.put(Ok(chan));
    }

    /// Run the inbound pipeline on a frame, then dispatch the message.
    ///
    /// When tracing is on, the whole receive (pipeline + decode + dispatch)
    /// runs inside a `netz.msg.recv` span causally linked — via the span id
    /// carried in the header — to the peer's `netz.msg.send` span.
    fn on_frame(&self, chan: &Arc<ChannelCore>, frame: Frame) {
        let obs = self.inner.net.obs();
        let _span = obs.is_traced().then(|| {
            let link = Message::peek_span_id(&frame.header).unwrap_or(0);
            obs.tracer().span_linked(
                "netz.msg.recv",
                link,
                obs::kv! {"src" => chan.remote_node, "dst" => chan.local_node},
            )
        });
        let header_len = frame.header.len() as u64;
        let inbound = chan.pipeline.lock().inbound_handlers();
        let mut action = InboundAction::Forward(frame);
        for h in inbound {
            match action {
                InboundAction::Forward(f) => action = h.on_frame(chan, f),
                _ => break,
            }
        }
        let InboundAction::Forward(frame) = action else {
            return; // consumed by a handler
        };
        // A malformed frame is dropped (Netty would fire exceptionCaught).
        if let Ok(msg) = Message::decode(&frame.header, frame.body) {
            self.dispatch_received(chan, msg, header_len);
        }
    }

    /// Account a received message, then dispatch it — the one way a decoded
    /// message enters an endpoint. The socket frame path ends here, and so
    /// do the MPI transports' receive paths, which decode outside it: the
    /// Optimized design's body continuation once the MPI body lands, the
    /// Basic design's router threads for every message.
    ///
    /// Requests go to the handler / stream manager, responses to their
    /// registered callbacks.
    pub fn dispatch_received(&self, chan: &Arc<ChannelCore>, msg: Message, header_len: u64) {
        chan.note_received(header_len + msg.body_virtual_len());
        match msg {
            Message::RpcRequest { request_id, body } => {
                let reply_chan = chan.clone();
                self.inner.handler.receive(
                    chan,
                    body,
                    Box::new(move |res| {
                        let reply = match res {
                            Ok(p) => Message::RpcResponse { request_id, body: p },
                            Err(e) => Message::RpcFailure { request_id, error: e },
                        };
                        reply_chan.write(reply);
                    }),
                );
            }
            Message::OneWayMessage { body } => {
                self.inner.handler.receive_oneway(chan, body);
            }
            Message::ChunkFetchRequest { stream_id, chunk_index } => {
                let sm = self.inner.handler.stream_manager();
                self.inner.net.cpu(self.inner.node).execute(sm.chunk_fetch_cpu_ns());
                let reply = match sm.get_chunk(stream_id, chunk_index) {
                    Ok(body) => Message::ChunkFetchSuccess { stream_id, chunk_index, body },
                    Err(error) => Message::ChunkFetchFailure { stream_id, chunk_index, error },
                };
                chan.write(reply);
            }
            Message::StreamRequest { stream_id } => {
                let sm = self.inner.handler.stream_manager();
                let reply = match sm.open_stream(&stream_id) {
                    Ok(body) => {
                        Message::StreamResponse { stream_id, byte_count: body.virtual_len, body }
                    }
                    Err(error) => Message::StreamFailure { stream_id, error },
                };
                chan.write(reply);
            }
            Message::RpcResponse { request_id, body } => {
                if let Some(cb) = chan.take_rpc(request_id) {
                    cb(Ok(body));
                }
            }
            Message::RpcFailure { request_id, error } => {
                if let Some(cb) = chan.take_rpc(request_id) {
                    cb(Err(NetzError::Remote(error)));
                }
            }
            Message::ChunkFetchSuccess { stream_id, chunk_index, body } => {
                if let Some(cb) = chan.take_chunk((stream_id, chunk_index)) {
                    cb(Ok(body));
                }
            }
            Message::ChunkFetchFailure { stream_id, chunk_index, error } => {
                if let Some(cb) = chan.take_chunk((stream_id, chunk_index)) {
                    cb(Err(NetzError::Remote(error)));
                }
            }
            Message::StreamResponse { stream_id, body, .. } => {
                if let Some(cb) = chan.take_stream(&stream_id) {
                    cb(Ok(body));
                }
            }
            Message::StreamFailure { stream_id, error } => {
                if let Some(cb) = chan.take_stream(&stream_id) {
                    cb(Err(NetzError::Remote(error)));
                }
            }
        }
    }
}
