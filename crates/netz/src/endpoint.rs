//! Endpoints: one selector-style event loop multiplexing all channels bound
//! to one fabric port (paper Fig. 5).
//!
//! Netty's NIO selector blocks in `select()` until a registered channel has
//! a state change, then dispatches it. Here the event loop is the chain of
//! engine continuations that serves the endpoint's port
//! ([`fabric::net::PortRx::serve`]) — the simulation equivalent of a
//! `select()` over all of this endpoint's sockets. It decodes and dispatches
//! one frame at a time, exactly like a Netty event loop running its pipeline:
//! the next frame waits until this one's work, its reply included, is booked.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, Weak};

use fabric::{Net, NextPacket, NodeId, Packet, Payload, PortAddr};
use simt::cpu::Done;
use simt::sync::{Mutex, OnceCell};

use crate::channel::{ChanStats, ChannelCore, ChannelId};
use crate::client::TransportClient;
use crate::context::{RpcHandler, TransportConf};
use crate::error::NetzError;
use crate::message::Message;
use crate::pipeline::{InboundAction, Pipeline, Then};
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
    /// The pipeline the transport built at start, shared by every channel.
    pipeline: OnceLock<Arc<Pipeline>>,
    /// Traffic counters, resolved once and shared by every channel.
    stats: Arc<ChanStats>,
    channels: Mutex<BTreeMap<ChannelId, Arc<ChannelCore>>>,
    /// One client per remote address (Spark's `TransportClientFactory` pool,
    /// `numConnectionsPerPeer` = 1).
    clients: Mutex<BTreeMap<PortAddr, Pooled>>,
    pending_connects: Mutex<BTreeMap<ChannelId, OnceCell<Result<Arc<ChannelCore>, NetzError>>>>,
    accepting: Mutex<bool>,
}

/// A caller waiting for the pooled client to one remote.
type Waiter = Box<dyn FnOnce(Result<TransportClient, NetzError>) + Send>;

/// A client pool entry.
enum Pooled {
    /// The remote's client, until its channel closes.
    Ready(TransportClient),
    /// The one connect in flight to the remote, and who waits for it, in
    /// arrival order.
    Connecting(Vec<Waiter>),
}

/// A bound endpoint: either a server (well-known port) or a client factory
/// (auto port). Cheap to clone.
#[derive(Clone)]
pub struct Endpoint {
    inner: Arc<EndpointInner>,
}

/// A handle that does not keep the endpoint alive. An endpoint owns its
/// transport, so anything the transport (or state it shares per process)
/// stores about the endpoint must be weak, or neither is ever freed. The
/// default handle upgrades to nothing.
#[derive(Clone, Default)]
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
        let stats = Arc::new(ChanStats::new(net.obs().registry()));
        let inner = Arc::new(EndpointInner {
            name,
            net,
            node,
            addr,
            data_addr,
            conf,
            handler,
            transport,
            pipeline: OnceLock::new(),
            stats,
            channels: Mutex::new(BTreeMap::new()),
            clients: Mutex::new(BTreeMap::new()),
            pending_connects: Mutex::new(BTreeMap::new()),
            accepting: Mutex::new(true),
        });
        let ep = Endpoint { inner };
        // Each loop holds the endpoint: it serves until `shutdown` poisons it,
        // whoever else still holds a handle.
        for rx in [rx, data_rx] {
            let ep = ep.clone();
            rx.serve(move |pkt, next| ep.handle_packet(pkt, next));
        }
        ep.inner.pipeline.get_or_init(|| Arc::new(ep.inner.transport.start(&ep)));
        let weak = ep.downgrade();
        ep.inner.net.on_node_down(move |node| {
            if let Some(ep) = weak.upgrade() {
                ep.on_node_down(node);
            }
        });
        ep
    }

    /// A crash window opened on `node`: reset every channel to it, as a
    /// peer's RST would (pending requests fail with
    /// [`NetzError::ChannelClosed`]), then tell the handler once. The
    /// crashed node's own endpoints reset nothing.
    fn on_node_down(&self, node: NodeId) {
        if node == self.inner.node {
            return;
        }
        let mut lost = Vec::new();
        self.inner.channels.lock().retain(|_, chan| {
            let keep = chan.remote_node != node;
            if !keep {
                lost.push(chan.clone());
            }
            keep
        });
        for chan in lost {
            chan.closed_by_peer();
            self.inner.handler.channel_inactive(&chan);
        }
        self.inner.handler.peer_lost(node);
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

    /// The pooled client for `remote` while its channel is open, else a new
    /// connection ([`connect`](Endpoint::connect)) that is then pooled. A
    /// call that arrives while a connect to `remote` is in flight waits for
    /// that one instead of making its own.
    pub fn client(&self, remote: PortAddr) -> Result<TransportClient, NetzError> {
        if let Some(c) = self.pooled(remote) {
            return Ok(c);
        }
        let cell = OnceCell::new();
        let put = cell.clone();
        if self.join(remote, Box::new(move |r| put.put(r))) {
            let connected = self.connect(remote);
            self.settle(remote, connected);
        }
        cell.take()
    }

    /// [`client`](Endpoint::client) without parking: `then` gets the pooled
    /// client at once, or the outcome of the one connect to `remote` in
    /// flight, which every caller that missed the pool meanwhile shares.
    pub fn client_then(
        &self,
        remote: PortAddr,
        then: impl FnOnce(Result<TransportClient, NetzError>) + Send + 'static,
    ) {
        if let Some(c) = self.pooled(remote) {
            return then(Ok(c));
        }
        if self.join(remote, Box::new(then)) {
            let ep = self.clone();
            self.connect_then(remote, move |connected| ep.settle(remote, connected));
        }
    }

    fn pooled(&self, remote: PortAddr) -> Option<TransportClient> {
        match self.inner.clients.lock().get(&remote) {
            Some(Pooled::Ready(c)) => Some(c.clone()),
            _ => None,
        }
    }

    /// Queue `waiter` on the connect in flight to `remote`. True when there
    /// is none: the caller makes it, and then [`settle`](Endpoint::settle)s.
    fn join(&self, remote: PortAddr, waiter: Waiter) -> bool {
        let mut pool = self.inner.clients.lock();
        if let Some(Pooled::Connecting(waiters)) = pool.get_mut(&remote) {
            waiters.push(waiter);
            return false;
        }
        pool.insert(remote, Pooled::Connecting(vec![waiter]));
        true
    }

    /// The connect to `remote` ended: pool its client, or forget the failed
    /// attempt (so that a waiter's retry connects afresh), then hand the
    /// outcome to every waiter in arrival order.
    fn settle(&self, remote: PortAddr, connected: Result<TransportClient, NetzError>) {
        let entry = {
            let mut pool = self.inner.clients.lock();
            match &connected {
                Ok(c) => pool.insert(remote, Pooled::Ready(c.clone())),
                Err(_) => pool.remove(&remote),
            }
        };
        let Some(Pooled::Connecting(waiters)) = entry else {
            unreachable!("{}: a connect to {remote} settled that was not pooled", self.name())
        };
        for waiter in waiters {
            waiter(connected.clone());
        }
    }

    /// A channel of this endpoint closed, from either side: it leaves the
    /// channel table and, as a pooled client, the pool.
    pub(crate) fn forget(&self, chan: &ChannelCore) {
        self.inner.channels.lock().remove(&chan.id);
        self.inner
            .clients
            .lock()
            .retain(|_, entry| !matches!(entry, Pooled::Ready(c) if c.channel().id == chan.id));
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

    /// Close the pooled clients (in address order), stop accepting, close
    /// every other channel, and unbind the port (stops the event loop).
    pub fn shutdown(&self) {
        // Snapshot under the lock, close outside it: `close` charges the
        // `Close` frame on the virtual clock, and a task still running on a
        // lost executor may take a client through this pool meanwhile. A
        // connect in flight keeps its entry, so its waiters still get its
        // outcome.
        let mut clients = Vec::new();
        self.inner.clients.lock().retain(|_, entry| match entry {
            Pooled::Ready(c) => {
                clients.push(c.clone());
                false
            }
            Pooled::Connecting(_) => true,
        });
        for c in clients {
            c.close();
        }
        *self.inner.accepting.lock() = false;
        let chans: Vec<_> =
            std::mem::take(&mut *self.inner.channels.lock()).into_values().collect();
        for c in chans {
            c.close();
        }
        // Poison both loops: each drops its next packet, which unbinds its port.
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

    /// Process one wire event, then let the port take the next one; the
    /// shutdown poison drops `next` instead, which ends the loop.
    fn handle_packet(&self, pkt: Packet, next: NextPacket) {
        let Some(ev) = pkt.payload.value_as::<WireEvent>() else {
            return next.take(); // foreign traffic on our port: ignore
        };
        match (*ev).clone() {
            WireEvent::Connect { channel, reply_to, handshake } => {
                return self.on_connect(channel, reply_to, handshake, next);
            }
            WireEvent::Accept { channel, data_to, handshake } => {
                self.on_accept(channel, data_to, handshake);
            }
            WireEvent::Reject { channel, reason } => {
                if reason == "__shutdown" {
                    return;
                }
                if let Some(cell) = self.inner.pending_connects.lock().remove(&channel) {
                    cell.put(Err(NetzError::ConnectFailed(reason)));
                }
            }
            WireEvent::Data { channel, frame } => {
                if let Some(chan) = self.channel(channel) {
                    return self.on_frame(&chan, frame, Box::new(move || next.take()));
                }
            }
            WireEvent::Close { channel } => {
                if let Some(chan) = self.channel(channel) {
                    chan.closed_by_peer();
                    self.inner.handler.channel_inactive(&chan);
                }
            }
        }
        next.take();
    }

    fn on_connect(&self, id: ChannelId, reply_to: PortAddr, peer_hs: Handshake, next: NextPacket) {
        if !*self.inner.accepting.lock() {
            let ev = WireEvent::Reject { channel: id, reason: "endpoint shut down".into() };
            self.inner.net.send_then(
                &self.inner.conf.stack,
                self.inner.node,
                reply_to,
                Payload::control(ev, CONTROL_EVENT_BYTES),
                move || next.take(),
            );
            return;
        }
        let chan = self.open_channel(id, reply_to, peer_hs);
        let local_hs = chan.local_handshake;
        chan.send_event_then(
            WireEvent::Accept { channel: id, data_to: self.inner.data_addr, handshake: local_hs },
            CONTROL_EVENT_BYTES,
            move || next.take(),
        );
    }

    fn on_accept(&self, id: ChannelId, data_to: PortAddr, peer_hs: Handshake) {
        let Some(cell) = self.inner.pending_connects.lock().remove(&id) else {
            return; // late accept after timeout
        };
        cell.put(Ok(self.open_channel(id, data_to, peer_hs)));
    }

    /// Establish this side of channel `id`, whose frames go to the peer's
    /// port `remote`: on the endpoint's shared pipeline and counters,
    /// admitted by the transport, registered, and announced to the handler.
    fn open_channel(
        &self,
        id: ChannelId,
        remote: PortAddr,
        peer_hs: Handshake,
    ) -> Arc<ChannelCore> {
        let inner = &self.inner;
        let chan = ChannelCore::new(
            id,
            inner.node,
            peer_hs.node,
            remote,
            inner.data_addr,
            inner.conf.stack,
            inner.net.clone(),
            inner.transport.handshake(inner.node),
            peer_hs,
            inner.pipeline.get().expect("transport started").clone(),
            inner.stats.clone(),
            self.downgrade(),
        );
        inner.transport.configure(self, &chan);
        inner.channels.lock().insert(id, chan.clone());
        inner.handler.channel_active(&chan);
        chan
    }

    /// Run the inbound pipeline on a frame (from the port, or a Basic MPI
    /// envelope), then dispatch the message; `then` runs once its work is booked.
    ///
    /// When tracing is on, the whole receive (pipeline + decode + dispatch,
    /// until `then`) runs inside a `netz.msg.recv` span causally linked — via
    /// the span id carried in the header — to the peer's `netz.msg.send`
    /// span. The frame's work may outlast this engine event, so the span is
    /// detached: spans opened meanwhile do not nest in it.
    pub fn on_frame(&self, chan: &Arc<ChannelCore>, frame: Frame, then: Then) {
        let obs = self.inner.net.obs();
        let span = obs.is_traced().then(|| {
            let link = Message::peek_span_id(&frame.header).unwrap_or(0);
            obs.tracer()
                .span_linked(
                    "netz.msg.recv",
                    link,
                    obs::kv! {"src" => chan.remote_node, "dst" => chan.local_node},
                )
                .detach()
        });
        let done: Then = Box::new(move || {
            drop(span);
            then();
        });
        let header_len = frame.header.len() as u64;
        let mut frame = frame;
        for h in chan.pipeline.inbound() {
            match h.on_frame(chan, frame) {
                InboundAction::Forward(f) => frame = f,
                InboundAction::Consume => return done(),
            }
        }
        // A malformed frame is dropped (Netty would fire exceptionCaught).
        match Message::decode(&frame.header, frame.body) {
            Ok(msg) => self.dispatch(chan, msg, header_len, done),
            Err(_) => done(),
        }
    }

    /// Account a received message, then dispatch it without parking — the
    /// one way a decoded message enters an endpoint: the frame path ends
    /// here, and so does the Optimized design's body continuation, which
    /// decodes a body once it lands on MPI.
    ///
    /// Requests go to the handler / stream manager, responses to their
    /// registered callbacks; `then` runs once the message's work is done — a
    /// reply the handler makes inside `receive` once its write is booked. A
    /// reply made later, from a green thread, is that thread's blocking write.
    pub fn dispatch(&self, chan: &Arc<ChannelCore>, msg: Message, header_len: u64, then: Then) {
        chan.note_received(header_len + msg.body_virtual_len());
        match msg {
            Message::RpcRequest { request_id, body } => {
                let inline = Arc::new(Mutex::new(Some(then)));
                let (held, reply_chan) = (inline.clone(), chan.clone());
                self.inner.handler.receive(
                    chan,
                    body,
                    Box::new(move |res| {
                        let reply = match res {
                            Ok(p) => Message::RpcResponse { request_id, body: p },
                            Err(e) => Message::RpcFailure { request_id, error: e },
                        };
                        let then = held.lock().take();
                        reply_chan.write_with(reply, then);
                    }),
                );
                // No reply inside `receive`: the port moves on.
                let rest = inline.lock().take();
                if let Some(then) = rest {
                    then();
                }
                return;
            }
            Message::OneWayMessage { body } => self.inner.handler.receive_oneway(chan, body),
            Message::ChunkFetchRequest { stream_id, chunk_index } => {
                let sm = self.inner.handler.stream_manager();
                let (cpu, work_ns) = (self.inner.net.cpu(self.inner.node), sm.chunk_fetch_cpu_ns());
                let reply_chan = chan.clone();
                let serve = move || {
                    let reply = match sm.get_chunk(stream_id, chunk_index) {
                        Ok(body) => Message::ChunkFetchSuccess { stream_id, chunk_index, body },
                        Err(error) => Message::ChunkFetchFailure { stream_id, chunk_index, error },
                    };
                    reply_chan.write_with(reply, Some(then));
                };
                return cpu.submit(work_ns, Done::Call(Box::new(serve)));
            }
            Message::StreamRequest { stream_id } => {
                let sm = self.inner.handler.stream_manager();
                let reply = match sm.open_stream(&stream_id) {
                    Ok(body) => {
                        Message::StreamResponse { stream_id, byte_count: body.virtual_len, body }
                    }
                    Err(error) => Message::StreamFailure { stream_id, error },
                };
                return chan.write_with(reply, Some(then));
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
        // Any arm that hands `then` on has returned.
        then();
    }
}
