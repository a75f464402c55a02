//! Channels: established, identified connections between two endpoints.
//!
//! A [`ChannelCore`] corresponds to Netty's `Channel` + `ChannelId`: Spark
//! identifies distributed entities by channels/endpoints while MPI uses
//! ranks, and bridging that naming mismatch is one of the paper's four core
//! challenges (§III, challenge 4). The MPI rank and communicator type a
//! channel maps to are captured in its peer [`Handshake`], recorded during
//! connection establishment exactly as the paper does.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{Net, NodeId, Payload, PortAddr, StackModel};
use obs::Span;
use simt::sync::Mutex;

use crate::endpoint::WeakEndpoint;
use crate::error::NetzError;
use crate::message::Message;
use crate::pipeline::{OutboundAction, Pipeline, Then};
use crate::wire::{Frame, Handshake, WireEvent, CONTROL_EVENT_BYTES};

/// Globally unique channel identifier (Netty's `ChannelId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u64);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch-{:08x}", self.0)
    }
}

static NEXT_CHANNEL_ID: AtomicU64 = AtomicU64::new(1);

impl ChannelId {
    /// Allocate a fresh id (process-global; ids are never reused).
    pub fn fresh() -> ChannelId {
        ChannelId(NEXT_CHANNEL_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Registry-backed traffic counters (shared across all channels on one
/// `Net`; read them via `net.obs().registry().snapshot()` under the
/// `netz.*` keys). An endpoint resolves the handles once and its channels
/// share them, because `write` is the hot path of every message.
pub(crate) struct ChanStats {
    channels_opened: obs::Counter,
    msgs_sent: obs::Counter,
    bytes_sent: obs::Counter,
    msgs_received: obs::Counter,
    bytes_received: obs::Counter,
}

impl ChanStats {
    pub(crate) fn new(reg: &obs::Registry) -> ChanStats {
        ChanStats {
            channels_opened: reg.counter(obs::keys::NETZ_CHANNELS_OPENED),
            msgs_sent: reg.counter(obs::keys::NETZ_MSGS_SENT),
            bytes_sent: reg.counter(obs::keys::NETZ_BYTES_SENT),
            msgs_received: reg.counter(obs::keys::NETZ_MSGS_RECEIVED),
            bytes_received: reg.counter(obs::keys::NETZ_BYTES_RECEIVED),
        }
    }
}

/// Callback invoked when a response (or failure) for an outstanding request
/// arrives.
pub type ResponseCallback = Box<dyn FnOnce(Result<Payload, NetzError>) + Send>;

#[derive(Default)]
pub(crate) struct PendingResponses {
    pub rpcs: BTreeMap<u64, ResponseCallback>,
    pub chunks: BTreeMap<(u64, u32), ResponseCallback>,
    /// Streams are keyed by name, and several requests for the *same* name
    /// may be outstanding on one channel (e.g. task slots racing to fetch
    /// one broadcast); responses complete them FIFO.
    pub streams: BTreeMap<String, std::collections::VecDeque<ResponseCallback>>,
}

impl PendingResponses {
    fn drain(&mut self) -> Vec<ResponseCallback> {
        // BTreeMap iteration: callbacks fail in key order, deterministically.
        let mut all: Vec<ResponseCallback> = Vec::new();
        all.extend(std::mem::take(&mut self.rpcs).into_values());
        all.extend(std::mem::take(&mut self.chunks).into_values());
        all.extend(std::mem::take(&mut self.streams).into_values().flatten());
        all
    }
}

/// One side of an established channel.
pub struct ChannelCore {
    /// Unique id, shared by both sides.
    pub id: ChannelId,
    /// Node this side runs on.
    pub local_node: NodeId,
    /// Peer's node.
    pub remote_node: NodeId,
    /// Peer endpoint's selector port (where our frames go).
    pub remote_port: PortAddr,
    /// Our endpoint's selector port (where the peer's frames come in).
    pub local_port: PortAddr,
    /// Socket-path cost model.
    pub stack: StackModel,
    /// The fabric.
    pub net: Net,
    /// Identity we presented at establishment.
    pub local_handshake: Handshake,
    /// Identity the peer presented at establishment (rank ↔ channel map).
    pub peer_handshake: Handshake,
    /// Handler pipeline (paper Fig. 7): its endpoint's, shared by all of
    /// the endpoint's channels.
    pub pipeline: Arc<Pipeline>,
    /// Registry-backed traffic counters, shared the same way.
    pub(crate) stats: Arc<ChanStats>,
    pub(crate) pending: Mutex<PendingResponses>,
    /// The endpoint whose tables hold this channel until it closes.
    endpoint: WeakEndpoint,
    open: AtomicBool,
}

impl ChannelCore {
    #[allow(
        clippy::too_many_arguments,
        reason = "a channel is its two ends, the stack, the net, both handshakes, its \
                  endpoint and that endpoint's pipeline and counters"
    )]
    pub(crate) fn new(
        id: ChannelId,
        local_node: NodeId,
        remote_node: NodeId,
        remote_port: PortAddr,
        local_port: PortAddr,
        stack: StackModel,
        net: Net,
        local_handshake: Handshake,
        peer_handshake: Handshake,
        pipeline: Arc<Pipeline>,
        stats: Arc<ChanStats>,
        endpoint: WeakEndpoint,
    ) -> Arc<Self> {
        stats.channels_opened.inc();
        let obs = net.obs();
        if obs.is_traced() {
            let kvs = obs::kv! {"local" => local_node, "remote" => remote_node};
            obs.event("netz.channel.open", kvs);
        }
        Arc::new(ChannelCore {
            id,
            local_node,
            remote_node,
            remote_port,
            local_port,
            stack,
            net,
            local_handshake,
            peer_handshake,
            pipeline,
            stats,
            pending: Mutex::new(PendingResponses::default()),
            endpoint,
            open: AtomicBool::new(true),
        })
    }

    /// True until either side closed the channel.
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    /// Write a message: run the outbound pipeline; unless a handler takes
    /// over transmission, encode and ship header+body as one socket frame
    /// (the Netty NIO default).
    ///
    /// When tracing is on, the whole write (pipeline + encode + fabric
    /// send) runs inside a `netz.msg.send` span whose id is installed as
    /// the thread's send scope, so any header encoded on this path — by us
    /// or by a transport handler re-encoding inside `on_write` — carries
    /// the id for the receiver to link against.
    pub fn write(self: &Arc<Self>, msg: Message) {
        self.write_with(msg, None);
    }

    /// [`write`](ChannelCore::write) without parking: the pipeline's sends
    /// take their `_then` forms, and `then` runs once the last is booked (at
    /// once on a closed channel). The span ends there too.
    pub fn write_then(self: &Arc<Self>, msg: Message, then: impl FnOnce() + Send + 'static) {
        self.write_with(msg, Some(Box::new(then)));
    }

    /// [`write`](ChannelCore::write) with `None`, [`write_then`](ChannelCore::write_then)
    /// with `Some`.
    pub(crate) fn write_with(self: &Arc<Self>, msg: Message, then: Option<Then>) {
        if !self.is_open() {
            return then.map_or((), |then| then());
        }
        self.stats.msgs_sent.inc();
        let obs = self.net.obs();
        let mut span = obs.is_traced().then(|| {
            obs.span(
                "netz.msg.send",
                obs::kv! {"type" => format!("{:?}", msg.type_id()),
                "src" => self.local_node, "dst" => self.remote_node},
            )
        });
        let _scope = span.as_ref().map(Span::send_scope);
        let mut then = then.map(|then| -> Then {
            let span = span.take().map(Span::detach);
            Box::new(move || {
                drop(span);
                then();
            })
        });
        let mut current = msg;
        for handler in self.pipeline.outbound() {
            match handler.on_write(self, current, then) {
                OutboundAction::Forward(m, t) => (current, then) = (m, t),
                OutboundAction::Sent { virtual_bytes } => {
                    self.stats.bytes_sent.add(virtual_bytes);
                    return;
                }
            }
        }
        let header = current.encode_header();
        let body = current.body().cloned().unwrap_or_else(Payload::empty);
        let frame = Frame { header, body };
        let virtual_len = frame.socket_virtual_len();
        self.stats.bytes_sent.add(virtual_len);
        let ev = WireEvent::Data { channel: self.id, frame };
        match then {
            None => self.send_event(ev, virtual_len),
            Some(then) => self.send_event_then(ev, virtual_len, then),
        }
    }

    /// Book a received message against the shared traffic counters (called
    /// by the endpoint's event loop and by out-of-band receivers).
    pub(crate) fn note_received(&self, virtual_bytes: u64) {
        self.stats.msgs_received.inc();
        self.stats.bytes_received.add(virtual_bytes);
    }

    /// Ship a raw wire event to the peer endpoint over the socket stack.
    pub fn send_event(&self, ev: WireEvent, virtual_len: u64) {
        self.net.send(
            &self.stack,
            self.local_node,
            self.remote_port,
            Payload::control(ev, virtual_len),
        );
    }

    /// [`send_event`](ChannelCore::send_event) without parking (see
    /// [`fabric::Net::send_then`]).
    pub fn send_event_then(
        &self,
        ev: WireEvent,
        virtual_len: u64,
        then: impl FnOnce() + Send + 'static,
    ) {
        let payload = Payload::control(ev, virtual_len);
        self.net.send_then(&self.stack, self.local_node, self.remote_port, payload, then);
    }

    /// Register a callback for an RPC response.
    pub(crate) fn register_rpc(&self, request_id: u64, cb: ResponseCallback) {
        if !self.is_open() {
            cb(Err(NetzError::ChannelClosed));
            return;
        }
        self.pending.lock().rpcs.insert(request_id, cb);
    }

    /// Register a callback for a chunk fetch response.
    pub(crate) fn register_chunk(&self, key: (u64, u32), cb: ResponseCallback) {
        if !self.is_open() {
            cb(Err(NetzError::ChannelClosed));
            return;
        }
        self.pending.lock().chunks.insert(key, cb);
    }

    /// Register a callback for a stream response.
    pub(crate) fn register_stream(&self, stream_id: String, cb: ResponseCallback) {
        if !self.is_open() {
            cb(Err(NetzError::ChannelClosed));
            return;
        }
        self.pending.lock().streams.entry(stream_id).or_default().push_back(cb);
    }

    pub(crate) fn take_rpc(&self, request_id: u64) -> Option<ResponseCallback> {
        self.pending.lock().rpcs.remove(&request_id)
    }

    pub(crate) fn take_chunk(&self, key: (u64, u32)) -> Option<ResponseCallback> {
        self.pending.lock().chunks.remove(&key)
    }

    pub(crate) fn take_stream(&self, stream_id: &str) -> Option<ResponseCallback> {
        let mut p = self.pending.lock();
        let q = p.streams.get_mut(stream_id)?;
        let cb = q.pop_front();
        if q.is_empty() {
            p.streams.remove(stream_id);
        }
        cb
    }

    /// Close this side: notify the peer, fail all outstanding requests.
    pub fn close(&self) {
        if !self.mark_closed() {
            return;
        }
        self.trace_close();
        self.send_event(WireEvent::Close { channel: self.id }, CONTROL_EVENT_BYTES);
        self.fail_pending();
    }

    /// Handle a peer-initiated close (no notification echo).
    pub(crate) fn closed_by_peer(&self) {
        if !self.mark_closed() {
            return;
        }
        self.trace_close();
        self.fail_pending();
    }

    fn trace_close(&self) {
        let obs = self.net.obs();
        if obs.is_traced() {
            let kvs = obs::kv! {"local" => self.local_node, "remote" => self.remote_node};
            obs.event("netz.channel.close", kvs);
        }
    }

    fn mark_closed(&self) -> bool {
        let was_open = self.open.swap(false, Ordering::Relaxed);
        if was_open {
            self.pipeline.outbound().for_each(|h| h.on_close(self));
            if let Some(ep) = self.endpoint.upgrade() {
                ep.forget(self);
            }
        }
        was_open
    }

    fn fail_pending(&self) {
        let cbs = self.pending.lock().drain();
        for cb in cbs {
            cb(Err(NetzError::ChannelClosed));
        }
    }
}

impl std::fmt::Debug for ChannelCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelCore")
            .field("id", &self.id)
            .field("local_node", &self.local_node)
            .field("remote_node", &self.remote_node)
            .field("open", &self.is_open())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A channel from node 0 to node 1 with an empty pipeline.
    fn channel() -> Arc<ChannelCore> {
        let net = Net::new(&fabric::ClusterSpec::test(2));
        let stats = Arc::new(ChanStats::new(net.obs().registry()));
        ChannelCore::new(
            ChannelId::fresh(),
            0,
            1,
            PortAddr { node: 1, port: 1 },
            PortAddr { node: 0, port: 1 },
            StackModel::native_mpi(),
            net,
            Handshake::default(),
            Handshake::default(),
            Arc::default(),
            stats,
            WeakEndpoint::default(),
        )
    }

    #[test]
    fn channel_ids_are_unique_and_displayable() {
        let a = ChannelId::fresh();
        let b = ChannelId::fresh();
        assert_ne!(a, b);
        assert!(a.to_string().starts_with("ch-"));
    }

    #[test]
    fn registering_on_closed_channel_fails_immediately() {
        let ch = channel();
        ch.closed_by_peer();
        let hit = Arc::new(Mutex::new(None));
        let hit2 = hit.clone();
        ch.register_rpc(1, Box::new(move |r| *hit2.lock() = Some(r)));
        assert!(matches!(&*hit.lock(), Some(Err(NetzError::ChannelClosed))));
    }

    #[test]
    fn close_fails_outstanding_requests() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let ch = channel();
            let hit = Arc::new(Mutex::new(Vec::new()));
            for id in 0..3u64 {
                let hit = hit.clone();
                ch.register_rpc(id, Box::new(move |r| hit.lock().push(r)));
            }
            ch.close();
            assert_eq!(hit.lock().len(), 3);
            assert!(hit.lock().iter().all(|r| matches!(r, Err(NetzError::ChannelClosed))));
            // Double close is a no-op.
            ch.close();
            assert_eq!(hit.lock().len(), 3);
        });
        sim.run().unwrap().assert_clean();
    }
}
