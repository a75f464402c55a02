//! The two MPI-based Netty transports (paper §VI-D and §VI-E).
//!
//! Both keep Netty's connection establishment on the socket path and
//! exchange `(MPI rank, communicator type)` during it. They differ in what
//! crosses MPI afterwards:
//!
//! * **Basic**: every message. The receive side models the modified NIO
//!   selector loop — non-blocking `select()` plus `MPI_Iprobe` spun
//!   continuously — as per-endpoint background CPU load plus per-message
//!   polling charges; this is precisely the overhead the paper identifies
//!   as Basic's downfall (§VII-B, Fig. 9). Each landed envelope enters its
//!   endpoint as a frame, through the path socket frames take.
//! * **Optimized**: only the bodies of `ChunkFetchSuccess` and
//!   `StreamResponse`. Headers travel on the socket; an inbound channel
//!   handler parses each header and, for the eligible types, posts the
//!   matching `MPI_Recv` — the "trigger MPI_recv calls by parsing the
//!   headers of shuffle messages inside of ChannelHandlers" design.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, Weak};

use fabric::Payload;
use netz::{
    ChannelCore, ChannelId, Endpoint, Frame, Handshake, InboundAction, InboundHandler, Message,
    OutboundAction, OutboundHandler, Pipeline, Then, Transport, WeakEndpoint, WireEvent,
};
use simt::cpu::Done;
use simt::sync::Mutex;

use crate::ctx::MpiProcCtx;
use crate::route::diverts_body;

/// Tag bit marking Optimized-design body messages.
const OPT_TAG_BASE: u64 = 1 << 47;
/// Tag for all Basic-design messages (demultiplexed by channel id inside).
const BASIC_TAG: u64 = 1 << 46;

/// splitmix64 finalizer, the tag-space mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The channel's peer's MPI rank, and the communicator it is valid in. Every
/// process of an MPI4Spark run runs the MPI transport on both planes, so every
/// peer's handshake carries a rank: a channel to a rank-less peer is a bug.
fn peer_rank(chan: &ChannelCore) -> (u32, netz::CommKind) {
    let peer = chan.peer_handshake;
    (peer.mpi_rank.expect("an MPI4Spark channel's peer handshakes with its MPI rank"), peer.comm)
}

/// Tag for an Optimized-design body identified by `key` on channel `chan`.
///
/// The key is *content-addressed*: [`Message::peek_body_key`] derives it
/// from the header fields both ends already have (request id, stream id +
/// chunk index, stream name), so sender and receiver agree on the tag
/// without lockstep per-channel counters. Counters desynchronize the moment
/// a header frame is dropped or a fetch is retried — exactly the fault
/// conditions the chaos layer injects — and a desynchronized counter
/// silently matches bodies to the wrong messages. Content addressing makes
/// the tag a pure function of the message identity instead.
///
/// The mixed `(channel, key)` is folded into the 47 bits below
/// `OPT_TAG_BASE`. `BASIC_TAG` demultiplexes by exact match, so overlap of
/// the mixed bits with bit 46 is harmless.
fn opt_tag(chan: ChannelId, key: u64) -> u64 {
    let mixed = mix64(chan.0.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(key));
    OPT_TAG_BASE | (mixed >> 17)
}

// =========================== Optimized design ===============================

/// The MPI4Spark-Optimized transport (§VI-E).
pub struct MpiTransportOptimized {
    ctx: Arc<MpiProcCtx>,
}

impl MpiTransportOptimized {
    /// Transport for the process described by `ctx`.
    pub fn new(ctx: Arc<MpiProcCtx>) -> Self {
        MpiTransportOptimized { ctx }
    }
}

impl Transport for MpiTransportOptimized {
    fn name(&self) -> &'static str {
        "mpi-optimized"
    }

    fn handshake(&self, node: usize) -> Handshake {
        Handshake { node, mpi_rank: Some(self.ctx.rank()), comm: self.ctx.kind }
    }

    fn start(&self, endpoint: &Endpoint) -> Pipeline {
        let mut p = Pipeline::new();
        p.add_outbound("mpi-body-send", OptOutbound { ctx: self.ctx.clone() });
        let (ctx, body_timeout_ns) = (self.ctx.clone(), endpoint.request_timeout_ns());
        p.add_inbound(
            "mpi-body-fetch",
            OptInbound { ctx, endpoint: endpoint.downgrade(), body_timeout_ns },
        );
        p
    }

    fn configure(&self, _endpoint: &Endpoint, chan: &Arc<ChannelCore>) {
        peer_rank(chan); // before the channel serves anything
    }
}

/// Outbound: divert shuffle bodies to MPI, keep the header on the socket.
struct OptOutbound {
    ctx: Arc<MpiProcCtx>,
}

impl OutboundHandler for OptOutbound {
    fn on_write(
        &self,
        chan: &Arc<ChannelCore>,
        msg: Message,
        then: Option<Then>,
    ) -> OutboundAction {
        if !diverts_body(msg.type_id()) {
            return OutboundAction::Forward(msg, then);
        }
        let header = msg.encode_header();
        let key = Message::peek_body_key(&header).expect("a shuffle body has a content key");
        let tag = opt_tag(chan.id, key);
        let body = msg.body().cloned().unwrap_or_else(Payload::empty);
        let body_virtual = body.virtual_len;
        let (rank, kind) = peer_rank(chan);
        let (comm, dest) = self.ctx.route(rank, kind);
        // Header-only frame on the socket path (Fig. 6: header carries the
        // type and body size the receiver needs to post its MPI_Recv).
        let header_len = header.len() as u64;
        let frame =
            WireEvent::Data { channel: chan.id, frame: Frame { header, body: Payload::empty() } };
        match then {
            None => {
                comm.send(dest, tag, body).expect("MPI body send");
                chan.send_event(frame, header_len);
            }
            Some(then) => {
                let chan = chan.clone();
                let header_sent = move || chan.send_event_then(frame, header_len, then);
                comm.send_then(dest, tag, body, header_sent).expect("MPI body send");
            }
        }
        OutboundAction::Sent { virtual_bytes: header_len + body_virtual }
    }
}

/// Inbound: parse the header; for shuffle bodies post the matching
/// `MPI_Recv` and reattach the body.
///
/// A body may wait as long as its endpoint's request timeout: a dropped body
/// would otherwise leave its receive posted forever. At the timeout the
/// receive is cancelled with a drain, which absorbs the late body if it ever
/// lands, and the fetch surfaces as a missing chunk to the retry layer.
///
/// The handler holds its endpoint weakly: the endpoint owns its pipeline,
/// which owns this handler, so a strong handle would close an `Arc` cycle and
/// keep the endpoint (and its handler's block manager) alive past shutdown.
struct OptInbound {
    ctx: Arc<MpiProcCtx>,
    endpoint: WeakEndpoint,
    body_timeout_ns: u64,
}

impl InboundHandler for OptInbound {
    fn on_frame(&self, chan: &Arc<ChannelCore>, frame: Frame) -> InboundAction {
        // A diverted type arriving as a header-only frame means the body is
        // waiting on MPI.
        let eligible = Message::peek_type(&frame.header).is_some_and(diverts_body);
        if !eligible || !frame.body.is_empty() {
            return InboundAction::Forward(frame);
        }
        let key = Message::peek_body_key(&frame.header).expect("a shuffle body has a content key");
        let tag = opt_tag(chan.id, key);
        let (rank, kind) = peer_rank(chan);
        let (comm, src) = self.ctx.route(rank, kind);

        // Post the receive and return immediately — the event loop goes
        // back to parsing headers, and each body is delivered on the engine
        // the moment it lands, so concurrent fetches into this endpoint
        // overlap.
        let (endpoint, chan, header) = (self.endpoint.clone(), chan.clone(), frame.header);
        comm.irecv(Some(src), Some(tag)).wait_timeout_then(self.body_timeout_ns, move |r| {
            if let (Ok(Some((body, _))), Some(endpoint)) = (r, endpoint.upgrade()) {
                deliver_body(&endpoint, &chan, &header, body);
            }
        });
        InboundAction::Consume
    }
}

/// Decode a landed body against its saved header and hand the message to the
/// endpoint, with the receive span causally linked to the sender (the
/// convention of `netz.msg.recv` on the frame path).
fn deliver_body(
    endpoint: &Endpoint,
    chan: &Arc<ChannelCore>,
    header: &bytes::Bytes,
    body: Payload,
) {
    let obs = chan.net.obs();
    let _span = obs.is_traced().then(|| {
        let link = Message::peek_span_id(header).unwrap_or(0);
        obs.tracer().span_linked(
            "rmpi.body.recv",
            link,
            obs::kv! {"src" => chan.remote_node, "dst" => chan.local_node},
        )
    });
    if let Ok(msg) = Message::decode(header, body) {
        endpoint.dispatch(chan, msg, header.len() as u64, Box::new(|| ()));
    }
}

// ============================= Basic design =================================

/// The Basic design's polling model: phantom runnable threads added per
/// endpoint. Netty runs a selector loop group per transport context, and
/// under Basic each loop spins in non-blocking `select()` + `MPI_Iprobe`
/// instead of blocking.
const POLL_LOAD_PER_ENDPOINT: f64 = 4.0;
/// CPU charged per received message for the iprobe sweeps that discovered it.
const PER_MESSAGE_POLL_NS: u64 = 6_000;
/// Mean discovery latency added per message (half a poll interval).
const POLL_LATENCY_NS: u64 = 5_000;

/// Envelope for Basic-design messages (everything over MPI).
struct BasicMsg {
    channel: ChannelId,
    frame: Frame,
}

/// Per-process demultiplexer for Basic-design traffic: one receive loop per
/// communicator pulls `BASIC_TAG` envelopes and hands each frame to the
/// owning channel's endpoint. Endpoints are held weakly: each owns its
/// transport, which owns the process context and with it this router.
#[derive(Default)]
pub struct BasicRouter {
    pub(crate) channels: Mutex<BTreeMap<ChannelId, (WeakEndpoint, Arc<ChannelCore>)>>,
    world_started: OnceLock<()>,
    inter_started: OnceLock<()>,
}

impl BasicRouter {
    /// Start the modified selector loop's receive side (§VI-D) on the world
    /// communicator, and on the intercommunicator once it exists: a chain of
    /// engine continuations each, from this instant until shutdown.
    fn ensure_receivers(&self, ctx: &Arc<MpiProcCtx>) {
        let start = |inter| {
            let proc = Arc::downgrade(ctx);
            simt::engine::call_at(simt::now(), move || receive(proc, inter));
        };
        self.world_started.get_or_init(|| start(false));
        if ctx.inter().is_some() {
            self.inter_started.get_or_init(|| start(true));
        }
    }
}

/// One pass of a Basic receive loop: post a receive; once an envelope lands,
/// charge the polling selector's cost for it and hand its frame to the frame
/// path, whose continuation posts the next receive. The receive is unbounded
/// on purpose: this is the demux loop itself, not a retry-covered request
/// path, and fetch timeouts are enforced at the requester. The posted
/// receive holds its process only weakly (the communicator's universe owns
/// the store that holds it); the loop ends once the process is gone.
fn receive(proc: Weak<MpiProcCtx>, inter: bool) {
    let comm = match proc.upgrade() {
        Some(ctx) if inter => ctx.inter().expect("the inter loop starts once `inter` is set"),
        Some(ctx) => ctx.world.clone(),
        None => return,
    };
    comm.irecv(None, Some(BASIC_TAG)).wait_then(move |r| {
        let (Ok(Some((payload, _status))), Some(ctx)) = (r, proc.upgrade()) else { return };
        let Some(msg) = payload.value_as::<BasicMsg>() else { return receive(proc, inter) };
        // The message sat for half a poll interval and cost iprobe sweeps to
        // discover. Both communicators share this process's node.
        simt::engine::call_at(simt::now() + POLL_LATENCY_NS, move || {
            let cpu = ctx.world.universe().net().cpu(ctx.world.node());
            let deliver = move || deliver(&ctx, inter, &msg);
            cpu.submit(PER_MESSAGE_POLL_NS, Done::Call(Box::new(deliver)));
        });
    });
}

/// Hand a discovered envelope's frame to its channel's endpoint. A channel
/// the router never saw, or whose endpoint shut down and was dropped, loses
/// it.
fn deliver(ctx: &Arc<MpiProcCtx>, inter: bool, msg: &BasicMsg) {
    let proc = Arc::downgrade(ctx);
    let target = ctx.router.channels.lock().get(&msg.channel).cloned();
    match target.and_then(|(endpoint, chan)| Some((endpoint.upgrade()?, chan))) {
        Some((endpoint, chan)) => {
            endpoint.on_frame(&chan, msg.frame.clone(), Box::new(move || receive(proc, inter)))
        }
        None => receive(proc, inter),
    }
}

/// The MPI4Spark-Basic transport (§VI-D).
pub struct MpiTransportBasic {
    ctx: Arc<MpiProcCtx>,
}

impl MpiTransportBasic {
    /// Transport for the process described by `ctx`: every message crosses
    /// MPI (§VI-D).
    pub fn new(ctx: Arc<MpiProcCtx>) -> Self {
        MpiTransportBasic { ctx }
    }
}

impl Transport for MpiTransportBasic {
    fn name(&self) -> &'static str {
        "mpi-basic"
    }

    fn handshake(&self, node: usize) -> Handshake {
        Handshake { node, mpi_rank: Some(self.ctx.rank()), comm: self.ctx.kind }
    }

    fn start(&self, endpoint: &Endpoint) -> Pipeline {
        // The endpoint's selector loop now spins (non-blocking select +
        // iprobe) instead of blocking: continuous background CPU load.
        endpoint.net().cpu(endpoint.node()).add_background_load(POLL_LOAD_PER_ENDPOINT);
        let mut p = Pipeline::new();
        p.add_outbound("mpi-all-send", BasicOutbound { ctx: Arc::downgrade(&self.ctx) });
        p
    }

    fn configure(&self, endpoint: &Endpoint, chan: &Arc<ChannelCore>) {
        peer_rank(chan); // before the channel serves anything
        let router = &self.ctx.router;
        router.channels.lock().insert(chan.id, (endpoint.downgrade(), chan.clone()));
        router.ensure_receivers(&self.ctx);
    }
}

/// Outbound: every message crosses MPI as one `(header, body)` envelope.
///
/// The context is held weakly: it owns the router, whose channel table owns
/// the channels and with them the pipeline that owns this handler. Once the
/// context is gone, messages stay on the socket path.
struct BasicOutbound {
    ctx: Weak<MpiProcCtx>,
}

impl OutboundHandler for BasicOutbound {
    fn on_write(
        &self,
        chan: &Arc<ChannelCore>,
        msg: Message,
        then: Option<Then>,
    ) -> OutboundAction {
        let Some(ctx) = self.ctx.upgrade() else {
            return OutboundAction::Forward(msg, then);
        };
        let header = msg.encode_header();
        let body = msg.body().cloned().unwrap_or_else(Payload::empty);
        let total = header.len() as u64 + body.virtual_len;
        let (rank, kind) = peer_rank(chan);
        let (comm, dest) = ctx.route(rank, kind);
        let frame = Frame { header, body };
        let envelope = Payload::control(BasicMsg { channel: chan.id, frame }, total);
        match then {
            None => comm.send(dest, BASIC_TAG, envelope),
            Some(then) => comm.send_then(dest, BASIC_TAG, envelope, then),
        }
        .expect("MPI send");
        OutboundAction::Sent { virtual_bytes: total }
    }

    /// A closed channel leaves the router: a frame still in flight to it is
    /// dropped, as the socket path drops one for a channel its peer closed.
    fn on_close(&self, chan: &ChannelCore) {
        if let Some(ctx) = self.ctx.upgrade() {
            let gone = ctx.router.channels.lock().remove(&chan.id);
            drop(gone); // outside the lock
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_tags_distinct_per_channel_and_key() {
        let a = opt_tag(ChannelId(1), 0);
        let b = opt_tag(ChannelId(1), 1);
        let c = opt_tag(ChannelId(2), 0);
        assert!(a != b && a != c && b != c);
        assert!(a & OPT_TAG_BASE != 0);
        assert_ne!(a, BASIC_TAG);
    }

    #[test]
    fn opt_tag_is_a_pure_function_of_identity() {
        // Content addressing: recomputing the tag for the same message
        // identity gives the same tag, however many frames were dropped or
        // retried in between — no sequence-counter state to desync.
        let header =
            Message::ChunkFetchSuccess { stream_id: 99, chunk_index: 7, body: Payload::empty() }
                .encode_header();
        let key = Message::peek_body_key(&header).unwrap();
        assert_eq!(opt_tag(ChannelId(3), key), opt_tag(ChannelId(3), key));
        assert_ne!(opt_tag(ChannelId(3), key), opt_tag(ChannelId(4), key));
    }

    #[test]
    fn opt_tags_from_distinct_chunks_do_not_collide() {
        // Sample the tag space the way the Optimized design actually uses
        // it: many (stream, chunk) identities on a handful of channels.
        let mut seen = std::collections::BTreeSet::new();
        for chan in 0..8u64 {
            for stream in 0..32u64 {
                for chunk in 0..16u32 {
                    let header = Message::ChunkFetchSuccess {
                        stream_id: stream,
                        chunk_index: chunk,
                        body: Payload::empty(),
                    }
                    .encode_header();
                    let key = Message::peek_body_key(&header).unwrap();
                    let tag = opt_tag(ChannelId(chan), key);
                    assert!(tag & OPT_TAG_BASE != 0);
                    assert_ne!(tag, BASIC_TAG);
                    assert!(seen.insert(tag), "tag collision for c{chan}/s{stream}/k{chunk}");
                }
            }
        }
    }
}
