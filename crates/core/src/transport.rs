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
//!   as Basic's downfall (§VII-B, Fig. 9).
//! * **Optimized**: only the bodies of `ChunkFetchSuccess` and
//!   `StreamResponse`. Headers travel on the socket; an inbound channel
//!   handler parses each header and, for the eligible types, posts the
//!   matching `MPI_Recv` — the "trigger MPI_recv calls by parsing the
//!   headers of shuffle messages inside of ChannelHandlers" design.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use fabric::Payload;
use netz::{
    ChannelCore, ChannelId, Endpoint, Frame, Handshake, InboundAction, InboundHandler, Message,
    OutboundAction, OutboundHandler, Transport, WeakEndpoint, WireEvent,
};
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
    pump: OnceLock<Arc<BodyPump>>,
}

impl MpiTransportOptimized {
    /// Transport for the process described by `ctx`.
    pub fn new(ctx: Arc<MpiProcCtx>) -> Self {
        MpiTransportOptimized { ctx, pump: OnceLock::new() }
    }
}

impl Transport for MpiTransportOptimized {
    fn name(&self) -> &'static str {
        "mpi-optimized"
    }

    fn handshake(&self, node: usize) -> Handshake {
        Handshake { node, mpi_rank: Some(self.ctx.rank()), comm: self.ctx.kind }
    }

    fn start(&self, endpoint: &Endpoint) {
        // One pump per transport: a repeated start must not spawn an orphan.
        self.pump.get_or_init(|| BodyPump::spawn(endpoint.clone()));
    }

    fn configure(&self, chan: &Arc<ChannelCore>) {
        if chan.peer_handshake.mpi_rank.is_none() {
            return; // non-MPI peer: stay on the socket path
        }
        let mut p = chan.pipeline.lock();
        p.add_outbound("mpi-body-send", Arc::new(OptOutbound { ctx: self.ctx.clone() }));
        p.add_inbound(
            "mpi-body-fetch",
            Arc::new(OptInbound {
                ctx: self.ctx.clone(),
                pump: self.pump.get().expect("transport started").clone(),
            }),
        );
    }
}

/// A body receive in flight: posted when its header was parsed, completed
/// (or timed out) by the endpoint's pump daemon.
struct PendingBody {
    chan: Arc<ChannelCore>,
    header: bytes::Bytes,
    deadline: u64,
}

/// Per-endpoint body-completion pump.
///
/// `OptInbound` posts one nonblocking `irecv` per parsed header and files
/// the pending entry here; the pump daemon completes arrivals through one
/// [`rmpi::CompletionSet`] in virtual-arrival order, so any number of
/// concurrent fetches into this endpoint overlap. Entries whose deadline
/// passes are cancelled with a drain: the posted slot is released and the
/// late body, if it ever lands, is absorbed instead of leaking into the
/// message store.
///
/// A body may wait as long as its endpoint's request timeout: a dropped body
/// would otherwise leave its receive posted forever, and once it is
/// cancelled the fetch surfaces as a missing chunk to the retry layer.
///
/// The pump holds no `Endpoint`: the endpoint owns its transport, which owns
/// the pump, so a handle here would close an `Arc` cycle and keep the
/// endpoint (and its handler's block manager) alive past shutdown. The
/// daemon's closure owns the handle instead and is unwound with the sim.
struct BodyPump {
    set: rmpi::CompletionSet,
    entries: Mutex<BTreeMap<u64, PendingBody>>,
    next_user: AtomicU64,
    body_timeout_ns: u64,
}

impl BodyPump {
    fn spawn(endpoint: Endpoint) -> Arc<BodyPump> {
        let pump = Arc::new(BodyPump {
            body_timeout_ns: endpoint.request_timeout_ns(),
            set: rmpi::CompletionSet::default(),
            entries: Mutex::new(BTreeMap::new()),
            next_user: AtomicU64::new(0),
        });
        let runner = pump.clone();
        simt::spawn_daemon(format!("mpi-opt-body-pump:n{}", endpoint.node()), move || {
            runner.run(&endpoint);
        });
        pump
    }

    /// File a posted body receive. The entry must be visible before the
    /// request joins the completion set: attaching can complete instantly
    /// (body already arrived), and the pump looks the entry up by `user`.
    fn submit(&self, chan: &Arc<ChannelCore>, header: bytes::Bytes, req: rmpi::Request) {
        let deadline = simt::now().saturating_add(self.body_timeout_ns);
        let user = self.next_user.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().insert(user, PendingBody { chan: chan.clone(), header, deadline });
        req.attach(&self.set, user);
    }

    fn run(&self, endpoint: &Endpoint) {
        loop {
            let next_deadline = self.entries.lock().values().map(|e| e.deadline).min();
            match self.set.wait_next(next_deadline) {
                rmpi::Completed::Recv { user, msg } => {
                    let Some(entry) = self.entries.lock().remove(&user) else {
                        continue;
                    };
                    Self::deliver(endpoint, entry, msg.payload);
                }
                rmpi::Completed::TimedOut => self.expire(),
                rmpi::Completed::Closed => break,
            }
        }
    }

    /// Decode the completed body against its saved header and hand the
    /// message to the endpoint, with the receive span causally linked to
    /// the sender (same convention as the Basic router's receiver threads).
    fn deliver(endpoint: &Endpoint, entry: PendingBody, body: Payload) {
        let obs = entry.chan.net.obs();
        let _span = obs.is_traced().then(|| {
            let link = Message::peek_span_id(&entry.header).unwrap_or(0);
            obs.tracer().span_linked(
                "rmpi.body.recv",
                link,
                obs::kv! {"src" => entry.chan.remote_node, "dst" => entry.chan.local_node},
            )
        });
        if let Ok(msg) = Message::decode(&entry.header, body) {
            endpoint.dispatch_received(&entry.chan, msg, entry.header.len() as u64);
        }
    }

    /// Cancel every entry whose deadline has passed; each cancel installs a
    /// drain so the late body cannot sit in the message store forever. The
    /// unanswered fetch then times out at the requester and retries.
    fn expire(&self) {
        let now = simt::now();
        let expired: Vec<u64> = self
            .entries
            .lock()
            .iter()
            .filter(|(_, e)| e.deadline <= now)
            .map(|(user, _)| *user)
            .collect();
        for user in expired {
            self.set.cancel_user(user);
            self.entries.lock().remove(&user);
        }
    }
}

/// Outbound: divert shuffle bodies to MPI, keep the header on the socket.
struct OptOutbound {
    ctx: Arc<MpiProcCtx>,
}

impl OutboundHandler for OptOutbound {
    fn on_write(&self, chan: &Arc<ChannelCore>, msg: Message) -> OutboundAction {
        if !diverts_body(msg.type_id()) {
            return OutboundAction::Forward(msg);
        }
        let peer = chan.peer_handshake;
        let Some(peer_rank) = peer.mpi_rank else {
            return OutboundAction::Forward(msg);
        };
        let header = msg.encode_header();
        let key = Message::peek_body_key(&header).expect("a shuffle body has a content key");
        let tag = opt_tag(chan.id, key);
        let body = msg.body().cloned().unwrap_or_else(Payload::empty);
        let body_virtual = body.virtual_len;
        let (comm, dest) = self.ctx.route(peer_rank, peer.comm);
        comm.send(dest, tag, body).expect("MPI body send");
        // Header-only frame on the socket path (Fig. 6: header carries the
        // type and body size the receiver needs to post its MPI_Recv).
        let header_len = header.len() as u64;
        let frame = Frame { header, body: Payload::empty() };
        chan.send_event(WireEvent::Data { channel: chan.id, frame }, header_len);
        OutboundAction::Sent { virtual_bytes: header_len + body_virtual }
    }
}

/// Inbound: parse the header; for shuffle bodies post the matching
/// `MPI_Recv` and reattach the body.
struct OptInbound {
    ctx: Arc<MpiProcCtx>,
    pump: Arc<BodyPump>,
}

impl InboundHandler for OptInbound {
    fn on_frame(&self, chan: &Arc<ChannelCore>, frame: Frame) -> InboundAction {
        // A diverted type arriving as a header-only frame means the body is
        // waiting on MPI.
        let eligible = Message::peek_type(&frame.header).is_some_and(diverts_body);
        if !eligible || !frame.body.is_empty() {
            return InboundAction::Forward(frame);
        }
        let peer = chan.peer_handshake;
        let Some(peer_rank) = peer.mpi_rank else {
            return InboundAction::Forward(frame);
        };
        let key = Message::peek_body_key(&frame.header).expect("a shuffle body has a content key");
        let tag = opt_tag(chan.id, key);
        let (comm, src) = self.ctx.route(peer_rank, peer.comm);

        // Post the receive and return immediately — the event loop goes
        // back to parsing headers while the pump completes arrivals, so
        // concurrent fetches into this endpoint overlap.
        let req = comm.irecv(Some(src), Some(tag));
        self.pump.submit(chan, frame.header, req);
        InboundAction::Consume
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
    header: bytes::Bytes,
    body: Payload,
}

/// Per-process demultiplexer for Basic-design traffic: receiver threads per
/// communicator pull `BASIC_TAG` messages and dispatch them to the owning
/// channel's endpoint. Endpoints are held weakly: each owns its transport,
/// which owns the process context and with it this router.
pub struct BasicRouter {
    channels: Mutex<BTreeMap<ChannelId, (WeakEndpoint, Arc<ChannelCore>)>>,
    world_started: AtomicBool,
    inter_started: AtomicBool,
}

impl BasicRouter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(BasicRouter {
            channels: Mutex::new(BTreeMap::new()),
            world_started: AtomicBool::new(false),
            inter_started: AtomicBool::new(false),
        })
    }

    fn ensure_receivers(self: &Arc<Self>, ctx: &Arc<MpiProcCtx>) {
        if !self.world_started.swap(true, Ordering::SeqCst) {
            self.spawn_receiver(ctx.world.clone(), "world");
        }
        if !self.inter_started.load(Ordering::SeqCst) {
            if let Some(inter) = ctx.inter() {
                if !self.inter_started.swap(true, Ordering::SeqCst) {
                    self.spawn_receiver(inter, "inter");
                }
            }
        }
    }

    fn spawn_receiver(self: &Arc<Self>, comm: rmpi::Comm, label: &str) {
        let router = self.clone();
        let obs = comm.universe().net().obs().clone();
        simt::spawn_daemon(format!("mpi-basic-rx:{label}:r{}", comm.rank()), move || loop {
            // This `recv` is unbounded on purpose: the daemon is the demux
            // loop itself, not a retry-covered request path. Fetch timeouts
            // are enforced at the requester, and finalize closes the store,
            // which errors this recv and exits.
            let Ok((payload, _status)) = comm.recv(None, Some(BASIC_TAG)) else {
                break;
            };
            let Some(msg) = payload.value_as::<BasicMsg>() else {
                continue;
            };
            // Model the polling selector: the message sat for half a poll
            // interval and cost iprobe sweeps to discover (§VI-D).
            simt::sleep(POLL_LATENCY_NS);
            comm.universe().net().cpu(comm.node()).execute(PER_MESSAGE_POLL_NS);
            let target = router.channels.lock().get(&msg.channel).cloned();
            let Some((endpoint, chan)) = target else {
                continue;
            };
            let Some(endpoint) = endpoint.upgrade() else {
                continue; // endpoint shut down and dropped
            };
            // The Basic path bypasses the endpoint's frame pipeline, so the
            // recv span (linked to the sender's span id from the header) is
            // opened here instead of in `Endpoint::on_frame`.
            let _recv_span = obs.is_traced().then(|| {
                let link = Message::peek_span_id(&msg.header).unwrap_or(0);
                obs.tracer().span_linked(
                    "netz.msg.recv",
                    link,
                    obs::kv! {"src" => chan.remote_node, "dst" => chan.local_node},
                )
            });
            match Message::decode(&msg.header, msg.body.clone()) {
                Ok(decoded) => endpoint.dispatch_received(&chan, decoded, msg.header.len() as u64),
                Err(_) => continue,
            }
        });
    }
}

/// The MPI4Spark-Basic transport (§VI-D).
pub struct MpiTransportBasic {
    ctx: Arc<MpiProcCtx>,
    endpoint: OnceLock<WeakEndpoint>,
}

impl MpiTransportBasic {
    /// Transport for the process described by `ctx`: every message crosses
    /// MPI (§VI-D).
    pub fn new(ctx: Arc<MpiProcCtx>) -> Self {
        MpiTransportBasic { ctx, endpoint: OnceLock::new() }
    }
}

impl Transport for MpiTransportBasic {
    fn name(&self) -> &'static str {
        "mpi-basic"
    }

    fn handshake(&self, node: usize) -> Handshake {
        Handshake { node, mpi_rank: Some(self.ctx.rank()), comm: self.ctx.kind }
    }

    fn start(&self, endpoint: &Endpoint) {
        self.endpoint.get_or_init(|| endpoint.downgrade());
        // The endpoint's selector loop now spins (non-blocking select +
        // iprobe) instead of blocking: continuous background CPU load.
        endpoint.net().cpu(endpoint.node()).add_background_load(POLL_LOAD_PER_ENDPOINT);
    }

    fn configure(&self, chan: &Arc<ChannelCore>) {
        if chan.peer_handshake.mpi_rank.is_none() {
            return;
        }
        let router = self.ctx.basic_router();
        let endpoint = self.endpoint.get().expect("transport started").clone();
        router.channels.lock().insert(chan.id, (endpoint, chan.clone()));
        router.ensure_receivers(&self.ctx);
        chan.pipeline.lock().add_outbound(
            "mpi-all-send",
            Arc::new(BasicOutbound { ctx: Arc::downgrade(&self.ctx) }),
        );
    }
}

/// Outbound: every message crosses MPI as one `(header, body)` envelope.
///
/// The context is held weakly: it owns the router, whose channel table owns
/// this handler's channel. Once the context is gone, messages stay on the
/// socket path.
struct BasicOutbound {
    ctx: Weak<MpiProcCtx>,
}

impl OutboundHandler for BasicOutbound {
    fn on_write(&self, chan: &Arc<ChannelCore>, msg: Message) -> OutboundAction {
        let peer = chan.peer_handshake;
        let (Some(peer_rank), Some(ctx)) = (peer.mpi_rank, self.ctx.upgrade()) else {
            return OutboundAction::Forward(msg);
        };
        let header = msg.encode_header();
        let body = msg.body().cloned().unwrap_or_else(Payload::empty);
        let total = header.len() as u64 + body.virtual_len;
        let (comm, dest) = ctx.route(peer_rank, peer.comm);
        comm.send(
            dest,
            BASIC_TAG,
            Payload::control(BasicMsg { channel: chan.id, header, body }, total),
        )
        .expect("MPI send");
        OutboundAction::Sent { virtual_bytes: total }
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
