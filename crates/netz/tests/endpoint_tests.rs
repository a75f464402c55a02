//! End-to-end tests of the netz transport: connection establishment, RPC
//! round-trips, chunk fetches, streams, teardown, and a ping-pong latency
//! sanity check previewing the paper's Fig. 8.

use std::sync::Arc;

use bytes::Bytes;
use fabric::{ClusterSpec, Net, Payload};
use netz::{NetzError, NoOpRpcHandler, RpcHandler, StreamManager, TransportConf, TransportContext};
use simt::sync::Mutex;
use simt::Sim;

/// Echo handler: replies with the request body; serves chunks of
/// predictable content.
struct EchoHandler;

impl RpcHandler for EchoHandler {
    fn receive(
        &self,
        _chan: &Arc<netz::ChannelCore>,
        body: Payload,
        reply: netz::context::RpcResponseCallback,
    ) {
        reply(Ok(body));
    }

    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        Arc::new(EchoStreams)
    }
}

struct EchoStreams;

impl StreamManager for EchoStreams {
    fn get_chunk(&self, stream_id: u64, chunk_index: u32) -> Result<Payload, String> {
        if stream_id == 404 {
            return Err("no such stream".to_string());
        }
        let data = format!("chunk-{stream_id}-{chunk_index}");
        Ok(Payload::bytes_scaled(Bytes::from(data.into_bytes()), 1 << 16))
    }

    fn open_stream(&self, stream_id: &str) -> Result<Payload, String> {
        if stream_id == "/missing" {
            return Err("not found".to_string());
        }
        Ok(Payload::bytes_scaled(Bytes::from(format!("stream:{stream_id}").into_bytes()), 4096))
    }
}

/// Handler that never replies: only a close or a reset ends a request.
struct BlackHole;

impl RpcHandler for BlackHole {
    fn receive(
        &self,
        _c: &Arc<netz::ChannelCore>,
        _b: Payload,
        _reply: netz::context::RpcResponseCallback,
    ) {
        // drop the reply callback: never answers
    }
}

fn setup(n_nodes: usize) -> (Sim, Net) {
    let sim = Sim::new();
    let net = Net::new(&ClusterSpec::test(n_nodes));
    (sim, net)
}

#[test]
fn rpc_roundtrip() {
    let (sim, net) = setup(2);
    let net2 = net.clone();
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server_ctx = TransportContext::new(net2.clone(), conf, Arc::new(EchoHandler));
        let server = server_ctx.create_server("server", 0, 100);
        let client_ctx = TransportContext::new(net2.clone(), conf, Arc::new(NoOpRpcHandler));
        let ep = client_ctx.create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        let reply = client.send_rpc(Payload::bytes(Bytes::from_static(b"ping"))).unwrap();
        assert_eq!(&reply.bytes[..], b"ping");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn chunk_fetch_roundtrip() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        let chunk = client.fetch_chunk(7, 3).unwrap();
        assert_eq!(&chunk.bytes[..], b"chunk-7-3");
        assert_eq!(chunk.virtual_len, 1 << 16);
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn chunk_fetch_failure_surfaces_remote_error() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        match client.fetch_chunk(404, 0) {
            Err(NetzError::Remote(e)) => assert_eq!(e, "no such stream"),
            other => panic!("expected remote failure, got {other:?}"),
        }
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn stream_roundtrip_and_failure() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        let data = client.open_stream("/jars/app.jar").unwrap();
        assert_eq!(&data.bytes[..], b"stream:/jars/app.jar");
        assert!(matches!(client.open_stream("/missing"), Err(NetzError::Remote(_))));
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn oneway_reaches_handler() {
    struct Recorder(Arc<Mutex<Vec<Vec<u8>>>>);
    impl RpcHandler for Recorder {
        fn receive(
            &self,
            _c: &Arc<netz::ChannelCore>,
            _b: Payload,
            reply: netz::context::RpcResponseCallback,
        ) {
            reply(Err("no rpc".into()));
        }
        fn receive_oneway(&self, _c: &Arc<netz::ChannelCore>, body: Payload) {
            self.0.lock().push(body.bytes.to_vec());
        }
    }
    let (sim, net) = setup(2);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(Recorder(seen2)))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        client.send_oneway(Payload::bytes(Bytes::from_static(b"fire-and-forget")));
        simt::sleep(simt::time::millis(10));
    });
    sim.run().unwrap().assert_clean();
    assert_eq!(seen.lock().as_slice(), &[b"fire-and-forget".to_vec()]);
}

#[test]
fn connect_to_unbound_port_times_out() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let mut conf = TransportConf::default_sockets();
        conf.connect_timeout_ns = simt::time::millis(5);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let r = ep.connect(fabric::PortAddr { node: 0, port: 9999 });
        assert!(matches!(r, Err(NetzError::ConnectFailed(_))));
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn rpc_after_server_shutdown_fails() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let mut conf = TransportConf::default_sockets();
        conf.request_timeout_ns = simt::time::millis(50);
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        assert!(client.send_rpc(Payload::bytes(Bytes::from_static(b"a"))).is_ok());
        server.shutdown();
        simt::sleep(simt::time::millis(5));
        let r = client.send_rpc(Payload::bytes(Bytes::from_static(b"b")));
        assert!(r.is_err(), "{r:?}");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn channel_close_fails_pending_rpc() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(BlackHole))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        let client2 = client.clone();
        simt::spawn("closer", move || {
            simt::sleep(simt::time::millis(2));
            client2.close();
        });
        let r = client.send_rpc(Payload::bytes(Bytes::from_static(b"never")));
        assert!(matches!(r, Err(NetzError::ChannelClosed)));
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn peer_crash_resets_its_channels_at_the_window_start() {
    struct LostPeers(Arc<Mutex<Vec<(fabric::NodeId, u64)>>>);
    impl RpcHandler for LostPeers {
        fn receive(
            &self,
            _c: &Arc<netz::ChannelCore>,
            _b: Payload,
            reply: netz::context::RpcResponseCallback,
        ) {
            reply(Err("client only".into()));
        }
        fn peer_lost(&self, node: fabric::NodeId) {
            self.0.lock().push((node, simt::now()));
        }
    }
    let crash_at = simt::time::millis(5);
    let (sim, net) = setup(2);
    net.install_chaos(fabric::FaultPlan::seeded(1).crash_node(0, crash_at, 1_000).build());
    let lost = Arc::new(Mutex::new(Vec::new()));
    let lost2 = lost.clone();
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(BlackHole))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(LostPeers(lost2)))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        let r = client.send_rpc(Payload::bytes(Bytes::from_static(b"never")));
        assert!(matches!(r, Err(NetzError::ChannelClosed)), "{r:?}");
        assert_eq!(simt::now(), crash_at, "failed at the crash, not the request timeout");
        assert!(ep.channels().is_empty(), "the surviving side dropped its channel");
        let kept = server.channels();
        assert!(kept.len() == 1 && kept[0].is_open(), "the crashed side resets nothing");
    });
    sim.run().unwrap().assert_clean();
    assert_eq!(lost.lock().clone(), vec![(0, crash_at)], "peer_lost runs once, at the start");
}

#[test]
fn many_clients_one_server() {
    let (sim, net) = setup(4);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let done = Arc::new(Mutex::new(0usize));
        for node in 1..4usize {
            for i in 0..3 {
                let net = net.clone();
                let addr = server.addr();
                let done = done.clone();
                simt::spawn(format!("client-{node}-{i}"), move || {
                    let ep = TransportContext::new(net, conf, Arc::new(NoOpRpcHandler))
                        .create_client_endpoint(format!("c{node}{i}"), node);
                    let client = ep.connect(addr).unwrap();
                    let msg = format!("hello-{node}-{i}");
                    let reply = client
                        .send_rpc(Payload::bytes(Bytes::from(msg.clone().into_bytes())))
                        .unwrap();
                    assert_eq!(&reply.bytes[..], msg.as_bytes());
                    *done.lock() += 1;
                });
            }
        }
        simt::sleep(simt::time::secs(2));
        assert_eq!(*done.lock(), 9);
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn rank_to_channel_mapping_via_handshake() {
    use netz::{CommKind, Handshake, Transport};
    struct FakeMpiTransport(u32);
    impl Transport for FakeMpiTransport {
        fn name(&self) -> &'static str {
            "fake-mpi"
        }
        fn handshake(&self, node: usize) -> Handshake {
            Handshake { node, mpi_rank: Some(self.0), comm: CommKind::World }
        }
    }
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::with_transport(
            net.clone(),
            conf,
            Arc::new(EchoHandler),
            Arc::new(FakeMpiTransport(0)),
        )
        .create_server("server", 0, 100);
        let ep = TransportContext::with_transport(
            net.clone(),
            conf,
            Arc::new(NoOpRpcHandler),
            Arc::new(FakeMpiTransport(1)),
        )
        .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        // Client side sees the server's rank, server side sees the client's.
        assert_eq!(client.channel().peer_handshake.mpi_rank, Some(0));
        simt::sleep(simt::time::millis(1));
        let peers: Vec<Handshake> = server.channels().iter().map(|c| c.peer_handshake).collect();
        assert_eq!(peers, [Handshake { node: 1, mpi_rank: Some(1), comm: CommKind::World }]);
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn pingpong_latency_sanity() {
    // A miniature of the paper's Fig. 8 measurement: the socket transport's
    // small-message round trip sits in the tens of microseconds.
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        // Warm-up.
        client.send_rpc(Payload::bytes(Bytes::from_static(b"w"))).unwrap();
        let t0 = simt::now();
        let iters = 10;
        for _ in 0..iters {
            client.send_rpc(Payload::bytes(Bytes::from_static(b"x"))).unwrap();
        }
        let rtt = (simt::now() - t0) / iters;
        // 4 socket messages per RPC round trip (req frame + resp frame, each
        // charged send+recv ≈ 30 µs) → ~60-130 µs.
        assert!((40_000..=400_000).contains(&rtt), "rtt = {rtt} ns");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn metrics_count_traffic() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        client.send_rpc(Payload::bytes(Bytes::from_static(b"12345678"))).unwrap();
        // One read surface for traffic counters: the net's registry
        // snapshot. Request + echoed response = 2 sends and 2 receives
        // across the two endpoints sharing this net.
        let snap = net.obs().registry().snapshot();
        assert_eq!(snap.counter(obs::keys::NETZ_MSGS_SENT), 2);
        assert_eq!(snap.counter(obs::keys::NETZ_MSGS_RECEIVED), 2);
        assert!(snap.counter(obs::keys::NETZ_BYTES_SENT) >= 16);
        assert!(snap.counter(obs::keys::NETZ_BYTES_RECEIVED) >= 16);
        assert_eq!(snap.counter(obs::keys::NETZ_CHANNELS_OPENED), 2, "one per side");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn connect_timeout_is_bounded_by_the_virtual_clock() {
    // The failed connect must consume exactly the configured timeout of
    // virtual time (no hidden polling slop), and report a failed connect so
    // the fetch layer above retries it.
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let mut conf = TransportConf::default_sockets();
        conf.connect_timeout_ns = simt::time::millis(5);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let t0 = simt::now();
        let Err(e) = ep.connect(fabric::PortAddr { node: 0, port: 9999 }) else {
            panic!("connect to an unbound port cannot succeed");
        };
        let waited = simt::now() - t0;
        assert!(waited >= simt::time::millis(5), "gave up early: {waited} ns");
        assert!(waited < simt::time::millis(6), "overshot the timeout: {waited} ns");
        assert!(matches!(e, NetzError::ConnectFailed(_)), "{e:?}");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn mid_stream_disconnect_is_a_plane_failure() {
    // First chunk lands; the server dies mid-stream; the next chunk fetch
    // must fail with a dead-channel error (which the fetch retry layer
    // re-requests), not hang or report a remote failure.
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let mut conf = TransportConf::default_sockets();
        conf.request_timeout_ns = simt::time::millis(50);
        let server = TransportContext::new(net.clone(), conf, Arc::new(EchoHandler))
            .create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        let chunk = client.fetch_chunk(1, 0).unwrap();
        assert_eq!(&chunk.bytes[..], b"chunk-1-0");
        server.shutdown();
        simt::sleep(simt::time::millis(5));
        let Err(e) = client.fetch_chunk(1, 1) else {
            panic!("chunk fetch from a dead server cannot succeed");
        };
        assert_eq!(e, NetzError::ChannelClosed, "mid-stream disconnect misclassified");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn backoff_schedule_is_ordered_against_virtual_timestamps() {
    // Sleep through a retry schedule on the virtual clock and check the
    // recorded timestamps: strictly increasing, gaps doubling (with jitter
    // bounded by `jitter_frac`) until the cap, then pinned at the cap.
    let sim = Sim::new();
    sim.spawn("main", move || {
        let base = simt::time::millis(10);
        let cap = simt::time::millis(40);
        let policy = netz::RetryPolicy { base_delay_ns: base, max_delay_ns: cap, jitter_frac: 0.2 };
        let mut rng = simt::SeededRng::from_seed(77);
        let mut stamps = vec![simt::now()];
        for attempt in 0..6 {
            simt::sleep(policy.backoff_ns(attempt, &mut rng));
            stamps.push(simt::now());
        }
        let gaps: Vec<u64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
        for (k, gap) in gaps.iter().enumerate() {
            let nominal = (base << k).min(cap);
            assert!(
                (nominal..nominal + nominal / 5 + 1).contains(gap),
                "attempt {k}: gap {gap} outside [{nominal}, {nominal} + 20%]"
            );
        }
        // Below the cap the schedule is strictly ordered even under maximal
        // jitter: the k-th gap's floor (2^k · base) clears the (k-1)-th
        // gap's ceiling (1.2 · 2^(k-1) · base).
        for w in gaps.windows(2) {
            assert!(w[1] >= w[0] || w[0] > cap, "backoff shrank: {gaps:?}");
        }
        assert_eq!(gaps.last().map(|g| *g >= cap), Some(true), "tail pinned at the cap");
    });
    sim.run().unwrap().assert_clean();
}

/// Logs the virtual time at which each request reaches the server, and
/// answers it inside `receive`, or later from a green thread of its own.
struct Timed {
    log: Arc<Mutex<Vec<u64>>>,
    reply_later: bool,
}

impl RpcHandler for Timed {
    fn receive(
        &self,
        _c: &Arc<netz::ChannelCore>,
        body: Payload,
        reply: netz::context::RpcResponseCallback,
    ) {
        self.log.lock().push(simt::now());
        if self.reply_later {
            simt::spawn("replier", move || reply(Ok(body)));
        } else {
            reply(Ok(body));
        }
    }

    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        Arc::new(TimedChunks(self.log.clone()))
    }
}

struct TimedChunks(Arc<Mutex<Vec<u64>>>);

impl StreamManager for TimedChunks {
    fn get_chunk(&self, _stream_id: u64, _chunk_index: u32) -> Result<Payload, String> {
        self.0.lock().push(simt::now());
        Ok(Payload::bytes_scaled(Bytes::new(), 1 << 20))
    }
}

/// Two requests written back to back to one server (two chunk fetches, or
/// two RPCs); when each reached the server's handler or stream manager.
fn two_requests(chunks: bool, reply_later: bool) -> Vec<u64> {
    let (sim, net) = setup(2);
    let log = Arc::new(Mutex::new(Vec::new()));
    let handler = Arc::new(Timed { log: log.clone(), reply_later });
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server =
            TransportContext::new(net.clone(), conf, handler).create_server("server", 0, 100);
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        let client = ep.connect(server.addr()).unwrap();
        for i in 0..2 {
            if chunks {
                client.fetch_chunk_async(7, i, Box::new(|r| assert!(r.is_ok())), || ());
            } else {
                let body = Payload::bytes(Bytes::from_static(b"ping"));
                client.send_rpc_then(body, |r| assert!(r.is_ok()));
            }
        }
        simt::sleep(simt::time::millis(10));
    });
    sim.run().unwrap().assert_clean();
    let log = log.lock().clone();
    log
}

/// Receive plus send CPU of the socket stack for `msg`'s frame.
fn frame_cpu_ns(msg: &netz::Message, recv: bool) -> u64 {
    let stack = TransportConf::default_sockets().stack;
    let len = msg.encode_header().len() as u64 + msg.body_virtual_len();
    if recv {
        stack.recv_cpu_ns(len)
    } else {
        stack.send_cpu_ns(len)
    }
}

#[test]
fn a_chunk_fetch_holds_the_port_until_its_reply_is_booked() {
    use netz::Message;
    let log = two_requests(true, false);
    // The second request waited on the port while the first one's chunk CPU
    // ran and its reply was written: its receive CPU and its own chunk CPU
    // start only once that reply is booked.
    let reply = Message::ChunkFetchSuccess {
        stream_id: 7,
        chunk_index: 0,
        body: Payload::bytes_scaled(Bytes::new(), 1 << 20),
    };
    let request = Message::ChunkFetchRequest { stream_id: 7, chunk_index: 1 };
    let held = frame_cpu_ns(&reply, false) + frame_cpu_ns(&request, true) + 2_000;
    assert_eq!(log, [95_246, 95_246 + held]);
    assert_eq!(held, 115_891);
}

#[test]
fn a_reply_made_inside_receive_holds_the_port_and_a_later_one_does_not() {
    use netz::Message;
    let body = Payload::bytes(Bytes::from_static(b"ping"));
    let reply = Message::RpcResponse { request_id: 0, body: body.clone() };
    let request = Message::RpcRequest { request_id: 1, body };
    let (write, read) = (frame_cpu_ns(&reply, false), frame_cpu_ns(&request, true));
    // Inside `receive`, the reply's write is part of the packet's work.
    assert_eq!(two_requests(false, false), [93_246, 93_246 + write + read]);
    // From a thread of its own, the write runs beside the next receive.
    assert_eq!(two_requests(false, true), [93_246, 93_246 + read]);
    assert_eq!((write, read), (15_002, 15_002));
}

/// A server on node 0 answering with `handler`, and a client endpoint on
/// node 1.
fn server_and_client(
    net: &Net,
    conf: TransportConf,
    handler: Arc<dyn RpcHandler>,
) -> (netz::Endpoint, netz::Endpoint) {
    let server = TransportContext::new(net.clone(), conf, handler).create_server("server", 0, 100);
    let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
        .create_client_endpoint("client", 1);
    (server, ep)
}

fn channels_opened(net: &Net) -> u64 {
    net.obs().registry().snapshot().counter(obs::keys::NETZ_CHANNELS_OPENED)
}

#[test]
fn client_calls_share_one_channel() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let (server, ep) = server_and_client(&net, conf, Arc::new(EchoHandler));
        let a = ep.client(server.addr()).unwrap();
        let b = ep.client(server.addr()).unwrap();
        assert_eq!(a.channel().id, b.channel().id);
        assert_eq!(ep.channels().len(), 1);
        assert_eq!(channels_opened(&net), 2, "one connection, one channel per side");
        let reply = b.send_rpc(Payload::bytes(Bytes::from_static(b"ping"))).unwrap();
        assert_eq!(&reply.bytes[..], b"ping");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn client_connects_again_once_its_channel_closes() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let (server, ep) = server_and_client(&net, conf, Arc::new(EchoHandler));
        let first = ep.client(server.addr()).unwrap();
        first.close();
        let second = ep.client(server.addr()).unwrap();
        assert!(!first.is_active());
        assert!(second.is_active());
        assert_ne!(first.channel().id, second.channel().id);
        assert_eq!(channels_opened(&net), 4, "two connections, one channel per side each");
        let reply = second.send_rpc(Payload::bytes(Bytes::from_static(b"again"))).unwrap();
        assert_eq!(&reply.bytes[..], b"again");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn client_then_from_a_continuation_returns_the_cached_client_without_a_connect() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let (server, ep) = server_and_client(&net, conf, Arc::new(EchoHandler));
        let cached = ep.client(server.addr()).unwrap().channel().id;
        let seen = Arc::new(Mutex::new(None));
        let (seen2, remote, net2) = (seen.clone(), server.addr(), net.clone());
        simt::engine::call_at(simt::now(), move || {
            let before = channels_opened(&net2);
            let got = Arc::new(Mutex::new(None));
            let got2 = got.clone();
            ep.client_then(remote, move |c| *got2.lock() = Some(c.map(|c| c.channel().id)));
            // At once: a connect would need a round trip on the wire.
            let id = got.lock().take().expect("the cached client, at once");
            *seen2.lock() = Some((id, channels_opened(&net2) - before));
        });
        simt::sleep(simt::time::millis(1));
        let (id, opened) = seen.lock().take().expect("the continuation ran");
        assert_eq!(id.unwrap(), cached);
        assert_eq!(opened, 0, "no channel opened");
        assert_eq!(channels_opened(&net), 2, "no `Connect` reached the server");
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn shutdown_closes_the_cached_clients() {
    let (sim, net) = setup(2);
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let (server, ep) = server_and_client(&net, conf, Arc::new(BlackHole));
        let client = ep.client(server.addr()).unwrap();
        let ep2 = ep.clone();
        simt::spawn("shutdown", move || {
            simt::sleep(simt::time::millis(2));
            ep2.shutdown();
        });
        let r = client.send_rpc(Payload::bytes(Bytes::from_static(b"never")));
        assert!(matches!(r, Err(NetzError::ChannelClosed)), "{r:?}");
        assert!(simt::now() < conf.request_timeout_ns, "failed at the shutdown, not the timeout");
        assert!(!client.is_active());
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn shutdown_closes_the_cached_clients_first_in_address_order() {
    /// Logs when a channel to this server goes down.
    struct Downs(&'static str, Arc<Mutex<Vec<(&'static str, u64)>>>);
    impl RpcHandler for Downs {
        fn receive(
            &self,
            _c: &Arc<netz::ChannelCore>,
            body: Payload,
            reply: netz::context::RpcResponseCallback,
        ) {
            reply(Ok(body));
        }
        fn channel_inactive(&self, _chan: &Arc<netz::ChannelCore>) {
            self.1.lock().push((self.0, simt::now()));
        }
    }
    let (sim, net) = setup(3);
    let downs = Arc::new(Mutex::new(Vec::new()));
    let downs2 = downs.clone();
    sim.spawn("main", move || {
        let conf = TransportConf::default_sockets();
        let server = |name, node| {
            TransportContext::new(net.clone(), conf, Arc::new(Downs(name, downs2.clone())))
                .create_server(name, node, 100)
        };
        let (low, high) = (server("low", 0), server("high", 2));
        assert!(low.addr() < high.addr());
        let ep = TransportContext::new(net.clone(), conf, Arc::new(NoOpRpcHandler))
            .create_client_endpoint("client", 1);
        // Connect to the higher address first, so its channel is the older.
        ep.client(high.addr()).unwrap();
        ep.client(low.addr()).unwrap();
        ep.shutdown();
        simt::sleep(simt::time::millis(1));
    });
    sim.run().unwrap().assert_clean();
    let downs = downs.lock().clone();
    let order: Vec<_> = downs.iter().map(|(name, _)| *name).collect();
    assert_eq!(order, ["low", "high"], "cached clients close in address order: {downs:?}");
    assert!(downs[0].1 < downs[1].1, "one `Close` after the other: {downs:?}");
}
