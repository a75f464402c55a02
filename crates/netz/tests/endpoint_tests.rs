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
    // virtual time (no hidden polling slop), and classify as a plane-level
    // failure so the layers above retry / degrade correctly.
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
        assert!(e.is_plane_failure());
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn mid_stream_disconnect_is_a_plane_failure() {
    // First chunk lands; the server dies mid-stream; the next chunk fetch
    // must fail with a plane-classified error (the signal the fetch retry
    // layer counts toward transport degradation), not hang or mislabel.
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
        assert!(e.is_plane_failure(), "mid-stream disconnect misclassified: {e:?}");
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
