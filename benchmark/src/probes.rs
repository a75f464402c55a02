//! Layer probes: small programs against one layer's public functions, each
//! under a harness span, run once in the traced pass. Virtual results are
//! exact; host results are one sample each and informational.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use fabric::{ClusterSpec, Net, Payload, PortAddr, StackModel};
use mpi4spark::transport::{MpiTransportBasic, MpiTransportOptimized};
use mpi4spark::MpiProcCtx;
use netz::{
    ChannelCore, Message, NoOpRpcHandler, RpcHandler, StreamManager, Transport, TransportClient,
    TransportConf, TransportContext,
};
use rmpi::Comm;
use simt::sync::OnceCell;
use simt::Sim;

use crate::affinity::Pinned;
use crate::report::Metric;
use crate::spans::Recorder;

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

fn payload(virtual_len: u64) -> Payload {
    Payload::bytes_scaled(Bytes::from_static(b"p"), virtual_len)
}

/// Run `body` on a green thread of a fresh simulation; returns what it put in
/// the cell and the host nanoseconds `Sim::run` took.
fn simulate<R: Send + 'static>(body: impl FnOnce(OnceCell<R>) + Send + 'static) -> (R, f64) {
    let sim = Sim::new();
    let out = OnceCell::new();
    let out2 = out.clone();
    sim.spawn("probe", move || body(out2));
    let t = Instant::now();
    sim.run().expect("probe simulation completes");
    let host_ns = t.elapsed().as_nanos() as f64;
    let value = out.try_take().expect("probe stored its result");
    sim.shutdown();
    (value, host_ns)
}

// ---------------------------------------------------------------- simt ----

/// Host ns per hand-off: `threads` green threads each sleeping `sleeps` times
/// for one virtual nanosecond, so that every wake switches OS threads.
fn handoff_ns(threads: usize, sleeps: usize) -> f64 {
    let sim = Sim::new();
    for i in 0..threads {
        sim.spawn(format!("sleeper-{i}"), move || (0..sleeps).for_each(|_| simt::sleep(1)));
    }
    let t = Instant::now();
    sim.run().expect("hand-off probe completes").assert_clean();
    let host_ns = t.elapsed().as_nanos() as f64;
    sim.shutdown();
    host_ns / (threads * sleeps) as f64
}

/// Host µs to spawn, run and reap one empty green thread.
fn spawn_reap_us(n: usize) -> f64 {
    let ((), host_ns) = simulate(move |done| {
        for _ in 0..n {
            simt::spawn("child", || ());
            simt::yield_now();
        }
        done.put(());
    });
    host_ns / n as f64 / 1e3
}

/// Host ns per `call_at` closure event (scheduled and dispatched).
fn call_ns(n: u64) -> f64 {
    let ((), host_ns) = simulate(move |done| {
        for i in 0..n {
            simt::engine::call_at(simt::now() + i, || ());
        }
        simt::sleep(n);
        done.put(());
    });
    host_ns / n as f64
}

/// Host ns per message bounced between two green threads over `simt::queue`.
fn queue_pingpong_ns(round_trips: usize) -> f64 {
    let ((), host_ns) = simulate(move |done| {
        let (ping_tx, ping_rx) = simt::queue::channel::<usize>();
        let (pong_tx, pong_rx) = simt::queue::channel::<usize>();
        simt::spawn("echo", move || {
            while let Ok(v) = ping_rx.recv() {
                pong_tx.send(v);
            }
        });
        for i in 0..round_trips {
            ping_tx.send(i);
            pong_rx.recv().expect("echo thread answers");
        }
        ping_tx.close();
        done.put(());
    });
    host_ns / (2 * round_trips) as f64
}

// -------------------------------------------------------------- fabric ----

/// Virtual ns from `Net::send` to `PortRx::recv` returning, node 0 to node 1.
fn fabric_oneway_virtual_ns(stack: StackModel, size: u64) -> u64 {
    simulate(move |out| {
        let net = Net::new(&ClusterSpec::frontera(2));
        let rx = net.bind(1, 700);
        let t0 = simt::now();
        net.send(&stack, 0, rx.addr(), payload(size));
        rx.recv().expect("probe packet arrives");
        out.put(simt::now() - t0);
    })
    .0
}

/// Host ns per 1 KiB message through `Net::send` and `PortRx::recv`.
fn fabric_send_host_ns(n: usize) -> f64 {
    let ((), host_ns) = simulate(move |done| {
        let net = Net::new(&ClusterSpec::frontera(2));
        let rx = net.bind(1, 700);
        let stack = StackModel::native_mpi();
        for _ in 0..n {
            net.send(&stack, 0, rx.addr(), payload(KIB));
            rx.recv().expect("probe packet arrives");
        }
        done.put(());
    });
    host_ns / n as f64
}

// ---------------------------------------------------- netz, rmpi, core ----

/// Serves chunks whose size is the stream id, as `crates/bench`'s Fig. 8
/// runner does: the client encodes the probed size there.
struct SizeChunks;

impl RpcHandler for SizeChunks {
    fn receive(
        &self,
        _chan: &Arc<ChannelCore>,
        _body: Payload,
        reply: netz::context::RpcResponseCallback,
    ) {
        reply(Err("ping-pong server only serves chunks".into()));
    }

    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        Arc::new(SizeChunks)
    }
}

impl StreamManager for SizeChunks {
    fn get_chunk(&self, stream_id: u64, _chunk_index: u32) -> Result<Payload, String> {
        Ok(payload(stream_id))
    }
}

const SERVER: PortAddr = PortAddr { node: 0, port: 500 };
const WARMUP: u32 = 3;

/// One-way virtual ns (half a `fetch_chunk` round trip of `size` bytes) and
/// host ns per round trip.
fn fetch_pingpong(client: &TransportClient, size: u64, iters: u32) -> (u64, f64) {
    for _ in 0..WARMUP {
        client.fetch_chunk(size, 0).expect("warm-up fetch");
    }
    let (v0, h0) = (simt::now(), Instant::now());
    for _ in 0..iters {
        client.fetch_chunk(size, 0).expect("measured fetch");
    }
    let per = |total: f64| total / f64::from(iters);
    ((simt::now() - v0) / u64::from(iters) / 2, per(h0.elapsed().as_nanos() as f64))
}

fn context(
    net: &Net,
    handler: Arc<dyn RpcHandler>,
    transport: Arc<dyn Transport>,
) -> TransportContext {
    TransportContext::with_transport(
        net.clone(),
        TransportConf::default_sockets(),
        handler,
        transport,
    )
}

/// The Fig. 8 exchange over plain NIO.
fn netz_pingpong(size: u64, iters: u32) -> (u64, f64) {
    simulate(move |out| {
        let net = Net::new(&ClusterSpec::frontera(2));
        let nio = || Arc::new(netz::NioTransport);
        let server = context(&net, Arc::new(SizeChunks), nio()).create_server("pp-server", 0, 500);
        let ep =
            context(&net, Arc::new(NoOpRpcHandler), nio()).create_client_endpoint("pp-client", 1);
        let client = ep.connect(server.addr()).expect("connect");
        out.put(fetch_pingpong(&client, size, iters));
    })
    .0
}

/// The same exchange with an MPI4Spark transport on both ends, two ranks.
fn core_pingpong(
    transport: fn(Arc<MpiProcCtx>) -> Arc<dyn Transport>,
    size: u64,
    iters: u32,
) -> (u64, f64) {
    simulate(move |out| {
        let net = Net::new(&ClusterSpec::frontera(2));
        let done: OnceCell<()> = OnceCell::new();
        let (done_server, net_server, net_client) = (done.clone(), net.clone(), net.clone());
        rmpi::mpiexec_with(
            &net,
            &[0, 1],
            vec![
                Box::new(move |world: Comm| {
                    let transport = transport(MpiProcCtx::world_proc(world));
                    let server = context(&net_server, Arc::new(SizeChunks), transport)
                        .create_server("pp-server", SERVER.node, SERVER.port);
                    done_server.take();
                    server.shutdown();
                }),
                Box::new(move |world: Comm| {
                    simt::sleep(simt::time::millis(1)); // the server binds first
                    let transport = transport(MpiProcCtx::world_proc(world));
                    let ep = context(&net_client, Arc::new(NoOpRpcHandler), transport)
                        .create_client_endpoint("pp-client", 1);
                    let client = ep.connect(SERVER).expect("connect");
                    out.put(fetch_pingpong(&client, size, iters));
                    done.put(());
                }),
            ],
        );
    })
    .0
}

/// Host ns per `Message::encode_header` + `Message::decode` of a chunk reply.
fn netz_codec_host_ns(n: u32) -> f64 {
    let msg = Message::ChunkFetchSuccess { stream_id: 7, chunk_index: 3, body: payload(MIB) };
    let t = Instant::now();
    for _ in 0..n {
        let header = black_box(&msg).encode_header();
        black_box(Message::decode(&header, payload(MIB)).expect("header decodes"));
    }
    t.elapsed().as_nanos() as f64 / f64::from(n)
}

/// `ranks` MPI ranks, one per node; rank 0's return value is the result.
fn mpi_ranks<R: Send + Sync + 'static>(
    ranks: usize,
    body: impl Fn(Comm) -> R + Send + Sync + 'static,
) -> (R, f64) {
    simulate(move |out| {
        let net = Net::new(&ClusterSpec::frontera(ranks));
        let placements: Vec<usize> = (0..ranks).collect();
        rmpi::mpiexec(&net, &placements, move |world| {
            let rank = world.rank();
            let value = body(world);
            if rank == 0 {
                out.put(value);
            }
        });
    })
}

/// One-way virtual ns and host ns per round trip of `send`/`recv`.
fn rmpi_pingpong(size: u64, iters: u32) -> (u64, f64) {
    mpi_ranks(2, move |world| {
        let peer = 1 - world.rank();
        let bounce = |n: u32| {
            for _ in 0..n {
                if world.rank() == 0 {
                    world.send(peer, 1, payload(size)).expect("send");
                    world.recv(Some(peer), Some(1)).expect("recv");
                } else {
                    world.recv(Some(peer), Some(1)).expect("recv");
                    world.send(peer, 1, payload(size)).expect("send");
                }
            }
        };
        bounce(WARMUP);
        let (v0, h0) = (simt::now(), Instant::now());
        bounce(iters);
        let host = h0.elapsed().as_nanos() as f64 / f64::from(iters);
        ((simt::now() - v0) / u64::from(iters) / 2, host)
    })
    .0
}

/// Virtual ns and host ns per 16-rank `allreduce` of a 1 MiB value, the size
/// of `iter_ml`'s partial aggregates.
fn rmpi_allreduce16(iters: u32) -> (u64, f64) {
    mpi_ranks(16, move |world| {
        let (v0, h0) = (simt::now(), Instant::now());
        for _ in 0..iters {
            world.allreduce(1u64, MIB, |a, b| a + b).expect("allreduce");
        }
        let host = h0.elapsed().as_nanos() as f64 / f64::from(iters);
        ((simt::now() - v0) / u64::from(iters), host)
    })
    .0
}

/// Host ns per request of a 64-`irecv` + `waitall` round (the sender's work
/// included: the simulation runs one thread at a time).
fn rmpi_waitall_host_ns(rounds: u32) -> f64 {
    const REQUESTS: u64 = 64;
    let ((), host_ns) = mpi_ranks(2, move |world| {
        for _ in 0..rounds {
            if world.rank() == 0 {
                let reqs = (0..REQUESTS).map(|tag| world.irecv(Some(1), Some(tag))).collect();
                rmpi::comm::waitall(reqs).expect("waitall");
                world.send(1, REQUESTS, payload(8)).expect("round ack");
            } else {
                for tag in 0..REQUESTS {
                    world.send(0, tag, payload(KIB)).expect("send");
                }
                world.recv(Some(0), Some(REQUESTS)).expect("round ack");
            }
        }
    });
    host_ns / (u64::from(rounds) * REQUESTS) as f64
}

// ----------------------------------------------------------------------

/// Every probe, each under its own root harness span.
pub fn run_all(rec: &Recorder, pinned: &Pinned) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric::new(name, unit, value));
    };
    // A probe that yields one metric: the span is named after it.
    let one = |name: &str, f: &dyn Fn() -> f64| rec.scope(&format!("probe.{name}"), 0, |_| f());
    let us = |ns: u64| ns as f64 / 1e3;

    put("simt.handoff_ns", "ns", one("simt.handoff_ns", &|| handoff_ns(128, 400)));
    put("simt.handoff_1024_ns", "ns", one("simt.handoff_1024_ns", &|| handoff_ns(1024, 40)));
    let unpinned = || pinned.unpinned(|| handoff_ns(128, 100));
    put("simt.handoff_unpinned_ns", "ns", one("simt.handoff_unpinned_ns", &unpinned));
    put("simt.spawn_reap_us", "us", one("simt.spawn_reap_us", &|| spawn_reap_us(2000)));
    put("simt.call_ns", "ns", one("simt.call_ns", &|| call_ns(100_000)));
    put(
        "simt.queue_pingpong_ns",
        "ns",
        one("simt.queue_pingpong_ns", &|| queue_pingpong_ns(10_000)),
    );

    let stacks = [
        ("sockets", StackModel::java_sockets_ipoib()),
        ("verbs", StackModel::rdma_verbs()),
        ("mpi", StackModel::native_mpi()),
    ];
    for (stack_name, stack) in stacks {
        for (size_name, size) in [("1k", KIB), ("4m", 4 * MIB)] {
            let name = format!("fabric.oneway_virtual_ns.{stack_name}.{size_name}");
            put(&name, "ns", one(&name, &|| fabric_oneway_virtual_ns(stack, size) as f64));
        }
    }
    put("fabric.send_host_ns", "ns", one("fabric.send_host_ns", &|| fabric_send_host_ns(5000)));

    let (small, host_ns) = rec.scope("probe.netz.pingpong.64b", 0, |_| netz_pingpong(64, 500));
    let (large, _) = rec.scope("probe.netz.pingpong.4m", 0, |_| netz_pingpong(4 * MIB, 10));
    put("netz.pingpong_virtual_us.64b", "us", us(small));
    put("netz.pingpong_virtual_us.4m", "us", us(large));
    put("netz.pingpong_host_us", "us", host_ns / 1e3);
    put("netz.codec_host_ns", "ns", one("netz.codec_host_ns", &|| netz_codec_host_ns(200_000)));

    let (small, host_ns) = rec.scope("probe.rmpi.pingpong.64b", 0, |_| rmpi_pingpong(64, 500));
    let (large, _) = rec.scope("probe.rmpi.pingpong.4m", 0, |_| rmpi_pingpong(4 * MIB, 10));
    put("rmpi.pingpong_virtual_us.64b", "us", us(small));
    put("rmpi.pingpong_virtual_us.4m", "us", us(large));
    put("rmpi.pingpong_host_us", "us", host_ns / 1e3);
    let (virtual_ns, host_ns) = rec.scope("probe.rmpi.allreduce16", 0, |_| rmpi_allreduce16(20));
    put("rmpi.allreduce16_virtual_us", "us", us(virtual_ns));
    put("rmpi.allreduce16_host_us", "us", host_ns / 1e3);
    put("rmpi.waitall_host_ns", "ns", one("rmpi.waitall_host_ns", &|| rmpi_waitall_host_ns(20)));

    let basic = |ctx| Arc::new(MpiTransportBasic::new(ctx)) as Arc<dyn Transport>;
    let optimized = |ctx| Arc::new(MpiTransportOptimized::new(ctx)) as Arc<dyn Transport>;
    for (design, transport) in [("basic", basic as fn(_) -> _), ("optimized", optimized)] {
        let name = format!("core.pingpong_virtual_us.{design}.4m");
        put(&name, "us", one(&name, &|| us(core_pingpong(transport, 4 * MIB, 10).0)));
    }
    out
}
