//! Fig. 8 runner: Netty-level ping-pong latency, NIO vs. Netty+MPI, on the
//! internal cluster (IB-EDR).
//!
//! The measured exchange is a chunk fetch: a tiny `ChunkFetchRequest` and a
//! `ChunkFetchSuccess` of the probed size — the message pair the shuffle
//! lives on. The "Netty+MPI" series runs the Basic transport (every message
//! over MPI), matching the paper's transport-level microbenchmark, which
//! predates the Optimized split.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, Payload};
use mpi4spark::transport::MpiTransportBasic;
use mpi4spark::MpiProcCtx;
use netz::{ChannelCore, RpcHandler, StreamManager, TransportConf, TransportContext};
use simt::sync::OnceCell;
use simt::Sim;

/// Which transport the ping-pong exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingPongTransport {
    /// Netty NIO over Java sockets (Vanilla).
    Nio,
    /// Netty+MPI (the paper's MPI transport).
    NettyMpi,
}

/// Serves chunks whose size equals the stream id (the client encodes the
/// probe size there).
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
        Arc::new(SizeStreams)
    }
}

struct SizeStreams;

impl StreamManager for SizeStreams {
    fn get_chunk(&self, stream_id: u64, _chunk_index: u32) -> Result<Payload, String> {
        Ok(Payload::bytes_scaled(bytes::Bytes::from_static(b"p"), stream_id.max(1)))
    }
}

const WARMUP: u32 = 3;

fn measure(client: &netz::TransportClient, size: u64, iters: u32) -> u64 {
    for _ in 0..WARMUP {
        client.fetch_chunk(size, 0).expect("warmup fetch");
    }
    let t0 = simt::now();
    for _ in 0..iters {
        client.fetch_chunk(size, 0).expect("measured fetch");
    }
    let rtt = (simt::now() - t0) / u64::from(iters);
    rtt / 2
}

/// One-way latency (ns) for `size`-byte messages over `transport` on the
/// internal cluster, averaged over `iters` round trips.
pub fn run_pingpong(transport: PingPongTransport, size: u64, iters: u32) -> u64 {
    let sim = Sim::new();
    let out: OnceCell<u64> = OnceCell::new();
    let out2 = out.clone();
    sim.spawn("main", move || {
        let net = Net::new(&ClusterSpec::internal(2));
        match transport {
            PingPongTransport::Nio => {
                let conf = TransportConf::default_sockets();
                let server = TransportContext::new(net.clone(), conf, Arc::new(SizeChunks))
                    .create_server("pp-server", 0, 500);
                let ep = TransportContext::new(net.clone(), conf, Arc::new(netz::NoOpRpcHandler))
                    .create_client_endpoint("pp-client", 1);
                let client = ep.connect(server.addr()).expect("connect");
                out2.put(measure(&client, size, iters));
            }
            PingPongTransport::NettyMpi => {
                let done: OnceCell<()> = OnceCell::new();
                let done_server = done.clone();
                let result = out2.clone();
                let net_server = net.clone();
                let net_client = net.clone();
                rmpi::mpiexec_with(
                    &net,
                    &[0, 1],
                    vec![
                        Box::new(move |world: rmpi::Comm| {
                            let ctx = MpiProcCtx::world_proc(world);
                            let conf = TransportConf::default_sockets();
                            let server = TransportContext::with_transport(
                                net_server,
                                conf,
                                Arc::new(SizeChunks),
                                Arc::new(MpiTransportBasic::new(ctx)),
                            )
                            .create_server("pp-server", 0, 500);
                            done_server.take();
                            server.shutdown();
                        }),
                        Box::new(move |world: rmpi::Comm| {
                            simt::sleep(simt::time::millis(1)); // server binds first
                            let ctx = MpiProcCtx::world_proc(world);
                            let conf = TransportConf::default_sockets();
                            let ep = TransportContext::with_transport(
                                net_client,
                                conf,
                                Arc::new(netz::NoOpRpcHandler),
                                Arc::new(MpiTransportBasic::new(ctx)),
                            )
                            .create_client_endpoint("pp-client", 1);
                            let client = ep
                                .connect(fabric::PortAddr { node: 0, port: 500 })
                                .expect("connect");
                            result.put(measure(&client, size, iters));
                            done.put(());
                        }),
                    ],
                );
            }
        }
    });
    sim.run().expect("simulation completes");
    let v = out.try_take().expect("measurement finished");
    sim.shutdown();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpi_beats_nio_at_4mb() {
        let nio = run_pingpong(PingPongTransport::Nio, 4 << 20, 3);
        let mpi = run_pingpong(PingPongTransport::NettyMpi, 4 << 20, 3);
        let speedup = nio as f64 / mpi as f64;
        assert!(
            (5.0..=14.0).contains(&speedup),
            "expected ≈9x at 4MB (paper Fig. 8), got {speedup:.1}x (nio={nio} mpi={mpi})"
        );
    }

    #[test]
    fn mpi_beats_nio_at_small_sizes_too() {
        let nio = run_pingpong(PingPongTransport::Nio, 64, 5);
        let mpi = run_pingpong(PingPongTransport::NettyMpi, 64, 5);
        assert!(mpi < nio, "nio={nio} mpi={mpi}");
    }

    #[test]
    fn latency_grows_with_size() {
        let a = run_pingpong(PingPongTransport::Nio, 1 << 10, 3);
        let b = run_pingpong(PingPongTransport::Nio, 1 << 20, 3);
        assert!(b > a);
    }
}
