//! An MPI-transport endpoint must not outlive the simulation: the endpoint
//! owns its transport, so anything the transport keeps about the endpoint
//! (the Optimized body pump, the Basic per-process router) has to avoid
//! closing an `Arc` cycle. A cycle there once kept every shuffle endpoint —
//! and through its handler the executor's block manager with the cached
//! dataset — alive after `sim.shutdown()`. Another kept every Basic-design
//! process context alive: the context owns the router, whose channels'
//! pipelines held the context.

use std::sync::{Arc, Weak};

use fabric::{ClusterSpec, Net, Payload};
use mpi4spark::transport::{MpiTransportBasic, MpiTransportOptimized};
use mpi4spark::{Design, MpiBackend, MpiProcCtx};
use netz::context::RpcResponseCallback;
use netz::{ChannelCore, RpcHandler, StreamManager, Transport, TransportConf, TransportContext};
use simt::sync::{Mutex, OnceCell};
use simt::Sim;
use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;

/// Serves one 1 MiB chunk per request — a routed body under both designs.
struct Chunks;

impl RpcHandler for Chunks {
    fn receive(&self, _chan: &Arc<ChannelCore>, _body: Payload, reply: RpcResponseCallback) {
        reply(Err("chunks only".into()));
    }

    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        Arc::new(Chunks)
    }
}

impl StreamManager for Chunks {
    fn get_chunk(&self, _stream_id: u64, _chunk_index: u32) -> Result<Payload, String> {
        Ok(Payload::bytes_scaled(bytes::Bytes::new(), 1 << 20))
    }
}

/// Rank 1 fetches one chunk from rank 0 over `transport`. True when, after
/// shutdown, neither endpoint's handler nor either rank's process context
/// is still held by anything.
fn handlers_freed_at_shutdown(transport: fn(Arc<MpiProcCtx>) -> Arc<dyn Transport>) -> bool {
    let freed: Arc<Mutex<Vec<(Weak<dyn RpcHandler>, Weak<MpiProcCtx>)>>> = Arc::default();
    let seen = freed.clone();
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let (net2, done) = (net.clone(), OnceCell::<()>::new());
        rmpi::mpiexec(&net, &[0, 1], move |world| {
            let rank = world.rank();
            let handler: Arc<dyn RpcHandler> = Arc::new(Chunks);
            let proc_ctx = MpiProcCtx::world_proc(world);
            seen.lock().push((Arc::downgrade(&handler), Arc::downgrade(&proc_ctx)));
            let ctx = TransportContext::with_transport(
                net2.clone(),
                TransportConf::default_sockets(),
                handler,
                transport(proc_ctx),
            );
            if rank == 0 {
                let server = ctx.create_server("server", 0, 500);
                done.take();
                server.shutdown();
            } else {
                simt::sleep(simt::time::millis(1)); // the server binds first
                let ep = ctx.create_client_endpoint("client", 1);
                let client = ep.connect(fabric::PortAddr { node: 0, port: 500 }).expect("connect");
                assert_eq!(client.fetch_chunk(1, 0).expect("chunk over MPI").virtual_len, 1 << 20);
                client.close();
                ep.shutdown();
                done.put(());
            }
        });
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
    let freed = freed.lock();
    assert_eq!(freed.len(), 2, "both endpoints were built");
    freed.iter().all(|(handler, ctx)| handler.upgrade().is_none() && ctx.upgrade().is_none())
}

#[test]
fn optimized_endpoint_is_freed_at_shutdown() {
    assert!(handlers_freed_at_shutdown(|ctx| Arc::new(MpiTransportOptimized::new(ctx))));
}

#[test]
fn basic_endpoint_is_freed_at_shutdown() {
    assert!(handlers_freed_at_shutdown(|ctx| Arc::new(MpiTransportBasic::new(ctx))));
}

/// The cluster-level census: a GroupBy on two workers under `design`, with
/// only a weak handle to the backend kept. True when, after shutdown, the
/// backend is freed, and with it its references to every process's context.
fn backend_freed_at_shutdown(design: Design) -> bool {
    let spec = ClusterSpec::test(4);
    let mut conf = SparkConf::default();
    conf.executor_cores = 2;
    let backend = Arc::new(MpiBackend::with_conf(design, &conf));
    let weak = Arc::downgrade(&backend);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&spec);
        let (keys, _) = mpi4spark::run_app_with_backend(&net, &cluster, backend, |sc| {
            sc.parallelize((0..64u64).map(|i| (i % 5, i)).collect(), 4).group_by_key(3).count()
        });
        assert_eq!(keys, 5);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
    weak.upgrade().is_none()
}

#[test]
fn backend_is_freed_at_shutdown_on_both_designs() {
    for design in [Design::Basic, Design::Optimized] {
        assert!(backend_freed_at_shutdown(design), "{design:?}: the backend outlives the run");
    }
}
