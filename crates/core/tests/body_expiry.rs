//! An Optimized-design body receive whose MPI message never comes: the
//! endpoint posts it when the header lands and may wait for the body as long
//! as its request timeout. After that the receive must be gone from the
//! process's message store, and exactly one drain must stand in for it, so
//! that the body, should it land late, is absorbed instead of queued forever.
//!
//! The store is observed from outside, through MPI semantics alone: a
//! posted receive takes a matching message before a drain does, a drain
//! absorbs one message, and anything else is queued for the next receive.

use std::sync::Arc;

use fabric::{ClusterSpec, FaultPlan, Net, Payload, PortAddr};
use mpi4spark::transport::MpiTransportOptimized;
use mpi4spark::MpiProcCtx;
use netz::context::RpcResponseCallback;
use netz::{ChannelCore, NetzError, RpcHandler, StreamManager, TransportConf, TransportContext};
use simt::sync::OnceCell;
use simt::Sim;

const CHUNK: u64 = 1 << 20;

/// Serves one 1 MiB chunk per request: a body the Optimized design routes.
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
        Ok(Payload::bytes_scaled(bytes::Bytes::new(), CHUNK))
    }
}

/// Lose two bodies of chunk `(1, 0)` and count what the process store holds
/// for them once the endpoint's request timeout has passed. With `busy`, a
/// body of another chunk lands after each lost one, as in a shuffle.
fn lost_bodies_leave_one_drain_each(busy: bool) {
    let timeout = simt::time::millis(100);
    let conf = TransportConf { request_timeout_ns: timeout, ..TransportConf::default_sockets() };
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let (net2, tag_cell, done) = (net.clone(), OnceCell::<u64>::new(), OnceCell::<()>::new());
        rmpi::mpiexec(&net, &[0, 1], move |world| {
            let ctx = TransportContext::with_transport(
                net2.clone(),
                conf,
                Arc::new(Chunks),
                Arc::new(MpiTransportOptimized::new(MpiProcCtx::world_proc(world.clone()))),
            );
            if world.rank() == 0 {
                let server = ctx.create_server("server", 0, 500);
                // Three copies of the lost bodies' message, sent the MPI way.
                let tag = tag_cell.take();
                for copy in 0..3u64 {
                    world.send_value(1, tag, copy, 8).expect("send a copy");
                }
                done.take();
                server.shutdown();
                return;
            }
            simt::sleep(simt::time::millis(1)); // the server binds first
            let ep = ctx.create_client_endpoint("client", 1);
            let client = ep.connect(PortAddr { node: 0, port: 500 }).expect("connect");
            let land = |chunk| {
                if busy {
                    assert_eq!(client.fetch_chunk(1, chunk).expect("a body").virtual_len, CHUNK);
                }
            };

            // The first body's MPI message is dropped; its header arrives.
            let plan = FaultPlan::seeded(1).drop_link_stack(0, 1, simt::now(), timeout / 2, "MPI");
            net2.install_chaos(plan.build());
            assert_eq!(client.fetch_chunk(1, 0).err(), Some(NetzError::Timeout));
            land(1);
            simt::sleep(timeout);

            // The second is taken by a wildcard receive posted before the
            // fetch's, which tells the body's tag. Were the first fetch's
            // receive still posted, it would have taken the body instead.
            let probe = world.irecv(Some(0), None);
            assert_eq!(client.fetch_chunk(1, 0).err(), Some(NetzError::Timeout));
            let (_, status) = probe.wait().expect("a body").expect("a receive");
            assert_eq!(status.len, CHUNK, "the probe took the second fetch's body");
            land(2);
            simt::sleep(timeout);

            // Both fetches' receives have expired: each left one drain and
            // no posted slot, so of three copies two are absorbed, none
            // reaches the endpoint, and the third is queued. (A receive
            // posted before the copies land would take the first.)
            let received = net2.obs().registry().counter(obs::keys::NETZ_MSGS_RECEIVED);
            let before = received.get();
            tag_cell.put(status.tag);
            simt::sleep(timeout);
            let (copy, _) = world.irecv(Some(0), Some(status.tag)).wait().unwrap().unwrap();
            assert_eq!(copy.value_as::<u64>().map(|c| *c), Some(2), "two copies absorbed");
            let rest = world.irecv(Some(0), Some(status.tag)).wait_timeout(timeout);
            assert_eq!(rest.err(), Some(rmpi::MpiError::Timeout), "one copy queued");
            assert_eq!(received.get(), before, "a copy reached the endpoint");
            done.put(());
            client.close();
            ep.shutdown();
        });
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn a_lost_body_leaves_no_posted_receive_and_one_drain() {
    lost_bodies_leave_one_drain_each(true);
}

/// No other body lands: nothing but the deadline itself ends the receive.
#[test]
fn a_lone_lost_body_expires_at_the_request_timeout() {
    lost_bodies_leave_one_drain_each(false);
}
