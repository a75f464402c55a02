//! Shuffle blocks land zero-copy: a remote block that a reader lands is the
//! allocation the serving executor's `BlockManager` stored, not a copy. The
//! chunk body is the served blocks themselves, carried by handle through
//! netz, the fabric and rmpi — on the Netty path and on both MPI4Spark
//! designs, for a merged chunk and for one block per chunk.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, PortAddr};
use mpi4spark::transport::{MpiTransportBasic, MpiTransportOptimized};
use mpi4spark::MpiProcCtx;
use netz::{NioTransport, Transport, TransportConf};
use simt::queue::Queue;
use simt::sync::OnceCell;
use simt::Sim;
use sparklet::data::encode_batch;
use sparklet::net_backend::{NetworkBackend, Plane, PlaneDesc, ProcIdentity, Role};
use sparklet::storage::{BlockId, BlockManager, BlockSize, KeptBlock, MapOutput};
use sparklet::transfer::{BlockTransferService, NettyBlockTransferService, ShuffleService};
use sparklet::SparkConf;

/// The transport a shuffle plane runs on.
#[derive(Debug, Clone, Copy)]
enum Path {
    Netty,
    Basic,
    Optimized,
}

/// One MPI process's backend: `path`'s transport on both planes.
struct WorldBackend {
    path: Path,
    ctx: Arc<MpiProcCtx>,
}

impl NetworkBackend for WorldBackend {
    fn name(&self) -> &'static str {
        "zero-copy-test"
    }

    fn plane(&self, _plane: Plane, _identity: &ProcIdentity) -> PlaneDesc {
        let transport: Arc<dyn Transport> = match self.path {
            Path::Netty => Arc::new(NioTransport),
            Path::Basic => Arc::new(MpiTransportBasic::new(self.ctx.clone())),
            Path::Optimized => Arc::new(MpiTransportOptimized::new(self.ctx.clone())),
        };
        PlaneDesc { conf: TransportConf::default_sockets(), transport }
    }
}

fn bid(map_id: u32) -> BlockId {
    BlockId::Shuffle { shuffle_id: 7, map_id, reduce_id: 0 }
}

/// Rank 0 serves three map outputs' bucket 0; rank 1 fetches them in one
/// request and checks that every landed block's bytes are the stored ones.
fn lands_the_stored_allocation(path: Path, merge: bool) {
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let conf = SparkConf { merge_chunks_per_request: merge, ..SparkConf::default() };
        let store = Arc::new(BlockManager::default());
        for m in 0..3u32 {
            let records: Vec<u64> = (0..u64::from(m) + 2).collect();
            let (data, size) = encode_batch(&records);
            let sizes = Arc::new([BlockSize { reduce_id: 0, records: records.len() as u32, size }]);
            let block = KeptBlock { data, value_bytes: 0 };
            store.put_map_output(7, m, MapOutput::new(1, sizes, vec![block]));
        }
        let (addr, done) = (OnceCell::<PortAddr>::new(), OnceCell::<()>::new());
        let net2 = net.clone();
        rmpi::mpiexec(&net, &[0, 1], move |world| {
            let ctx = MpiProcCtx::world_proc(world.clone());
            let backend: Arc<dyn NetworkBackend> = Arc::new(WorldBackend { path, ctx });
            let role = Role::Executor(world.rank() as usize);
            let me = ProcIdentity::new(role, world.rank() as usize, format!("r{}", world.rank()));
            if world.rank() == 0 {
                let (_svc, ep) = ShuffleService::start(&me, &net2, &backend, store.clone(), conf);
                addr.put(ep.addr());
                done.take();
                ep.shutdown();
                return;
            }
            let client = NettyBlockTransferService::new(&me, &net2, &backend);
            let sink = Queue::new();
            let wanted = vec![bid(0), bid(1), bid(2)];
            client.fetch_blocks(addr.take(), wanted.clone(), sink.clone().into());
            let (mut chunks, mut landed) = (0, Vec::new());
            loop {
                let r = sink.recv().expect("a result per chunk");
                chunks += 1;
                let blocks = r.result.expect("every block is served");
                assert_eq!(blocks.len(), r.blocks.len(), "a block per covered id");
                landed.extend(r.blocks.into_iter().zip(blocks));
                if r.last {
                    break;
                }
            }
            assert_eq!(chunks, if merge { 1 } else { 3 }, "{path:?}: chunks");
            landed.sort_by_key(|(id, _)| *id);
            assert_eq!(landed.iter().map(|(id, _)| *id).collect::<Vec<_>>(), wanted);
            for (id, block) in &landed {
                let stored = store.get(*id).expect("stored");
                assert_eq!(
                    (block.data.as_ptr(), block.data.len()),
                    (stored.data.as_ptr(), stored.data.len()),
                    "{path:?} merge={merge}: {id} was copied on its way"
                );
                assert_eq!(
                    (block.virtual_len, block.records),
                    (stored.virtual_len, stored.records)
                );
            }
            client.close();
            done.put(());
        });
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn a_landed_block_is_the_stored_allocation_on_every_path() {
    for path in [Path::Netty, Path::Basic, Path::Optimized] {
        for merge in [true, false] {
            lands_the_stored_allocation(path, merge);
        }
    }
}
