//! The shuffle's wire format and record order, pinned from outside: what
//! `write_shuffle` stores is byte for byte `encode_batch` of each bucket, and
//! `read_shuffle` hands the records back bucket by bucket in block order —
//! local blocks first (ascending map id), then remote blocks as they arrive —
//! with every record of a block in the order its map task produced it.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, PortAddr};
use simt::queue::Queue;
use simt::sync::Mutex;
use simt::{SeededRng, Sim};
use sparklet::data::encode_batch;
use sparklet::net_backend::{NetworkBackend, ProcIdentity, Role, VanillaBackend};
use sparklet::rpc::RpcEnv;
use sparklet::shuffle::{
    read_shuffle, write_shuffle, MapOutputClient, MapOutputTrackerMaster, MapStatus,
};
use sparklet::storage::{BlockId, BlockManager};
use sparklet::task::{ExecutorServices, TaskContext};
use sparklet::transfer::{BlockTransferService, FetchResult};
use sparklet::{Blob, Element, SparkConf};

const SHUFFLE: u32 = 7;

/// Serves a fetch straight out of the addressed executor's block manager, as
/// one chunk, before `fetch_blocks` returns.
struct StoreTransfer {
    stores: Vec<(PortAddr, Arc<BlockManager>)>,
}

impl BlockTransferService for StoreTransfer {
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        let (_, store) = self.stores.iter().find(|(addr, _)| *addr == remote).expect("known peer");
        let stored = blocks.iter().map(|id| store.get(*id).expect("block written")).collect();
        sink.send(FetchResult { blocks, last: true, result: Ok(stored) });
    }

    fn close(&self) {}
}

/// One task context per executor (`executors` of them, on nodes 1..), all
/// resolving map outputs through one tracker on the driver (node 0).
fn executors(net: &Net, executors: usize) -> (Arc<MapOutputTrackerMaster>, Vec<TaskContext>) {
    let backend: Arc<dyn NetworkBackend> =
        Arc::new(VanillaBackend::with_conf(&SparkConf::default()));
    let driver = ProcIdentity::new(Role::Driver, 0, "driver");
    let driver_env = RpcEnv::new(net, &driver, &backend, Some(700));
    let tracker = Arc::new(MapOutputTrackerMaster::default());
    driver_env.register("MapOutputTracker", tracker.clone());

    let addr = |exec: usize| PortAddr { node: exec + 1, port: 9 };
    let stores: Vec<Arc<BlockManager>> =
        (0..executors).map(|_| Arc::new(BlockManager::default())).collect();
    let transfer: Arc<dyn BlockTransferService> = Arc::new(StoreTransfer {
        stores: stores.iter().enumerate().map(|(e, s)| (addr(e), s.clone())).collect(),
    });
    let ctxs = (0..executors)
        .map(|exec| {
            let me = ProcIdentity::new(Role::Executor(exec), exec + 1, format!("executor-{exec}"));
            let env = RpcEnv::new(net, &me, &backend, None);
            let tracker_ref = env.endpoint_ref(driver_env.addr(), "MapOutputTracker");
            let services = Arc::new(ExecutorServices {
                exec_id: exec,
                net: net.clone(),
                node: exec + 1,
                cpu: net.cpu(exec + 1),
                conf: SparkConf::default(),
                block_manager: stores[exec].clone(),
                transfer: transfer.clone(),
                map_outputs: MapOutputClient::new(tracker_ref),
                shuffle_addr: addr(exec),
                rpc_env: env.clone(),
                driver_addr: driver_env.addr(),
                broadcast_cache: Mutex::new(Default::default()),
            });
            TaskContext::new(services, 0, 0)
        })
        .collect();
    (tracker, ctxs)
}

/// The records of `records` that `partition_of` sends to `bucket`, in order.
fn bucket_of<T: Clone>(records: &[T], bucket: usize, partition_of: impl Fn(&T) -> usize) -> Vec<T> {
    records.iter().filter(|r| partition_of(r) == bucket).cloned().collect()
}

/// Write `records` as map `map_id` on `ctx` and check every stored block and
/// the returned status against `encode_batch` of the bucket.
fn write_and_check<T: Element + PartialEq + std::fmt::Debug>(
    ctx: &TaskContext,
    map_id: u32,
    reduces: usize,
    records: &[T],
    partition_of: impl Fn(&T) -> usize + Copy,
) -> MapStatus {
    let status = write_shuffle(ctx, SHUFFLE, map_id, reduces, records, partition_of);
    assert_eq!((status.sizes.len(), status.records.len()), (reduces, reduces));
    for bucket in 0..reduces {
        let want = bucket_of(records, bucket, partition_of);
        let (bytes, virt) = encode_batch(&want);
        let id = BlockId::Shuffle { shuffle_id: SHUFFLE, map_id, reduce_id: bucket as u32 };
        let block = ctx.services.block_manager.get(id).expect("one block per bucket, empty or not");
        assert_eq!(&block.data[..], &bytes[..], "map {map_id} bucket {bucket}: bytes");
        assert_eq!((block.virtual_len, block.records), (virt, want.len() as u64));
        assert_eq!((status.sizes[bucket], status.records[bucket]), (virt, want.len() as u64));
    }
    status
}

#[test]
fn stored_blocks_are_byte_equal_to_encode_batch_of_their_bucket() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(2));
        let (_, ctxs) = executors(&net, 1);
        for seed in 0..40 {
            let mut rng = SeededRng::from_seed(seed);
            // Seed 0 writes an empty partition; few keys leave buckets empty.
            let n = if seed == 0 { 0 } else { rng.next_range(1, 400) };
            let reduces = rng.next_range(1, 7) as usize;
            let keys = rng.next_range(1, 12);
            // Fixed-width records: the writer's capacity is exact.
            let blobs: Vec<(u64, Blob)> = (0..n)
                .map(|i| (rng.next_range(0, keys), Blob::new(i, 1 << rng.next_range(0, 20))))
                .collect();
            write_and_check(&ctxs[0], 2 * seed as u32, reduces, &blobs, |r| r.0 as usize % reduces);
            // Variable-width records: the first one's length is only a guess.
            let words: Vec<(String, Vec<u64>)> = (0..n)
                .map(|i| ("k".repeat(rng.next_range(0, 9) as usize), vec![i; i as usize % 4]))
                .collect();
            write_and_check(&ctxs[0], 2 * seed as u32 + 1, reduces, &words, |r| {
                r.0.len() % reduces
            });
        }
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn round_trip_returns_each_bucket_in_block_then_arrival_order() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(4));
        let (tracker, ctxs) = executors(&net, 3);
        let (maps, reduces) = (6u32, 4usize);
        let partition_of = |r: &(u64, u64)| r.0 as usize % reduces;
        // Map `m` runs on executor `m % 3` and tags its records `m * 1000 + i`.
        // Map 2 writes nothing; no key lands in bucket 2.
        let mut rng = SeededRng::from_seed(16);
        let written: Vec<Vec<(u64, u64)>> = (0..maps)
            .map(|m| {
                let n = if m == 2 { 0 } else { rng.next_range(20, 60) };
                (0..n)
                    .map(|i| {
                        ([0, 1, 3, 4, 5][rng.next_range(0, 5) as usize], u64::from(m) * 1000 + i)
                    })
                    .collect()
            })
            .collect();
        tracker.register_shuffle(SHUFFLE, maps as usize);
        for (m, records) in written.iter().enumerate() {
            let ctx = &ctxs[m % 3];
            let status = write_and_check(ctx, m as u32, reduces, records, partition_of);
            tracker.register_map_output(SHUFFLE, status);
        }

        // The reader is executor 0: its own maps (0, 3) first, then executor
        // 1's (1, 4), then executor 2's (2, 5).
        let block_order = [0usize, 3, 1, 4, 2, 5];
        let requested = [3u32, 2, 0];
        for map_range in [None, Some((1u32, 5u32))] {
            let got = read_shuffle::<(u64, u64)>(&ctxs[0], SHUFFLE, &requested, map_range)
                .expect("every block served");
            let want: Vec<(u32, Vec<(u64, u64)>)> = requested
                .iter()
                .map(|&bucket| {
                    let in_range = |m: &&usize| {
                        map_range.is_none_or(|(lo, hi)| (lo..hi).contains(&(**m as u32)))
                    };
                    let records = (block_order.iter().filter(in_range))
                        .flat_map(|&m| bucket_of(&written[m], bucket as usize, partition_of))
                        .collect();
                    (bucket, records)
                })
                .collect();
            assert_eq!(got, want, "map range {map_range:?}");
            assert!(got[1].1.is_empty(), "the empty bucket is returned, empty");
            assert!(got.iter().all(|(_, records)| records.capacity() == records.len()));
        }
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}
