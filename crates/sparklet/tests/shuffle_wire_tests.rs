//! The shuffle's wire format and record order, pinned from outside: what
//! `write_shuffle` stores is byte for byte `encode_batch` of each bucket, and
//! `read_shuffle` hands a bucket's blocks back in block order — local blocks
//! first (ascending map id), then remote blocks as they arrive — with every
//! record of a block, once decoded, in the order its map task produced it.
//! A block's metadata sizes the reduce side's charges exactly as its decoded
//! records would.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, PortAddr};
use simt::sync::Mutex;
use simt::{for_each_case, SeededRng, Sim};
use sparklet::data::{decode_batch, encode_batch};
use sparklet::net_backend::{NetworkBackend, ProcIdentity, Role, VanillaBackend};
use sparklet::rdd::ops::{ParallelizeRdd, ShuffleDep, ShuffleReadRdd};
use sparklet::rdd::partitioner::{HashPartitioner, Partitioner};
use sparklet::rdd::{RddOps, ShuffleDepMeta, TaskOutput};
use sparklet::rpc::RpcEnv;
use sparklet::shuffle::{
    group_pairs, read_shuffle, write_shuffle, MapOutputClient, MapOutputTrackerMaster, MapStatus,
};
use sparklet::storage::{BlockId, BlockManager, BlockSize};
use sparklet::task::{ExecutorServices, TaskContext};
use sparklet::transfer::{BlockTransferService, FetchResult, FetchSink};
use sparklet::{Blob, Element, SparkConf};

const SHUFFLE: u32 = 7;

/// Serves a fetch straight out of the addressed executor's block manager, as
/// one chunk, before `fetch_blocks` returns, and logs where each request went.
struct StoreTransfer {
    stores: Vec<(PortAddr, Arc<BlockManager>)>,
    requests: Mutex<Vec<PortAddr>>,
}

impl BlockTransferService for StoreTransfer {
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: FetchSink) {
        self.requests.lock().push(remote);
        let (_, store) = self.stores.iter().find(|(addr, _)| *addr == remote).expect("known peer");
        let stored = blocks.iter().map(|id| store.get(*id).expect("block written")).collect();
        sink.send(FetchResult { blocks, last: true, result: Ok(stored) });
    }

    fn close(&self) {}
}

/// One task context per executor (`executors` of them, on nodes 1..), all
/// resolving map outputs through one tracker on the driver (node 0), and the
/// transfer service they share.
fn executors(
    net: &Net,
    executors: usize,
) -> (Arc<MapOutputTrackerMaster>, Vec<TaskContext>, Arc<StoreTransfer>) {
    let backend: Arc<dyn NetworkBackend> =
        Arc::new(VanillaBackend::with_conf(&SparkConf::default()));
    let driver = ProcIdentity::new(Role::Driver, 0, "driver");
    let driver_env = RpcEnv::new(net, &driver, &backend, Some(700));
    let tracker = Arc::new(MapOutputTrackerMaster::default());
    driver_env.register("MapOutputTracker", tracker.clone());

    let addr = |exec: usize| PortAddr { node: exec + 1, port: 9 };
    let stores: Vec<Arc<BlockManager>> =
        (0..executors).map(|_| Arc::new(BlockManager::default())).collect();
    let transfer = Arc::new(StoreTransfer {
        stores: stores.iter().enumerate().map(|(e, s)| (addr(e), s.clone())).collect(),
        requests: Mutex::default(),
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
                transfer: transfer.clone() as Arc<dyn BlockTransferService>,
                map_outputs: MapOutputClient::new(tracker_ref),
                shuffle_addr: addr(exec),
                rpc_env: env.clone(),
                driver_addr: driver_env.addr(),
                broadcast_cache: Mutex::new(Default::default()),
            });
            TaskContext::new(services, 0, 0)
        })
        .collect();
    (tracker, ctxs, transfer)
}

/// What `status` lists for bucket `reduce_id`: nothing when it is empty.
fn listed(status: &MapStatus, reduce_id: u32) -> Option<BlockSize> {
    status.sizes.iter().find(|b| b.reduce_id == reduce_id).copied()
}

/// The records of `records` that `partition_of` sends to `bucket`, in order.
fn bucket_of<T: Clone>(records: &[T], bucket: usize, partition_of: impl Fn(&T) -> usize) -> Vec<T> {
    records.iter().filter(|r| partition_of(r) == bucket).cloned().collect()
}

/// Write `records` as map `map_id` on `ctx` and check every stored block and
/// the returned status against `encode_batch` of the bucket, and each block's
/// value bytes against the bucket's values.
fn write_and_check<K: Element, V: Element>(
    ctx: &TaskContext,
    map_id: u32,
    reduces: usize,
    records: &[(K, V)],
    partition_of: impl Fn(&(K, V)) -> usize + Copy,
) -> MapStatus {
    let value_size = |(_, v): &(K, V)| v.virtual_size();
    let status = write_shuffle(ctx, SHUFFLE, map_id, reduces, records, partition_of, value_size);
    assert!(
        status.sizes.windows(2).all(|w| w[0].reduce_id < w[1].reduce_id),
        "listed out of order"
    );
    assert!(status.sizes.iter().all(|b| (b.reduce_id as usize) < reduces), "a bucket out of range");
    for bucket in 0..reduces {
        let want = bucket_of(records, bucket, partition_of);
        let (bytes, virt) = encode_batch(&want);
        let id = BlockId::Shuffle { shuffle_id: SHUFFLE, map_id, reduce_id: bucket as u32 };
        let block = ctx.services.block_manager.get(id).expect("one block per bucket, empty or not");
        assert_eq!(&block.data[..], &bytes[..], "map {map_id} bucket {bucket}: bytes");
        assert_eq!((block.virtual_len, block.records), (virt, want.len() as u64));
        assert_eq!(block.value_bytes, want.iter().map(value_size).sum::<u64>());
        let entry = (!want.is_empty()).then_some(BlockSize {
            reduce_id: bucket as u32,
            records: want.len() as u32,
            size: virt,
        });
        assert_eq!(listed(&status, bucket as u32), entry, "map {map_id} bucket {bucket}: status");
    }
    status
}

#[test]
fn stored_blocks_are_byte_equal_to_encode_batch_of_their_bucket() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(2));
        let (_, ctxs, _) = executors(&net, 1);
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
fn a_map_output_shares_its_status_arrays_and_keeps_only_non_empty_buckets() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(2));
        let (_, ctxs, _) = executors(&net, 1);
        let reduces = 224;
        // Three keys over 224 buckets, then an empty map task: all but three
        // buckets of the first output, and all of the second's, are empty.
        let records: Vec<(u64, u64)> = (0..300).map(|i| (i % 3 * 37, i)).collect();
        for (map_id, records) in [(0, &records[..]), (1, &[][..])] {
            let status = write_shuffle(
                &ctxs[0],
                SHUFFLE,
                map_id,
                reduces,
                records,
                |r| r.0 as usize % reduces,
                |_| 8,
            );
            let bm = &ctxs[0].services.block_manager;
            let stored = bm.map_output(SHUFFLE, map_id).unwrap();
            assert!(Arc::ptr_eq(&status.sizes, stored.sizes()), "map {map_id}: sizes copied");
            let non_empty = if map_id == 0 { 3 } else { 0 };
            assert_eq!((status.sizes.len(), stored.blocks().len()), (non_empty, non_empty));
            let past_end = BlockId::Shuffle { shuffle_id: SHUFFLE, map_id, reduce_id: 224 };
            assert!(bm.get(past_end).is_none(), "map {map_id}: a block past the last bucket");
        }
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn every_executor_reads_one_shared_table_until_a_slot_changes() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(3));
        let (tracker, ctxs, _) = executors(&net, 2);
        tracker.register_shuffle(SHUFFLE, 2);
        let records: Vec<(u64, u64)> = (0..40).map(|i| (i % 7, i)).collect();
        let write = |ctx, map_id| {
            let status =
                write_shuffle(ctx, SHUFFLE, map_id, 3, &records, |r| r.0 as usize % 3, |_| 8);
            tracker.register_map_output(SHUFFLE, status);
        };
        for (map_id, ctx) in ctxs.iter().enumerate() {
            write(ctx, map_id as u32);
        }
        let (a, b) = (&ctxs[0].services.map_outputs, &ctxs[1].services.map_outputs);
        let first = a.get(SHUFFLE).expect("tracker reachable");
        assert!(
            Arc::ptr_eq(&first, &b.get(SHUFFLE).expect("tracker reachable")),
            "one table, two replies"
        );
        // Map 1 runs again: a read after it gets a new table, shared again.
        write(&ctxs[1], 1);
        a.invalidate(SHUFFLE);
        b.invalidate(SHUFFLE);
        let second = a.get(SHUFFLE).expect("tracker reachable");
        assert!(!Arc::ptr_eq(&first, &second), "a registration leaves the old table in use");
        assert!(Arc::ptr_eq(&second, &b.get(SHUFFLE).expect("tracker reachable")));
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn round_trip_returns_each_bucket_in_block_then_arrival_order() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(4));
        let (tracker, ctxs, _) = executors(&net, 3);
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
        for bucket in [3u32, 2, 0] {
            let got = read_shuffle::<(u64, u64)>(&ctxs[0], SHUFFLE, bucket)
                .expect("every block served")
                .decode();
            let want: Vec<(u64, u64)> = block_order
                .iter()
                .flat_map(|&m| bucket_of(&written[m], bucket as usize, partition_of))
                .collect();
            assert_eq!(got, want, "bucket {bucket}");
            assert_eq!(got.is_empty(), bucket == 2, "only bucket 2 is returned empty");
            assert_eq!(got.capacity(), got.len(), "bucket {bucket}: reserved exactly");
        }
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn a_read_skips_empty_blocks_and_charges_only_the_non_empty_ones() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(4));
        let (tracker, ctxs, transfer) = executors(&net, 3);
        let (maps, reduces) = (9u32, 4usize);
        let partition_of = |r: &(u64, u64)| r.0 as usize % reduces;
        // Map `m` runs on executor `m % 3`; executor 2's maps never write a
        // key of bucket 2, so each of its bucket-2 blocks is the 4-byte
        // record count alone.
        let mut rng = SeededRng::from_seed(42);
        tracker.register_shuffle(SHUFFLE, maps as usize);
        let mut statuses = Vec::new();
        for m in 0..maps {
            let keys: &[u64] = if m % 3 == 2 { &[0, 1, 3, 4, 7] } else { &[0, 1, 2, 3, 6] };
            let records: Vec<(u64, u64)> = (0..rng.next_range(10, 50))
                .map(|i| (keys[rng.next_range(0, keys.len() as u64) as usize], i))
                .collect();
            let status = write_and_check(&ctxs[m as usize % 3], m, reduces, &records, partition_of);
            tracker.register_map_output(SHUFFLE, status.clone());
            statuses.push(status);
        }
        let reader = &ctxs[0];
        // A first read resolves and caches the map statuses over RPC.
        read_shuffle::<(u64, u64)>(reader, SHUFFLE, 0).expect("every block served");
        transfer.requests.lock().clear();

        let start = simt::now();
        let got =
            read_shuffle::<(u64, u64)>(reader, SHUFFLE, 2).expect("every block served").decode();
        let took = simt::now() - start;
        let sent = transfer.requests.lock().clone();
        let (holder, empty) = (ctxs[1].services.shuffle_addr, ctxs[2].services.shuffle_addr);
        assert!(!sent.contains(&empty), "an executor with no bucket-2 record was asked: {sent:?}");
        assert!(sent.contains(&holder), "executor 1 holds bucket-2 records");
        let want: usize =
            statuses.iter().filter_map(|st| listed(st, 2)).map(|b| b.records as usize).sum();
        assert_eq!(got.len(), want);
        // The node is otherwise idle, so the read takes exactly its CPU work.
        let cost = reader.cost();
        let deser: u64 = statuses
            .iter()
            .filter_map(|st| listed(st, 2))
            .map(|b| cost.deser(b.records.into(), b.size))
            .sum();
        assert_eq!(took, deser, "virtual ns of the read: one deser per non-empty block");
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

/// Write up to four maps of up to 150 records drawn by `record` over two
/// executors, then check that each stored block's metadata, and each bucket's
/// sums as executor 0 lands it, give exactly what the reduce side charged
/// from the decoded records: their count, their values' virtual bytes
/// (`group`) and their own virtual bytes (`sort`).
fn check_block_metadata<K, V>(rng: &mut SeededRng, record: impl Fn(&mut SeededRng) -> (K, V))
where
    K: Element + std::hash::Hash + Eq,
    V: Element,
{
    let maps = rng.next_range(1, 5) as u32;
    let reduces = rng.next_range(1, 5) as usize;
    let written: Vec<Vec<(K, V)>> =
        (0..maps).map(|_| (0..rng.next_range(0, 150)).map(|_| record(rng)).collect()).collect();
    let sim = Sim::new();
    sim.spawn("main", move || {
        let net = Net::new(&ClusterSpec::test(3));
        let (tracker, ctxs, _) = executors(&net, 2);
        let partitioner = HashPartitioner::new(reduces);
        tracker.register_shuffle(SHUFFLE, maps as usize);
        for (m, records) in written.iter().enumerate() {
            let status = write_shuffle(
                &ctxs[m % 2],
                SHUFFLE,
                m as u32,
                reduces,
                records,
                |(k, _)| partitioner.partition(k),
                |(_, v)| v.virtual_size(),
            );
            tracker.register_map_output(SHUFFLE, status);
        }
        for bucket in 0..reduces as u32 {
            for m in 0..maps {
                let id = BlockId::Shuffle { shuffle_id: SHUFFLE, map_id: m, reduce_id: bucket };
                let b = ctxs[m as usize % 2].services.block_manager.get(id).expect("written");
                let records: Vec<(K, V)> = decode_batch(&b.data);
                let values: u64 = records.iter().map(|(_, v)| v.virtual_size()).sum();
                let bytes: u64 = records.iter().map(Element::virtual_size).sum();
                assert_eq!((b.records, b.value_bytes), (records.len() as u64, values));
                assert_eq!(b.virtual_len - 4, bytes, "a block's size less its record count");
            }
            let landed = read_shuffle::<(K, V)>(&ctxs[0], SHUFFLE, bucket).expect("served");
            let (n, values, bytes) =
                (landed.records(), landed.value_bytes(), landed.record_bytes());
            let records = landed.decode();
            assert_eq!(n, records.len() as u64, "bucket {bucket}: records");
            assert_eq!(values, records.iter().map(|(_, v)| v.virtual_size()).sum::<u64>());
            assert_eq!(bytes, records.iter().map(Element::virtual_size).sum::<u64>());
        }
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn block_metadata_sizes_the_reduce_charges_as_the_decoded_records_do() {
    let word = |rng: &mut SeededRng| "w".repeat(rng.next_range(0, 24) as usize);
    let blob = |rng: &mut SeededRng| Blob::new(rng.next_u64(), rng.next_range(0, 1 << 20) as u32);
    for_each_case(12, |rng| {
        check_block_metadata(rng, |rng| (rng.next_range(0, 30), blob(rng)));
        check_block_metadata(rng, |rng| (rng.next_range(0, 30), word(rng)));
        check_block_metadata(rng, |rng| (format!("k{}", rng.next_range(0, 30)), blob(rng)));
        check_block_metadata(rng, |rng| (word(rng), word(rng)));
    });
}

/// A `group_by_key` reduce on an otherwise idle node takes exactly its CPU
/// work: a deser job for its local blocks, one per landed chunk, then the
/// group charge. Its end instants are pinned to the nanosecond: they are the
/// ones the reduce reached when it still decoded every record before its
/// group charge.
#[test]
fn a_group_by_key_reduce_ends_at_its_pinned_virtual_instants() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(4));
        let (tracker, ctxs, _) = executors(&net, 3);
        let (maps, reduces) = (6usize, 3usize);
        let mut rng = SeededRng::from_seed(46);
        let data: Vec<Arc<Vec<(u64, Blob)>>> = (0..maps as u64)
            .map(|m| {
                let n = rng.next_range(50, 200);
                let blob = |i, rng: &mut SeededRng| {
                    Blob::new(m * 1000 + i, rng.next_range(1, 1 << 16) as u32)
                };
                Arc::new((0..n).map(|i| (rng.next_range(0, 40), blob(i, &mut rng))).collect())
            })
            .collect();
        let total: usize = data.iter().map(|d| d.len()).sum();
        let dep = Arc::new(ShuffleDep {
            shuffle_id: SHUFFLE,
            parent: Arc::new(ParallelizeRdd { id: 1, data }),
            partitioner: Arc::new(HashPartitioner::new(reduces)),
            upstream: Vec::new(),
            map_side_combine: None,
            dropped: Arc::default(),
        });
        tracker.register_shuffle(SHUFFLE, maps);
        for m in 0..maps {
            let TaskOutput::Map(status) = dep.clone().make_map_task(m).run(&ctxs[m % 3]) else {
                panic!("map {m} registered no output");
            };
            tracker.register_map_output(SHUFFLE, status);
        }
        let read = ShuffleReadRdd { id: 2, dep, post: Arc::new(group_pairs::<u64, Blob>) };
        let (mut ends, mut grouped) = (Vec::new(), 0);
        for r in 0..reduces {
            let groups = read.compute(r, &ctxs[0]).expect("every block served");
            grouped += groups.iter().map(|(_, vs)| vs.len()).sum::<usize>();
            ends.push(simt::now());
        }
        assert_eq!(grouped, total, "every record grouped once");
        assert_eq!(
            ends,
            [270_424_449, 277_069_949, 281_597_552],
            "virtual ns each reduce ended at"
        );
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}
