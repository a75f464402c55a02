//! Chunk-granular flow control in `read_shuffle`, pinned with virtual
//! timestamps: a follow-on fetch request must depart as soon as a *single*
//! chunk frees `maxBytesInFlight` budget — before the first request's last
//! chunk has even left the server. This is the Spark
//! `ShuffleBlockFetcherIterator` behaviour (budget released per landed
//! buffer, not per retired request) that the streaming data plane restores.
//!
//! The same harness pins the fetch-failure path as plain values: a failed
//! chunk makes `read_shuffle` return `Err(FetchFailed)`, and a task runner
//! turns a lineage `Err` into `TaskOutput::FetchFailed`.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, PortAddr};
use netz::NetzError;
use simt::queue::Queue;
use simt::sync::Mutex;
use simt::Sim;
use sparklet::data::encode_batch;
use sparklet::net_backend::{NetworkBackend, ProcIdentity, Role, VanillaBackend};
use sparklet::rdd::ops::ResultTask;
use sparklet::rdd::{Part, RddOps, ShuffleDepMeta, TaskOutput, TaskRunner};
use sparklet::rpc::{AnyMsg, RpcEnv};
use sparklet::shuffle::{
    read_shuffle, FetchFailed, MapOutputClient, MapOutputTrackerMaster, MapStatus,
};
use sparklet::storage::{BlockId, BlockManager, StoredBlock};
use sparklet::task::{ExecutorServices, TaskContext};
use sparklet::transfer::{BlockTransferService, FetchResult};
use sparklet::SparkConf;

const MS: u64 = 1_000_000;

/// Transfer service that emits each request's chunks at scripted virtual
/// times (per-block mode: one chunk per requested block), recording when
/// `read_shuffle` issued each request and when each chunk was sent.
struct ScriptedTransfer {
    /// Per-request delays (ns after the fetch call) of each chunk.
    scripts: Vec<Vec<u64>>,
    /// Virtual timestamps of the `fetch_blocks` calls, in call order.
    calls: Mutex<Vec<u64>>,
    /// `(request, chunk_index, send_time)` for every emitted chunk.
    emissions: Arc<Mutex<Vec<(usize, u32, u64)>>>,
}

/// The decoded record carried by a block is derived from its map id, so the
/// reader's output proves which blocks arrived.
fn record_of(id: BlockId) -> u64 {
    match id {
        BlockId::Shuffle { map_id, .. } => u64::from(map_id) * 100,
        other => panic!("unexpected block {other}"),
    }
}

fn block_for(id: BlockId) -> StoredBlock {
    let (data, _) = encode_batch(&[record_of(id)]);
    StoredBlock { data, virtual_len: 10, records: 1 }
}

impl BlockTransferService for ScriptedTransfer {
    fn fetch_blocks(&self, _remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        let req = {
            let mut calls = self.calls.lock();
            calls.push(simt::now());
            calls.len() - 1
        };
        let delays = self.scripts[req].clone();
        assert_eq!(delays.len(), blocks.len(), "per-block mode: one chunk per block");
        let emissions = self.emissions.clone();
        simt::spawn_daemon(format!("scripted-fetch-{req}"), move || {
            let t0 = simt::now();
            let n = blocks.len();
            for (i, delay) in delays.iter().enumerate() {
                let due = t0 + delay;
                let now = simt::now();
                if due > now {
                    simt::sleep(due - now);
                }
                emissions.lock().push((req, i as u32, simt::now()));
                sink.send(FetchResult {
                    blocks: vec![blocks[i]],
                    last: i + 1 == n,
                    result: Ok(vec![block_for(blocks[i])]),
                });
            }
        });
    }

    fn close(&self) {}
}

/// Build a `TaskContext` whose map-output table says shuffle 7 / reduce 0
/// has one 10-byte block per entry of `maps` (`(map_id, exec_id)`), all
/// remote to executor 0, and whose transfer service is `transfer`.
fn harness(
    net: &Net,
    conf: SparkConf,
    maps: &[(u32, usize)],
    transfer: Arc<dyn BlockTransferService>,
) -> TaskContext {
    let backend: Arc<dyn NetworkBackend> = Arc::new(VanillaBackend::with_conf(&conf));
    let driver = ProcIdentity::new(Role::Driver, 0, "driver");
    let driver_env = RpcEnv::new(net, &driver, &backend, Some(700));
    let tracker = Arc::new(MapOutputTrackerMaster::default());
    tracker.register_shuffle(7, maps.len());
    for (map_id, exec_id) in maps {
        tracker.register_map_output(
            7,
            MapStatus {
                map_id: *map_id,
                exec_id: *exec_id,
                shuffle_addr: PortAddr { node: *exec_id, port: 1 },
                sizes: Arc::new(vec![10]),
                records: Arc::new(vec![1]),
            },
        );
    }
    driver_env.register("MapOutputTracker", tracker);

    let me = ProcIdentity::new(Role::Executor(0), 1, "executor-0");
    let env = RpcEnv::new(net, &me, &backend, None);
    let tracker_ref = env.endpoint_ref(driver_env.addr(), "MapOutputTracker");
    let services = Arc::new(ExecutorServices {
        exec_id: 0,
        net: net.clone(),
        node: 1,
        cpu: net.cpu(1),
        conf,
        block_manager: Arc::new(BlockManager::default()),
        transfer,
        map_outputs: MapOutputClient::new(tracker_ref),
        shuffle_addr: env.addr(),
        rpc_env: env.clone(),
        driver_addr: driver_env.addr(),
        broadcast_cache: Mutex::new(Default::default()),
    });
    TaskContext::new(services, 0, 0)
}

#[test]
fn follow_on_request_departs_before_first_requests_last_chunk() {
    let sim = Sim::new();
    sim.spawn("main", move || {
        let net = Net::new(&ClusterSpec::test(3));
        // Executor 1 serves maps 0..3 (30 bytes — one request, three
        // chunks); executor 2 serves map 3 (10 bytes — a second request).
        // With a 35-byte window the second request does not fit while all
        // of request 1 is outstanding (30 + 10 > 35), but fits the moment
        // request 1's FIRST chunk lands and frees 10 bytes (20 + 10 ≤ 35).
        let mut conf = SparkConf::default();
        conf.target_request_size = 30;
        conf.max_bytes_in_flight = 35;
        let transfer = Arc::new(ScriptedTransfer {
            // Request 1's chunks land at +1 ms, +10 ms, +20 ms; request 2's
            // single chunk 1 ms after it is issued.
            scripts: vec![vec![MS, 10 * MS, 20 * MS], vec![MS]],
            calls: Mutex::new(Vec::new()),
            emissions: Arc::default(),
        });
        let ctx = harness(&net, conf, &[(0, 1), (1, 1), (2, 1), (3, 2)], transfer.clone());

        let (_, mut out): (u32, Vec<u64>) =
            read_shuffle(&ctx, 7, &[0], None).expect("every block fetched").remove(0);
        out.sort_unstable();
        assert_eq!(out, vec![0, 100, 200, 300], "all four remote blocks decoded");

        let calls = transfer.calls.lock().clone();
        assert_eq!(calls.len(), 2, "two fetch requests issued");
        let emissions = transfer.emissions.lock().clone();
        let first_chunk = emissions.iter().find(|e| (e.0, e.1) == (0, 0)).unwrap().2;
        let last_chunk = emissions.iter().find(|e| (e.0, e.1) == (0, 2)).unwrap().2;
        // The budget gate held the second request back at issue time...
        assert!(
            calls[1] >= first_chunk,
            "second request departed at {} ns, before any budget was freed",
            calls[1]
        );
        // ...but a single landed chunk released it — strictly before the
        // first request's final chunk was even sent.
        assert!(
            calls[1] < last_chunk,
            "second request waited for the whole first request \
             (departed {} ns, last chunk sent {} ns)",
            calls[1],
            last_chunk
        );

        assert_eq!(ctx.metrics.snapshot().counter(obs::keys::TASK_REMOTE_BYTES), 40);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn oversized_request_departs_on_empty_budget() {
    // A single request larger than maxBytesInFlight must still be issued
    // when nothing is outstanding, or the reader would stall forever.
    let sim = Sim::new();
    sim.spawn("main", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let mut conf = SparkConf::default();
        conf.target_request_size = 100;
        conf.max_bytes_in_flight = 15; // two 10-byte blocks exceed this
        let transfer = Arc::new(ScriptedTransfer {
            scripts: vec![vec![MS, 2 * MS]],
            calls: Mutex::new(Vec::new()),
            emissions: Arc::default(),
        });
        let ctx = harness(&net, conf, &[(0, 1), (1, 1)], transfer.clone());
        let (_, mut out): (u32, Vec<u64>) =
            read_shuffle(&ctx, 7, &[0], None).expect("every block fetched").remove(0);
        out.sort_unstable();
        assert_eq!(out, vec![0, 100]);
        assert_eq!(transfer.calls.lock().len(), 1);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

/// Transfer service whose every request fails outright.
struct FailingTransfer;

impl BlockTransferService for FailingTransfer {
    fn fetch_blocks(&self, _remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        sink.send(FetchResult {
            blocks,
            last: true,
            result: Err(NetzError::ConnectFailed("peer unreachable".into())),
        });
    }

    fn close(&self) {}
}

#[test]
fn failed_chunk_surfaces_as_an_err_naming_the_serving_executor() {
    let sim = Sim::new();
    sim.spawn("main", move || {
        let net = Net::new(&ClusterSpec::test(3));
        let ctx = harness(&net, SparkConf::default(), &[(0, 2)], Arc::new(FailingTransfer));
        let failed = read_shuffle::<u64>(&ctx, 7, &[0], None).expect_err("the only block failed");
        assert_eq!(failed, FetchFailed { shuffle_id: 7, exec_id: Some(2), map_id: Some(0) });
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

/// Lineage node whose every partition reports a lost shuffle block.
struct LostBlocks(FetchFailed);

impl RddOps<u64> for LostBlocks {
    fn id(&self) -> u64 {
        0
    }
    fn num_partitions(&self) -> usize {
        1
    }
    fn compute(&self, _part: usize, _ctx: &TaskContext) -> Result<Part<u64>, FetchFailed> {
        Err(self.0)
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        Vec::new()
    }
}

#[test]
fn result_task_reports_a_lineage_err_as_fetch_failed_output() {
    let sim = Sim::new();
    sim.spawn("main", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let ctx = harness(&net, SparkConf::default(), &[], Arc::new(FailingTransfer));
        let lost = FetchFailed { shuffle_id: 3, exec_id: Some(1), map_id: Some(9) };
        let task = ResultTask {
            ops: Arc::new(LostBlocks(lost)),
            f: Arc::new(|_ctx: &TaskContext, v: Part<u64>| Arc::new(v.len()) as AnyMsg),
            part: 0,
        };
        match task.run(&ctx) {
            TaskOutput::FetchFailed(got) => assert_eq!(got, lost),
            _ => panic!("a failed compute must not produce a result"),
        }
        assert_eq!(ctx.metrics.snapshot().counter(obs::keys::TASK_RECORDS_OUT), 0);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}
