//! The retrying fetch layer, pinned at both ends:
//!
//! * against the *real* shuffle wire (`ShuffleService` +
//!   `NettyBlockTransferService` over the fabric), the per-block failure
//!   granularity regression — one bad chunk must not fail sibling blocks;
//! * against scripted transfer services, the retry controller's contract:
//!   missing-only re-requests, stall detection, retry accounting, plane
//!   degradation to the fallback service, and per-block error emission on
//!   exhaustion.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, PortAddr};
use netz::NetzError;
use simt::queue::Queue;
use simt::sync::Mutex;
use simt::Sim;
use sparklet::data::encode_batch;
use sparklet::net_backend::{NetworkBackend, ProcIdentity, Role, VanillaBackend};
use sparklet::storage::{BlockId, BlockManager, StoredBlock};
use sparklet::transfer::{
    BlockTransferService, FetchResult, NettyBlockTransferService, RetryingBlockFetcher,
    ShuffleService, PLANE_FAILURE_THRESHOLD,
};
use sparklet::SparkConf;

const MS: u64 = 1_000_000;

fn bid(map_id: u32) -> BlockId {
    BlockId::Shuffle { shuffle_id: 7, map_id, reduce_id: 0 }
}

fn block_for(map_id: u32) -> StoredBlock {
    let (data, _) = encode_batch(&[u64::from(map_id) * 100]);
    StoredBlock { data, virtual_len: 10, records: 1 }
}

fn conf() -> SparkConf {
    SparkConf {
        fetch_max_retries: 3,
        fetch_retry_base_ns: MS,
        fetch_retry_max_ns: 10 * MS,
        fetch_timeout_ns: 50 * MS,
        ..SparkConf::default()
    }
}

/// Drain `sink` until the `last` result, partitioning covered blocks by
/// outcome. Retry counts are read off the fetcher's registry
/// (`obs::keys::SPARK_FETCH_RETRIES`), not the results themselves.
fn drain(sink: &Queue<FetchResult>) -> (Vec<BlockId>, Vec<BlockId>) {
    let (mut ok, mut err) = (Vec::new(), Vec::new());
    loop {
        let r = sink.recv().expect("fetch emits a terminal result");
        match &r.result {
            Ok(_) => ok.extend(r.blocks.iter().copied()),
            Err(_) => err.extend(r.blocks.iter().copied()),
        }
        if r.last {
            return (ok, err);
        }
    }
}

/// Process-wide fetch-retry count recorded on `obs`'s registry.
fn retries_on(obs: &obs::Obs) -> u64 {
    obs.registry().snapshot().counter(obs::keys::SPARK_FETCH_RETRIES)
}

// --- the real wire: per-block failure granularity ---------------------------

#[test]
fn one_bad_chunk_does_not_fail_sibling_blocks_on_the_real_wire() {
    // Regression for the old all-or-nothing error path, where the first
    // failing chunk poisoned the entire block group. Serve three blocks in
    // per-block chunks with the middle one missing from the block manager:
    // its chunk fails server-side, and exactly that block — not its
    // siblings — must come back as an error.
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(2));
        let mut conf = SparkConf::default();
        conf.merge_chunks_per_request = false;
        let backend: Arc<dyn NetworkBackend> = Arc::new(VanillaBackend::with_conf(&conf));

        let server_id = ProcIdentity::new(Role::Executor(1), 1, "executor-1");
        let bm = Arc::new(BlockManager::default());
        bm.put(bid(0), block_for(0));
        bm.put(bid(2), block_for(2)); // bid(1) intentionally absent
        let (_svc, server_ep) = ShuffleService::start(&server_id, &net, &backend, bm, conf);

        let client_id = ProcIdentity::new(Role::Executor(0), 0, "executor-0");
        let client = NettyBlockTransferService::new(&client_id, &net, &backend);
        let sink = Queue::new();
        client.fetch_blocks(server_ep.addr(), vec![bid(0), bid(1), bid(2)], sink.clone());

        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(2)], "sibling blocks must decode");
        assert_eq!(err, vec![bid(1)], "only the bad chunk's block may fail");

        client.close();
        server_ep.shutdown();
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

// --- scripted services for the retry controller -----------------------------

/// Scripted [`BlockTransferService`] whose behaviour is a function of the
/// call index; records the block list of every `fetch_blocks` call.
struct Scripted<F: Fn(usize, &[BlockId], &Queue<FetchResult>) + Send + Sync + 'static> {
    calls: Mutex<Vec<Vec<BlockId>>>,
    script: F,
}

impl<F: Fn(usize, &[BlockId], &Queue<FetchResult>) + Send + Sync + 'static> Scripted<F> {
    fn new(script: F) -> Arc<Self> {
        Arc::new(Scripted { calls: Mutex::new(Vec::new()), script })
    }
}

impl<F: Fn(usize, &[BlockId], &Queue<FetchResult>) + Send + Sync + 'static> BlockTransferService
    for Scripted<F>
{
    fn fetch_blocks(&self, _remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        let call = {
            let mut calls = self.calls.lock();
            calls.push(blocks.clone());
            calls.len() - 1
        };
        (self.script)(call, &blocks, &sink);
    }

    fn close(&self) {}
}

fn ok_result(blocks: &[BlockId], i: usize, last: bool) -> FetchResult {
    FetchResult {
        blocks: vec![blocks[i]],
        last,
        result: Ok(vec![block_for(match blocks[i] {
            BlockId::Shuffle { map_id, .. } => map_id,
            _ => 0,
        })]),
    }
}

fn remote() -> PortAddr {
    PortAddr { node: 1, port: 1 }
}

#[test]
fn transient_failure_is_retried_for_the_missing_block_only() {
    let sim = Sim::new();
    sim.spawn("main", || {
        // Call 0: bid(1)'s chunk is corrupt, siblings fine. Call 1+: all ok.
        let primary = Scripted::new(|call, blocks, sink| {
            for i in 0..blocks.len() {
                let last = i + 1 == blocks.len();
                if call == 0 && blocks[i] == bid(1) {
                    sink.send(FetchResult {
                        blocks: vec![bid(1)],
                        last,
                        result: Err(NetzError::codec("corrupt chunk")),
                    });
                } else {
                    sink.send(ok_result(blocks, i, last));
                }
            }
        });
        let obs = obs::Obs::disabled();
        let fetcher = RetryingBlockFetcher::new(primary.clone(), None, &conf(), 1, obs.clone());
        let sink = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1), bid(2)], sink.clone());
        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(1), bid(2)], "every block recovers");
        assert!(err.is_empty());
        assert_eq!(retries_on(&obs), 1, "the registry reports the fetch's retry count");
        assert!(!fetcher.degraded(), "request-scoped failures must not degrade the plane");
        let calls = primary.calls.lock().clone();
        assert_eq!(calls[0], vec![bid(0), bid(1), bid(2)]);
        assert_eq!(calls[1], vec![bid(1)], "the re-request covers only the missing block");
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn stalled_attempt_times_out_and_reissues_missing_chunks() {
    let sim = Sim::new();
    sim.spawn("main", || {
        // Call 0 delivers the siblings, then goes silent without ever
        // finishing; the controller's progress timeout must abandon it and
        // re-request only the block that never arrived.
        let primary = Scripted::new(|call, blocks, sink| {
            for i in 0..blocks.len() {
                if call == 0 && blocks[i] == bid(1) {
                    continue; // swallowed chunk: no result
                }
                // The swallowed chunk's callback never runs on call 0, so
                // the attempt never reports `last` either — it just stalls.
                let last = call > 0 && i + 1 == blocks.len();
                sink.send(ok_result(blocks, i, last));
            }
        });
        let obs = obs::Obs::disabled();
        let fetcher = RetryingBlockFetcher::new(primary.clone(), None, &conf(), 1, obs.clone());
        let sink = Queue::new();
        let t0 = simt::now();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1), bid(2)], sink.clone());
        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(1), bid(2)]);
        assert!(err.is_empty());
        assert_eq!(retries_on(&obs), 1);
        assert!(
            simt::now() - t0 >= conf().fetch_timeout_ns,
            "recovery must have waited out the stall"
        );
        assert_eq!(primary.calls.lock()[1], vec![bid(1)]);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn consecutive_plane_failures_degrade_to_the_fallback_service() {
    let sim = Sim::new();
    sim.spawn("main", || {
        // The primary plane is dead: every attempt fails with a plane-level
        // error. After `PLANE_FAILURE_THRESHOLD` consecutive failures the
        // fetch must switch to the fallback service and stay there.
        let primary = Scripted::new(|_, blocks, sink| {
            sink.send(FetchResult {
                blocks: blocks.to_vec(),
                last: true,
                result: Err(NetzError::ConnectFailed("plane down".into())),
            });
        });
        let fallback = Scripted::new(|_, blocks, sink| {
            for i in 0..blocks.len() {
                sink.send(ok_result(blocks, i, i + 1 == blocks.len()));
            }
        });
        let obs = obs::Obs::disabled();
        let fetcher = RetryingBlockFetcher::new(
            primary.clone(),
            Some(fallback.clone()),
            &conf(),
            1,
            obs.clone(),
        );
        let sink = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1)], sink.clone());
        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(1)], "the fallback plane completes the fetch");
        assert!(err.is_empty());
        assert!(fetcher.degraded(), "the primary plane must be abandoned");
        let threshold = PLANE_FAILURE_THRESHOLD;
        assert_eq!(primary.calls.lock().len() as u32, threshold, "primary dropped at threshold");
        assert_eq!(fallback.calls.lock().len(), 1);
        assert_eq!(
            retries_on(&obs),
            u64::from(threshold),
            "each failed primary attempt counts as a retry"
        );

        // Sticky: the next fetch goes straight to the fallback.
        let sink2 = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(2)], sink2.clone());
        let (ok2, _) = drain(&sink2);
        assert_eq!(ok2, vec![bid(2)]);
        assert_eq!(primary.calls.lock().len() as u32, threshold, "primary never consulted again");
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn exhausted_retries_fail_only_the_still_missing_blocks() {
    let sim = Sim::new();
    sim.spawn("main", || {
        // bid(1) is permanently corrupt. Its siblings arrive on the first
        // attempt; after the retry budget is spent, exactly one terminal
        // error covering bid(1) is emitted — not a group-wide failure.
        let primary = Scripted::new(|_, blocks, sink| {
            for i in 0..blocks.len() {
                let last = i + 1 == blocks.len();
                if blocks[i] == bid(1) {
                    sink.send(FetchResult {
                        blocks: vec![bid(1)],
                        last,
                        result: Err(NetzError::codec("permanently corrupt")),
                    });
                } else {
                    sink.send(ok_result(blocks, i, last));
                }
            }
        });
        let c = SparkConf { fetch_max_retries: 1, ..conf() };
        let obs = obs::Obs::disabled();
        let fetcher = RetryingBlockFetcher::new(primary.clone(), None, &c, 1, obs.clone());
        let sink = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1), bid(2)], sink.clone());
        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(2)], "siblings delivered despite exhaustion");
        assert_eq!(err, vec![bid(1)], "the terminal error covers only the lost block");
        assert_eq!(retries_on(&obs), 1, "budget fully spent before giving up");
        assert!(!fetcher.degraded());
        assert_eq!(primary.calls.lock().len(), 2);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}
