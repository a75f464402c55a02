//! The retrying fetch layer, pinned at both ends:
//!
//! * against the *real* shuffle wire (`ShuffleService` +
//!   `NettyBlockTransferService` over the fabric), the per-block failure
//!   granularity regression — one bad chunk must not fail sibling blocks;
//! * against scripted transfer services, the retry controller's contract:
//!   missing-only re-requests, stall detection, retry accounting, and
//!   per-block error emission on exhaustion.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, Payload, PortAddr};
use netz::{NetzError, NoOpRpcHandler, StreamManager};
use simt::queue::Queue;
use simt::sync::Mutex;
use simt::Sim;
use sparklet::data::encode_batch;
use sparklet::net_backend::{NetworkBackend, Plane, ProcIdentity, Role, VanillaBackend};
use sparklet::storage::{BlockId, BlockManager, BlockSize, KeptBlock, MapOutput, StoredBlock};
use sparklet::transfer::{
    BlockTransferService, FetchResult, FetchSink, NettyBlockTransferService, OpenBlocks,
    RetryingBlockFetcher, ShuffleService, StreamHandle,
};
use sparklet::SparkConf;

const MS: u64 = 1_000_000;

fn bid(map_id: u32) -> BlockId {
    BlockId::Shuffle { shuffle_id: 7, map_id, reduce_id: 0 }
}

fn block_for(map_id: u32) -> StoredBlock {
    let (data, _) = encode_batch(&[u64::from(map_id) * 100]);
    StoredBlock { data, virtual_len: 10, records: 1, value_bytes: 0 }
}

/// Map `map_id`'s output: one reduce bucket, holding `block_for(map_id)`.
fn output_for(map_id: u32) -> MapOutput {
    let StoredBlock { data, virtual_len, records, value_bytes } = block_for(map_id);
    let sizes = Arc::new([BlockSize { reduce_id: 0, records: records as u32, size: virtual_len }]);
    MapOutput::new(1, sizes, vec![KeptBlock { data, value_bytes }])
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
        bm.put_map_output(7, 0, output_for(0));
        bm.put_map_output(7, 2, output_for(2)); // bid(1) intentionally absent
        let (_svc, server_ep) = ShuffleService::start(&server_id, &net, &backend, bm, conf);

        let client_id = ProcIdentity::new(Role::Executor(0), 0, "executor-0");
        let client = NettyBlockTransferService::new(&client_id, &net, &backend);
        let sink = Queue::new();
        client.fetch_blocks(server_ep.addr(), vec![bid(0), bid(1), bid(2)], sink.clone().into());

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

#[test]
fn a_closed_channel_takes_its_unserved_streams_with_it() {
    let sim = Sim::new();
    sim.spawn("main", || {
        let net = Net::new(&ClusterSpec::test(2));
        let conf = SparkConf::default();
        let backend: Arc<dyn NetworkBackend> = Arc::new(VanillaBackend::with_conf(&conf));
        let server_id = ProcIdentity::new(Role::Executor(1), 1, "executor-1");
        let bm = Arc::new(BlockManager::default());
        bm.put_map_output(7, 0, output_for(0));
        let (svc, server_ep) = ShuffleService::start(&server_id, &net, &backend, bm, conf);

        // A client that opens a stream and closes before asking for a chunk.
        let client_id = ProcIdentity::new(Role::Executor(0), 0, "executor-0");
        let ctx = backend.context(Plane::Shuffle, &client_id, &net, Arc::new(NoOpRpcHandler));
        let client_ep = ctx.create_client_endpoint("raw", 0);
        let client = client_ep.connect(server_ep.addr()).expect("server listening");
        let open = Payload::control(OpenBlocks { blocks: vec![bid(0)] }, 64);
        let reply = client.send_rpc(open).expect("stream opened");
        let stream = *reply.value_as::<StreamHandle>().expect("a stream handle");
        client.close();
        simt::sleep(MS);
        let chunk = svc.get_chunk(stream.stream_id, 0);
        assert!(chunk.is_err(), "the closed channel's stream outlived it");

        client_ep.shutdown();
        server_ep.shutdown();
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

// --- scripted services for the retry controller -----------------------------

/// Scripted [`BlockTransferService`] whose behaviour is a function of the
/// call index; records the block list of every `fetch_blocks` call.
struct Scripted<F: Fn(usize, &[BlockId], &FetchSink) + Send + Sync + 'static> {
    calls: Mutex<Vec<Vec<BlockId>>>,
    script: F,
}

impl<F: Fn(usize, &[BlockId], &FetchSink) + Send + Sync + 'static> Scripted<F> {
    fn new(script: F) -> Arc<Self> {
        Arc::new(Scripted { calls: Mutex::new(Vec::new()), script })
    }
}

impl<F: Fn(usize, &[BlockId], &FetchSink) + Send + Sync + 'static> BlockTransferService
    for Scripted<F>
{
    fn fetch_blocks(&self, _remote: PortAddr, blocks: Vec<BlockId>, sink: FetchSink) {
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
        let fetcher = RetryingBlockFetcher::new(primary.clone(), &conf(), 1, obs.clone());
        let sink = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1), bid(2)], sink.clone().into());
        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(1), bid(2)], "every block recovers");
        assert!(err.is_empty());
        assert_eq!(retries_on(&obs), 1, "the registry reports the fetch's retry count");
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
        let fetcher = RetryingBlockFetcher::new(primary.clone(), &conf(), 1, obs.clone());
        let sink = Queue::new();
        let t0 = simt::now();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1), bid(2)], sink.clone().into());
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
        let fetcher = RetryingBlockFetcher::new(primary.clone(), &c, 1, obs.clone());
        let sink = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1), bid(2)], sink.clone().into());
        let (mut ok, err) = drain(&sink);
        ok.sort();
        assert_eq!(ok, vec![bid(0), bid(2)], "siblings delivered despite exhaustion");
        assert_eq!(err, vec![bid(1)], "the terminal error covers only the lost block");
        assert_eq!(retries_on(&obs), 1, "budget fully spent before giving up");
        assert_eq!(primary.calls.lock().len(), 2);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}

#[test]
fn a_stalled_attempt_times_out_backs_off_and_redelivers_at_pinned_instants() {
    // Call 0 delivers bid(0) and swallows bid(1); call 1 delivers bid(1).
    // The stall is noticed one progress timeout after the last chunk landed,
    // the backoff is the seeded first one, and the re-request's chunk lands
    // the instant the re-request goes out. The instants are the ones a
    // fetch-retry thread took.
    let sim = Sim::new();
    sim.spawn("main", || {
        let calls_at = Arc::new(Mutex::new(Vec::new()));
        let at = calls_at.clone();
        let primary = Scripted::new(move |call, blocks, sink| {
            at.lock().push(simt::now());
            for i in 0..blocks.len() {
                if call == 0 && blocks[i] == bid(1) {
                    continue;
                }
                sink.send(ok_result(blocks, i, call > 0 && i + 1 == blocks.len()));
            }
        });
        let fetcher = RetryingBlockFetcher::new(primary, &conf(), 1, obs::Obs::disabled());
        simt::sleep(MS);
        let sink = Queue::new();
        fetcher.fetch_blocks(remote(), vec![bid(0), bid(1)], sink.clone().into());
        let mut landed = Vec::new();
        loop {
            let r = sink.recv().expect("fetch emits a terminal result");
            landed.push((r.blocks.clone(), simt::now()));
            if r.last {
                break;
            }
        }
        let (timeout_at, backoff) = (MS + conf().fetch_timeout_ns, 1_032_012);
        assert_eq!(timeout_at, 51 * MS, "the stall is noticed 50 ms after the last chunk");
        let re_request = timeout_at + backoff;
        assert_eq!(calls_at.lock().clone(), [MS, re_request]);
        assert_eq!(landed, [(vec![bid(0)], MS), (vec![bid(1)], re_request)]);
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
}
