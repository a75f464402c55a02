//! Block transfer: the shuffle-plane service and client
//! (Spark's `BlockTransferService` / `OneForOneStreamManager`).
//!
//! Data flow (paper Fig. 4): the reducer's `ShuffleBlockFetcherIterator`
//! sends an `OpenBlocks` RPC naming the blocks it wants; the serving
//! executor registers a stream over those blocks and replies with a stream
//! handle; the reducer then issues `ChunkFetchRequest`s and the server
//! answers with `ChunkFetchSuccess` messages carrying the block data — the
//! message type whose body MPI4Spark-Optimized routes over MPI.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use fabric::{Net, Payload, PortAddr};
use netz::{
    ChannelCore, ChannelId, NetzError, RetryPolicy, StreamManager, TransportClient,
    TransportContext,
};
use simt::queue::{Queue, RecvError};
use simt::sync::Mutex;
use simt::SeededRng;

use crate::config::SparkConf;
use crate::net_backend::{NetworkBackend, Plane, ProcIdentity};
use crate::storage::{BlockId, BlockManager, StoredBlock};

/// RPC opening a stream over named blocks.
pub struct OpenBlocks {
    /// Blocks requested, in fetch order.
    pub blocks: Vec<BlockId>,
}

/// Reply to [`OpenBlocks`].
#[derive(Debug, Clone, Copy)]
pub struct StreamHandle {
    /// Stream to fetch chunks from.
    pub stream_id: u64,
    /// Number of chunks in the stream.
    pub chunks: u32,
}

/// One fetched chunk of a block group (or a failure for the blocks it
/// covers).
///
/// A `fetch_blocks` call yields one `FetchResult` *per chunk*, streamed as
/// each chunk arrives — Spark's `ShuffleBlockFetcherIterator` behaviour,
/// where every landed buffer immediately frees `maxBytesInFlight` budget.
/// The result with [`FetchResult::last`] set retires the request. Failure
/// is per-chunk, never whole-group: an `Err` covers exactly the blocks in
/// [`FetchResult::blocks`], so one corrupted chunk cannot poison its
/// siblings.
pub struct FetchResult {
    /// Blocks covered by *this chunk* (all requested blocks in merged mode).
    pub blocks: Vec<BlockId>,
    /// True on the final result of the originating `fetch_blocks` call.
    pub last: bool,
    /// Decoded per-block data, ordered as `blocks`; on `Err`, the retry
    /// layer re-requests the blocks.
    pub result: Result<Vec<StoredBlock>, NetzError>,
}

/// Where a fetch's results go: one call per chunk as it lands, made by
/// whatever runs then: an endpoint's event loop, the Basic design's MPI
/// receive loop or another continuation on the engine.
#[derive(Clone)]
pub struct FetchSink(Arc<dyn Fn(FetchResult) + Send + Sync>);

impl FetchSink {
    /// Deliver one result.
    pub fn send(&self, result: FetchResult) {
        (self.0)(result);
    }
}

impl From<Queue<FetchResult>> for FetchSink {
    /// A sink that queues every result for a reader to receive.
    fn from(queue: Queue<FetchResult>) -> FetchSink {
        FetchSink(Arc::new(move |result| queue.send(result)))
    }
}

/// Shuffle-plane client interface. Implementations: the Netty-based default
/// below; RDMA-Spark and MPI4Spark reuse it with different transports, which
/// is faithful — both systems keep this layer and swap what is underneath.
pub trait BlockTransferService: Send + Sync + 'static {
    /// Fetch `blocks` from the shuffle service at `remote`; each chunk's
    /// result goes to `sink` as it lands. Never parks, and may run on an
    /// engine event: the requests go out as continuations, and the caller
    /// goes on at once.
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: FetchSink);

    /// [`fetch_blocks`](BlockTransferService::fetch_blocks), then `issued`
    /// once every request of the fetch is on the wire. The default suits a
    /// service that has issued everything by the time it returns.
    fn fetch_blocks_then(
        &self,
        remote: PortAddr,
        blocks: Vec<BlockId>,
        sink: FetchSink,
        issued: Box<dyn FnOnce() + Send>,
    ) {
        self.fetch_blocks(remote, blocks, sink);
        issued();
    }

    /// Close cached connections.
    fn close(&self);
}

// --- server side ----------------------------------------------------------

struct StreamState {
    chunks: Vec<Vec<BlockId>>,
    served: usize,
    /// The channel whose `OpenBlocks` opened the stream.
    channel: ChannelId,
}

/// The serving side of the shuffle plane: an RPC handler + stream manager
/// over the executor's block manager.
pub struct ShuffleService {
    block_manager: Arc<BlockManager>,
    streams: Mutex<BTreeMap<u64, StreamState>>,
    next_stream: AtomicU64,
    conf: SparkConf,
}

impl ShuffleService {
    /// Start the service on `identity`'s node; returns the handler and the
    /// bound endpoint.
    pub fn start(
        identity: &ProcIdentity,
        net: &Net,
        backend: &Arc<dyn NetworkBackend>,
        block_manager: Arc<BlockManager>,
        conf: SparkConf,
    ) -> (Arc<ShuffleService>, netz::Endpoint) {
        let svc = Arc::new(ShuffleService {
            block_manager,
            streams: Mutex::new(BTreeMap::new()),
            next_stream: AtomicU64::new(1),
            conf,
        });
        let ctx: TransportContext = backend.context(
            Plane::Shuffle,
            identity,
            net,
            Arc::new(SvcHandler { svc: svc.clone() }),
        );
        let ep = ctx.create_client_endpoint(format!("shuffle:{}", identity.name), identity.node);
        (svc, ep)
    }

    fn open(&self, channel: ChannelId, blocks: Vec<BlockId>) -> StreamHandle {
        let chunks: Vec<Vec<BlockId>> = if self.conf.merge_chunks_per_request {
            vec![blocks]
        } else {
            blocks.into_iter().map(|b| vec![b]).collect()
        };
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let n = chunks.len() as u32;
        self.streams.lock().insert(id, StreamState { chunks, served: 0, channel });
        StreamHandle { stream_id: id, chunks: n }
    }
}

/// RPC-handler wrapper installed on the shuffle endpoint; forwards
/// `OpenBlocks` to the service and exposes it as the stream manager.
struct SvcHandler {
    svc: Arc<ShuffleService>,
}

impl netz::RpcHandler for SvcHandler {
    fn receive(
        &self,
        chan: &Arc<ChannelCore>,
        body: Payload,
        reply: netz::context::RpcResponseCallback,
    ) {
        let Some(open) = body.value_as::<OpenBlocks>() else {
            reply(Err("shuffle service only accepts OpenBlocks".into()));
            return;
        };
        let handle = self.svc.open(chan.id, open.blocks.clone());
        reply(Ok(Payload::control(handle, 64)));
    }

    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        self.svc.clone()
    }

    /// Drop the streams the channel opened, as Spark's
    /// `OneForOneStreamManager.connectionTerminated` does: no one can ask
    /// for their chunks any more (a lost reply or a timed-out attempt makes
    /// the retry open a new stream).
    fn channel_inactive(&self, chan: &Arc<ChannelCore>) {
        self.svc.streams.lock().retain(|_, st| st.channel != chan.id);
    }
}

impl StreamManager for ShuffleService {
    fn get_chunk(&self, stream_id: u64, chunk_index: u32) -> Result<Payload, String> {
        let block_ids = {
            let streams = self.streams.lock();
            let st =
                streams.get(&stream_id).ok_or_else(|| format!("unknown stream {stream_id}"))?;
            st.chunks
                .get(chunk_index as usize)
                .cloned()
                .ok_or_else(|| format!("chunk {chunk_index} out of range"))?
        };
        let mut blocks = Vec::with_capacity(block_ids.len());
        for id in &block_ids {
            let b = self.block_manager.get(*id).ok_or_else(|| format!("block {id} not found"))?;
            blocks.push(b);
        }
        // Stream bookkeeping: drop fully served streams.
        {
            let mut streams = self.streams.lock();
            if let Some(st) = streams.get_mut(&stream_id) {
                st.served += 1;
                if st.served >= st.chunks.len() {
                    streams.remove(&stream_id);
                }
            }
        }
        // The body is the blocks themselves, carried by handle: each shares
        // its bytes with the map output. It declares the wire size of their
        // encoding as one group — a count, then per block a 20-byte header
        // (length, virtual length, records) and the block — so it is never
        // less than the real bytes it stands for.
        let virt = 4 + blocks.iter().map(|b| b.virtual_len + 20).sum::<u64>();
        let real = 4 + blocks.iter().map(|b| b.data.len() as u64 + 20).sum::<u64>();
        Ok(Payload::control(blocks, virt.max(real)))
    }

    fn chunk_fetch_cpu_ns(&self) -> u64 {
        2_000
    }
}

// --- client side ------------------------------------------------------------

/// Default shuffle-plane client: netz channels to remote shuffle services.
pub struct NettyBlockTransferService {
    endpoint: netz::Endpoint,
}

impl NettyBlockTransferService {
    /// Build the client side on `identity`'s node using the backend's
    /// shuffle-plane transport.
    pub fn new(identity: &ProcIdentity, net: &Net, backend: &Arc<dyn NetworkBackend>) -> Arc<Self> {
        let ctx = backend.context(Plane::Shuffle, identity, net, Arc::new(netz::NoOpRpcHandler));
        let endpoint =
            ctx.create_client_endpoint(format!("fetch:{}", identity.name), identity.node);
        Arc::new(NettyBlockTransferService { endpoint })
    }
}

/// Report a failure before any stream exists (connect, `OpenBlocks`): it has
/// no per-chunk structure, so one `Err` covers the whole request, and the
/// retry layer above re-requests per block.
fn fail_request(
    sink: &FetchSink,
    blocks: Vec<BlockId>,
    e: NetzError,
    issued: Box<dyn FnOnce() + Send>,
) {
    sink.send(FetchResult { blocks, last: true, result: Err(e) });
    issued();
}

/// Request chunk `i` of `stream` and, once it is written, the next; `issued`
/// runs after the last. Chunks cover `blocks` in order (a single chunk covers
/// all of them in merged mode). Each chunk is delivered the moment it lands —
/// no aggregation buffer — so the reader can free in-flight budget and issue
/// follow-on requests per chunk; `landed` only counts arrivals to flag the
/// last result. A chunk that fails reports `Err` for *its own* covered
/// blocks only; sibling chunks keep streaming.
fn request_chunks(
    client: TransportClient,
    stream: StreamHandle,
    blocks: Arc<Vec<BlockId>>,
    sink: FetchSink,
    landed: Arc<AtomicUsize>,
    i: u32,
    issued: Box<dyn FnOnce() + Send>,
) {
    if i == stream.chunks {
        return issued();
    }
    let n_chunks = stream.chunks as usize;
    let per_block = n_chunks == blocks.len();
    let (covered, sink2, landed2) = (blocks.clone(), sink.clone(), landed.clone());
    let on_chunk = Box::new(move |res: Result<Payload, NetzError>| {
        // The body is the served blocks themselves (see `get_chunk`).
        let result = res.and_then(|payload| {
            let blocks = payload.value.and_then(|v| v.downcast::<Vec<StoredBlock>>().ok());
            blocks
                .map(Arc::unwrap_or_clone)
                .ok_or_else(|| NetzError::codec("chunk carries no blocks"))
        });
        let covered = if per_block { vec![covered[i as usize]] } else { covered.as_ref().clone() };
        let last = landed2.fetch_add(1, Ordering::Relaxed) + 1 == n_chunks;
        sink2.send(FetchResult { blocks: covered, last, result });
    });
    let next = client.clone();
    client.fetch_chunk_async(stream.stream_id, i, on_chunk, move || {
        request_chunks(next, stream, blocks, sink, landed, i + 1, issued);
    });
}

impl BlockTransferService for NettyBlockTransferService {
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: FetchSink) {
        self.fetch_blocks_then(remote, blocks, sink, Box::new(|| ()));
    }

    /// Connect (or reuse the cached client), open the stream with an
    /// `OpenBlocks` RPC, then write one chunk request after the other: each
    /// step a continuation of the one before.
    fn fetch_blocks_then(
        &self,
        remote: PortAddr,
        blocks: Vec<BlockId>,
        sink: FetchSink,
        issued: Box<dyn FnOnce() + Send>,
    ) {
        self.endpoint.client_then(remote, move |client| {
            let client = match client {
                Ok(c) => c,
                Err(e) => return fail_request(&sink, blocks, e, issued),
            };
            let open = Payload::control(
                OpenBlocks { blocks: blocks.clone() },
                64 + 16 * blocks.len() as u64,
            );
            client.clone().send_rpc_then(open, move |reply| {
                let stream = match reply.map(|r| r.value_as::<StreamHandle>()) {
                    Ok(Some(h)) => *h,
                    Ok(None) => {
                        let e = NetzError::codec("bad OpenBlocks reply");
                        return fail_request(&sink, blocks, e, issued);
                    }
                    Err(e) => return fail_request(&sink, blocks, e, issued),
                };
                let landed = Arc::new(AtomicUsize::new(0));
                request_chunks(client, stream, Arc::new(blocks), sink, landed, 0, issued);
            });
        });
    }

    fn close(&self) {
        self.endpoint.shutdown();
    }
}

// --- retrying layer ---------------------------------------------------------

struct RetryInner {
    service: Arc<dyn BlockTransferService>,
    /// Re-requests per fetch after the first attempt.
    max_retries: u32,
    /// Exponential backoff between attempts.
    policy: RetryPolicy,
    /// Progress timeout: an attempt that delivers nothing for this long is
    /// abandoned and its missing blocks re-requested.
    fetch_timeout_ns: u64,
    obs: obs::Obs,
    retries: obs::Counter,
    rng: Mutex<SeededRng>,
}

/// Spark's `RetryingBlockTransferor` analog: wraps a
/// [`BlockTransferService`] with per-block retry, exponential backoff with
/// seeded jitter, and progress timeouts that re-request only the
/// still-missing blocks. A fetch that exhausts its retries reports every
/// missing block as failed, and the reader raises `FetchFailed` to the
/// scheduler, which reruns the map stage.
pub struct RetryingBlockFetcher {
    inner: Arc<RetryInner>,
}

impl RetryingBlockFetcher {
    /// Wrap `service`, retrying on `conf`'s `fetch_*` schedule with 20 %
    /// backoff jitter; `salt` decorrelates this process's jitter stream from
    /// its peers' without breaking seed replay.
    /// Re-requests are counted on `obs`'s registry under
    /// [`obs::keys::SPARK_FETCH_RETRIES`] (and traced as
    /// `spark.fetch.retry` events).
    pub fn new(
        service: Arc<dyn BlockTransferService>,
        conf: &SparkConf,
        salt: u64,
        obs: obs::Obs,
    ) -> Arc<Self> {
        // One jitter stream per process: the salt tells executors apart, so
        // they do not retry in lockstep.
        let rng = SeededRng::from_seed(0).fork(salt);
        let retries = obs.registry().counter(obs::keys::SPARK_FETCH_RETRIES);
        Arc::new(RetryingBlockFetcher {
            inner: Arc::new(RetryInner {
                service,
                max_retries: conf.fetch_max_retries,
                policy: RetryPolicy {
                    base_delay_ns: conf.fetch_retry_base_ns,
                    max_delay_ns: conf.fetch_retry_max_ns,
                    jitter_frac: 0.2,
                },
                fetch_timeout_ns: conf.fetch_timeout_ns,
                obs,
                retries,
                rng: Mutex::new(rng),
            }),
        })
    }
}

/// One request under the retry controller: what is still missing and how its
/// attempts went. It holds no thread: each step runs on the engine event that
/// calls for it — the request itself, an attempt's chunk landing or stalling,
/// a backoff ending — and forwards results to `sink` with `last` recomputed,
/// so that the consumer sees one coherent request.
struct Fetch {
    inner: Arc<RetryInner>,
    remote: PortAddr,
    sink: FetchSink,
    missing: Vec<BlockId>,
    /// Re-requests so far.
    retries: u32,
    last_error: NetzError,
}

impl Fetch {
    /// Request what is missing. The attempt's results queue up until its
    /// requests are all out; then they drive the fetch.
    fn attempt(self) {
        let results: Queue<FetchResult> = Queue::new();
        let (service, remote) = (self.inner.service.clone(), self.remote);
        let (blocks, sink) = (self.missing.clone(), results.clone().into());
        service.fetch_blocks_then(remote, blocks, sink, Box::new(move || self.next(results)));
    }

    /// Take the attempt's queued results, then wait for the next one. Each
    /// wait's deadline resets the idle timer: each arriving chunk proves the
    /// attempt is alive, so only a *stall* of `fetch_timeout_ns` abandons it.
    fn next(mut self, results: Queue<FetchResult>) {
        while let Some(res) = results.try_recv() {
            match self.on_result(Ok(res)) {
                Some(fetch) => self = fetch,
                None => return,
            }
        }
        let deadline = simt::now().saturating_add(self.inner.fetch_timeout_ns);
        results.clone().recv_deadline_then(deadline, move |res| {
            if let Some(fetch) = self.on_result(res) {
                fetch.next(results);
            }
        });
    }

    /// Book one result of the attempt; `Some` while the attempt goes on.
    fn on_result(mut self, res: Result<FetchResult, RecvError>) -> Option<Fetch> {
        let res = match res {
            Ok(r) => r,
            Err(RecvError::Timeout) => {
                self.last_error = NetzError::Timeout;
                return self.end_attempt();
            }
            Err(RecvError::Closed) => return self.end_attempt(),
        };
        let attempt_done = res.last;
        match res.result {
            Ok(data) => {
                self.missing.retain(|b| !res.blocks.contains(b));
                let finished = self.missing.is_empty();
                self.sink.send(FetchResult {
                    blocks: res.blocks,
                    last: finished,
                    result: Ok(data),
                });
                if finished {
                    return None;
                }
            }
            Err(e) => self.last_error = e,
        }
        if attempt_done {
            return self.end_attempt();
        }
        Some(self)
    }

    /// The attempt is over with blocks still missing: give up, or back off
    /// and try again. Returns `None`: the attempt is over either way.
    fn end_attempt(mut self) -> Option<Fetch> {
        let inner = self.inner.clone();
        if self.retries >= inner.max_retries {
            // Budget exhausted: every still-missing block surfaces a
            // terminal error to the reader, which raises FetchFailed to
            // the scheduler — this is the handoff from fetch-level
            // retry to stage-level recovery.
            let n = self.missing.len();
            inner.obs.registry().counter(obs::keys::SPARK_FETCH_EXHAUSTED).add(n as u64);
            inner.obs.event(
                "spark.fetch.exhausted",
                obs::kv! {"remote" => self.remote.node,
                "missing" => n,
                "retries" => self.retries},
            );
            for (i, b) in std::mem::take(&mut self.missing).into_iter().enumerate() {
                self.sink.send(FetchResult {
                    blocks: vec![b],
                    last: i + 1 == n,
                    result: Err(self.last_error.clone()),
                });
            }
            return None;
        }
        let backoff = {
            let mut rng = inner.rng.lock();
            inner.policy.backoff_ns(self.retries, &mut rng)
        };
        let retry = move || {
            self.retries += 1;
            inner.retries.inc();
            inner.obs.event(
                "spark.fetch.retry",
                obs::kv! {"remote" => self.remote.node,
                "attempt" => self.retries,
                "missing" => self.missing.len()},
            );
            self.attempt();
        };
        // As a sleep would: no event for a backoff of nothing.
        match backoff {
            0 => retry(),
            _ => simt::engine::call_at(simt::now().saturating_add(backoff), retry),
        }
        None
    }
}

impl BlockTransferService for RetryingBlockFetcher {
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: FetchSink) {
        let fetch = Fetch {
            inner: self.inner.clone(),
            remote,
            sink,
            missing: blocks,
            retries: 0,
            last_error: NetzError::Remote("fetch failed".into()),
        };
        simt::engine::call_at(simt::now(), move || fetch.attempt());
    }

    fn close(&self) {
        self.inner.service.close();
    }
}
