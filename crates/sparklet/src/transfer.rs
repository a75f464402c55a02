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
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use fabric::{Net, Payload, PortAddr};
use netz::buf::{ByteReader, ByteWriter};
use netz::{ChannelCore, NetzError, RetryPolicy, StreamManager, TransportClient, TransportContext};
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
    /// Decoded per-block data, ordered as `blocks`. The retry layer reads
    /// [`NetzError::is_plane_failure`] to tell a failing plane from a bad
    /// request.
    pub result: Result<Vec<StoredBlock>, NetzError>,
}

/// Shuffle-plane client interface. Implementations: the Netty-based default
/// below; RDMA-Spark and MPI4Spark reuse it with different transports, which
/// is faithful — both systems keep this layer and swap what is underneath.
pub trait BlockTransferService: Send + Sync + 'static {
    /// Fetch `blocks` from the shuffle service at `remote`; push the result
    /// into `sink` when it arrives (does not block for the data).
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>);

    /// Close cached connections.
    fn close(&self);
}

// --- encoding of merged block groups -------------------------------------

/// Encode a group of stored blocks into one chunk body.
pub fn encode_block_group(blocks: &[StoredBlock]) -> (Bytes, u64) {
    let mut w = ByteWriter::with_capacity(64 + blocks.iter().map(|b| b.data.len()).sum::<usize>());
    w.put_u32(blocks.len() as u32);
    let mut virt = 4u64;
    for b in blocks {
        w.put_u32(b.data.len() as u32);
        w.put_u64(b.virtual_len);
        w.put_u64(b.records);
        w.put_slice(&b.data);
        virt += b.virtual_len + 20;
    }
    (w.freeze(), virt)
}

/// Decode a chunk body produced by [`encode_block_group`]. Zero-copy: each
/// block's `data` is a slice *sharing* the chunk body's allocation, so the
/// buffer that arrived from the wire is never duplicated.
pub fn decode_block_group(data: &Bytes) -> Result<Vec<StoredBlock>, String> {
    let mut r = ByteReader::new(data.clone());
    let n = r.get_u32().ok_or("truncated group header")? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.get_u32().ok_or("truncated block length")? as usize;
        let virtual_len = r.get_u64().ok_or("truncated virtual length")?;
        let records = r.get_u64().ok_or("truncated record count")?;
        let data = r.get_bytes(len).ok_or("truncated block data")?;
        out.push(StoredBlock { data, virtual_len, records });
    }
    Ok(out)
}

// --- server side ----------------------------------------------------------

struct StreamState {
    chunks: Vec<Vec<BlockId>>,
    served: usize,
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

    fn open(&self, blocks: Vec<BlockId>) -> StreamHandle {
        let chunks: Vec<Vec<BlockId>> = if self.conf.merge_chunks_per_request {
            vec![blocks]
        } else {
            blocks.into_iter().map(|b| vec![b]).collect()
        };
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let n = chunks.len() as u32;
        self.streams.lock().insert(id, StreamState { chunks, served: 0 });
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
        _chan: &Arc<ChannelCore>,
        body: Payload,
        reply: netz::context::RpcResponseCallback,
    ) {
        let Some(open) = body.value_as::<OpenBlocks>() else {
            reply(Err("shuffle service only accepts OpenBlocks".into()));
            return;
        };
        let handle = self.svc.open(open.blocks.clone());
        reply(Ok(Payload::control(handle, 64)));
    }

    fn stream_manager(&self) -> Arc<dyn StreamManager> {
        self.svc.clone()
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
        let (bytes, virt) = encode_block_group(&blocks);
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
        let real = bytes.len() as u64;
        Ok(Payload::bytes_scaled(bytes, virt.max(real)))
    }

    fn chunk_fetch_cpu_ns(&self) -> u64 {
        2_000
    }
}

// --- client side ------------------------------------------------------------

/// Default shuffle-plane client: netz channels to remote shuffle services.
pub struct NettyBlockTransferService {
    endpoint: netz::Endpoint,
    clients: Mutex<BTreeMap<PortAddr, TransportClient>>,
}

impl NettyBlockTransferService {
    /// Build the client side on `identity`'s node using the backend's
    /// shuffle-plane transport.
    pub fn new(identity: &ProcIdentity, net: &Net, backend: &Arc<dyn NetworkBackend>) -> Arc<Self> {
        let ctx = backend.context(Plane::Shuffle, identity, net, Arc::new(netz::NoOpRpcHandler));
        Self::with_context(ctx, identity, "fetch")
    }

    /// Build the client side from an already-constructed transport context
    /// (used to stand up the degraded-mode fallback service next to the
    /// primary one).
    pub fn with_context(ctx: TransportContext, identity: &ProcIdentity, label: &str) -> Arc<Self> {
        let endpoint =
            ctx.create_client_endpoint(format!("{label}:{}", identity.name), identity.node);
        Arc::new(NettyBlockTransferService { endpoint, clients: Mutex::new(BTreeMap::new()) })
    }

    fn client(&self, addr: PortAddr) -> Result<TransportClient, NetzError> {
        {
            let cache = self.clients.lock();
            if let Some(c) = cache.get(&addr) {
                if c.is_active() {
                    return Ok(c.clone());
                }
            }
        }
        let c = self.endpoint.connect(addr)?;
        self.clients.lock().insert(addr, c.clone());
        Ok(c)
    }
}

impl BlockTransferService for NettyBlockTransferService {
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        // Failures before any stream exists (connect, OpenBlocks) have no
        // per-chunk structure: one `Err` covering the whole request is the
        // honest report, and the retry layer above re-requests per block.
        let fail = |sink: &Queue<FetchResult>, blocks: Vec<BlockId>, e: NetzError| {
            sink.send(FetchResult { blocks, last: true, result: Err(e) });
        };
        let client = match self.client(remote) {
            Ok(c) => c,
            Err(e) => {
                fail(&sink, blocks, e);
                return;
            }
        };
        let handle = match client.send_rpc(Payload::control(
            OpenBlocks { blocks: blocks.clone() },
            64 + 16 * blocks.len() as u64,
        )) {
            Ok(reply) => match reply.value_as::<StreamHandle>() {
                Some(h) => *h,
                None => {
                    fail(&sink, blocks, NetzError::codec("bad OpenBlocks reply"));
                    return;
                }
            },
            Err(e) => {
                fail(&sink, blocks, e);
                return;
            }
        };
        // One callback per chunk; chunks cover `blocks` in order (a single
        // chunk covers all of them in merged mode). Each chunk is delivered
        // the moment it lands — no aggregation buffer — so the reader can
        // free in-flight budget and issue follow-on requests per chunk. The
        // counter only tracks completion to flag the last result. A chunk
        // that fails reports `Err` for *its own* covered blocks only;
        // sibling chunks keep streaming.
        let n_chunks = handle.chunks as usize;
        let per_block = n_chunks == blocks.len();
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let blocks = Arc::new(blocks);
        for i in 0..n_chunks {
            let sink = sink.clone();
            let done = done.clone();
            let blocks = blocks.clone();
            client.fetch_chunk_async(
                handle.stream_id,
                i as u32,
                Box::new(move |res| {
                    let result = res.and_then(|payload| {
                        decode_block_group(&payload.bytes).map_err(NetzError::Codec)
                    });
                    let covered = if per_block { vec![blocks[i]] } else { blocks.as_ref().clone() };
                    let last = done.fetch_add(1, Ordering::Relaxed) + 1 == n_chunks;
                    sink.send(FetchResult { blocks: covered, last, result });
                }),
            );
        }
    }

    fn close(&self) {
        // Snapshot under the lock, close outside it: `close()` blocks on the
        // virtual clock to ship the FIN frame, and a speculative straggler
        // reduce task still fetches through this cache during teardown.
        let clients: Vec<TransportClient> =
            std::mem::take(&mut *self.clients.lock()).into_values().collect();
        for c in clients {
            c.close();
        }
        self.endpoint.shutdown();
    }
}

// --- retrying layer ---------------------------------------------------------

/// Consecutive plane-level fetch failures (connect, timeout, closed channel)
/// before an accelerated data plane falls back to sockets.
pub const PLANE_FAILURE_THRESHOLD: u32 = 3;

struct RetryInner {
    primary: Arc<dyn BlockTransferService>,
    fallback: Option<Arc<dyn BlockTransferService>>,
    /// Re-requests per fetch after the first attempt.
    max_retries: u32,
    /// Exponential backoff between attempts.
    policy: RetryPolicy,
    /// Progress timeout: an attempt that delivers nothing for this long is
    /// abandoned and its missing blocks re-requested.
    fetch_timeout_ns: u64,
    /// Sticky: once the plane is declared degraded every later fetch uses
    /// the fallback service.
    degraded: AtomicBool,
    consecutive_plane_failures: AtomicU32,
    obs: obs::Obs,
    retries: obs::Counter,
    rng: Mutex<SeededRng>,
}

/// Spark's `RetryingBlockTransferor` analog: wraps a
/// [`BlockTransferService`] with per-block retry, exponential backoff with
/// seeded jitter, progress timeouts that re-request only the still-missing
/// blocks, and graceful degradation to a fallback (socket-plane) service
/// after consecutive plane-level failures.
pub struct RetryingBlockFetcher {
    inner: Arc<RetryInner>,
}

impl RetryingBlockFetcher {
    /// Wrap `primary`, retrying on `conf`'s `fetch_*` schedule with 20 %
    /// backoff jitter. `fallback`, when present, is an independent service
    /// on the degraded plane (plain sockets); `salt` decorrelates this
    /// process's jitter stream from its peers' without breaking seed replay.
    /// Re-requests are counted on `obs`'s registry under
    /// [`obs::keys::SPARK_FETCH_RETRIES`] (and traced as
    /// `spark.fetch.retry` events).
    pub fn new(
        primary: Arc<dyn BlockTransferService>,
        fallback: Option<Arc<dyn BlockTransferService>>,
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
                primary,
                fallback,
                max_retries: conf.fetch_max_retries,
                policy: RetryPolicy {
                    base_delay_ns: conf.fetch_retry_base_ns,
                    max_delay_ns: conf.fetch_retry_max_ns,
                    jitter_frac: 0.2,
                },
                fetch_timeout_ns: conf.fetch_timeout_ns,
                degraded: AtomicBool::new(false),
                consecutive_plane_failures: AtomicU32::new(0),
                obs,
                retries,
                rng: Mutex::new(rng),
            }),
        })
    }

    /// True once the primary plane has been abandoned for the fallback.
    pub fn degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }
}

impl RetryInner {
    fn service(&self) -> &Arc<dyn BlockTransferService> {
        if self.degraded.load(Ordering::Relaxed) {
            self.fallback.as_ref().unwrap_or(&self.primary)
        } else {
            &self.primary
        }
    }

    fn note_plane_failure(&self) {
        let n = self.consecutive_plane_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= PLANE_FAILURE_THRESHOLD && self.fallback.is_some() {
            self.degraded.store(true, Ordering::Relaxed);
        }
    }

    /// Drive one fetch to completion: attempt, drain, re-request what's
    /// missing, and forward results to `sink` with recomputed `last`/
    /// `retries` so the consumer sees one coherent request.
    fn run(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        let mut missing = blocks;
        let mut retries = 0u32;
        let mut last_error = NetzError::Remote("fetch failed".into());
        loop {
            let attempt_sink: Queue<FetchResult> = Queue::new();
            self.service().fetch_blocks(remote, missing.clone(), attempt_sink.clone());
            let mut progressed = false;
            let mut plane_failed = false;
            // Idle-reset deadline: each arriving chunk proves the attempt is
            // alive, so only a *stall* of fetch_timeout_ns abandons it.
            loop {
                let res = match attempt_sink
                    .recv_deadline(simt::now().saturating_add(self.fetch_timeout_ns))
                {
                    Ok(r) => r,
                    Err(RecvError::Timeout) => {
                        plane_failed = true;
                        last_error = NetzError::Timeout;
                        break;
                    }
                    Err(RecvError::Closed) => break,
                };
                let attempt_done = res.last;
                match res.result {
                    Ok(data) => {
                        progressed = true;
                        missing.retain(|b| !res.blocks.contains(b));
                        let finished = missing.is_empty();
                        sink.send(FetchResult {
                            blocks: res.blocks,
                            last: finished,
                            result: Ok(data),
                        });
                        if finished {
                            self.consecutive_plane_failures.store(0, Ordering::Relaxed);
                            return;
                        }
                    }
                    Err(e) => {
                        plane_failed |= e.is_plane_failure();
                        last_error = e;
                    }
                }
                if attempt_done {
                    break;
                }
            }
            // Attempt over, blocks still missing.
            if progressed {
                self.consecutive_plane_failures.store(0, Ordering::Relaxed);
            }
            if plane_failed {
                self.note_plane_failure();
            }
            if retries >= self.max_retries {
                // Budget exhausted: every still-missing block surfaces a
                // terminal error to the reader, which raises FetchFailed to
                // the scheduler — this is the handoff from fetch-level
                // retry to stage-level recovery.
                let n = missing.len();
                self.obs.registry().counter(obs::keys::SPARK_FETCH_EXHAUSTED).add(n as u64);
                self.obs.event(
                    "spark.fetch.exhausted",
                    obs::kv! {"remote" => remote.node,
                    "missing" => n,
                    "retries" => retries},
                );
                for (i, b) in missing.into_iter().enumerate() {
                    sink.send(FetchResult {
                        blocks: vec![b],
                        last: i + 1 == n,
                        result: Err(last_error.clone()),
                    });
                }
                return;
            }
            let backoff = {
                let mut rng = self.rng.lock();
                self.policy.backoff_ns(retries, &mut rng)
            };
            simt::sleep(backoff);
            retries += 1;
            self.retries.inc();
            self.obs.event(
                "spark.fetch.retry",
                obs::kv! {"remote" => remote.node,
                "attempt" => retries,
                "missing" => missing.len(),
                "degraded" => self.degraded.load(Ordering::Relaxed)},
            );
        }
    }
}

impl BlockTransferService for RetryingBlockFetcher {
    fn fetch_blocks(&self, remote: PortAddr, blocks: Vec<BlockId>, sink: Queue<FetchResult>) {
        let inner = self.inner.clone();
        // The controller blocks (inner fetches, backoff sleeps), so it runs
        // on its own daemon thread; the caller returns immediately, as the
        // trait contract requires.
        simt::spawn_daemon("fetch-retry", move || {
            inner.run(remote, blocks, sink);
        });
    }

    fn close(&self) {
        self.inner.primary.close();
        if let Some(f) = &self.inner.fallback {
            f.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_group_roundtrip() {
        let blocks = vec![
            StoredBlock { data: Bytes::from_static(b"alpha"), virtual_len: 1000, records: 3 },
            StoredBlock { data: Bytes::from_static(b""), virtual_len: 0, records: 0 },
            StoredBlock { data: Bytes::from_static(b"z"), virtual_len: 1 << 20, records: 7 },
        ];
        let (bytes, virt) = encode_block_group(&blocks);
        assert!(virt >= 1000 + (1 << 20));
        let back = decode_block_group(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(&back[0].data[..], b"alpha");
        assert_eq!(back[0].records, 3);
        assert_eq!(back[2].virtual_len, 1 << 20);
    }

    #[test]
    fn decode_garbage_errors() {
        assert!(decode_block_group(&Bytes::from_static(&[1, 2])).is_err());
        // Claims 5 blocks but has no data.
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let b = w.freeze();
        assert!(decode_block_group(&b).is_err());
    }

    #[test]
    fn decoded_blocks_share_the_chunk_allocation() {
        let blocks = vec![
            StoredBlock { data: Bytes::from_static(b"first-block"), virtual_len: 11, records: 1 },
            StoredBlock { data: Bytes::from_static(b"second"), virtual_len: 6, records: 1 },
        ];
        let (bytes, _) = encode_block_group(&blocks);
        let lo = bytes.as_ptr() as usize;
        let hi = lo + bytes.len();
        let back = decode_block_group(&bytes).unwrap();
        // Zero-copy: every decoded block's data points INSIDE the chunk
        // body's allocation rather than into a fresh copy.
        for b in &back {
            let p = b.data.as_ptr() as usize;
            assert!(p >= lo && p + b.data.len() <= hi, "block data was copied out of the chunk");
        }
        assert_eq!(&back[0].data[..], b"first-block");
        assert_eq!(&back[1].data[..], b"second");
    }
}
