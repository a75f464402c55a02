//! The shuffle: map-output tracking, the sort-based writer, and the
//! batched block fetcher (`ShuffleBlockFetcherIterator`).
//!
//! This module generates exactly the message sequences the paper's Fig. 4
//! walks through: a reduce task resolves block locations from the
//! `MapOutputTracker`, serves local blocks straight from its
//! `BlockManager`, and fetches remote blocks through the
//! `BlockTransferService` with `maxBytesInFlight` batching.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::PortAddr;
use simt::queue::Queue;
use simt::sync::Mutex;

use crate::data::{decode_batch_into, encoded_len, BatchEncoder, Element, BATCH_HEADER_LEN};
use crate::rpc::{AnyMsg, ReplyFn, RpcEndpoint, RpcRef};
use crate::storage::{BlockId, BlockSize, KeptBlock, MapOutput, StoredBlock};
use crate::task::TaskContext;
use crate::transfer::{FetchResult, FetchSink};

/// Shuffle blocks (or their locations) could not be fetched — Spark's
/// `FetchFailedException` as an ordinary value. [`read_shuffle`] returns it,
/// `RddOps::compute` propagates it, the task runner reports it to the driver
/// as `TaskOutput::FetchFailed`, and the scheduler answers with lineage-based
/// recomputation of the lost map outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchFailed {
    /// Shuffle whose blocks were unreachable.
    pub shuffle_id: u32,
    /// Executor that failed to serve them; `None` when the failure was a
    /// map-output *metadata* lookup (tracker unreachable), in which case no
    /// executor is quarantined and the partition is simply retried.
    pub exec_id: Option<usize>,
    /// First map output implicated by the failed block, when known.
    pub map_id: Option<u32>,
}

/// Location and sizes of one map task's output (Spark's `MapStatus`).
#[derive(Debug, Clone)]
pub struct MapStatus {
    /// Map partition that produced the output.
    pub map_id: u32,
    /// Executor holding the blocks.
    pub exec_id: usize,
    /// Address of that executor's shuffle service.
    pub shuffle_addr: PortAddr,
    /// The non-empty reduce partitions, ascending by reduce id, shared with
    /// the stored [`MapOutput`]. A partition with no entry holds no record.
    pub sizes: Arc<[BlockSize]>,
}

/// Tracker request: map statuses for one shuffle.
pub struct GetMapOutputs {
    /// Shuffle of interest.
    pub shuffle_id: u32,
}

/// Tracker reply: the shuffle's table plus the epoch it was read under, so
/// executor caches can order their contents against invalidations.
pub struct MapOutputsReply {
    /// Tracker epoch at read time.
    pub epoch: u64,
    /// The shuffle's map statuses; `None` for a shuffle the driver does not
    /// track (already cleaned), which the asker reports as a metadata
    /// fetch failure, as Spark's `MetadataFetchFailedException`.
    pub table: Option<Arc<ShuffleTable>>,
}

/// A complete shuffle's map statuses, built once by the tracker and shared by
/// every reply and every executor's cache until a slot changes. Besides the
/// statuses it indexes the non-empty blocks reduce-major, so a reduce task
/// reads its own row only.
#[derive(Debug)]
pub struct ShuffleTable {
    /// One status per map partition; `statuses[i].map_id == i`.
    statuses: Vec<MapStatus>,
    /// Row `r` is `entries[rows[r]..rows[r + 1]]`.
    rows: Vec<u32>,
    /// Per non-empty block, by reduce id, then map id: the index of its
    /// status and its virtual bytes.
    entries: Vec<(u32, u64)>,
}

impl ShuffleTable {
    fn new(statuses: Vec<MapStatus>) -> Self {
        let reduces = statuses
            .iter()
            .filter_map(|st| st.sizes.last())
            .map(|b| b.reduce_id as usize + 1)
            .max()
            .unwrap_or(0);
        // Count each row into the slot after it, sum the counts into row
        // starts, then fill each row in map id order from its start.
        let mut rows = vec![0u32; reduces + 1];
        for b in statuses.iter().flat_map(|st| st.sizes.iter()) {
            rows[b.reduce_id as usize + 1] += 1;
        }
        for r in 0..reduces {
            rows[r + 1] += rows[r];
        }
        let mut next = rows.clone();
        let mut entries = vec![(0, 0); rows[reduces] as usize];
        for (i, st) in statuses.iter().enumerate() {
            for b in st.sizes.iter() {
                let slot = &mut next[b.reduce_id as usize];
                entries[*slot as usize] = (i as u32, b.size);
                *slot += 1;
            }
        }
        ShuffleTable { statuses, rows, entries }
    }

    /// The status of map partition `map_id`.
    fn status(&self, map_id: u32) -> Option<&MapStatus> {
        self.statuses.get(map_id as usize)
    }

    /// Bucket `reduce_id`'s non-empty blocks in map id order: the index of
    /// each one's status and its virtual bytes.
    fn row(&self, reduce_id: u32) -> &[(u32, u64)] {
        let r = reduce_id as usize;
        match self.rows.get(r..r + 2) {
            Some(&[start, end]) => &self.entries[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// One shuffle's map slots and, once complete and read, its table.
struct ShuffleSlots {
    slots: Vec<Option<MapStatus>>,
    /// Dropped whenever a slot changes.
    table: Option<Arc<ShuffleTable>>,
}

/// Driver-side map output registry (Spark's `MapOutputTrackerMaster`).
///
/// State is *epoch-versioned*: every loss of map outputs (executor removal)
/// bumps a monotonic epoch. Task launches carry the current epoch, executor
/// caches are keyed by it, and late completions from attempts launched under
/// an older epoch are discarded by the scheduler.
#[derive(Default)]
pub struct MapOutputTrackerMaster {
    outputs: Mutex<BTreeMap<u32, ShuffleSlots>>,
    epoch: AtomicU64,
}

impl MapOutputTrackerMaster {
    /// Prepare a shuffle with `num_maps` slots.
    pub fn register_shuffle(&self, shuffle_id: u32, num_maps: usize) {
        let slots = || ShuffleSlots { slots: vec![None; num_maps], table: None };
        self.outputs.lock().entry(shuffle_id).or_insert_with(slots);
    }

    /// Forget shuffles `ids` (cleaned by the driver): their slots and table.
    pub fn unregister_shuffles(&self, ids: &[u32]) {
        self.outputs.lock().retain(|id, _| !ids.contains(id));
    }

    /// The shuffles registered and not yet cleaned, ascending.
    pub fn shuffle_ids(&self) -> Vec<u32> {
        self.outputs.lock().keys().copied().collect()
    }

    /// Record one finished map task's status.
    pub fn register_map_output(&self, shuffle_id: u32, status: MapStatus) {
        let mut o = self.outputs.lock();
        let shuffle = o.get_mut(&shuffle_id).expect("shuffle registered before outputs");
        let idx = status.map_id as usize;
        shuffle.slots[idx] = Some(status);
        shuffle.table = None;
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advance the epoch after map outputs were lost; returns the new value.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Remove all statuses for an executor (fault injection / recovery);
    /// returns the map ids that must be recomputed per shuffle. Bumps the
    /// epoch when anything was lost.
    pub fn remove_executor(&self, exec_id: usize) -> Vec<(u32, Vec<u32>)> {
        let mut lost = Vec::new();
        for (shuffle, ShuffleSlots { slots, table }) in self.outputs.lock().iter_mut() {
            let mut maps = Vec::new();
            for s in slots.iter_mut() {
                if let Some(st) = s {
                    if st.exec_id == exec_id {
                        maps.push(st.map_id);
                        *s = None;
                    }
                }
            }
            if !maps.is_empty() {
                *table = None;
                lost.push((*shuffle, maps));
            }
        }
        if !lost.is_empty() {
            self.bump_epoch();
        }
        lost
    }

    /// True when every map slot is filled.
    pub fn is_complete(&self, shuffle_id: u32) -> bool {
        self.outputs.lock().get(&shuffle_id).is_some_and(|s| s.slots.iter().all(Option::is_some))
    }

    /// Map ids of `shuffle_id` with no registered output (empty when
    /// complete; all of them right after registration).
    pub fn missing_maps(&self, shuffle_id: u32) -> Vec<u32> {
        let o = self.outputs.lock();
        let slots = &o.get(&shuffle_id).expect("shuffle registered").slots;
        slots.iter().enumerate().filter_map(|(i, s)| s.is_none().then_some(i as u32)).collect()
    }

    /// The shuffle's table: built on the first read after a slot changed,
    /// then shared by every read until the next change. `None` once the
    /// shuffle was cleaned.
    fn table(&self, shuffle_id: u32) -> Option<Arc<ShuffleTable>> {
        let mut o = self.outputs.lock();
        let ShuffleSlots { slots, table } = o.get_mut(&shuffle_id)?;
        let build = || {
            let statuses = slots
                .iter()
                .map(|s| s.clone().expect("all map outputs registered before reads"))
                .collect();
            Arc::new(ShuffleTable::new(statuses))
        };
        Some(table.get_or_insert_with(build).clone())
    }
}

impl RpcEndpoint for MapOutputTrackerMaster {
    fn receive(&self, msg: AnyMsg, reply: Option<ReplyFn>) {
        let Ok(req) = msg.downcast::<GetMapOutputs>() else {
            return;
        };
        if let Some(reply) = reply {
            // Read the epoch before the table: a concurrent bump then yields
            // a stale epoch with a fresh table, which only makes the client
            // re-fetch — never serve stale locations as current.
            let epoch = self.epoch();
            reply(Arc::new(MapOutputsReply { epoch, table: self.table(req.shuffle_id) }));
        }
    }
}

/// One cached map-output table with the epoch it was fetched under.
struct CachedOutputs {
    epoch: u64,
    table: Arc<ShuffleTable>,
}

/// Executor-side tracker client with an epoch-aware per-shuffle cache.
#[derive(Clone)]
pub struct MapOutputClient {
    tracker: RpcRef,
    cache: Arc<Mutex<BTreeMap<u32, CachedOutputs>>>,
    /// Highest epoch this executor has observed (from task launches or
    /// invalidations); cached tables older than it are dropped.
    seen_epoch: Arc<AtomicU64>,
    /// Wait between tracker lookup retries before giving up (virtual ns).
    retry_wait_ns: u64,
}

impl MapOutputClient {
    /// Tracker lookup attempts before the failure surfaces as a
    /// metadata-level [`FetchFailed`].
    const ASK_ATTEMPTS: u32 = 3;

    /// Client talking to the driver's tracker endpoint.
    pub fn new(tracker: RpcRef) -> Self {
        MapOutputClient {
            tracker,
            cache: Arc::default(),
            seen_epoch: Arc::default(),
            retry_wait_ns: simt::time::millis(50),
        }
    }

    /// The table of `shuffle_id` (cached after the first fetch — Spark
    /// executors do the same, which matters because every reduce task on
    /// the executor needs the same table). Entries fetched under an epoch
    /// older than the executor's observed one are refreshed. An unreachable
    /// tracker is retried a few times, then reported as a metadata fetch
    /// failure (`exec_id: None`) so the scheduler retries the partition
    /// without quarantining anyone.
    pub fn get(&self, shuffle_id: u32) -> Result<Arc<ShuffleTable>, FetchFailed> {
        let floor = self.seen_epoch.load(Ordering::SeqCst);
        if let Some(c) = self.cache.lock().get(&shuffle_id) {
            if c.epoch >= floor {
                return Ok(c.table.clone());
            }
        }
        let mut attempt = 0;
        let reply = loop {
            match self.tracker.ask::<MapOutputsReply>(GetMapOutputs { shuffle_id }) {
                Ok(r) => break r,
                Err(_) => {
                    attempt += 1;
                    if attempt >= Self::ASK_ATTEMPTS {
                        return Err(FetchFailed { shuffle_id, exec_id: None, map_id: None });
                    }
                    simt::sleep(self.retry_wait_ns);
                }
            }
        };
        let Some(table) = reply.table.clone() else {
            return Err(FetchFailed { shuffle_id, exec_id: None, map_id: None });
        };
        self.cache
            .lock()
            .insert(shuffle_id, CachedOutputs { epoch: reply.epoch, table: table.clone() });
        Ok(table)
    }

    /// Raise the observed epoch (from a task launch or an invalidation
    /// broadcast); tables cached under older epochs will be re-fetched.
    pub fn observe_epoch(&self, epoch: u64) {
        self.seen_epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Drop a cached table because its locations changed as of `epoch`
    /// (the scheduler's `InvalidateShuffle` broadcast).
    pub fn invalidate_as_of(&self, shuffle_id: u32, epoch: u64) {
        self.observe_epoch(epoch);
        let mut cache = self.cache.lock();
        if cache.get(&shuffle_id).is_some_and(|c| c.epoch < epoch) {
            cache.remove(&shuffle_id);
        }
    }

    /// Drop a cached table unconditionally (local fetch-failure path: the
    /// retry must re-resolve locations whatever the epoch).
    pub fn invalidate(&self, shuffle_id: u32) {
        self.cache.lock().remove(&shuffle_id);
    }

    /// Drop the cached tables of shuffles `ids`, which the driver cleaned.
    pub fn forget(&self, ids: &[u32]) {
        self.cache.lock().retain(|id, _| !ids.contains(id));
    }

    /// The shuffles whose table is cached here, ascending.
    pub fn cached_shuffle_ids(&self) -> Vec<u32> {
        self.cache.lock().keys().copied().collect()
    }
}

// --- shuffle write ---------------------------------------------------------

/// Partition, serialize, and store one map task's output; returns the
/// `MapStatus`. `partition_of` maps each record to its reduce partition, and
/// `value_size` gives the virtual bytes of its value, which each block keeps
/// as [`StoredBlock::value_bytes`]. The records are borrowed: a cached
/// partition is encoded in place.
pub fn write_shuffle<T: Element>(
    ctx: &TaskContext,
    shuffle_id: u32,
    map_id: u32,
    num_reduces: usize,
    records: &[T],
    partition_of: impl Fn(&T) -> usize,
    value_size: impl Fn(&T) -> u64,
) -> MapStatus {
    // Count pass: the batch format leads with its record count, and a writer
    // sized up front never regrows. Fixed-width records (every numeric and
    // `Blob` tuple) make the first record's encoded length exact for all.
    let mut counts = vec![0u32; num_reduces];
    let mut value_bytes = vec![0u64; num_reduces];
    let mut total_bytes = 0u64;
    let bucket_of: Vec<u32> = records
        .iter()
        .map(|r| {
            total_bytes += r.virtual_size();
            let p = partition_of(r);
            debug_assert!(p < num_reduces, "partitioner out of range");
            counts[p] += 1;
            value_bytes[p] += value_size(r);
            p as u32
        })
        .collect();
    // Bucketing + serialization cost (the sort-based writer's write path).
    let n_records = records.len() as u64;
    let cost = ctx.cost();
    ctx.charge(cost.group(n_records, 0) + cost.ser(n_records, total_bytes));

    // Only a bucket with records gets an encoder: an empty one allocates
    // nothing, and its size is the bare record count.
    let width = records.first().map_or(0, encoded_len);
    let mut buckets: Vec<Option<BatchEncoder>> = counts
        .iter()
        .map(|&n| (n > 0).then(|| BatchEncoder::new(n as usize, n as usize * width)))
        .collect();
    for (r, &p) in records.iter().zip(&bucket_of) {
        buckets[p as usize].as_mut().expect("a counted bucket").push(r);
    }
    // Freed first: the frozen blocks below then reuse its pages instead of
    // faulting in fresh ones.
    drop(bucket_of);
    let non_empty = counts.iter().filter(|&&n| n > 0).count();
    let (mut sizes, mut blocks) = (Vec::with_capacity(non_empty), Vec::with_capacity(non_empty));
    for (reduce_id, bucket) in buckets.into_iter().enumerate() {
        if let Some(bucket) = bucket {
            let (data, size) = bucket.finish();
            let records = counts[reduce_id];
            sizes.push(BlockSize { reduce_id: reduce_id as u32, records, size });
            blocks.push(KeptBlock { data, value_bytes: value_bytes[reduce_id] });
        }
    }
    let sizes: Arc<[BlockSize]> = sizes.into();
    let output = MapOutput::new(num_reduces, sizes.clone(), blocks);
    ctx.services.block_manager.put_map_output(shuffle_id, map_id, output);
    MapStatus {
        map_id,
        exec_id: ctx.services.exec_id,
        shuffle_addr: ctx.services.shuffle_addr,
        sizes,
    }
}

// --- shuffle read ----------------------------------------------------------

/// One reduce bucket as it landed, still encoded: its non-empty blocks,
/// local ones first (ascending map id), then remote ones in the order their
/// chunks arrived. A remote block shares the serving map output's bytes.
///
/// The blocks' metadata sizes every post-shuffle charge, so a reduce task
/// charges first and decodes after: the decode, sort and fold that follow
/// never yield, so one task's decoded records are alive at a time.
#[derive(Debug)]
pub struct Landed<T> {
    blocks: Vec<StoredBlock>,
    _records: PhantomData<fn() -> T>,
}

impl<T: Element> Landed<T> {
    /// Records in the bucket.
    pub fn records(&self) -> u64 {
        self.blocks.iter().map(|b| b.records).sum()
    }

    /// Virtual bytes of the records: each block's size less its leading
    /// record count.
    pub fn record_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.virtual_len - BATCH_HEADER_LEN).sum()
    }

    /// Virtual bytes of the records' values ([`StoredBlock::value_bytes`]).
    pub fn value_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.value_bytes).sum()
    }

    /// The records in landing order, every record of a block in the order its
    /// map task wrote it. The output is reserved in full, and each block is
    /// dropped once decoded.
    pub fn decode(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.records() as usize);
        for b in self.blocks {
            decode_batch_into(&b.data, &mut out);
        }
        out
    }
}

/// The shuffle read: fetch reduce bucket `reduce_id` from every map output
/// in *one* batched fetch pass — local blocks directly, remote blocks
/// through the batched fetcher. Returns the bucket's blocks undecoded (none
/// when every map wrote it empty), or the [`FetchFailed`] that names what
/// could not be fetched.
pub fn read_shuffle<T: Element>(
    ctx: &TaskContext,
    shuffle_id: u32,
    reduce_id: u32,
) -> Result<Landed<T>, FetchFailed> {
    let obs = ctx.services.net.obs().clone();
    let _span = obs.is_traced().then(|| {
        obs.span("spark.shuffle.fetch", obs::kv! {"shuffle" => shuffle_id, "reduce" => reduce_id})
    });
    let table = ctx.services.map_outputs.get(shuffle_id)?;
    let conf = &ctx.services.conf;
    let cost = ctx.cost();
    let my_exec = ctx.services.exec_id;
    let bm = ctx.services.block_manager.clone();

    // Requests of up to a fifth of the window, so about five fly at once.
    let plan = plan_fetch(&table, shuffle_id, reduce_id, my_exec, conf.max_bytes_in_flight / 5);
    let mut fetch_wait = 0u64;
    let mut remote_bytes = 0u64;

    // Issue requests keeping at most max_bytes_in_flight outstanding. The
    // accounting is chunk-granular: each arriving chunk immediately frees
    // its bytes from the budget, so follow-on requests depart while the rest
    // of the same request's chunks are still on the wire — exactly Spark's
    // ShuffleBlockFetcherIterator, which releases budget per landed buffer,
    // not per request.
    let results: Queue<FetchResult> = Queue::new();
    let sink = FetchSink::from(results.clone());
    let mut in_flight_bytes = 0u64;
    let mut open_reqs = 0usize;
    let transfer = ctx.services.transfer.clone();
    let mut unsent = plan.requests.iter().peekable();
    // Send requests in order while they fit the in-flight budget; with
    // nothing in flight, the next one departs however large.
    let mut issue = |in_flight_bytes: &mut u64, open_reqs: &mut usize| {
        let max = conf.max_bytes_in_flight;
        while let Some(r) =
            unsent.next_if(|r| *in_flight_bytes == 0 || *in_flight_bytes + r.bytes <= max)
        {
            transfer.fetch_blocks(r.addr, r.blocks.clone(), sink.clone());
            *in_flight_bytes += r.bytes;
            *open_reqs += 1;
        }
    };
    issue(&mut in_flight_bytes, &mut open_reqs);

    // Take local blocks while remote fetches are in flight (Spark reads
    // local blocks first for the same reason), as one CPU job.
    let mut landed: Vec<StoredBlock> =
        plan.local.iter().map(|id| bm.get(*id).expect("local shuffle block present")).collect();
    let local_bytes: u64 = landed.iter().map(|b| b.virtual_len).sum();
    ctx.charge(deser_ns(&cost, &landed));

    while open_reqs > 0 {
        let t0 = simt::now();
        let res = results.recv().expect("fetch sink open");
        fetch_wait += simt::now() - t0;
        let blocks = match res.result {
            Ok(b) => b,
            Err(_e) => {
                // The first failed block names the map output, and the map
                // output's status names the executor that was serving it.
                let map_id = res.blocks.first().and_then(|b| match b {
                    BlockId::Shuffle { map_id, .. } => Some(*map_id),
                    BlockId::Rdd { .. } => None,
                });
                let exec_id = map_id.and_then(|m| table.status(m)).map(|st| st.exec_id);
                // Invalidate the cached map-output table so the retry sees
                // the recomputed locations.
                ctx.services.map_outputs.invalidate(shuffle_id);
                return Err(FetchFailed { shuffle_id, exec_id, map_id });
            }
        };
        if res.last {
            open_reqs -= 1;
        }
        // One CPU job per landed chunk: a merged chunk carries many blocks.
        let freed: u64 = blocks.iter().map(|b| b.virtual_len).sum();
        remote_bytes += freed;
        ctx.charge(deser_ns(&cost, &blocks));
        landed.extend(blocks);
        in_flight_bytes = in_flight_bytes.saturating_sub(freed);
        issue(&mut in_flight_bytes, &mut open_reqs);
    }

    ctx.metrics.counter(obs::keys::TASK_FETCH_WAIT_NS).add(fetch_wait);
    ctx.metrics.counter(obs::keys::TASK_REMOTE_BYTES).add(remote_bytes);
    ctx.metrics.counter(obs::keys::TASK_LOCAL_BYTES).add(local_bytes);
    Ok(Landed { blocks: landed, _records: PhantomData })
}

/// The deserialization charge for `blocks`: the sum of each block's own
/// [`CostModel::deser`](crate::config::CostModel::deser), which truncates
/// per block, so one charge for a batch costs what one charge per block did.
fn deser_ns(cost: &crate::config::CostModel, blocks: &[StoredBlock]) -> u64 {
    blocks.iter().map(|b| cost.deser(b.records, b.virtual_len)).sum()
}

/// One fetch request: a run of one executor's blocks, in map id order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FetchRequest {
    addr: PortAddr,
    blocks: Vec<BlockId>,
    /// The blocks' virtual bytes, as their map statuses report them.
    bytes: u64,
}

/// What one shuffle read fetches: see [`plan_fetch`].
#[derive(Debug, PartialEq, Eq)]
struct FetchPlan {
    /// Blocks this executor serves itself, in map id order.
    local: Vec<BlockId>,
    /// Remote blocks, ordered by serving executor, then by map id.
    requests: Vec<FetchRequest>,
}

/// Plan the read of bucket `reduce_id` by executor `my_exec`: split its
/// blocks into local ones and remote ones, and group each executor's remote
/// blocks into requests of up to `request_target` bytes (Spark's
/// `targetRequestSize` rule in `ShuffleBlockFetcherIterator`). A request
/// exceeds the target only when it holds one block.
///
/// Only the bucket's row of the table is read: a block whose map status
/// lists no records for the bucket is not read at all, as Spark's
/// `MapOutputTracker.convertMapStatuses` drops a size-0 block.
fn plan_fetch(
    table: &ShuffleTable,
    shuffle_id: u32,
    reduce_id: u32,
    my_exec: usize,
    request_target: u64,
) -> FetchPlan {
    let mut local = Vec::new();
    let mut remote: BTreeMap<usize, (PortAddr, Vec<(BlockId, u64)>)> = BTreeMap::new();
    for &(i, size) in table.row(reduce_id) {
        let st = &table.statuses[i as usize];
        let id = BlockId::Shuffle { shuffle_id, map_id: st.map_id, reduce_id };
        if st.exec_id == my_exec {
            local.push(id);
        } else {
            let (_, blocks) =
                remote.entry(st.exec_id).or_insert_with(|| (st.shuffle_addr, Vec::new()));
            blocks.push((id, size));
        }
    }
    let mut requests = Vec::new();
    // BTreeMap iteration is already ordered by executor id — deterministic.
    for (addr, blocks) in remote.into_values() {
        let empty = || FetchRequest { addr, blocks: Vec::new(), bytes: 0 };
        let mut cur = empty();
        for (id, size) in blocks {
            if cur.bytes > 0 && cur.bytes + size > request_target {
                requests.push(std::mem::replace(&mut cur, empty()));
            }
            cur.blocks.push(id);
            cur.bytes += size;
        }
        if !cur.blocks.is_empty() {
            requests.push(cur);
        }
    }
    FetchPlan { local, requests }
}

/// Radix digit width of [`sort_pairs`]: each pass scatters into this many
/// buckets.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Inputs below this many pairs are insertion-sorted: a radix pass zeroes and
/// fills [`BUCKETS`] buckets whatever the input's size, and insertion's
/// quadratic moves overtake that near 256 pairs of `u64` keys.
const INSERTION_MAX: usize = 256;

/// Stably sort `pairs` by key. A small input takes a binary insertion sort,
/// keys that [`Element::rank`] an LSD radix sort over their ranks, and other
/// keys the standard library's stable comparison sort. All three are stable
/// and `rank` preserves order, so the result is the same whichever runs.
pub fn sort_pairs<K: Element + Ord, V>(pairs: &mut Vec<(K, V)>) {
    if pairs.len() < INSERTION_MAX {
        insertion_sort(pairs);
        return;
    }
    // A type ranks all of its values or none, so the first `None` decides.
    match pairs.iter().try_fold(0, |max, (k, _)| Some(k.rank()?.max(max))) {
        Some(max) => radix_sort(pairs, max),
        None => pairs.sort_by(|a, b| a.0.cmp(&b.0)),
    }
}

/// [`sort_pairs`] for a small input: each pair moves in after the last one
/// with a key no greater than its own. Unlike `sort_by`, it allocates nothing
/// and puts no scratch buffer on the stack, which on a task's green-thread
/// stack would keep one more page resident for every stack.
fn insertion_sort<K: Ord, V>(pairs: &mut [(K, V)]) {
    for i in 1..pairs.len() {
        let at = pairs[..i].partition_point(|p| p.0 <= pairs[i].0);
        pairs[at..=i].rotate_right(1);
    }
}

/// The 11-bit digits a rank up to `max` has.
fn radix_passes(max: u64) -> u32 {
    (u64::BITS - max.leading_zeros()).div_ceil(DIGIT_BITS)
}

/// [`sort_pairs`]'s LSD radix sort over ranks no larger than `max`: one pass
/// per digit, each a stable scatter into bucket vectors.
fn radix_sort<K: Element, V>(pairs: &mut Vec<(K, V)>, max: u64) {
    for shift in (0..radix_passes(max)).map(|pass| pass * DIGIT_BITS) {
        let digit = |(k, _): &(K, V)| {
            (k.rank().expect("a type ranks all of its values") >> shift) as usize & (BUCKETS - 1)
        };
        let mut counts = vec![0usize; BUCKETS];
        pairs.iter().for_each(|p| counts[digit(p)] += 1);
        if counts.contains(&pairs.len()) {
            continue; // one digit value: the pass would move nothing
        }
        let mut buckets: Vec<Vec<(K, V)>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        pairs.drain(..).for_each(|p| buckets[digit(&p)].push(p));
        buckets.into_iter().for_each(|bucket| pairs.extend(bucket));
    }
}

/// The one aggregation kernel: fold `pairs` per key. Keys come out ascending;
/// each key's values are folded left to right in arrival order, starting
/// from `create(first value)`. [`sort_pairs`] brings equal keys together (stably,
/// so the groups and every fold's order are the same whichever sort it
/// picks), and the fold then runs
/// over adjacent records: nothing is allocated per key that `create` does
/// not allocate.
pub fn combine_by_key<K: Element + Ord, V, C>(
    pairs: impl IntoIterator<Item = (K, V)>,
    create: impl Fn(V) -> C,
    merge: impl Fn(C, V) -> C,
) -> Vec<(K, C)> {
    let mut pairs: Vec<(K, V)> = pairs.into_iter().collect();
    sort_pairs(&mut pairs);
    let mut out = Vec::new();
    let mut pairs = pairs.into_iter();
    let Some((mut key, first)) = pairs.next() else { return out };
    let mut acc = create(first);
    for (k, v) in pairs {
        if k == key {
            acc = merge(acc, v);
        } else {
            out.push((std::mem::replace(&mut key, k), std::mem::replace(&mut acc, create(v))));
        }
    }
    out.push((key, acc));
    out
}

/// [`combine_by_key`] over a landed bucket, with the hash-aggregation cost
/// charged from the blocks' metadata before a record is decoded (the reduce
/// side of `groupByKey` and `reduceByKey`).
pub fn combine_pairs<K: Element + Ord, V: Element, C>(
    ctx: &TaskContext,
    landed: Landed<(K, V)>,
    create: impl Fn(V) -> C,
    merge: impl Fn(C, V) -> C,
) -> Vec<(K, C)> {
    ctx.charge(ctx.cost().group(landed.records(), landed.value_bytes()));
    combine_by_key(landed.decode(), create, merge)
}

/// Group a landed bucket into `(K, Vec<V>)` ([`combine_pairs`] into vectors).
pub fn group_pairs<K: Element + Ord, V: Element>(
    ctx: &TaskContext,
    landed: Landed<(K, V)>,
) -> Vec<(K, Vec<V>)> {
    // Four slots up front: `vec![v]` reserves one and regrows at the second value.
    let create = |v| {
        let mut group = Vec::with_capacity(4);
        group.push(v);
        group
    };
    combine_pairs(ctx, landed, create, |mut group, v| {
        group.push(v);
        group
    })
}

/// Co-group two keyed inputs ([`combine_by_key`] over both): per key, its
/// `a` values and its `b` values, each in arrival order.
pub fn cogroup_pairs<K: Element + Ord, V, W>(
    a: Vec<(K, V)>,
    b: Vec<(K, W)>,
) -> Vec<(K, (Vec<V>, Vec<W>))> {
    let sides = (a.into_iter().map(|(k, v)| (k, (Some(v), None))))
        .chain(b.into_iter().map(|(k, w)| (k, (None, Some(w)))));
    let merge = |mut group: (Vec<V>, Vec<W>), (v, w): (Option<V>, Option<W>)| {
        group.0.extend(v);
        group.1.extend(w);
        group
    };
    combine_by_key(sides, |side| merge((Vec::new(), Vec::new()), side), merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{for_each_case, SeededRng};

    /// The aggregation [`combine_by_key`] replaced, kept as its oracle: one
    /// `BTreeMap` descent per record, one `Vec` per key.
    fn btree_groups<K: Ord, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
        let mut map: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs {
            map.entry(k).or_default().push(v);
        }
        map.into_iter().collect()
    }

    fn kernel_groups<K: Element + Ord, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
        combine_by_key(
            pairs,
            |v| vec![v],
            |mut group, v| {
                group.push(v);
                group
            },
        )
    }

    /// Up to 300 `(key, arrival index)` pairs in one of five key shapes:
    /// empty input, one key, all keys distinct, one hot key, uniform.
    fn draw_pairs(rng: &mut SeededRng) -> Vec<(u64, u64)> {
        let shape = rng.next_range(0, 5);
        let n = if shape == 0 { 0 } else { rng.next_range(1, 300) };
        (0..n)
            .map(|i| {
                let key = match shape {
                    1 => 7,
                    2 => n - i, // distinct, arriving in descending order
                    3 if rng.next_range(0, 10) < 8 => 0,
                    _ => rng.next_range(0, 40),
                };
                (key, i)
            })
            .collect()
    }

    /// String keys order differently from the numbers they spell.
    fn spelled(pairs: &[(u64, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(k, i)| (format!("key-{k}"), *i)).collect()
    }

    #[test]
    fn combine_by_key_groups_like_the_btree_reference() {
        for_each_case(200, |rng| {
            let pairs = draw_pairs(rng);
            assert_eq!(kernel_groups(pairs.clone()), btree_groups(pairs.clone()));
            assert_eq!(kernel_groups(spelled(&pairs)), btree_groups(spelled(&pairs)));
        });
    }

    #[test]
    fn combine_by_key_folds_left_in_arrival_order() {
        for_each_case(200, |rng| {
            let pairs = draw_pairs(rng);
            // String concatenation is not commutative.
            let words: Vec<(u64, String)> =
                pairs.iter().map(|(k, i)| (*k, format!("{i},"))).collect();
            let concat = |a: String, b: String| a + &b;
            let want: Vec<(u64, String)> = btree_groups(words.clone())
                .into_iter()
                .map(|(k, vs)| (k, vs.into_iter().reduce(concat).expect("non-empty group")))
                .collect();
            assert_eq!(combine_by_key(words, |v| v, concat), want);
            // Nor is an f64 sum associative: the bits depend on the order.
            let reals: Vec<(String, f64)> =
                spelled(&pairs).into_iter().map(|(k, i)| (k, 0.1 * (i as f64 + 1.0))).collect();
            let want: Vec<(String, u64)> = btree_groups(reals.clone())
                .into_iter()
                .map(|(k, vs)| {
                    (k, vs.into_iter().reduce(|a, b| a + b).expect("non-empty").to_bits())
                })
                .collect();
            let got = combine_by_key(reals, |v| v, |a, b| a + b);
            assert_eq!(got.into_iter().map(|(k, v)| (k, v.to_bits())).collect::<Vec<_>>(), want);
        });
    }

    #[test]
    fn combine_by_key_cogroups_like_the_btree_reference() {
        for_each_case(200, |rng| {
            let (a, b) = (draw_pairs(rng), spelled(&draw_pairs(rng)));
            let b: Vec<(u64, String)> = b.into_iter().map(|(k, i)| (i % 13, k)).collect();
            let mut want: BTreeMap<u64, (Vec<u64>, Vec<String>)> = BTreeMap::new();
            for (k, v) in a.clone() {
                want.entry(k).or_default().0.push(v);
            }
            for (k, w) in b.clone() {
                want.entry(k).or_default().1.push(w);
            }
            assert_eq!(cogroup_pairs(a, b), want.into_iter().collect::<Vec<_>>());
        });
    }

    /// Up to 3 000 `(key, arrival index)` pairs: empty input, one pair, or a
    /// count on either side of [`INSERTION_MAX`], with keys mixing `edges`,
    /// eight small values (many duplicates), values below 2^22 (two radix
    /// digits) and values over the whole type. `key` turns 64 random bits
    /// into a key.
    fn draw_ranked<K>(rng: &mut SeededRng, edges: &[K], key: impl Fn(u64) -> K) -> Vec<(K, u64)>
    where
        K: Copy,
    {
        let n = match rng.next_range(0, 5) {
            0 => 0,
            1 => 1,
            2 => rng.next_range(INSERTION_MAX as u64, 3_000),
            _ => rng.next_range(2, INSERTION_MAX as u64),
        };
        (0..n)
            .map(|i| {
                let k = match rng.next_range(0, 4) {
                    0 => edges[rng.next_range(0, edges.len() as u64) as usize],
                    1 => key(rng.next_range(0, 8)),
                    2 => key(rng.next_range(0, 1 << 22)),
                    _ => key(rng.next_u64()),
                };
                (k, i)
            })
            .collect()
    }

    /// The insertion and the radix path of [`sort_pairs`] against the
    /// references, whatever the input's size: each gives the stable order by
    /// key, and a fold over either order gives the BTreeMap's groups.
    fn check_sort_paths<K: Element + Ord + Copy + std::fmt::Debug>(pairs: Vec<(K, u64)>) {
        let ranks: Option<Vec<u64>> = pairs.iter().map(|(k, _)| k.rank()).collect();
        let max = ranks.expect("the key type ranks").into_iter().max().unwrap_or(0);
        let mut want = pairs.clone();
        want.sort_by_key(|a| a.0);
        let groups = btree_groups(pairs.clone());
        let (mut radix, mut inserted) = (pairs.clone(), pairs.clone());
        radix_sort(&mut radix, max);
        insertion_sort(&mut inserted);
        for sorted in [radix, inserted] {
            assert_eq!(sorted, want);
            let mut folded: Vec<(K, Vec<u64>)> = Vec::new();
            for (k, i) in sorted {
                match folded.last_mut() {
                    Some((last, group)) if *last == k => group.push(i),
                    _ => folded.push((k, vec![i])),
                }
            }
            assert_eq!(folded, groups);
        }
        assert_eq!(kernel_groups(pairs), groups);
    }

    #[test]
    fn radix_path_sorts_and_folds_like_sort_by() {
        for_each_case(200, |rng| {
            check_sort_paths(draw_ranked(rng, &[0, 1, 2047, 2048, u64::MAX], |b| b));
            check_sort_paths(draw_ranked(rng, &[0, 1, u32::MAX], |b| b as u32));
            check_sort_paths(draw_ranked(rng, &[i64::MIN, -1, 0, 1, i64::MAX], |b| b as i64));
        });
    }

    /// Map `map_id`'s status on executor `exec`: bucket `r` of each
    /// `(r, n)` in `non_empty` holds `n` records of 8 bytes.
    fn status(map_id: u32, exec: usize, non_empty: &[(u32, u32)]) -> MapStatus {
        let size = |n| 4 + 8 * u64::from(n);
        MapStatus {
            map_id,
            exec_id: exec,
            shuffle_addr: PortAddr { node: exec, port: 1 },
            sizes: non_empty
                .iter()
                .map(|&(reduce_id, records)| BlockSize { reduce_id, records, size: size(records) })
                .collect(),
        }
    }

    /// A map status as it was before statuses went sparse: a size and a
    /// record count for every bucket, empty ones included.
    struct DenseStatus {
        map_id: u32,
        exec_id: usize,
        shuffle_addr: PortAddr,
        sizes: Vec<u64>,
        records: Vec<u64>,
    }

    impl DenseStatus {
        /// The sparse status: the buckets with records only.
        fn sparse(&self) -> MapStatus {
            let sizes = (0..self.records.len())
                .filter(|&r| self.records[r] > 0)
                .map(|r| BlockSize {
                    reduce_id: r as u32,
                    records: self.records[r] as u32,
                    size: self.sizes[r],
                })
                .collect();
            MapStatus {
                map_id: self.map_id,
                exec_id: self.exec_id,
                shuffle_addr: self.shuffle_addr,
                sizes,
            }
        }
    }

    /// The planner the table's rows replaced, kept as their oracle: it scans
    /// every dense status for bucket `reduce_id` and skips the ones with no
    /// records.
    fn dense_plan(
        statuses: &[DenseStatus],
        shuffle_id: u32,
        reduce_id: u32,
        my_exec: usize,
        request_target: u64,
    ) -> FetchPlan {
        let r = reduce_id as usize;
        let mut local = Vec::new();
        let mut remote: BTreeMap<usize, (PortAddr, Vec<(BlockId, u64)>)> = BTreeMap::new();
        for st in statuses.iter().filter(|st| st.records.get(r).is_some_and(|&n| n > 0)) {
            let id = BlockId::Shuffle { shuffle_id, map_id: st.map_id, reduce_id };
            if st.exec_id == my_exec {
                local.push(id);
            } else {
                let (_, blocks) =
                    remote.entry(st.exec_id).or_insert_with(|| (st.shuffle_addr, Vec::new()));
                blocks.push((id, st.sizes[r]));
            }
        }
        let mut requests = Vec::new();
        for (addr, blocks) in remote.into_values() {
            let mut cur = FetchRequest { addr, blocks: Vec::new(), bytes: 0 };
            for (id, size) in blocks {
                if cur.bytes > 0 && cur.bytes + size > request_target {
                    let next = FetchRequest { addr, blocks: Vec::new(), bytes: 0 };
                    requests.push(std::mem::replace(&mut cur, next));
                }
                cur.blocks.push(id);
                cur.bytes += size;
            }
            if !cur.blocks.is_empty() {
                requests.push(cur);
            }
        }
        FetchPlan { local, requests }
    }

    /// Up to 12 map statuses over up to 4 executors and 5 buckets, most
    /// buckets empty (4 bytes: the record count alone), the rest of 1 to 40
    /// records of 1 to 64 bytes, and a request target of 1 to 600 bytes.
    /// Returns the dense statuses, the table of their sparse ones, the
    /// bucket count and the target.
    fn draw_statuses(rng: &mut SeededRng) -> (Vec<DenseStatus>, ShuffleTable, usize, u64) {
        let reduces = rng.next_range(1, 6) as usize;
        let execs = rng.next_range(1, 5) as usize;
        let dense: Vec<DenseStatus> = (0..rng.next_range(0, 13) as u32)
            .map(|map_id| {
                let exec_id = rng.next_range(0, execs as u64) as usize;
                let records: Vec<u64> = (0..reduces)
                    .map(|_| if rng.next_range(0, 3) == 0 { rng.next_range(1, 41) } else { 0 })
                    .collect();
                let width = rng.next_range(1, 65);
                DenseStatus {
                    map_id,
                    exec_id,
                    shuffle_addr: PortAddr { node: exec_id + 1, port: 9 },
                    sizes: records.iter().map(|n| 4 + n * width).collect(),
                    records,
                }
            })
            .collect();
        let table = ShuffleTable::new(dense.iter().map(DenseStatus::sparse).collect());
        (dense, table, reduces, rng.next_range(1, 601))
    }

    #[test]
    fn fetch_plan_from_a_row_equals_the_dense_reference_plan() {
        for_each_case(300, |rng| {
            let (dense, table, reduces, target) = draw_statuses(rng);
            // One bucket past the last: a row no status reaches.
            for r in 0..=reduces as u32 {
                for me in 0..4 {
                    let want = dense_plan(&dense, 3, r, me, target);
                    assert_eq!(
                        plan_fetch(&table, 3, r, me, target),
                        want,
                        "bucket {r}, reader {me}"
                    );
                }
            }
        });
    }

    #[test]
    fn fetch_plan_reads_each_non_empty_block_once_in_executor_then_map_order() {
        for_each_case(300, |rng| {
            let (statuses, table, reduces, target) = draw_statuses(rng);
            let me = rng.next_range(0, 4) as usize;
            for r in 0..reduces {
                let plan = plan_fetch(&table, 3, r as u32, me, target);
                // The status of a planned block, which must be one of bucket `r`.
                let status = |id: &BlockId| match *id {
                    BlockId::Shuffle { shuffle_id: 3, map_id, reduce_id }
                        if reduce_id == r as u32 =>
                    {
                        &statuses[map_id as usize]
                    }
                    _ => panic!("not a block of bucket {r}: {id}"),
                };
                for id in plan.local.iter().chain(plan.requests.iter().flat_map(|q| &q.blocks)) {
                    assert!(status(id).records[r] > 0, "an empty block planned: {id}");
                }
                assert!(plan.local.iter().all(|id| status(id).exec_id == me));
                assert!(plan.local.iter().map(|id| status(id).map_id).is_sorted());
                let mut order = Vec::new();
                for req in &plan.requests {
                    let first = status(req.blocks.first().expect("a request names a block"));
                    assert_ne!(first.exec_id, me, "a remote request to the reader itself");
                    assert_eq!(req.addr, first.shuffle_addr);
                    assert!(
                        req.bytes <= target || req.blocks.len() == 1,
                        "{} bytes in {} blocks over a {target}-byte target",
                        req.bytes,
                        req.blocks.len(),
                    );
                    assert_eq!(req.bytes, req.blocks.iter().map(|id| status(id).sizes[r]).sum());
                    for st in req.blocks.iter().map(status) {
                        assert_eq!(st.exec_id, first.exec_id, "one executor per request");
                        order.push((st.exec_id, st.map_id));
                    }
                }
                assert!(order.is_sorted(), "requests out of executor, map order: {order:?}");
                let mut planned: Vec<u32> = plan.local.iter().map(|id| status(id).map_id).collect();
                planned.extend(order.iter().map(|&(_, m)| m));
                planned.sort_unstable();
                let want: Vec<u32> =
                    statuses.iter().filter(|st| st.records[r] > 0).map(|st| st.map_id).collect();
                assert_eq!(planned, want, "every non-empty block, once");
            }
        });
    }

    #[test]
    fn fetch_plan_for_an_all_empty_bucket_is_empty() {
        for_each_case(100, |rng| {
            let (mut statuses, _, reduces, target) = draw_statuses(rng);
            let r = rng.next_range(0, reduces as u64) as usize;
            for st in &mut statuses {
                (st.sizes[r], st.records[r]) = (4, 0);
            }
            let table = ShuffleTable::new(statuses.iter().map(DenseStatus::sparse).collect());
            let want = FetchPlan { local: Vec::new(), requests: Vec::new() };
            for me in 0..4 {
                assert_eq!(plan_fetch(&table, 3, r as u32, me, target), want);
            }
        });
    }

    #[test]
    fn tracker_registers_and_serves() {
        let t = MapOutputTrackerMaster::default();
        t.register_shuffle(1, 2);
        assert!(!t.is_complete(1));
        t.register_map_output(1, status(0, 0, &[(0, 1), (1, 2)]));
        t.register_map_output(1, status(1, 1, &[(0, 3)]));
        assert!(t.is_complete(1));
        let s = t.table(1).unwrap();
        assert_eq!(s.statuses.len(), 2);
        assert_eq!(s.status(1).unwrap().exec_id, 1);
        assert!(s.status(2).is_none());
        // Bucket 0 lists both maps in map order, bucket 1 map 0 only.
        assert_eq!(
            (s.row(0), s.row(1), s.row(2)),
            (&[(0, 12), (1, 28)][..], &[(0, 20)][..], &[][..])
        );
    }

    #[test]
    fn a_shuffle_table_is_shared_until_a_slot_changes() {
        let t = MapOutputTrackerMaster::default();
        for shuffle in [1, 2] {
            t.register_shuffle(shuffle, 2);
            t.register_map_output(shuffle, status(0, 0, &[(0, 1)]));
            t.register_map_output(shuffle, status(1, shuffle as usize, &[(1, 1)]));
        }
        let table = |id| t.table(id).expect("a registered shuffle");
        let first = table(1);
        assert!(Arc::ptr_eq(&first, &table(1)), "a second read builds no new table");
        // Registering map 1 again, even with the same status, changes a slot.
        t.register_map_output(1, status(1, 1, &[(1, 1)]));
        let second = table(1);
        assert!(!Arc::ptr_eq(&first, &second), "a read after a registration sees a new table");
        assert!(Arc::ptr_eq(&second, &table(1)));
        // Losing executor 1 empties a slot of shuffle 1 only: its table goes,
        // shuffle 2's stays.
        let other = table(2);
        assert_eq!(t.remove_executor(1), vec![(1, vec![1])]);
        assert!(t.outputs.lock()[&1].table.is_none(), "a removal keeps a stale table");
        assert!(Arc::ptr_eq(&other, &table(2)));
        t.register_map_output(1, status(1, 2, &[(1, 1)]));
        let third = table(1);
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(third.status(1).unwrap().exec_id, 2);
    }

    #[test]
    fn a_cleaned_shuffle_is_forgotten() {
        let t = MapOutputTrackerMaster::default();
        for shuffle in [1, 2, 3] {
            t.register_shuffle(shuffle, 1);
            t.register_map_output(shuffle, status(0, 0, &[(0, 1)]));
        }
        assert!(t.table(2).is_some());
        t.unregister_shuffles(&[1, 2]);
        assert_eq!(t.shuffle_ids(), vec![3]);
        assert!(t.table(2).is_none(), "a cleaned shuffle has no table to serve");
        assert!(t.is_complete(3));
    }

    #[test]
    fn remove_executor_clears_its_outputs() {
        let t = MapOutputTrackerMaster::default();
        t.register_shuffle(1, 3);
        t.register_map_output(1, status(0, 0, &[(0, 1)]));
        t.register_map_output(1, status(1, 1, &[(0, 1)]));
        t.register_map_output(1, status(2, 0, &[(0, 1)]));
        let lost = t.remove_executor(0);
        assert_eq!(lost, vec![(1, vec![0, 2])]);
        assert!(!t.is_complete(1));
    }
}
