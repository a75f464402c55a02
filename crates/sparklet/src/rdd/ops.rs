//! Concrete lineage nodes and task runners.

use std::hash::Hash;
use std::sync::Arc;

use crate::data::Element;
use crate::rdd::partitioner::Partitioner;
use crate::rdd::{Action, Part, RddOps, ShuffleDepMeta, TaskOutput, TaskRunner};
use crate::scheduler::DroppedShuffles;
use crate::shuffle::{cogroup_pairs, read_shuffle, write_shuffle, FetchFailed, Landed};
use crate::storage::{BlockId, StoredBlock};
use crate::task::TaskContext;

/// Map-side combine hook (`reduceByKey` aggregation before the write).
pub type MapSideCombine<K, M> = Arc<dyn Fn(&TaskContext, Vec<(K, M)>) -> Vec<(K, M)> + Send + Sync>;

/// Reduce-side post-processing (grouping, reducing, sorting, identity) of
/// the landed bucket: it charges from the blocks' metadata, then decodes.
pub type PostShuffle<K, M, U> = Arc<dyn Fn(&TaskContext, Landed<(K, M)>) -> Vec<U> + Send + Sync>;

// --- sources ---------------------------------------------------------------

/// Lazily generated source (workload datagen). Generation cost is charged
/// from the produced records' virtual sizes.
pub struct GenerateRdd<T: Element> {
    /// RDD id.
    pub id: u64,
    /// Partition count.
    pub parts: usize,
    /// Generator.
    pub f: Arc<dyn Fn(usize) -> Vec<T> + Send + Sync>,
}

impl<T: Element> RddOps<T> for GenerateRdd<T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parts
    }
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Part<T>, FetchFailed> {
        let v = (self.f)(part);
        let bytes: u64 = v.iter().map(Element::virtual_size).sum();
        ctx.charge(ctx.cost().gen(v.len() as u64, bytes));
        Ok(Part::Owned(v))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        Vec::new()
    }
}

/// Pre-materialized source (`parallelize`).
pub struct ParallelizeRdd<T: Element> {
    /// RDD id.
    pub id: u64,
    /// Records per partition, shared with every task that reads them.
    pub data: Vec<Arc<Vec<T>>>,
}

impl<T: Element> RddOps<T> for ParallelizeRdd<T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.data.len()
    }
    fn compute(&self, part: usize, _ctx: &TaskContext) -> Result<Part<T>, FetchFailed> {
        Ok(Part::Shared(self.data[part].clone()))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        Vec::new()
    }
}

// --- narrow ------------------------------------------------------------------

/// Whole-partition transformation node.
pub struct MapPartitionsRdd<U: Element, T: Element> {
    /// RDD id.
    pub id: u64,
    /// Upstream node.
    pub parent: Arc<dyn RddOps<U>>,
    /// The transformation.
    pub f: Arc<dyn Fn(&TaskContext, Part<U>) -> Vec<T> + Send + Sync>,
}

impl<U: Element, T: Element> RddOps<T> for MapPartitionsRdd<U, T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Part<T>, FetchFailed> {
        let input = self.parent.compute(part, ctx)?;
        Ok(Part::Owned((self.f)(ctx, input)))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        self.parent.shuffle_deps()
    }
}

/// Caching node: first computation stores the partition in the executor's
/// block manager (typed cache + virtual accounting); later computations hit
/// the cache. Every computation shares the one stored vector.
pub struct CachedRdd<T: Element> {
    /// RDD id (cache key).
    pub id: u64,
    /// Upstream node.
    pub parent: Arc<dyn RddOps<T>>,
}

impl<T: Element> RddOps<T> for CachedRdd<T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Part<T>, FetchFailed> {
        let bm = &ctx.services.block_manager;
        let block_id = BlockId::Rdd { rdd_id: self.id, partition: part as u32 };
        if let Some(hit) = bm.cache_get::<T>(self.id, part as u32) {
            // Reading from the in-memory cache: a memory-scan charge, sized
            // by the block stored beside the cached partition.
            let block = bm.get(block_id).expect("a cached partition has its block");
            ctx.charge(ctx.cost().map(block.records, block.virtual_len));
            return Ok(Part::Shared(hit));
        }
        let data = Arc::new(self.parent.compute(part, ctx)?.into_vec());
        let bytes: u64 = data.iter().map(Element::virtual_size).sum();
        bm.cache_put(self.id, part as u32, data.clone());
        bm.put_rdd(
            self.id,
            part as u32,
            StoredBlock {
                data: bytes::Bytes::new(),
                virtual_len: bytes,
                records: data.len() as u64,
                value_bytes: 0,
            },
        );
        Ok(Part::Shared(data))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        self.parent.shuffle_deps()
    }
}

/// Concatenation node: partition `i` comes from the parent owning it.
pub struct UnionRdd<T: Element> {
    /// RDD id.
    pub id: u64,
    /// Parents, concatenated in order.
    pub parents: Vec<Arc<dyn RddOps<T>>>,
}

impl<T: Element> RddOps<T> for UnionRdd<T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parents.iter().map(|p| p.num_partitions()).sum()
    }
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Part<T>, FetchFailed> {
        let mut offset = part;
        for parent in &self.parents {
            if offset < parent.num_partitions() {
                return parent.compute(offset, ctx);
            }
            offset -= parent.num_partitions();
        }
        panic!("union partition {part} out of range");
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        self.parents.iter().flat_map(|p| p.shuffle_deps()).collect()
    }
}

// --- wide -----------------------------------------------------------------

/// A shuffle dependency: map-side records `(K, M)` partitioned by `K`.
pub struct ShuffleDep<K, M>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
{
    /// The shuffle's id.
    pub shuffle_id: u32,
    /// Map-side lineage.
    pub parent: Arc<dyn RddOps<(K, M)>>,
    /// Reduce partitioning.
    pub partitioner: Arc<dyn Partitioner<K>>,
    /// Upstream shuffle stages (already topologically ordered).
    pub upstream: Vec<Arc<dyn ShuffleDepMeta>>,
    /// Optional map-side combine.
    pub map_side_combine: Option<MapSideCombine<K, M>>,
    /// Where the last handle's drop reports the shuffle for cleanup (the
    /// scheduler's list; a dependency built outside an application may
    /// report to a list of its own).
    pub dropped: Arc<DroppedShuffles>,
}

impl<K, M> Drop for ShuffleDep<K, M>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
{
    /// Nothing can read the shuffle any more: hand it to the driver's
    /// cleanup, which runs when the next job starts.
    fn drop(&mut self) {
        self.dropped.push(self.shuffle_id);
    }
}

/// Map task for one `ShuffleDep` partition.
struct ShuffleMapTask<K, M>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
{
    dep: Arc<ShuffleDep<K, M>>,
    part: usize,
}

impl<K, M> TaskRunner for ShuffleMapTask<K, M>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
{
    fn run(&self, ctx: &TaskContext) -> TaskOutput {
        let mut records = match self.dep.parent.compute(self.part, ctx) {
            Ok(records) => records,
            Err(failed) => return TaskOutput::FetchFailed(failed),
        };
        if let Some(combine) = &self.dep.map_side_combine {
            records = Part::Owned(combine(ctx, records.into_vec()));
        }
        let partitioner = self.dep.partitioner.clone();
        let status = write_shuffle(
            ctx,
            self.dep.shuffle_id,
            self.part as u32,
            partitioner.num_partitions(),
            &records,
            move |(k, _): &(K, M)| partitioner.partition(k),
            |(_, m): &(K, M)| m.virtual_size(),
        );
        TaskOutput::Map(status)
    }
}

impl<K, M> ShuffleDepMeta for ShuffleDep<K, M>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
{
    fn shuffle_id(&self) -> u32 {
        self.shuffle_id
    }
    fn num_maps(&self) -> usize {
        self.parent.num_partitions()
    }
    fn num_reduces(&self) -> usize {
        self.partitioner.num_partitions()
    }
    fn make_map_task(self: Arc<Self>, part: usize) -> Arc<dyn TaskRunner> {
        Arc::new(ShuffleMapTask { dep: self, part })
    }
    fn upstream(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        self.upstream.clone()
    }
}

/// Reduce-side node: reads the shuffle and applies `post`.
pub struct ShuffleReadRdd<K, M, U>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
    U: Element,
{
    /// RDD id.
    pub id: u64,
    /// The dependency read from.
    pub dep: Arc<ShuffleDep<K, M>>,
    /// Reduce-side processing.
    pub post: PostShuffle<K, M, U>,
}

impl<K, M, U> RddOps<U> for ShuffleReadRdd<K, M, U>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
    U: Element,
{
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.dep.partitioner.num_partitions()
    }
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Part<U>, FetchFailed> {
        let landed = read_shuffle::<(K, M)>(ctx, self.dep.shuffle_id, part as u32)?;
        Ok(Part::Owned((self.post)(ctx, landed)))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        vec![self.dep.clone()]
    }
}

/// Two-input co-group node.
pub struct CoGroupRdd<K, V, W>
where
    K: Element + Hash + Eq + Ord,
    V: Element,
    W: Element,
{
    /// RDD id.
    pub id: u64,
    /// Left dependency.
    pub dep_a: Arc<ShuffleDep<K, V>>,
    /// Right dependency.
    pub dep_b: Arc<ShuffleDep<K, W>>,
}

impl<K, V, W> RddOps<(K, (Vec<V>, Vec<W>))> for CoGroupRdd<K, V, W>
where
    K: Element + Hash + Eq + Ord,
    V: Element,
    W: Element,
{
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.dep_a.partitioner.num_partitions()
    }
    fn compute(
        &self,
        part: usize,
        ctx: &TaskContext,
    ) -> Result<Part<(K, (Vec<V>, Vec<W>))>, FetchFailed> {
        let a = read_shuffle::<(K, V)>(ctx, self.dep_a.shuffle_id, part as u32)?;
        let b = read_shuffle::<(K, W)>(ctx, self.dep_b.shuffle_id, part as u32)?;
        ctx.charge(ctx.cost().group(a.records() + b.records(), 0));
        Ok(Part::Owned(cogroup_pairs(a.decode(), b.decode())))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        vec![self.dep_a.clone(), self.dep_b.clone()]
    }
}

// --- result tasks -------------------------------------------------------------

/// Result-stage task: compute the partition and apply the action function.
pub struct ResultTask<T: Element> {
    /// Lineage to compute.
    pub ops: Arc<dyn RddOps<T>>,
    /// Per-partition action.
    pub f: Action<T>,
    /// The partition.
    pub part: usize,
}

impl<T: Element> TaskRunner for ResultTask<T> {
    fn run(&self, ctx: &TaskContext) -> TaskOutput {
        let data = match self.ops.compute(self.part, ctx) {
            Ok(data) => data,
            Err(failed) => return TaskOutput::FetchFailed(failed),
        };
        ctx.metrics.counter(obs::keys::TASK_RECORDS_OUT).add(data.len() as u64);
        TaskOutput::Result((self.f)(ctx, data))
    }
}
