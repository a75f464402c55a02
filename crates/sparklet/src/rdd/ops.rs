//! Concrete lineage nodes and task runners.

use std::hash::Hash;
use std::sync::Arc;

use crate::aqe::{AdaptiveJobSpec, BucketResults, PlanTask, SlicePartial};
use crate::data::Element;
use crate::rdd::partitioner::Partitioner;
use crate::rdd::{AdaptiveResultOps, RddOps, ShuffleDepMeta, TaskOutput, TaskRunner};
use crate::rpc::AnyMsg;
use crate::shuffle::{cogroup_pairs, read_shuffle, write_shuffle, FetchFailed};
use crate::storage::{BlockId, StoredBlock};
use crate::task::TaskContext;

/// Map-side combine hook (`reduceByKey` aggregation before the write).
pub type MapSideCombine<K, M> = Arc<dyn Fn(&TaskContext, Vec<(K, M)>) -> Vec<(K, M)> + Send + Sync>;

/// Reduce-side post-processing (grouping, reducing, sorting, identity).
pub type PostShuffle<K, M, U> = Arc<dyn Fn(&TaskContext, Vec<(K, M)>) -> Vec<U> + Send + Sync>;

/// Combine per-map-range slice partials (each already post-processed) into
/// one bucket's final records — the cheap second phase of AQE's two-phase
/// aggregation. `None` keeps the operator on the static path under AQE.
pub type MergeFn<U> = Arc<dyn Fn(&TaskContext, Vec<Vec<U>>) -> Vec<U> + Send + Sync>;

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
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Vec<T>, FetchFailed> {
        let v = (self.f)(part);
        let bytes: u64 = v.iter().map(Element::virtual_size).sum();
        ctx.charge(ctx.cost().gen(v.len() as u64, bytes));
        Ok(v)
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        Vec::new()
    }
}

/// Pre-materialized source (`parallelize`).
pub struct ParallelizeRdd<T: Element> {
    /// RDD id.
    pub id: u64,
    /// Records per partition.
    pub data: Arc<Vec<Vec<T>>>,
}

impl<T: Element> RddOps<T> for ParallelizeRdd<T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.data.len()
    }
    fn compute(&self, part: usize, _ctx: &TaskContext) -> Result<Vec<T>, FetchFailed> {
        Ok(self.data[part].clone())
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
    pub f: Arc<dyn Fn(&TaskContext, Vec<U>) -> Vec<T> + Send + Sync>,
}

impl<U: Element, T: Element> RddOps<T> for MapPartitionsRdd<U, T> {
    fn id(&self) -> u64 {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Vec<T>, FetchFailed> {
        let input = self.parent.compute(part, ctx)?;
        Ok((self.f)(ctx, input))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        self.parent.shuffle_deps()
    }
}

/// Caching node: first computation stores the partition in the executor's
/// block manager (typed cache + virtual accounting); later computations hit
/// the cache.
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
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Vec<T>, FetchFailed> {
        let bm = &ctx.services.block_manager;
        let block_id = BlockId::Rdd { rdd_id: self.id, partition: part as u32 };
        if let Some(hit) = bm.cache_get::<T>(self.id, part as u32) {
            // Reading from the in-memory cache: a memory-scan charge, sized
            // by the block stored beside the cached partition.
            let block = bm.get(block_id).expect("a cached partition has its block");
            ctx.charge(ctx.cost().map(block.records, block.virtual_len));
            return Ok(hit.as_ref().clone());
        }
        let data = self.parent.compute(part, ctx)?;
        let bytes: u64 = data.iter().map(Element::virtual_size).sum();
        bm.cache_put(self.id, part as u32, Arc::new(data.clone()));
        bm.put(
            block_id,
            StoredBlock {
                data: bytes::Bytes::new(),
                virtual_len: bytes,
                records: data.len() as u64,
            },
        );
        Ok(data)
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
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Vec<T>, FetchFailed> {
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
            records = combine(ctx, records);
        }
        let partitioner = self.dep.partitioner.clone();
        let status = write_shuffle(
            ctx,
            self.dep.shuffle_id,
            self.part as u32,
            partitioner.num_partitions(),
            records,
            move |(k, _): &(K, M)| partitioner.partition(k),
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
    fn make_map_task(&self, part: usize) -> Arc<dyn TaskRunner> {
        Arc::new(ShuffleMapTask { dep: self_arc(self), part })
    }
    fn upstream(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        self.upstream.clone()
    }
}

/// `ShuffleDepMeta::make_map_task` needs an `Arc<ShuffleDep>`, but trait
/// methods only see `&self`. The deps are always constructed into `Arc`s and
/// registered in lineage nodes; reconstruct a cheap Arc by cloning fields.
fn self_arc<K, M>(dep: &ShuffleDep<K, M>) -> Arc<ShuffleDep<K, M>>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
{
    Arc::new(ShuffleDep {
        shuffle_id: dep.shuffle_id,
        parent: dep.parent.clone(),
        partitioner: dep.partitioner.clone(),
        upstream: dep.upstream.clone(),
        map_side_combine: dep.map_side_combine.clone(),
    })
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
    /// Slice-partial merge for adaptive execution; `None` opts the operator
    /// out of AQE (e.g. cogroup inputs).
    pub merge: Option<MergeFn<U>>,
}

impl<K, M, U> ShuffleReadRdd<K, M, U>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
    U: Element,
{
    /// Cheap `Arc` of self by cloning fields (same pattern as `self_arc`:
    /// trait methods only see `&self`).
    fn arc_clone(&self) -> Arc<Self> {
        Arc::new(ShuffleReadRdd {
            id: self.id,
            dep: self.dep.clone(),
            post: self.post.clone(),
            merge: self.merge.clone(),
        })
    }
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
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Vec<U>, FetchFailed> {
        let mut buckets = read_shuffle::<(K, M)>(ctx, self.dep.shuffle_id, &[part as u32], None)?;
        Ok((self.post)(ctx, buckets.pop().expect("one bucket requested").1))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        vec![self.dep.clone()]
    }
    fn adaptive(&self) -> Option<Arc<dyn AdaptiveResultOps<U>>> {
        self.merge.is_some().then(|| self.arc_clone() as Arc<dyn AdaptiveResultOps<U>>)
    }
}

impl<K, M, U> AdaptiveResultOps<U> for ShuffleReadRdd<K, M, U>
where
    K: Element + Hash + Eq + Ord,
    M: Element,
    U: Element,
{
    fn dep(&self) -> Arc<dyn ShuffleDepMeta> {
        self.dep.clone() as Arc<dyn ShuffleDepMeta>
    }
    fn compute_buckets(
        &self,
        ctx: &TaskContext,
        buckets: &[u32],
    ) -> Result<Vec<(u32, Vec<U>)>, FetchFailed> {
        Ok(read_shuffle::<(K, M)>(ctx, self.dep.shuffle_id, buckets, None)?
            .into_iter()
            .map(|(b, pairs)| (b, (self.post)(ctx, pairs)))
            .collect())
    }
    fn compute_slice(
        &self,
        ctx: &TaskContext,
        bucket: u32,
        map_lo: u32,
        map_hi: u32,
    ) -> Result<Vec<U>, FetchFailed> {
        let mut slices =
            read_shuffle::<(K, M)>(ctx, self.dep.shuffle_id, &[bucket], Some((map_lo, map_hi)))?;
        Ok((self.post)(ctx, slices.pop().expect("one bucket requested").1))
    }
    fn merge(&self, ctx: &TaskContext, partials: Vec<Vec<U>>) -> Vec<U> {
        (self.merge.as_ref().expect("adaptive ops require a merge"))(ctx, partials)
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
    ) -> Result<Vec<(K, (Vec<V>, Vec<W>))>, FetchFailed> {
        let reduce = [part as u32];
        let a = read_shuffle::<(K, V)>(ctx, self.dep_a.shuffle_id, &reduce, None)?
            .pop()
            .expect("one bucket requested")
            .1;
        let b = read_shuffle::<(K, W)>(ctx, self.dep_b.shuffle_id, &reduce, None)?
            .pop()
            .expect("one bucket requested")
            .1;
        ctx.charge(ctx.cost().group((a.len() + b.len()) as u64, 0));
        Ok(cogroup_pairs(a, b))
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>> {
        vec![self.dep_a.clone(), self.dep_b.clone()]
    }
}

// --- result tasks -------------------------------------------------------------

/// Result-stage task: compute the partition and apply the action function.
pub struct ResultTask<T: Element, R: Send + Sync + 'static> {
    /// Lineage to compute.
    pub ops: Arc<dyn RddOps<T>>,
    /// Per-partition action.
    pub f: Arc<dyn Fn(&TaskContext, Vec<T>) -> R + Send + Sync>,
    /// The partition.
    pub part: usize,
}

impl<T: Element, R: Send + Sync + 'static> TaskRunner for ResultTask<T, R> {
    fn run(&self, ctx: &TaskContext) -> TaskOutput {
        let data = match self.ops.compute(self.part, ctx) {
            Ok(data) => data,
            Err(failed) => return TaskOutput::FetchFailed(failed),
        };
        ctx.metrics.counter(obs::keys::TASK_RECORDS_OUT).add(data.len() as u64);
        TaskOutput::Result(Arc::new((self.f)(ctx, data)))
    }
}

// --- adaptive result tasks --------------------------------------------------

/// The typed end of [`AdaptiveJobSpec`]: holds the adaptive shuffle-read ops
/// and the action closure, and stamps them into plan-task runners for the
/// scheduler's type-erased side.
pub struct AdaptiveResultJob<T: Element, R: Send + Sync + 'static> {
    /// Adaptive view of the terminal shuffle read.
    pub ops: Arc<dyn AdaptiveResultOps<T>>,
    /// Per-partition action.
    pub f: Arc<dyn Fn(&TaskContext, Vec<T>) -> R + Send + Sync>,
}

impl<T: Element, R: Send + Sync + 'static> AdaptiveJobSpec for AdaptiveResultJob<T, R> {
    fn dep(&self) -> Arc<dyn ShuffleDepMeta> {
        self.ops.dep()
    }
    fn make_task(&self, task: &PlanTask) -> Arc<dyn TaskRunner> {
        match task {
            PlanTask::Buckets { buckets } => Arc::new(AqeBucketsTask {
                ops: self.ops.clone(),
                f: self.f.clone(),
                buckets: buckets.clone(),
            }),
            PlanTask::Slice { bucket, map_lo, map_hi } => Arc::new(AqeSliceTask {
                ops: self.ops.clone(),
                bucket: *bucket,
                map_lo: *map_lo,
                map_hi: *map_hi,
            }),
        }
    }
    fn make_merge_task(&self, bucket: u32, partials: Vec<AnyMsg>) -> Arc<dyn TaskRunner> {
        Arc::new(AqeMergeTask { ops: self.ops.clone(), f: self.f.clone(), bucket, partials })
    }
}

/// Adaptive task over complete buckets: one fetch pass, then post + action
/// per bucket (preserving the job's per-partition result arity).
struct AqeBucketsTask<T: Element, R: Send + Sync + 'static> {
    ops: Arc<dyn AdaptiveResultOps<T>>,
    f: Arc<dyn Fn(&TaskContext, Vec<T>) -> R + Send + Sync>,
    buckets: Vec<u32>,
}

impl<T: Element, R: Send + Sync + 'static> TaskRunner for AqeBucketsTask<T, R> {
    fn run(&self, ctx: &TaskContext) -> TaskOutput {
        let computed = match self.ops.compute_buckets(ctx, &self.buckets) {
            Ok(computed) => computed,
            Err(failed) => return TaskOutput::FetchFailed(failed),
        };
        let mut out = Vec::with_capacity(self.buckets.len());
        for (bucket, data) in computed {
            ctx.metrics.counter(obs::keys::TASK_RECORDS_OUT).add(data.len() as u64);
            out.push((bucket, Arc::new((self.f)(ctx, data)) as AnyMsg));
        }
        TaskOutput::Result(Arc::new(BucketResults(out)))
    }
}

/// Adaptive task over one map-range slice of a split bucket: fetch + post
/// only (the salted pre-aggregate); the action runs in the merge task.
struct AqeSliceTask<T: Element> {
    ops: Arc<dyn AdaptiveResultOps<T>>,
    bucket: u32,
    map_lo: u32,
    map_hi: u32,
}

impl<T: Element> TaskRunner for AqeSliceTask<T> {
    fn run(&self, ctx: &TaskContext) -> TaskOutput {
        let data = match self.ops.compute_slice(ctx, self.bucket, self.map_lo, self.map_hi) {
            Ok(data) => data,
            Err(failed) => return TaskOutput::FetchFailed(failed),
        };
        ctx.metrics.counter(obs::keys::TASK_RECORDS_OUT).add(data.len() as u64);
        TaskOutput::Result(Arc::new(SlicePartial {
            bucket: self.bucket,
            map_lo: self.map_lo,
            data: Arc::new(data) as AnyMsg,
        }))
    }
}

/// Final merge of one split bucket's slice partials, then the action.
struct AqeMergeTask<T: Element, R: Send + Sync + 'static> {
    ops: Arc<dyn AdaptiveResultOps<T>>,
    f: Arc<dyn Fn(&TaskContext, Vec<T>) -> R + Send + Sync>,
    bucket: u32,
    /// Type-erased `Vec<T>` partials in ascending map-range order.
    partials: Vec<AnyMsg>,
}

impl<T: Element, R: Send + Sync + 'static> TaskRunner for AqeMergeTask<T, R> {
    fn run(&self, ctx: &TaskContext) -> TaskOutput {
        let partials: Vec<Vec<T>> = self
            .partials
            .iter()
            .map(|p| p.clone().downcast::<Vec<T>>().expect("slice partial type").as_ref().clone())
            .collect();
        let data = self.ops.merge(ctx, partials);
        ctx.metrics.counter(obs::keys::TASK_RECORDS_OUT).add(data.len() as u64);
        TaskOutput::Result(Arc::new(BucketResults(vec![(
            self.bucket,
            Arc::new((self.f)(ctx, data)) as AnyMsg,
        )])))
    }
}
