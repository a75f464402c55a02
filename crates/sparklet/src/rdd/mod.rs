//! Typed RDDs: lineage construction, transformations, and actions.
//!
//! An [`Rdd<T>`] wraps a lineage node; transformations build new nodes and
//! actions hand a [`JobSpec`] — topologically ordered shuffle stages plus
//! result tasks — to the scheduler. Tasks travel as `Arc`ed closures rather
//! than serialized bytecode (simulation shortcut, `DESIGN.md`).

pub mod ops;
pub mod partitioner;

use std::collections::BTreeSet;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use simt::sync::Mutex;

use crate::config::SparkConf;
use crate::data::Element;
use crate::partial::{
    ApproximateEvaluator, AsF64, BoundedDouble, CountEvaluator, ErasedEvaluator,
    GroupedCountEvaluator, MeanEvaluator, PartialResult, Stat, SumEvaluator, DEFAULT_CONFIDENCE,
};
use crate::rpc::AnyMsg;
use crate::scheduler::DagScheduler;
use crate::shuffle::{combine_by_key, combine_pairs, group_pairs, FetchFailed, MapStatus};
use crate::task::TaskContext;

use ops::*;
use partitioner::{HashPartitioner, Partitioner, RangePartitioner};

/// What a task hands back to the driver.
pub enum TaskOutput {
    /// A map task's output registration.
    Map(MapStatus),
    /// A result task's partition result.
    Result(AnyMsg),
    /// The task could not fetch shuffle blocks (Spark's
    /// `FetchFailedException`); the scheduler recomputes the lost map
    /// outputs via lineage and retries.
    FetchFailed(FetchFailed),
}

/// A schedulable unit of work.
pub trait TaskRunner: Send + Sync + 'static {
    /// Execute against `ctx`.
    fn run(&self, ctx: &TaskContext) -> TaskOutput;
}

/// Type-erased shuffle dependency: everything the DAG scheduler needs to
/// build and run the corresponding `ShuffleMapStage`.
pub trait ShuffleDepMeta: Send + Sync + 'static {
    /// The shuffle's id.
    fn shuffle_id(&self) -> u32;
    /// Number of map tasks (parent partitions).
    fn num_maps(&self) -> usize;
    /// Number of reduce partitions.
    fn num_reduces(&self) -> usize;
    /// Build the map task for `part`.
    fn make_map_task(self: Arc<Self>, part: usize) -> Arc<dyn TaskRunner>;
    /// Shuffle dependencies of the map-side lineage.
    fn upstream(&self) -> Vec<Arc<dyn ShuffleDepMeta>>;
}

/// One partition's records: built by the task that holds them, or shared
/// with the executor's cache (or a `parallelize` source). Reading borrows;
/// only [`Part::into_vec`] of a still-shared vector copies.
pub enum Part<T> {
    /// Records this task built.
    Owned(Vec<T>),
    /// Records another holder keeps too.
    Shared(Arc<Vec<T>>),
}

impl<T> Deref for Part<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Part::Owned(v) => v,
            Part::Shared(v) => v,
        }
    }
}

impl<T: Clone> Part<T> {
    /// The records as a vector: moved when owned or no longer shared,
    /// cloned only while another holder keeps them.
    pub fn into_vec(self) -> Vec<T> {
        match self {
            Part::Owned(v) => v,
            Part::Shared(v) => Arc::unwrap_or_clone(v),
        }
    }
}

/// A job's per-partition action, its result erased to the scheduler's
/// [`AnyMsg`] once, at submission.
pub type Action<T> = Arc<dyn Fn(&TaskContext, Part<T>) -> AnyMsg + Send + Sync>;

/// A job handed to the scheduler.
pub struct JobSpec {
    /// Shuffle stages to ensure computed, parents before children.
    pub shuffle_stages: Vec<Arc<dyn ShuffleDepMeta>>,
    /// One result task per partition, in partition order.
    pub result_tasks: Vec<Arc<dyn TaskRunner>>,
    /// Adaptive alternative to `result_tasks`, present when AQE is enabled
    /// and the terminal node is a shuffle read with a merge; the scheduler
    /// then plans the reduce side from map-output sizes instead of running
    /// `result_tasks`, and returns the same per-partition results.
    pub adaptive: Option<Arc<dyn crate::aqe::AdaptiveJobSpec>>,
    /// Human-readable description (`count`, `collect`, ...).
    pub action: String,
}

/// Per-job submission options — the one seam where an action attaches
/// approximate-evaluation state. [`JobOptions::default`] is the exact path:
/// no evaluator, no deadline, semantics identical to the pre-`JobHandle`
/// engine.
#[derive(Default)]
pub struct JobOptions {
    /// Folds result partitions as they complete; the source of
    /// [`JobHandle::poll`] / [`JobOutcome::partial`] answers.
    pub evaluator: Option<Box<dyn ErasedEvaluator>>,
    /// Virtual-clock budget from submission; when it expires before the
    /// job completes, the scheduler abandons the remaining work and the
    /// outcome carries the evaluator's best answer instead of exact results.
    pub timeout_ns: Option<u64>,
}

impl JobOptions {
    /// True when this submission rides the partial path (an evaluator or a
    /// deadline is attached) — the `spark.partial_*` counters only move for
    /// such jobs, keeping exact runs bit-identical to the pre-partial engine.
    pub fn is_partial(&self) -> bool {
        self.evaluator.is_some() || self.timeout_ns.is_some()
    }
}

/// Shared state of one submitted job, visible to both the scheduler (which
/// folds completions into it) and the driver's [`JobHandle`].
pub struct JobState {
    total: usize,
    partial: bool,
    /// Virtual instant the job expires at: submission plus
    /// [`JobOptions::timeout_ns`].
    pub(crate) deadline_ns: Option<u64>,
    eval: Mutex<Option<Box<dyn ErasedEvaluator>>>,
    seen: AtomicUsize,
    done: simt::sync::OnceCell<Option<Vec<AnyMsg>>>,
}

impl JobState {
    /// State of a job submitted now.
    pub(crate) fn new(total: usize, opts: JobOptions) -> Arc<JobState> {
        Arc::new(JobState {
            total,
            partial: opts.is_partial(),
            deadline_ns: opts.timeout_ns.map(|t| simt::now().saturating_add(t)),
            eval: Mutex::new(opts.evaluator),
            seen: AtomicUsize::new(0),
            done: simt::sync::OnceCell::new(),
        })
    }

    /// Fold one completed result partition. Called by the scheduler exactly
    /// once per result partition, in virtual completion order (first-finish
    /// dedup upstream); pure host arithmetic, charges no virtual time.
    pub(crate) fn observe(&self, part: usize, result: &AnyMsg, obs: &obs::Obs) {
        if let Some(eval) = self.eval.lock().as_mut() {
            eval.fold(part, result);
        }
        self.seen.fetch_add(1, Ordering::SeqCst);
        if self.partial {
            obs.registry().counter(obs::keys::SPARK_PARTIAL_PARTITIONS_SEEN).inc();
        }
    }

    /// Publish the job's terminal state: `Some(results)` on completion,
    /// `None` when the deadline cut it short.
    pub(crate) fn complete(&self, results: Option<Vec<AnyMsg>>) {
        self.done.put(results);
    }

    fn current<R: Clone + Send + Sync + 'static>(&self) -> Option<PartialResult<R>> {
        let guard = self.eval.lock();
        let eval = guard.as_ref()?;
        let seen = self.seen.load(Ordering::SeqCst);
        let msg = eval.current(seen, self.total);
        let value = msg.downcast_ref::<R>().expect("evaluator output type").clone();
        Some(PartialResult {
            value,
            partitions_seen: seen,
            total_partitions: self.total,
            is_final: seen >= self.total,
        })
    }
}

/// A submitted job. Await it with [`wait`](JobHandle::wait), or observe it
/// while it runs: [`poll`](JobHandle::poll) reads the evaluator's running
/// answer and its progress. The handle does not cancel on drop — an
/// abandoned job runs to completion (or to its deadline).
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    pub(crate) fn new(state: Arc<JobState>) -> JobHandle {
        JobHandle { state }
    }

    /// Block (in virtual time) until the job completes or its deadline
    /// fires, whichever comes first.
    pub fn wait(self) -> JobOutcome {
        let results = self.state.done.take();
        JobOutcome { state: self.state, results }
    }

    /// The evaluator's answer over the partitions folded so far. `None`
    /// when the job was submitted without an evaluator.
    pub fn poll<R: Clone + Send + Sync + 'static>(&self) -> Option<PartialResult<R>> {
        self.state.current::<R>()
    }

    /// True once the job reached a terminal state (completed or expired).
    pub fn is_complete(&self) -> bool {
        self.state.done.is_ready()
    }
}

/// Terminal state of a job: exact per-partition results when it ran to
/// completion, or the evaluator's best partial answer when the deadline
/// fired first.
pub struct JobOutcome {
    state: Arc<JobState>,
    results: Option<Vec<AnyMsg>>,
}

impl JobOutcome {
    /// Unwrap exact results — the path every blocking action takes (no
    /// deadline attached, so completion is the only terminal state).
    pub fn into_results(self) -> Vec<AnyMsg> {
        self.results.expect("job ran to completion (no deadline attached)")
    }

    /// The evaluator's answer — exact when the job completed, a confidence
    /// interval over `{partitions_seen, total}` when the deadline fired.
    pub fn partial<R: Clone + Send + Sync + 'static>(&self) -> PartialResult<R> {
        self.state.current::<R>().expect("approximate job submitted with an evaluator")
    }
}

/// Application-level shared state: id generators, configuration, and the
/// scheduler (held by every RDD so actions can submit jobs).
pub struct AppCore {
    /// Engine configuration.
    pub conf: SparkConf,
    /// Default partition count (total cores, as the paper configures).
    pub default_parallelism: usize,
    next_rdd: AtomicU64,
    next_shuffle: AtomicU32,
    sched: Arc<DagScheduler>,
}

impl AppCore {
    /// New application state.
    pub fn new(conf: SparkConf, default_parallelism: usize, sched: Arc<DagScheduler>) -> Arc<Self> {
        Arc::new(AppCore {
            conf,
            default_parallelism,
            next_rdd: AtomicU64::new(1),
            next_shuffle: AtomicU32::new(0),
            sched,
        })
    }

    pub(crate) fn new_rdd_id(&self) -> u64 {
        self.next_rdd.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn new_shuffle_id(&self) -> u32 {
        self.next_shuffle.fetch_add(1, Ordering::Relaxed)
    }
}

/// Lineage node interface.
pub trait RddOps<T: Element>: Send + Sync + 'static {
    /// Unique RDD id.
    fn id(&self) -> u64;
    /// Partition count.
    fn num_partitions(&self) -> usize;
    /// Materialize partition `part`, or report the shuffle fetch that
    /// failed somewhere in its lineage.
    fn compute(&self, part: usize, ctx: &TaskContext) -> Result<Part<T>, FetchFailed>;
    /// Direct shuffle dependencies.
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepMeta>>;
    /// The adaptive job running `f` over this node, when it is a shuffle
    /// read that supports plan-driven execution (coalesce/split). `None`
    /// (the default) keeps the job on the static path.
    fn adaptive(self: Arc<Self>, _f: Action<T>) -> Option<Arc<dyn crate::aqe::AdaptiveJobSpec>> {
        None
    }
}

/// A resilient distributed dataset of `T` records.
pub struct Rdd<T: Element> {
    pub(crate) core: Arc<AppCore>,
    pub(crate) ops: Arc<dyn RddOps<T>>,
}

impl<T: Element> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd { core: self.core.clone(), ops: self.ops.clone() }
    }
}

/// Collect the transitive shuffle dependencies, parents first, deduplicated.
pub fn topo_shuffle_deps(direct: Vec<Arc<dyn ShuffleDepMeta>>) -> Vec<Arc<dyn ShuffleDepMeta>> {
    fn visit(
        dep: Arc<dyn ShuffleDepMeta>,
        seen: &mut BTreeSet<u32>,
        out: &mut Vec<Arc<dyn ShuffleDepMeta>>,
    ) {
        if !seen.insert(dep.shuffle_id()) {
            return;
        }
        for up in dep.upstream() {
            visit(up, seen, out);
        }
        out.push(dep);
    }
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for d in direct {
        visit(d, &mut seen, &mut out);
    }
    out
}

impl<T: Element> Rdd<T> {
    /// This RDD's id.
    pub fn id(&self) -> u64 {
        self.ops.id()
    }

    /// Partition count.
    pub fn num_partitions(&self) -> usize {
        self.ops.num_partitions()
    }

    // --- narrow transformations -----------------------------------------

    /// Element-wise transformation.
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let f = Arc::new(f);
        self.map_partitions(move |ctx: &TaskContext, v: Part<T>| {
            let n = v.len() as u64;
            let bytes: u64 = v.iter().map(Element::virtual_size).sum();
            ctx.charge(ctx.cost().map(n, bytes));
            v.iter().map(|x| f(x.clone())).collect()
        })
    }

    /// Element-wise one-to-many transformation.
    pub fn flat_map<U: Element>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        let f = Arc::new(f);
        self.map_partitions(move |ctx: &TaskContext, v: Part<T>| {
            let n = v.len() as u64;
            let bytes: u64 = v.iter().map(Element::virtual_size).sum();
            ctx.charge(ctx.cost().map(n, bytes));
            v.iter().flat_map(|x| f(x.clone())).collect()
        })
    }

    /// Keep records satisfying `f`.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let f = Arc::new(f);
        self.map_partitions(move |ctx: &TaskContext, v: Part<T>| {
            ctx.charge(ctx.cost().map(v.len() as u64, 0));
            v.iter().filter(|x| f(x)).cloned().collect()
        })
    }

    /// Whole-partition transformation; `f` is responsible for charging its
    /// own compute (the element-wise wrappers above charge the map cost).
    /// `f` borrows its input; [`Part::into_vec`] takes ownership.
    pub fn map_partitions<U: Element>(
        &self,
        f: impl Fn(&TaskContext, Part<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(MapPartitionsRdd {
                id: self.core.new_rdd_id(),
                parent: self.ops.clone(),
                f: Arc::new(f),
            }),
        }
    }

    /// Mark for caching: the first computation of each partition stores it
    /// in the executor's block manager; later jobs reuse it (`Rdd.cache()`).
    pub fn cache(&self) -> Rdd<T> {
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(CachedRdd { id: self.core.new_rdd_id(), parent: self.ops.clone() }),
        }
    }

    /// Concatenate with `other`: partitions of `self` first, then `other`'s
    /// (a narrow dependency; no shuffle).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(UnionRdd {
                id: self.core.new_rdd_id(),
                parents: vec![self.ops.clone(), other.ops.clone()],
            }),
        }
    }

    /// Deterministic Bernoulli sample of roughly `fraction` of the records.
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<T> {
        assert!((0.0..=1.0).contains(&fraction));
        let threshold = (fraction * u64::MAX as f64) as u64;
        self.map_partitions(move |ctx, v| {
            ctx.charge(ctx.cost().map(v.len() as u64, 0));
            let mut state = seed ^ (ctx.partition as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            v.iter()
                .filter(|_| {
                    // SplitMix64 step: cheap, deterministic, well mixed.
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z ^ (z >> 31)) < threshold
                })
                .cloned()
                .collect()
        })
    }

    // --- actions ----------------------------------------------------------

    /// Submit a job running `f` over every partition's records — **the**
    /// job-submission seam. Every action (blocking or approximate) funnels
    /// through here; blocking actions pass `JobOptions::default()` and wait,
    /// approximate actions attach an evaluator and a deadline.
    pub fn submit_job<R: Send + Sync + 'static>(
        &self,
        action: &str,
        f: impl Fn(&TaskContext, Part<T>) -> R + Send + Sync + 'static,
        opts: JobOptions,
    ) -> JobHandle {
        let f: Action<T> = Arc::new(move |ctx, v| Arc::new(f(ctx, v)) as AnyMsg);
        let result_tasks: Vec<Arc<dyn TaskRunner>> = (0..self.num_partitions())
            .map(|p| {
                Arc::new(ResultTask { ops: self.ops.clone(), f: f.clone(), part: p })
                    as Arc<dyn TaskRunner>
            })
            .collect();
        // With AQE on and a shuffle read as the terminal node, also offer
        // the scheduler a plan-driven alternative to the fixed task list.
        let adaptive = if self.core.conf.aqe.enabled { self.ops.clone().adaptive(f) } else { None };
        let job = JobSpec {
            shuffle_stages: topo_shuffle_deps(self.ops.shuffle_deps()),
            result_tasks,
            adaptive,
            action: action.to_string(),
        };
        self.core.sched.submit_job(job, opts)
    }

    /// Run `f` over every partition's records; returns per-partition values.
    pub fn run_partitions<R: Send + Sync + 'static>(
        &self,
        action: &str,
        f: impl Fn(&TaskContext, Part<T>) -> R + Send + Sync + 'static,
    ) -> Vec<Arc<R>> {
        self.submit_job(action, f, JobOptions::default())
            .wait()
            .into_results()
            .into_iter()
            .map(|r| r.downcast::<R>().expect("result type"))
            .collect()
    }

    /// Number of records.
    pub fn count(&self) -> u64 {
        self.run_partitions("count", |_ctx, v| v.len() as u64).iter().map(|x| **x).sum()
    }

    /// Materialize everything at the driver.
    pub fn collect(&self) -> Vec<T> {
        self.run_partitions("collect", |_ctx, v| v.into_vec())
            .into_iter()
            .flat_map(Arc::unwrap_or_clone)
            .collect()
    }

    /// Fold all records with an associative combiner.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Option<T> {
        let f = Arc::new(f);
        let f2 = f.clone();
        let partials = self.run_partitions("reduce", move |_ctx, v| {
            v.into_vec().into_iter().reduce(|a, b| f2(a, b))
        });
        partials.into_iter().filter_map(Arc::unwrap_or_clone).reduce(|a, b| f(a, b))
    }

    /// First `n` records (partition order).
    pub fn take(&self, n: usize) -> Vec<T> {
        // One pass over all partitions (no incremental scan — fine at
        // simulation scale).
        self.collect().into_iter().take(n).collect()
    }

    // --- approximate actions ----------------------------------------------

    /// Run `f` over every partition with `eval` folding the results, under a
    /// virtual-clock budget of `timeout_ns`.
    fn approximate<E: ApproximateEvaluator>(
        &self,
        action: &str,
        f: impl Fn(&TaskContext, Part<T>) -> E::Update + Send + Sync + 'static,
        eval: E,
        timeout_ns: u64,
    ) -> PartialResult<E::Output> {
        let opts = JobOptions { evaluator: Some(Box::new(eval)), timeout_ns: Some(timeout_ns) };
        self.submit_job(action, f, opts).wait().partial()
    }

    /// Approximate record count with a virtual-clock budget: if the job has
    /// not completed after `timeout_ns`, the answer is a confidence
    /// interval extrapolated from the partitions seen so far
    /// (`confidence: None` uses [`DEFAULT_CONFIDENCE`]). A deadline that
    /// never fires yields the exact count as a degenerate interval.
    pub fn count_approx(
        &self,
        timeout_ns: u64,
        confidence: impl Into<Option<f64>>,
    ) -> PartialResult<BoundedDouble> {
        let f = |_ctx: &TaskContext, v: Part<T>| v.len() as u64;
        let confidence = confidence.into().unwrap_or(DEFAULT_CONFIDENCE);
        self.approximate("count_approx", f, CountEvaluator::new(confidence), timeout_ns)
    }
}

impl<T: Element + AsF64> Rdd<T> {
    /// Per-partition numeric summary task shared by the `sum`/`mean`
    /// approximations: one narrow pass projecting each record to `f64`.
    fn stat_task() -> impl Fn(&TaskContext, Part<T>) -> Stat + Send + Sync + 'static {
        |ctx: &TaskContext, v: Part<T>| {
            ctx.charge(ctx.cost().map(v.len() as u64, 0));
            Stat::of(v.iter().map(AsF64::as_f64))
        }
    }

    /// Approximate sum under a virtual-clock deadline; see
    /// [`count_approx`](Rdd::count_approx) for the timeout/confidence
    /// semantics.
    pub fn sum_approx(
        &self,
        timeout_ns: u64,
        confidence: impl Into<Option<f64>>,
    ) -> PartialResult<BoundedDouble> {
        let confidence = confidence.into().unwrap_or(DEFAULT_CONFIDENCE);
        self.approximate("sum_approx", Self::stat_task(), SumEvaluator::new(confidence), timeout_ns)
    }

    /// Approximate mean under a virtual-clock deadline; see
    /// [`count_approx`](Rdd::count_approx) for the timeout/confidence
    /// semantics.
    pub fn mean_approx(
        &self,
        timeout_ns: u64,
        confidence: impl Into<Option<f64>>,
    ) -> PartialResult<BoundedDouble> {
        let confidence = confidence.into().unwrap_or(DEFAULT_CONFIDENCE);
        let eval = MeanEvaluator::new(confidence);
        self.approximate("mean_approx", Self::stat_task(), eval, timeout_ns)
    }
}

// --- pair-RDD operations ---------------------------------------------------

impl<K, V> Rdd<(K, V)>
where
    K: Element + Hash + Eq + Ord,
    V: Element,
{
    fn shuffle_to<M: Element, U: Element>(
        &self,
        parent: Arc<dyn RddOps<(K, M)>>,
        partitioner: Arc<dyn Partitioner<K>>,
        map_side: Option<MapSideCombine<K, M>>,
        post: PostShuffle<K, M, U>,
        merge: Option<MergeFn<U>>,
    ) -> Rdd<U> {
        let dep = Arc::new(ShuffleDep {
            shuffle_id: self.core.new_shuffle_id(),
            parent: parent.clone(),
            partitioner: partitioner.clone(),
            upstream: topo_shuffle_deps(parent.shuffle_deps()),
            map_side_combine: map_side,
        });
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(ShuffleReadRdd { id: self.core.new_rdd_id(), dep, post, merge }),
        }
    }

    /// Group values per key (wide dependency; no map-side combine — the
    /// OHB GroupByTest workload).
    pub fn group_by_key(&self, parts: usize) -> Rdd<(K, Vec<V>)> {
        self.shuffle_to::<V, (K, Vec<V>)>(
            self.ops.clone(),
            Arc::new(HashPartitioner::new(parts)),
            None,
            Arc::new(group_pairs),
            // Slice partials arrive pre-grouped per map range; concatenating
            // each key's groups in slice (= map-range) order reproduces the
            // static grouping exactly, at record-count cost only — the
            // two-phase win that makes splitting a hot bucket pay off.
            Some(Arc::new(|ctx: &TaskContext, partials: Vec<Vec<(K, Vec<V>)>>| {
                let n: u64 = partials.iter().map(|p| p.len() as u64).sum();
                ctx.charge(ctx.cost().group(n, 0));
                combine_by_key(
                    partials.into_iter().flatten(),
                    |group| group,
                    |mut group, mut more| {
                        group.append(&mut more);
                        group
                    },
                )
            })),
        )
    }

    /// Reduce values per key with map-side combining (Spark's default for
    /// `reduceByKey`).
    pub fn reduce_by_key(
        &self,
        parts: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)> {
        let f = Arc::new(f);
        let f_merge = f.clone();
        // One fold serves the map-side combine and the reduce side.
        let reduce: PostShuffle<K, V, (K, V)> =
            Arc::new(move |ctx, pairs| combine_pairs(ctx, pairs, |v| v, |a, b| f(a, b)));
        self.shuffle_to::<V, (K, V)>(
            self.ops.clone(),
            Arc::new(HashPartitioner::new(parts)),
            Some(reduce.clone()),
            reduce,
            // Slice partials are already reduced per map range; the final
            // merge folds at most one value per key per slice.
            Some(Arc::new(move |ctx: &TaskContext, partials: Vec<Vec<(K, V)>>| {
                let n: u64 = partials.iter().map(|p| p.len() as u64).sum();
                ctx.charge(ctx.cost().group(n, 0));
                combine_by_key(partials.into_iter().flatten(), |v| v, |a, b| f_merge(a, b))
            })),
        )
    }

    /// Repartition by key with an explicit partitioner; records pass
    /// through unchanged.
    pub fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)> {
        self.shuffle_to::<V, (K, V)>(
            self.ops.clone(),
            partitioner,
            None,
            Arc::new(|_ctx, pairs| pairs),
            // Records pass through unchanged; merging is concatenation in
            // map-range order.
            Some(Arc::new(|ctx: &TaskContext, partials: Vec<Vec<(K, V)>>| {
                let n: u64 = partials.iter().map(|p| p.len() as u64).sum();
                ctx.charge(ctx.cost().map(n, 0));
                partials.into_iter().flatten().collect()
            })),
        )
    }

    /// Co-group with another pair RDD sharing the key type.
    pub fn cogroup<W: Element>(
        &self,
        other: &Rdd<(K, W)>,
        parts: usize,
    ) -> Rdd<(K, (Vec<V>, Vec<W>))> {
        let partitioner: Arc<dyn Partitioner<K>> = Arc::new(HashPartitioner::new(parts));
        let dep_a = Arc::new(ShuffleDep {
            shuffle_id: self.core.new_shuffle_id(),
            parent: self.ops.clone(),
            partitioner: partitioner.clone(),
            upstream: topo_shuffle_deps(self.ops.shuffle_deps()),
            map_side_combine: None,
        });
        let dep_b = Arc::new(ShuffleDep {
            shuffle_id: self.core.new_shuffle_id(),
            parent: other.ops.clone(),
            partitioner: partitioner.clone(),
            upstream: topo_shuffle_deps(other.ops.shuffle_deps()),
            map_side_combine: None,
        });
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(CoGroupRdd { id: self.core.new_rdd_id(), dep_a, dep_b }),
        }
    }

    /// Inner join.
    pub fn join<W: Element>(&self, other: &Rdd<(K, W)>, parts: usize) -> Rdd<(K, (V, W))> {
        self.cogroup(other, parts).flat_map(|(k, (vs, ws))| {
            let mut out = Vec::with_capacity(vs.len() * ws.len());
            for v in &vs {
                for w in &ws {
                    out.push((k.clone(), (v.clone(), w.clone())));
                }
            }
            out
        })
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Element + Hash + Eq + Ord,
    V: Element,
{
    /// Sort by key into `parts` range partitions. Eagerly runs a sampling
    /// job to build the range partitioner — the extra job visible in the
    /// paper's SortByTest stage breakdown (Job1 samples, Job2 sorts).
    pub fn sort_by_key(&self, parts: usize) -> Rdd<(K, V)> {
        // Sampling job: ~20 keys per output partition.
        let per_part = ((20 * parts) / self.num_partitions().max(1)).max(1);
        let sample: Vec<K> = self
            .run_partitions("sortByKey-sample", move |ctx, v| {
                ctx.charge(ctx.cost().map(v.len() as u64, 0));
                let step = (v.len() / per_part).max(1);
                v.iter().step_by(step).map(|(k, _)| k.clone()).collect::<Vec<K>>()
            })
            .into_iter()
            .flat_map(|p| p.as_ref().clone())
            .collect();
        let partitioner = Arc::new(RangePartitioner::from_sample(sample, parts));
        self.shuffle_to::<V, (K, V)>(
            self.ops.clone(),
            partitioner,
            None,
            Arc::new(|ctx: &TaskContext, mut pairs: Vec<(K, V)>| {
                let bytes: u64 = pairs.iter().map(crate::data::Element::virtual_size).sum();
                ctx.charge(ctx.cost().sort(pairs.len() as u64, bytes));
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                pairs
            }),
            // Slice partials arrive sorted; a stable merge-by-concatenation
            // plus re-sort costs record-count terms only (no byte charge —
            // the heavy byte-proportional sort already ran in the slices).
            Some(Arc::new(|ctx: &TaskContext, partials: Vec<Vec<(K, V)>>| {
                let n: u64 = partials.iter().map(|p| p.len() as u64).sum();
                ctx.charge(ctx.cost().sort(n, 0));
                let mut merged: Vec<(K, V)> = partials.into_iter().flatten().collect();
                merged.sort_by(|a, b| a.0.cmp(&b.0));
                merged
            })),
        )
    }
}

impl<T: Element + Hash + Eq + Ord> Rdd<T> {
    /// Remove duplicate records (shuffle on the record itself).
    pub fn distinct(&self, parts: usize) -> Rdd<T> {
        self.map(|x| (x, 1u8)).reduce_by_key(parts, |a, _| a).map(|(x, _)| x)
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Element + Hash + Eq + Ord,
    V: Element,
{
    /// Count records per key at the driver.
    pub fn count_by_key(&self) -> Vec<(K, u64)> {
        self.map(|(k, _)| (k, 1u64))
            .reduce_by_key(self.num_partitions().max(1), |a, b| a + b)
            .collect()
    }

    /// Per-partition key histogram task shared by the `count_by_key`
    /// approximation: local aggregation only, no shuffle (Spark's
    /// `countByKeyApprox` shape), so every completed partition refines
    /// every key's interval.
    fn key_histogram_task(
    ) -> impl Fn(&TaskContext, Part<(K, V)>) -> Vec<(K, u64)> + Send + Sync + 'static {
        |ctx: &TaskContext, v: Part<(K, V)>| {
            ctx.charge(ctx.cost().group(v.len() as u64, 0));
            combine_by_key(v.iter().map(|(k, _)| (k.clone(), ())), |()| 1, |n, ()| n + 1)
        }
    }

    /// Approximate per-key counts under a virtual-clock deadline: each
    /// key's total is a [`BoundedDouble`] extrapolated from the partitions
    /// seen (see [`count_approx`](Rdd::count_approx) for timeout/confidence
    /// semantics).
    pub fn count_by_key_approx(
        &self,
        timeout_ns: u64,
        confidence: impl Into<Option<f64>>,
    ) -> PartialResult<Vec<(K, BoundedDouble)>> {
        let confidence = confidence.into().unwrap_or(DEFAULT_CONFIDENCE);
        let eval = GroupedCountEvaluator::new(confidence);
        self.approximate("count_by_key_approx", Self::key_histogram_task(), eval, timeout_ns)
    }

    /// The keys.
    pub fn keys(&self) -> Rdd<K> {
        self.map(|(k, _)| k)
    }

    /// The values.
    pub fn values(&self) -> Rdd<V> {
        self.map(|(_, v)| v)
    }

    /// Apply `f` to every value, keeping keys and partitioning intent.
    pub fn map_values<W: Element>(
        &self,
        f: impl Fn(V) -> W + Send + Sync + 'static,
    ) -> Rdd<(K, W)> {
        self.map(move |(k, v)| (k, f(v)))
    }
}

impl<T: Element> Rdd<T> {
    /// Redistribute records evenly over `parts` partitions (pure shuffle —
    /// the HiBench Repartition micro-benchmark).
    pub fn repartition(&self, parts: usize) -> Rdd<T> {
        let counter = std::sync::atomic::AtomicU64::new(0);
        let keyed: Rdd<(u64, T)> = self.map_partitions(move |ctx, v| {
            ctx.charge(ctx.cost().map(v.len() as u64, 0));
            v.iter().map(|x| (counter.fetch_add(1, Ordering::Relaxed), x.clone())).collect()
        });
        keyed.partition_by(Arc::new(HashPartitioner::new(parts))).map(|(_, x)| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_vec_moves_an_owned_or_unique_part() {
        let v = vec![1u64, 2, 3];
        let buf = v.as_ptr();
        let out = Part::Owned(v).into_vec();
        assert_eq!(out.as_ptr(), buf);
        let v = vec![4u64, 5];
        let buf = v.as_ptr();
        let out = Part::Shared(Arc::new(v)).into_vec();
        assert_eq!(out.as_ptr(), buf);
    }

    #[test]
    fn into_vec_clones_a_still_shared_part() {
        let cached = Arc::new(vec![7u64, 8, 9]);
        let part = Part::Shared(cached.clone());
        assert_eq!(&*part, &[7, 8, 9]);
        let out = part.into_vec();
        assert_ne!(out.as_ptr(), cached.as_ptr());
        assert_eq!(out, *cached);
        assert_eq!(Arc::strong_count(&cached), 1, "the cached copy is left whole and alone");
    }
}
