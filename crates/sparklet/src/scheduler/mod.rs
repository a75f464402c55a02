//! The DAG scheduler and `SparkContext`.
//!
//! Jobs decompose into `ShuffleMapStage`s (one per uncomputed shuffle
//! dependency, parents first) and a final `ResultStage` — the exact stage
//! vocabulary of the paper's Fig. 10/11 breakdowns. Stage timings and
//! shuffle metrics are recorded per job for the benchmark harnesses.
//!
//! Stages run on an event-driven state machine (`stage`): each stage is a
//! sequence of *attempts*, and a `FetchFailed` completion or a lost
//! executor resubmits the missing partitions against a freshly bumped
//! map-output epoch after recomputing lost parents by lineage.
//!
//! Task placement is strict modulo (`partition % executors`): deterministic
//! and cache-friendly (a cached partition is always recomputed on the
//! executor that cached it), standing in for Spark's locality preferences.

mod stage;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use fabric::NodeId;
use simt::queue::Queue;
use simt::sync::Mutex;
use simt::wait::WaitList;

use crate::config::SparkConf;
use crate::data::Element;
use crate::rdd::ops::{GenerateRdd, ParallelizeRdd};
use crate::rdd::{AppCore, JobSpec, Rdd, TaskOutput, TaskRunner};
use crate::rpc::{AnyMsg, ReplyFn, RpcEndpoint, RpcEnv, RpcRef};
use crate::shuffle::MapOutputTrackerMaster;

/// Timing and traffic for one stage.
///
/// Traffic figures are the merged [`obs::MetricsSnapshot`]s of the stage's
/// tasks; read them with `metrics.counter` and the `task.*` keys in
/// [`obs::keys`].
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage label (`Job1-ShuffleMapStage`, `Job1-ResultStage`, ...).
    pub name: String,
    /// Attempt number of this run of the stage (0 on the first submission).
    pub attempt: u32,
    /// Virtual start time.
    pub start_ns: u64,
    /// Virtual end time.
    pub end_ns: u64,
    /// Task count.
    pub tasks: usize,
    /// Merged per-task metrics snapshots.
    pub metrics: obs::MetricsSnapshot,
}

impl StageMetrics {
    /// Wall (virtual) duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Timing for one job.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Sequential job id within the application.
    pub job_id: u32,
    /// Action that triggered the job.
    pub action: String,
    /// Virtual start time.
    pub start_ns: u64,
    /// Virtual end time.
    pub end_ns: u64,
    /// Per-stage breakdown.
    pub stages: Vec<StageMetrics>,
}

impl JobMetrics {
    /// Wall (virtual) duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration of the stage whose name contains `fragment`, if any.
    ///
    /// Stages that share one name (a retried stage reruns under its
    /// original label) resolve to the first run. A fragment matching stages
    /// with *distinct* names is ambiguous and panics — the old behaviour
    /// silently returned whichever matching stage was recorded first, which
    /// made e.g. `"ShuffleMapStage"` quietly pick between a primary run and
    /// a `-retry` recomputation.
    pub fn stage_duration(&self, fragment: &str) -> Option<u64> {
        let matched: Vec<&StageMetrics> =
            self.stages.iter().filter(|s| s.name.contains(fragment)).collect();
        let first = *matched.first()?;
        let distinct: BTreeSet<&str> = matched.iter().map(|s| s.name.as_str()).collect();
        assert!(
            distinct.len() == 1,
            "ambiguous stage fragment {fragment:?}: matches distinct stages {distinct:?}; \
             pass a fragment that selects exactly one stage name"
        );
        Some(first.duration_ns())
    }
}

// --- messages exchanged with executors --------------------------------------

/// Executor → scheduler registration (ask; reply `bool`).
pub struct RegisterExecutor {
    /// Executor id.
    pub exec_id: usize,
    /// Task slots.
    pub cores: u32,
    /// Address of the executor's RPC environment.
    pub rpc_addr: fabric::PortAddr,
}

/// Scheduler → executor task launch (one-way).
pub struct LaunchTask {
    /// Stage instance (attempt) the task belongs to.
    pub stage_seq: u64,
    /// Partition to compute.
    pub part: usize,
    /// Stage attempt number.
    pub attempt: u32,
    /// Map-output epoch the attempt was launched under; echoed back in
    /// [`TaskFinishedMsg`] for stale-attempt discard and used by executors
    /// to age their location caches.
    pub epoch: u64,
    /// Shuffles the driver cleaned since this executor's previous launch:
    /// the executor drops their map outputs and cached tables before the
    /// task runs (Spark's `RemoveShuffle`, here carried by the launch).
    pub cleaned_shuffles: Vec<u32>,
    /// The work.
    pub runner: Arc<dyn TaskRunner>,
}

/// Executor → scheduler completion (one-way).
pub struct TaskFinishedMsg {
    /// Stage instance.
    pub stage_seq: u64,
    /// Partition computed.
    pub part: usize,
    /// Reporting executor.
    pub exec_id: usize,
    /// Epoch the task was launched under (stale-attempt discard).
    pub epoch: u64,
    /// The output (taken once by the scheduler).
    pub output: Mutex<Option<TaskOutput>>,
    /// Snapshot of the task's metrics registry.
    pub metrics: obs::MetricsSnapshot,
}

/// Executor stop command (one-way).
pub struct StopExecutor;

/// Scheduler → executor: map outputs for a shuffle changed location as of
/// `epoch` — drop location tables cached under older epochs (one-way).
pub struct InvalidateShuffle {
    /// The shuffle to invalidate.
    pub shuffle_id: u32,
    /// Tracker epoch after the loss.
    pub epoch: u64,
}

/// What the stage loop drains: a task completion, or the loss of an
/// executor whose node's channels were reset.
enum Completion {
    Finished(Arc<TaskFinishedMsg>),
    ExecutorLost { exec_id: usize, reason: String },
}

/// Ids of the shuffles whose dependency has dropped and that the driver has
/// not cleaned yet (the reference queue of Spark's `ContextCleaner`). The
/// last `ShuffleDep` handle pushes its id from whichever thread drops it, an
/// executor's task thread included, so a push never blocks; the scheduler
/// takes the list when the next job starts.
#[derive(Default)]
pub struct DroppedShuffles(Mutex<Vec<u32>>);

impl DroppedShuffles {
    pub(crate) fn push(&self, shuffle_id: u32) {
        self.0.lock().push(shuffle_id);
    }
}

/// A registered executor.
#[derive(Clone)]
pub struct ExecutorHandle {
    /// Executor id.
    pub exec_id: usize,
    /// Reference to its `Executor` endpoint.
    pub rpc: RpcRef,
    /// Task slots.
    pub cores: u32,
}

/// The driver-side scheduler.
pub struct DagScheduler {
    env: OnceLock<Arc<RpcEnv>>,
    executors: Mutex<Vec<ExecutorHandle>>,
    /// Notified when an executor registers.
    registered: WaitList,
    /// Task completions and executor losses, in arrival order.
    completions: Queue<Completion>,
    /// Map-output registry (also registered as an RPC endpoint).
    pub tracker: Arc<MapOutputTrackerMaster>,
    metrics: Mutex<Vec<JobMetrics>>,
    next_job: AtomicU32,
    next_stage_seq: AtomicU64,
    computed_shuffles: Mutex<BTreeSet<u32>>,
    /// Shuffles dropped since the last job started.
    pub(crate) dropped: Arc<DroppedShuffles>,
    /// Per executor id, the cleaned shuffles its next launch carries.
    cleaned: Mutex<BTreeMap<usize, Vec<u32>>>,
    /// Executors that were lost or whose shuffle service failed a fetch;
    /// excluded from task placement so recomputed map outputs land on
    /// healthy executors.
    quarantined: Mutex<BTreeSet<usize>>,
    job_running: AtomicBool,
}

impl Default for DagScheduler {
    fn default() -> Self {
        DagScheduler {
            env: OnceLock::new(),
            executors: Mutex::new(Vec::new()),
            registered: WaitList::new("executor-registration"),
            completions: Queue::new(),
            tracker: Arc::new(MapOutputTrackerMaster::default()),
            metrics: Mutex::new(Vec::new()),
            next_job: AtomicU32::new(0),
            next_stage_seq: AtomicU64::new(0),
            computed_shuffles: Mutex::new(BTreeSet::new()),
            dropped: Arc::default(),
            cleaned: Mutex::default(),
            quarantined: Mutex::new(BTreeSet::new()),
            job_running: AtomicBool::new(false),
        }
    }
}

impl DagScheduler {
    /// Attach the driver's RPC environment (needed to build executor refs)
    /// and listen on it for lost nodes: each executor on a node whose
    /// channels were reset becomes an `ExecutorLost` for the stage loop.
    pub fn attach_env(self: &Arc<Self>, env: Arc<RpcEnv>) {
        let sched = Arc::downgrade(self);
        env.on_peer_lost(move |node| {
            if let Some(sched) = sched.upgrade() {
                sched.node_lost(node);
            }
        });
        self.env.get_or_init(|| env);
    }

    fn node_lost(&self, node: NodeId) {
        let lost: Vec<usize> = self
            .executors
            .lock()
            .iter()
            .filter(|e| e.rpc.addr().node == node)
            .map(|e| e.exec_id)
            .collect();
        for exec_id in lost {
            let reason = format!("channels to node {node} reset");
            self.completions.send(Completion::ExecutorLost { exec_id, reason });
        }
    }

    /// Block until `n` executors have registered.
    pub fn wait_for_executors(&self, n: usize) {
        self.registered.wait_until(None, || (self.executors.lock().len() >= n).then_some(()));
    }

    /// Registered executors (snapshot).
    pub fn executors(&self) -> Vec<ExecutorHandle> {
        self.executors.lock().clone()
    }

    /// Registered executors that are not quarantined (snapshot).
    fn in_service(&self) -> Vec<ExecutorHandle> {
        let quarantined = self.quarantined.lock().clone();
        self.executors().into_iter().filter(|e| !quarantined.contains(&e.exec_id)).collect()
    }

    /// Completed job metrics (snapshot).
    pub fn job_metrics(&self) -> Vec<JobMetrics> {
        self.metrics.lock().clone()
    }

    /// The driver's observability handle (disabled until the RPC
    /// environment is attached).
    fn obs(&self) -> obs::Obs {
        self.env.get().map(|e| e.obs().clone()).unwrap_or_else(obs::Obs::disabled)
    }

    /// Run a job to completion on the calling (driver) thread; returns its
    /// per-partition results in partition order.
    pub fn submit_job(&self, job: JobSpec) -> Vec<AnyMsg> {
        assert!(
            !self.job_running.swap(true, Ordering::SeqCst),
            "concurrent jobs are not supported; run jobs sequentially from one driver thread"
        );
        self.clean_dropped_shuffles();
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs();
        let _span = obs
            .is_traced()
            .then(|| obs.span("spark.job", obs::kv! {"job_id" => job_id, "action" => &job.action}));
        let start_ns = simt::now();
        let (results, stages) = stage::run_job(self, &job, job_id);
        self.metrics.lock().push(JobMetrics {
            job_id,
            action: job.action,
            start_ns,
            end_ns: simt::now(),
            stages,
        });
        self.job_running.store(false, Ordering::SeqCst);
        results
    }

    /// Clean every shuffle whose dependency dropped since the last job
    /// started (Spark's `ContextCleaner.doCleanupShuffle`): forget its map
    /// statuses here, and queue its id for each executor's next launch,
    /// which drops its map outputs and cached table there. Nothing still
    /// reachable is cleaned: a live RDD holds its dependency. Host-side
    /// bookkeeping: no message, wire byte or CPU time is charged for it.
    fn clean_dropped_shuffles(&self) {
        let ids = std::mem::take(&mut *self.dropped.0.lock());
        if ids.is_empty() {
            return;
        }
        self.tracker.unregister_shuffles(&ids);
        self.computed_shuffles.lock().retain(|id| !ids.contains(id));
        let execs = self.in_service();
        let mut cleaned = self.cleaned.lock();
        for e in execs {
            cleaned.entry(e.exec_id).or_default().extend_from_slice(&ids);
        }
    }
}

impl RpcEndpoint for DagScheduler {
    fn receive(&self, msg: AnyMsg, reply: Option<ReplyFn>) {
        if let Ok(reg) = msg.clone().downcast::<RegisterExecutor>() {
            let env = self.env.get().expect("scheduler env attached").clone();
            let rpc = env.endpoint_ref(reg.rpc_addr, "Executor");
            self.executors.lock().push(ExecutorHandle {
                exec_id: reg.exec_id,
                rpc,
                cores: reg.cores,
            });
            self.registered.notify_all();
            if let Some(reply) = reply {
                reply(Arc::new(true));
            }
            return;
        }
        if let Ok(fin) = msg.downcast::<TaskFinishedMsg>() {
            self.completions.send(Completion::Finished(fin));
        }
    }
}

// --- SparkContext -------------------------------------------------------------

/// The user-facing application handle, owned by the driver.
pub struct SparkContext {
    core: Arc<AppCore>,
    sched: Arc<DagScheduler>,
    broadcasts: Arc<crate::broadcast::BroadcastRegistry>,
}

impl SparkContext {
    /// Build a context sharing the driver's broadcast registry (the deploy
    /// layer passes the registry its stream manager serves from).
    pub fn with_broadcasts(
        conf: SparkConf,
        default_parallelism: usize,
        sched: Arc<DagScheduler>,
        broadcasts: Arc<crate::broadcast::BroadcastRegistry>,
    ) -> Self {
        let core = AppCore::new(conf, default_parallelism, sched.clone());
        SparkContext { core, sched, broadcasts }
    }

    /// Broadcast a read-only value to the executors: each executor fetches
    /// it from the driver once (charged as `virtual_size` wire bytes over
    /// the `StreamResponse` path) and caches it for all its tasks.
    pub fn broadcast<T: std::any::Any + Send + Sync>(
        &self,
        value: T,
        virtual_size: u64,
    ) -> crate::broadcast::Broadcast<T> {
        let id = self.broadcasts.register(Arc::new(value), virtual_size);
        crate::broadcast::Broadcast::new(id, virtual_size)
    }

    /// Engine configuration.
    pub fn conf(&self) -> SparkConf {
        self.core.conf
    }

    /// Default partition count (total cores in the paper's configs).
    pub fn default_parallelism(&self) -> usize {
        self.core.default_parallelism
    }

    /// Distribute an in-memory collection over `parts` partitions.
    pub fn parallelize<T: Element>(&self, data: Vec<T>, parts: usize) -> Rdd<T> {
        assert!(parts > 0);
        let mut chunks: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        for (i, x) in data.into_iter().enumerate() {
            chunks[i % parts].push(x);
        }
        let data = chunks.into_iter().map(Arc::new).collect();
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(ParallelizeRdd { id: self.core.new_rdd_id(), data }),
        }
    }

    /// A lazily generated dataset: partition `p` holds `f(p)`.
    pub fn generate<T: Element>(
        &self,
        parts: usize,
        f: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Rdd<T> {
        Rdd {
            core: self.core.clone(),
            ops: Arc::new(GenerateRdd { id: self.core.new_rdd_id(), parts, f: Arc::new(f) }),
        }
    }

    /// Metrics of all completed jobs.
    pub fn job_metrics(&self) -> Vec<JobMetrics> {
        self.sched.job_metrics()
    }

    /// The scheduler (deployment and tests).
    pub fn scheduler(&self) -> &Arc<DagScheduler> {
        &self.sched
    }
}
