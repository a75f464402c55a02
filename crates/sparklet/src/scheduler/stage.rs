//! The event-driven stage engine: attempts, epochs and lineage recovery.
//!
//! A stage runs as a sequence of *attempts*. Each attempt gets a fresh
//! `stage_seq` and snapshots the map-output epoch at launch; completions
//! are matched on both, so results from aborted attempts or older epochs
//! are discarded (Spark's stale-attempt/epoch check). A `FetchFailed`
//! completion or a lost executor ends the attempt once all its tasks have
//! reported (a lost executor's unfinished tasks report with no output),
//! after which [`JobEngine::recover`] quarantines the failing executors,
//! unregisters their map outputs (bumping the epoch), broadcasts
//! `InvalidateShuffle`, recomputes the lost parents by walking the job's
//! shuffle lineage, and resubmits only the still-missing partitions.
//! Everything runs on the virtual clock — the whole recovery timeline is a
//! deterministic function of the seed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use simt::sync::Mutex;

use crate::rdd::{JobSpec, ShuffleDepMeta, TaskOutput, TaskRunner};
use crate::rpc::AnyMsg;
use crate::shuffle::FetchFailed;

use super::{
    Completion, DagScheduler, ExecutorHandle, InvalidateShuffle, LaunchTask, StageMetrics,
};

/// Cap on attempts of one stage (first run + resubmissions after
/// `FetchFailed`); exceeding it panics the job, mirroring Spark's
/// `spark.stage.maxConsecutiveAttempts` abort.
const MAX_STAGE_ATTEMPTS: u32 = 4;

/// Run `job` under `sched` to completion; returns its per-partition
/// results in partition order plus the recorded stage metrics.
pub(super) fn run_job(
    sched: &DagScheduler,
    job: &JobSpec,
    job_id: u32,
) -> (Vec<AnyMsg>, Vec<StageMetrics>) {
    let mut eng = JobEngine { sched, job, job_id, stages: Vec::new() };
    for dep in &job.shuffle_stages {
        eng.ensure_shuffle(dep);
    }
    let parts: Vec<usize> = (0..job.result_tasks.len()).collect();
    let name = format!("Job{job_id}-ResultStage");
    let outs = eng.run_to_completion(name, &job.result_tasks, parts);
    let results = outs
        .into_iter()
        .map(|(_, out)| match out {
            TaskOutput::Result(r) => r,
            _ => panic!("result stage produced a non-result output"),
        })
        .collect();
    (results, eng.stages)
}

struct JobEngine<'a> {
    sched: &'a DagScheduler,
    job: &'a JobSpec,
    job_id: u32,
    stages: Vec<StageMetrics>,
}

impl JobEngine<'_> {
    /// Make `dep`'s shuffle fully computed: run its map stage if this app
    /// never has, or recompute just the holes if a later failure
    /// unregistered outputs a previous job's recovery did not cover.
    fn ensure_shuffle(&mut self, dep: &Arc<dyn ShuffleDepMeta>) {
        let id = dep.shuffle_id();
        let already = self.sched.computed_shuffles.lock().contains(&id);
        self.sched.tracker.register_shuffle(id, dep.num_maps());
        if already && self.sched.tracker.is_complete(id) {
            return;
        }
        let missing = self.sched.tracker.missing_maps(id);
        self.run_map_stage(dep, missing, already);
        self.sched.computed_shuffles.lock().insert(id);
    }

    /// Compute map partitions `maps` of `dep`'s shuffle and register their
    /// statuses. Recovery recomputations run under a `-retry` suffix so
    /// metrics distinguish them from the primary stage.
    fn run_map_stage(&mut self, dep: &Arc<dyn ShuffleDepMeta>, maps: Vec<u32>, resubmit: bool) {
        if maps.is_empty() {
            return;
        }
        let suffix = if resubmit { "-retry" } else { "" };
        let name = format!("Job{}-ShuffleMapStage{suffix}", self.job_id);
        let parts: Vec<usize> = maps.iter().map(|m| *m as usize).collect();
        let runners: Vec<Arc<dyn TaskRunner>> =
            (0..dep.num_maps()).map(|p| Arc::clone(dep).make_map_task(p)).collect();
        let outs = self.run_to_completion(name, &runners, parts);
        for (_, out) in outs {
            match out {
                TaskOutput::Map(status) => {
                    self.sched.tracker.register_map_output(dep.shuffle_id(), status)
                }
                _ => panic!("map stage produced a non-map output"),
            }
        }
    }

    /// Drive one stage through as many attempts as it takes. `runners` holds
    /// the stage's task for every partition, `parts` the partitions to run.
    /// Successful outputs accumulate across attempts; `FetchFailed`
    /// partitions, the tasks of lost executors, and map outputs stranded on
    /// an executor quarantined mid-recovery are resubmitted until every
    /// partition has a good output.
    fn run_to_completion(
        &mut self,
        name: String,
        runners: &[Arc<dyn TaskRunner>],
        parts: Vec<usize>,
    ) -> Vec<(usize, TaskOutput)> {
        let all_parts = parts.clone();
        let mut needed = parts;
        let mut collected: Vec<(usize, TaskOutput)> = Vec::new();
        let mut attempt = 0u32;
        loop {
            let (sm, done, failures, lost) = self.run_attempt(&name, runners, &needed, attempt);
            self.stages.push(sm);
            collected.extend(done);
            if failures.is_empty() && lost.is_empty() {
                collected.sort_by_key(|(p, _)| *p);
                return collected;
            }
            attempt += 1;
            assert!(
                attempt < MAX_STAGE_ATTEMPTS,
                "stage {name} failed after {attempt} attempts (max {MAX_STAGE_ATTEMPTS})"
            );
            self.recover(&name, &failures, &lost);
            // Map outputs computed on a now-quarantined executor point at
            // lost blocks; drop them so those partitions rerun too.
            let quarantined = self.sched.quarantined.lock().clone();
            collected.retain(|(_, out)| match out {
                TaskOutput::Map(st) => !quarantined.contains(&st.exec_id),
                _ => true,
            });
            let have: BTreeSet<usize> = collected.iter().map(|(p, _)| *p).collect();
            needed = all_parts.iter().copied().filter(|p| !have.contains(p)).collect();
        }
    }

    /// React to an attempt's fetch failures and lost executors: quarantine
    /// the blamed and the lost executors, unregister their map outputs
    /// (bumping the epoch), send the invalidation to the executors still in
    /// service, and recompute lost parents by lineage. Lost shuffles outside
    /// this job's lineage heal lazily — the next job reading them finds the
    /// holes in [`JobEngine::ensure_shuffle`].
    fn recover(&mut self, stage: &str, failures: &[FetchFailed], lost_execs: &[usize]) {
        let sched = self.sched;
        let obs = sched.obs();
        let failed_execs: BTreeSet<usize> =
            failures.iter().filter_map(|f| f.exec_id).chain(lost_execs.iter().copied()).collect();
        let failed_shuffles: BTreeSet<u32> = failures.iter().map(|f| f.shuffle_id).collect();
        sched.quarantined.lock().extend(failed_execs.iter().copied());
        let mut lost: Vec<(u32, Vec<u32>)> = Vec::new();
        for e in &failed_execs {
            lost.extend(sched.tracker.remove_executor(*e));
        }
        obs.registry().counter(obs::keys::SPARK_STAGE_RESUBMITS).inc();
        if obs.is_traced() {
            obs.event(
                "spark.stage.resubmit",
                obs::kv! {
                    "stage" => stage,
                    "failed_parts" => failures.len(),
                    "failed_execs" => failed_execs.len(),
                },
            );
        }
        if failed_execs.is_empty() {
            // Pure metadata failures: locations did not change, just retry.
            return;
        }
        let epoch = sched.tracker.epoch();
        let touched: BTreeSet<u32> =
            failed_shuffles.iter().copied().chain(lost.iter().map(|(s, _)| *s)).collect();
        // A quarantined executor never runs a task again, so its location
        // cache is never read; a send to a crashed one would block recovery
        // in a connect.
        let in_service = sched.in_service();
        for shuffle_id in &touched {
            for e in &in_service {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "an unreachable executor has no location cache left to age"
                )]
                let _ = e.rpc.send(InvalidateShuffle { shuffle_id: *shuffle_id, epoch });
            }
        }
        for (shuffle_id, maps) in lost {
            if let Some(dep) = self.job.shuffle_stages.iter().find(|d| d.shuffle_id() == shuffle_id)
            {
                let dep = dep.clone();
                self.run_map_stage(&dep, maps, true);
            }
        }
    }

    /// Run one attempt of a stage over `parts`: dispatch, then consume the
    /// completion queue until every partition reported exactly once, a lost
    /// executor's unfinished tasks counting as reported with no output.
    /// Returns the attempt's metrics, its successful outputs, its fetch
    /// failures and the executors it lost.
    fn run_attempt(
        &mut self,
        name: &str,
        runners: &[Arc<dyn TaskRunner>],
        parts: &[usize],
        attempt: u32,
    ) -> (StageMetrics, Vec<(usize, TaskOutput)>, Vec<FetchFailed>, Vec<usize>) {
        let sched = self.sched;
        let obs = sched.obs();
        let _span = obs.is_traced().then(|| {
            obs.span(
                "spark.stage",
                obs::kv! {"name" => name, "tasks" => parts.len(), "attempt" => attempt},
            )
        });
        let stage_seq = sched.next_stage_seq.fetch_add(1, Ordering::Relaxed);
        let epoch = sched.tracker.epoch();
        let execs = sched.in_service();
        assert!(!execs.is_empty(), "no healthy executors registered");
        let start_ns = simt::now();

        let mut att = Attempt::new(execs, stage_seq, attempt, epoch);
        for &part in parts {
            att.add_task(part, runners[part].clone());
        }
        att.dispatch_all(&sched.cleaned);

        let n = parts.len();
        let mut done = 0usize;
        let mut outputs: Vec<(usize, TaskOutput)> = Vec::with_capacity(n);
        let mut failures: Vec<FetchFailed> = Vec::new();
        let mut lost: Vec<usize> = Vec::new();
        let mut stage_snapshot = obs::MetricsSnapshot::default();

        while done < n {
            let fin = match sched.completions.recv().expect("scheduler completion queue open") {
                Completion::Finished(fin) => fin,
                Completion::ExecutorLost { exec_id, reason } => {
                    let Some(slot) = att.slot_of(exec_id) else { continue };
                    if lost.contains(&exec_id) {
                        continue;
                    }
                    lost.push(exec_id);
                    done += att.lose(slot);
                    obs.registry().counter(obs::keys::SPARK_EXECUTORS_LOST).inc();
                    if obs.is_traced() {
                        obs.event(
                            "spark.executor.lost",
                            obs::kv! {"stage" => name, "exec" => exec_id, "reason" => reason},
                        );
                    }
                    continue;
                }
            };
            // Dedup key (stage, partition, epoch): drop completions of
            // aborted attempts and of launches that predate the current
            // map-output epoch, and whatever a lost executor still reports.
            if fin.stage_seq != stage_seq || fin.epoch != epoch || lost.contains(&fin.exec_id) {
                continue;
            }
            let Some(slot) = att.slot_of(fin.exec_id) else { continue };
            att.release(slot);
            let ti = att.task_index(fin.part);
            debug_assert!(!att.tasks[ti].done, "one completion per task and attempt");
            att.tasks[ti].done = true;
            done += 1;
            stage_snapshot.merge(&fin.metrics);
            let output = fin.output.lock().take().expect("output taken once");
            match output {
                TaskOutput::FetchFailed(failed) => failures.push(failed),
                other => outputs.push((fin.part, other)),
            }
        }
        (
            StageMetrics {
                name: name.to_string(),
                attempt,
                start_ns,
                end_ns: simt::now(),
                tasks: n,
                metrics: stage_snapshot,
            },
            outputs,
            failures,
            lost,
        )
    }
}

/// Per-partition state within an attempt.
struct TaskState {
    part: usize,
    runner: Arc<dyn TaskRunner>,
    /// Executor slot under modulo placement: the task is queued and
    /// launched there and nowhere else.
    home: usize,
    done: bool,
}

/// Slot accounting and task dispatch for one stage attempt.
struct Attempt {
    execs: Vec<ExecutorHandle>,
    stage_seq: u64,
    attempt: u32,
    epoch: u64,
    free: Vec<u32>,
    queues: Vec<VecDeque<usize>>,
    /// Per slot, the cleaned shuffles its next launch carries.
    cleaned: Vec<Vec<u32>>,
    tasks: Vec<TaskState>,
    by_part: BTreeMap<usize, usize>,
}

impl Attempt {
    fn new(execs: Vec<ExecutorHandle>, stage_seq: u64, attempt: u32, epoch: u64) -> Self {
        let n_exec = execs.len();
        let free = execs.iter().map(|e| e.cores).collect();
        Attempt {
            execs,
            stage_seq,
            attempt,
            epoch,
            free,
            queues: (0..n_exec).map(|_| VecDeque::new()).collect(),
            cleaned: Vec::new(),
            tasks: Vec::new(),
            by_part: BTreeMap::new(),
        }
    }

    /// Queue `part` on its modulo-placement home executor.
    fn add_task(&mut self, part: usize, runner: Arc<dyn TaskRunner>) {
        let home = part % self.execs.len();
        let ti = self.tasks.len();
        self.tasks.push(TaskState { part, runner, home, done: false });
        self.by_part.insert(part, ti);
        self.queues[home].push_back(ti);
    }

    fn task_index(&self, part: usize) -> usize {
        *self.by_part.get(&part).expect("completion for a task of this attempt")
    }

    fn slot_of(&self, exec_id: usize) -> Option<usize> {
        self.execs.iter().position(|e| e.exec_id == exec_id)
    }

    /// Send task `ti` to executor slot `slot`. A crashed node swallows the
    /// message silently; its executor-lost event settles the task.
    fn launch(&mut self, ti: usize, slot: usize) {
        self.free[slot] -= 1;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a lost launch is settled by its executor-lost event"
        )]
        let _ = self.execs[slot].rpc.send(LaunchTask {
            stage_seq: self.stage_seq,
            part: self.tasks[ti].part,
            attempt: self.attempt,
            epoch: self.epoch,
            cleaned_shuffles: std::mem::take(&mut self.cleaned[slot]),
            runner: self.tasks[ti].runner.clone(),
        });
    }

    fn dispatch(&mut self, slot: usize) {
        while self.free[slot] > 0 {
            let Some(ti) = self.queues[slot].pop_front() else { break };
            self.launch(ti, slot);
        }
    }

    /// Launch what every slot has room for. Each slot with a queued task
    /// launches one here, and that launch carries the shuffles `cleaned`
    /// holds for its executor.
    fn dispatch_all(&mut self, cleaned: &Mutex<BTreeMap<usize, Vec<u32>>>) {
        let mut cleaned = cleaned.lock();
        self.cleaned = (self.execs.iter().zip(&self.queues))
            .map(|(e, queue)| {
                if queue.is_empty() {
                    Vec::new()
                } else {
                    cleaned.remove(&e.exec_id).unwrap_or_default()
                }
            })
            .collect();
        drop(cleaned);
        for slot in 0..self.execs.len() {
            self.dispatch(slot);
        }
    }

    /// A completion from `slot` frees one core there.
    fn release(&mut self, slot: usize) {
        self.free[slot] += 1;
        self.dispatch(slot);
    }

    /// The executor at `slot` is lost: nothing more is dispatched to it, and
    /// each of its unfinished tasks, launched or queued, counts as reported
    /// with no output. Returns how many tasks that settles.
    fn lose(&mut self, slot: usize) -> usize {
        self.queues[slot].clear();
        let mut settled = 0;
        for task in self.tasks.iter_mut().filter(|t| t.home == slot && !t.done) {
            task.done = true;
            settled += 1;
        }
        settled
    }
}
