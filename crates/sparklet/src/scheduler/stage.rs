//! The event-driven stage engine: attempts, epochs, lineage recovery, and
//! straggler speculation.
//!
//! A stage runs as a sequence of *attempts*. Each attempt gets a fresh
//! `stage_seq` and snapshots the map-output epoch at launch; completions
//! are matched on both, so results from aborted attempts or older epochs
//! are discarded (Spark's stale-attempt/epoch check). A `FetchFailed`
//! completion ends the attempt once all its tasks have reported, after
//! which [`JobEngine::recover`] quarantines the failing executors,
//! unregisters their map outputs (bumping the epoch), broadcasts
//! `InvalidateShuffle`, recomputes the lost parents by walking the job's
//! shuffle lineage, and resubmits only the still-missing partitions.
//!
//! When speculation is enabled, the attempt's loop wakes on a virtual
//! timer and re-launches straggler tasks on healthy executors; the first
//! finish per (stage, partition, epoch) wins and the duplicate is dropped
//! as a late completion. Everything runs on the virtual clock — the whole
//! recovery timeline is a deterministic function of the seed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use simt::queue::RecvError;

use crate::rdd::{JobSpec, ShuffleDepMeta, TaskOutput, TaskRunner};
use crate::rpc::AnyMsg;
use crate::shuffle::FetchFailed;

use super::speculation::{pick_speculation_target, DurationStats, INTERVAL_NS};
use super::{DagScheduler, ExecutorHandle, InvalidateShuffle, LaunchTask, StageMetrics};

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
    /// partitions (and map outputs stranded on an executor quarantined
    /// mid-recovery) are resubmitted until every partition has a good output.
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
            let (sm, done, failures) = self.run_attempt(&name, runners, &needed, attempt);
            self.stages.push(sm);
            collected.extend(done);
            if failures.is_empty() {
                collected.sort_by_key(|(p, _)| *p);
                return collected;
            }
            attempt += 1;
            assert!(
                attempt < MAX_STAGE_ATTEMPTS,
                "stage {name} failed after {attempt} attempts (max {MAX_STAGE_ATTEMPTS})"
            );
            self.recover(&name, &failures);
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

    /// React to an attempt's fetch failures: quarantine the blamed
    /// executors, unregister their map outputs (bumping the epoch),
    /// broadcast the invalidation, and recompute lost parents by lineage.
    /// Lost shuffles outside this job's lineage heal lazily — the next job
    /// reading them finds the holes in [`JobEngine::ensure_shuffle`].
    fn recover(&mut self, stage: &str, failures: &[FetchFailed]) {
        let sched = self.sched;
        let obs = sched.obs();
        let failed_execs: BTreeSet<usize> = failures.iter().filter_map(|f| f.exec_id).collect();
        let failed_shuffles: BTreeSet<u32> = failures.iter().map(|f| f.shuffle_id).collect();
        {
            let mut q = sched.quarantined.lock();
            for e in &failed_execs {
                q.insert(*e);
            }
        }
        let mut lost: Vec<(u32, Vec<u32>)> = Vec::new();
        for e in &failed_execs {
            lost.extend(sched.tracker.remove_executor(*e));
        }
        obs.registry().counter(obs::keys::SPARK_STAGE_RESUBMITS).inc();
        obs.event(
            "spark.stage.resubmit",
            obs::kv! {
                "stage" => stage,
                "failed_parts" => failures.len(),
                "failed_execs" => failed_execs.len(),
            },
        );
        if failed_execs.is_empty() {
            // Pure metadata failures: locations did not change, just retry.
            return;
        }
        let epoch = sched.tracker.epoch();
        let touched: BTreeSet<u32> =
            failed_shuffles.iter().copied().chain(lost.iter().map(|(s, _)| *s)).collect();
        for shuffle_id in &touched {
            for e in sched.executors() {
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

    /// Run one attempt of a stage over `parts`: dispatch, then consume task
    /// completions until every partition reported exactly once. With
    /// speculation enabled each wait is bounded by the next speculation
    /// tick, which re-launches stragglers. Returns the attempt's metrics, its
    /// successful outputs, and any fetch failures.
    fn run_attempt(
        &mut self,
        name: &str,
        runners: &[Arc<dyn TaskRunner>],
        parts: &[usize],
        attempt: u32,
    ) -> (StageMetrics, Vec<(usize, TaskOutput)>, Vec<FetchFailed>) {
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
        let quarantined = sched.quarantined.lock().clone();
        let execs: Vec<ExecutorHandle> =
            sched.executors().into_iter().filter(|e| !quarantined.contains(&e.exec_id)).collect();
        assert!(!execs.is_empty(), "no healthy executors registered");
        let start_ns = simt::now();

        let mut att = Attempt::new(execs, stage_seq, attempt, epoch, start_ns);
        for &part in parts {
            att.add_task(part, runners[part].clone());
        }
        att.dispatch_all();

        let speculation = sched.conf.speculation;
        let n = parts.len();
        let mut done = 0usize;
        let mut stats = DurationStats::default();
        let mut outputs: Vec<(usize, TaskOutput)> = Vec::with_capacity(n);
        let mut failures: Vec<FetchFailed> = Vec::new();
        let mut stage_snapshot = obs::MetricsSnapshot::default();
        let mut next_tick = start_ns + INTERVAL_NS;

        while done < n {
            let received = if speculation {
                sched.completions.recv_deadline(next_tick)
            } else {
                sched.completions.recv()
            };
            let fin = match received {
                Ok(fin) => fin,
                Err(RecvError::Timeout) => {
                    let now = simt::now();
                    att.speculate(&stats, now, &obs);
                    next_tick = now.max(next_tick) + INTERVAL_NS;
                    continue;
                }
                Err(RecvError::Closed) => panic!("scheduler completion queue closed"),
            };
            // Dedup key (stage, partition, epoch): drop completions of
            // aborted attempts and of launches that predate the current
            // map-output epoch.
            if fin.stage_seq != stage_seq || fin.epoch != epoch {
                continue;
            }
            let Some(slot) = att.slot_of(fin.exec_id) else { continue };
            att.release(slot);
            let ti = att.task_index(fin.part);
            if att.tasks[ti].done {
                continue; // a duplicate copy lost the first-finish race
            }
            att.tasks[ti].done = true;
            done += 1;
            stats.record(fin.metrics.counter(obs::keys::TASK_RUN_NS));
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
        )
    }
}

/// One launch of one task copy.
struct Launch {
    slot: usize,
    at_ns: u64,
}

/// Per-partition state within an attempt.
struct TaskState {
    part: usize,
    runner: Arc<dyn TaskRunner>,
    /// Home executor slot under modulo placement.
    home: usize,
    launches: Vec<Launch>,
    done: bool,
}

/// Slot accounting and task dispatch for one stage attempt.
struct Attempt {
    execs: Vec<ExecutorHandle>,
    stage_seq: u64,
    attempt: u32,
    epoch: u64,
    start_ns: u64,
    free: Vec<u32>,
    queues: Vec<VecDeque<usize>>,
    tasks: Vec<TaskState>,
    by_part: BTreeMap<usize, usize>,
}

impl Attempt {
    fn new(
        execs: Vec<ExecutorHandle>,
        stage_seq: u64,
        attempt: u32,
        epoch: u64,
        start_ns: u64,
    ) -> Self {
        let n_exec = execs.len();
        let free = execs.iter().map(|e| e.cores).collect();
        Attempt {
            execs,
            stage_seq,
            attempt,
            epoch,
            start_ns,
            free,
            queues: (0..n_exec).map(|_| VecDeque::new()).collect(),
            tasks: Vec::new(),
            by_part: BTreeMap::new(),
        }
    }

    /// Queue `part` on its modulo-placement home executor.
    fn add_task(&mut self, part: usize, runner: Arc<dyn TaskRunner>) {
        let home = part % self.execs.len();
        let ti = self.tasks.len();
        self.tasks.push(TaskState { part, runner, home, launches: Vec::new(), done: false });
        self.by_part.insert(part, ti);
        self.queues[home].push_back(ti);
    }

    fn task_index(&self, part: usize) -> usize {
        *self.by_part.get(&part).expect("completion for a task of this attempt")
    }

    fn slot_of(&self, exec_id: usize) -> Option<usize> {
        self.execs.iter().position(|e| e.exec_id == exec_id)
    }

    /// Send one copy of task `ti` to executor slot `slot`. A crashed node
    /// swallows the message silently; the speculation pass (or the next
    /// attempt) covers the lost launch.
    fn launch(&mut self, ti: usize, slot: usize, speculative: bool) {
        self.free[slot] -= 1;
        self.tasks[ti].launches.push(Launch { slot, at_ns: simt::now() });
        #[expect(clippy::let_underscore_must_use, reason = "a lost launch is covered like a crash")]
        let _ = self.execs[slot].rpc.send(LaunchTask {
            stage_seq: self.stage_seq,
            part: self.tasks[ti].part,
            attempt: self.attempt,
            epoch: self.epoch,
            speculative,
            runner: self.tasks[ti].runner.clone(),
        });
    }

    fn dispatch(&mut self, slot: usize) {
        while self.free[slot] > 0 {
            let Some(ti) = self.queues[slot].pop_front() else { break };
            self.launch(ti, slot, false);
        }
    }

    fn dispatch_all(&mut self) {
        for slot in 0..self.execs.len() {
            self.dispatch(slot);
        }
    }

    /// A completion (or duplicate) from `slot` frees one core there.
    fn release(&mut self, slot: usize) {
        self.free[slot] += 1;
        self.dispatch(slot);
    }

    /// One speculation pass: for every unfinished task whose latest launch
    /// has been running past the median-based threshold, launch one more
    /// copy on the executor with the most free slots that has not run it
    /// yet (ties break to the lowest slot — deterministic). Tasks still
    /// queued behind a stalled executor are stolen to an idle one instead
    /// of duplicated.
    fn speculate(&mut self, stats: &DurationStats, now: u64, o: &obs::Obs) {
        let Some(threshold) = stats.threshold(self.tasks.len()) else {
            return;
        };
        for ti in 0..self.tasks.len() {
            if self.tasks[ti].done {
                continue;
            }
            if self.tasks[ti].launches.is_empty() {
                // Queued on an executor that has not freed a slot all this
                // time (e.g. crashed with tasks in flight): steal, don't
                // duplicate.
                if now.saturating_sub(self.start_ns) <= threshold {
                    continue;
                }
                let exclude = BTreeSet::from([self.tasks[ti].home]);
                let Some(target) = pick_speculation_target(&self.free, &exclude) else {
                    continue;
                };
                let home = self.tasks[ti].home;
                if let Some(pos) = self.queues[home].iter().position(|&x| x == ti) {
                    self.queues[home].remove(pos);
                }
                self.launch(ti, target, false);
                continue;
            }
            // One extra copy per crossing of the threshold by the *latest*
            // launch: a copy that itself stalls (sent into a crash window)
            // can be covered again, bounded by one copy per executor.
            if self.tasks[ti].launches.len() >= self.execs.len() {
                continue;
            }
            let last = self.tasks[ti].launches.last().expect("nonempty launches");
            if now.saturating_sub(last.at_ns) <= threshold {
                continue;
            }
            let ran_on: BTreeSet<usize> = self.tasks[ti].launches.iter().map(|l| l.slot).collect();
            let Some(target) = pick_speculation_target(&self.free, &ran_on) else {
                continue;
            };
            o.registry().counter(obs::keys::SPARK_SPECULATIVE_TASKS).inc();
            o.event(
                "spark.task.speculative",
                obs::kv! {
                    "part" => self.tasks[ti].part,
                    "from" => self.execs[last.slot].exec_id,
                    "to" => self.execs[target].exec_id,
                },
            );
            self.launch(ti, target, true);
        }
    }
}
