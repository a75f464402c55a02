//! Bounded-latency jobs: the `JobHandle` submission seam and the
//! partial/approximate actions built on it.
//!
//! Two correctness stories:
//!
//! 1. **Never-firing deadline ⇒ exact.** An approximate action whose
//!    virtual-clock budget outlives the job must return the exact answer
//!    (`is_final`, full coverage, degenerate interval) — checked over
//!    seeded random data on all four of the paper's systems.
//! 2. **Deadline mid-recovery ⇒ honest interval.** A chaos cell crashes a
//!    node during the reduce fetch so lineage recovery is in flight when
//!    the deadline fires; the returned confidence interval must bracket the
//!    true count, cover strictly fewer than all partitions, and be
//!    byte-identical across same-seed re-runs.

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use simt::for_each_case;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::{JobMetrics, SparkContext};
use sparklet::{BoundedDouble, CountEvaluator, JobOptions, PartialResult, SparkConf};
use workloads::{RunOutcome, System};

const MS: u64 = 1_000_000;
/// A finite deadline no test job can reach (~17 virtual minutes).
const NEVER: u64 = 1_000_000 * MS;
/// Worker node hosting the victim executor (`ClusterSpec::test(5)` +
/// `paper_layout`: workers on 0..2, master on 3, driver on 4).
const VICTIM: usize = 1;

fn all_systems() -> [System; 4] {
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark]
}

/// Baseline conf of the AQE/recovery suites.
fn partial_conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

fn run<R: Send + Sync + 'static>(
    system: System,
    conf: SparkConf,
    app: impl FnOnce(&SparkContext) -> R + Send + 'static,
) -> RunOutcome<R> {
    let spec = ClusterSpec::test(4);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    system.run(&spec, cluster, app)
}

// --- 1. never-firing deadline equals the exact action ----------------------

/// `count_approx` / `sum_approx` / `mean_approx` with an unreachable
/// deadline return the exact answers on every system. Data is integer-
/// valued so partition sums are exact in `f64` regardless of the fold
/// order, making float equality legitimate.
#[test]
fn approx_equals_exact_under_never_firing_deadline() {
    for_each_case(3, |rng| {
        let vals: Vec<u64> = (0..40).map(|_| rng.next_range(0, 100_000)).collect();
        let parts = rng.next_range(2, 6) as usize;
        let n = vals.len() as f64;
        let sum: f64 = vals.iter().map(|&v| v as f64).sum();
        let mean = sum / n;
        for system in all_systems() {
            let data = vals.clone();
            let out = run(system, partial_conf(), move |sc| {
                let rdd = sc.parallelize(data, parts).cache();
                let exact = rdd.count();
                let c = rdd.count_approx(NEVER, None);
                let s = rdd.sum_approx(NEVER, None);
                let m = rdd.mean_approx(NEVER, None);
                (exact, c, s, m)
            });
            let (exact, c, s, m) = out.result.clone();
            assert_eq!(c.value, BoundedDouble::exact(exact as f64));
            assert!(c.is_final && c.partitions_seen == c.total_partitions);
            assert_eq!(s.value, BoundedDouble::exact(sum));
            assert!(s.is_final);
            assert_eq!(m.value, BoundedDouble::exact(mean));
            assert!(m.is_final);
            // The three approximate submissions rode the partial path (the
            // exact `count` did not), and none expired.
            let partial_jobs = out.metrics.counter(keys::SPARK_PARTIAL_JOBS);
            assert_eq!(partial_jobs, 3);
            let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED) > 0;
            assert!(!fired);
        }
    });
}

#[test]
fn count_by_key_approx_equals_exact_under_never_firing_deadline() {
    let pairs: Vec<(u64, u64)> = (0..200u64).map(|i| (i % 7, i)).collect();
    let expected: Vec<(u64, BoundedDouble)> = (0..7u64)
        .map(|k| (k, BoundedDouble::exact((200 / 7 + u64::from(k < 200 % 7)) as f64)))
        .collect();
    for system in all_systems() {
        let data = pairs.clone();
        let out = run(system, partial_conf(), move |sc| {
            sc.parallelize(data, 5).count_by_key_approx(NEVER, None)
        });
        assert_eq!(out.result.value, expected, "{}: wrong per-key counts", system.label());
        assert!(out.result.is_final, "{}: complete job must be final", system.label());
        let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED) > 0;
        assert!(!fired, "{}: deadline must not fire", system.label());
    }
}

/// A `count_approx` that beats its budget, then an exact groupBy on the same
/// context.
fn approx_then_exact(sc: &SparkContext, timeout_ns: u64) -> (PartialResult<BoundedDouble>, u64) {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    let rdd = sc.parallelize(pairs, 8);
    (rdd.count_approx(timeout_ns, None), rdd.group_by_key(6).count())
}

#[test]
fn a_met_deadline_never_cuts_the_next_job() {
    // The first job's deadline instant lands mid-way through the second job.
    // It belongs to the first job alone: the second job runs to its exact
    // answer on the clean run's exact timeline.
    for system in all_systems() {
        let clean = run(system, partial_conf(), |sc| approx_then_exact(sc, NEVER));
        let (first, second) = (&clean.jobs[0], &clean.jobs[1]);
        let mid_second = second.start_ns + second.duration_ns() / 2;
        let budget = mid_second - first.start_ns;
        assert!(first.end_ns < mid_second, "{}: budget must outlive job 0", system.label());

        let out = run(system, partial_conf(), move |sc| approx_then_exact(sc, budget));
        let (approx, groups) = &out.result;
        assert_eq!(approx.value, BoundedDouble::exact(400.0), "{}", system.label());
        assert_eq!(*groups, 23, "{}: the second job must be exact", system.label());
        let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED);
        assert_eq!(fired, 0, "{}: a met deadline must not fire", system.label());
        let spans = |jobs: &[JobMetrics]| -> Vec<(u64, u64)> {
            jobs.iter().map(|j| (j.start_ns, j.end_ns)).collect()
        };
        assert_eq!(spans(&out.jobs), spans(&clean.jobs), "{}: timeline moved", system.label());
    }
}

// --- 2. deadline expiry --------------------------------------------------

#[test]
fn zero_budget_deadline_yields_zero_information_interval() {
    // A zero budget puts the deadline at the submission instant, so the
    // job expires at its first wait, before it handles any task completion:
    // nothing seen, the count interval is the no-information `[0, ∞)`.
    for system in all_systems() {
        let out = run(system, partial_conf(), move |sc| {
            let r = sc.parallelize((0..100u64).collect(), 4).count_approx(0, None);
            simt::sleep(10 * MS); // let the abandoned tasks drain
            r
        });
        let r = out.result.clone();
        let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED) > 0;
        assert!(fired, "{}: zero budget must expire", system.label());
        assert_eq!(r.partitions_seen, 0, "{}: nothing completes at t=0", system.label());
        assert!(!r.is_final, "{}: expired job is not final", system.label());
        assert!(r.value.contains(100.0), "{}: [low, ∞) must bracket truth", system.label());
        assert_eq!(r.value.confidence, 0.0, "{}: no data, no confidence", system.label());
    }
}

/// Chaos-tuned conf: compressed fetch/RPC timeouts (as in
/// `recovery_chaos_tests`).
fn chaos_conf() -> SparkConf {
    let mut conf = partial_conf();
    conf.merge_chunks_per_request = false;
    conf.connect_timeout_ns = 50 * MS;
    conf.request_timeout_ns = 100 * MS;
    conf.fetch_timeout_ns = 150 * MS;
    conf.fetch_max_retries = 1;
    conf.fetch_retry_base_ns = 20 * MS;
    conf.fetch_retry_max_ns = 100 * MS;
    conf
}

/// `count_approx` over a 9-map × 24-reduce groupBy — more reduce partitions
/// than the cluster's 12 cores, so the result stage runs in waves and a
/// mid-stage crash leaves completed partitions *seen* and lost ones not.
fn approx_groupby_count(sc: &SparkContext, timeout_ns: u64) -> PartialResult<BoundedDouble> {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    sc.parallelize(pairs, 9).group_by_key(24).count_approx(timeout_ns, None)
}

fn chaos_cluster(nodes: usize) -> ClusterConfig {
    let mut cluster = ClusterConfig::paper_layout(nodes, chaos_conf());
    cluster.app_jar_bytes = 1 << 20;
    cluster
}

#[test]
fn deadline_mid_recovery_brackets_truth_and_is_deterministic() {
    // The victim dies partway through the reduce stage: completed reduce
    // partitions are already folded, in-flight fetches of the victim's map
    // outputs time out, and `FetchFailed`-driven lineage recovery is under
    // way when the deadline fires. The answer must be an honest interval
    // over the partitions that made it.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        // Clean run (virtual time is deterministic): job submission instant
        // and reduce-stage span position the crash window and the deadline.
        let clean =
            system.run(&spec, chaos_cluster(spec.len()), move |sc| approx_groupby_count(sc, NEVER));
        assert!(clean.result.is_final, "{}: clean run must complete", system.label());
        assert!(clean.result.value.contains(23.0), "{}: 23 groups", system.label());
        let job = &clean.jobs[0];
        let reduce =
            job.stages.iter().find(|s| s.name.contains("ResultStage")).expect("reduce stage");
        // Crash 60% into the reduce stage (first wave done, second in
        // flight); deadline 400 virtual ms later — past the ~320 ms the
        // compressed fetch timeouts need to surface `FetchFailed`, before
        // recompute + refetch can finish.
        let crash_at = reduce.start_ns + (reduce.end_ns - reduce.start_ns) * 6 / 10;
        let timeout = crash_at - job.start_ns + 400 * MS;
        let window = 600 * MS;

        let chaos_run = || {
            let plan = FaultPlan::seeded(31).crash_node(VICTIM, crash_at, window).build();
            system.run_with_chaos(&spec, chaos_cluster(spec.len()), plan, move |sc| {
                let r = approx_groupby_count(sc, timeout);
                // Window discipline: outlive the crash window so the
                // revived node tears down normally.
                simt::sleep(2 * window);
                r
            })
        };
        let out = chaos_run();
        let r = &out.result;
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the crash window never bit", system.label());
        let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED) > 0;
        assert!(fired, "{}: deadline must fire mid-recovery", system.label());
        assert!(
            r.partitions_seen > 0 && r.partitions_seen < r.total_partitions,
            "{}: expected partial coverage, saw {}/{}",
            system.label(),
            r.partitions_seen,
            r.total_partitions
        );
        assert!(
            r.value.contains(23.0),
            "{}: interval [{}, {}] must bracket the true 23 groups",
            system.label(),
            r.value.low,
            r.value.high
        );
        // Same seed, same virtual schedule, same bytes.
        let again = chaos_run();
        assert_eq!(out.result, again.result, "{}: re-run must be identical", system.label());
        let seen = out.metrics.counter(keys::SPARK_PARTIAL_PARTITIONS_SEEN);
        let again_seen = again.metrics.counter(keys::SPARK_PARTIAL_PARTITIONS_SEEN);
        assert_eq!(seen, again_seen, "{}: fold counts must match across re-runs", system.label());
    }
}

#[test]
fn expiry_mid_stage_teardown_races_inflight_task_sends() {
    // Regression: a deadline that fires while tasks are still running leaves
    // those tasks alive through cluster teardown, and their completion sends
    // race the RPC environments' shutdown. `RpcEnv::shutdown` (and the block
    // transfer service's `close`) used to hold their client-cache lock while
    // closing each connection — a virtual-clock wait point — so a late
    // `TaskFinished` send OS-blocked on the lock while holding the engine's
    // run token and froze the whole simulation. The two budgets below land
    // the expiry mid-map-stage and mid-reduce-stage on a straggler fabric,
    // the exact schedules that deadlocked; completing at all is the assert.
    let spec = ClusterSpec::test(5);
    let n: u64 = 48_000;
    for timeout in [2 * MS, 17_988_790] {
        let plan = FaultPlan::seeded(41).slow_node(VICTIM, 0, 100_000_000 * MS, 2 * MS).build();
        let cluster = ClusterConfig::paper_layout(spec.len(), partial_conf());
        let out = System::Mpi4SparkBasic.run_with_chaos(&spec, cluster, plan, move |sc| {
            let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i % 500, i)).collect();
            sc.parallelize(pairs, 12).group_by_key(48).count_approx(timeout, None)
        });
        let r = &out.result;
        let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED) > 0;
        assert!(fired, "budget {timeout}: deadline must fire");
        assert!(!r.is_final, "budget {timeout}: expired job is not final");
        assert!(
            r.partitions_seen < r.total_partitions,
            "budget {timeout}: expired run cannot have full coverage"
        );
        if r.partitions_seen >= 2 {
            assert!(
                r.value.contains(500.0),
                "budget {timeout}: interval [{}, {}] must bracket the 500 groups",
                r.value.low,
                r.value.high
            );
        }
    }
}

// --- the raw JobHandle surface ---------------------------------------------

#[test]
fn job_handle_poll_tracks_progress_and_converges_to_exact() {
    // Drive `Rdd::submit_job` directly: an evaluator with no deadline, the
    // handle polled while the job runs. Coverage is monotone and the final
    // poll is the exact count.
    let out = run(System::Mpi4Spark, partial_conf(), |sc| {
        let rdd = sc.parallelize((0..500u64).collect(), 8);
        let opts =
            JobOptions { evaluator: Some(Box::new(CountEvaluator::new(0.9))), timeout_ns: None };
        let handle = rdd.submit_job("count_poll", |_ctx, v| v.len() as u64, opts);
        let early = handle.poll::<BoundedDouble>().expect("evaluator attached");
        let mut last = early.partitions_seen;
        while !handle.is_complete() {
            simt::sleep(MS);
            let now = handle.poll::<BoundedDouble>().expect("evaluator attached").partitions_seen;
            assert!(now >= last, "coverage must be monotone ({now} < {last})");
            last = now;
        }
        let outcome = handle.wait();
        let fin = outcome.partial::<BoundedDouble>();
        assert_eq!(outcome.into_results().len(), 8, "one exact result per partition");
        (early, fin)
    });
    let (early, fin) = out.result.clone();
    assert!(early.coverage() <= fin.coverage());
    assert_eq!(fin.value, BoundedDouble::exact(500.0));
    assert!(fin.is_final);
    // An evaluator was attached, so the submission rode the partial path.
    let partial_jobs = out.metrics.counter(keys::SPARK_PARTIAL_JOBS);
    assert_eq!(partial_jobs, 1);
    let fired = out.metrics.counter(keys::SPARK_PARTIAL_DEADLINES_FIRED) > 0;
    assert!(!fired);
}
