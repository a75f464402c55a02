//! Recovery chaos matrix: {executor crash during map, executor crash during
//! reduce fetch} × the paper's four systems.
//!
//! Unlike `chaos_tests.rs` (which exercises the per-block *fetch retry*
//! layer), these cells force the scheduler's *stage machinery*. A node
//! crash resets every channel to the node, and the driver turns the reset
//! into an executor loss: mid-map, the victim's tasks never report, so the
//! attempt settles them as lost and the next attempt reruns them
//! elsewhere; during the reduce's shuffle read, the reset fails the
//! victim's fetches into `FetchFailed`, and recovery quarantines it,
//! recomputes its map outputs by lineage and resubmits the stage under a
//! bumped map-output epoch.
//!
//! Window discipline: `FaultPlan::crash_node` silently swallows every
//! message to and from the node, including the teardown `StopWorker`, so
//! every crash window is finite and the workload sleeps past the window's
//! end before returning — the revived node then shuts down normally and
//! the sim quiesces clean.

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::SparkConf;
use workloads::System;

const MS: u64 = 1_000_000;
/// Worker node hosting the victim executor (`ClusterSpec::test(5)` +
/// `paper_layout`: workers on 0..3, master on 3, driver on 4).
const VICTIM: usize = 1;

/// Chaos-tuned conf. Timeouts and the retry budget are compressed so a
/// crashed shuffle source exhausts its per-block retries within a few
/// hundred virtual milliseconds.
fn recovery_conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf.merge_chunks_per_request = false;
    conf.connect_timeout_ns = 50 * MS;
    conf.request_timeout_ns = 100 * MS;
    conf.fetch_timeout_ns = 150 * MS;
    conf.fetch_max_retries = 1;
    conf.fetch_retry_base_ns = 20 * MS;
    conf.fetch_retry_max_ns = 100 * MS;
    conf
}

fn all_systems() -> [System; 4] {
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark]
}

/// 9 map × 9 reduce partitions over 3 executors × 4 cores: the victim hosts
/// tasks of both stages and shuffle traffic crosses every worker link.
fn groupby(sc: &SparkContext) -> Vec<(u64, Vec<u64>)> {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    let mut groups = sc.parallelize(pairs, 9).group_by_key(9).collect();
    groups.sort_by_key(|(k, _)| *k);
    groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
    groups
}

fn oracle() -> Vec<(u64, Vec<u64>)> {
    (0..23u64).map(|k| (k, (0..400u64).filter(|i| i % 23 == k).collect())).collect()
}

/// `start_ns` of the named stage in a fault-free run under `recovery_conf`
/// — virtual time is deterministic, so crash windows measured here land at
/// the same instant in the chaos run.
fn measure_stage_start(system: System, spec: &ClusterSpec, fragment: &str) -> u64 {
    let mut cluster = ClusterConfig::paper_layout(spec.len(), recovery_conf());
    // A small jar: three concurrent 32 MB fetches through the driver link
    // would not fit the compressed request timeout above.
    cluster.app_jar_bytes = 1 << 20;
    let out = system.run(spec, cluster, groupby);
    assert_eq!(out.result, oracle(), "{}: clean run must be correct", system.label());
    out.jobs
        .iter()
        .flat_map(|j| j.stages.iter())
        .find(|s| s.name == fragment)
        .unwrap_or_else(|| panic!("{}: no stage named {fragment}", system.label()))
        .start_ns
}

/// 50 µs into the reduce stage: the victim has written its map outputs and
/// its peers are fetching them.
fn reduce_crash_start(system: System, spec: &ClusterSpec) -> u64 {
    measure_stage_start(system, spec, "Job0-ResultStage") + 50_000
}

/// Run `groupby` under `plan`, sleeping `linger_ns` after the job so the
/// teardown happens with every crash window closed.
fn run_recovery(
    system: System,
    spec: &ClusterSpec,
    plan: FaultPlan,
    linger_ns: u64,
    trace: bool,
) -> workloads::RunOutcome<Vec<(u64, Vec<u64>)>> {
    let mut conf = recovery_conf();
    conf.trace_timeline = trace;
    let mut cluster = ClusterConfig::paper_layout(spec.len(), conf);
    cluster.app_jar_bytes = 1 << 20;
    system.run_with_chaos(spec, cluster, plan, move |sc| {
        let out = groupby(sc);
        simt::sleep(linger_ns);
        out
    })
}

#[test]
fn executor_crash_during_map_is_detected_and_rerun_on_all_systems() {
    // The victim node dies just as the map stage launches: its `LaunchTask`
    // messages are swallowed, so its partitions never report. The crash
    // resets the driver's channels to the node, the stage loop loses the
    // executor and settles its tasks, and the next attempt reruns them on
    // the healthy executors.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let start = measure_stage_start(system, &spec, "Job0-ShuffleMapStage");
        let window = 50 * MS;
        let plan =
            FaultPlan::seeded(21).crash_node(VICTIM, start.saturating_sub(50_000), window).build();
        let out = run_recovery(system, &spec, plan, 2 * window, false);
        assert_eq!(out.result, oracle(), "{}: wrong result after map-stage crash", system.label());
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the crash window never bit", system.label());
        let lost = out.metrics.counter(keys::SPARK_EXECUTORS_LOST);
        assert_eq!(lost, 1, "{}: the crashed executor was not lost once", system.label());
        // The crash hooks run on the engine: no thread waits for the window.
        let hook = out.spawned.get("fabric-node-down");
        assert_eq!(hook, None, "{}: a thread waited for the crash", system.label());
    }
}

#[test]
fn executor_crash_during_reduce_fetch_resubmits_stages_on_all_systems() {
    // The victim dies after writing its map outputs, as the reduce stage
    // fetches them. Its fetches fail, `FetchFailed` blames the victim, the
    // driver loses its executor, and the scheduler must quarantine it, bump
    // the epoch, recompute the lost map partitions by lineage (`-retry`
    // stage), and resubmit the failed reduce partitions — fetch retries
    // alone cannot finish this job.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let start = reduce_crash_start(system, &spec);
        let window = 600 * MS;
        let plan = FaultPlan::seeded(22).crash_node(VICTIM, start, window).build();
        let out = run_recovery(system, &spec, plan, 2 * window, false);
        assert_eq!(out.result, oracle(), "{}: wrong result after reduce crash", system.label());
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the crash window never bit", system.label());
        let resubmits = out.metrics.counter(keys::SPARK_STAGE_RESUBMITS);
        let retries = out.metrics.counter(keys::SPARK_FETCH_RETRIES);
        assert!(
            resubmits >= 1,
            "{}: no stage resubmission (dropped {}, retries {})",
            system.label(),
            dropped,
            retries
        );
        let retried = out
            .jobs
            .iter()
            .flat_map(|j| j.stages.iter())
            .any(|s| s.name.contains("retry") || s.attempt > 0);
        assert!(retried, "{}: no lineage recompute or reattempt recorded", system.label());
        let lost = out.metrics.counter(keys::SPARK_EXECUTORS_LOST);
        assert_eq!(lost, 1, "{}: the crashed executor was not lost once", system.label());
    }
}

#[test]
fn same_seed_recovery_timeline_is_byte_identical_on_all_systems() {
    // The acceptance bar for determinism: the full recovery — crash window,
    // channel resets, executor loss, quarantine, epoch bump, stage
    // resubmission — replays byte-for-byte from the same seed, asserted on
    // the exported trace timeline, not just on summary counters.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let start = reduce_crash_start(system, &spec);
        let window = 600 * MS;
        let run = || {
            let plan = FaultPlan::seeded(24).crash_node(VICTIM, start, window).build();
            run_recovery(system, &spec, plan, 2 * window, true)
        };
        let a = run();
        let b = run();
        assert_eq!(a.result, b.result, "{}: results differ across reruns", system.label());
        assert_eq!(a.result, oracle(), "{}: wrong recovered result", system.label());
        let resubmits = a.metrics.counter(keys::SPARK_STAGE_RESUBMITS);
        assert!(resubmits >= 1, "{}: no resubmission to replay", system.label());
        let (ta, tb) = (a.timeline.expect("traced run"), b.timeline.expect("traced run"));
        assert_eq!(ta, tb, "{}: recovery timeline is not byte-identical", system.label());
    }
}
