//! The post-paper feature bench — lineage recovery + speculation — with the
//! contracts those subsystems must honour asserted on every run.

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::SparkConf;
use workloads::System;

use crate::record::{counters, Run};
use crate::Scale;

const MS: u64 = 1_000_000;
/// Worker node the faults target (`ClusterSpec::test(5)` + `paper_layout`:
/// workers on 0..2, master on 3, driver on 4).
const VICTIM: usize = 1;

/// 4 cores per executor, 10 µs task overhead, and fetch timeouts and
/// retries short enough for a crash to surface within the run.
fn recovery_conf(speculation: bool) -> SparkConf {
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
    conf.speculation = speculation;
    conf
}

/// Recovery overhead: a 9×9 GroupBy on MPI4Spark-Optimized, fault-free with
/// speculation off and on; **crash-map** (the victim dies as the map stage
/// launches and speculation re-runs the stranded tasks); **crash-reduce**
/// (it dies after writing its map outputs, so fetch retries exhaust and the
/// scheduler quarantines it, recomputes the lost partitions by lineage and
/// resubmits the reduce attempt); **slowdown** with speculation off and on.
pub fn recovery(run: &mut Run<'_>) {
    let pairs: u64 = if run.scale == Scale::Full { 40_000 } else { 2_000 };
    let spec = ClusterSpec::test(5);
    let groupby = move |sc: &SparkContext| {
        let data: Vec<(u64, u64)> = (0..pairs).map(|i| (i % 97, i)).collect();
        sc.parallelize(data, 9).group_by_key(9).collect().len()
    };
    // Returns the cell's record and its jobs' stage timings.
    let mut cell = |fault: &str, speculation: bool, plan: Option<FaultPlan>, linger_ns: u64| {
        let cluster = ClusterConfig::paper_layout(spec.len(), recovery_conf(speculation));
        let out = match plan {
            // Linger so teardown outlives the crash window.
            Some(plan) => System::Mpi4Spark.run_with_chaos(&spec, cluster, plan, move |sc| {
                let n = groupby(sc);
                simt::sleep(linger_ns);
                n
            }),
            None => System::Mpi4Spark.run(&spec, cluster, groupby),
        };
        assert_eq!(out.result, 97, "{fault}: wrong group count");
        let on_off = if speculation { "on" } else { "off" };
        let rec = run.emit(
            &[("fault", fault.to_string()), ("speculation", on_off.to_string())],
            out.total_ns(),
            counters(&out.metrics, &[keys::SPARK_STAGE_RESUBMITS, keys::SPARK_SPECULATIVE_TASKS]),
        );
        (rec, out.jobs)
    };
    let (clean_off, _) = cell("fault-free", false, None, 0);
    let (clean_on, clean_jobs) = cell("fault-free", true, None, 0);
    // Stage start times of the fault-free speculation-on run aim the faults.
    let stage_start = |name: &str| {
        let stage = clean_jobs.iter().flat_map(|j| j.stages.iter()).find(|s| s.name == name);
        stage.unwrap_or_else(|| panic!("no stage named {name}")).start_ns.saturating_sub(50_000)
    };
    let (map_start, reduce_start) =
        (stage_start("Job0-ShuffleMapStage"), stage_start("Job0-ResultStage"));
    let crash = |start, dur| Some(FaultPlan::seeded(31).crash_node(VICTIM, start, dur).build());
    let slow =
        || Some(FaultPlan::seeded(32).slow_node(VICTIM, map_start, 10_000 * MS, 20 * MS).build());
    let (crash_map, _) = cell("crash-map", true, crash(map_start, 50 * MS), 100 * MS);
    let (crash_reduce, _) = cell("crash-reduce", true, crash(reduce_start, 600 * MS), 1_200 * MS);
    let (slow_off, _) = cell("slowdown", false, slow(), 0);
    let (slow_on, _) = cell("slowdown", true, slow(), 0);

    assert_eq!(
        clean_on.virtual_ns, clean_off.virtual_ns,
        "the speculation tick loop must not change a straggler-free job's virtual time"
    );
    assert!(
        crash_map.value(keys::SPARK_SPECULATIVE_TASKS) >= 1,
        "crash-map must speculate stranded tasks"
    );
    assert!(
        crash_reduce.value(keys::SPARK_STAGE_RESUBMITS) >= 1,
        "crash-reduce must resubmit a stage"
    );
    assert!(
        2 * slow_on.virtual_ns < slow_off.virtual_ns,
        "speculation must measurably cut the slowdown cell's virtual job time ({} vs {} ns)",
        slow_on.virtual_ns,
        slow_off.virtual_ns
    );
}
