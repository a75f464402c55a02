//! The post-paper feature bench — lineage recovery after an executor
//! loss — with the contracts that path must honour asserted on every run.

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

/// Recovery overhead: a 9×9 GroupBy on MPI4Spark-Optimized, fault-free;
/// **crash-map** (the victim's node crashes 50 µs before the map stage
/// launches, so its tasks never run; the driver loses the executor when
/// the crash resets its channels and reruns them elsewhere);
/// **crash-reduce** (it crashes 50 µs into the reduce stage, after writing
/// its map outputs, so the scheduler quarantines it, recomputes the lost
/// partitions by lineage and resubmits the reduce attempt).
pub fn recovery(run: &mut Run<'_>) {
    let pairs: u64 = if run.scale == Scale::Full { 40_000 } else { 2_000 };
    let spec = ClusterSpec::test(5);
    let groupby = move |sc: &SparkContext| {
        let data: Vec<(u64, u64)> = (0..pairs).map(|i| (i % 97, i)).collect();
        sc.parallelize(data, 9).group_by_key(9).collect().len()
    };
    // Returns the cell's record and its jobs' stage timings.
    let mut cell = |fault: &str, plan: Option<FaultPlan>, linger_ns: u64| {
        let cluster = ClusterConfig::paper_layout(spec.len(), recovery_conf());
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
        let rec = run.emit(
            &[("fault", fault.to_string())],
            out.total_ns(),
            counters(&out.metrics, &[keys::SPARK_STAGE_RESUBMITS, keys::SPARK_EXECUTORS_LOST]),
        );
        (rec, out.jobs)
    };
    let (_, clean_jobs) = cell("fault-free", None, 0);
    // Stage start times of the fault-free run aim the crashes.
    let stage_start = |name: &str| {
        let stage = clean_jobs.iter().flat_map(|j| j.stages.iter()).find(|s| s.name == name);
        stage.unwrap_or_else(|| panic!("no stage named {name}")).start_ns
    };
    let map_start = stage_start("Job0-ShuffleMapStage").saturating_sub(50_000);
    let reduce_start = stage_start("Job0-ResultStage") + 50_000;
    let crash = |start, dur| Some(FaultPlan::seeded(31).crash_node(VICTIM, start, dur).build());
    let crash_map = cell("crash-map", crash(map_start, 50 * MS), 100 * MS).0;
    let crash_reduce = cell("crash-reduce", crash(reduce_start, 600 * MS), 1_200 * MS).0;

    for (name, rec) in [("crash-map", &crash_map), ("crash-reduce", &crash_reduce)] {
        assert_eq!(rec.value(keys::SPARK_EXECUTORS_LOST), 1, "{name} must lose one executor");
        assert!(rec.value(keys::SPARK_STAGE_RESUBMITS) >= 1, "{name} must resubmit a stage");
    }
}
