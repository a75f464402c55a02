//! Shuffle cleanup on all four systems: once nothing holds a shuffle's
//! dependency, the driver forgets the shuffle when the next job starts, and
//! each executor drops its map outputs and its cached table with its next task
//! launch. A shuffle that a live RDD still holds is never cleaned, and a later
//! job that reads it skips its map stage.

use std::collections::BTreeMap;

use fabric::ClusterSpec;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::SparkConf;
use workloads::System;

/// Jobs in the loop, each with a shuffle of its own.
const ITERATIONS: u64 = 6;

fn conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

fn records() -> Vec<(u64, u64)> {
    (0..400u64).map(|i| (i % 23, i)).collect()
}

/// Per key, the sum of `scale × v` over `records()`.
fn oracle(scale: u64) -> Vec<(u64, u64)> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for (k, v) in records() {
        *sums.entry(k).or_default() += scale * v;
    }
    sums.into_iter().collect()
}

/// What every executor holds, by one task on each: the shuffles with map
/// outputs in its block manager and those whose table its tracker client
/// caches. The probe is a job, so it starts with the driver's cleanup.
fn executor_holdings(sc: &SparkContext) -> Vec<(usize, Vec<u32>, Vec<u32>)> {
    let n = sc.scheduler().executors().len();
    let mut held: Vec<(usize, Vec<u32>, Vec<u32>)> = sc
        .parallelize((0..n as u64).collect(), n)
        .run_partitions("probe", |ctx, _| {
            let services = &ctx.services;
            (
                services.exec_id,
                services.block_manager.shuffle_ids(),
                services.map_outputs.cached_shuffle_ids(),
            )
        })
        .into_iter()
        .map(|h| h.as_ref().clone())
        .collect();
    held.sort();
    held.dedup_by_key(|h| h.0);
    assert_eq!(held.len(), n, "the probe reached every executor");
    held
}

fn ran_a_map_stage(sc: &SparkContext) -> bool {
    let job = sc.job_metrics().pop().expect("a job ran");
    job.stages.iter().any(|s| s.name.contains("ShuffleMapStage"))
}

#[test]
fn a_dropped_shuffle_is_cleaned_everywhere_and_a_live_one_is_kept() {
    let spec = ClusterSpec::test(5);
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let label = system.label();
        let cluster = ClusterConfig::paper_layout(spec.len(), conf());
        system.run(&spec, cluster, move |sc| {
            let data = sc.parallelize(records(), 8);
            let tracked = || sc.scheduler().tracker.shuffle_ids();

            // A shuffle a live RDD reads in two jobs: the second skips its
            // map stage.
            let kept = data.reduce_by_key(6, |a, b| a + b);
            let mut first = kept.collect();
            assert!(ran_a_map_stage(sc), "{label}: the first read runs the map stage");
            let kept_id = match tracked()[..] {
                [id] => id,
                ref ids => panic!("{label}: one shuffle registered, not {ids:?}"),
            };
            first.sort_unstable();
            assert_eq!(first, oracle(1), "{label}");

            for i in 1..=ITERATIONS {
                let mut sums =
                    data.map(move |(k, v)| (k, i * v)).reduce_by_key(5, |a, b| a + b).collect();
                sums.sort_unstable();
                assert_eq!(sums, oracle(i), "{label}: iteration {i}");
                assert!(tracked().len() <= 2, "{label}: at most the kept and the last shuffle");

                for (exec, outputs, cached) in executor_holdings(sc) {
                    assert!(
                        outputs.iter().chain(&cached).all(|&id| id == kept_id),
                        "{label}: after job {i}, executor {exec} still holds cleaned shuffles: \
                         map outputs of {outputs:?}, tables of {cached:?}"
                    );
                }
                assert_eq!(tracked(), vec![kept_id], "{label}: the tracker after job {i}");
            }

            // The kept shuffle's outputs outlived every cleanup.
            let held_somewhere = executor_holdings(sc).iter().any(|(_, o, _)| o == &[kept_id]);
            assert!(held_somewhere, "{label}: the kept shuffle's map outputs are gone");
            let mut again = kept.collect();
            assert!(!ran_a_map_stage(sc), "{label}: a reused shuffle skips its map stage");
            again.sort_unstable();
            assert_eq!(again, oracle(1), "{label}");
        });
    }
}
