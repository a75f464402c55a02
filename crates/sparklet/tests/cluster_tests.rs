//! End-to-end cluster tests: deploy master/workers/executors over the
//! simulated fabric, run real RDD jobs, and check results against
//! sequential oracles.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::ClusterSpec;
use obs::keys;
use sparklet::deploy::{simulate, ClusterConfig, ProcessBuilderLauncher};
use sparklet::{NetworkBackend, SparkConf, VanillaBackend};

fn conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000; // keep tiny jobs quick
    conf
}

fn small_cluster() -> (ClusterSpec, ClusterConfig) {
    let spec = ClusterSpec::test(5); // 3 workers + master + driver
    (spec.clone(), ClusterConfig::paper_layout(spec.len(), conf()))
}

fn backend() -> Arc<dyn NetworkBackend> {
    Arc::new(VanillaBackend::with_conf(&conf()))
}

#[test]
fn count_over_generated_data() {
    let (spec, cluster) = small_cluster();
    let (result, metrics) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let rdd = sc.generate(6, |p| (0..100u64).map(|i| p as u64 * 1000 + i).collect());
            rdd.count()
        });
    assert_eq!(result, 600);
    assert_eq!(metrics.len(), 1);
    assert_eq!(metrics[0].stages.len(), 1);
    assert!(metrics[0].stages[0].name.contains("Job0-ResultStage"));
}

#[test]
fn collect_returns_all_records() {
    let (spec, cluster) = small_cluster();
    let (mut result, _) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            sc.parallelize((0..50u64).collect(), 7).collect()
        });
    result.sort_unstable();
    assert_eq!(result, (0..50).collect::<Vec<u64>>());
}

#[test]
fn map_filter_reduce_pipeline() {
    let (spec, cluster) = small_cluster();
    let (result, _) = simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
        sc.parallelize((1..=100u64).collect(), 8)
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .reduce(|a, b| a + b)
    });
    // Doubles of 1..=100 divisible by 4 are 4,8,...,200 → sum = 4*(1+..+50).
    assert_eq!(result, Some(4 * (50 * 51 / 2)));
}

#[test]
fn group_by_key_matches_oracle() {
    let (spec, cluster) = small_cluster();
    let (mut result, metrics) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let pairs: Vec<(u64, u64)> = (0..200u64).map(|i| (i % 7, i)).collect();
            let grouped = sc.parallelize(pairs, 6).group_by_key(5);
            grouped.collect()
        });
    result.sort_by_key(|(k, _)| *k);
    let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..200u64 {
        oracle.entry(i % 7).or_default().push(i);
    }
    assert_eq!(result.len(), 7);
    for (k, mut vs) in result {
        vs.sort_unstable();
        assert_eq!(vs, oracle[&k]);
    }
    // Shuffle job has a map stage and a result stage.
    let job = &metrics[0];
    assert!(job.stages.iter().any(|s| s.name.contains("ShuffleMapStage")));
    assert!(job.stages.iter().any(|s| s.name.contains("ResultStage")));
}

#[test]
fn reduce_by_key_with_map_side_combine() {
    let (spec, cluster) = small_cluster();
    let (mut result, _) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let pairs: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 10, 1)).collect();
            sc.parallelize(pairs, 6).reduce_by_key(4, |a, b| a + b).collect()
        });
    result.sort_unstable();
    assert_eq!(result, (0..10u64).map(|k| (k, 30u64)).collect::<Vec<_>>());
}

#[test]
fn sort_by_key_totally_orders() {
    let (spec, cluster) = small_cluster();
    let (result, metrics) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let pairs: Vec<(u64, u64)> = (0..500u64).map(|i| ((i * 7919) % 1000, i)).collect();
            sc.parallelize(pairs, 8).sort_by_key(5).collect()
        });
    let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "range partitioning + in-partition sort must totally order");
    assert_eq!(result.len(), 500);
    // Sampling job + sort job.
    assert!(metrics.len() >= 2);
}

#[test]
fn join_matches_oracle() {
    let (spec, cluster) = small_cluster();
    let (mut result, _) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let left: Vec<(u64, u64)> = (0..20u64).map(|i| (i % 5, i)).collect();
            let right: Vec<(u64, String)> = (0..5u64).map(|k| (k, format!("v{k}"))).collect();
            let l = sc.parallelize(left, 4);
            let r = sc.parallelize(right, 3);
            l.join(&r, 4).collect()
        });
    result.sort_by_key(|a| (a.0, a.1 .0));
    // Each key 0..5 appears 4 times on the left, once on the right.
    assert_eq!(result.len(), 20);
    for (k, (v, w)) in &result {
        assert_eq!(v % 5, *k);
        assert_eq!(w, &format!("v{k}"));
    }
}

#[test]
fn repartition_preserves_records() {
    let (spec, cluster) = small_cluster();
    let (mut result, _) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            sc.parallelize((0..400u64).collect(), 3).repartition(11).collect()
        });
    result.sort_unstable();
    assert_eq!(result, (0..400).collect::<Vec<u64>>());
}

#[test]
fn cache_avoids_regeneration() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let (spec, cluster) = small_cluster();
    let gen_calls = Arc::new(AtomicU64::new(0));
    let gen_calls2 = gen_calls.clone();
    let (counts, _) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), move |sc| {
            let gc = gen_calls2.clone();
            let rdd = sc
                .generate(6, move |p| {
                    gc.fetch_add(1, Ordering::SeqCst);
                    (0..50u64).map(|i| p as u64 * 100 + i).collect()
                })
                .cache();
            let a = rdd.count(); // materializes + caches
            let b = rdd.count(); // cache hit
            (a, b)
        });
    assert_eq!(counts, (300, 300));
    assert_eq!(gen_calls.load(std::sync::atomic::Ordering::SeqCst), 6, "second job must hit cache");
}

#[test]
fn chained_shuffles_compute_once() {
    let (spec, cluster) = small_cluster();
    let (result, metrics) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let pairs: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 10, i)).collect();
            let reduced = sc.parallelize(pairs, 4).reduce_by_key(4, |a, b| a + b);
            // Second shuffle on top of the first.
            let regrouped = reduced.map(|(k, v)| (k % 2, v)).group_by_key(3);
            let c1 = regrouped.count();
            let c2 = regrouped.count(); // shuffle outputs reused
            (c1, c2)
        });
    assert_eq!(result, (2, 2));
    // First groupby job runs two map stages (chained shuffles) + result;
    // second count reuses both shuffles → single-stage job.
    let last = metrics.last().unwrap();
    assert_eq!(last.stages.len(), 1, "{:?}", last.stages);
}

#[test]
fn stage_metrics_track_remote_bytes() {
    let (spec, cluster) = small_cluster();
    let (_, metrics) =
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let pairs: Vec<(u64, sparklet::Blob)> =
                (0..90u64).map(|i| (i, sparklet::Blob::new(i, 1 << 16))).collect();
            sc.parallelize(pairs, 6).group_by_key(6).count()
        });
    let job = &metrics[0];
    let result_stage = job.stages.iter().find(|s| s.name.contains("ResultStage")).unwrap();
    let counter = |key| result_stage.metrics.counter(key);
    // 3 executors → roughly 2/3 of shuffle traffic is remote.
    assert!(counter(keys::TASK_REMOTE_BYTES) > 0);
    assert!(counter(keys::TASK_FETCH_WAIT_NS) > 0);
    let total = counter(keys::TASK_REMOTE_BYTES) + counter(keys::TASK_LOCAL_BYTES);
    assert!(total >= 90 * (1 << 16));
}

#[test]
fn deterministic_end_to_end() {
    fn once() -> (u64, Vec<u64>) {
        let (spec, cluster) = small_cluster();
        let (result, metrics) =
            simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
                let pairs: Vec<(u64, u64)> = (0..200u64).map(|i| (i % 13, i)).collect();
                sc.parallelize(pairs, 6).group_by_key(5).count()
            });
        (result, metrics[0].stages.iter().map(|s| s.duration_ns()).collect())
    }
    let a = once();
    let b = once();
    assert_eq!(a.0, 13);
    assert_eq!(a, b, "same program must give identical virtual timings");
}

#[test]
fn per_block_chunk_mode_matches_merged_mode() {
    let run = |merged: bool| {
        let spec = ClusterSpec::test(5);
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        conf.merge_chunks_per_request = merged;
        conf.cost.task_overhead_ns = 10_000;
        let cluster = ClusterConfig::paper_layout(spec.len(), conf);
        let (mut res, _) =
            simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
                let pairs: Vec<(u64, u64)> = (0..150u64).map(|i| (i % 9, i * 3)).collect();
                sc.parallelize(pairs, 5).group_by_key(4).collect()
            });
        res.sort_by_key(|(k, _)| *k);
        res.iter_mut().for_each(|(_, v)| v.sort_unstable());
        res
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn shuffle_output_is_bit_reproducible_across_runs() {
    // Determinism invariant D4 (see DESIGN.md): message-path crates never
    // iterate hash maps, so re-running the identical job must reproduce the
    // collected output bit-for-bit — *including element order* — and every
    // virtual timestamp in the metrics. No sorting before comparison.
    let run = || {
        let (spec, cluster) = small_cluster();
        simulate(&spec, cluster, backend(), Arc::new(ProcessBuilderLauncher), |sc| {
            let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 37, i)).collect();
            let grouped = sc.parallelize(pairs, 8).group_by_key(5);
            let joined = grouped
                .map(|(k, vs)| (k, vs.len() as u64))
                .join(&sc.parallelize((0..37u64).map(|k| (k, k * k)).collect(), 4), 3);
            joined.collect()
        })
    };
    let (out_a, metrics_a) = run();
    let (out_b, metrics_b) = run();
    assert_eq!(out_a, out_b, "same-seed shuffle output must match, including order");
    let summary = |ms: &[sparklet::scheduler::JobMetrics]| {
        ms.iter()
            .map(|j| {
                let stages: Vec<_> = j
                    .stages
                    .iter()
                    .map(|s| {
                        (
                            s.name.clone(),
                            s.start_ns,
                            s.end_ns,
                            s.tasks,
                            s.metrics.counter(keys::TASK_FETCH_WAIT_NS),
                            s.metrics.counter(keys::TASK_REMOTE_BYTES),
                            s.metrics.counter(keys::TASK_LOCAL_BYTES),
                        )
                    })
                    .collect();
                (j.job_id, j.start_ns, j.end_ns, stages)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        summary(&metrics_a),
        summary(&metrics_b),
        "virtual timings and byte counts must reproduce exactly"
    );
}
