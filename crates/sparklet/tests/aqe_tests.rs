//! Adaptive query execution: oracle-equivalence matrix, planner properties,
//! and the chaos/recovery interaction.
//!
//! The correctness story is test-first: adaptive execution may change *how*
//! the reduce space is covered (coalesced runs, map-range slices, merge
//! stages) but never *what* the job returns. Every cell of the matrix runs
//! the same workload twice — statically (AQE off, the oracle) and
//! adaptively — and compares results element-for-element after canonical
//! ordering (groupByKey value order is unspecified, in Spark and here: the
//! static path interleaves values by fetch arrival, the adaptive path by
//! map range).
//!
//! Datasets: {uniform, zipf(1.1), single-hot-key, many-empty-partitions};
//! modes: {all-off, coalesce-only, split-only, full(+skew-join)}; systems:
//! all four of the paper's stacks.

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use simt::{for_each_case, SeededRng};
use sparklet::aqe::{plan, PlanTask};
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::{AqeConf, SparkConf};
use workloads::ohb::zipf_keys;
use workloads::{RunOutcome, System};

const MS: u64 = 1_000_000;

fn all_systems() -> [System; 4] {
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark]
}

/// AQE policies under test. `(label, conf)`; `all-off` is the oracle.
fn modes() -> Vec<(&'static str, AqeConf)> {
    vec![
        ("all-off", AqeConf::default()),
        // Coalesce only: the skew threshold is unreachable, tiny adjacent
        // buckets merge up to the target.
        (
            "coalesce",
            AqeConf { enabled: true, target_bytes: 2_000, skew_factor: 1e18, max_slices: 8 },
        ),
        // Split only: every non-empty bucket is "skewed", every bucket its
        // own run — maximal slicing pressure on the merge path.
        ("split", AqeConf { enabled: true, target_bytes: 1, skew_factor: 0.5, max_slices: 4 }),
        // Both knobs at realistic settings.
        ("full", AqeConf { enabled: true, target_bytes: 600, skew_factor: 2.0, max_slices: 4 }),
    ]
}

/// `(label, pairs, reduce_partitions)` per dataset shape. 400 records over
/// 6 map partitions; keys are what varies.
fn datasets() -> Vec<(&'static str, Vec<(u64, u64)>, usize)> {
    let uniform: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    let zipf: Vec<(u64, u64)> = zipf_keys(11, 400, 23, 1.1).into_iter().zip(0..400u64).collect();
    let hot: Vec<(u64, u64)> =
        (0..400u64).map(|i| (if i % 10 < 7 { 0 } else { 1 + i % 22 }, i)).collect();
    // 5 distinct keys hashed over 32 reduce partitions: most buckets empty.
    let sparse: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 5, i)).collect();
    vec![("uniform", uniform, 9), ("zipf", zipf, 9), ("hot", hot, 9), ("sparse", sparse, 32)]
}

fn conf_with(aqe: AqeConf) -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf.aqe = aqe;
    conf
}

/// Canonicalized groupByKey over `pairs`: groups sorted by key, values
/// sorted within each group.
fn run_group_by(
    system: System,
    aqe: AqeConf,
    pairs: Vec<(u64, u64)>,
    parts: usize,
) -> RunOutcome<Vec<(u64, Vec<u64>)>> {
    let spec = ClusterSpec::test(4);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf_with(aqe));
    system.run(&spec, cluster, move |sc| {
        let mut groups = sc.parallelize(pairs, 6).group_by_key(parts).collect();
        groups.sort_by_key(|(k, _)| *k);
        groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
        groups
    })
}

#[test]
fn oracle_equivalence_matrix_group_by() {
    for (data_label, pairs, parts) in datasets() {
        for system in all_systems() {
            let oracle = run_group_by(system, AqeConf::default(), pairs.clone(), parts);
            let aqe_tasks = oracle.metrics.counter(keys::SPARK_AQE_TASKS);
            assert_eq!(aqe_tasks, 0, "AQE off must never plan");
            for (mode_label, aqe) in modes().into_iter().skip(1) {
                let adaptive = run_group_by(system, aqe, pairs.clone(), parts);
                assert_eq!(
                    adaptive.result,
                    oracle.result,
                    "{} × {data_label} × {mode_label}: adaptive ≠ static",
                    system.label()
                );
                let aqe_tasks = adaptive.metrics.counter(keys::SPARK_AQE_TASKS);
                assert!(
                    aqe_tasks > 0,
                    "{} × {data_label} × {mode_label}: AQE never engaged",
                    system.label()
                );
            }
        }
    }
}

#[test]
fn matrix_cells_exercise_both_mechanisms() {
    // Non-vacuity: the split mode must actually slice, the coalesce mode
    // must actually merge runs, on the dataset shaped for each.
    let (_, zipf, parts) = datasets().remove(1);
    let split = modes()[2].1;
    let out = run_group_by(System::Mpi4Spark, split, zipf, parts);
    let slices = out.metrics.counter(keys::SPARK_AQE_SPLIT_SLICES);
    assert!(slices > 0, "split mode produced no slices");

    let (_, sparse, parts) = datasets().remove(3);
    let coalesce = modes()[1].1;
    let out = run_group_by(System::Mpi4Spark, coalesce, sparse, parts);
    let coalesced = out.metrics.counter(keys::SPARK_AQE_COALESCED_TASKS);
    assert!(coalesced > 0, "coalesce mode merged no runs");
    let aqe_tasks = out.metrics.counter(keys::SPARK_AQE_TASKS);
    assert!(
        aqe_tasks < 32,
        "32 mostly-empty buckets should plan into fewer tasks, got {}",
        aqe_tasks
    );
}

#[test]
fn sort_by_key_is_oracle_equivalent_under_aqe() {
    let zipf: Vec<(u64, u64)> = zipf_keys(13, 400, 23, 1.1).into_iter().zip(0..400u64).collect();
    for system in all_systems() {
        let run = |aqe: AqeConf| {
            let spec = ClusterSpec::test(4);
            let cluster = ClusterConfig::paper_layout(spec.len(), conf_with(aqe));
            let pairs = zipf.clone();
            system.run(&spec, cluster, move |sc| {
                // Canonicalize duplicate-key value order (stable sorts on
                // both paths preserve different-but-valid arrival orders).
                let mut sorted = sc.parallelize(pairs, 6).sort_by_key(9).collect();
                sorted.sort_unstable();
                sorted
            })
        };
        let oracle = run(AqeConf::default());
        let keys: Vec<u64> = oracle.result.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "oracle not sorted");
        for (label, aqe) in modes().into_iter().skip(1) {
            let adaptive = run(aqe);
            assert_eq!(
                adaptive.result,
                oracle.result,
                "{} × sortBy × {label}: adaptive ≠ static",
                system.label()
            );
        }
    }
}

#[test]
fn skew_join_is_oracle_equivalent_under_aqe() {
    // The join runs over cogroup, which has no adaptive form — under AQE it
    // must fall back to static execution of the cogroup stage while the
    // count_by_key reduction above it may still plan adaptively.
    let zipf: Vec<(u64, u64)> = zipf_keys(17, 300, 16, 1.1).into_iter().zip(0..300u64).collect();
    let dim: Vec<(u64, u64)> = (0..16u64).map(|k| (k, k * 100)).collect();
    for system in all_systems() {
        let run = |aqe: AqeConf| {
            let spec = ClusterSpec::test(4);
            let cluster = ClusterConfig::paper_layout(spec.len(), conf_with(aqe));
            let (l, r) = (zipf.clone(), dim.clone());
            system.run(&spec, cluster, move |sc| {
                let left = sc.parallelize(l, 6);
                let right = sc.parallelize(r, 2);
                let mut joined = left.join(&right, 9).map(|(k, (v, w))| (k, v + w)).count_by_key();
                joined.sort_unstable();
                joined
            })
        };
        let oracle = run(AqeConf::default());
        let full = modes()[3].1;
        let adaptive = run(full);
        assert_eq!(
            adaptive.result,
            oracle.result,
            "{} × skew-join: adaptive ≠ static",
            system.label()
        );
    }
}

// --- chaos / recovery interaction -------------------------------------------

/// Chaos-tuned conf (compressed timeouts, speculation on) with a
/// split-heavy AQE policy, mirroring `recovery_chaos_tests::recovery_conf`.
fn recovery_conf(aqe: AqeConf) -> SparkConf {
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
    conf.speculation = true;
    conf.aqe = aqe;
    conf
}

/// Worker node hosting the victim executor (`ClusterSpec::test(5)` +
/// `paper_layout`: workers on 0..3, master on 3, driver on 4).
const VICTIM: usize = 1;

fn split_heavy() -> AqeConf {
    AqeConf { enabled: true, target_bytes: 1, skew_factor: 0.5, max_slices: 4 }
}

fn chaos_groupby(sc: &SparkContext) -> Vec<(u64, Vec<u64>)> {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    let mut groups = sc.parallelize(pairs, 9).group_by_key(9).collect();
    groups.sort_by_key(|(k, _)| *k);
    groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
    groups
}

fn chaos_oracle() -> Vec<(u64, Vec<u64>)> {
    (0..23u64).map(|k| (k, (0..400u64).filter(|i| i % 23 == k).collect())).collect()
}

#[test]
fn crash_during_adaptive_reduce_fetch_replans_and_matches_oracle() {
    // The victim dies as the *adaptive* result stage starts fetching: slice
    // and bucket tasks exhaust their fetch retries, the scheduler
    // quarantines the victim, bumps the epoch, recomputes the lost map
    // outputs by lineage, and reruns only the missing plan tasks. The
    // engine itself asserts the epoch-bumped replan equals the executed
    // plan (deterministic sizes ⇒ deterministic plan), so pre- and
    // post-crash task outputs may mix; this test pins the end-to-end
    // result against the oracle.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        // Fault-free run under identical conf: correct, adaptively planned,
        // and the source of the crash window's virtual-time anchor.
        let mut cluster = ClusterConfig::paper_layout(spec.len(), recovery_conf(split_heavy()));
        cluster.app_jar_bytes = 1 << 20;
        let clean = system.run(&spec, cluster, chaos_groupby);
        assert_eq!(clean.result, chaos_oracle(), "{}: clean run wrong", system.label());
        let slices = clean.metrics.counter(keys::SPARK_AQE_SPLIT_SLICES);
        assert!(slices > 0, "{}: plan has no slices", system.label());
        let start = clean
            .jobs
            .iter()
            .flat_map(|j| j.stages.iter())
            .find(|s| s.name == "Job0-ResultStage")
            .unwrap_or_else(|| panic!("{}: no adaptive result stage", system.label()))
            .start_ns;

        let window = 600 * MS;
        let plan =
            FaultPlan::seeded(25).crash_node(VICTIM, start.saturating_sub(50_000), window).build();
        let mut cluster = ClusterConfig::paper_layout(spec.len(), recovery_conf(split_heavy()));
        cluster.app_jar_bytes = 1 << 20;
        let out = system.run_with_chaos(&spec, cluster, plan, move |sc| {
            let out = chaos_groupby(sc);
            simt::sleep(2 * window);
            out
        });
        assert_eq!(out.result, chaos_oracle(), "{}: wrong result after crash", system.label());
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the crash window never bit", system.label());
        let resubmits = out.metrics.counter(keys::SPARK_STAGE_RESUBMITS);
        assert!(resubmits >= 1, "{}: no stage resubmission", system.label());
        let slices = out.metrics.counter(keys::SPARK_AQE_SPLIT_SLICES);
        assert!(slices > 0, "{}: AQE plan not active", system.label());
    }
}

// --- planner properties ------------------------------------------------------

/// Cases per planner property.
const PLAN_CASES: u64 = 256;

/// A random `maps × reduces` size matrix (degenerate empty shapes included)
/// and a random enabled policy.
fn draw_plan_input(rng: &mut SeededRng) -> (Vec<Vec<u64>>, AqeConf) {
    let maps = rng.next_range(0, 8);
    let reduces = rng.next_range(0, 12);
    let sizes =
        (0..maps).map(|_| (0..reduces).map(|_| rng.next_range(0, 10_000)).collect()).collect();
    let conf = AqeConf {
        enabled: true,
        target_bytes: rng.next_range(1, 5_000),
        skew_factor: 1.0 + 7.0 * rng.next_f64(),
        max_slices: rng.next_range(2, 6) as u32,
    };
    (sizes, conf)
}

/// Every (map, reduce) cell of any matrix lands in exactly one task.
#[test]
fn plan_is_a_partition_of_the_reduce_space() {
    for_each_case(PLAN_CASES, |rng| {
        let (sizes, conf) = draw_plan_input(rng);
        assert_eq!(plan(&sizes, &conf).verify_partition_of_space(), Ok(()));
    });
}

/// Equal inputs produce equal plans.
#[test]
fn plan_is_deterministic() {
    for_each_case(PLAN_CASES, |rng| {
        let (sizes, conf) = draw_plan_input(rng);
        assert_eq!(plan(&sizes, &conf), plan(&sizes, &conf));
    });
}

/// Coalesce and split respect their thresholds: multi-bucket runs never
/// exceed the target, only above-target buckets split, and split widths
/// honor `max_slices` with at least two slices.
#[test]
fn plan_respects_thresholds() {
    for_each_case(PLAN_CASES, |rng| {
        let (sizes, conf) = draw_plan_input(rng);
        let p = plan(&sizes, &conf);
        let reduces = sizes.first().map_or(0, Vec::len);
        let bucket_bytes = |r: usize| -> u64 { sizes.iter().map(|row| row[r]).sum() };
        let mut slices_of = vec![0u32; reduces];
        for t in &p.tasks {
            match t {
                PlanTask::Buckets { buckets } => {
                    if buckets.len() > 1 {
                        let total: u64 = buckets.iter().map(|&b| bucket_bytes(b as usize)).sum();
                        assert!(
                            total <= conf.target_bytes,
                            "coalesced run of {} buckets holds {total} > target {}",
                            buckets.len(),
                            conf.target_bytes
                        );
                    }
                }
                PlanTask::Slice { bucket, .. } => slices_of[*bucket as usize] += 1,
            }
        }
        for (r, &n) in slices_of.iter().enumerate() {
            if n > 0 {
                assert!(bucket_bytes(r) > conf.target_bytes, "split an under-target bucket");
                assert!((2..=conf.max_slices).contains(&n), "{n} slices for bucket {r}");
                assert!(p.split_buckets.contains(&(r as u32)));
            }
        }
    });
}
