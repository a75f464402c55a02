//! Coverage for the extended RDD API: union, distinct, sample,
//! count_by_key, keys/values/map_values, cogroup edge cases, and empty
//! inputs.

use std::sync::Arc;

use fabric::ClusterSpec;
use sparklet::deploy::{simulate, ClusterConfig, ProcessBuilderLauncher};
use sparklet::{NetworkBackend, SparkConf, VanillaBackend};

fn run<R: Send + Sync + 'static>(
    app: impl FnOnce(&sparklet::scheduler::SparkContext) -> R + Send + 'static,
) -> R {
    let spec = ClusterSpec::test(4);
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 1_000;
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let backend: Arc<dyn NetworkBackend> = Arc::new(VanillaBackend::with_conf(&cluster.conf));
    let (r, _) = simulate(&spec, cluster, backend, Arc::new(ProcessBuilderLauncher), app);
    r
}

#[test]
fn union_concatenates() {
    let mut out = run(|sc| {
        let a = sc.parallelize((0..50u64).collect(), 3);
        let b = sc.parallelize((100..120u64).collect(), 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 5);
        u.collect()
    });
    out.sort_unstable();
    let expect: Vec<u64> = (0..50).chain(100..120).collect();
    assert_eq!(out, expect);
}

#[test]
fn union_through_shuffle() {
    let mut out = run(|sc| {
        let a = sc.parallelize((0..40u64).map(|i| (i % 4, i)).collect(), 3);
        let b = sc.parallelize((0..40u64).map(|i| (i % 4 + 10, i)).collect(), 3);
        a.union(&b).group_by_key(4).count_by_key().iter().map(|(k, _)| *k).collect::<Vec<_>>()
    });
    out.sort_unstable();
    assert_eq!(out.len(), 8); // keys 0..4 and 10..14
}

#[test]
fn distinct_removes_duplicates() {
    let mut out =
        run(|sc| sc.parallelize((0..200u64).map(|i| i % 17).collect(), 6).distinct(4).collect());
    out.sort_unstable();
    assert_eq!(out, (0..17).collect::<Vec<u64>>());
}

#[test]
fn sample_is_deterministic_and_proportional() {
    let (a, b, n) = run(|sc| {
        let data = sc.parallelize((0..2000u64).collect(), 5);
        let a = data.sample(0.3, 42).collect();
        let b = data.sample(0.3, 42).collect();
        let n = data.sample(0.3, 42).count();
        (a, b, n)
    });
    assert_eq!(a, b, "same seed must sample identically");
    assert_eq!(a.len() as u64, n);
    assert!((400..=800).contains(&a.len()), "~30% of 2000, got {}", a.len());
}

#[test]
fn sample_edges() {
    let (zero, all) = run(|sc| {
        let data = sc.parallelize((0..100u64).collect(), 4);
        (data.sample(0.0, 1).count(), data.sample(1.0, 1).count())
    });
    assert_eq!(zero, 0);
    assert_eq!(all, 100);
}

#[test]
fn count_by_key_matches_oracle() {
    let mut out =
        run(|sc| sc.parallelize((0..90u64).map(|i| (i % 9, i)).collect(), 5).count_by_key());
    out.sort_unstable();
    assert_eq!(out, (0..9u64).map(|k| (k, 10u64)).collect::<Vec<_>>());
}

#[test]
fn keys_values_map_values() {
    let (mut keys, mut vals, mut doubled) = run(|sc| {
        let kv = sc.parallelize(vec![(1u64, 10u64), (2, 20), (3, 30)], 2);
        (kv.keys().collect(), kv.values().collect(), kv.map_values(|v| v * 2).collect())
    });
    keys.sort_unstable();
    vals.sort_unstable();
    doubled.sort_unstable();
    assert_eq!(keys, vec![1, 2, 3]);
    assert_eq!(vals, vec![10, 20, 30]);
    assert_eq!(doubled, vec![(1, 20), (2, 40), (3, 60)]);
}

#[test]
fn cogroup_with_missing_keys_on_either_side() {
    let mut out = run(|sc| {
        let left = sc.parallelize(vec![(1u64, 10u64), (2, 20)], 2);
        let right = sc.parallelize(vec![(2u64, 200u64), (3, 300)], 2);
        left.cogroup(&right, 3).collect()
    });
    out.sort_by_key(|(k, _)| *k);
    assert_eq!(out.len(), 3);
    assert_eq!(out[0], (1, (vec![10], vec![])));
    assert_eq!(out[1], (2, (vec![20], vec![200])));
    assert_eq!(out[2], (3, (vec![], vec![300])));
}

#[test]
fn empty_rdd_operations() {
    let (count, grouped, sorted) = run(|sc| {
        let empty = sc.parallelize(Vec::<(u64, u64)>::new(), 3);
        (empty.count(), empty.group_by_key(2).count(), empty.sort_by_key(2).count())
    });
    assert_eq!((count, grouped, sorted), (0, 0, 0));
}

#[test]
fn single_partition_single_record() {
    let out =
        run(|sc| sc.parallelize(vec![(7u64, 1u64)], 1).reduce_by_key(1, |a, b| a + b).collect());
    assert_eq!(out, vec![(7, 1)]);
}

#[test]
fn skewed_keys_all_to_one_partition() {
    // All records share one key: one reduce partition receives everything.
    let out = run(|sc| {
        sc.parallelize((0..500u64).map(|i| (42u64, i)).collect(), 8).group_by_key(8).collect()
    });
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1.len(), 500);
}
