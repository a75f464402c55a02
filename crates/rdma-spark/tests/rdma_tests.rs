//! RDMA-Spark baseline tests: functional equivalence with Vanilla plus the
//! expected performance ordering Vanilla < RDMA < MPI on shuffle reads.

use std::sync::Arc;

use fabric::ClusterSpec;
use rdma_spark::RdmaBackend;
use sparklet::deploy::{simulate, ClusterConfig, ProcessBuilderLauncher};
use sparklet::{Blob, SparkConf};

fn conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

fn groupby_workload(sc: &sparklet::scheduler::SparkContext) -> u64 {
    let pairs: Vec<(u64, Blob)> = (0..120u64).map(|i| (i, Blob::new(i, 1 << 18))).collect();
    sc.parallelize(pairs, 6).group_by_key(6).count()
}

#[test]
fn rdma_group_by_matches_vanilla() {
    let spec = ClusterSpec::test(5);
    let (count_rdma, _) = simulate(
        &spec,
        ClusterConfig::paper_layout(spec.len(), conf()),
        Arc::new(RdmaBackend::with_conf(&spec.interconnect, &conf())),
        Arc::new(ProcessBuilderLauncher),
        groupby_workload,
    );
    let (count_van, _) = simulate(
        &spec,
        ClusterConfig::paper_layout(spec.len(), conf()),
        Arc::new(sparklet::VanillaBackend::with_conf(&conf())),
        Arc::new(ProcessBuilderLauncher),
        groupby_workload,
    );
    assert_eq!(count_rdma, count_van);
    assert_eq!(count_rdma, 120);
}

#[test]
fn shuffle_read_ordering_vanilla_rdma() {
    let spec = ClusterSpec::test(5);
    let (_, m_rdma) = simulate(
        &spec,
        ClusterConfig::paper_layout(spec.len(), conf()),
        Arc::new(RdmaBackend::with_conf(&spec.interconnect, &conf())),
        Arc::new(ProcessBuilderLauncher),
        groupby_workload,
    );
    let (_, m_van) = simulate(
        &spec,
        ClusterConfig::paper_layout(spec.len(), conf()),
        Arc::new(sparklet::VanillaBackend::with_conf(&conf())),
        Arc::new(ProcessBuilderLauncher),
        groupby_workload,
    );
    let read_rdma = m_rdma[0].stage_duration("ResultStage").unwrap();
    let read_van = m_van[0].stage_duration("ResultStage").unwrap();
    assert!(
        read_van > read_rdma,
        "vanilla read ({read_van}) should exceed RDMA read ({read_rdma})"
    );
    // Map/datagen stage should be roughly transport-independent (±25%).
    let map_rdma = m_rdma[0].stage_duration("ShuffleMapStage").unwrap() as f64;
    let map_van = m_van[0].stage_duration("ShuffleMapStage").unwrap() as f64;
    let ratio = map_van / map_rdma;
    assert!((0.75..=1.35).contains(&ratio), "map stages diverged: {ratio:.2}");
}
