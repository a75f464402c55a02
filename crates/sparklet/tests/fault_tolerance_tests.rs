//! Fault injection: shuffle-service loss between the write and read stages
//! triggers Spark's FetchFailed path — quarantine, lineage-based
//! recomputation of the lost map outputs, and retry of the failed reduce
//! partitions — and the job still produces correct results on each of the
//! paper's four systems.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::ClusterSpec;
use sparklet::deploy::executor::KillShuffleService;
use sparklet::deploy::{simulate, ClusterConfig, ProcessBuilderLauncher};
use sparklet::{SparkConf, VanillaBackend};
use workloads::System;

fn small_cluster() -> (ClusterSpec, ClusterConfig) {
    let spec = ClusterSpec::test(5); // 3 workers
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    // Fail fast so the injected fault is detected in milliseconds of
    // virtual time instead of the 10 s default connect timeout.
    conf.connect_timeout_ns = simt::time::millis(50);
    conf.request_timeout_ns = simt::time::millis(200);
    (spec.clone(), ClusterConfig::paper_layout(spec.len(), conf))
}

#[test]
fn shuffle_service_loss_recovers_via_lineage() {
    let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..300u64 {
        oracle.entry(i % 11).or_default().push(i);
    }
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let (spec, cluster) = small_cluster();
        let out = system.run(&spec, cluster, |sc| {
            let pairs: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 11, i)).collect();
            let grouped = sc.parallelize(pairs, 6).group_by_key(6);
            // Force the shuffle write to complete first.
            let n_groups = grouped.count();
            assert_eq!(n_groups, 11);
            // Kill executor 1's shuffle service: its map outputs become
            // unreachable for every other executor.
            let victim = &sc.scheduler().executors()[1];
            victim.rpc.send(KillShuffleService).unwrap();
            simt::sleep(simt::time::millis(5));
            // Second job re-reads the same shuffle: fetches from executor 1
            // fail, the scheduler recomputes its map outputs on the healthy
            // executors, and the job completes correctly.
            let mut out = grouped.collect();
            out.sort_by_key(|(k, _)| *k);
            out
        });
        // Functional correctness after recovery.
        let label = system.label();
        assert_eq!(out.result.len(), 11, "{label}");
        for (k, mut vs) in out.result {
            vs.sort_unstable();
            assert_eq!(vs, oracle[&k], "{label}: key {k}");
        }
        // The recovery ran extra stages: the second job must show a retry
        // map stage and more than one result-stage attempt.
        let last = out.jobs.last().unwrap();
        assert!(
            last.stages.iter().any(|s| s.name.contains("retry")),
            "{label}: expected a lineage-recompute stage, got {:?}",
            last.stages.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
        let result_stages = last.stages.iter().filter(|s| s.name.contains("ResultStage")).count();
        assert!(result_stages >= 2, "{label}: expected a retried result stage");
        let resubmits = out.metrics.counter(obs::keys::SPARK_STAGE_RESUBMITS);
        assert_eq!(resubmits, 1, "{label}: one FetchFailed recovery");
    }
}

#[test]
fn healthy_run_has_no_retry_stages() {
    let (spec, cluster) = small_cluster();
    let backend = Arc::new(VanillaBackend::with_conf(&cluster.conf));
    let (_, metrics) = simulate(&spec, cluster, backend, Arc::new(ProcessBuilderLauncher), |sc| {
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 5, i)).collect();
        sc.parallelize(pairs, 4).group_by_key(4).count()
    });
    for job in &metrics {
        assert!(job.stages.iter().all(|s| !s.name.contains("retry")));
    }
}
