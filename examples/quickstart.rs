//! Quickstart: run the same Spark job under Vanilla Spark and MPI4Spark on
//! a simulated 5-node cluster and compare shuffle-read times.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use fabric::ClusterSpec;
use sparklet::deploy::{simulate, ClusterConfig, ProcessBuilderLauncher};
use sparklet::{Blob, SparkConf, VanillaBackend};
use workloads::System;

fn main() {
    // A 5-node cluster: 3 workers + master + driver, 4 cores each.
    let spec = ClusterSpec::test(5);
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;

    // The workload: generate keyed blobs, group by key, count the groups.
    let workload = |sc: &sparklet::scheduler::SparkContext| {
        let pairs: Vec<(u64, Blob)> =
            (0..240u64).map(|i| (i % 40, Blob::new(i, 1 << 18))).collect();
        sc.parallelize(pairs, 12).group_by_key(12).count()
    };

    // --- Vanilla Spark: Netty NIO over sockets --------------------------
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let (groups, jobs) = simulate(
        &spec,
        cluster.clone(),
        Arc::new(VanillaBackend::with_conf(&conf)),
        Arc::new(ProcessBuilderLauncher),
        workload,
    );
    let read_vanilla = jobs[0].stage_duration("ResultStage").unwrap();
    println!("Vanilla Spark : {groups} groups, shuffle read {:.2} ms", read_vanilla as f64 / 1e6);

    // --- MPI4Spark: wrapper launch, DPM executors, MPI-based Netty -------
    let out = System::Mpi4Spark.run(&spec, cluster, workload);
    let read_mpi = out.jobs[0].stage_duration("ResultStage").unwrap();
    println!("MPI4Spark     : {} groups, shuffle read {:.2} ms", out.result, read_mpi as f64 / 1e6);
    println!("Shuffle-read speedup: {:.2}x", read_vanilla as f64 / read_mpi as f64);
    assert_eq!(groups, out.result, "both systems must compute identical results");
}
