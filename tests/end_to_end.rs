//! Workspace-level integration: the complete stack (simt → fabric → netz →
//! rmpi → sparklet → mpi4spark → workloads) exercised end to end, checking
//! functional equivalence across all four systems and the paper's headline
//! performance ordering.

use std::collections::BTreeMap;

use fabric::ClusterSpec;
use sparklet::deploy::ClusterConfig;
use sparklet::{Blob, SparkConf};
use workloads::ohb::{group_by_app, sort_by_app, OhbConfig, StageBreakdown};
use workloads::System;

fn conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

fn all_systems() -> [System; 4] {
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark]
}

#[test]
fn groupby_results_identical_across_all_four_systems() {
    // `(label, key of record i, reduce partitions)`: keys spread evenly; 70 %
    // of the records on one hot key; 5 keys over 32 buckets, most of them
    // empty.
    let shapes: [(&str, fn(u64) -> u64, usize); 3] = [
        ("even", |i| i % 23, 6),
        ("hot", |i| if i % 10 < 7 { 0 } else { 1 + i % 22 }, 9),
        ("sparse", |i| i % 5, 32),
    ];
    let spec = ClusterSpec::test(5);
    for (shape, key, reduces) in shapes {
        let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for i in 0..400u64 {
            oracle.entry(key(i)).or_default().push(i);
        }
        let oracle: Vec<(u64, Vec<u64>)> = oracle.into_iter().collect();
        for system in all_systems() {
            let cluster = ClusterConfig::paper_layout(spec.len(), conf());
            let out = system.run(&spec, cluster, move |sc| {
                let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (key(i), i)).collect();
                let mut groups = sc.parallelize(pairs, 8).group_by_key(reduces).collect();
                groups.sort_by_key(|(k, _)| *k);
                groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
                groups
            });
            let label = format!("{} × {shape}", system.label());
            // Every netz message is accounted at both ends, whichever
            // transport carried it (socket frames, MPI bodies, MPI envelopes).
            assert_eq!(
                out.metrics.counter(obs::keys::NETZ_MSGS_SENT),
                out.metrics.counter(obs::keys::NETZ_MSGS_RECEIVED),
                "{label}: netz sent vs received"
            );
            // The engine's own books balance: every event it popped was a
            // wake delivered, a stale wake dropped or a closure run — nothing
            // else.
            let engine = |key| out.metrics.counter(key);
            assert_eq!(
                engine(obs::keys::SIMT_WAKES)
                    + engine(obs::keys::SIMT_STALE_WAKES)
                    + engine(obs::keys::SIMT_CALLS),
                engine(obs::keys::SIMT_EVENTS_POPPED),
                "{label}: simt events"
            );
            assert!(engine(obs::keys::SIMT_WAKES) >= engine(obs::keys::SIMT_THREADS_SPAWNED));
            assert!(
                engine(obs::keys::SIMT_THREADS_SPAWNED)
                    >= engine(obs::keys::SIMT_PEAK_LIVE_THREADS)
            );
            assert!(engine(obs::keys::SIMT_PEAK_LIVE_THREADS) > 0, "{label}");
            assert_eq!(out.result, oracle, "{label}");
        }
    }
}

#[test]
fn paper_performance_ordering_holds() {
    // The paper's central result at reduced scale: shuffle-read time
    // IPoIB > RDMA > MPI, and both MPI designs beat IPoIB overall.
    let spec = ClusterSpec::frontera(4); // 2 workers
    let cfg = OhbConfig {
        partitions: 8,
        records_per_partition: 32,
        value_bytes: 1 << 18,
        key_range: 64,
        seed: 5,
    };
    let mut read = BTreeMap::new();
    let mut total = BTreeMap::new();
    for system in all_systems() {
        let cluster = ClusterConfig::paper_layout(spec.len(), conf());
        let out = system.run(&spec, cluster, move |sc| group_by_app(sc, cfg));
        let b = StageBreakdown::from_jobs(&out.jobs);
        read.insert(system.label(), b.shuffle_read_ns);
        total.insert(system.label(), out.total_ns());
    }
    assert!(read["IPoIB"] > read["RDMA"], "{read:?}");
    assert!(read["RDMA"] > read["MPI"], "{read:?}");
    assert!(total["IPoIB"] > total["MPI-Basic"], "{total:?}");
    assert!(total["IPoIB"] > total["MPI"], "{total:?}");
}

#[test]
fn basic_is_slower_than_optimized_with_many_cores_per_worker() {
    // Fig. 9's regime: every one of a worker's 56 cores runs a task, so the
    // Basic design's spinning selector loops take CPU from compute (§VII-B).
    // On a few cores per worker the two designs tie to within 0.2 % and the
    // order follows the key stream; here the gap is above 15 %.
    let spec = ClusterSpec::frontera(4); // 2 workers
    let cfg = OhbConfig {
        partitions: 112,
        records_per_partition: 2,
        value_bytes: 1 << 20,
        key_range: 64,
        seed: 5,
    };
    let total = |system: System| {
        let conf = SparkConf { executor_cores: 56, ..conf() };
        let cluster = ClusterConfig::paper_layout(spec.len(), conf);
        system.run(&spec, cluster, move |sc| group_by_app(sc, cfg)).total_ns()
    };
    let (basic, optimized) = (total(System::Mpi4SparkBasic), total(System::Mpi4Spark));
    assert!(basic > optimized + optimized / 10, "basic {basic} ns vs optimized {optimized} ns");
}

#[test]
fn sortby_is_totally_ordered_under_mpi() {
    let spec = ClusterSpec::test(5);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf());
    let out = System::Mpi4Spark.run(&spec, cluster, |sc| {
        let pairs: Vec<(u64, Blob)> =
            (0..500u64).map(|i| ((i * 48271) % 9973, Blob::new(i, 512))).collect();
        sc.parallelize(pairs, 10).sort_by_key(7).collect()
    });
    let keys: Vec<u64> = out.result.iter().map(|(k, _)| *k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
    assert_eq!(out.result.len(), 500);
}

#[test]
fn ohb_stage_names_match_paper_breakdown() {
    // GroupBy: Job0-ResultStage (datagen), Job1-ShuffleMapStage,
    // Job1-ResultStage. SortBy: sampling makes the action Job2 (paper
    // Fig. 10 naming).
    let spec = ClusterSpec::test(4);
    let cfg = OhbConfig {
        partitions: 6,
        records_per_partition: 16,
        value_bytes: 4096,
        key_range: 30,
        seed: 1,
    };

    let cluster = ClusterConfig::paper_layout(spec.len(), conf());
    let out = System::Mpi4Spark.run(&spec, cluster, move |sc| group_by_app(sc, cfg));
    let names: Vec<String> =
        out.jobs.iter().flat_map(|j| j.stages.iter().map(|s| s.name.clone())).collect();
    assert!(names.contains(&"Job0-ResultStage".to_string()), "{names:?}");
    assert!(names.contains(&"Job1-ShuffleMapStage".to_string()), "{names:?}");
    assert!(names.contains(&"Job1-ResultStage".to_string()), "{names:?}");

    let cluster = ClusterConfig::paper_layout(spec.len(), conf());
    let out = System::Mpi4Spark.run(&spec, cluster, move |sc| sort_by_app(sc, cfg));
    let names: Vec<String> =
        out.jobs.iter().flat_map(|j| j.stages.iter().map(|s| s.name.clone())).collect();
    assert!(names.contains(&"Job2-ShuffleMapStage".to_string()), "{names:?}");
    assert!(names.contains(&"Job2-ResultStage".to_string()), "{names:?}");
}

#[test]
fn whole_stack_is_deterministic() {
    fn once() -> (u64, u64) {
        let spec = ClusterSpec::frontera(4);
        let cfg = OhbConfig {
            partitions: 8,
            records_per_partition: 24,
            value_bytes: 1 << 14,
            key_range: 50,
            seed: 99,
        };
        let cluster = ClusterConfig::paper_layout(spec.len(), conf());
        let out = System::Mpi4Spark.run(&spec, cluster, move |sc| group_by_app(sc, cfg));
        (out.result, out.total_ns())
    }
    assert_eq!(once(), once(), "identical seeds must give identical results AND timings");
}

#[test]
fn rdma_spark_refuses_omni_path_like_the_paper() {
    // §VII-D: "RDMA-Spark numbers were not collected [on Stampede2] because
    // Stampede2 does not use IB interconnects."
    let stampede = ClusterSpec::stampede2(4);
    assert!(!System::available_on(&stampede).contains(&System::RdmaSpark));
    let result = std::panic::catch_unwind(|| {
        rdma_spark::RdmaBackend::with_conf(&stampede.interconnect, &SparkConf::default())
    });
    assert!(result.is_err());
}

#[test]
fn stampede2_cluster_runs_mpi4spark_with_hyperthreading() {
    let spec = ClusterSpec::stampede2(4); // 2 workers
    let mut c = conf();
    c.executor_cores = 8; // scaled-down stand-in for 96 threads
    let cluster = ClusterConfig::paper_layout(spec.len(), c);
    let out = System::Mpi4Spark.run(&spec, cluster, |sc| {
        let pairs: Vec<(u64, u64)> = (0..160u64).map(|i| (i % 13, i)).collect();
        sc.parallelize(pairs, 16).reduce_by_key(8, |a, b| a + b).count()
    });
    assert_eq!(out.result, 13);
}

#[test]
#[should_panic(
    expected = "green thread `teardown` parks with a lock guard alive (first taken at tests/end_to_end.rs:"
)]
fn lock_guard_held_across_a_transport_close_is_refused_at_the_park() {
    // The one real deadlock this stack has had: `close()` sends its FIN on the
    // virtual clock, and the `for` keeps the temporary guard of `.lock()` alive
    // over the whole loop. All green threads share one OS thread, so the next
    // one to want the lock would hang the process; the engine refuses the park.
    use netz::{NoOpRpcHandler, TransportConf, TransportContext};
    use std::sync::Arc;

    let sim = simt::Sim::new();
    let net = fabric::Net::new(&ClusterSpec::test(2));
    sim.spawn("teardown", move || {
        let conf = TransportConf::default_sockets();
        let handler = Arc::new(NoOpRpcHandler);
        let server =
            TransportContext::new(net.clone(), conf, handler.clone()).create_server("server", 0, 7);
        let endpoint =
            TransportContext::new(net, conf, handler).create_client_endpoint("client", 1);
        let clients = simt::sync::Mutex::new(vec![endpoint.connect(server.addr()).unwrap()]);
        for c in clients.lock().iter() {
            c.close();
        }
    });
    sim.run().unwrap();
}
