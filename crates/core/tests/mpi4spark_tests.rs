//! End-to-end MPI4Spark tests: the full wrapper-launch + DPM + MPI-Netty
//! stack running real Spark jobs, compared functionally against Vanilla.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use mpi4spark::Design;
use simt::sync::OnceCell;
use simt::Sim;
use sparklet::deploy::ClusterConfig;
use sparklet::{Blob, SparkConf};

fn small_conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

/// Run `app` under MPI4Spark on a fresh 5-node test cluster.
fn run_mpi<R: Send + Sync + 'static>(
    design: Design,
    app: impl FnOnce(&sparklet::scheduler::SparkContext) -> R + Send + 'static,
) -> (R, Vec<sparklet::JobMetrics>) {
    let sim = Sim::new();
    let spec = ClusterSpec::test(5);
    let cluster = ClusterConfig::paper_layout(spec.len(), small_conf());
    let out: OnceCell<(R, Vec<sparklet::JobMetrics>)> = OnceCell::new();
    let out2 = out.clone();
    sim.spawn("launcher", move || {
        let net = Net::new(&spec);
        let r = mpi4spark::run_app(&net, &cluster, design, app);
        out2.put(r);
    });
    sim.run().unwrap().assert_clean();
    let r = out.try_take().expect("app finished");
    sim.shutdown();
    r
}

#[test]
fn optimized_count_over_generated_data() {
    let (count, metrics) = run_mpi(Design::Optimized, |sc| {
        sc.generate(6, |p| (0..100u64).map(|i| p as u64 * 1000 + i).collect()).count()
    });
    assert_eq!(count, 600);
    assert_eq!(metrics.len(), 1);
}

#[test]
fn optimized_group_by_matches_oracle() {
    let (mut result, metrics) = run_mpi(Design::Optimized, |sc| {
        let pairs: Vec<(u64, u64)> = (0..200u64).map(|i| (i % 7, i)).collect();
        sc.parallelize(pairs, 6).group_by_key(5).collect()
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
    assert!(metrics[0].stages.iter().any(|s| s.name.contains("ShuffleMapStage")));
}

#[test]
fn basic_group_by_matches_oracle() {
    let (mut result, _) = run_mpi(Design::Basic, |sc| {
        let pairs: Vec<(u64, u64)> = (0..150u64).map(|i| (i % 9, i * 2)).collect();
        sc.parallelize(pairs, 5).group_by_key(4).collect()
    });
    result.sort_by_key(|(k, _)| *k);
    assert_eq!(result.len(), 9);
    let total: usize = result.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, 150);
}

#[test]
fn optimized_sort_by_key_total_order() {
    let (result, _) = run_mpi(Design::Optimized, |sc| {
        let pairs: Vec<(u64, u64)> = (0..300u64).map(|i| ((i * 7919) % 500, i)).collect();
        sc.parallelize(pairs, 6).sort_by_key(4).collect()
    });
    let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
    assert_eq!(result.len(), 300);
}

#[test]
fn optimized_shuffle_read_is_faster_than_vanilla() {
    // The paper's core claim at micro scale: identical workload, identical
    // cluster, shuffle-read stage markedly faster under MPI4Spark.
    fn workload(sc: &sparklet::scheduler::SparkContext) -> u64 {
        let pairs: Vec<(u64, Blob)> = (0..120u64).map(|i| (i, Blob::new(i, 1 << 18))).collect(); // 32 MB total
        sc.parallelize(pairs, 6).group_by_key(6).count()
    }

    let (count_mpi, metrics_mpi) = run_mpi(Design::Optimized, workload);

    // Vanilla run on an identical cluster.
    let spec = ClusterSpec::test(5);
    let cluster = ClusterConfig::paper_layout(spec.len(), small_conf());
    let (count_van, metrics_van) = sparklet::deploy::simulate(
        &spec,
        cluster,
        Arc::new(sparklet::VanillaBackend::default()),
        Arc::new(sparklet::ProcessBuilderLauncher),
        workload,
    );

    assert_eq!(count_mpi, count_van);
    let read_mpi = metrics_mpi[0].stage_duration("ResultStage").unwrap();
    let read_van = metrics_van[0].stage_duration("ResultStage").unwrap();
    let speedup = read_van as f64 / read_mpi as f64;
    assert!(
        speedup > 1.5,
        "expected MPI shuffle read clearly faster: vanilla={read_van} mpi={read_mpi} ({speedup:.2}x)"
    );
}

#[test]
fn basic_pays_polling_overhead_vs_optimized() {
    // Fig. 9's direction at micro scale: same job, Basic slower than
    // Optimized because of the spinning selector model.
    fn workload(sc: &sparklet::scheduler::SparkContext) -> u64 {
        let pairs: Vec<(u64, Blob)> = (0..120u64).map(|i| (i, Blob::new(i, 1 << 16))).collect();
        sc.parallelize(pairs, 6).group_by_key(6).count()
    }
    let (_, m_opt) = run_mpi(Design::Optimized, workload);
    let (_, m_basic) = run_mpi(Design::Basic, workload);
    let opt = m_opt[0].duration_ns();
    let basic = m_basic[0].duration_ns();
    assert!(basic > opt, "basic={basic} should exceed optimized={opt}");
}

#[test]
fn executors_run_as_dpm_children() {
    // Channel handshakes between executors must carry DPM communicator
    // kind; validated indirectly: a shuffle across executors succeeds and
    // rank routing holds for executor↔executor (Dpm/Dpm) and
    // executor↔driver (Dpm/World) pairs — any mis-route would hang or
    // panic the MPI body transfer.
    let (sum, _) = run_mpi(Design::Optimized, |sc| {
        let pairs: Vec<(u64, u64)> = (0..60u64).map(|i| (i % 3, i)).collect();
        sc.parallelize(pairs, 6)
            .reduce_by_key(3, |a, b| a + b)
            .collect()
            .into_iter()
            .map(|(_, v)| v)
            .sum::<u64>()
    });
    assert_eq!(sum, (0..60).sum::<u64>());
}

#[test]
fn mpi_and_vanilla_agree_functionally() {
    fn workload(sc: &sparklet::scheduler::SparkContext) -> Vec<(u64, u64)> {
        let pairs: Vec<(u64, u64)> = (0..250u64).map(|i| (i % 17, i)).collect();
        let mut v = sc.parallelize(pairs, 7).reduce_by_key(5, |a, b| a.max(b)).collect();
        v.sort_unstable();
        v
    }
    let (mpi, _) = run_mpi(Design::Optimized, workload);
    let spec = ClusterSpec::test(5);
    let cluster = ClusterConfig::paper_layout(spec.len(), small_conf());
    let (van, _) = sparklet::deploy::simulate(
        &spec,
        cluster,
        Arc::new(sparklet::VanillaBackend::default()),
        Arc::new(sparklet::ProcessBuilderLauncher),
        workload,
    );
    assert_eq!(mpi, van);
}
