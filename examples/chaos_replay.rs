//! Seed-replay harness for the chaos layer: flap every worker↔worker link
//! across the shuffle-read stage of an OHB-style GroupBy and verify the
//! result on all four systems. The entire run — fault windows, retry
//! timing, results — is a pure function of the seed, so any failure found
//! by a randomized run is replayed exactly by passing the printed seed back:
//!
//! ```text
//! cargo run --release --example chaos_replay -- --chaos-seed 31337
//! CHAOS_SEED=31337 cargo run --release --example chaos_replay
//! ```

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::SparkConf;
use workloads::System;

const MS: u64 = 1_000_000;
const WORKERS: [usize; 3] = [0, 1, 2];

fn conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf.merge_chunks_per_request = false;
    conf.connect_timeout_ns = 50 * MS;
    conf.request_timeout_ns = 200 * MS;
    conf.fetch_timeout_ns = 300 * MS;
    conf.fetch_max_retries = 8;
    conf.fetch_retry_base_ns = 20 * MS;
    conf.fetch_retry_max_ns = 200 * MS;
    conf
}

fn groupby(sc: &SparkContext) -> Vec<(u64, Vec<u64>)> {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    let mut groups = sc.parallelize(pairs, 9).group_by_key(9).collect();
    groups.sort_by_key(|(k, _)| *k);
    groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
    groups
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .iter()
        .position(|a| a == "--chaos-seed")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("CHAOS_SEED").ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xC0FFEE);
    println!("chaos replay: seed {seed}");

    let spec = ClusterSpec::test(5);
    let oracle: Vec<(u64, Vec<u64>)> =
        (0..23u64).map(|k| (k, (0..400u64).filter(|i| i % 23 == k).collect())).collect();

    println!(
        "{:>10}  {:>9} {:>9} {:>8} {:>10}",
        "system", "dropped", "delayed", "retries", "total(ms)"
    );
    let mut failed = false;
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        // Fault-free run to find the shuffle-read window on this system.
        let clean = system.run(&spec, ClusterConfig::paper_layout(spec.len(), conf()), groupby);
        let stage = clean
            .jobs
            .iter()
            .flat_map(|j| j.stages.iter())
            .find(|s| s.name == "Job0-ResultStage")
            .expect("groupby has a result stage");
        let (start, dur) = (stage.start_ns, (stage.end_ns - stage.start_ns).max(1_000));

        let mut plan = FaultPlan::seeded(seed);
        for (i, &a) in WORKERS.iter().enumerate() {
            for &b in &WORKERS[i + 1..] {
                plan = plan.flap_link(a, b, start, (dur / 3).max(8), (dur / 6).max(2), 6);
            }
        }
        let out = system.run_with_chaos(
            &spec,
            ClusterConfig::paper_layout(spec.len(), conf()),
            plan.build(),
            groupby,
        );
        let ok = out.result == oracle;
        failed |= !ok;
        println!(
            "{:>10}  {:>9} {:>9} {:>8} {:>10.2}  {}",
            system.label(),
            out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS),
            out.metrics.counter(keys::NET_CHAOS_DELAYED_MSGS),
            out.metrics.counter(keys::SPARK_FETCH_RETRIES),
            out.total_ns() as f64 / 1e6,
            if ok { "ok" } else { "WRONG RESULT" },
        );
    }
    if failed {
        eprintln!("replay with: cargo run --release --example chaos_replay -- --chaos-seed {seed}");
        std::process::exit(1);
    }
}
