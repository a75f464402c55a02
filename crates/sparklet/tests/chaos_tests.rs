//! Seeded chaos matrix: {drop, delay, flap, node-crash} × the paper's four
//! systems, each asserting `group_by_key`/`collect` correctness and a clean
//! sim report at shutdown (`System::run_with_chaos` calls
//! `SimReport::assert_clean()` internally).
//!
//! Window placement strategy: virtual time is deterministic, so a clean run
//! of the same workload measures exactly when the shuffle-read stage
//! (`Job0-ResultStage`) happens; fault windows are then placed at fractions
//! of that stage's duration. Because no fault is scheduled before the stage
//! starts, the chaos run is bit-identical to the clean run up to the first
//! verdict — the faults are guaranteed to land mid-shuffle, not before or
//! after it.
//!
//! Every schedule derives from a `u64` seed; rerunning with the same seed
//! reproduces the failure bit-for-bit (see
//! `same_seed_reproduces_the_run_bit_for_bit`).

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use simt::SeededRng;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::transfer::PLANE_FAILURE_THRESHOLD;
use sparklet::SparkConf;
use workloads::System;

const MS: u64 = 1_000_000;
/// Worker nodes under `ClusterSpec::test(5)` + `paper_layout` (master and
/// driver sit on nodes 3 and 4). Faults must stay on worker↔worker links:
/// the control plane (task launch, map-output lookups) is not retried.
const WORKERS: [usize; 3] = [0, 1, 2];

fn chaos_conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    // One chunk per block, so a dropped chunk maps to exactly one block and
    // the retry layer re-requests only that block.
    conf.merge_chunks_per_request = false;
    // Millisecond-scale failure detection: fault windows measure µs–ms, so
    // a stalled attempt must be declared dead quickly (virtual) and retried
    // after the window has passed.
    conf.connect_timeout_ns = 50 * MS;
    conf.request_timeout_ns = 200 * MS;
    conf.fetch_timeout_ns = 300 * MS;
    conf.fetch_max_retries = 8;
    conf.fetch_retry_base_ns = 20 * MS;
    conf.fetch_retry_max_ns = 200 * MS;
    conf
}

fn all_systems() -> [System; 4] {
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark]
}

/// 9 map partitions and 9 reduce partitions over 3 executors × 4 cores:
/// more tasks than any two executors have slots, so every worker hosts map
/// output and reduce tasks, and every worker↔worker link carries shuffle
/// traffic.
fn groupby(sc: &SparkContext) -> Vec<(u64, Vec<u64>)> {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 23, i)).collect();
    let mut groups = sc.parallelize(pairs, 9).group_by_key(9).collect();
    groups.sort_by_key(|(k, _)| *k);
    groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
    groups
}

fn oracle() -> Vec<(u64, Vec<u64>)> {
    let mut groups: Vec<(u64, Vec<u64>)> =
        (0..23u64).map(|k| (k, (0..400u64).filter(|i| i % 23 == k).collect())).collect();
    groups.sort_by_key(|(k, _)| *k);
    groups
}

/// `[start, start + dur)` of the shuffle-read stage in a fault-free run.
fn measure_result_stage(system: System, spec: &ClusterSpec) -> (u64, u64) {
    let cluster = ClusterConfig::paper_layout(spec.len(), chaos_conf());
    let out = system.run(spec, cluster, groupby);
    assert_eq!(out.result, oracle(), "{}: clean run must be correct", system.label());
    let stage = out
        .jobs
        .iter()
        .flat_map(|j| j.stages.iter())
        .find(|s| s.name == "Job0-ResultStage")
        .unwrap_or_else(|| panic!("{}: no Job0-ResultStage", system.label()));
    (stage.start_ns, (stage.end_ns - stage.start_ns).max(1_000))
}

fn run_chaos(
    system: System,
    spec: &ClusterSpec,
    plan: FaultPlan,
) -> workloads::RunOutcome<Vec<(u64, Vec<u64>)>> {
    let cluster = ClusterConfig::paper_layout(spec.len(), chaos_conf());
    system.run_with_chaos(spec, cluster, plan, groupby)
}

/// Cap fault windows well below the request timeout so a timed-out attempt
/// is always re-issued after the outage has cleared.
fn span(dur: u64) -> u64 {
    (2 * dur).clamp(1_000, 100 * MS)
}

#[test]
fn drop_window_on_a_worker_link_is_survived_by_all_systems() {
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let (start, dur) = measure_result_stage(system, &spec);
        let plan = FaultPlan::seeded(11).drop_link_sym(0, 1, start, span(dur)).build();
        let out = run_chaos(system, &spec, plan);
        assert_eq!(out.result, oracle(), "{}: wrong result under link drop", system.label());
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the drop window never bit", system.label());
    }
}

#[test]
fn delayed_worker_links_still_yield_correct_results() {
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let (start, dur) = measure_result_stage(system, &spec);
        let extra = (dur / 2).clamp(1_000, 50 * MS);
        let mut b = FaultPlan::seeded(12);
        for (i, &a) in WORKERS.iter().enumerate() {
            for &c in &WORKERS[i + 1..] {
                b = b.delay_link(a, c, start, span(dur), extra).delay_link(
                    c,
                    a,
                    start,
                    span(dur),
                    extra,
                );
            }
        }
        let out = run_chaos(system, &spec, b.build());
        assert_eq!(out.result, oracle(), "{}: wrong result under link delay", system.label());
        let delayed = out.metrics.counter(keys::NET_CHAOS_DELAYED_MSGS);
        assert!(delayed > 0, "{}: the delay window never bit", system.label());
    }
}

#[test]
fn link_flap_forces_per_block_retries_on_every_system() {
    // The acceptance bar: a mid-shuffle flap on every worker link completes
    // correctly on all four backends with at least one *observed* per-block
    // retry — asserted through the stage metrics, not incidental.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let (start, dur) = measure_result_stage(system, &spec);
        let period = (dur / 3).max(8);
        let down_for = (dur / 6).max(2);
        let mut b = FaultPlan::seeded(13);
        for (i, &a) in WORKERS.iter().enumerate() {
            for &c in &WORKERS[i + 1..] {
                b = b.flap_link(a, c, start, period, down_for, 6);
            }
        }
        let out = run_chaos(system, &spec, b.build());
        assert_eq!(out.result, oracle(), "{}: wrong result under link flap", system.label());
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the flap never bit", system.label());
        let retries = out.metrics.counter(keys::SPARK_FETCH_RETRIES);
        assert!(
            retries >= 1,
            "{}: flap survived without a single per-block retry (dropped {})",
            system.label(),
            dropped
        );
    }
}

#[test]
fn data_plane_isolation_of_one_worker_recovers_on_all_systems() {
    // Node 1's links to its worker peers die mid-shuffle while its driver
    // and master links survive — the "crashed data plane" the FetchFailed
    // machinery plus per-block retry must ride out.
    let spec = ClusterSpec::test(5);
    for system in all_systems() {
        let (start, dur) = measure_result_stage(system, &spec);
        let plan = FaultPlan::seeded(14).isolate_among(1, &WORKERS, start, span(dur)).build();
        let out = run_chaos(system, &spec, plan);
        assert_eq!(out.result, oracle(), "{}: wrong result under isolation", system.label());
        let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
        assert!(dropped > 0, "{}: the isolation never bit", system.label());
    }
}

#[test]
fn same_seed_reproduces_the_run_bit_for_bit() {
    let spec = ClusterSpec::test(5);
    let (start, dur) = measure_result_stage(System::Mpi4Spark, &spec);
    let plan = |seed: u64| {
        let mut b = FaultPlan::seeded(seed);
        for (i, &a) in WORKERS.iter().enumerate() {
            for &c in &WORKERS[i + 1..] {
                b = b.flap_link(a, c, start, (dur / 3).max(8), (dur / 6).max(2), 6);
            }
        }
        b.build()
    };
    let fingerprint = |seed: u64| {
        let out = run_chaos(System::Mpi4Spark, &spec, plan(seed));
        let summary = (
            out.total_ns(),
            out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS),
            out.metrics.counter(keys::NET_CHAOS_DELAYED_MSGS),
            out.metrics.counter(keys::SPARK_FETCH_RETRIES),
        );
        (out.result, summary)
    };
    let a = fingerprint(99);
    let b = fingerprint(99);
    assert_eq!(a, b, "same seed must reproduce results, timings, and fault counts exactly");
    assert_ne!(plan(99), plan(100), "different seeds must schedule different fault windows");
}

#[test]
fn mpi_plane_outage_degrades_to_sockets_and_completes() {
    // Fallback-degradation ablation: kill only the MPI software stack on
    // every worker link, permanently, mid-shuffle. The socket plane stays
    // healthy, so after `PLANE_FAILURE_THRESHOLD` consecutive plane-level
    // failures the retry layer must switch the fetch path to the backend's
    // socket fallback plane and finish the job.
    let spec = ClusterSpec::test(5);
    let (start, _) = measure_result_stage(System::Mpi4Spark, &spec);
    let mut b = FaultPlan::seeded(15);
    for (i, &a) in WORKERS.iter().enumerate() {
        for &c in &WORKERS[i + 1..] {
            b = b.drop_link_stack(a, c, start, u64::MAX / 2, "MPI");
        }
    }
    let out = run_chaos(System::Mpi4Spark, &spec, b.build());
    assert_eq!(out.result, oracle(), "job must complete on the socket fallback plane");
    let dropped = out.metrics.counter(keys::NET_CHAOS_DROPPED_MSGS);
    assert!(dropped > 0, "the MPI-stack outage never bit");
    let threshold = u64::from(PLANE_FAILURE_THRESHOLD);
    let retries = out.metrics.counter(keys::SPARK_FETCH_RETRIES);
    assert!(
        retries >= threshold,
        "degradation needs >= {threshold} plane failures; saw {} retries",
        retries
    );
}

/// Randomized-seed smoke run (ignored by default; CI runs it in `--release`
/// with a generated seed). On failure the printed seed replays the exact
/// fault schedule: `CHAOS_SEED=<seed> cargo test --release -p sparklet
/// --test chaos_tests -- --ignored randomized_seed`.
#[test]
#[ignore = "randomized chaos smoke — run explicitly; set CHAOS_SEED to replay"]
fn randomized_seed_chaos_smoke() {
    let seed: u64 =
        std::env::var("CHAOS_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0xC0FFEE);
    eprintln!("chaos smoke: CHAOS_SEED={seed}");
    let spec = ClusterSpec::test(5);
    let mut rng = SeededRng::from_seed(seed);
    for system in [System::Vanilla, System::Mpi4Spark] {
        let (start, dur) = measure_result_stage(system, &spec);
        // Seed-derived scenario: flap one worker pair, delay another.
        let pairs = [(0, 1), (0, 2), (1, 2)];
        let flap = pairs[rng.next_range(0, pairs.len() as u64) as usize];
        let slow = pairs[rng.next_range(0, pairs.len() as u64) as usize];
        let plan = FaultPlan::seeded(seed)
            .flap_link(
                flap.0,
                flap.1,
                start,
                (dur / 2).max(8),
                (dur / rng.next_range(3, 8)).max(2),
                rng.next_range(2, 6) as u32,
            )
            .delay_link(slow.0, slow.1, start, span(dur), (dur / 4).max(1_000))
            .build();
        let out = run_chaos(system, &spec, plan);
        assert_eq!(
            out.result,
            oracle(),
            "{}: wrong result; replay with CHAOS_SEED={seed}",
            system.label()
        );
    }
    eprintln!("chaos smoke: seed {seed} survived");
}
