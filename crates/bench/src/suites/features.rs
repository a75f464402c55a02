//! The post-paper feature benches — lineage recovery + speculation, adaptive
//! query execution, bounded-latency approximate actions — each with the
//! contracts its subsystem must honour asserted on every run.

use fabric::{ClusterSpec, FaultPlan};
use obs::keys;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::{AqeConf, BoundedDouble, PartialResult, SparkConf, SpeculationConf};
use workloads::ohb::{group_by_zipf_app, OhbConfig};
use workloads::System;

use crate::record::{counters, real_x1000, Record, Run};
use crate::Scale;

const MS: u64 = 1_000_000;
const ALL_SYSTEMS: [System; 4] =
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark];
/// Worker node the faults target (`ClusterSpec::test(5)` + `paper_layout`:
/// workers on 0..2, master on 3, driver on 4).
const VICTIM: usize = 1;

/// 4 cores per executor, 10 µs task overhead: the feature benches' cluster.
fn small_conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

fn recovery_conf(speculation: bool) -> SparkConf {
    let mut conf = small_conf();
    conf.merge_chunks_per_request = false;
    conf.connect_timeout_ns = 50 * MS;
    conf.request_timeout_ns = 100 * MS;
    conf.fetch_timeout_ns = 150 * MS;
    conf.fetch_max_retries = 1;
    conf.fetch_retry_base_ns = 20 * MS;
    conf.fetch_retry_max_ns = 100 * MS;
    conf.speculation = SpeculationConf {
        enabled: speculation,
        interval_ns: MS,
        multiplier: 2.0,
        quantile: 0.5,
        min_runtime_ns: MS,
    };
    conf
}

/// Recovery overhead: a 9×9 GroupBy on MPI4Spark-Optimized, fault-free with
/// speculation off and on; **crash-map** (the victim dies as the map stage
/// launches and speculation re-runs the stranded tasks); **crash-reduce**
/// (it dies after writing its map outputs, so fetch retries exhaust and the
/// scheduler quarantines it, recomputes the lost partitions by lineage and
/// resubmits the reduce attempt); **slowdown** with speculation off and on.
pub fn recovery(run: &mut Run<'_>) {
    let pairs: u64 = if run.scale == Scale::Full { 40_000 } else { 2_000 };
    let spec = ClusterSpec::test(5);
    let groupby = move |sc: &SparkContext| {
        let data: Vec<(u64, u64)> = (0..pairs).map(|i| (i % 97, i)).collect();
        sc.parallelize(data, 9).group_by_key(9).collect().len()
    };
    // Stage start times of the fault-free speculation-on run aim the faults.
    let clean = ClusterConfig::paper_layout(spec.len(), recovery_conf(true));
    let clean = System::Mpi4Spark.run(&spec, clean, groupby);
    let stage_start = |name: &str| {
        let stage = clean.jobs.iter().flat_map(|j| j.stages.iter()).find(|s| s.name == name);
        stage.unwrap_or_else(|| panic!("no stage named {name}")).start_ns.saturating_sub(50_000)
    };
    let (map_start, reduce_start) =
        (stage_start("Job0-ShuffleMapStage"), stage_start("Job0-ResultStage"));
    let crash = |start, dur| Some(FaultPlan::seeded(31).crash_node(VICTIM, start, dur).build());
    let slow =
        || Some(FaultPlan::seeded(32).slow_node(VICTIM, map_start, 10_000 * MS, 20 * MS).build());

    let mut cell = |fault: &str, speculation: bool, plan: Option<FaultPlan>, linger_ns: u64| {
        let cluster = ClusterConfig::paper_layout(spec.len(), recovery_conf(speculation));
        let out = match plan {
            // Linger so teardown outlives the crash window.
            Some(plan) => System::Mpi4Spark.run_with_chaos(&spec, cluster, plan, move |sc| {
                let n = groupby(sc);
                simt::sleep(linger_ns);
                n
            }),
            None => System::Mpi4Spark.run(&spec, cluster, groupby),
        };
        assert_eq!(out.result, 97, "{fault}: wrong group count");
        let on_off = if speculation { "on" } else { "off" };
        run.emit(
            &[("fault", fault.to_string()), ("speculation", on_off.to_string())],
            out.total_ns(),
            counters(&out.metrics, &[keys::SPARK_STAGE_RESUBMITS, keys::SPARK_SPECULATIVE_TASKS]),
        )
    };
    let clean_off = cell("fault-free", false, None, 0);
    let clean_on = cell("fault-free", true, None, 0);
    let crash_map = cell("crash-map", true, crash(map_start, 50 * MS), 100 * MS);
    let crash_reduce = cell("crash-reduce", true, crash(reduce_start, 600 * MS), 1_200 * MS);
    let slow_off = cell("slowdown", false, slow(), 0);
    let slow_on = cell("slowdown", true, slow(), 0);

    assert_eq!(
        clean_on.virtual_ns, clean_off.virtual_ns,
        "the speculation tick loop must not change a straggler-free job's virtual time"
    );
    assert!(
        crash_map.value(keys::SPARK_SPECULATIVE_TASKS) >= 1,
        "crash-map must speculate stranded tasks"
    );
    assert!(
        crash_reduce.value(keys::SPARK_STAGE_RESUBMITS) >= 1,
        "crash-reduce must resubmit a stage"
    );
    assert!(
        2 * slow_on.virtual_ns < slow_off.virtual_ns,
        "speculation must measurably cut the slowdown cell's virtual job time ({} vs {} ns)",
        slow_on.virtual_ns,
        slow_off.virtual_ns
    );
}

/// Adaptive execution: OHB GroupByTest over zipf(2.5) keys (the head key
/// carries ~75% of all records, the canonical "one hot reducer" shape) on
/// all four systems, static vs adaptive. The adaptive plan splits the hot
/// bucket into map-range slices (two-phase aggregation) and coalesces the
/// near-empty tail, so the reduce stage's critical path drops from "the one
/// hot task" to "the widest slice".
pub fn aqe(run: &mut Run<'_>) {
    let spec = ClusterSpec::test(10);
    let partitions = 32;
    let records_per_partition = if run.scale == Scale::Full { 8_000 } else { 2_000 };
    let cfg = OhbConfig {
        partitions,
        records_per_partition,
        value_bytes: 100,
        key_range: 1_000,
        seed: 0xA0E,
    };
    // Target ≈ the average bucket: the hot bucket (~24× the average) splits
    // into map-range slices, the zipf tail coalesces.
    let adaptive = AqeConf {
        enabled: true,
        target_bytes: cfg.total_bytes() / partitions as u64,
        skew_factor: 2.0,
        max_slices: 32,
    };
    for system in ALL_SYSTEMS {
        let label = system.label();
        let mut cell = |plan: &str, aqe: AqeConf| {
            let conf = SparkConf { aqe, ..small_conf() };
            let cluster = ClusterConfig::paper_layout(spec.len(), conf);
            let out = system.run(&spec, cluster, move |sc| group_by_zipf_app(sc, cfg, 2.5));
            // Job 0 is datagen; job 1 is the GroupBy.
            let mut values = vec![
                ("groupby_ns", out.jobs[1].duration_ns() as i64),
                ("groups", out.result as i64),
            ];
            values.extend(counters(
                &out.metrics,
                &[
                    keys::SPARK_AQE_TASKS,
                    keys::SPARK_AQE_SPLIT_SLICES,
                    keys::SPARK_AQE_COALESCED_TASKS,
                ],
            ));
            run.emit(
                &[("system", label.to_string()), ("plan", plan.to_string())],
                out.total_ns(),
                values,
            )
        };
        let stat = cell("static", AqeConf::default());
        let adap = cell("adaptive", adaptive);
        assert_eq!(stat.value(keys::SPARK_AQE_TASKS), 0, "{label}: AQE off must never plan");
        assert!(adap.value(keys::SPARK_AQE_TASKS) > 0, "{label}: AQE on never engaged");
        assert!(
            adap.value(keys::SPARK_AQE_SPLIT_SLICES) > 0,
            "{label}: the hot bucket was never split"
        );
        assert_eq!(
            stat.value("groups"),
            adap.value("groups"),
            "{label}: adaptive changed the job's result"
        );
        if system == System::Mpi4Spark {
            assert!(
                stat.value("groupby_ns") >= 2 * adap.value("groupby_ns"),
                "AQE must cut the zipfian GroupBy job's virtual time at least 2x on MPI \
                 (static {} vs adaptive {} ns)",
                stat.value("groupby_ns"),
                adap.value("groupby_ns"),
            );
        }
    }
}

/// A budget no job reaches (~17 virtual minutes).
const NEVER: u64 = 1_000_000 * MS;
/// Distinct keys — the true answer every interval must bracket.
const KEYS: u64 = 500;

/// One bounded cell's answer next to its record.
struct Bounded {
    result: PartialResult<BoundedDouble>,
    rec: Record,
}

/// Bounded latency: `count_approx` over a 12→48-partition GroupBy while one
/// worker's links are slow for the whole run (2 ms/message, speculation off,
/// so nothing rescues the stragglers), under budgets of 25/50/75% of the
/// unbounded straggler job's time plus unbounded on a clean and a slow
/// fabric. Each budget trades coverage for latency; the interval must
/// bracket the true group count wherever at least two partitions folded.
pub fn partial(run: &mut Run<'_>) {
    let n: u64 = if run.scale == Scale::Full { 48_000 } else { 12_000 };
    let spec = ClusterSpec::test(5);
    let mut cell = |system: System, slow: bool, budget: &str, timeout_ns: u64| {
        let cluster = ClusterConfig::paper_layout(spec.len(), small_conf());
        let app = move |sc: &SparkContext| {
            let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i % KEYS, i)).collect();
            sc.parallelize(pairs, 12).group_by_key(48).count_approx(timeout_ns, None)
        };
        let out = if slow {
            let plan = FaultPlan::seeded(41).slow_node(VICTIM, 0, 100_000_000 * MS, 2 * MS).build();
            system.run_with_chaos(&spec, cluster, plan, app)
        } else {
            system.run(&spec, cluster, app)
        };
        let r = out.result;
        let thousandths = |x: f64| if x.is_finite() { real_x1000(x) } else { -1 };
        let cell = [
            ("system", system.label().to_string()),
            ("fabric", if slow { "slow" } else { "clean" }.to_string()),
            ("budget", budget.to_string()),
        ];
        // `high_x1000` is -1 while the interval has no upper bound yet.
        let values = vec![
            ("timeout_ns", timeout_ns as i64),
            ("seen", r.partitions_seen as i64),
            ("total", r.total_partitions as i64),
            ("mean_x1000", thousandths(r.value.mean)),
            ("low_x1000", thousandths(r.value.low)),
            ("high_x1000", thousandths(r.value.high)),
            ("brackets_truth", i64::from(r.value.contains(KEYS as f64))),
            ("final", i64::from(r.is_final)),
        ];
        let rec = run.emit(&cell, out.jobs[0].duration_ns(), values);
        Bounded { result: r, rec }
    };

    for system in ALL_SYSTEMS {
        let label = system.label();
        let clean = cell(system, false, "unbounded", NEVER);
        let unbounded = cell(system, true, "unbounded", NEVER);
        let t = unbounded.rec.virtual_ns;
        for c in [&clean, &unbounded] {
            assert!(c.result.is_final, "{label}: unbounded run must complete");
            assert_eq!(
                c.result.value,
                BoundedDouble::exact(KEYS as f64),
                "{label}: unbounded run must count exactly"
            );
        }
        assert!(
            2 * clean.rec.virtual_ns < t,
            "{label}: the straggler never bit (clean {} vs slow {t} ns)",
            clean.rec.virtual_ns
        );
        let mut prev_seen = 0;
        for (budget, frac) in [("25%", 0.25), ("50%", 0.5), ("75%", 0.75)] {
            let c = cell(system, true, budget, (t as f64 * frac) as u64);
            let (r, job_ns) = (&c.result, c.rec.virtual_ns);
            let timeout_ns = c.rec.value("timeout_ns") as u64;
            assert!(!r.is_final, "{label}: budgeted run must expire");
            assert!(
                r.partitions_seen < r.total_partitions,
                "{label}: expired run cannot have full coverage"
            );
            assert!(r.partitions_seen >= prev_seen, "{label}: coverage must grow with the budget");
            prev_seen = r.partitions_seen;
            // The deadline actually bounds the job: it ends within the
            // budget (plus the submission-to-start skew of one task
            // overhead) instead of waiting out the stragglers.
            assert!(
                job_ns <= timeout_ns + MS && job_ns < t,
                "{label}: job ran past its budget ({job_ns} vs {timeout_ns})"
            );
            if r.partitions_seen >= 2 {
                assert!(
                    r.value.contains(KEYS as f64),
                    "{label}: interval [{}, {}] misses the true {KEYS} groups",
                    r.value.low,
                    r.value.high
                );
            }
            // Same seed, same budget, same bytes: re-run one bounded cell.
            if system == System::RdmaSpark && budget == "50%" {
                let again = cell(system, true, "50% (re-run)", timeout_ns);
                assert_eq!(c.result, again.result, "same-seed bounded re-run must be identical");
            }
        }
        assert!(prev_seen > 0, "{label}: the 75% budget saw nothing");
    }
}
