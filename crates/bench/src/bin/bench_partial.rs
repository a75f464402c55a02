//! Bounded-latency bench: deadline sweep over a straggler-afflicted GroupBy.
//!
//! One worker node's links turn slow for the whole run (speculation off, so
//! nothing rescues the stragglers) and `count_approx` runs under a sweep of
//! virtual-clock budgets: 25/50/75% of the unbounded straggler job's time,
//! plus unbounded on both a clean and a slow fabric. Each budget trades
//! coverage for latency; the report shows the accuracy the evaluator buys
//! at each point — the confidence interval must bracket the true group
//! count wherever at least two partitions were folded.
//!
//! Reported per cell: deadline (fraction of the unbounded slow run),
//! partitions folded / total, the `[low, high]` interval, virtual job time,
//! and host wall-clock throughput.
//!
//! Run: `cargo run --release -p mpi4spark-bench --bin bench_partial`
//! JSON artifact: `... --bin bench_partial -- --json` writes
//! `BENCH_partial.json`.

use fabric::{ClusterSpec, FaultPlan};
use mpi4spark_bench::report::{print_table, ratio, secs};
use mpi4spark_bench::Scale;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::{BoundedDouble, PartialResult, SparkConf};
use workloads::System;

const MS: u64 = 1_000_000;
/// A budget no job reaches (~17 virtual minutes).
const NEVER: u64 = 1_000_000 * MS;
/// Worker node whose links slow down (`ClusterSpec::test(5)` +
/// `paper_layout`: workers on 0..2, master on 3, driver on 4).
const VICTIM: usize = 1;
/// Distinct keys — the true answer every interval must bracket.
const KEYS: u64 = 500;
const MAP_PARTS: usize = 12;
const REDUCE_PARTS: usize = 48;
/// Per-message delay on the victim's links.
const SLOW_NS: u64 = 2 * MS;

fn records(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 48_000,
        Scale::Small => 12_000,
    }
}

fn conf() -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf
}

/// The bounded action: GroupBy over uniform keys, approximate group count.
fn approx_count(sc: &SparkContext, n: u64, timeout_ns: u64) -> PartialResult<BoundedDouble> {
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i % KEYS, i)).collect();
    sc.parallelize(pairs, MAP_PARTS).group_by_key(REDUCE_PARTS).count_approx(timeout_ns, None)
}

struct Cell {
    system: System,
    slow: bool,
    /// Budget as a fraction of the unbounded slow run's job time (`None`:
    /// unbounded).
    frac: Option<f64>,
    timeout_ns: u64,
    result: PartialResult<BoundedDouble>,
    job_ns: u64,
    wall_ms: u64,
}

impl Cell {
    fn sim_rate(&self) -> f64 {
        self.job_ns as f64 / (self.wall_ms as f64 * 1e6).max(1.0)
    }
}

fn run_cell(system: System, scale: Scale, slow: bool, frac: Option<f64>, timeout_ns: u64) -> Cell {
    let spec = ClusterSpec::test(5);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf());
    let n = records(scale);
    let app = move |sc: &SparkContext| approx_count(sc, n, timeout_ns);
    // detlint: allow(D1, reason = "host wall-clock times the simulator itself, not simulated events")
    let wall = std::time::Instant::now();
    let out = if slow {
        let plan = FaultPlan::seeded(41).slow_node(VICTIM, 0, 100_000_000 * MS, SLOW_NS).build();
        system.run_with_chaos(&spec, cluster, plan, app)
    } else {
        system.run(&spec, cluster, app)
    };
    Cell {
        system,
        slow,
        frac,
        timeout_ns,
        result: out.result,
        job_ns: out.jobs[0].duration_ns(),
        wall_ms: wall.elapsed().as_millis() as u64,
    }
}

fn bound(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}")
    } else {
        "inf".into()
    }
}

fn write_json(path: &str, scale: Scale, cells: &[Cell]) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"system\":{:?},\"fabric\":{:?},\"deadline_frac\":{},\
                 \"timeout_ns\":{},\"seen\":{},\"total\":{},\"mean\":{:.3},\
                 \"low\":{:?},\"high\":{:?},\"contains_truth\":{},\"final\":{},\
                 \"job_ns\":{},\"wall_ms\":{},\"sim_ns_per_host_ns\":{:.3}}}",
                c.system.label(),
                if c.slow { "slow" } else { "clean" },
                c.frac.map_or("null".into(), |f| format!("{f:.2}")),
                c.timeout_ns,
                c.result.partitions_seen,
                c.result.total_partitions,
                c.result.value.mean,
                bound(c.result.value.low),
                bound(c.result.value.high),
                c.result.value.contains(KEYS as f64),
                c.result.is_final,
                c.job_ns,
                c.wall_ms,
                c.sim_rate()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"bench_partial\",\n  \"workload\": \"GroupBy uniform({KEYS} keys), \
         count_approx deadline sweep\",\n  \"records\": {},\n  \"map_partitions\": {MAP_PARTS},\n  \
         \"reduce_partitions\": {REDUCE_PARTS},\n  \"slow_ns_per_msg\": {SLOW_NS},\n  \
         \"scale\": {:?},\n  \"cells\": [\n{}\n  ]\n}}\n",
        records(scale),
        if scale == Scale::Full { "full" } else { "small" },
        rows.join(",\n")
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn main() {
    let scale = Scale::from_env_args();
    let json = std::env::args().any(|a| a == "--json");
    let systems = [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark];
    let fracs = [0.25, 0.5, 0.75];

    let mut cells = Vec::new();
    for system in systems {
        let clean = run_cell(system, scale, false, None, NEVER);
        let unbounded = run_cell(system, scale, true, None, NEVER);
        let t = unbounded.job_ns;
        cells.push(clean);
        cells.push(unbounded);
        for f in fracs {
            cells.push(run_cell(system, scale, true, Some(f), (t as f64 * f) as u64));
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.system.label().to_string(),
                if c.slow { "slow" } else { "clean" }.to_string(),
                c.frac.map_or("unbounded".into(), |f| format!("{:.0}%", f * 100.0)),
                format!("{}/{}", c.result.partitions_seen, c.result.total_partitions),
                format!("[{}, {}]", bound(c.result.value.low), bound(c.result.value.high)),
                format!("{}", c.result.value.contains(KEYS as f64)),
                secs(c.job_ns),
                format!("{:.0}", c.sim_rate()),
            ]
        })
        .collect();
    print_table(
        "Bounded-latency count — deadline sweep on a straggler fabric",
        &[
            "system",
            "fabric",
            "budget",
            "seen",
            "interval",
            "brackets truth",
            "job(s)",
            "sim ns/host ns",
        ],
        &rows,
    );

    // Contracts checked on every run.
    for per_system in cells.chunks(2 + fracs.len()) {
        let label = per_system[0].system.label();
        let (clean, unbounded, swept) = (&per_system[0], &per_system[1], &per_system[2..]);
        for c in [clean, unbounded] {
            assert!(c.result.is_final, "{label}: unbounded run must complete");
            assert_eq!(
                c.result.value,
                BoundedDouble::exact(KEYS as f64),
                "{label}: unbounded run must count exactly"
            );
        }
        assert!(
            2 * clean.job_ns < unbounded.job_ns,
            "{label}: the straggler never bit (clean {} vs slow {} — {})",
            clean.job_ns,
            unbounded.job_ns,
            ratio(unbounded.job_ns, clean.job_ns),
        );
        let mut prev_seen = 0;
        for c in swept {
            assert!(!c.result.is_final, "{label}: budgeted run must expire");
            assert!(
                c.result.partitions_seen < c.result.total_partitions,
                "{label}: expired run cannot have full coverage"
            );
            assert!(
                c.result.partitions_seen >= prev_seen,
                "{label}: coverage must grow with the budget"
            );
            prev_seen = c.result.partitions_seen;
            // The deadline actually bounds the job: it ends within the
            // budget (plus the submission-to-start skew of one task
            // overhead) instead of waiting out the stragglers.
            assert!(
                c.job_ns <= c.timeout_ns + MS && c.job_ns < unbounded.job_ns,
                "{label}: job ran past its budget ({} vs {})",
                c.job_ns,
                c.timeout_ns
            );
            if c.result.partitions_seen >= 2 {
                assert!(
                    c.result.value.contains(KEYS as f64),
                    "{label}: interval [{}, {}] misses the true {KEYS} groups",
                    c.result.value.low,
                    c.result.value.high
                );
            }
        }
        assert!(
            swept.last().unwrap().result.partitions_seen > 0,
            "{label}: the 75% budget saw nothing"
        );
    }

    // Same seed, same budget, same bytes: the bounded run is deterministic.
    let mid = &cells[2 + fracs.len() + 3]; // RDMA's 50% cell
    let again = run_cell(mid.system, scale, true, mid.frac, mid.timeout_ns);
    assert_eq!(mid.result, again.result, "same-seed bounded re-run must be byte-identical");

    if json {
        write_json("BENCH_partial.json", scale, &cells);
    }
}
