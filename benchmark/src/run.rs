//! One benchmark run of one workload: the three passes and the metrics they
//! yield. Closed loop, one client: a cell starts when the previous one ended.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::keys;
use workloads::System;

use crate::affinity::Pinned;
use crate::cell::{run_cell, Cell};
use crate::probes;
use crate::report::Metric;
use crate::spans::{self_times, HarnessSpan, Interval, Recorder};
use crate::workload::{Oracle, Workload};

/// Fewest timed cells a median is reported over, however short `--seconds`.
const MIN_TIMED_CELLS: usize = 3;

/// Counts cells and the ones that failed; `failed / attempted` is the
/// benchmark's `error_rate`.
pub struct Judge {
    oracle: Oracle,
    /// Result of the first cell: LR's loss must be bit-equal on every system.
    first_result: Option<u64>,
    /// Total virtual time of the first cell per system: every later cell on
    /// that system, traced or not, must repeat it exactly.
    first_virtual_ns: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Judge {
    pub fn new(oracle: Oracle) -> Judge {
        Judge {
            oracle,
            first_result: None,
            first_virtual_ns: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// A cell fails if its result differs from the oracle, if the simulation
    /// did not end clean, if its virtual time differs from the earlier cells on
    /// its system, or if netz lost count of a message.
    pub fn check(&mut self, cell: &Cell) {
        self.attempted += 1;
        let system = cell.system.label();
        let first_result = *self.first_result.get_or_insert(cell.result);
        let first_virtual_ns =
            *self.first_virtual_ns.entry(system).or_insert(cell.job_virtual_ns());
        let sent = cell.metrics.counter(keys::NETZ_MSGS_SENT);
        let received = cell.metrics.counter(keys::NETZ_MSGS_RECEIVED);
        if sent != received {
            eprintln!("{system}: netz.msgs_sent {sent} != netz.msgs_received {received}");
        }
        // MPI-Basic moves every message over MPI and never counts a netz
        // receive; the gap is printed above, the counter fix is the program's.
        let balanced = sent == received || cell.system == System::Mpi4SparkBasic;
        let ok = self.oracle.accepts(cell.result, first_result)
            && cell.clean
            && cell.job_virtual_ns() == first_virtual_ns
            && balanced;
        if !ok {
            eprintln!(
                "FAILED cell on {system}: result {} (oracle {:?}), clean {}, virtual {} ns (first cell \
                 {first_virtual_ns} ns), netz sent {sent} received {received}",
                cell.result,
                self.oracle,
                cell.clean,
                cell.job_virtual_ns(),
            );
            self.failed += 1;
        }
    }
}

pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub spans: Vec<HarnessSpan>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn run(w: &Workload, seconds: f64, traced: bool, pinned: &Pinned) -> Run {
    let rec = Arc::new(Recorder::default());
    let mut judge = Judge::new(w.oracle());
    let mut cell = |system, traced| {
        let c = run_cell(w, system, traced, &rec);
        judge.check(&c);
        c
    };

    // Virtual pass. Virtual time is deterministic, so one cell per system is
    // exact. MPI4Spark goes last: it doubles as the timed pass's warm-up cell
    // (the first cell of a process pays for page faults and allocator growth).
    let vanilla = cell(System::Vanilla, false);
    let rdma = cell(System::RdmaSpark, false);
    let basic = cell(System::Mpi4SparkBasic, false);
    let mpi = cell(System::Mpi4Spark, false);
    // Read here, after a fixed number of cells: the program does not give all
    // of a cell's memory back, so at exit the figure would follow the number
    // of timed cells that happened to fit into `--seconds`.
    let peak_rss = Metric::new("peak_rss_mb", "MB", peak_rss_mb());

    // Timed pass, tracing off.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut timed = Vec::new();
    while timed.len() < MIN_TIMED_CELLS || Instant::now() < deadline {
        timed.push(cell(System::Mpi4Spark, false));
    }
    let host = |f: fn(&Cell) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let wall = Metric::median("wall_s", "s", &host(|c| c.wall_s));

    let end_to_end = vec![
        Metric::new("job_virtual_s", "s", secs(mpi.job_virtual_ns())),
        Metric::new("shuffle_read_virtual_s", "s", secs(w.shuffle_read_ns(&mpi.jobs))),
        Metric::new("vanilla_virtual_s", "s", secs(vanilla.job_virtual_ns())),
        Metric::new("rdma_virtual_s", "s", secs(rdma.job_virtual_ns())),
        Metric::new("basic_virtual_s", "s", secs(basic.job_virtual_ns())),
        wall.clone(),
        Metric::median("setup_s", "s", &host(|c| c.setup_s)),
        peak_rss,
    ];

    let mut per_layer = Vec::new();
    if traced {
        // Traced pass: one cell with the program's own spans on, then the
        // layer probes.
        let traced_cell = cell(System::Mpi4Spark, true);
        per_layer = probes::run_all(&rec, pinned);
        let mut put = |name: &str, unit: &'static str, value: f64| {
            per_layer.push(Metric::new(name, unit, value));
        };
        let counter = |key: &str| mpi.metrics.counter(key) as f64;
        let ratio = |a: u64, b: u64| a as f64 / b as f64;

        put(
            "simt.host_us_per_fabric_msg",
            "us",
            wall.value * 1e6 / counter(keys::NET_DELIVERED_MSGS),
        );
        put("fabric.delivered_msgs", "count", counter(keys::NET_DELIVERED_MSGS));
        put("fabric.delivered_bytes", "B", counter(keys::NET_DELIVERED_BYTES));
        put("fabric.dropped_msgs", "count", counter(keys::NET_DROPPED_MSGS));
        put("netz.msgs_sent", "count", counter(keys::NETZ_MSGS_SENT));
        put("netz.bytes_sent", "B", counter(keys::NETZ_BYTES_SENT));
        put("netz.channels_opened", "count", counter(keys::NETZ_CHANNELS_OPENED));
        put("netz.connect_retries", "count", counter(keys::NETZ_CONNECT_RETRIES));
        put("core.launch_virtual_ms", "ms", mpi.launch_virtual_ns as f64 / 1e6);
        put("rdma.read_virtual_s", "s", secs(w.shuffle_read_ns(&rdma.jobs)));

        let stages = || mpi.jobs.iter().flat_map(|j| &j.stages);
        let tasks: usize = stages().map(|s| s.tasks).sum();
        let map_stage_ns: u64 =
            stages().filter(|s| s.name.contains("ShuffleMapStage")).map(|s| s.duration_ns()).sum();
        let stage_ns: u64 = stages().map(|s| s.duration_ns()).sum();
        let task_counter = |key: &str| stages().map(|s| s.metrics.counter(key)).sum::<u64>();
        put("sparklet.jobs", "count", mpi.jobs.len() as f64);
        put("sparklet.stages", "count", stages().count() as f64);
        put("sparklet.tasks", "count", tasks as f64);
        put("sparklet.datagen_virtual_s", "s", secs(mpi.jobs[0].duration_ns()));
        put("sparklet.shuffle_write_virtual_s", "s", secs(map_stage_ns));
        // Scheduling time: what a job's stages leave of it (stages that overlap
        // would leave less than nothing: 0).
        let stage_gap_ns = mpi.job_virtual_ns().saturating_sub(stage_ns);
        put("sparklet.stage_gap_virtual_ms", "ms", stage_gap_ns as f64 / 1e6);
        put("sparklet.fetch_wait_virtual_s", "s", secs(task_counter(keys::TASK_FETCH_WAIT_NS)));
        put("sparklet.task_run_virtual_s", "s", secs(task_counter(keys::TASK_RUN_NS)));
        put("sparklet.remote_bytes", "B", task_counter(keys::TASK_REMOTE_BYTES) as f64);
        put("sparklet.fetch_retries", "count", counter(keys::SPARK_FETCH_RETRIES));
        put("sparklet.stage_resubmits", "count", counter(keys::SPARK_STAGE_RESUBMITS));
        put("sparklet.speculative_tasks", "count", counter(keys::SPARK_SPECULATIVE_TASKS));
        put("sparklet.host_us_per_task", "us", wall.value * 1e6 / tasks as f64);
        put("sparklet.host_us_per_record", "us", wall.value * 1e6 / w.records() as f64);

        put("obs.trace_overhead_ratio", "ratio", traced_cell.wall_s / wall.value);
        put("obs.spans", "count", traced_cell.records.len() as f64);
        put("obs.timeline_mb", "MB", traced_cell.timeline_bytes as f64 / (1 << 20) as f64);
        for (name, ns) in trace_self_virtual_ns(&traced_cell.records) {
            put(&format!("trace.{name}.self_virtual_s"), "s", secs(ns));
        }

        put(
            "paper.speedup_total_vs_vanilla",
            "ratio",
            ratio(vanilla.job_virtual_ns(), mpi.job_virtual_ns()),
        );
        put(
            "paper.speedup_read_vs_vanilla",
            "ratio",
            ratio(w.shuffle_read_ns(&vanilla.jobs), w.shuffle_read_ns(&mpi.jobs)),
        );
        put(
            "paper.speedup_total_vs_rdma",
            "ratio",
            ratio(rdma.job_virtual_ns(), mpi.job_virtual_ns()),
        );
        put(
            "paper.basic_over_optimized",
            "ratio",
            ratio(basic.job_virtual_ns(), mpi.job_virtual_ns()),
        );

        per_layer.push(Metric::median(
            "simt.shutdown_host_ms",
            "ms",
            &host(|c| c.shutdown_host_s * 1e3),
        ));
        per_layer.push(Metric::median(
            "sparklet.job_host_s.datagen",
            "s",
            &host(|c| c.datagen_host_s),
        ));
        per_layer.push(Metric::median(
            "sparklet.job_host_s.action",
            "s",
            &host(|c| c.action_host_s),
        ));
        per_layer.push(Metric::new("error_rate", "ratio", ratio(judge.failed, judge.attempted)));
    }

    Run {
        attempted: judge.attempted,
        failed: judge.failed,
        end_to_end,
        per_layer,
        spans: rec.snapshot(),
    }
}

/// The program's spans the issue's `trace.*` metrics are built from, and the
/// short names they are reported under.
const TRACE_SPANS: [(&str, &str); 7] = [
    ("fabric.tx", "fabric_tx"),
    ("netz.msg.send", "netz_msg"),
    ("netz.msg.recv", "netz_msg"),
    // The blocking body path waits under the first name, the batched (default)
    // one delivers under the second.
    ("rmpi.body.wait", "rmpi_body_wait"),
    ("rmpi.body.recv", "rmpi_body_wait"),
    ("spark.shuffle.fetch", "spark_fetch"),
    ("spark.task", "spark_task"),
];

/// Per reported name, the summed virtual self time of the program's spans:
/// duration minus the part child spans cover.
pub fn trace_self_virtual_ns(records: &[obs::SpanRecord]) -> BTreeMap<&'static str, u64> {
    let intervals: Vec<Interval> = records
        .iter()
        .map(|r| Interval { id: r.id, parent: r.parent, start: r.start_ns, end: r.end_ns })
        .collect();
    let self_ns = self_times(&intervals);
    let mut sums: BTreeMap<&'static str, u64> =
        TRACE_SPANS.iter().map(|(_, short)| (*short, 0)).collect();
    for r in records {
        if let Some((_, short)) = TRACE_SPANS.iter().find(|(name, _)| *name == r.name) {
            *sums.get_mut(short).expect("every short name is seeded") += self_ns[&r.id];
        }
    }
    sums
}
