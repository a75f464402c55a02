//! # obs — virtual-time observability for the MPI4Spark reproduction
//!
//! One observability surface for every layer of the stack:
//!
//! * **Spans** ([`span::Tracer`] / [`span::Span`]): RAII guards stamped with
//!   `simt` virtual timestamps and task identity, nesting per green thread,
//!   with cross-process causality links (the send span id rides inside
//!   `netz` message headers; the matching recv span records it as `link`).
//! * **Metrics** ([`metrics::Registry`]): typed `Counter`/`Gauge`
//!   handles behind a single registration surface. `Registry::snapshot()` is
//!   the one sanctioned read path — scheduler, bench reports, and chaos
//!   tests consume [`metrics::MetricsSnapshot`]s instead of poking fields on
//!   per-component structs.
//! * **Timeline export** ([`timeline::chrome_trace`]): deterministic
//!   Chrome-trace/Perfetto JSON keyed by virtual time, byte-identical across
//!   re-runs of the same seed.
//!
//! An [`Obs`] value bundles one tracer and one registry; it is threaded
//! through `fabric::Net` so every layer that can see the network can see the
//! observability context. Each `Sim` gets its own `Obs` — nothing here is
//! process-global, so concurrent simulations (e.g. `cargo test`) cannot
//! contaminate each other's timelines.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod span;
pub mod timeline;

pub use metrics::{Counter, Gauge, MetricsSnapshot, Registry};
pub use span::{current_send_span, SendScope, Span, SpanId, SpanRecord, Tracer};

use simt::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Build a `Vec<(String, String)>` of span attributes:
/// `kv!{"part" => part, "bytes" => n}`.
#[macro_export]
macro_rules! kv {
    () => { ::std::vec::Vec::new() };
    ($($k:expr => $v:expr),+ $(,)?) => {
        ::std::vec![ $( ($k.to_string(), $v.to_string()) ),+ ]
    };
}

/// Canonical metric key names. Components register under these so readers
/// (scheduler, bench, chaos tests) never need to know which struct used to
/// own a number.
pub mod keys {
    /// Virtual ns a task spent blocked on shuffle fetches.
    pub const TASK_FETCH_WAIT_NS: &str = "task.shuffle_fetch_wait_ns";
    /// Shuffle bytes fetched from remote executors.
    pub const TASK_REMOTE_BYTES: &str = "task.remote_bytes";
    /// Shuffle bytes read locally.
    pub const TASK_LOCAL_BYTES: &str = "task.local_bytes";
    /// Records emitted by the task's final operator.
    pub const TASK_RECORDS_OUT: &str = "task.records_out";
    /// Serialized result size shipped back to the driver.
    pub const TASK_RESULT_BYTES: &str = "task.result_bytes";
    /// Virtual ns from task launch to completion.
    pub const TASK_RUN_NS: &str = "task.run_ns";

    /// Shuffle-fetch re-requests issued by the retry layer (process-wide;
    /// 0 on a healthy run).
    pub const SPARK_FETCH_RETRIES: &str = "spark.fetch_retries";
    /// Blocks whose fetch exhausted the whole retry budget and surfaced a
    /// terminal error to the reader (each one becomes a `FetchFailed`).
    pub const SPARK_FETCH_EXHAUSTED: &str = "spark.fetch_exhausted_blocks";
    /// Stage attempts resubmitted after a `FetchFailed` or an executor loss
    /// (driver-side).
    pub const SPARK_STAGE_RESUBMITS: &str = "spark.stage_resubmits";
    /// Executors the stage loop lost because a crash reset their node's
    /// channels (driver-side; 0 on a healthy run).
    pub const SPARK_EXECUTORS_LOST: &str = "spark.executors_lost";
    /// Always 0: the engine has no speculative execution. Kept because the
    /// benchmark harness still reports it (ROADMAP item 10).
    pub const SPARK_SPECULATIVE_TASKS: &str = "spark.speculative_tasks";

    /// Messages delivered by the fabric.
    pub const NET_DELIVERED_MSGS: &str = "fabric.delivered_msgs";
    /// Payload bytes delivered by the fabric.
    pub const NET_DELIVERED_BYTES: &str = "fabric.delivered_bytes";
    /// Messages dropped for structural reasons (unbound port, dead node).
    pub const NET_DROPPED_MSGS: &str = "fabric.dropped_msgs";
    /// Messages swallowed by the chaos fault plan.
    pub const NET_CHAOS_DROPPED_MSGS: &str = "fabric.chaos_dropped_msgs";
    /// Messages delayed by the chaos fault plan.
    pub const NET_CHAOS_DELAYED_MSGS: &str = "fabric.chaos_delayed_msgs";

    /// netz frames written to channels.
    pub const NETZ_MSGS_SENT: &str = "netz.msgs_sent";
    /// netz bytes written to channels (virtual wire size).
    pub const NETZ_BYTES_SENT: &str = "netz.bytes_sent";
    /// netz frames received on channels.
    pub const NETZ_MSGS_RECEIVED: &str = "netz.msgs_received";
    /// netz bytes received on channels (virtual wire size).
    pub const NETZ_BYTES_RECEIVED: &str = "netz.bytes_received";
    /// Channels opened (client connects + server accepts).
    pub const NETZ_CHANNELS_OPENED: &str = "netz.channels_opened";
    /// Connect retry attempts across all channels. Nothing retries a
    /// connect today, so it reads 0; the benchmark harness still reports it.
    pub const NETZ_CONNECT_RETRIES: &str = "netz.connect_retries";

    /// Events the `simt` engine took off its heap
    /// (= `simt.wakes + simt.stale_wakes + simt.calls`).
    pub const SIMT_EVENTS_POPPED: &str = "simt.events_popped";
    /// Wake events that resumed a green thread.
    pub const SIMT_WAKES: &str = "simt.wakes";
    /// Wake events dropped because their thread had already moved on.
    pub const SIMT_STALE_WAKES: &str = "simt.stale_wakes";
    /// Closures run on the engine's own stack (deliveries, ticks, timers).
    pub const SIMT_CALLS: &str = "simt.calls";
    /// Green threads spawned over the run.
    pub const SIMT_THREADS_SPAWNED: &str = "simt.threads_spawned";
    /// Most green threads alive at one time.
    pub const SIMT_PEAK_LIVE_THREADS: &str = "simt.peak_live_threads";
    /// Most events pending in the engine at one time, over all four fronts:
    /// the heap, the due-now queue, the armed CPU ticks and the armed
    /// deadlines (`simt::SimStats::heap_high_water`).
    pub const SIMT_HEAP_HIGH_WATER: &str = "simt.heap_high_water";
    /// Deadlines the engine removed unfired because their wait ended first.
    pub const SIMT_DEADLINES_CANCELLED: &str = "simt.deadlines_cancelled";
    /// The engine's counters, in the order of `simt::SimStats`'s fields.
    pub const SIMT_STATS: [&str; 8] = [
        SIMT_EVENTS_POPPED,
        SIMT_WAKES,
        SIMT_STALE_WAKES,
        SIMT_CALLS,
        SIMT_THREADS_SPAWNED,
        SIMT_PEAK_LIVE_THREADS,
        SIMT_HEAP_HIGH_WATER,
        SIMT_DEADLINES_CANCELLED,
    ];
}

struct ObsInner {
    registry: Registry,
    tracer: Tracer,
}

/// Per-simulation observability context: one tracer + one metrics registry.
/// Cheap to clone; threaded through `fabric::Net` so every layer above the
/// fabric shares the same context.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl Obs {
    /// Metrics only; span calls are no-ops. The default for production runs.
    pub fn disabled() -> Obs {
        Obs { inner: Arc::new(ObsInner { registry: Registry::new(), tracer: Tracer::disabled() }) }
    }

    /// Metrics plus span recording (timeline export possible).
    pub fn traced() -> Obs {
        Obs { inner: Arc::new(ObsInner { registry: Registry::new(), tracer: Tracer::enabled() }) }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// True when spans are being recorded.
    pub fn is_traced(&self) -> bool {
        self.inner.tracer.is_enabled()
    }

    /// Open a span (see [`Tracer::span`]).
    pub fn span(&self, name: &'static str, kvs: Vec<(String, String)>) -> Span {
        self.inner.tracer.span(name, kvs)
    }

    /// Record an instant event (see [`Tracer::event`]).
    pub fn event(&self, name: &'static str, kvs: Vec<(String, String)>) {
        self.inner.tracer.event(name, kvs)
    }

    /// Export the timeline recorded so far as Chrome-trace JSON.
    pub fn export_timeline(&self) -> String {
        timeline::chrome_trace(&self.inner.tracer.records(), &self.inner.registry.snapshot())
    }

    /// Copy the engine's own counters into the registry under the
    /// [`keys::SIMT_STATS`] names. Call once, when the simulation has run — and
    /// after [`Obs::export_timeline`], whose bytes cover the registry.
    pub fn record_sim_stats(&self, stats: simt::SimStats) {
        let values = [
            stats.events_popped,
            stats.wakes,
            stats.stale_wakes,
            stats.calls,
            stats.threads_spawned,
            stats.peak_live_threads,
            stats.heap_high_water,
            stats.deadlines_cancelled,
        ];
        for (key, value) in keys::SIMT_STATS.into_iter().zip(values) {
            self.inner.registry.counter(key).add(value);
        }
    }
}

/// [`simt::TaskObserver`] adapter: opens a `simt.task` span when a green
/// thread starts and closes it when the thread finishes. Because both
/// callbacks run on the green thread itself, spans opened inside the task
/// body nest under the task span automatically.
pub struct TaskSpans {
    tracer: Tracer,
    open: Mutex<BTreeMap<usize, Span>>,
}

impl TaskSpans {
    /// Build an observer recording into `obs`'s tracer.
    pub fn new(obs: &Obs) -> TaskSpans {
        TaskSpans { tracer: obs.tracer().clone(), open: Mutex::new(BTreeMap::new()) }
    }
}

impl simt::TaskObserver for TaskSpans {
    fn task_started(&self, tid: simt::TaskId, name: &str, daemon: bool) {
        let span = self.tracer.span("simt.task", kv! {"task" => name, "daemon" => daemon});
        self.open.lock().insert(tid.0, span);
    }

    fn task_finished(&self, tid: simt::TaskId) {
        // Dropping the span ends and records it; the drop runs on the same
        // green thread that opened it, so the span stack stays consistent.
        self.open.lock().remove(&tid.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_macro_builds_string_pairs() {
        let kvs = kv! {"a" => 1, "b" => "two"};
        assert_eq!(
            kvs,
            vec![("a".to_string(), "1".to_string()), ("b".to_string(), "two".to_string())]
        );
        let empty: Vec<(String, String)> = kv! {};
        assert!(empty.is_empty());
    }

    #[test]
    fn task_spans_observer_records_task_lifecycle() {
        let obs = Obs::traced();
        let sim = simt::Sim::new();
        sim.set_observer(Arc::new(TaskSpans::new(&obs)));
        let obs2 = obs.clone();
        sim.spawn("outer", move || {
            simt::sleep(5);
            let _inner = obs2.span("work.step", kv! {});
            simt::sleep(3);
        });
        sim.run().unwrap().assert_clean();
        let recs = obs.tracer().records();
        let task = recs.iter().find(|r| r.name == "simt.task").expect("task span");
        let step = recs.iter().find(|r| r.name == "work.step").expect("work span");
        assert_eq!(task.start_ns, 0);
        assert_eq!(task.end_ns, 8);
        assert_eq!(step.parent, task.id, "body spans nest under the task span");
        assert!(task.kvs.contains(&("task".to_string(), "outer".to_string())));
    }

    #[test]
    fn disabled_obs_still_counts_metrics() {
        let obs = Obs::disabled();
        obs.registry().counter(keys::NET_DELIVERED_MSGS).add(2);
        assert!(!obs.is_traced());
        assert_eq!(obs.registry().snapshot().counter(keys::NET_DELIVERED_MSGS), 2);
        assert!(obs.tracer().records().is_empty());
    }
}
