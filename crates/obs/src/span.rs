//! Virtual-time tracing spans.
//!
//! A [`Tracer`] hands out RAII [`Span`] guards stamped with `simt` virtual
//! timestamps and task identity. Spans nest via a stack per green thread,
//! kept in `simt::with_local`: all green threads of a simulation share one OS
//! thread, so a `thread_local!` stack would interleave them (outside the
//! simulation the stack is the OS thread's own). Cross-process causality is
//! expressed with *links*: the sender's span id travels inside the `netz`
//! message header, and the receive span records it as its `link`.
//!
//! Determinism: span ids come from a per-`Tracer` counter starting at 1.
//! Because the simulation serializes green threads (exactly one runs at a
//! time), id assignment order — and therefore the exported timeline — is a
//! pure function of the simulated schedule, not of OS scheduling.

use simt::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a span within one [`Tracer`]. `0` means "no span".
pub type SpanId = u64;

/// One finished span (or instant event) as recorded by a [`Tracer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the tracer, assigned in start order from 1.
    pub id: SpanId,
    /// Enclosing span on the same task (0 for roots).
    pub parent: SpanId,
    /// Cross-task/cross-process causal predecessor (0 when none) — e.g. the
    /// send span whose message this recv span is handling.
    pub link: SpanId,
    /// Span name from the dotted taxonomy (`layer.component.action`).
    pub name: &'static str,
    /// Name of the green thread that opened the span ("" outside the sim).
    pub task: String,
    /// `simt` task id of that thread (usize::MAX outside the sim).
    pub tid: usize,
    /// Virtual start time in nanoseconds.
    pub start_ns: u64,
    /// Virtual end time in nanoseconds (== `start_ns` for instant events).
    pub end_ns: u64,
    /// True for zero-duration point events.
    pub instant: bool,
    /// Attached key/value attributes, in call order.
    pub kvs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in virtual nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct TracerInner {
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

/// The calling green thread's tracing context.
#[derive(Default)]
struct SpanContext {
    /// Ids of the spans the thread has open, outermost first.
    stack: Vec<SpanId>,
    /// Span id to stamp into message headers the thread encodes.
    send_scope: SpanId,
}

fn innermost_open_span() -> SpanId {
    simt::with_local(|t: &mut SpanContext| t.stack.last().copied().unwrap_or(0))
}

/// Span id the calling thread is currently sending under, or 0. Read by
/// `netz::Message::encode_header` so the id survives header re-encoding in
/// transport pipelines (the MPI-Optimized path re-builds headers deep inside
/// `on_write` handlers, far from where the span was opened).
pub fn current_send_span() -> SpanId {
    simt::with_local(|t: &mut SpanContext| t.send_scope)
}

/// RAII guard installing `id` as the thread's send scope; restores the
/// previous scope on drop.
#[must_use = "the scope ends when the guard drops: bind it to a name, not `_`"]
pub struct SendScope {
    prev: SpanId,
}

impl SendScope {
    /// Install `id` as the current send scope.
    pub fn enter(id: SpanId) -> SendScope {
        let prev = simt::with_local(|t: &mut SpanContext| std::mem::replace(&mut t.send_scope, id));
        SendScope { prev }
    }
}

impl Drop for SendScope {
    fn drop(&mut self) {
        simt::with_local(|t: &mut SpanContext| t.send_scope = self.prev);
    }
}

/// Per-run tracing context. Cloning shares the record store. A disabled
/// tracer (the default in production runs) records nothing and hands out
/// no-op spans; the instrumentation cost is a branch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer that records spans.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                next_id: AtomicU64::new(1),
                records: Mutex::new(Vec::new()),
            })),
        }
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. The span ends (and is recorded) when the guard drops.
    pub fn span(&self, name: &'static str, kvs: Vec<(String, String)>) -> Span {
        self.span_linked(name, 0, kvs)
    }

    /// Open a span causally linked to `link` (a span id received from
    /// another task or simulated process).
    pub fn span_linked(
        &self,
        name: &'static str,
        link: SpanId,
        kvs: Vec<(String, String)>,
    ) -> Span {
        let Some(inner) = &self.inner else { return Span { ctx: None } };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = simt::with_local(|t: &mut SpanContext| {
            let parent = t.stack.last().copied().unwrap_or(0);
            t.stack.push(id);
            parent
        });
        let (task, tid, now) = identity();
        Span {
            ctx: Some(SpanCtx {
                tracer: inner.clone(),
                id,
                parent,
                link,
                name,
                task,
                tid,
                start_ns: now,
                kvs,
            }),
        }
    }

    /// Record an instant (zero-duration) event at the current virtual time.
    pub fn event(&self, name: &'static str, kvs: Vec<(String, String)>) {
        let Some(inner) = &self.inner else { return };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = innermost_open_span();
        let (task, tid, now) = identity();
        inner.records.lock().push(SpanRecord {
            id,
            parent,
            link: 0,
            name,
            task,
            tid,
            start_ns: now,
            end_ns: now,
            instant: true,
            kvs,
        });
    }

    /// Record an already-delimited span (used from engine-thread closures —
    /// e.g. wire occupancy — where no green-thread span stack exists). Does
    /// not nest under or into the thread's span stack.
    pub fn record_complete(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        kvs: Vec<(String, String)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (task, tid, _) = identity();
        inner.records.lock().push(SpanRecord {
            id,
            parent: 0,
            link: 0,
            name,
            task,
            tid,
            start_ns,
            end_ns,
            instant: false,
            kvs,
        });
    }

    /// Id of the innermost open span on the calling thread (0 when none or
    /// when tracing is disabled).
    pub fn current_span(&self) -> SpanId {
        if self.inner.is_none() {
            return 0;
        }
        innermost_open_span()
    }

    /// Copy of everything recorded so far, in record-completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.records.lock().clone(),
            None => Vec::new(),
        }
    }
}

fn identity() -> (String, usize, u64) {
    if simt::in_sim() {
        (simt::current_name(), simt::current_task().0, simt::now())
    } else {
        (String::new(), usize::MAX, 0)
    }
}

struct SpanCtx {
    tracer: Arc<TracerInner>,
    id: SpanId,
    parent: SpanId,
    link: SpanId,
    name: &'static str,
    task: String,
    tid: usize,
    start_ns: u64,
    kvs: Vec<(String, String)>,
}

/// RAII span guard. Records itself on drop; safe to hold across blocking
/// calls (virtual time advancing inside the span is the point).
#[must_use = "the span ends when the guard drops: bind it to a name, not `_`"]
pub struct Span {
    ctx: Option<SpanCtx>,
}

impl Span {
    /// This span's id (0 when tracing is disabled).
    pub fn id(&self) -> SpanId {
        self.ctx.as_ref().map_or(0, |c| c.id)
    }

    /// Attach another key/value attribute after opening.
    pub fn kv(&mut self, key: &str, value: impl ToString) {
        if let Some(ctx) = &mut self.ctx {
            ctx.kvs.push((key.to_string(), value.to_string()));
        }
    }

    /// Take this span off the calling thread's stack of open spans and keep
    /// it open: it ends when it drops, wherever that is (a continuation on
    /// the engine, say), and spans opened from now on do not nest in it.
    pub fn detach(self) -> Span {
        if let Some(ctx) = &self.ctx {
            simt::with_local(|t: &mut SpanContext| t.stack.retain(|&id| id != ctx.id));
        }
        self
    }

    /// Enter this span as the thread's send scope (see
    /// [`current_send_span`]); the scope lasts until the returned guard
    /// drops.
    pub fn send_scope(&self) -> SendScope {
        SendScope::enter(self.id())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx.take() else { return };
        // Pop our id off this thread's stack. Normally we are the top; a
        // span dropped out of order (e.g. task spans closed by an observer)
        // is removed wherever it sits.
        simt::with_local(|t: &mut SpanContext| {
            if t.stack.last() == Some(&ctx.id) {
                t.stack.pop();
            } else if let Some(pos) = t.stack.iter().rposition(|&v| v == ctx.id) {
                t.stack.remove(pos);
            }
        });
        let end_ns = if simt::in_sim() { simt::now() } else { ctx.start_ns };
        ctx.tracer.records.lock().push(SpanRecord {
            id: ctx.id,
            parent: ctx.parent,
            link: ctx.link,
            name: ctx.name,
            task: ctx.task,
            tid: ctx.tid,
            start_ns: ctx.start_ns,
            end_ns,
            instant: false,
            kvs: ctx.kvs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut s = t.span("a.b", vec![]);
            s.kv("k", 1);
            t.event("a.ev", vec![]);
        }
        assert!(!t.is_enabled());
        assert!(t.records().is_empty());
        assert_eq!(t.current_span(), 0);
    }

    #[test]
    fn spans_nest_via_thread_stack() {
        let t = Tracer::enabled();
        {
            let outer = t.span("outer", vec![]);
            assert_eq!(t.current_span(), outer.id());
            {
                let inner = t.span("inner", vec![]);
                assert_eq!(t.current_span(), inner.id());
            }
            assert_eq!(t.current_span(), outer.id());
        }
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
    }

    #[test]
    fn span_ids_assigned_from_one_in_start_order() {
        let t = Tracer::enabled();
        let a = t.span("a", vec![]);
        let b = t.span("b", vec![]);
        assert_eq!(a.id(), 1);
        assert_eq!(b.id(), 2);
    }

    #[test]
    fn send_scope_restores_previous_value() {
        let t = Tracer::enabled();
        assert_eq!(current_send_span(), 0);
        let s = t.span("send", vec![]);
        {
            let _g = s.send_scope();
            assert_eq!(current_send_span(), s.id());
            {
                let _g2 = SendScope::enter(99);
                assert_eq!(current_send_span(), 99);
            }
            assert_eq!(current_send_span(), s.id());
        }
        assert_eq!(current_send_span(), 0);
    }

    #[test]
    fn interleaved_green_threads_keep_their_own_parents_and_send_scopes() {
        // Both threads have an outer span open while the other one runs (they
        // share an OS thread); each child must still name its own thread's
        // outer span as parent, and the send scope must not leak across.
        let sim = simt::Sim::new();
        let t = Tracer::enabled();
        for (name, offset) in [("left", 0u64), ("right", 5)] {
            let t = t.clone();
            sim.spawn(name, move || {
                simt::sleep(offset);
                let outer = t.span("outer", vec![]);
                let _scope = outer.send_scope();
                simt::sleep(10); // the other thread opens its outer span meanwhile
                assert_eq!(t.current_span(), outer.id());
                assert_eq!(current_send_span(), outer.id());
                let _child = t.span("child", vec![]);
                simt::sleep(10); // and its child while ours is open
            });
        }
        sim.run().unwrap().assert_clean();
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        for task in ["left", "right"] {
            let of = |name| recs.iter().find(|r| r.task == task && r.name == name).unwrap();
            assert_eq!(of("child").parent, of("outer").id, "{task}");
            assert_eq!(of("outer").parent, 0, "{task}");
        }
        assert_eq!(t.current_span(), 0); // nothing leaked onto the OS thread's stack
        assert_eq!(current_send_span(), 0);
    }

    #[test]
    fn spans_stamp_virtual_time_and_task_identity() {
        let sim = simt::Sim::new();
        let t = Tracer::enabled();
        let t2 = t.clone();
        sim.spawn("worker", move || {
            simt::sleep(10);
            let _s = t2.span("work", vec![]);
            simt::sleep(25);
        });
        sim.run().unwrap().assert_clean();
        let recs = t.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].task, "worker");
        assert_eq!(recs[0].start_ns, 10);
        assert_eq!(recs[0].end_ns, 35);
        assert_eq!(recs[0].duration_ns(), 25);
    }
}
