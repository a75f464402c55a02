//! The simulation engine: virtual clock, event queues, and green-thread
//! scheduling.
//!
//! Exactly one green thread executes at a time. The engine loop — on the OS
//! thread that called [`Sim::run`] — takes events in `(virtual_time,
//! sequence)` order: a `Wake` resumes a blocked green thread's coroutine and
//! gets control back when that thread parks or finishes; a `Call` runs a
//! closure on the engine's own stack (message delivery, deadlines); a `Step`
//! runs a continuation's next step there, unless an earlier event has; a
//! `Tick` runs a [`crate::Cpu`]'s completion step there.
//!
//! The loop takes the smallest key among four fronts: a heap of events
//! pushed for a later instant, a FIFO of those pushed for the current one
//! (the due-now queue, already in sequence order), the earliest CPU tick, and
//! the earliest deadline. Each CPU has at most one tick; re-arming replaces it
//! in place under a fresh sequence number, so a superseded tick is never
//! queued or popped. A deadline is the wake or call that ends a wait when
//! nothing else does first; when something does, the deadline is removed
//! from its ordered map at once, so a finished wait leaves no event behind.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{self, Location};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::coro::{self, Coroutine, Payload, Step};
use crate::cpu::Done;
use crate::local::{self, Locals};
use crate::mutex::RawMutex;
use crate::profile::{Label, Probe};

/// Identifier of a green thread within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Payload used to unwind green threads when the simulation shuts down.
struct ShutdownSignal;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Blocked,
    Running,
    Dead,
}

/// One green thread's entry in the thread table, indexed by [`TaskId`]. A
/// finished thread keeps its slot, so ids stay dense, but only its epoch and
/// the fact that it finished: a cell that has spawned many thousand threads
/// holds 16 bytes for each finished one.
struct ThreadSlot {
    /// Bumped every time the thread resumes; wake events carry the epoch they
    /// were scheduled against and are ignored when stale.
    epoch: u64,
    /// Everything else; `None` once the thread has finished.
    live: Option<Box<LiveThread>>,
}

/// What a thread needs only while it has not finished. It is dropped when the
/// thread finishes, which frees its stack for the next thread on the spot.
struct LiveThread {
    name: String,
    daemon: bool,
    /// The thread's stack and saved context while it is blocked. The engine
    /// takes it out for the length of a resume and puts it back if the
    /// thread parked.
    co: Option<Coroutine>,
    /// The thread's [`crate::with_local`] values while it is not running.
    locals: Locals,
}

impl ThreadSlot {
    fn status(&self) -> Status {
        match &self.live {
            None => Status::Dead,
            Some(t) if t.co.is_some() => Status::Blocked,
            Some(_) => Status::Running,
        }
    }

    /// The state of a thread that has not finished.
    fn live(&mut self) -> &mut LiveThread {
        self.live.as_mut().expect("a green thread that has not finished")
    }

    /// Blocked → Running: hand the thread's coroutine and locals to the caller,
    /// who owes them to [`Inner::resume`].
    fn start_running(&mut self) -> (Coroutine, Locals) {
        debug_assert_eq!(self.status(), Status::Blocked);
        self.epoch += 1;
        let live = self.live();
        let co = live.co.take().expect("a blocked green thread has a coroutine");
        (co, std::mem::take(&mut live.locals))
    }
}

/// Slots the thread table grows by: it only grows, and a fixed step keeps its
/// spare capacity at most this many slots where doubling would leave as many
/// as it holds.
const THREAD_TABLE_STEP: usize = 1024;

/// Where a `Call` was scheduled from: its [`crate::profile`] label.
type Site = &'static Location<'static>;

enum EventKind {
    Wake { tid: TaskId, epoch: u64 },
    Call(Box<dyn FnOnce() + Send>, Site),
    // A continuation's next step: the first of its events runs it.
    Step(Arc<StepCell>, Site),
    // Never queued: `State::pop` makes one when a CPU's armed tick is next.
    Tick(usize),
}

struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A disarmed slot's key: later than any armed one.
const IDLE: (u64, u64) = (u64::MAX, u64::MAX);

/// The CPU ticks, one slot per [`Tick`] owner, as a tournament tree over
/// `keys.len()` leaves (a power of two): `keys[i]` is slot `i`'s `(time,
/// seq)`, node `keys.len() + i` is leaf `i`, and inner node `n` keeps in
/// `wins[n]` the slot whose key is the smaller of nodes `2n` and `2n + 1`.
/// Node 1 wins the earliest tick; arming is O(log CPUs) key comparisons.
#[derive(Default)]
struct Ticks {
    /// Held weakly: a pending tick must not keep its CPU alive.
    owners: Vec<Weak<dyn Tick>>,
    keys: Vec<(u64, u64)>,
    wins: Vec<u32>,
    armed: usize,
}

impl Ticks {
    fn register(&mut self, owner: Weak<dyn Tick>) -> usize {
        let slot = self.owners.len();
        self.owners.push(owner);
        if slot == self.keys.len() {
            // Full: double the leaves and replay every match.
            let cap = (2 * slot).max(1);
            self.keys.resize(cap, IDLE);
            self.wins = vec![0; cap];
            for n in (1..cap).rev() {
                let (a, b) = (self.winner(2 * n), self.winner(2 * n + 1));
                self.wins[n] = (if self.keys[b] < self.keys[a] { b } else { a }) as u32;
            }
        }
        slot
    }

    /// The slot that won node `n`.
    fn winner(&self, n: usize) -> usize {
        n.checked_sub(self.keys.len()).unwrap_or_else(|| self.wins[n] as usize)
    }

    fn earliest(&self) -> Option<(u64, u64, usize)> {
        let slot = (!self.keys.is_empty()).then(|| self.winner(1))?;
        let (time, seq) = self.keys[slot];
        (self.keys[slot] != IDLE).then_some((time, seq, slot))
    }

    fn set(&mut self, slot: usize, key: Option<(u64, u64)>) {
        let key = key.unwrap_or(IDLE);
        self.armed = self.armed + usize::from(key != IDLE) - usize::from(self.keys[slot] != IDLE);
        self.keys[slot] = key;
        // Climb with the winner so far: each match is one comparison.
        let (mut n, mut won) = (self.keys.len() + slot, slot);
        while n > 1 {
            let rival = self.winner(n ^ 1);
            if self.keys[rival] < self.keys[won] {
                won = rival;
            }
            n /= 2;
            // Another slot kept this node: nothing above it changes.
            if won != slot && self.wins[n] as usize == won {
                break;
            }
            self.wins[n] = won as u32;
        }
    }
}

pub(crate) struct State {
    now: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<Event>>,
    /// Events pushed for the current instant, in sequence order.
    due: VecDeque<Event>,
    ticks: Ticks,
    /// The armed deadlines by `(time, seq)`; see [`Deadline`].
    deadlines: BTreeMap<(u64, u64), EventKind>,
    threads: Vec<ThreadSlot>,
    live: u64,
    stats: SimStats,
    /// See [`Sim::spawn_census`].
    census: BTreeMap<String, u64>,
    panic_payload: Option<Payload>,
    /// The continuations parked on a wait list, which `Sim::shutdown` drops
    /// as it unwinds parked threads; pruned of finished ones as it doubles.
    parked: Vec<Weak<StepCell>>,
    parked_prune_at: usize,
}

impl State {
    /// The `(time, seq)` the next event pushed for `at` takes.
    fn next_key(&mut self, at: u64) -> (u64, u64) {
        self.next_seq += 1;
        (at.max(self.now), self.next_seq - 1)
    }

    fn push_event(&mut self, at: u64, kind: EventKind) {
        let (time, seq) = self.next_key(at);
        let event = Event { time, seq, kind };
        if event.time == self.now {
            self.due.push_back(event);
        } else {
            self.heap.push(Reverse(event));
        }
        self.note_pending();
    }

    fn arm_deadline(&mut self, at: u64, kind: EventKind) -> Deadline {
        let key = self.next_key(at);
        self.deadlines.insert(key, kind);
        self.note_pending();
        Deadline(key)
    }

    /// Remove a deadline that has not fired; `None` if it has. What it would
    /// have run is the caller's to drop, outside the lock.
    #[must_use]
    fn cancel(&mut self, deadline: Deadline) -> Option<EventKind> {
        let cancelled = self.deadlines.remove(&deadline.0);
        self.stats.deadlines_cancelled += u64::from(cancelled.is_some());
        cancelled
    }

    /// The event's host-profile label (see [`crate::take_host_profile`]).
    fn label(&self, kind: &EventKind) -> Label {
        match kind {
            EventKind::Wake { tid, .. } => {
                let name = self.threads[tid.0].live.as_ref().map_or("(finished)", |t| &t.name);
                Label::Wake(census_prefix(name).to_string())
            }
            EventKind::Call(_, from) | EventKind::Step(_, from) => {
                Label::Call(from.file(), from.line())
            }
            EventKind::Tick(_) => Label::Tick,
        }
    }

    fn note_pending(&mut self) {
        let pending = self.heap.len() + self.due.len() + self.ticks.armed + self.deadlines.len();
        self.stats.heap_high_water = self.stats.heap_high_water.max(pending as u64);
    }

    /// The smallest `(time, seq)` of the heap's top, the due-now queue's
    /// front, the earliest tick, which popping disarms, and the earliest
    /// deadline.
    fn pop(&mut self) -> Option<Event> {
        let heap = self.heap.peek().map(|Reverse(e)| (e.time, e.seq));
        let due = self.due.front().map(|e| (e.time, e.seq));
        let tick = self.ticks.earliest().map(|(time, seq, _)| (time, seq));
        let deadline = self.deadlines.first_key_value().map(|(&key, _)| key);
        let first = [heap, due, tick, deadline].into_iter().flatten().min()?;
        if Some(first) == due {
            self.due.pop_front()
        } else if Some(first) == heap {
            self.heap.pop().map(|Reverse(e)| e)
        } else if Some(first) == tick {
            let (time, seq, slot) = self.ticks.earliest()?;
            self.ticks.set(slot, None);
            Some(Event { time, seq, kind: EventKind::Tick(slot) })
        } else {
            let ((time, seq), kind) = self.deadlines.pop_first()?;
            Some(Event { time, seq, kind })
        }
    }
}

/// The engine's own counters since the `Sim` was created. Every field is a
/// pure function of the simulated program (no host time), and
/// `wakes + stale_wakes + calls == events_popped` at all times. A CPU tick
/// that a later change superseded was replaced in place, never popped: it is
/// in none of these counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events taken off the heap, the due-now queue or the CPU tick table.
    pub events_popped: u64,
    /// `Wake` events that resumed their green thread.
    pub wakes: u64,
    /// `Wake` events dropped because the thread had already moved on.
    pub stale_wakes: u64,
    /// `Call` closures and CPU ticks run on the engine's stack.
    pub calls: u64,
    /// Green threads ever spawned.
    pub threads_spawned: u64,
    /// Most green threads alive (spawned, not finished) at one time.
    pub peak_live_threads: u64,
    /// Most events pending at one time: heap, due-now queue, armed ticks and
    /// armed deadlines.
    pub heap_high_water: u64,
    /// Deadlines removed unfired because their wait ended another way.
    pub deadlines_cancelled: u64,
}

/// Shared engine internals; green threads hold an `Arc` to this.
pub struct Inner {
    state: RawMutex<State>,
    /// `State::now`, for [`crate::now`] to read without the lock. `Relaxed`:
    /// only the OS thread running the simulation reads and writes it, and a
    /// `Sim` moved to another OS thread is synchronized by that move.
    clock: AtomicU64,
    /// Set once by `Sim::shutdown`, read as a parked thread resumes; `Relaxed`
    /// for the reason `clock` is.
    shutting_down: AtomicBool,
    /// Wait-graph bookkeeping fed by the sync primitives; never locked while
    /// `state` is held (and vice versa) so the two cannot deadlock.
    pub(crate) diag: RawMutex<crate::diag::DiagState>,
    /// Optional lifecycle observer (tracing). Callbacks run on the green
    /// thread itself, so anything the observer records is ordered exactly
    /// like the thread's own work.
    observer: RawMutex<Option<Arc<dyn TaskObserver>>>,
}

/// Hook notified when green threads begin and finish executing. Installed
/// per-`Sim` via [`Sim::set_observer`]; used by the `obs` crate to open a
/// span per simulated task without `simt` depending on the tracer.
///
/// `task_started` fires on the green thread right before its body runs (at
/// the virtual time of its first wake); `task_finished` fires on the same
/// thread right after the body returns or panics. Neither callback may
/// block.
pub trait TaskObserver: Send + Sync {
    /// A green thread is about to run its body.
    fn task_started(&self, tid: TaskId, name: &str, daemon: bool);
    /// A green thread's body returned (or unwound).
    fn task_finished(&self, tid: TaskId);
}

thread_local! {
    /// The green thread running on this OS thread ([`ENGINE`] while a `Call`
    /// runs); `None` on the engine's own stack and outside `Sim::run`.
    static CURRENT: RefCell<Option<(Arc<Inner>, TaskId)>> = const { RefCell::new(None) };
}

/// What a continuation runs as: the engine, which has no thread to park.
pub(crate) const ENGINE: TaskId = TaskId(usize::MAX);

const OUTSIDE: &str = "simt: called a simulation primitive outside a green thread";

// Never inlined, so that a green thread resumed by another OS thread than the
// one it parked on reads that thread's cell (see `coro::active`).
#[inline(never)]
pub(crate) fn current_handle() -> Option<(Arc<Inner>, TaskId)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `f` with the caller's simulation and task ([`ENGINE`] in a
/// continuation), lent from the thread-local cell: `f` must not park.
// Never inlined, for the reason `current_handle` is not.
#[inline(never)]
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Inner>, TaskId) -> R) -> R {
    CURRENT.with(|c| {
        let current = c.borrow();
        let (inner, tid) = current.as_ref().expect(OUTSIDE);
        f(inner, *tid)
    })
}

/// [`with_current`] for what only a green thread may do: park. The handle is
/// cloned, since the thread may resume on another OS thread.
pub(crate) fn with_thread<R>(f: impl FnOnce(&Arc<Inner>, TaskId) -> R) -> R {
    let (inner, tid) = current_handle().expect(OUTSIDE);
    let msg = "simt: a continuation cannot park; it chains its next step with \
               `Cpu::submit` or `call_at`";
    assert_ne!(tid, ENGINE, "{msg}");
    f(&inner, tid)
}

/// Set while a [`Sim::run`] runs (or `Sim::shutdown` drops parked steps):
/// [`CURRENT`] is the engine, unless a green thread of an outer simulation
/// already is. Dropping it (a panic included) clears it.
struct OnEngine(bool);

impl OnEngine {
    fn enter(inner: &Arc<Inner>) -> OnEngine {
        let engine = Some((inner.clone(), ENGINE));
        OnEngine(CURRENT.with(|c| c.borrow().is_none() && c.replace(engine).is_none()))
    }
}

impl Drop for OnEngine {
    fn drop(&mut self) {
        if self.0 {
            CURRENT.with(RefCell::take);
        }
    }
}

/// Calls `task_finished` when the green thread's body returns or unwinds.
struct NotifyFinished(Arc<dyn TaskObserver>, TaskId);

impl Drop for NotifyFinished {
    fn drop(&mut self) {
        self.0.task_finished(self.1);
    }
}

fn install_shutdown_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownSignal>().is_some() {
                return; // quiet teardown unwinds
            }
            default(info);
        }));
    });
}

/// A name up to its first digit or `:` (`netz-loop:shuffle:e-1` → `netz-loop`).
fn census_prefix(name: &str) -> &str {
    &name[..name.find(|c: char| c == ':' || c.is_ascii_digit()).unwrap_or(name.len())]
}

impl Inner {
    pub(crate) fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    pub(crate) fn thread_name(&self, tid: TaskId) -> String {
        self.state.lock().threads[tid.0].live().name.clone()
    }

    /// Schedule a closure to run on the engine's stack at absolute time `at`.
    pub(crate) fn schedule_call(&self, at: u64, f: Box<dyn FnOnce() + Send>, from: Site) {
        self.state.lock().push_event(at, EventKind::Call(f, from));
    }

    pub(crate) fn current_epoch(&self, tid: TaskId) -> u64 {
        self.state.lock().threads[tid.0].epoch
    }

    /// Block the calling green thread until some wake targets its current
    /// epoch. Panics (unwinding the thread) when the simulation is shutting
    /// down, and when the thread would park with a [`crate::sync::Mutex`]
    /// guard alive: every other green thread shares this OS thread and would
    /// hang on that lock.
    pub(crate) fn block_current(&self, tid: TaskId) {
        if let Some(at) = crate::mutex::first_held() {
            panic!(
                "simt: green thread `{}` parks with a lock guard alive (first taken at {}:{}); \
                 drop the guard before blocking",
                self.thread_name(tid),
                at.file(),
                at.line()
            );
        }
        // `Inner::resume` marks the thread blocked once it has switched back.
        coro::suspend();
        if self.shutting_down.load(Ordering::Relaxed) {
            panic::panic_any(ShutdownSignal);
        }
    }

    pub(crate) fn sleep(&self, tid: TaskId, ns: u64) {
        let mut s = self.state.lock();
        let deadline = s.now.saturating_add(ns);
        while s.now < deadline {
            let epoch = s.threads[tid.0].epoch;
            s.push_event(deadline, EventKind::Wake { tid, epoch });
            drop(s);
            self.block_current(tid);
            s = self.state.lock();
        }
    }

    /// Spawn a green thread; it becomes runnable at the current virtual time.
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        name: String,
        daemon: bool,
        f: Box<dyn FnOnce() + Send>,
    ) -> TaskId {
        install_shutdown_quiet_hook();
        // The body learns who it is when it first runs: nothing to capture, so
        // the stack can be mapped before the state lock is taken.
        let body = move || {
            let (inner, tid) = current_handle().expect("a green thread's body runs on it");
            if inner.shutting_down.load(Ordering::Relaxed) {
                return; // never started: nothing to unwind
            }
            let observer = inner.observer.lock().clone();
            let _finished = observer.map(|obs| {
                obs.task_started(tid, &inner.thread_name(tid), daemon);
                NotifyFinished(obs, tid)
            });
            drop(inner);
            f();
        };
        let co = Coroutine::new(coro::STACK_SIZE, Box::new(body));
        let mut s = self.state.lock();
        *s.census.entry(census_prefix(&name).to_string()).or_default() += 1;
        let tid = TaskId(s.threads.len());
        if s.threads.len() == s.threads.capacity() {
            s.threads.reserve_exact(THREAD_TABLE_STEP);
        }
        s.threads.push(ThreadSlot {
            epoch: 0,
            live: Some(Box::new(LiveThread { name, daemon, co: Some(co), locals: Locals::new() })),
        });
        s.live += 1;
        s.stats.threads_spawned += 1;
        s.stats.peak_live_threads = s.stats.peak_live_threads.max(s.live);
        let now = s.now;
        s.push_event(now, EventKind::Wake { tid, epoch: 0 });
        tid
    }

    /// Run green thread `tid` (see [`ThreadSlot::start_running`]) until it
    /// parks or finishes. The caller's stack is the engine's for that long, and
    /// its handle `me` is the thread's [`CURRENT`]: lent and handed back, not cloned.
    fn resume(me: Arc<Self>, tid: TaskId, mut co: Coroutine, mut locals: Locals) -> Arc<Self> {
        let outer = CURRENT.with(|c| c.borrow_mut().replace((me, tid)));
        local::swap(&mut locals);
        let step = co.resume();
        local::swap(&mut locals);
        // Whatever ran in between (nested `Sim`s included) restored what it found.
        let (me, _) = CURRENT.with(|c| c.replace(outer)).expect("the thread's own handle");

        let finished = {
            let mut s = me.state.lock();
            let slot = &mut s.threads[tid.0];
            match step {
                Step::Suspended => {
                    let live = slot.live();
                    live.co = Some(co);
                    live.locals = locals;
                    None
                }
                Step::Finished(payload) => {
                    let dead = slot.live.take();
                    s.live -= 1;
                    if let Some(p) = payload {
                        if !p.is::<ShutdownSignal>() && s.panic_payload.is_none() {
                            s.panic_payload = Some(p);
                        }
                    }
                    Some((co, locals, dead))
                }
            }
        };
        drop(finished); // frees the stack now, not at shutdown, and outside the lock
        me
    }
}

/// A simulation instance. Spawn green threads, then call [`Sim::run`].
pub struct Sim {
    inner: Arc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of running a simulation to quiescence.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Final virtual time in nanoseconds.
    pub now: u64,
    /// Names of non-daemon threads still blocked at quiescence. Usually a bug
    /// in the simulated program (a lost message, a missing reply).
    pub blocked: Vec<String>,
    /// For each blocked non-daemon thread, the resource it was waiting on
    /// when it parked (`None` inside `sleep` and `Cpu::execute`, which wait
    /// for the clock, not for a resource). Same order as `blocked`.
    pub blocked_on: Vec<(String, Option<String>)>,
    /// Deadlock cycles in the wait-for graph. Each cycle lists
    /// `(task, resource the task waits for)` pairs in cycle order; the
    /// resource of entry `i` is held by the task of entry `i + 1` (wrapping).
    /// Cycles start at their smallest task id, so output is deterministic.
    /// Daemon threads participate: a daemon can hold a resource a worker
    /// needs.
    pub deadlocks: Vec<Vec<(String, String)>>,
}

impl SimReport {
    /// Assert that no non-daemon thread was left blocked. Panics with the
    /// named wait-for cycles when the simulation deadlocked.
    pub fn assert_clean(&self) {
        if !self.deadlocks.is_empty() {
            panic!("simulation deadlocked: {}", self.format_deadlocks());
        }
        assert!(
            self.blocked.is_empty(),
            "simulation quiesced with blocked non-daemon threads: {:?} (waiting on: {:?})",
            self.blocked,
            self.blocked_on
        );
    }

    /// Human-readable rendering of the deadlock cycles, e.g.
    /// `` `t-ab` waits for `B` held by `t-ba` -> `t-ba` waits for `A` held by `t-ab` ``.
    pub fn format_deadlocks(&self) -> String {
        let cycles: Vec<String> = self
            .deadlocks
            .iter()
            .map(|cyc| {
                let hops: Vec<String> = cyc
                    .iter()
                    .enumerate()
                    .map(|(i, (task, res))| {
                        let holder = &cyc[(i + 1) % cyc.len()].0;
                        format!("`{task}` waits for `{res}` held by `{holder}`")
                    })
                    .collect();
                hops.join(" -> ")
            })
            .collect();
        cycles.join("; ")
    }
}

/// Errors surfaced by [`Sim::run`].
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// Reserved; panics inside green threads are re-raised on the caller.
    Internal(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Internal(m) => write!(f, "simulation error: {m}"),
        }
    }
}
impl std::error::Error for SimError {}

impl Sim {
    /// Create a fresh simulation.
    pub fn new() -> Self {
        Sim {
            inner: Arc::new(Inner {
                state: RawMutex::new(State {
                    now: 0,
                    next_seq: 0,
                    heap: BinaryHeap::new(),
                    due: VecDeque::new(),
                    ticks: Ticks::default(),
                    deadlines: BTreeMap::new(),
                    threads: Vec::new(),
                    live: 0,
                    stats: SimStats::default(),
                    census: BTreeMap::new(),
                    panic_payload: None,
                    parked: Vec::new(),
                    parked_prune_at: 64,
                }),
                clock: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
                diag: RawMutex::new(crate::diag::DiagState::default()),
                observer: RawMutex::new(None),
            }),
        }
    }

    /// Install a [`TaskObserver`] notified as green threads start and finish.
    /// Threads already running are not retroactively reported; install the
    /// observer before spawning the workload.
    pub fn set_observer(&self, observer: Arc<dyn TaskObserver>) {
        *self.inner.observer.lock() = Some(observer);
    }

    /// Spawn a green thread runnable at the current virtual time.
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce() + Send + 'static) -> TaskId {
        self.inner.spawn_thread(name.into(), false, Box::new(f))
    }

    /// Spawn a daemon green thread (not reported as stuck at quiescence).
    pub fn spawn_daemon(
        &self,
        name: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.inner.spawn_thread(name.into(), true, Box::new(f))
    }

    /// Current virtual time (usable from outside the simulation).
    pub fn now(&self) -> u64 {
        self.inner.now()
    }

    /// The engine's counters so far (see [`SimStats`]).
    pub fn stats(&self) -> SimStats {
        self.inner.state.lock().stats
    }

    /// Green threads spawned so far per name prefix: the name up to its first digit or `:`.
    pub fn spawn_census(&self) -> BTreeMap<String, u64> {
        self.inner.state.lock().census.clone()
    }

    /// Run until no event is pending. Green-thread panics are re-raised
    /// here. May be called repeatedly (spawn more threads in between).
    pub fn run(&self) -> Result<SimReport, SimError> {
        let mut me = Arc::clone(&self.inner);
        let profiling = crate::profile::enabled();
        let engine = OnEngine::enter(&me);
        loop {
            let mut s = self.inner.state.lock();
            if let Some(p) = s.panic_payload.take() {
                drop(s);
                self.shutdown();
                panic::resume_unwind(p);
            }
            let Some(event) = s.pop() else { break };
            s.now = event.time;
            self.inner.clock.store(event.time, Ordering::Relaxed);
            s.stats.events_popped += 1;
            let probe = profiling.then(|| Probe::start(s.label(&event.kind)));
            match event.kind {
                EventKind::Call(f, _) => {
                    s.stats.calls += 1;
                    drop(s);
                    f();
                }
                EventKind::Step(step, _) => {
                    s.stats.calls += 1;
                    let next = step.take(&mut s);
                    drop(s);
                    if let Some(f) = next {
                        f();
                    }
                }
                EventKind::Tick(slot) => {
                    s.stats.calls += 1;
                    let owner = s.ticks.owners[slot].upgrade();
                    if let Some(owner) = &owner {
                        owner.fire(event.time, &mut s);
                    }
                    drop(s);
                    drop(owner); // outside the lock: the last handle's drop may reach the engine
                }
                EventKind::Wake { tid, epoch } => {
                    let slot = &mut s.threads[tid.0];
                    if slot.status() != Status::Blocked || slot.epoch != epoch {
                        s.stats.stale_wakes += 1;
                        continue;
                    }
                    let (co, locals) = slot.start_running();
                    s.stats.wakes += 1;
                    drop(s);
                    me = Inner::resume(me, tid, co, locals);
                }
            }
            if let Some(probe) = probe {
                probe.finish();
            }
        }
        drop(engine);
        // Only a blocked thread is named in the report, so only its name is
        // copied out of the table.
        let s = self.inner.state.lock();
        let parked: BTreeMap<usize, (String, bool)> = (s.threads.iter().enumerate())
            .filter(|(_, t)| t.status() == Status::Blocked)
            .map(|(i, t)| {
                let t = t.live.as_deref().expect("a blocked thread has not finished");
                (i, (t.name.clone(), t.daemon))
            })
            .collect();
        let now = s.now;
        drop(s);
        let name = |t: usize| parked[&t].0.clone();
        let blocked_tids: Vec<usize> =
            parked.iter().filter(|(_, (_, daemon))| !daemon).map(|(&t, _)| t).collect();
        let all_blocked: std::collections::BTreeSet<usize> = parked.keys().copied().collect();

        let diag = self.inner.diag.lock();
        let blocked: Vec<String> = blocked_tids.iter().map(|&t| name(t)).collect();
        let blocked_on: Vec<(String, Option<String>)> =
            blocked_tids.iter().map(|&t| (name(t), diag.waiting_label(t))).collect();
        let deadlocks: Vec<Vec<(String, String)>> = diag
            .find_cycles(&all_blocked)
            .into_iter()
            .map(|cyc| cyc.into_iter().map(|(t, rid)| (name(t), diag.label_of(rid))).collect())
            .collect();
        Ok(SimReport { now, blocked, blocked_on, deadlocks })
    }

    /// Unwind every remaining green thread and release its stack. Called
    /// automatically on drop; idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutting_down.swap(true, Ordering::Relaxed) {
            return;
        }
        // One forward pass. A resumed thread unwinds to its root and dies, so
        // every slot behind `next` is dead for good; a slot is looked at again
        // only if its thread caught the unwind and parked once more. Threads
        // spawned by unwinding ones are appended, and the pass reaches them.
        let mut me = Arc::clone(&self.inner);
        let mut next = 0;
        loop {
            let mut s = self.inner.state.lock();
            let Some(slot) = s.threads.get_mut(next) else { break };
            if slot.status() != Status::Blocked {
                next += 1;
                continue;
            }
            let (co, locals) = slot.start_running();
            drop(s);
            me = Inner::resume(me, TaskId(next), co, locals);
        }
        // A continuation parked on a wait list is dropped too: it may hold
        // what holds the list (a served port's chain holds its port), a cycle
        // through a token that would keep this engine alive. What a dropped
        // one held may park more: repeat until none is left.
        loop {
            let parked = std::mem::take(&mut self.inner.state.lock().parked);
            if parked.is_empty() {
                break;
            }
            let steps: Vec<_> = (parked.iter().filter_map(Weak::upgrade))
                .filter_map(|step| step.take(&mut self.inner.state.lock()))
                .collect();
            let _engine = OnEngine::enter(&self.inner);
            drop(steps);
        }
    }

    /// A handle that does not keep this simulation's engine alive: after
    /// `shutdown` and the last drop, nothing should.
    pub fn downgrade(&self) -> SimRef {
        SimRef(Arc::downgrade(&self.inner))
    }
}

/// See [`Sim::downgrade`].
pub struct SimRef(Weak<Inner>);

impl SimRef {
    /// True while anything still holds the engine.
    pub fn is_alive(&self) -> bool {
        self.0.strong_count() > 0
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Raw wait/notify surface. Crate-private: every blocking call outside this
// crate, and every one in `sync` and `queue`, goes through `crate::wait`;
// `cpu` wakes one job's thread at a time and `sleep` is above.
// ---------------------------------------------------------------------------

/// A one-cycle wake target: a green thread at its current epoch, or a
/// continuation's next step, which the first of its wakes runs on the engine.
///
/// Capture a token *before* publishing the fact that you are about to block,
/// then park. Any holder of the token can wake you exactly once;
/// stale tokens are ignored. Only `simt` makes tokens.
#[derive(Clone)]
pub struct WaitToken {
    inner: Arc<Inner>,
    target: Target,
}

/// A continuation's next step, taken by the first wake that runs it, and the
/// deadline armed for it, which taking the step cancels.
struct StepCell(RawMutex<(Option<Box<dyn FnOnce() + Send>>, Option<Deadline>)>);

impl StepCell {
    /// Take the step, if no wake has yet, and cancel its deadline in `s`
    /// (an event that holds only this cell).
    fn take(&self, s: &mut State) -> Option<Box<dyn FnOnce() + Send>> {
        let (next, deadline) = std::mem::take(&mut *self.0.lock());
        if let Some(deadline) = deadline {
            drop(s.cancel(deadline));
        }
        next
    }
}

#[derive(Clone)]
enum Target {
    Thread { tid: TaskId, epoch: u64 },
    Step(Arc<StepCell>),
}

impl WaitToken {
    pub(crate) fn step(step: Box<dyn FnOnce() + Send>) -> WaitToken {
        let target = Target::Step(Arc::new(StepCell(RawMutex::new((Some(step), None)))));
        with_current(|inner, _| WaitToken { inner: inner.clone(), target })
    }

    /// Note that this token waits on a wait list: a step's continuation is
    /// then dropped by `Sim::shutdown` if no wake ever runs it.
    pub(crate) fn note_parked(&self) {
        let Target::Step(step) = &self.target else { return };
        let mut s = self.inner.state.lock();
        s.parked.push(Arc::downgrade(step));
        if s.parked.len() >= s.parked_prune_at {
            s.parked.retain(|step| step.strong_count() > 0);
            s.parked_prune_at = 64.max(2 * s.parked.len());
        }
    }

    /// Wake the target at the current virtual time.
    #[track_caller]
    pub(crate) fn wake(&self) {
        self.wake_at(self.inner.now());
    }

    /// Wake the target at absolute virtual time `at`; no event if its wait
    /// has already ended.
    #[track_caller]
    pub(crate) fn wake_at(&self, at: u64) {
        self.wake_in(&mut self.inner.state.lock(), at, Location::caller());
    }

    /// [`wake_at`](WaitToken::wake_at) under the caller's lock on its engine;
    /// `from` labels a step's event in the host profile.
    fn wake_in(&self, s: &mut State, at: u64, from: Site) {
        match &self.target {
            Target::Thread { tid, epoch } => {
                if s.threads[tid.0].epoch == *epoch {
                    s.push_event(at, EventKind::Wake { tid: *tid, epoch: *epoch });
                }
            }
            Target::Step(step) => {
                if step.0.lock().0.is_some() {
                    s.push_event(at, EventKind::Step(step.clone(), from));
                }
            }
        }
    }

    /// Wake the target at absolute virtual time `at` unless its wait ends
    /// first. A step's deadline goes when the step is taken; a thread's
    /// when the thread cancels the returned one on resuming.
    #[track_caller]
    pub(crate) fn wake_by(&self, at: u64) -> Deadline {
        let mut s = self.inner.state.lock();
        match &self.target {
            Target::Thread { tid, epoch } => {
                s.arm_deadline(at, EventKind::Wake { tid: *tid, epoch: *epoch })
            }
            Target::Step(step) => {
                let deadline =
                    s.arm_deadline(at, EventKind::Step(step.clone(), Location::caller()));
                step.0.lock().1 = Some(deadline);
                deadline
            }
        }
    }
}

/// An armed deadline, by the `(time, seq)` it runs at: an event that
/// [`Deadline::cancel`] removes unrun, which it may do at any time before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline((u64, u64));

impl Deadline {
    /// Remove this deadline from the caller's simulation unrun, unless it
    /// has already run or been cancelled.
    pub fn cancel(self) {
        let unrun = with_current(|inner, _| inner.state.lock().cancel(self));
        drop(unrun); // outside the engine's lock
    }
}

/// What a CPU model's tick runs, on the engine's stack at the armed time and
/// under the engine's lock, which it settles in ([`EngineHandle::settle`]).
pub(crate) trait Tick: Send + Sync {
    fn fire(&self, at: u64, engine: &mut State);
}

/// A CPU model's one re-armable tick in the engine of the simulation that
/// first ran it; re-armed from green threads and from [`Tick::fire`].
pub(crate) struct EngineHandle {
    inner: Arc<Inner>,
    slot: usize,
}

impl EngineHandle {
    /// Give `owner` a tick in the calling green thread's simulation.
    pub(crate) fn register<T: Tick + 'static>(owner: &Arc<T>) -> EngineHandle {
        let owner: Weak<dyn Tick> = Arc::<T>::downgrade(owner);
        with_current(|inner, _| EngineHandle {
            slot: inner.state.lock().ticks.register(owner),
            inner: inner.clone(),
        })
    }

    /// End a CPU's finished jobs and re-arm its tick for `next` (`None`
    /// disarms it), under one lock (`locked`, a tick's, or one taken here):
    /// each job's wake or call takes the next sequence number in turn, as a
    /// push would, then the tick takes one and replaces the pending tick in
    /// place.
    pub(crate) fn settle(
        &self,
        locked: Option<&mut State>,
        finished: impl Iterator<Item = (Done, Site)>,
        next: Option<u64>,
    ) {
        let mut guard;
        let s = match locked {
            Some(s) => s,
            None => {
                guard = self.inner.state.lock();
                &mut *guard
            }
        };
        let now = s.now;
        for (done, from) in finished {
            match done {
                Done::Wake(token) => {
                    debug_assert!(Arc::ptr_eq(&token.inner, &self.inner), "one engine per CPU");
                    token.wake_in(s, now, from);
                }
                Done::Call(f) => s.push_event(now, EventKind::Call(f, from)),
            }
        }
        let key = next.map(|at| s.next_key(at));
        s.ticks.set(self.slot, key);
        s.note_pending();
    }
}

/// Capture a wake token for the calling green thread's current block cycle.
pub(crate) fn wait_token() -> WaitToken {
    with_thread(|inner, tid| WaitToken {
        inner: inner.clone(),
        target: Target::Thread { tid, epoch: inner.current_epoch(tid) },
    })
}

/// Block the calling green thread until a wake targeting its current epoch
/// fires. Always re-check your condition in a loop: wakes can be spurious
/// when multiple notifiers race.
pub(crate) fn park() {
    with_thread(|inner, tid| inner.block_current(tid));
}

/// Run `f` on the engine's stack at absolute virtual time `at`. The closure
/// must not park; it may schedule wakes and further calls.
#[track_caller]
pub fn call_at(at: u64, f: impl FnOnce() + Send + 'static) {
    let from = Location::caller();
    with_current(|inner, _| inner.schedule_call(at, Box::new(f), from));
}

/// [`call_at`] for a deadline: `f` runs at `at` unless the returned
/// [`Deadline`] is cancelled first, and then it is dropped unrun at once.
#[track_caller]
pub fn deadline_at(at: u64, f: impl FnOnce() + Send + 'static) -> Deadline {
    let from = Location::caller();
    with_current(|inner, _| inner.state.lock().arm_deadline(at, EventKind::Call(Box::new(f), from)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutex::RawMutex as Mutex;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let log = log.clone();
            sim.spawn(name, move || {
                crate::sleep(delay);
                log.lock().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_in_spawn_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["x", "y", "z"] {
            let log = log.clone();
            sim.spawn(name, move || log.lock().push(name));
        }
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec!["x", "y", "z"]);
    }

    /// Schedule a no-op `call_at` and return where the caller called this.
    #[track_caller]
    fn call_here(at: u64) -> Site {
        call_at(at, || ());
        Location::caller()
    }

    #[test]
    fn the_host_profile_labels_wakes_by_name_prefix_and_calls_by_caller() {
        crate::set_host_profile(true);
        let sim = Sim::new();
        let site = Arc::new(Mutex::new(None));
        for n in 0..3 {
            let site = site.clone();
            sim.spawn(format!("profiled-sleeper-{n}"), move || {
                crate::sleep(10);
                *site.lock() = Some(call_here(20));
            });
        }
        sim.run().unwrap();
        crate::set_host_profile(false);
        // Other tests may run while the profile is on: read only these labels.
        let profile = crate::take_host_profile();
        let site = site.lock().expect("the sleepers ran");
        let call = format!("call {}:{}", site.file(), site.line());
        assert!(call.starts_with("call crates/simt/src/engine.rs:"), "{call}");
        assert_eq!(profile.get("wake profiled-sleeper-").map(|e| e.0), Some(6), "{profile:?}");
        assert_eq!(profile.get(&call).map(|e| e.0), Some(3), "{profile:?}");
    }

    #[test]
    fn call_at_runs_on_engine() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        sim.spawn("a", move || {
            let hits3 = hits2.clone();
            call_at(100, move || {
                hits3.fetch_add(1, Ordering::SeqCst);
            });
            crate::sleep(200);
            assert_eq!(hits2.load(Ordering::SeqCst), 1);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.now, 200);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "chains its next step with `Cpu::submit` or `call_at`")]
    fn a_continuation_that_parks_panics_naming_the_continuation_forms() {
        let sim = Sim::new();
        sim.spawn("a", || call_at(5, || crate::sleep(1)));
        sim.run().unwrap();
    }

    #[test]
    fn a_continuation_reads_the_clock_schedules_and_spawns_as_the_engine() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        sim.spawn("a", move || {
            call_at(5, move || {
                assert_eq!(
                    (crate::current_task(), crate::current_name()),
                    (TaskId(usize::MAX), "".into())
                );
                let l2 = l.clone();
                call_at(crate::now() + 2, move || l2.lock().push(("call", crate::now())));
                crate::spawn("child", move || l.lock().push(("child", crate::now())));
            });
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(*log.lock(), [("child", 5), ("call", 7)]);
        assert!(!crate::in_sim(), "the engine's mark is gone after the call");
        let census: Vec<_> = sim.spawn_census().into_iter().collect();
        assert_eq!(census, [("a".to_string(), 1), ("child".to_string(), 1)]);
    }

    #[test]
    fn wait_token_wakes_parked_thread() {
        let sim = Sim::new();
        let slot: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        sim.spawn("sleeper", move || {
            let tok = wait_token();
            *slot2.lock() = Some(tok);
            park();
            assert_eq!(crate::now(), 500);
        });
        let slot3 = slot.clone();
        sim.spawn("waker", move || {
            crate::sleep(1); // let sleeper park first
            let tok = slot3.lock().take().unwrap();
            tok.wake_at(500);
        });
        let r = sim.run().unwrap();
        r.assert_clean();
        assert_eq!(r.now, 500);
    }

    #[test]
    fn stale_wake_is_ignored() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let tok = wait_token();
            // Wake the current cycle twice; second is stale after resume.
            tok.wake_at(10);
            tok.wake_at(20);
            park();
            assert_eq!(crate::now(), 10);
            // Sleep past the stale wake; it must not cut the sleep short.
            crate::sleep(100);
            assert_eq!(crate::now(), 110);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn daemon_threads_do_not_count_as_stuck() {
        let sim = Sim::new();
        sim.spawn_daemon("server", || {
            park(); // blocks forever
        });
        sim.spawn("client", || crate::sleep(5));
        let r = sim.run().unwrap();
        assert!(r.blocked.is_empty());
        assert_eq!(r.now, 5);
    }

    #[test]
    fn non_daemon_blocked_is_reported() {
        let sim = Sim::new();
        sim.spawn("stuck-guy", park);
        let q = crate::queue::Queue::<u32>::named("inbox");
        sim.spawn("mail-guy", move || {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "nobody sends: the receive never returns"
            )]
            let _ = q.recv();
        });
        let r = sim.run().unwrap();
        assert_eq!(r.blocked, vec!["stuck-guy".to_string(), "mail-guy".to_string()]);
        // The richer report names the resource each task was waiting on: a
        // raw park() has none, an instrumented queue recv names the queue.
        assert_eq!(
            r.blocked_on,
            vec![
                ("stuck-guy".to_string(), None),
                ("mail-guy".to_string(), Some("inbox".to_string())),
            ]
        );
        assert!(r.deadlocks.is_empty());
    }

    #[test]
    fn a_dropped_resource_leaves_no_diagnostic_label_behind() {
        let sim = Sim::new();
        sim.spawn("churn", || {
            for i in 0..100u32 {
                let q = crate::queue::Queue::<u32>::new();
                let tx = q.clone();
                crate::spawn("tx", move || {
                    crate::sleep(1);
                    tx.send(i);
                });
                assert_eq!(q.recv().unwrap(), i, "a wait on a fresh queue, labelled");
            }
        });
        let q = crate::queue::Queue::<u32>::named("inbox");
        sim.spawn("mail-guy", move || {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "nobody sends: the receive never returns"
            )]
            let _ = q.recv();
        });
        let r = sim.run().unwrap();
        assert_eq!(r.blocked_on, vec![("mail-guy".to_string(), Some("inbox".to_string()))]);
        assert_eq!(sim.inner.diag.lock().labelled(), 1, "only the live queue keeps its label");
    }

    #[test]
    fn two_task_abba_deadlock_reported_as_named_cycle() {
        let sim = Sim::new();
        let a = crate::sync::Semaphore::named("A", 1);
        let b = crate::sync::Semaphore::named("B", 1);
        let (a2, b2) = (a.clone(), b.clone());
        sim.spawn("t-ab", move || {
            a.acquire(1);
            crate::sleep(10);
            b.acquire(1);
            b.release(1);
            a.release(1);
        });
        sim.spawn("t-ba", move || {
            b2.acquire(1);
            crate::sleep(10);
            a2.acquire(1);
            a2.release(1);
            b2.release(1);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.blocked, vec!["t-ab".to_string(), "t-ba".to_string()]);
        assert_eq!(
            r.deadlocks,
            vec![vec![
                ("t-ab".to_string(), "B".to_string()),
                ("t-ba".to_string(), "A".to_string()),
            ]]
        );
        assert_eq!(
            r.format_deadlocks(),
            "`t-ab` waits for `B` held by `t-ba` -> `t-ba` waits for `A` held by `t-ab`"
        );
        let msg = std::panic::catch_unwind(|| r.assert_clean())
            .expect_err("deadlocked report must not be clean");
        let msg = msg.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("`t-ab` waits for `B` held by `t-ba`"), "panic message: {msg}");
    }

    #[test]
    fn three_task_cycle_reported_in_deterministic_order() {
        let sim = Sim::new();
        let a = crate::sync::Semaphore::named("A", 1);
        let b = crate::sync::Semaphore::named("B", 1);
        let c = crate::sync::Semaphore::named("C", 1);
        for (name, own, next) in
            [("t0", a.clone(), b.clone()), ("t1", b.clone(), c.clone()), ("t2", c, a)]
        {
            sim.spawn(name, move || {
                own.acquire(1);
                crate::sleep(10);
                next.acquire(1);
                next.release(1);
                own.release(1);
            });
        }
        let r = sim.run().unwrap();
        assert_eq!(
            r.deadlocks,
            vec![vec![
                ("t0".to_string(), "B".to_string()),
                ("t1".to_string(), "C".to_string()),
                ("t2".to_string(), "A".to_string()),
            ]]
        );
    }

    #[test]
    fn deadlock_cycle_may_pass_through_daemons() {
        let sim = Sim::new();
        let a = crate::sync::Semaphore::named("A", 1);
        let b = crate::sync::Semaphore::named("B", 1);
        let (a2, b2) = (a.clone(), b.clone());
        sim.spawn("worker", move || {
            a.acquire(1);
            crate::sleep(10);
            b.acquire(1);
        });
        sim.spawn_daemon("helper", move || {
            b2.acquire(1);
            crate::sleep(10);
            a2.acquire(1);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.blocked, vec!["worker".to_string()]);
        assert_eq!(
            r.deadlocks,
            vec![vec![
                ("worker".to_string(), "B".to_string()),
                ("helper".to_string(), "A".to_string()),
            ]]
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn green_thread_panic_propagates() {
        let sim = Sim::new();
        sim.spawn("bad", || panic!("boom"));
        sim.run().unwrap();
    }

    #[test]
    fn run_can_be_called_repeatedly() {
        let sim = Sim::new();
        sim.spawn("a", || crate::sleep(10));
        assert_eq!(sim.run().unwrap().now, 10);
        sim.spawn("b", || crate::sleep(5));
        assert_eq!(sim.run().unwrap().now, 15);
    }

    #[test]
    fn shutdown_unwinds_blocked_threads() {
        let sim = Sim::new();
        sim.spawn_daemon("forever", || loop {
            park();
        });
        sim.run().unwrap();
        sim.shutdown();
        // Dropping sim afterwards must not hang.
    }

    #[test]
    fn twenty_thousand_blocked_threads_run_and_release_their_stacks_in_run() {
        // One OS thread per green thread stopped at a few thousand (EAGAIN).
        // All 20 000 are parked on the same semaphore at once; the releaser
        // then lets them finish. A finished thread's stack must be unmapped
        // when it finishes — during `run()`, not at `shutdown()` — or a big
        // cell keeps one mapping per task ever spawned.
        const N: u64 = 20_000;
        let sim = Sim::new();
        let gate = crate::sync::Semaphore::new(0);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..N {
            let (gate, done) = (gate.clone(), done.clone());
            sim.spawn(format!("t{i}"), move || {
                gate.acquire(1);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (gate2, done2) = (gate.clone(), done.clone());
        sim.spawn("releaser", move || {
            crate::sleep(10);
            assert_eq!(done2.load(Ordering::SeqCst), 0, "all are blocked at once");
            gate2.release(N);
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(done.load(Ordering::SeqCst), N);
        let stats = sim.stats();
        assert_eq!(stats.threads_spawned, N + 1);
        assert_eq!(stats.peak_live_threads, N + 1);
        let s = sim.inner.state.lock();
        assert!(s.threads.iter().all(|t| t.status() == Status::Dead));
    }

    #[test]
    fn a_finished_thread_keeps_only_its_epoch_and_status() {
        assert_eq!(std::mem::size_of::<ThreadSlot>(), 16);
        const N: u64 = 4_000;
        let sim = Sim::new();
        // The last of the short threads hands out a token for its own current
        // epoch and finishes; the waker aims it at the finished thread.
        let token = Arc::new(Mutex::new(None::<WaitToken>));
        for i in 0..N {
            let token = token.clone();
            sim.spawn(format!("short-{i}"), move || {
                crate::sleep(i % 7);
                if i == N - 1 {
                    *token.lock() = Some(wait_token());
                }
            });
        }
        sim.spawn("waker", move || {
            crate::sleep(100);
            token.lock().take().expect("the last short thread ran").wake();
        });
        sim.spawn("stuck", park);
        sim.spawn_daemon("server", park);
        let report = sim.run().unwrap();
        assert_eq!(report.blocked, vec!["stuck".to_string()]);
        assert_eq!(report.blocked_on, vec![("stuck".to_string(), None)]);
        assert!(report.deadlocks.is_empty());
        let stats = sim.stats();
        assert_eq!(stats.stale_wakes, 1, "the wake aimed at a finished thread is dropped");
        assert_eq!(stats.wakes + stats.stale_wakes + stats.calls, stats.events_popped);
        let s = sim.inner.state.lock();
        assert_eq!(s.threads.len() as u64, N + 3);
        let (short, rest) = s.threads.split_at(N as usize);
        for slot in short {
            assert!(slot.live.is_none(), "a finished slot holds its epoch alone");
            assert!(slot.epoch >= 1);
        }
        let status: Vec<Status> = rest.iter().map(ThreadSlot::status).collect();
        assert_eq!(status, [Status::Dead, Status::Blocked, Status::Blocked]);
        assert!(s.threads.capacity() - s.threads.len() < THREAD_TABLE_STEP);
    }

    #[test]
    fn shutdown_unwinds_a_deep_stack_and_runs_every_destructor_once() {
        struct Counted(Arc<AtomicU64>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        fn descend(depth: u32, drops: &Arc<AtomicU64>) {
            let _live = Counted(drops.clone());
            if depth == 1 {
                park(); // never woken
                unreachable!("shutdown unwinds from inside park()");
            }
            descend(depth - 1, drops);
        }
        let drops = Arc::new(AtomicU64::new(0));
        let sim = Sim::new();
        let drops2 = drops.clone();
        sim.spawn_daemon("deep", move || descend(10, &drops2));
        sim.run().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        sim.shutdown();
        assert_eq!(drops.load(Ordering::SeqCst), 10);
        sim.shutdown(); // idempotent
        drop(sim);
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panic_deep_inside_a_green_thread_surfaces_from_run_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Bespoke(u32);
        fn descend(depth: u32) {
            if depth == 0 {
                crate::sleep(5); // panic on a stack that has been switched away from and back
                std::panic::panic_any(Bespoke(42));
            }
            descend(depth - 1);
        }
        let sim = Sim::new();
        sim.spawn_daemon("bystander", park);
        sim.spawn("bad", || descend(50));
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("the green thread's panic is re-raised by run()");
        assert_eq!(payload.downcast_ref::<Bespoke>(), Some(&Bespoke(42)));
        // run() shut the simulation down on the way out: the bystander is gone.
        assert!(sim.inner.state.lock().threads.iter().all(|t| t.status() == Status::Dead));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: the test is that a `Sim` may change OS threads"
    )]
    fn sim_built_on_one_os_thread_runs_and_drops_on_another() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        sim.spawn("worker", move || {
            crate::sleep(7);
            hits2.fetch_add(crate::now(), Ordering::SeqCst);
        });
        sim.spawn_daemon("server", park);
        let now = std::thread::spawn(move || {
            let now = sim.run().unwrap().now;
            drop(sim); // unwinds `server` here, on this OS thread
            now
        })
        .join()
        .unwrap();
        assert_eq!((now, hits.load(Ordering::SeqCst)), (7, 7));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: the test is that a `Sim` may change OS threads"
    )]
    fn parked_green_thread_continues_on_another_os_thread() {
        // Between two `run()`s a `Sim` may change OS threads with green threads
        // parked mid-body: what they reach through thread-locals afterwards
        // (current task, `with_local` values, the lock-guard count) must be the
        // new thread's.
        let sim = Sim::new();
        let token: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let token2 = token.clone();
        let counted = crate::sync::Mutex::new(0u32);
        sim.spawn("migrant", move || {
            crate::with_local(|n: &mut u32| *n = 7);
            *token2.lock() = Some(wait_token());
            *counted.lock() += 1;
            park(); // the first run() ends here
            assert_eq!(crate::current_name(), "migrant");
            assert_eq!(crate::with_local(|n: &mut u32| *n), 7);
            // Counted on the new OS thread, both ways: a guard booked to the
            // old thread's cell would leave this one at 1 and fail the sleep.
            *counted.lock() += 1;
            crate::sleep(5);
        });
        assert_eq!(sim.run().unwrap().blocked, vec!["migrant".to_string()]);
        token.lock().take().unwrap().wake();
        let now = std::thread::spawn(move || {
            let now = sim.run().unwrap().now;
            assert!(crate::mutex::first_held().is_none());
            now
        })
        .join()
        .unwrap();
        assert_eq!(now, 5);
        assert!(crate::mutex::first_held().is_none());
    }

    #[test]
    fn nested_sim_runs_on_a_green_thread_and_hands_its_identity_back() {
        // `resume` lends the run loop's handle to `CURRENT` and takes back what
        // it finds there: a `Sim` run from inside a green thread must leave
        // that thread's own handle in place, at every depth.
        let outer = Sim::new();
        outer.spawn("outer", || {
            crate::sleep(5);
            let inner = Sim::new();
            inner.spawn("inner", || {
                assert_eq!((crate::current_name().as_str(), crate::now()), ("inner", 0));
                // The inner engine's own stack is the outer thread's.
                call_at(3, || assert_eq!(crate::current_name(), "outer"));
                crate::sleep(7);
                assert_eq!(crate::now(), 7);
            });
            assert_eq!(inner.run().unwrap().now, 7);
            drop(inner);
            assert_eq!((crate::current_name().as_str(), crate::now()), ("outer", 5));
            crate::sleep(1);
        });
        assert_eq!(outer.run().unwrap().now, 6);
        assert!(!crate::in_sim());
    }

    #[test]
    fn stats_count_every_popped_event_once() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let tok = wait_token();
            tok.wake_at(10);
            tok.wake_at(20); // stale by the time it fires
            park();
            call_at(30, || ());
            crate::sleep(100);
        });
        sim.spawn("b", || crate::sleep(1));
        sim.run().unwrap().assert_clean();
        let st = sim.stats();
        assert_eq!(st.wakes + st.stale_wakes + st.calls, st.events_popped);
        assert_eq!((st.wakes, st.stale_wakes, st.calls), (5, 1, 1));
        assert_eq!((st.threads_spawned, st.peak_live_threads), (2, 2));
        assert_eq!(st.heap_high_water, 3);
    }

    #[test]
    fn a_cancelled_deadline_leaves_the_order_of_its_instant_as_it_was() {
        // Deadlines, calls and a thread's wake at one instant run in the
        // order they were armed, whichever front holds them, with or without
        // a cancelled deadline among them.
        fn order(cancel: bool) -> Vec<&'static str> {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            let l = log.clone();
            sim.spawn("arming", move || {
                let at = |name| {
                    let l = l.clone();
                    move || l.lock().push(name)
                };
                let first = deadline_at(100, at("deadline-1"));
                call_at(100, at("call-1"));
                let dropped = deadline_at(100, at("deadline-2"));
                call_at(100, at("call-2"));
                let _last = deadline_at(100, at("deadline-3"));
                if cancel {
                    dropped.cancel();
                    dropped.cancel(); // a second cancel finds nothing
                }
                crate::sleep(100); // armed after all of them
                l.lock().push("sleeper");
                // The first has run: nothing to cancel.
                first.cancel();
                // Armed for the current instant: beside the due-now queue.
                let _now = deadline_at(100, at("deadline-now"));
                call_at(100, at("call-now"));
            });
            sim.run().unwrap().assert_clean();
            assert_eq!(sim.stats().deadlines_cancelled, u64::from(cancel));
            let order = log.lock().clone();
            order
        }
        let all = [
            "deadline-1",
            "call-1",
            "deadline-2",
            "call-2",
            "deadline-3",
            "sleeper",
            "deadline-now",
            "call-now",
        ];
        assert_eq!(order(false), all);
        let kept: Vec<_> = all.into_iter().filter(|&e| e != "deadline-2").collect();
        assert_eq!(order(true), kept);
    }

    /// A tick owner that logs each firing.
    struct Logged(Arc<Mutex<Vec<&'static str>>>);

    impl Tick for Logged {
        fn fire(&self, _at: u64, _engine: &mut State) {
            self.0.lock().push("tick");
        }
    }

    impl EngineHandle {
        /// Re-arm the tick with no job finished.
        fn arm(&self, at: Option<u64>) {
            self.settle(None, std::iter::empty(), at);
        }
    }

    /// Run `arm` on a green thread with a tick whose firings go to the log.
    fn with_tick(
        arm: impl FnOnce(EngineHandle, Arc<Mutex<Vec<&'static str>>>) + Send + 'static,
    ) -> (Sim, Vec<&'static str>) {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        // The engine holds the owner weakly: it must outlive the run here.
        let owner = Arc::new(Logged(log.clone()));
        let (o, l) = (owner.clone(), log.clone());
        sim.spawn("arming", move || arm(EngineHandle::register(&o), l));
        sim.run().unwrap().assert_clean();
        let fired = log.lock().clone();
        (sim, fired)
    }

    #[test]
    fn the_tick_tree_finds_what_a_linear_scan_finds() {
        // Register, arm, re-arm and disarm at random, growing the tree past
        // several doublings with ticks pending; few instants, so that keys
        // often tie on time and the sequence number decides.
        let mut grown = 0;
        crate::for_each_case(300, |rng| {
            let (mut ticks, mut scan, mut seq) = (Ticks::default(), Vec::new(), 0);
            for _ in 0..rng.next_range(1, 400) {
                match rng.next_range(0, 8) {
                    0 if scan.len() < 40 => {
                        assert_eq!(ticks.register(Weak::<Logged>::new()), scan.len());
                        scan.push(None);
                    }
                    _ if scan.is_empty() => continue,
                    n => {
                        let slot = rng.next_range(0, scan.len() as u64) as usize;
                        seq += 1;
                        let key = (n > 1).then(|| (rng.next_range(0, 6), seq));
                        ticks.set(slot, key);
                        scan[slot] = key;
                    }
                }
                let armed = scan.iter().enumerate().filter_map(|(i, k)| Some((k.as_ref()?, i)));
                let want = armed.clone().min().map(|(&(time, seq), i)| (time, seq, i));
                assert_eq!((ticks.earliest(), ticks.armed), (want, armed.count()));
            }
            grown += usize::from(scan.len() > 16);
        });
        assert!(grown > 100, "only {grown} cases grew the tree past 16 slots");
    }

    #[test]
    fn an_event_pushed_earlier_for_an_instant_runs_before_due_now_events_pushed_at_it() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        sim.spawn("late", move || {
            crate::sleep(10); // wakes at 10 ahead of `early`'s call, pushed after this sleep
            let l2 = l.clone();
            call_at(10, move || l2.lock().push("due-now"));
            l.lock().push("late");
        });
        let l = log.clone();
        sim.spawn("early", move || call_at(10, move || l.lock().push("early")));
        sim.run().unwrap().assert_clean();
        assert_eq!(*log.lock(), ["late", "early", "due-now"]);
    }

    #[test]
    fn a_tick_re_armed_to_the_same_instant_runs_after_an_event_pushed_in_between() {
        let (_, fired) = with_tick(|tick, log| {
            tick.arm(Some(10));
            call_at(10, move || log.lock().push("event"));
            tick.arm(Some(10));
        });
        assert_eq!(fired, ["event", "tick"]);
    }

    #[test]
    fn a_disarmed_tick_never_fires() {
        let (sim, fired) = with_tick(|tick, _| {
            tick.arm(Some(10));
            tick.arm(None);
            crate::sleep(20);
        });
        assert!(fired.is_empty());
        assert_eq!((sim.now(), sim.stats().calls), (20, 0));
    }

    #[test]
    fn fired_ticks_count_as_calls_and_superseded_ones_not_at_all() {
        let (sim, fired) = with_tick(|tick, _| {
            for at in [10, 20, 30] {
                tick.arm(Some(at));
            }
            crate::sleep(5);
        });
        assert_eq!((fired, sim.now()), (vec!["tick"], 30));
        let st = sim.stats();
        assert_eq!(st.wakes + st.stale_wakes + st.calls, st.events_popped);
        assert_eq!((st.wakes, st.calls, st.events_popped), (2, 1, 3));
        // The armed tick and the sleep's wake, both pending at 0.
        assert_eq!(st.heap_high_water, 2);
    }

    #[test]
    fn determinism_same_program_same_timings() {
        fn once() -> u64 {
            let sim = Sim::new();
            let total = Arc::new(AtomicU64::new(0));
            for i in 0..10u64 {
                let total = total.clone();
                sim.spawn(format!("t{i}"), move || {
                    crate::sleep(i * 7 % 13);
                    total.fetch_add(crate::now() * (i + 1), Ordering::SeqCst);
                });
            }
            sim.run().unwrap();
            total.load(Ordering::SeqCst)
        }
        assert_eq!(once(), once());
    }
}
