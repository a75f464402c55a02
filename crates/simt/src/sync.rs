//! Green-thread synchronization primitives built on [`crate::wait`].

use std::sync::Arc;

use crate::diag;
use crate::engine::WaitToken;
pub use crate::mutex::{Mutex, MutexGuard};
use crate::wait::WaitList;

/// What the clones of one primitive share: its value and who waits for it.
pub(crate) struct Shared<S> {
    pub(crate) state: Mutex<S>,
    pub(crate) waiters: WaitList,
}

impl<S> Shared<S> {
    pub(crate) fn new(state: S, waiters: WaitList) -> Arc<Self> {
        Arc::new(Shared { state: Mutex::new(state), waiters })
    }
}

impl<S: Send + 'static> Shared<S> {
    /// [`WaitList::wait_until`] for a continuation: a pass that finds nothing
    /// registers a step token where a thread would park, and returns; the
    /// first of its wakes runs the next pass (and cancels the pass's
    /// deadline), and the last runs `then`.
    pub(crate) fn wait_then<R: Send + 'static>(
        self: Arc<Self>,
        deadline: Option<u64>,
        mut ready: impl FnMut(&Self) -> Option<R> + Send + 'static,
        then: impl FnOnce(Option<R>) + Send + 'static,
    ) {
        if let Some(value) = ready(&self) {
            return then(Some(value));
        }
        if deadline.is_some_and(|d| crate::now() >= d) {
            return then(None);
        }
        let this = self.clone();
        let token = WaitToken::step(Box::new(move || this.wait_then(deadline, ready, then)));
        if let Some(d) = deadline {
            token.wake_by(d);
        }
        token.note_parked();
        self.waiters.tokens.lock().push(token);
    }
}

/// A counting semaphore. Used e.g. to bound in-flight shuffle fetches.
#[derive(Clone)]
pub struct Semaphore(Arc<Shared<u64>>);

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: u64) -> Self {
        Semaphore(Shared::new(permits, WaitList::new("sem")))
    }

    /// Like [`new`](Semaphore::new), with a display name used by the
    /// deadlock diagnoser's wait-for graph.
    pub fn named(name: impl Into<String>, permits: u64) -> Self {
        Semaphore(Shared::new(permits, WaitList::named(name)))
    }

    /// Acquire `n` permits, blocking until available.
    pub fn acquire(&self, n: u64) {
        self.0.waiters.wait_until(None, || {
            let mut permits = self.0.state.lock();
            (*permits >= n).then(|| *permits -= n)
        });
        diag::on_acquire(self.0.waiters.res());
    }

    /// Release `n` permits and wake waiters.
    pub fn release(&self, n: u64) {
        diag::on_release(self.0.waiters.res());
        *self.0.state.lock() += n;
        self.0.waiters.notify_all();
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        *self.0.state.lock()
    }
}

/// A level-triggered notification flag (cf. `tokio::sync::Notify`, but with a
/// sticky "set" state consumed by waiters).
#[derive(Clone)]
pub struct Notify(Arc<Shared<bool>>);

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// New, unset.
    pub fn new() -> Self {
        Notify(Shared::new(false, WaitList::new("notify")))
    }

    /// Like [`new`](Notify::new), with a display name for diagnostics.
    pub fn named(name: impl Into<String>) -> Self {
        Notify(Shared::new(false, WaitList::named(name)))
    }

    /// Set the flag and wake all waiters.
    pub fn notify(&self) {
        *self.0.state.lock() = true;
        self.0.waiters.notify_all();
    }

    /// Block until the flag is set, then consume it.
    pub fn wait(&self) {
        let consume = || std::mem::take(&mut *self.0.state.lock()).then_some(());
        self.0.waiters.wait_until(None, consume);
    }
}

/// A single-use result slot: one side puts a value, the other blocks for it.
/// This is the simulation's `oneshot` channel, used for RPC reply futures.
pub struct OnceCell<T>(Arc<Shared<Option<T>>>);

impl<T> Clone for OnceCell<T> {
    fn clone(&self) -> Self {
        OnceCell(self.0.clone())
    }
}

impl<T> Default for OnceCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OnceCell<T> {
    /// New, empty.
    pub fn new() -> Self {
        OnceCell(Shared::new(None, WaitList::new("once")))
    }

    /// Like [`new`](OnceCell::new), with a display name for diagnostics.
    pub fn named(name: impl Into<String>) -> Self {
        OnceCell(Shared::new(None, WaitList::named(name)))
    }

    /// Store the value (first write wins) and wake waiters.
    pub fn put(&self, value: T) {
        self.0.state.lock().get_or_insert(value);
        self.0.waiters.notify_all();
    }

    /// Block until a value is stored, then take it. Only one caller obtains
    /// the value.
    pub fn take(&self) -> T {
        self.0.waiters.wait_until(None, || self.try_take()).expect("a wait without a deadline")
    }

    /// Block until a value is stored or the relative timeout (ns) passes.
    pub fn take_timeout(&self, timeout: u64) -> Option<T> {
        self.0.waiters.wait_until(Some(crate::now().saturating_add(timeout)), || self.try_take())
    }

    /// [`take_timeout`](OnceCell::take_timeout) without parking.
    pub fn take_timeout_then(&self, timeout: u64, then: impl FnOnce(Option<T>) + Send + 'static)
    where
        T: Send + 'static,
    {
        let deadline = crate::now().saturating_add(timeout);
        self.0.clone().wait_then(Some(deadline), |s| s.state.lock().take(), then);
    }

    /// Non-blocking probe.
    pub fn try_take(&self) -> Option<T> {
        self.0.state.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn semaphore_bounds_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let peak = Arc::new(Mutex::new((0u32, 0u32))); // (current, max)
        for i in 0..6 {
            let sem = sem.clone();
            let peak = peak.clone();
            sim.spawn(format!("w{i}"), move || {
                sem.acquire(1);
                {
                    let mut p = peak.lock();
                    p.0 += 1;
                    p.1 = p.1.max(p.0);
                }
                crate::sleep(10);
                peak.lock().0 -= 1;
                sem.release(1);
            });
        }
        sim.run().unwrap().assert_clean();
        assert_eq!(peak.lock().1, 2);
    }

    #[test]
    fn semaphore_bulk_acquire() {
        let sim = Sim::new();
        let sem = Semaphore::new(3);
        let sem2 = sem.clone();
        sim.spawn("big", move || {
            sem2.acquire(3);
            assert_eq!(sem2.available(), 0);
            sem2.release(3);
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(sem.available(), 3);
    }

    #[test]
    fn notify_wakes_waiter() {
        let sim = Sim::new();
        let n = Notify::new();
        let n2 = n.clone();
        sim.spawn("waiter", move || {
            n2.wait();
            assert_eq!(crate::now(), 42);
        });
        sim.spawn("notifier", move || {
            crate::sleep(42);
            n.notify();
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn notify_before_wait_is_sticky() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let n = Notify::new();
            n.notify();
            n.wait(); // consumes immediately, no block
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn oncecell_roundtrip() {
        let sim = Sim::new();
        let c = OnceCell::<String>::new();
        let c2 = c.clone();
        sim.spawn("getter", move || {
            assert_eq!(c2.take(), "hello");
        });
        sim.spawn("putter", move || {
            crate::sleep(3);
            c.put("hello".to_string());
        });
        sim.run().unwrap().assert_clean();
    }

    /// `(value, when)` as a thread (`cont == false`) or a continuation took
    /// it from a cell under a 1 000 ns timeout, the value put at `put_at`
    /// (never, if `None`), with the run's end and its engine counters.
    fn timed_take(cont: bool, put_at: Option<u64>) -> ((Option<u32>, u64), u64, crate::SimStats) {
        let sim = Sim::new();
        let cell = OnceCell::<u32>::new();
        let got = Arc::new(Mutex::new(None));
        let (c, g) = (cell.clone(), got.clone());
        sim.spawn("taker", move || {
            if cont {
                let g2 = g.clone();
                return c.take_timeout_then(1_000, move |v| *g2.lock() = Some((v, crate::now())));
            }
            let v = c.take_timeout(1_000);
            *g.lock() = Some((v, crate::now()));
        });
        if let Some(at) = put_at {
            sim.spawn("putter", move || {
                crate::sleep(at);
                cell.put(7);
            });
        }
        let report = sim.run().unwrap();
        report.assert_clean();
        let got = got.lock().expect("the take ended");
        (got, report.now, sim.stats())
    }

    #[test]
    fn a_wait_ended_by_a_notify_leaves_nothing_pending() {
        for cont in [false, true] {
            let (got, end, stats) = timed_take(cont, Some(10));
            // The run ends at the put, not at the cancelled deadline.
            assert_eq!((got, end), ((Some(7), 10), 10), "continuation: {cont}");
            assert_eq!((stats.deadlines_cancelled, stats.stale_wakes), (1, 0));
        }
    }

    #[test]
    fn a_timed_out_wait_still_ends_at_exactly_its_deadline() {
        for cont in [false, true] {
            let (got, end, stats) = timed_take(cont, None);
            assert_eq!((got, end), ((None, 1_000), 1_000), "continuation: {cont}");
            assert_eq!(stats.deadlines_cancelled, 0);
        }
        // A put after the deadline finds the taker gone and wakes nothing.
        for cont in [false, true] {
            let (got, end, stats) = timed_take(cont, Some(5_000));
            assert_eq!((got, end), ((None, 1_000), 5_000), "continuation: {cont}");
            assert_eq!((stats.deadlines_cancelled, stats.stale_wakes), (0, 0));
        }
    }

    #[test]
    fn oncecell_first_write_wins() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let c = OnceCell::new();
            c.put(1u32);
            c.put(2);
            assert_eq!(c.take(), 1);
            assert_eq!(c.try_take(), None);
        });
        sim.run().unwrap().assert_clean();
    }
}
