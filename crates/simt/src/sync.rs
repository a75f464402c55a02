//! Green-thread synchronization primitives built on the wait/notify core.

use std::sync::Arc;

use crate::diag::{self, DiagRes};
use crate::engine::{park, wait_token, WaitToken};
pub use crate::mutex::{Mutex, MutexGuard};

/// A counting semaphore. Used e.g. to bound in-flight shuffle fetches.
pub struct Semaphore {
    state: Arc<Mutex<SemState>>,
    res: Arc<DiagRes>,
}

struct SemState {
    permits: u64,
    waiters: Vec<WaitToken>,
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore { state: self.state.clone(), res: self.res.clone() }
    }
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            state: Arc::new(Mutex::new(SemState { permits, waiters: Vec::new() })),
            res: Arc::new(DiagRes::new("sem", None)),
        }
    }

    /// Like [`new`](Semaphore::new), with a display name used by the
    /// deadlock diagnoser's wait-for graph.
    pub fn named(name: impl Into<String>, permits: u64) -> Self {
        Semaphore {
            state: Arc::new(Mutex::new(SemState { permits, waiters: Vec::new() })),
            res: Arc::new(DiagRes::new("sem", Some(name.into()))),
        }
    }

    /// Acquire `n` permits, blocking until available.
    pub fn acquire(&self, n: u64) {
        let mut waited = false;
        loop {
            {
                let mut s = self.state.lock();
                if s.permits >= n {
                    s.permits -= n;
                    drop(s);
                    if waited {
                        diag::on_wait_end();
                    }
                    diag::on_acquire(&self.res);
                    return;
                }
                s.waiters.push(wait_token());
            }
            if !waited {
                diag::on_wait(&self.res);
                waited = true;
            }
            park();
        }
    }

    /// Release `n` permits and wake waiters.
    pub fn release(&self, n: u64) {
        diag::on_release(&self.res);
        let waiters = {
            let mut s = self.state.lock();
            s.permits += n;
            std::mem::take(&mut s.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.state.lock().permits
    }
}

/// A level-triggered notification flag (cf. `tokio::sync::Notify`, but with a
/// sticky "set" state consumed by waiters).
pub struct Notify {
    state: Arc<Mutex<NotifyState>>,
    res: Arc<DiagRes>,
}

struct NotifyState {
    set: bool,
    waiters: Vec<WaitToken>,
}

impl Clone for Notify {
    fn clone(&self) -> Self {
        Notify { state: self.state.clone(), res: self.res.clone() }
    }
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// New, unset.
    pub fn new() -> Self {
        Notify {
            state: Arc::new(Mutex::new(NotifyState { set: false, waiters: Vec::new() })),
            res: Arc::new(DiagRes::new("notify", None)),
        }
    }

    /// Like [`new`](Notify::new), with a display name for diagnostics.
    pub fn named(name: impl Into<String>) -> Self {
        Notify {
            state: Arc::new(Mutex::new(NotifyState { set: false, waiters: Vec::new() })),
            res: Arc::new(DiagRes::new("notify", Some(name.into()))),
        }
    }

    /// Set the flag and wake all waiters.
    pub fn notify(&self) {
        let waiters = {
            let mut s = self.state.lock();
            s.set = true;
            std::mem::take(&mut s.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// Block until the flag is set, then consume it.
    pub fn wait(&self) {
        let mut waited = false;
        loop {
            {
                let mut s = self.state.lock();
                if s.set {
                    s.set = false;
                    drop(s);
                    if waited {
                        diag::on_wait_end();
                    }
                    return;
                }
                s.waiters.push(wait_token());
            }
            if !waited {
                diag::on_wait(&self.res);
                waited = true;
            }
            park();
        }
    }
}

/// A single-use result slot: one side puts a value, the other blocks for it.
/// This is the simulation's `oneshot` channel, used for RPC reply futures.
pub struct OnceCell<T> {
    state: Arc<Mutex<OnceState<T>>>,
    res: Arc<DiagRes>,
}

struct OnceState<T> {
    value: Option<T>,
    waiters: Vec<WaitToken>,
}

impl<T> Clone for OnceCell<T> {
    fn clone(&self) -> Self {
        OnceCell { state: self.state.clone(), res: self.res.clone() }
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
        OnceCell {
            state: Arc::new(Mutex::new(OnceState { value: None, waiters: Vec::new() })),
            res: Arc::new(DiagRes::new("once", None)),
        }
    }

    /// Like [`new`](OnceCell::new), with a display name for diagnostics.
    pub fn named(name: impl Into<String>) -> Self {
        OnceCell {
            state: Arc::new(Mutex::new(OnceState { value: None, waiters: Vec::new() })),
            res: Arc::new(DiagRes::new("once", Some(name.into()))),
        }
    }

    /// Store the value (first write wins) and wake waiters.
    pub fn put(&self, value: T) {
        let waiters = {
            let mut s = self.state.lock();
            if s.value.is_none() {
                s.value = Some(value);
            }
            std::mem::take(&mut s.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// Block until a value is stored, then take it. Only one caller obtains
    /// the value.
    pub fn take(&self) -> T {
        let mut waited = false;
        loop {
            {
                let mut s = self.state.lock();
                if let Some(v) = s.value.take() {
                    drop(s);
                    if waited {
                        diag::on_wait_end();
                    }
                    return v;
                }
                s.waiters.push(wait_token());
            }
            if !waited {
                diag::on_wait(&self.res);
                waited = true;
            }
            park();
        }
    }

    /// Block until a value is stored or the relative timeout (ns) passes.
    pub fn take_timeout(&self, timeout: u64) -> Option<T> {
        let deadline = crate::now().saturating_add(timeout);
        let mut waited = false;
        let finish = |waited: bool, v: Option<T>| {
            if waited {
                diag::on_wait_end();
            }
            v
        };
        loop {
            let tok = {
                let mut s = self.state.lock();
                if let Some(v) = s.value.take() {
                    drop(s);
                    return finish(waited, Some(v));
                }
                if crate::now() >= deadline {
                    drop(s);
                    return finish(waited, None);
                }
                let tok = wait_token();
                s.waiters.push(tok.clone());
                tok
            };
            tok.wake_at(deadline);
            if !waited {
                diag::on_wait(&self.res);
                waited = true;
            }
            park();
        }
    }

    /// Non-blocking probe.
    pub fn try_take(&self) -> Option<T> {
        self.state.lock().value.take()
    }

    /// True if a value is waiting.
    pub fn is_ready(&self) -> bool {
        self.state.lock().value.is_some()
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

    #[test]
    fn oncecell_first_write_wins() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let c = OnceCell::new();
            c.put(1u32);
            c.put(2);
            assert_eq!(c.take(), 1);
            assert!(!c.is_ready());
        });
        sim.run().unwrap().assert_clean();
    }
}
