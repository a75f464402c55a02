//! Virtual-clock deadline timers.
//!
//! A [`DeadlineTimer`] schedules a closure on the engine's event heap at an
//! absolute *virtual* instant — the deterministic analog of arming a wall
//! clock timer. The sparklet scheduler uses it to bound jobs: the closure
//! posts a deadline event into the scheduler's queue, totally ordered with
//! task completions by `(virtual_time, sequence)`, so a deadline-bounded
//! run is as reproducible as an unbounded one.
//!
//! Cancellation is cooperative: the heap entry cannot be unscheduled, but a
//! cancelled timer's closure never runs. The stale entry is a no-op whose
//! only trace is that the simulation clock may drain past the deadline at
//! quiescence — it delays or reorders nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A one-shot timer armed at an absolute virtual time.
///
/// Dropping the handle does **not** cancel the timer (a fired deadline must
/// not depend on whether anyone kept the handle); call
/// [`cancel`](DeadlineTimer::cancel) explicitly.
#[must_use = "a dropped handle leaves a timer nobody can cancel"]
pub struct DeadlineTimer {
    at: u64,
    cancelled: Arc<AtomicBool>,
    fired: Arc<AtomicBool>,
}

impl DeadlineTimer {
    /// Arm a timer: `f` runs on the engine's stack at virtual time `at` (or
    /// immediately if `at` is already in the past) unless the timer is
    /// cancelled first. Must be called from inside a simulation. Like any
    /// [`engine::call_at`](crate::engine::call_at) closure, `f` must not
    /// block and has no green-thread context (`simt::now()` is
    /// unavailable); posting to a [`Queue`](crate::queue::Queue) is the
    /// intended use.
    pub fn schedule(at: u64, f: impl FnOnce() + Send + 'static) -> DeadlineTimer {
        let cancelled = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicBool::new(false));
        let c = cancelled.clone();
        let fr = fired.clone();
        crate::engine::call_at(at, move || {
            if !c.load(Ordering::SeqCst) {
                fr.store(true, Ordering::SeqCst);
                f();
            }
        });
        DeadlineTimer { at, cancelled, fired }
    }

    /// Arm a timer `delay` nanoseconds from the current virtual time.
    pub fn after(delay: u64, f: impl FnOnce() + Send + 'static) -> DeadlineTimer {
        Self::schedule(crate::now().saturating_add(delay), f)
    }

    /// Neutralize the timer; a no-op after it has fired.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once the closure has run (a cancelled timer never fires).
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// True if [`cancel`](DeadlineTimer::cancel) was called.
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// The absolute virtual instant the timer is armed at.
    pub fn deadline(&self) -> u64 {
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Queue;
    use crate::Sim;

    #[test]
    fn fires_at_exact_virtual_time() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let q: Queue<()> = Queue::new();
            let q2 = q.clone();
            // The closure runs on the engine's stack (no `simt::now()`
            // there); the woken receiver observes the virtual instant.
            let t = DeadlineTimer::after(1_000, move || q2.send(()));
            q.recv().unwrap();
            assert_eq!(crate::now(), 1_000);
            assert!(t.fired());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn cancel_suppresses_firing() {
        let sim = Sim::new();
        let hit = Arc::new(AtomicBool::new(false));
        let hit2 = hit.clone();
        sim.spawn("a", move || {
            let h = hit2.clone();
            let t = DeadlineTimer::after(500, move || h.store(true, Ordering::SeqCst));
            t.cancel();
            crate::sleep(1_000);
            assert!(!t.fired());
            assert!(t.cancelled());
        });
        sim.run().unwrap().assert_clean();
        assert!(!hit.load(Ordering::SeqCst));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let t = DeadlineTimer::after(10, || {});
            crate::sleep(20);
            assert!(t.fired());
            t.cancel();
            assert!(t.fired());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn deadline_event_ordered_with_queue_traffic() {
        // The deadline competes with ordinary sends on one queue; virtual
        // order decides, not host scheduling.
        let sim = Sim::new();
        sim.spawn("a", || {
            let q: Queue<&'static str> = Queue::new();
            let qt = q.clone();
            let _t = DeadlineTimer::after(100, move || qt.send("deadline"));
            let qs = q.clone();
            crate::spawn("sender", move || {
                crate::sleep(50);
                qs.send("early");
                crate::sleep(100);
                qs.send("late");
            });
            assert_eq!(q.recv().unwrap(), "early");
            assert_eq!(q.recv().unwrap(), "deadline");
            assert_eq!(q.recv().unwrap(), "late");
        });
        sim.run().unwrap().assert_clean();
    }
}
