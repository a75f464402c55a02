//! # simt — deterministic discrete-event simulation with green threads
//!
//! `simt` is the substrate under the whole MPI4Spark reproduction. Every
//! simulated process (Spark master, worker, executor, driver, MPI rank, task
//! slot) is a *green thread*: a stackful coroutine that the
//! engine resumes from its event loop, on the OS thread that called
//! [`Sim::run`], so that **exactly one simulated thread runs at any instant**,
//! and whose notion of time is a **virtual clock** advanced only by the event
//! heap. A simulation never starts an OS thread.
//!
//! This gives three properties the reproduction needs:
//!
//! 1. **Natural blocking code.** MPI `recv` and Spark RPC round-trips are
//!    written as ordinary blocking Rust. What must not hold a thread (a
//!    shuffle fetch, a port's event loop) chains continuations on the same
//!    primitives: `Cpu::submit`, the queues' `_then` receives.
//! 2. **Determinism.** The event heap is totally ordered by
//!    `(virtual_time, sequence_number)`. Identical seeds produce identical
//!    schedules, timings, and results — asserted by tests.
//! 3. **Virtual time.** Communication and compute charge nanoseconds against
//!    the clock from calibrated cost models, so "448 GB shuffles on 1792
//!    cores" complete in seconds of wall time with meaningful relative
//!    timings.
//!
//! ## Quick example
//!
//! ```
//! use simt::Sim;
//!
//! let sim = Sim::new();
//! let (tx, rx) = simt::queue::channel::<u64>();
//! sim.spawn("producer", move || {
//!     simt::sleep(1_000);
//!     tx.send(42);
//! });
//! sim.spawn("consumer", move || {
//!     let v = rx.recv().unwrap();
//!     assert_eq!(v, 42);
//!     assert_eq!(simt::now(), 1_000);
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.now, 1_000);
//! ```

// `unsafe` lives in `coro` (the context switch and its stacks) and nowhere else.
#![deny(unsafe_code)]
// Crate-wide because clippy reports `thread_local!` at the crate root (it finds
// the macro through the attributes inside its expansion), where no narrower
// `expect` is consulted.
#![expect(
    clippy::disallowed_macros,
    reason = "D7: the four per-OS-thread cells (`coro::ACTIVE`, `engine::CURRENT`, `local::CURRENT`, \
              `mutex::HELD`) are what `with_local` and the lock rule are built from; each is \
              re-installed or reads zero at every switch"
)]

#[allow(unsafe_code, reason = "the context switch and its stacks; see the module's SAFETY notes")]
mod coro;
pub mod cpu;
pub(crate) mod diag;
pub mod engine;
mod local;
mod mutex;
mod profile;
pub mod queue;
pub mod rng;
pub mod sync;
pub mod time;
pub mod wait;

pub use coro::{stack_stats, StackStats};
pub use cpu::Cpu;
pub use engine::{Sim, SimError, SimRef, SimReport, SimStats, TaskId, TaskObserver};
pub use local::with_local;
pub use profile::{set_host_profile, take_host_profile};
pub use rng::{for_each_case, SeededRng};
pub use time::{Duration, Instant};

use engine::{with_current, with_thread, ENGINE};

/// Current virtual time in nanoseconds. Panics outside a simulation.
pub fn now() -> u64 {
    with_current(|inner, _| inner.now())
}

/// Advance virtual time for the calling green thread by `ns` nanoseconds.
///
/// Other runnable threads execute during the interval.
pub fn sleep(ns: u64) {
    with_thread(|inner, tid| inner.sleep(tid, ns));
}

/// Yield to other threads runnable at the current virtual instant.
pub fn yield_now() {
    sleep(0);
}

/// Spawn a new green thread from inside the simulation. It becomes runnable
/// at the current virtual time.
pub fn spawn(name: impl Into<String>, f: impl FnOnce() + Send + 'static) -> TaskId {
    with_current(|inner, _| inner.spawn_thread(name.into(), false, Box::new(f)))
}

/// Spawn a daemon green thread. Daemons (event loops, servers) may be blocked
/// when the simulation quiesces without being reported as stuck.
pub fn spawn_daemon(name: impl Into<String>, f: impl FnOnce() + Send + 'static) -> TaskId {
    with_current(|inner, _| inner.spawn_thread(name.into(), true, Box::new(f)))
}

/// Name of the calling green thread; empty in a continuation on the engine.
pub fn current_name() -> String {
    with_current(|inner, tid| if tid == ENGINE { String::new() } else { inner.thread_name(tid) })
}

/// Task id of the calling green thread (`TaskId(usize::MAX)` on the engine).
pub fn current_task() -> TaskId {
    with_current(|_, tid| tid)
}

/// True on a green thread, or in a continuation on the engine.
pub fn in_sim() -> bool {
    engine::current_handle().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_quiesces_at_zero() {
        let sim = Sim::new();
        let report = sim.run().unwrap();
        assert_eq!(report.now, 0);
        assert!(report.blocked.is_empty());
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        sim.spawn("a", || {
            assert_eq!(now(), 0);
            sleep(5);
            assert_eq!(now(), 5);
            sleep(10);
            assert_eq!(now(), 15);
        });
        assert_eq!(sim.run().unwrap().now, 15);
    }

    #[test]
    fn zero_sleep_yields() {
        let sim = Sim::new();
        sim.spawn("a", || {
            yield_now();
            assert_eq!(now(), 0);
        });
        assert_eq!(sim.run().unwrap().now, 0);
    }

    #[test]
    fn spawn_inside_sim_runs() {
        let sim = Sim::new();
        sim.spawn("outer", || {
            sleep(3);
            spawn("inner", || {
                assert_eq!(now(), 3);
                sleep(4);
            });
        });
        assert_eq!(sim.run().unwrap().now, 7);
    }

    #[test]
    fn current_name_matches_spawn_name() {
        let sim = Sim::new();
        sim.spawn("alpha", || {
            assert_eq!(current_name(), "alpha");
        });
        sim.run().unwrap();
    }

    #[test]
    fn in_sim_detects_context() {
        assert!(!in_sim());
        let sim = Sim::new();
        sim.spawn("a", || assert!(in_sim()));
        sim.run().unwrap();
    }
}
