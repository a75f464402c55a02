//! The mutex simulated code shares state through, counted so that the engine
//! can check the workspace's one lock rule: **no guard is alive when a green
//! thread parks.**
//!
//! All green threads of a simulation share one OS thread. A guard kept across
//! a park is therefore not contention but a hang: the next green thread that
//! wants the lock blocks the only OS thread there is, and no `SimReport` is
//! ever produced. The shape is easy to write — `for c in map.lock().values()
//! { c.close() }` keeps the temporary guard for the whole loop, and `close`
//! sends on the virtual clock.
//!
//! Every guard bumps a count local to the OS thread when it is taken and when
//! it is dropped, and the engine panics at the park when the count is not
//! zero. One count per OS thread is enough because it must read zero at
//! every switch: whatever runs next on this OS thread starts from zero, and so
//! does this green thread wherever it is resumed.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::PoisonError;

type Site = &'static Location<'static>;

thread_local! {
    /// Guards alive on this OS thread, and where the first of them was taken.
    static HELD: Cell<(usize, Option<Site>)> = const { Cell::new((0, None)) };
}

// None of the three is ever inlined, so that a green thread resumed by another
// OS thread than the one it parked on reaches that thread's cell (see
// `coro::active`).
#[inline(never)]
fn taken(at: Site) {
    HELD.with(|h| match h.get() {
        (0, _) => h.set((1, Some(at))),
        (n, first) => h.set((n + 1, first)),
    });
}

#[inline(never)]
fn dropped() {
    HELD.with(|h| {
        let (n, first) = h.get();
        h.set((n.saturating_sub(1), first));
    });
}

/// Where the first of the guards alive on this OS thread was taken; `None`
/// when no guard is alive.
#[inline(never)]
pub(crate) fn first_held() -> Option<Site> {
    HELD.with(|h| match h.get() {
        (0, _) => None,
        (_, first) => first,
    })
}

/// `std`'s mutex without poisoning and without the count: what the engine
/// itself locks with, on both sides of every context switch.
#[derive(Default, Debug)]
pub(crate) struct RawMutex<T>(StdMutex<T>);

#[expect(clippy::disallowed_types, reason = "D5: the one `std` lock, under the counted mutex")]
type StdMutex<T> = std::sync::Mutex<T>;

impl<T> RawMutex<T> {
    pub(crate) const fn new(value: T) -> RawMutex<T> {
        RawMutex(StdMutex::new(value))
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A mutual-exclusion lock without poisoning: a panic while the lock is held
/// leaves the data as it was, and the next [`lock`](Mutex::lock) succeeds.
#[derive(Default, Debug)]
pub struct Mutex<T>(RawMutex<T>);

/// Access to the data of a locked [`Mutex`]; unlocks when dropped, which must
/// happen before its holder blocks on the virtual clock.
pub struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(RawMutex::new(value))
    }

    /// Take the lock. Green threads never contend for it (one runs at a time,
    /// and none parks with a guard alive), so this returns at once.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.0.lock();
        taken(Location::caller());
        MutexGuard(guard)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        dropped();
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Queue;
    use crate::Sim;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// Run `body` as green thread `holder` and return the panic `run()` raises.
    fn park_panic(body: impl FnOnce() + Send + 'static) -> String {
        let sim = Sim::new();
        sim.spawn("holder", body);
        let payload =
            catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the park must panic");
        assert!(first_held().is_none(), "unwinding the holder dropped its guard");
        payload.downcast_ref::<String>().expect("a formatted panic message").clone()
    }

    #[test]
    fn guard_alive_across_sleep_panics_naming_thread_and_lock_site() {
        let m = Arc::new(Mutex::new(0u32));
        let line = line!() + 2;
        let msg = park_panic(move || {
            let _held = m.lock();
            crate::sleep(1);
        });
        let want =
            format!("`holder` parks with a lock guard alive (first taken at {}:{line})", file!());
        assert!(msg.contains(&want), "{msg}");
    }

    #[test]
    fn guard_alive_across_queue_recv_panics_even_as_a_for_loop_temporary() {
        let m = Arc::new(Mutex::new(vec![Queue::<u32>::new()]));
        let line = line!() + 2;
        let msg = park_panic(move || {
            for q in m.lock().iter() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the park panics before it returns"
                )]
                let _ = q.recv();
            }
        });
        assert!(msg.contains(&format!("{}:{line})", file!())), "{msg}");
    }

    #[test]
    fn guard_dropped_before_the_park_passes() {
        let sim = Sim::new();
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        sim.spawn("careful", move || {
            *m2.lock() += 1;
            crate::sleep(1);
            let mut g = m2.lock();
            *g += 1;
            drop(g);
            crate::yield_now();
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(*m.lock(), 2);
        assert!(first_held().is_none());
    }

    #[test]
    fn count_is_zero_again_after_a_parked_thread_is_shutdown_unwound() {
        struct LocksOnDrop(Arc<Mutex<u32>>);
        impl Drop for LocksOnDrop {
            fn drop(&mut self) {
                *self.0.lock() += 1;
            }
        }
        let sim = Sim::new();
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        sim.spawn_daemon("parked", move || {
            let _on_unwind = LocksOnDrop(m2);
            crate::engine::park(); // never woken
        });
        sim.run().unwrap();
        sim.shutdown();
        assert_eq!(*m.lock(), 1, "the destructor took and released the lock while unwinding");
        assert!(first_held().is_none());
    }
}
