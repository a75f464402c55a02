//! Stand-in for the `parking_lot` crate over `std::sync`: `Mutex` and
//! `Condvar` with the real crate's signatures (no lock poisoning, `wait`
//! takes the guard by `&mut`).

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[derive(Default, Debug)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// The `Option` is `None` only while `Condvar::wait` has handed the inner
/// guard to `std`.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    // parking_lot has no poisoning: a panic while the lock is held leaves the
    // data as it was, and the next `lock` succeeds.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard is held outside Condvar::wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard is held outside Condvar::wait")
    }
}

#[derive(Default, Debug)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard is held outside Condvar::wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }
}
