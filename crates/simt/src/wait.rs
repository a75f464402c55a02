//! The one way a green thread blocks until something changes.
//!
//! A [`WaitList`] holds the threads waiting for one resource; whoever changes
//! the resource calls [`WaitList::notify_all`] afterwards. A blocking call is
//! a check handed to [`WaitList::wait_until`], which runs this loop — the only
//! copy of it outside `sleep` and the CPU model:
//!
//! 1. run the check: a value ends the wait;
//! 2. past the deadline, the wait ends without one;
//! 3. put a token for this park on the list. No other green thread runs
//!    between the check and the registration, so a change cannot be missed;
//! 4. under a deadline, arm one wake of that token at it;
//! 5. park, and on resuming cancel that deadline if it has not fired.
//!    `notify_all` wakes every registered thread and each runs its check
//!    again; a token whose thread has moved on (it timed out, or was woken
//!    through another list) is stale and schedules nothing.
//!
//! The first park books the wait under the list's label, which is what
//! [`SimReport::blocked_on`](crate::SimReport::blocked_on) shows for a thread
//! that never came back; returning clears it.

use crate::diag::{self, DiagRes};
use crate::engine::{park, wait_token, WaitToken};
use crate::mutex::RawMutex;

/// The green threads waiting for one resource to change. It lives beside
/// that resource, in whatever its handles share.
pub struct WaitList {
    res: DiagRes,
    pub(crate) tokens: RawMutex<Vec<WaitToken>>,
}

impl WaitList {
    /// A list labelled `<kind>#<n>`, where `n` counts the resources of one
    /// simulation in the order they are first waited on.
    pub fn new(kind: &'static str) -> WaitList {
        WaitList { res: DiagRes::new(kind, None), tokens: RawMutex::new(Vec::new()) }
    }

    /// A list labelled `label`.
    pub fn named(label: impl Into<String>) -> WaitList {
        WaitList { res: DiagRes::new("", Some(label.into())), tokens: RawMutex::new(Vec::new()) }
    }

    pub(crate) fn res(&self) -> &DiagRes {
        &self.res
    }

    /// Wake every thread registered since the last call. The change they wait
    /// for must be visible before this runs.
    pub fn notify_all(&self) {
        let tokens = std::mem::take(&mut *self.tokens.lock());
        for token in tokens {
            token.wake();
        }
    }

    /// Block until `ready` returns a value (`Some`) or the absolute virtual
    /// time `deadline` passes (`None`; never without a deadline). `ready` must
    /// not block.
    pub fn wait_until<R>(
        &self,
        deadline: Option<u64>,
        mut ready: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        let mut booked = false;
        let out = loop {
            if let Some(value) = ready() {
                break Some(value);
            }
            if deadline.is_some_and(|d| crate::now() >= d) {
                break None;
            }
            let token = wait_token();
            let armed = deadline.map(|d| token.wake_by(d));
            self.tokens.lock().push(token);
            if !booked {
                diag::on_wait(&self.res);
                booked = true;
            }
            park();
            if let Some(armed) = armed {
                armed.cancel();
            }
        };
        if booked {
            diag::on_wait_end();
        }
        out
    }
}
