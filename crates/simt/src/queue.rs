//! Blocking FIFO queues between green threads (the simulation's mailboxes).
//!
//! A [`Queue`] is multi-producer / multi-consumer; sends never block. These
//! queues model *process-local* mailboxes — network latency and bandwidth are
//! charged by the `fabric` crate before an item is enqueued.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::diag::{self, DiagRes};
use crate::engine::{park, wait_token, WaitToken};
use crate::sync::Mutex;

/// Error returned by receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The queue was closed and drained.
    Closed,
    /// The deadline passed before an item arrived.
    Timeout,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("queue closed"),
            RecvError::Timeout => f.write_str("receive timed out"),
        }
    }
}
impl std::error::Error for RecvError {}

struct QState<T> {
    items: VecDeque<T>,
    waiters: Vec<WaitToken>,
    closed: bool,
}

/// A blocking FIFO queue between green threads.
pub struct Queue<T> {
    state: Arc<Mutex<QState<T>>>,
    res: Arc<DiagRes>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue { state: self.state.clone(), res: self.res.clone() }
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Queue<T> {
    /// Create an empty open queue.
    pub fn new() -> Self {
        Queue {
            state: Arc::new(Mutex::new(QState {
                items: VecDeque::new(),
                waiters: Vec::new(),
                closed: false,
            })),
            res: Arc::new(DiagRes::new("queue", None)),
        }
    }

    /// Like [`new`](Queue::new), with a display name used by the deadlock
    /// diagnoser when a receiver is blocked on this queue.
    pub fn named(name: impl Into<String>) -> Self {
        Queue {
            state: Arc::new(Mutex::new(QState {
                items: VecDeque::new(),
                waiters: Vec::new(),
                closed: false,
            })),
            res: Arc::new(DiagRes::new("queue", Some(name.into()))),
        }
    }

    /// Enqueue an item and wake any blocked receivers. Items sent after
    /// [`close`](Queue::close) are silently dropped (mirrors delivering to a
    /// torn-down socket).
    pub fn send(&self, item: T) {
        let waiters = {
            let mut s = self.state.lock();
            if s.closed {
                return;
            }
            s.items.push_back(item);
            std::mem::take(&mut s.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.state.lock().items.pop_front()
    }

    /// Blocking receive; returns `Err(Closed)` once the queue is closed and
    /// drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut waited = false;
        let finish = |waited: bool, r: Result<T, RecvError>| {
            if waited {
                diag::on_wait_end();
            }
            r
        };
        loop {
            {
                let mut s = self.state.lock();
                if let Some(item) = s.items.pop_front() {
                    drop(s);
                    return finish(waited, Ok(item));
                }
                if s.closed {
                    drop(s);
                    return finish(waited, Err(RecvError::Closed));
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

    /// Blocking receive with an absolute virtual-time deadline.
    pub fn recv_deadline(&self, deadline: u64) -> Result<T, RecvError> {
        let mut waited = false;
        let finish = |waited: bool, r: Result<T, RecvError>| {
            if waited {
                diag::on_wait_end();
            }
            r
        };
        loop {
            let tok = {
                let mut s = self.state.lock();
                if let Some(item) = s.items.pop_front() {
                    drop(s);
                    return finish(waited, Ok(item));
                }
                if s.closed {
                    drop(s);
                    return finish(waited, Err(RecvError::Closed));
                }
                if crate::now() >= deadline {
                    drop(s);
                    return finish(waited, Err(RecvError::Timeout));
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

    /// Blocking receive with a relative timeout in nanoseconds.
    pub fn recv_timeout(&self, timeout: u64) -> Result<T, RecvError> {
        self.recv_deadline(crate::now().saturating_add(timeout))
    }

    /// Close the queue: pending items stay receivable, future sends drop, and
    /// blocked receivers observe `Closed` once drained.
    pub fn close(&self) {
        let waiters = {
            let mut s = self.state.lock();
            s.closed = true;
            std::mem::take(&mut s.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// True if closed (items may still be pending).
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Create a connected pair of handles to one queue; a directional convenience
/// mirroring `std::sync::mpsc::channel`.
pub fn channel<T>() -> (Queue<T>, Queue<T>) {
    let q = Queue::new();
    (q.clone(), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn send_then_recv_same_thread() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let q = Queue::new();
            q.send(7u32);
            assert_eq!(q.recv().unwrap(), 7);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Sim::new();
        let q = Queue::<u32>::new();
        let q2 = q.clone();
        sim.spawn("rx", move || {
            assert_eq!(q2.recv().unwrap(), 9);
            assert_eq!(crate::now(), 50);
        });
        sim.spawn("tx", move || {
            crate::sleep(50);
            q.send(9);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn fifo_order_preserved() {
        let sim = Sim::new();
        let q = Queue::new();
        let q2 = q.clone();
        sim.spawn("tx", move || {
            for i in 0..100u32 {
                q.send(i);
            }
        });
        sim.spawn("rx", move || {
            crate::sleep(1);
            for i in 0..100u32 {
                assert_eq!(q2.recv().unwrap(), i);
            }
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn timeout_fires_without_sender() {
        let sim = Sim::new();
        sim.spawn("rx", || {
            let q = Queue::<u32>::new();
            let r = q.recv_timeout(1_000);
            assert_eq!(r, Err(RecvError::Timeout));
            assert_eq!(crate::now(), 1_000);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn timeout_beaten_by_send() {
        let sim = Sim::new();
        let q = Queue::<u32>::new();
        let q2 = q.clone();
        sim.spawn("rx", move || {
            let r = q2.recv_timeout(1_000);
            assert_eq!(r, Ok(4));
            assert_eq!(crate::now(), 100);
        });
        sim.spawn("tx", move || {
            crate::sleep(100);
            q.send(4);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn recv_after_timeout_still_works() {
        // Regression guard for the stale-waiter hazard: a timed-out waiter
        // leaves a stale registration; all waiters are woken on send so a
        // fresh registration cannot be starved.
        let sim = Sim::new();
        let q = Queue::<u32>::new();
        let q2 = q.clone();
        sim.spawn("rx", move || {
            assert_eq!(q2.recv_timeout(10), Err(RecvError::Timeout));
            assert_eq!(q2.recv().unwrap(), 5);
        });
        sim.spawn("tx", move || {
            crate::sleep(500);
            q.send(5);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn close_unblocks_receivers() {
        let sim = Sim::new();
        let q = Queue::<u32>::new();
        let q2 = q.clone();
        sim.spawn("rx", move || {
            assert_eq!(q2.recv(), Err(RecvError::Closed));
        });
        sim.spawn("closer", move || {
            crate::sleep(10);
            q.close();
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn close_drains_pending_items_first() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let q = Queue::new();
            q.send(1u32);
            q.send(2);
            q.close();
            assert_eq!(q.recv().unwrap(), 1);
            assert_eq!(q.recv().unwrap(), 2);
            assert_eq!(q.recv(), Err(RecvError::Closed));
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn send_after_close_is_dropped() {
        let sim = Sim::new();
        sim.spawn("a", || {
            let q = Queue::new();
            q.close();
            q.send(1u32);
            assert_eq!(q.recv(), Err(RecvError::Closed));
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn multiple_receivers_each_get_one() {
        let sim = Sim::new();
        let q = Queue::<u32>::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let q = q.clone();
            let got = got.clone();
            sim.spawn(format!("rx{i}"), move || {
                let v = q.recv().unwrap();
                got.lock().push(v);
            });
        }
        sim.spawn("tx", move || {
            crate::sleep(5);
            for v in [10, 20, 30] {
                q.send(v);
            }
        });
        sim.run().unwrap().assert_clean();
        let mut g = got.lock().clone();
        g.sort_unstable();
        assert_eq!(g, vec![10, 20, 30]);
    }
}
