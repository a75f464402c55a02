//! Blocking FIFO queues between green threads (the simulation's mailboxes).
//!
//! A [`Queue`] is multi-producer / multi-consumer; sends never block. These
//! queues model *process-local* mailboxes — network latency and bandwidth are
//! charged by the `fabric` crate before an item is enqueued.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::Shared;
use crate::wait::WaitList;

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
    closed: bool,
}

/// A blocking FIFO queue between green threads; its waiters are blocked
/// receivers.
pub struct Queue<T>(Arc<Shared<QState<T>>>);

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue(self.0.clone())
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Queue<T> {
    fn with_waiters(waiters: WaitList) -> Self {
        Queue(Shared::new(QState { items: VecDeque::new(), closed: false }, waiters))
    }

    /// Create an empty open queue.
    pub fn new() -> Self {
        Self::with_waiters(WaitList::new("queue"))
    }

    /// Like [`new`](Queue::new), with a display name used by the deadlock
    /// diagnoser when a receiver is blocked on this queue.
    pub fn named(name: impl Into<String>) -> Self {
        Self::with_waiters(WaitList::named(name))
    }

    /// Enqueue an item and wake any blocked receivers. Items sent after
    /// [`close`](Queue::close) are silently dropped (mirrors delivering to a
    /// torn-down socket).
    pub fn send(&self, item: T) {
        {
            let mut s = self.0.state.lock();
            if s.closed {
                return;
            }
            s.items.push_back(item);
        }
        self.0.waiters.notify_all();
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.0.state.lock().items.pop_front()
    }

    /// Blocking receive; returns `Err(Closed)` once the queue is closed and
    /// drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None)
    }

    /// Blocking receive with an absolute virtual-time deadline.
    pub fn recv_deadline(&self, deadline: u64) -> Result<T, RecvError> {
        self.recv_until(Some(deadline))
    }

    fn recv_until(&self, deadline: Option<u64>) -> Result<T, RecvError> {
        let ready = || Self::pop(&self.0);
        self.0.waiters.wait_until(deadline, ready).unwrap_or(Err(RecvError::Timeout))
    }

    /// [`recv`](Queue::recv) without parking: `then` runs with the next item
    /// (at once if one is queued), or with `Closed` once the queue is closed
    /// and drained.
    pub fn recv_then(&self, then: impl FnOnce(Result<T, RecvError>) + Send + 'static)
    where
        T: Send + 'static,
    {
        let then =
            move |r: Option<_>| then(r.expect("a wait without a deadline ends with a value"));
        self.0.clone().wait_then(None, Self::pop, then);
    }

    /// [`recv_deadline`](Queue::recv_deadline) without parking.
    pub fn recv_deadline_then(
        &self,
        deadline: u64,
        then: impl FnOnce(Result<T, RecvError>) + Send + 'static,
    ) where
        T: Send + 'static,
    {
        let then = move |r: Option<_>| then(r.unwrap_or(Err(RecvError::Timeout)));
        self.0.clone().wait_then(Some(deadline), Self::pop, then);
    }

    /// The next item, or `Closed` once the queue is closed and drained.
    fn pop(shared: &Shared<QState<T>>) -> Option<Result<T, RecvError>> {
        let mut s = shared.state.lock();
        let item = s.items.pop_front();
        item.map(Ok).or(s.closed.then_some(Err(RecvError::Closed)))
    }

    /// Close the queue: pending items stay receivable, future sends drop, and
    /// blocked receivers observe `Closed` once drained.
    pub fn close(&self) {
        self.0.state.lock().closed = true;
        self.0.waiters.notify_all();
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.0.state.lock().items.len()
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
    use crate::sync::Mutex;
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
            let r = q.recv_deadline(1_000);
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
            let r = q2.recv_deadline(1_000);
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
            assert_eq!(q2.recv_deadline(10), Err(RecvError::Timeout));
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

    /// What a receiver saw, and when, for a thread (`cont == false`) or a
    /// chain of continuations receiving the same items under one deadline
    /// per receive, until the first receive that times out.
    fn receive(cont: bool) -> (Vec<(Result<u32, RecvError>, u64)>, crate::SimStats) {
        type Log = Arc<Mutex<Vec<(Result<u32, RecvError>, u64)>>>;
        fn next(q: Queue<u32>, log: Log) {
            q.clone().recv_deadline_then(crate::now() + 100, move |r| {
                let more = r.is_ok();
                log.lock().push((r, crate::now()));
                if more {
                    next(q, log);
                }
            });
        }
        let sim = Sim::new();
        let (q, log): (Queue<u32>, Log) = Default::default();
        let (q2, log2) = (q.clone(), log.clone());
        sim.spawn("rx", move || {
            if cont {
                return next(q2, log2);
            }
            loop {
                let r = q2.recv_deadline(crate::now() + 100);
                let more = r.is_ok();
                log2.lock().push((r, crate::now()));
                if !more {
                    break;
                }
            }
        });
        sim.spawn("tx", move || {
            crate::sleep(10);
            q.send(1);
            q.send(2);
            crate::sleep(50);
            q.send(3);
        });
        sim.run().unwrap().assert_clean();
        let log = log.lock().clone();
        (log, sim.stats())
    }

    #[test]
    fn a_continuation_receive_takes_the_events_of_a_parked_one() {
        let (thread, parked) = receive(false);
        let (chain, called) = receive(true);
        let want = [(Ok(1), 10), (Ok(2), 10), (Ok(3), 60), (Err(RecvError::Timeout), 160)];
        assert_eq!((thread, chain), (want.to_vec(), want.to_vec()));
        // Each wake of the receiving thread after its first is one call of
        // the chain at the same instant. The two deadlines a message beat were
        // cancelled unpopped, so neither side pops a stale one.
        assert_eq!(parked.events_popped, called.events_popped);
        assert_eq!(parked.heap_high_water, called.heap_high_water);
        assert_eq!(parked.wakes + parked.stale_wakes, called.wakes + called.stale_wakes + 3);
        assert_eq!((parked.stale_wakes, called.stale_wakes), (0, 0));
        assert_eq!((parked.deadlines_cancelled, called.deadlines_cancelled), (2, 2));
    }

    #[test]
    fn recv_then_takes_what_is_queued_at_once_and_waits_for_the_rest() {
        let sim = Sim::new();
        let q = Queue::<u32>::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (q2, log2) = (q.clone(), log.clone());
        sim.spawn("rx", move || {
            q2.send(1);
            for _ in 0..3 {
                let log = log2.clone();
                q2.recv_then(move |r| log.lock().push((r, crate::now())));
            }
        });
        sim.spawn("tx", move || {
            crate::sleep(10);
            q.send(2);
            crate::sleep(10);
            q.close();
        });
        sim.run().unwrap().assert_clean();
        // All three wait on one list: the send wakes both waiters, the first
        // takes the item and the second goes back to wait for the close.
        let want = [(Ok(1), 0), (Ok(2), 10), (Err(RecvError::Closed), 20)];
        assert_eq!(*log.lock(), want);
    }

    #[test]
    fn shutdown_drops_a_continuation_parked_on_the_queue_it_holds() {
        // The receive holds its own queue, so the queue's wait list holds the
        // receive: a cycle through the engine that only shutdown breaks.
        let sim = Sim::new();
        let held = Arc::new(());
        let watch = Arc::downgrade(&held);
        sim.spawn("rx", move || {
            let q = Queue::<u32>::new();
            q.clone().recv_then(move |_| drop((q, held)));
        });
        sim.run().unwrap().assert_clean();
        assert!(watch.upgrade().is_some(), "parked until shutdown");
        let engine = sim.downgrade();
        drop(sim);
        assert!(watch.upgrade().is_none(), "shutdown dropped the continuation");
        assert!(!engine.is_alive(), "nothing holds the engine");
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
