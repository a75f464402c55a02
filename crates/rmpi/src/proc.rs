//! Per-process receive machinery: the posted-receive slots, the
//! unexpected-message queue and the progress pump.
//!
//! Every MPI process owns one fabric mailbox port. A *pump*, a chain of
//! engine continuations (the analog of an MPI progress engine), drains the
//! port into a [`MsgStore`], where receives match on `(communicator, source,
//! tag)` in the order they were posted — a blocking receive is a posted one
//! waited for on the spot. Messages that arrive before a matching receive
//! wait in the store, exactly like MPI's unexpected message queue.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use fabric::{Net, NodeId, Payload, PortAddr};
use simt::engine::Deadline;
use simt::sync::Mutex;
use simt::wait::WaitList;

use crate::types::{CommId, MpiError, ProcId};

/// An in-flight or stored MPI message.
#[derive(Debug, Clone)]
pub struct MpiMsg {
    /// Communicator the message was sent on.
    pub comm: CommId,
    /// Sender's rank as visible to the receiver (remote-group rank for
    /// intercommunicators).
    pub src_rank: u32,
    /// Message tag.
    pub tag: u64,
    /// User payload.
    pub payload: Payload,
}

/// Handle to a posted receive slot in a [`MsgStore`].
///
/// Ids are allocated in post order; matching among simultaneously-eligible
/// posted receives always prefers the lowest id, so completion is a pure
/// function of arrival order + post order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReqId(u64);

/// What a continuation receive runs on the engine when it ends.
pub(crate) type RecvThen = Box<dyn FnOnce(Result<MpiMsg, MpiError>) + Send>;

struct PostedRecv {
    matcher: Matcher,
    /// `None` while pending. Once matched, the message is *pinned* here —
    /// invisible to every other receive.
    ready: Option<MpiMsg>,
    /// A continuation's receive: the message that matches it is handed to
    /// this on the engine instead, and the slot goes with it.
    then: Option<RecvThen>,
    /// The continuation's deadline, cancelled when the slot goes another way.
    deadline: Option<Deadline>,
}

#[derive(Default)]
struct StoreState {
    /// Messages that arrived before a matching receive was posted.
    msgs: Vec<MpiMsg>,
    closed: bool,
    /// Posted receives, keyed by id (== post order).
    posted: BTreeMap<u64, PostedRecv>,
    /// One-shot absorbers installed by cancelled receives: the next `count`
    /// messages a cancelled matcher would have consumed are dropped on
    /// arrival instead of accumulating as unexpected messages.
    drains: BTreeMap<Matcher, u64>,
    next_req: u64,
}

/// The unexpected-message queue plus the posted-receive slots that every
/// receive, blocking or not, goes through.
#[derive(Clone)]
pub struct MsgStore(Arc<StoreShared>);

struct StoreShared {
    state: Mutex<StoreState>,
    /// Notified by each stored or matched message and by the close.
    waiters: WaitList,
}

impl Default for MsgStore {
    fn default() -> Self {
        Self::with_waiters(WaitList::new("mpi-store"))
    }
}

/// A match predicate: communicator, optional source rank, optional tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Matcher {
    /// Communicator to match.
    pub comm: CommId,
    /// `None` = `MPI_ANY_SOURCE`.
    pub src: Option<u32>,
    /// `None` = `MPI_ANY_TAG`.
    pub tag: Option<u64>,
}

impl Matcher {
    fn matches(&self, m: &MpiMsg) -> bool {
        self.comm == m.comm
            && self.src.is_none_or(|s| s == m.src_rank)
            && self.tag.is_none_or(|t| t == m.tag)
    }
}

impl MsgStore {
    fn with_waiters(waiters: WaitList) -> MsgStore {
        MsgStore(Arc::new(StoreShared { state: Mutex::default(), waiters }))
    }

    /// The store of process `name`: a thread stuck in a receive there is
    /// reported as blocked on `mpi-store:<name>`.
    pub fn named(name: &str) -> MsgStore {
        Self::with_waiters(WaitList::named(format!("mpi-store:{name}")))
    }

    /// Push a delivered message and wake blocked receivers.
    ///
    /// Matching priority: posted receives in post order (lowest [`ReqId`]
    /// first), then cancel drains, then the unexpected-message queue.
    /// Posted-before-drain matters under retries: the Optimized transport's
    /// tags are content-addressed, so an original body and its resend are
    /// interchangeable — whichever arrives first completes the live posted
    /// receive, and the drain left by the timed-out attempt absorbs the
    /// duplicate. A continuation receive is not woken but scheduled: its
    /// slot and its deadline go, and its continuation runs on the engine at
    /// this instant.
    pub fn push(&self, msg: MpiMsg) {
        {
            let s = &mut *self.0.state.lock();
            if s.closed {
                return;
            }
            if let Some((&id, p)) =
                s.posted.iter_mut().find(|(_, p)| p.ready.is_none() && p.matcher.matches(&msg))
            {
                if p.then.is_none() {
                    p.ready = Some(msg);
                } else {
                    let p = s.posted.remove(&id).expect("a posted receive");
                    if let Some(deadline) = p.deadline {
                        deadline.cancel();
                    }
                    let then = p.then.expect("a continuation");
                    simt::engine::call_at(simt::now(), move || then(Ok(msg)));
                    return;
                }
            } else if let Some(dm) = s.drains.keys().find(|matcher| matcher.matches(&msg)).copied()
            {
                let count = s.drains.get_mut(&dm).expect("drain exists");
                *count -= 1;
                if *count == 0 {
                    s.drains.remove(&dm);
                }
                return; // absorbed: a cancelled receive already paid for it
            } else {
                s.msgs.push(msg);
            }
        }
        self.0.waiters.notify_all();
    }

    /// Post a receive. If a stored message already matches, it is pinned to
    /// the slot immediately (FIFO among matching messages).
    pub fn post_recv(&self, m: Matcher) -> ReqId {
        let s = &mut *self.0.state.lock();
        let id = s.next_req;
        s.next_req += 1;
        let ready = s.msgs.iter().position(|x| m.matches(x)).map(|pos| s.msgs.remove(pos));
        s.posted.insert(id, PostedRecv { matcher: m, ready, then: None, deadline: None });
        ReqId(id)
    }

    /// Block until the posted receive completes, the store closes
    /// (`Finalized`) or the absolute `deadline` passes (`Timeout`). The first
    /// two consume the slot; on timeout it stays posted — the caller decides
    /// whether to cancel (and drain) or keep waiting.
    pub fn req_wait(&self, id: ReqId, deadline: Option<u64>) -> Result<MpiMsg, MpiError> {
        let ready = || {
            let mut s = self.0.state.lock();
            let p = s.posted.get(&id.0).unwrap_or_else(|| panic!("request {id:?} waited twice"));
            if p.ready.is_none() && !s.closed {
                return None;
            }
            let slot = s.posted.remove(&id.0).expect("slot exists");
            Some(slot.ready.ok_or(MpiError::Finalized))
        };
        self.0.waiters.wait_until(deadline, ready).unwrap_or(Err(MpiError::Timeout))
    }

    /// [`req_wait`](MsgStore::req_wait) without parking: `then` runs on the
    /// engine with the message pinned to the slot — at once if one already
    /// is — or with `Timeout` at the `deadline`, if any, the slot then
    /// cancelled with a drain. The slot is consumed either way; a closed
    /// store drops `then`. The deadline is a [`Deadline`]: a message that
    /// lands first cancels it, so the engine never pops it.
    pub(crate) fn req_wait_then(&self, id: ReqId, deadline: Option<u64>, then: RecvThen) {
        let ready = {
            let s = &mut *self.0.state.lock();
            let p =
                s.posted.get_mut(&id.0).unwrap_or_else(|| panic!("request {id:?} waited twice"));
            if p.ready.is_none() && !s.closed {
                p.then = Some(then);
                p.deadline = deadline.map(|deadline| {
                    let store = Arc::downgrade(&self.0);
                    simt::engine::deadline_at(deadline, move || Self::expire(&store, id))
                });
                return;
            }
            s.posted.remove(&id.0).and_then(|p| p.ready)
        };
        if let Some(msg) = ready {
            simt::engine::call_at(simt::now(), move || then(Ok(msg)));
        }
    }

    /// The deadline of a continuation receive: if its slot is still posted,
    /// cancel it with a drain and tell the continuation.
    fn expire(store: &Weak<StoreShared>, id: ReqId) {
        let Some(store) = store.upgrade() else { return };
        let then = {
            let mut s = store.state.lock();
            let Some(p) = s.posted.remove(&id.0) else { return };
            *s.drains.entry(p.matcher).or_insert(0) += 1;
            p.then
        };
        if let Some(then) = then {
            then(Err(MpiError::Timeout));
        }
    }

    /// Remove a posted receive. A pinned (already matched) message is
    /// dropped with the slot. With `drain` set, a still-pending slot leaves
    /// a one-shot absorber behind so the message it was waiting for is
    /// dropped on arrival instead of sitting in the unexpected queue forever
    /// — the cancelled receive's match is consumed either way.
    pub fn cancel_recv(&self, id: ReqId, drain: bool) {
        let mut s = self.0.state.lock();
        let Some(p) = s.posted.remove(&id.0) else {
            return;
        };
        if drain && p.ready.is_none() {
            *s.drains.entry(p.matcher).or_insert(0) += 1;
        }
    }

    /// Number of posted (uncompleted or unconsumed) receive slots.
    pub fn posted_len(&self) -> usize {
        self.0.state.lock().posted.len()
    }

    /// Total count of outstanding cancel drains.
    pub fn drain_len(&self) -> usize {
        self.0.state.lock().drains.values().map(|c| *c as usize).sum()
    }

    /// Blocking matched receive: a posted receive, waited for on the spot.
    pub fn recv(&self, m: Matcher) -> Result<MpiMsg, MpiError> {
        self.req_wait(self.post_recv(m), None)
    }

    /// Stop accepting messages and wake everyone (they observe `Finalized`).
    /// Pending continuation receives are dropped unrun, with their deadlines.
    pub fn close(&self) {
        let dropped: Vec<_> = {
            let mut s = self.0.state.lock();
            s.closed = true;
            s.posted.extract_if(.., |_, p| p.then.is_some()).collect()
        };
        dropped.iter().filter_map(|(_, p)| p.deadline).for_each(Deadline::cancel);
        drop(dropped); // outside the lock: what a continuation captured is dropped with it
        self.0.waiters.notify_all();
    }

    /// Number of stored (unreceived) messages.
    pub fn len(&self) -> usize {
        self.0.state.lock().msgs.len()
    }

    /// True when no messages are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Registry entry for one MPI process.
pub struct ProcState {
    /// Identifier.
    pub id: ProcId,
    /// Node the process runs on.
    pub node: NodeId,
    /// Mailbox address other processes send to.
    pub mailbox: PortAddr,
    /// The matching store.
    pub store: MsgStore,
    /// Per-communicator collective sequence numbers (tags for collective
    /// rounds; one collective at a time per communicator, as MPI requires).
    pub coll_seq: Mutex<BTreeMap<CommId, u64>>,
}

/// Start the progress pump for a process: a chain of engine continuations
/// that serves its mailbox port ([`fabric::net::PortRx::serve`]), charging
/// receive-side CPU (the MPI progress engine's cost) as each packet arrives
/// and pushing it into the store. No thread runs it; the chain owns the port,
/// so it serves until the simulation shuts down.
pub fn start_pump(rx: fabric::net::PortRx, store: MsgStore) {
    rx.serve(move |pkt, next| {
        if let Some(msg) = pkt.payload.value_as::<MpiMsg>() {
            store.push((*msg).clone());
        }
        next.take();
    });
}

/// The `Net` + process/communicator registries shared by all handles of one
/// MPI universe. (Exposed for sibling modules; users interact through
/// [`crate::Universe`] and [`crate::Comm`].)
pub struct UniverseState {
    /// The fabric.
    pub net: Net,
    /// Software stack for all MPI traffic.
    pub stack: fabric::StackModel,
    /// Registered processes.
    pub procs: Mutex<BTreeMap<ProcId, Arc<ProcState>>>,
    /// Registered communicators.
    pub comms: Mutex<BTreeMap<CommId, Arc<CommInfo>>>,
    /// `proc -> parent intercommunicator` (set by DPM spawn).
    pub parents: Mutex<BTreeMap<ProcId, CommId>>,
    /// Next ids.
    pub next_proc: std::sync::atomic::AtomicU64,
    /// Next communicator id.
    pub next_comm: std::sync::atomic::AtomicU64,
}

/// Group structure of a communicator.
pub enum CommGroups {
    /// Intracommunicator: one group; index = rank.
    Intra(Vec<ProcId>),
    /// Intercommunicator: two groups; ranks address the remote group.
    Inter {
        /// Group A (e.g. the DPM parents).
        a: Vec<ProcId>,
        /// Group B (e.g. the DPM children).
        b: Vec<ProcId>,
    },
}

/// A communicator's registry entry.
pub struct CommInfo {
    /// Identifier.
    pub id: CommId,
    /// Membership.
    pub groups: CommGroups,
}

impl CommInfo {
    /// Rank of `p` within the group it belongs to, if a member.
    pub fn local_rank(&self, p: ProcId) -> Option<u32> {
        match &self.groups {
            CommGroups::Intra(g) => g.iter().position(|x| *x == p).map(|i| i as u32),
            CommGroups::Inter { a, b } => a
                .iter()
                .position(|x| *x == p)
                .or_else(|| b.iter().position(|x| *x == p))
                .map(|i| i as u32),
        }
    }

    /// The process a send to rank `r` targets, from `sender`'s perspective.
    pub fn resolve_dest(&self, sender: ProcId, r: u32) -> Result<ProcId, MpiError> {
        match &self.groups {
            CommGroups::Intra(g) => g.get(r as usize).copied().ok_or(MpiError::InvalidRank(r)),
            CommGroups::Inter { a, b } => {
                // Sends address the remote group.
                if a.contains(&sender) {
                    b.get(r as usize).copied().ok_or(MpiError::InvalidRank(r))
                } else if b.contains(&sender) {
                    a.get(r as usize).copied().ok_or(MpiError::InvalidRank(r))
                } else {
                    Err(MpiError::NotAMember)
                }
            }
        }
    }

    /// Size of the group containing `p` (local size).
    pub fn local_size(&self, p: ProcId) -> usize {
        match &self.groups {
            CommGroups::Intra(g) => g.len(),
            CommGroups::Inter { a, b } => {
                if a.contains(&p) {
                    a.len()
                } else {
                    b.len()
                }
            }
        }
    }

    /// Size of the remote group (intercomm) or the group itself (intracomm).
    pub fn remote_size(&self, p: ProcId) -> usize {
        match &self.groups {
            CommGroups::Intra(g) => g.len(),
            CommGroups::Inter { a, b } => {
                if a.contains(&p) {
                    b.len()
                } else {
                    a.len()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(comm: u64, src: u32, tag: u64) -> MpiMsg {
        MpiMsg {
            comm: CommId(comm),
            src_rank: src,
            tag,
            payload: Payload::bytes(Bytes::from_static(b"d")),
        }
    }

    #[test]
    fn store_matches_exact_and_wildcards() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let store = MsgStore::default();
            store.push(msg(1, 0, 10));
            store.push(msg(1, 1, 11));
            store.push(msg(2, 0, 10));
            // Exact match takes the matching one, not FIFO head.
            let got = store.recv(Matcher { comm: CommId(1), src: Some(1), tag: Some(11) }).unwrap();
            assert_eq!(got.src_rank, 1);
            // Wildcard source.
            let got = store.recv(Matcher { comm: CommId(1), src: None, tag: Some(10) }).unwrap();
            assert_eq!((got.src_rank, got.tag), (0, 10));
            // Wildcard both — only comm 2 left.
            let got = store.recv(Matcher { comm: CommId(2), src: None, tag: None }).unwrap();
            assert_eq!(got.comm, CommId(2));
            assert!(store.is_empty());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn recv_blocks_until_push() {
        let sim = simt::Sim::new();
        let store = MsgStore::default();
        let s2 = store.clone();
        sim.spawn("rx", move || {
            let got = s2.recv(Matcher { comm: CommId(1), src: Some(0), tag: Some(5) }).unwrap();
            assert_eq!(got.tag, 5);
            assert_eq!(simt::now(), 100);
        });
        sim.spawn("tx", move || {
            simt::sleep(100);
            store.push(msg(1, 0, 5));
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn req_wait_deadline_expires_and_leaves_the_slot_posted() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let store = MsgStore::default();
            let id = store.post_recv(Matcher { comm: CommId(1), src: None, tag: None });
            assert_eq!(store.req_wait(id, Some(1_000)).err(), Some(MpiError::Timeout));
            assert_eq!((simt::now(), store.posted_len()), (1_000, 1));
            store.push(msg(1, 0, 3));
            assert_eq!(store.req_wait(id, Some(2_000)).unwrap().tag, 3);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn close_wakes_receivers_with_finalized() {
        let sim = simt::Sim::new();
        let store = MsgStore::default();
        let s2 = store.clone();
        sim.spawn("rx", move || {
            let r = s2.recv(Matcher { comm: CommId(1), src: None, tag: None });
            assert_eq!(r.err(), Some(MpiError::Finalized));
        });
        sim.spawn("closer", move || {
            simt::sleep(10);
            store.close();
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn posted_recv_pins_stored_message() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let store = MsgStore::default();
            store.push(msg(1, 0, 10));
            // Posting pins the stored message: no other receive can see it.
            let id = store.post_recv(Matcher { comm: CommId(1), src: None, tag: Some(10) });
            assert!(store.is_empty());
            let rival = store.post_recv(Matcher { comm: CommId(1), src: Some(0), tag: Some(10) });
            assert_eq!(store.req_wait(rival, Some(500)).err(), Some(MpiError::Timeout));
            store.cancel_recv(rival, false);
            let got = store.req_wait(id, None).unwrap();
            assert_eq!((got.src_rank, got.tag), (0, 10));
            assert_eq!(store.posted_len(), 0);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn posted_recvs_match_in_post_order() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let store = MsgStore::default();
            let a = store.post_recv(Matcher { comm: CommId(1), src: None, tag: None });
            let b = store.post_recv(Matcher { comm: CommId(1), src: None, tag: None });
            store.push(msg(1, 7, 1));
            let first = store.req_wait(b, Some(simt::now() + 1));
            assert_eq!(first.err(), Some(MpiError::Timeout), "the first message went to `a`");
            store.push(msg(1, 8, 2));
            assert_eq!(store.req_wait(b, None).unwrap().src_rank, 8);
            assert_eq!(store.req_wait(a, None).unwrap().src_rank, 7);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn cancel_drain_absorbs_the_late_message() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let store = MsgStore::default();
            let id = store.post_recv(Matcher { comm: CommId(1), src: Some(0), tag: Some(9) });
            store.cancel_recv(id, true);
            assert_eq!((store.posted_len(), store.drain_len()), (0, 1));
            store.push(msg(1, 0, 9));
            // Absorbed, not stored; drain consumed.
            assert!(store.is_empty());
            assert_eq!(store.drain_len(), 0);
            // A second copy has no drain left and is stored normally.
            store.push(msg(1, 0, 9));
            assert_eq!(store.len(), 1);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn drains_do_not_eat_live_posted_recvs() {
        let sim = simt::Sim::new();
        sim.spawn("t", || {
            let store = MsgStore::default();
            let m = Matcher { comm: CommId(1), src: Some(0), tag: Some(9) };
            let stale = store.post_recv(m);
            store.cancel_recv(stale, true);
            // A retry posts the same content-addressed matcher.
            let retry = store.post_recv(m);
            // First body to land completes the live receive, not the drain.
            store.push(msg(1, 0, 9));
            assert_eq!((store.len(), store.drain_len()), (0, 1));
            // The duplicate is absorbed by the drain.
            store.push(msg(1, 0, 9));
            assert!(store.is_empty());
            assert_eq!(store.drain_len(), 0);
            assert!(store.req_wait(retry, None).is_ok());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn continuation_receives_run_on_the_engine_in_arrival_order() {
        type Log = Vec<(&'static str, Result<u64, MpiError>, u64)>;
        let sim = simt::Sim::new();
        let store = MsgStore::default();
        let log: Arc<Mutex<Log>> = Arc::default();
        let kept = Arc::new(());
        let (s2, log2, kept2) = (store.clone(), log.clone(), kept.clone());
        sim.spawn("poster", move || {
            let on = |label: &'static str| -> RecvThen {
                let (log, kept) = (log2.clone(), kept2.clone());
                Box::new(move |r: Result<MpiMsg, MpiError>| {
                    assert_eq!(simt::current_task(), simt::TaskId(usize::MAX), "{label}");
                    log.lock().push((label, r.map(|m| m.tag), simt::now()));
                    drop(kept);
                })
            };
            let post = |tag, deadline, label| {
                let id = s2.post_recv(Matcher { comm: CommId(1), src: None, tag: Some(tag) });
                s2.req_wait_then(id, Some(deadline), on(label));
            };
            post(1, 50_000, "a");
            post(2, 50_000, "b");
            s2.push(msg(1, 0, 3));
            post(3, 50_000, "stored");
            assert!(log2.lock().is_empty(), "a continuation never runs inline");
            post(4, 1_000, "lost");
            post(5, 100_000, "closed");
        });
        sim.spawn("sender", move || {
            simt::sleep(5_000);
            assert_eq!((store.posted_len(), store.drain_len()), (3, 1));
            simt::sleep(5_000);
            store.push(msg(1, 0, 2));
            simt::sleep(10_000);
            store.push(msg(1, 0, 1));
            store.push(msg(1, 0, 4));
            assert_eq!((store.len(), store.drain_len()), (0, 0), "the drain took the late body");
            simt::sleep(40_000);
            store.close();
            assert_eq!(store.posted_len(), 0);
        });
        let report = sim.run().unwrap();
        report.assert_clean();
        // The close took the closed one's deadline (100 µs) with it.
        assert_eq!(report.now, 60_000);
        // Arrival order, not post order; the stored message at once; the
        // lost one at its deadline; the closed one never, its closure gone.
        let want = vec![
            ("stored", Ok(3), 0),
            ("lost", Err(MpiError::Timeout), 1_000),
            ("b", Ok(2), 10_000),
            ("a", Ok(1), 20_000),
        ];
        assert_eq!(*log.lock(), want);
        assert_eq!(Arc::strong_count(&kept), 1);
    }

    /// A continuation receive under a 50 µs deadline, its message pushed at
    /// `land_at`: what it got and when, the run's end, the store's
    /// `(posted, drains, stored)` after the run, and the cancelled deadlines.
    fn timed_receive(
        land_at: u64,
    ) -> ((Result<u64, MpiError>, u64), u64, (usize, usize, usize), u64) {
        let sim = simt::Sim::new();
        let store = MsgStore::default();
        let got = Arc::new(Mutex::new(None));
        let (s2, g2) = (store.clone(), got.clone());
        sim.spawn("poster", move || {
            let id = s2.post_recv(Matcher { comm: CommId(1), src: None, tag: Some(9) });
            let then: RecvThen = Box::new(move |r: Result<MpiMsg, MpiError>| {
                *g2.lock() = Some((r.map(|m| m.tag), simt::now()));
            });
            s2.req_wait_then(id, Some(50_000), then);
        });
        let s3 = store.clone();
        sim.spawn("sender", move || {
            simt::sleep(land_at);
            s3.push(msg(1, 0, 9));
        });
        let end = sim.run().unwrap().now;
        let got = got.lock().clone().expect("the receive ended");
        (
            got,
            end,
            (store.posted_len(), store.drain_len(), store.len()),
            sim.stats().deadlines_cancelled,
        )
    }

    #[test]
    fn a_continuation_receive_cancels_its_deadline_when_the_message_lands_first() {
        // The run ends when the message lands, not at the deadline.
        assert_eq!(timed_receive(1_000), ((Ok(9), 1_000), 1_000, (0, 0, 0), 1));
        // The deadline first: `Timeout` at it, and the late body is drained.
        let late = timed_receive(80_000);
        assert_eq!(late, ((Err(MpiError::Timeout), 50_000), 80_000, (0, 0, 0), 0));
    }

    #[test]
    fn a_deadline_free_continuation_takes_a_stored_message_at_once_and_a_close_drops_it_unrun() {
        let sim = simt::Sim::new();
        let store = MsgStore::default();
        let log: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
        let kept = Arc::new(());
        let (s2, log2, kept2) = (store.clone(), log.clone(), kept.clone());
        sim.spawn("poster", move || {
            let post = |tag| {
                let (log, kept) = (log2.clone(), kept2.clone());
                let id = s2.post_recv(Matcher { comm: CommId(1), src: None, tag: Some(tag) });
                let then: RecvThen = Box::new(move |r: Result<MpiMsg, MpiError>| {
                    log.lock().push((r.expect("a message").tag, simt::now()));
                    drop(kept);
                });
                s2.req_wait_then(id, None, then);
            };
            s2.push(msg(1, 0, 1));
            post(1);
            assert!(log2.lock().is_empty(), "handed over from a new engine event");
            post(2);
            post(3);
            simt::sleep(1_000);
            assert_eq!(*log2.lock(), [(1, 0)], "at the instant it was posted");
            s2.push(msg(1, 0, 2));
            simt::sleep(1_000);
            s2.close();
            assert_eq!(s2.posted_len(), 0);
        });
        sim.run().unwrap().assert_clean();
        // No deadline ever fires; the one nothing matched is gone unrun.
        assert_eq!(*log.lock(), [(1, 0), (2, 1_000)]);
        assert_eq!(Arc::strong_count(&kept), 1);
    }

    #[test]
    fn comm_info_intra_ranks() {
        let info = CommInfo {
            id: CommId(1),
            groups: CommGroups::Intra(vec![ProcId(10), ProcId(20), ProcId(30)]),
        };
        assert_eq!(info.local_rank(ProcId(20)), Some(1));
        assert_eq!(info.local_rank(ProcId(99)), None);
        assert_eq!(info.resolve_dest(ProcId(10), 2).unwrap(), ProcId(30));
        assert_eq!(info.resolve_dest(ProcId(10), 7).unwrap_err(), MpiError::InvalidRank(7));
        assert_eq!(info.local_size(ProcId(10)), 3);
    }

    #[test]
    fn comm_info_inter_ranks_address_remote_group() {
        let info = CommInfo {
            id: CommId(2),
            groups: CommGroups::Inter { a: vec![ProcId(1), ProcId(2)], b: vec![ProcId(3)] },
        };
        // Parent 1 sending to rank 0 reaches child 3.
        assert_eq!(info.resolve_dest(ProcId(1), 0).unwrap(), ProcId(3));
        // Child 3 sending to rank 1 reaches parent 2.
        assert_eq!(info.resolve_dest(ProcId(3), 1).unwrap(), ProcId(2));
        assert_eq!(info.remote_size(ProcId(1)), 1);
        assert_eq!(info.remote_size(ProcId(3)), 2);
        assert_eq!(info.resolve_dest(ProcId(99), 0).unwrap_err(), MpiError::NotAMember);
    }
}
