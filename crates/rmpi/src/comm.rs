//! Communicator handles and point-to-point operations.

use std::sync::Arc;

use fabric::Payload;

use crate::launch::Universe;
use crate::proc::{CommInfo, Matcher, MpiMsg, ProcState, ReqId};
use crate::types::{CommId, MpiError, ProcId, Status};

/// What a completed receive hands its caller.
fn delivered(msg: MpiMsg) -> (Payload, Status) {
    let status = Status { source: msg.src_rank, tag: msg.tag, len: msg.payload.virtual_len };
    (msg.payload, status)
}

/// A communicator handle bound to one calling process. Cheap to clone;
/// clones may be used from any green thread belonging to that process
/// (executor task slots, RPC dispatchers, ...), and their non-blocking
/// calls from its continuations (a netz event loop's handlers).
#[derive(Clone)]
pub struct Comm {
    uni: Universe,
    comm: CommId,
    proc: ProcId,
    /// The communicator and the calling process, resolved once: the
    /// universe's tables only ever gain entries.
    pub(crate) info: Arc<CommInfo>,
    me: Arc<ProcState>,
}

impl Comm {
    pub(crate) fn new(uni: Universe, comm: CommId, proc: ProcId) -> Comm {
        let info = uni.state.comms.lock().get(&comm).expect("communicator exists").clone();
        let me = uni.proc_state(proc);
        Comm { uni, comm, proc, info, me }
    }

    /// The universe this communicator belongs to.
    pub fn universe(&self) -> &Universe {
        &self.uni
    }

    /// Communicator id.
    pub fn id(&self) -> CommId {
        self.comm
    }

    /// This process's id.
    pub fn proc_id(&self) -> ProcId {
        self.proc
    }

    /// Node the calling process runs on.
    pub fn node(&self) -> fabric::NodeId {
        self.me.node
    }

    /// Rank of the calling process (within its group, for intercomms).
    pub fn rank(&self) -> u32 {
        self.info.local_rank(self.proc).expect("caller is a member")
    }

    /// Local group size.
    pub fn size(&self) -> u32 {
        self.info.local_size(self.proc) as u32
    }

    /// Remote group size (== `size()` for intracommunicators).
    pub fn remote_size(&self) -> u32 {
        self.info.remote_size(self.proc) as u32
    }

    /// True when this is an intercommunicator.
    pub fn is_inter(&self) -> bool {
        matches!(self.info.groups, crate::proc::CommGroups::Inter { .. })
    }

    /// Blocking (buffered) send to `dest` with `tag`.
    ///
    /// Returns once the send-side software cost is paid — the message is
    /// buffered by the fabric, matching an eager/buffered-mode MPI send.
    pub fn send(&self, dest: u32, tag: u64, payload: Payload) -> Result<(), MpiError> {
        let (node, mailbox, msg) = self.envelope(dest, tag, payload)?;
        self.uni.state.net.send(&self.uni.state.stack, node, mailbox, msg);
        Ok(())
    }

    /// [`send`](Comm::send) without parking: `then` runs once the send-side
    /// cost is paid (see [`fabric::Net::send_then`]).
    pub fn send_then(
        &self,
        dest: u32,
        tag: u64,
        payload: Payload,
        then: impl FnOnce() + Send + 'static,
    ) -> Result<(), MpiError> {
        let (node, mailbox, msg) = self.envelope(dest, tag, payload)?;
        self.uni.state.net.send_then(&self.uni.state.stack, node, mailbox, msg, then);
        Ok(())
    }

    /// The sending node, the destination's mailbox and the message itself.
    fn envelope(
        &self,
        dest: u32,
        tag: u64,
        payload: Payload,
    ) -> Result<(fabric::NodeId, fabric::PortAddr, Payload), MpiError> {
        let dest_proc = self.info.resolve_dest(self.proc, dest)?;
        let target = self.uni.proc_state(dest_proc);
        let virtual_len = payload.virtual_len;
        let msg = MpiMsg { comm: self.comm, src_rank: self.rank(), tag, payload };
        Ok((self.me.node, target.mailbox, Payload::control(msg, virtual_len)))
    }

    /// Nonblocking send. With the fabric's buffered semantics it completes
    /// immediately; provided for API fidelity.
    pub fn isend(&self, dest: u32, tag: u64, payload: Payload) -> Result<Request, MpiError> {
        self.send(dest, tag, payload)?;
        Ok(Request::complete())
    }

    /// Blocking matched receive. For a bounded one, [`irecv`](Comm::irecv)
    /// and [`Request::wait_timeout`].
    pub fn recv(&self, src: Option<u32>, tag: Option<u64>) -> Result<(Payload, Status), MpiError> {
        self.me.store.recv(Matcher { comm: self.comm, src, tag }).map(delivered)
    }

    /// Nonblocking receive: posts a slot in the process's message store and
    /// returns a [`Request`]. Posting *reserves* the match — once a message
    /// matches (at post time or on arrival), it is pinned to this request:
    /// invisible to other receives, guaranteed to be what `wait` returns.
    pub fn irecv(&self, src: Option<u32>, tag: Option<u64>) -> Request {
        let id = self.me.store.post_recv(Matcher { comm: self.comm, src, tag });
        Request::recv(self.clone(), id)
    }

    /// Typed convenience: send a control value charged as `virtual_len`.
    pub fn send_value<T: std::any::Any + Send + Sync>(
        &self,
        dest: u32,
        tag: u64,
        value: T,
        virtual_len: u64,
    ) -> Result<(), MpiError> {
        self.send(dest, tag, Payload::control(value, virtual_len))
    }

    /// Typed convenience: receive a control value of type `T`.
    /// Panics when the matched message carries a different type — that is a
    /// protocol bug in the simulated program, not a runtime condition.
    pub fn recv_value<T: std::any::Any + Send + Sync>(
        &self,
        src: Option<u32>,
        tag: Option<u64>,
    ) -> Result<(Arc<T>, Status), MpiError> {
        let (payload, status) = self.recv(src, tag)?;
        let v = payload.value_as::<T>().expect("typed receive matched a payload of another type");
        Ok((v, status))
    }

    /// Allocate the next collective sequence number for this communicator.
    pub(crate) fn next_coll_seq(&self) -> u64 {
        let mut m = self.me.coll_seq.lock();
        let c = m.entry(self.comm).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm").field("comm", &self.comm).field("proc", &self.proc).finish()
    }
}

/// A nonblocking-operation handle.
///
/// Receive requests own a posted slot in the process's message store: the
/// match is *reserved* at post/arrival time, so no later receive can take it
/// away before [`wait`](Request::wait). A request dropped unwaited releases
/// its slot (without a drain); any pinned message is discarded.
#[must_use = "a dropped receive request is cancelled: `wait` it"]
pub struct Request {
    kind: RequestKind,
}

enum RequestKind {
    Complete,
    Recv {
        comm: Comm,
        id: ReqId,
        /// Slot already consumed (waited for)?
        done: bool,
    },
}

/// What completing a [`Request`] yields: `None` for a send.
type Received = Result<Option<(Payload, Status)>, MpiError>;

impl Request {
    fn complete() -> Request {
        Request { kind: RequestKind::Complete }
    }

    fn recv(comm: Comm, id: ReqId) -> Request {
        Request { kind: RequestKind::Recv { comm, id, done: false } }
    }

    /// Block until the operation completes; receives return their payload.
    /// Event-driven (woken by arrival): blocking here charges no polling CPU.
    pub fn wait(self) -> Received {
        self.wait_until(None)
    }

    /// [`wait`](Request::wait) bounded by a relative timeout. On timeout the
    /// receive is cancelled *with a drain*: if the message later arrives it
    /// is absorbed instead of leaking into the unexpected-message queue.
    pub fn wait_timeout(self, timeout: u64) -> Received {
        self.wait_until(Some(simt::now().saturating_add(timeout)))
    }

    fn wait_until(mut self, deadline: Option<u64>) -> Received {
        match &mut self.kind {
            RequestKind::Complete => Ok(None),
            RequestKind::Recv { comm, id, done } => {
                let store = comm.me.store.clone();
                let r = store.req_wait(*id, deadline);
                if matches!(r, Err(MpiError::Timeout)) {
                    store.cancel_recv(*id, true);
                }
                *done = true; // the slot is consumed on Ok and on Finalized alike
                r.map(|msg| Some(delivered(msg)))
            }
        }
    }

    /// [`wait`](Request::wait) without parking: `then` runs on the engine
    /// once the message is pinned to this receive (at once if it already
    /// is). A process that finalizes first drops `then` unrun.
    pub fn wait_then(self, then: impl FnOnce(Received) + Send + 'static) {
        self.wait_until_then(None, then);
    }

    /// [`wait_timeout`](Request::wait_timeout) without parking: `then` runs
    /// on the engine once the message is pinned to this receive (at once if
    /// it already is), or with `Err(Timeout)` when `timeout` passes, the
    /// receive then cancelled with a drain. A process that finalizes first
    /// drops `then` unrun.
    pub fn wait_timeout_then(self, timeout: u64, then: impl FnOnce(Received) + Send + 'static) {
        self.wait_until_then(Some(simt::now().saturating_add(timeout)), then);
    }

    fn wait_until_then(
        mut self,
        deadline: Option<u64>,
        then: impl FnOnce(Received) + Send + 'static,
    ) {
        match &mut self.kind {
            RequestKind::Complete => simt::engine::call_at(simt::now(), move || then(Ok(None))),
            RequestKind::Recv { comm, id, done } => {
                let then =
                    Box::new(move |r: Result<MpiMsg, _>| then(r.map(|m| Some(delivered(m)))));
                comm.me.store.req_wait_then(*id, deadline, then);
                *done = true;
            }
        }
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        if let RequestKind::Recv { comm, id, done: false } = &self.kind {
            comm.me.store.cancel_recv(*id, false);
        }
    }
}

/// `MPI_Waitall`: complete every request, returning results in request
/// order. Because matching is reserved at post/arrival time, completing the
/// batch sequentially is *exactly* equivalent (payloads and virtual
/// timestamps) to any batched completion order — blocking waits are
/// event-driven and charge no CPU, and each request's message is already
/// pinned to it. (Pinned by a property test in `tests/request_props.rs`.)
pub fn waitall(reqs: Vec<Request>) -> Result<Vec<Option<(Payload, Status)>>, MpiError> {
    reqs.into_iter().map(Request::wait).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::mpiexec;
    use fabric::{ClusterSpec, Net};

    fn run_ranks(nodes: usize, ranks: usize, f: impl Fn(Comm) + Send + Sync + 'static) {
        let sim = simt::Sim::new();
        let placements: Vec<usize> = (0..ranks).map(|i| i % nodes).collect();
        sim.spawn("launcher", move || {
            let net = Net::new(&ClusterSpec::test(nodes));
            mpiexec(&net, &placements, f);
        });
        sim.run().unwrap().assert_clean();
    }

    fn store_of(comm: &Comm) -> crate::proc::MsgStore {
        comm.me.store.clone()
    }

    /// Reservation: the message a wildcard `irecv` matched is pinned to it. A
    /// competing receive for the same sender cannot take it, and `wait`
    /// returns exactly that message.
    #[test]
    fn irecv_pins_wildcard_match_for_wait() {
        const TAG: u64 = 77;
        run_ranks(2, 3, |comm| match comm.rank() {
            0 => comm.send_value(2, TAG, 0u32, 8).unwrap(),
            1 => {
                simt::sleep(50_000);
                comm.send_value(2, TAG, 1u32, 8).unwrap();
            }
            _ => {
                simt::sleep(200_000); // both messages have arrived
                let req = comm.irecv(None, Some(TAG));
                assert_eq!(store_of(&comm).len(), 1, "first arrival is pinned at post time");
                // A competing exact receive for the pinned sender must NOT
                // steal the reserved message.
                let r = comm.irecv(Some(0), Some(TAG)).wait_timeout(10_000);
                assert_eq!(r.err(), Some(MpiError::Timeout));
                let (payload, st) = req.wait().unwrap().unwrap();
                assert_eq!(st.source, 0);
                assert_eq!(*payload.value_as::<u32>().unwrap(), 0);
                // The other sender's message is still receivable.
                let (v, st) = comm.recv_value::<u32>(Some(1), Some(TAG)).unwrap();
                assert_eq!((st.source, *v), (1, 1));
            }
        });
    }

    /// A rank stuck in a receive is named with what it waits on: its
    /// process's message store.
    #[test]
    fn rank_stuck_in_recv_is_reported_blocked_on_its_store() {
        let sim = simt::Sim::new();
        sim.spawn("launcher", || {
            let net = Net::new(&ClusterSpec::test(2));
            mpiexec(&net, &[0, 1], |comm| {
                if comm.rank() == 1 {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "nobody sends tag 404: the receive never returns"
                    )]
                    let _ = comm.recv(Some(0), Some(404));
                }
            });
        });
        let report = sim.run().unwrap();
        assert_eq!(report.blocked, vec!["mpi-rank1".to_string()]);
        let (task, on) = &report.blocked_on[0];
        let label = on.as_deref().expect("the wait went through a labelled list");
        assert_eq!(task, "mpi-rank1");
        assert!(label.starts_with("mpi-store:rank1"), "{label}");
    }

    /// Regression for the stale-body leak: flood timeouts, then let every
    /// "late body" arrive — the drains must absorb all of them so the
    /// unexpected-message queue stays empty.
    #[test]
    fn timed_out_receives_drain_late_arrivals() {
        const N: u64 = 48;
        run_ranks(2, 2, |comm| {
            if comm.rank() == 0 {
                // All bodies are late: sent long after the receiver timed out.
                simt::sleep(1_000_000);
                for i in 0..N {
                    comm.send_value(1, 1000 + i, i, 64).unwrap();
                }
            } else {
                let store = store_of(&comm);
                for i in 0..N {
                    let req = comm.irecv(Some(0), Some(1000 + i));
                    assert_eq!(req.wait_timeout(2_000).err(), Some(MpiError::Timeout));
                }
                assert_eq!(store.posted_len(), 0, "timeouts released their slots");
                assert_eq!(store.drain_len(), N as usize, "one drain per timed-out receive");
                simt::sleep(5_000_000); // all late bodies have landed
                assert_eq!(store.len(), 0, "late bodies were absorbed, not stored");
                assert_eq!(store.drain_len(), 0, "each drain consumed exactly once");
            }
        });
    }

    /// A `Request` dropped un-waited is a cancel without a drain: its slot is
    /// gone at once, and the message it was posted for goes to the next
    /// matching receive, in arrival order.
    #[test]
    fn dropped_request_frees_its_slot_and_leaves_the_message_to_the_next_recv() {
        const TAG: u64 = 31;
        run_ranks(2, 2, |comm| {
            if comm.rank() == 0 {
                simt::sleep(100_000); // after the receive was posted and dropped
                for v in [0u32, 1] {
                    comm.send_value(1, TAG, v, 8).unwrap();
                }
            } else {
                let store = store_of(&comm);
                let req = comm.irecv(Some(0), Some(TAG));
                assert_eq!(store.posted_len(), 1);
                drop(req);
                assert_eq!((store.posted_len(), store.drain_len()), (0, 0));
                for v in [0u32, 1] {
                    let (got, _) = comm.recv_value::<u32>(Some(0), Some(TAG)).unwrap();
                    assert_eq!(*got, v, "nothing was absorbed on the dropped request's behalf");
                }
                assert_eq!((store.posted_len(), store.len()), (0, 0));
            }
        });
    }

    #[test]
    fn waitall_returns_results_in_request_order() {
        run_ranks(2, 2, |comm| {
            if comm.rank() == 0 {
                // Send in reverse tag order with staggered delays.
                for tag in [3u64, 2, 1] {
                    simt::sleep(10_000);
                    comm.send_value(1, tag, tag, 8).unwrap();
                }
            } else {
                let reqs: Vec<Request> = (1..=3).map(|t| comm.irecv(Some(0), Some(t))).collect();
                let out = waitall(reqs).unwrap();
                let tags: Vec<u64> = out.iter().map(|r| r.as_ref().unwrap().1.tag).collect();
                assert_eq!(tags, vec![1, 2, 3], "request order, not arrival order");
            }
        });
    }
}
