//! The `mpiexec` analog: launch N ranks across cluster nodes, each with a
//! `MPI_COMM_WORLD` handle (paper §III challenge 1 / §V).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{Net, NodeId, StackModel};
use simt::sync::Mutex;

use crate::comm::Comm;
use crate::proc::{start_pump, CommGroups, CommInfo, MsgStore, ProcState, UniverseState};
use crate::types::{CommId, ProcId};

/// Handle to a running MPI universe (one per `mpiexec` invocation).
#[derive(Clone)]
pub struct Universe {
    pub(crate) state: Arc<UniverseState>,
}

impl Universe {
    /// Create an empty universe on `net` using the native-MPI cost model.
    pub fn new(net: Net) -> Universe {
        Universe {
            state: Arc::new(UniverseState {
                net,
                stack: StackModel::native_mpi(),
                procs: Mutex::new(Default::default()),
                comms: Mutex::new(Default::default()),
                parents: Mutex::new(Default::default()),
                next_proc: AtomicU64::new(1),
                next_comm: AtomicU64::new(1),
            }),
        }
    }

    /// The fabric this universe runs on.
    pub fn net(&self) -> &Net {
        &self.state.net
    }

    /// Register a new process on `node` (mailbox + pump) without starting
    /// any thread. Returns its id.
    pub(crate) fn register_proc(&self, name: &str, node: NodeId) -> ProcId {
        let id = ProcId(self.state.next_proc.fetch_add(1, Ordering::Relaxed));
        let rx = self.state.net.bind_auto(node);
        let mailbox = rx.addr();
        let name = format!("{name}#{}", id.0);
        let store = MsgStore::named(&name);
        start_pump(rx, store.clone());
        let ps = Arc::new(ProcState {
            id,
            node,
            mailbox,
            store,
            coll_seq: Mutex::new(Default::default()),
        });
        self.state.procs.lock().insert(id, ps);
        id
    }

    /// The state of process `id`.
    pub(crate) fn proc_state(&self, id: ProcId) -> Arc<ProcState> {
        self.state.procs.lock().get(&id).expect("process exists").clone()
    }

    /// Register a communicator over existing processes.
    pub(crate) fn register_comm(&self, groups: CommGroups) -> CommId {
        let id = CommId(self.state.next_comm.fetch_add(1, Ordering::Relaxed));
        self.state.comms.lock().insert(id, Arc::new(CommInfo { id, groups }));
        id
    }
}

/// A rank's entry point.
pub type RankEntry = Box<dyn FnOnce(Comm) + Send + 'static>;

/// Launch one rank per entry, rank *i* on `placements[i]`, and build their
/// world communicator. Must be called from inside a simulation green thread.
/// Returns the universe handle.
pub fn mpiexec_with(net: &Net, placements: &[NodeId], entries: Vec<RankEntry>) -> Universe {
    assert_eq!(
        placements.len(),
        entries.len(),
        "one placement per rank entry (got {} placements, {} entries)",
        placements.len(),
        entries.len()
    );
    let uni = Universe::new(net.clone());
    let ids: Vec<ProcId> = placements
        .iter()
        .enumerate()
        .map(|(i, node)| uni.register_proc(&format!("rank{i}"), *node))
        .collect();
    let world = uni.register_comm(CommGroups::Intra(ids.clone()));
    for (i, entry) in entries.into_iter().enumerate() {
        let comm = Comm::new(uni.clone(), world, ids[i]);
        simt::spawn(format!("mpi-rank{i}"), move || entry(comm));
    }
    uni
}

/// SPMD launch: `n` copies of the same entry, rank *i* on `placements[i]`.
pub fn mpiexec(
    net: &Net,
    placements: &[NodeId],
    entry: impl Fn(Comm) + Send + Sync + 'static,
) -> Universe {
    let entry = Arc::new(entry);
    let entries: Vec<RankEntry> = (0..placements.len())
        .map(|_| {
            let e = entry.clone();
            Box::new(move |c: Comm| e(c)) as RankEntry
        })
        .collect();
    mpiexec_with(net, placements, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::ClusterSpec;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn mpiexec_assigns_ranks_and_nodes() {
        let sim = simt::Sim::new();
        let net = Net::new(&ClusterSpec::test(3));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        sim.spawn("launcher", move || {
            let placements = vec![0, 1, 2, 0];
            let seen3 = seen2.clone();
            mpiexec(&net, &placements, move |comm| {
                seen3.lock().push((comm.rank(), comm.size()));
            });
        });
        sim.run().unwrap().assert_clean();
        let mut s = seen.lock().clone();
        s.sort_unstable();
        assert_eq!(s, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn heterogeneous_entries_run() {
        let sim = simt::Sim::new();
        let net = Net::new(&ClusterSpec::test(2));
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        sim.spawn("launcher", move || {
            let c3 = c2.clone();
            let c4 = c2.clone();
            mpiexec_with(
                &net,
                &[0, 1],
                vec![
                    Box::new(move |c: Comm| {
                        assert_eq!(c.rank(), 0);
                        c3.fetch_add(1, Ordering::SeqCst);
                    }),
                    Box::new(move |c: Comm| {
                        assert_eq!(c.rank(), 1);
                        c4.fetch_add(10, Ordering::SeqCst);
                    }),
                ],
            );
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(count.load(Ordering::SeqCst), 11);
    }
}
