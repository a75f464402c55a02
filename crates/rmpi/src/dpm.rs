//! Dynamic Process Management: `MPI_Comm_spawn_multiple` and parent
//! intercommunicators.
//!
//! This is the facility MPI4Spark leans on to preserve Spark's execution
//! model (paper challenge 3): worker processes must dynamically fork
//! isolated executor processes, but under MPI every process needs to be an
//! MPI process — so executors are *spawned* with DPM. Children share a fresh
//! child world (the paper's `DPM_COMM`, over which executors shuffle) and
//! reach their parents through the returned intercommunicator (paper Fig. 3
//! Step C).

use fabric::NodeId;

use crate::comm::Comm;
use crate::launch::RankEntry;
use crate::proc::CommGroups;
use crate::types::{CommId, MpiError, ProcId};

/// One child process specification for [`Comm::spawn_multiple`]
/// (`MPI_Comm_spawn_multiple` takes an array of executable specifications;
/// here the "executable" is an entry closure).
pub struct SpawnSpec {
    /// Child process name (diagnostics).
    pub name: String,
    /// Node to place the child on.
    pub node: NodeId,
    /// Child main, called with the child-world communicator.
    pub entry: RankEntry,
}

impl SpawnSpec {
    /// Build a spec.
    pub fn new(
        name: impl Into<String>,
        node: NodeId,
        entry: impl FnOnce(Comm) + Send + 'static,
    ) -> Self {
        SpawnSpec { name: name.into(), node, entry: Box::new(entry) }
    }
}

impl Comm {
    /// Collectively spawn child processes (`MPI_Comm_spawn_multiple`).
    ///
    /// Every member of this intracommunicator must call; `root` supplies the
    /// specs (the paper allgathers executor arguments beforehand so the root
    /// has the complete set — see §V). Returns the parent↔children
    /// intercommunicator. Children receive the child world as their entry
    /// argument and can obtain this intercommunicator via [`Comm::parent`].
    pub fn spawn_multiple(
        &self,
        root: u32,
        specs: Option<Vec<SpawnSpec>>,
    ) -> Result<Comm, MpiError> {
        assert!(!self.is_inter(), "spawn_multiple requires an intracommunicator");
        let rank = self.rank();
        let inter_id: u64 = if rank == root {
            let specs = specs.expect("spawn root must supply specs");
            if specs.is_empty() {
                return Err(MpiError::SpawnFailed("empty spec list".into()));
            }
            let uni = self.universe().clone();
            // Register children and their world.
            let child_ids: Vec<ProcId> =
                specs.iter().map(|s| uni.register_proc(&s.name, s.node)).collect();
            let child_world = uni.register_comm(CommGroups::Intra(child_ids.clone()));
            // Intercomm: group A = this comm's members, group B = children.
            let parent_members = self.members();
            let inter =
                uni.register_comm(CommGroups::Inter { a: parent_members, b: child_ids.clone() });
            // Record parentage before any child runs.
            {
                let mut parents = uni.state.parents.lock();
                for c in &child_ids {
                    parents.insert(*c, inter);
                }
            }
            // Launch the children.
            for (spec, cid) in specs.into_iter().zip(child_ids.iter()) {
                let child_comm = Comm::new(uni.clone(), child_world, *cid);
                let name = spec.name.clone();
                let entry = spec.entry;
                simt::spawn(format!("dpm:{name}"), move || entry(child_comm));
            }
            self.bcast(root, Some(inter.0), 16)?
        } else {
            self.bcast::<u64>(root, None, 16)?
        };
        Ok(self.rebind_comm(CommId(inter_id)))
    }

    /// The parent intercommunicator, for DPM-spawned processes
    /// (`MPI_Comm_get_parent`).
    pub fn parent(&self) -> Option<Comm> {
        let uni = self.universe().clone();
        let inter = *uni.state.parents.lock().get(&self.proc_id())?;
        Some(self.rebind_comm(inter))
    }

    /// Members of an intracommunicator (rank order).
    pub(crate) fn members(&self) -> Vec<ProcId> {
        match &self.info.groups {
            CommGroups::Intra(g) => g.clone(),
            CommGroups::Inter { .. } => panic!("members() on intercommunicator"),
        }
    }

    fn rebind_comm(&self, comm: CommId) -> Comm {
        Comm::new(self.universe().clone(), comm, self.proc_id())
    }
}
