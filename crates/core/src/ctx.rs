//! Per-process MPI context: the launcher registers one per Spark process
//! with [`MpiBackend`](crate::MpiBackend), keyed by the process's role.

use std::sync::Arc;

use netz::CommKind;
use rmpi::Comm;
use simt::sync::Mutex;

/// MPI identity of one Spark process: its primary intracommunicator (the
/// wrapper `MPI_COMM_WORLD` for master/driver/workers; the child world —
/// the paper's `DPM_COMM` — for executors) and the intercommunicator to the
/// other group.
pub struct MpiProcCtx {
    /// Which group this process belongs to.
    pub kind: CommKind,
    /// Primary intracommunicator.
    pub world: Comm,
    inter: Mutex<Option<Comm>>,
    /// The Basic design's demultiplexer (idle under any other transport).
    pub(crate) router: Arc<crate::transport::BasicRouter>,
}

impl MpiProcCtx {
    /// Context for a wrapper-world process (worker/master/driver).
    pub fn world_proc(world: Comm) -> Arc<Self> {
        Arc::new(MpiProcCtx {
            kind: CommKind::World,
            world,
            inter: Mutex::new(None),
            router: Arc::default(),
        })
    }

    /// Context for a DPM-spawned executor: child world + parent intercomm.
    pub fn dpm_proc(child_world: Comm, parent: Comm) -> Arc<Self> {
        Arc::new(MpiProcCtx {
            kind: CommKind::Dpm,
            world: child_world,
            inter: Mutex::new(Some(parent)),
            router: Arc::default(),
        })
    }

    /// Record the intercommunicator (wrapper agents call this right after
    /// `spawn_multiple` returns).
    pub fn set_inter(&self, inter: Comm) {
        *self.inter.lock() = Some(inter);
    }

    /// The intercommunicator, when already established.
    pub fn inter(&self) -> Option<Comm> {
        self.inter.lock().clone()
    }

    /// The Basic design's routed channels: each open channel end of this
    /// process (none under any other transport).
    pub fn routed_channels(&self) -> Vec<Arc<netz::ChannelCore>> {
        self.router.channels.lock().values().map(|(_, chan)| chan.clone()).collect()
    }

    /// My rank within my primary communicator (what the handshake carries).
    pub fn rank(&self) -> u32 {
        self.world.rank()
    }

    /// Resolve the communicator and destination rank for a peer identified
    /// by its handshake `(rank, kind)` — the rank↔channel mapping plus
    /// communicator-type selection of paper §VI-B.
    pub fn route(&self, peer_rank: u32, peer_kind: CommKind) -> (Comm, u32) {
        if peer_kind == self.kind {
            (self.world.clone(), peer_rank)
        } else {
            // Cross-group: the intercommunicator addresses the remote
            // group, where a peer's rank equals its own-world rank (group A
            // = WORLD in rank order; group B = children in spawn order). A
            // cross-group peer exists only once the DPM spawn has returned,
            // and the wrapper sets the intercommunicator right then.
            (self.inter().expect("a cross-group peer implies the DPM spawn set `inter`"), peer_rank)
        }
    }
}

impl std::fmt::Debug for MpiProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiProcCtx")
            .field("kind", &self.kind)
            .field("rank", &self.world.rank())
            .field("has_inter", &self.inter.lock().is_some())
            .finish()
    }
}
