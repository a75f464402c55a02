//! The MPI4Spark network backend: plugs the MPI transports into sparklet's
//! networking seams.

use std::collections::BTreeMap;
use std::sync::Arc;

use netz::TransportConf;
use simt::sync::Mutex;
use sparklet::net_backend::{NetworkBackend, Plane, PlaneDesc, ProcIdentity, Role};

use crate::ctx::MpiProcCtx;
use crate::transport::{MpiTransportBasic, MpiTransportOptimized};

/// Which of the paper's two designs to run (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// All messages over MPI; polling selector loop (§VI-D).
    Basic,
    /// Only shuffle bodies over MPI; header-triggered receives (§VI-E).
    Optimized,
}

/// MPI4Spark's backend. Both planes (control RPC and shuffle) run the MPI
/// transport — the paper modifies Netty itself, under all of Spark's
/// messaging.
pub struct MpiBackend {
    design: Design,
    conf: TransportConf,
    body_timeout_ns: u64,
    /// Each launched process's communicators, by role: the launcher
    /// registers a process before starting it (paper §V), and `plane` looks
    /// it up when the process builds its networking.
    procs: Mutex<BTreeMap<Role, Arc<MpiProcCtx>>>,
}

impl MpiBackend {
    /// Backend for `design` with default socket conf for the establishment
    /// path.
    pub fn new(design: Design) -> Self {
        MpiBackend {
            design,
            conf: TransportConf::default_sockets(),
            body_timeout_ns: simt::time::secs(120),
            procs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Backend honoring the engine configuration's timeouts: connection
    /// establishment and the Optimized design's bounded body wait both
    /// follow `spark`'s settings, so chaos tests that shrink timeouts see
    /// them respected on the MPI path too.
    pub fn with_conf(design: Design, spark: &sparklet::config::SparkConf) -> Self {
        let mut b = Self::new(design);
        b.conf.request_timeout_ns = spark.request_timeout_ns;
        b.conf.connect_timeout_ns = spark.connect_timeout_ns;
        b.body_timeout_ns = spark.request_timeout_ns;
        b
    }

    /// The selected design.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Give the process with `role` the communicators in `ctx`.
    pub(crate) fn register(&self, role: Role, ctx: Arc<MpiProcCtx>) {
        self.procs.lock().insert(role, ctx);
    }

    fn mpi_ctx(&self, identity: &ProcIdentity) -> Arc<MpiProcCtx> {
        let ctx = self.procs.lock().get(&identity.role).cloned();
        ctx.unwrap_or_else(|| {
            panic!(
                "process '{}' has no MpiProcCtx: MPI4Spark processes must be \
                     started by the mpi4spark launcher (paper §V)",
                identity.name
            )
        })
    }
}

impl NetworkBackend for MpiBackend {
    fn name(&self) -> &'static str {
        match self.design {
            Design::Basic => "mpi4spark-basic",
            Design::Optimized => "mpi4spark",
        }
    }

    fn plane(&self, _plane: Plane, identity: &ProcIdentity) -> PlaneDesc {
        let ctx = self.mpi_ctx(identity);
        let transport: Arc<dyn netz::Transport> = match self.design {
            Design::Optimized => {
                Arc::new(MpiTransportOptimized::new(ctx).with_body_timeout(self.body_timeout_ns))
            }
            Design::Basic => Arc::new(MpiTransportBasic::new(ctx)),
        };
        PlaneDesc { conf: self.conf, transport }
    }

    fn fallback_plane(&self, _plane: Plane, _identity: &ProcIdentity) -> Option<PlaneDesc> {
        // Degraded mode: plain Netty-over-sockets, nothing diverted to MPI.
        // Interop with healthy MPI peers works because their transports skip
        // pipeline handlers for channels whose peer handshake carries no MPI
        // rank — the server answers such channels entirely on sockets.
        Some(PlaneDesc { conf: self.conf, transport: Arc::new(netz::NioTransport) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_distinguish_designs() {
        assert_eq!(MpiBackend::new(Design::Optimized).name(), "mpi4spark");
        assert_eq!(MpiBackend::new(Design::Basic).name(), "mpi4spark-basic");
    }

    #[test]
    #[should_panic(expected = "started by the mpi4spark launcher")]
    fn unregistered_process_has_no_plane() {
        let backend = MpiBackend::new(Design::Optimized);
        backend.plane(Plane::Rpc, &ProcIdentity::new(Role::Executor(0), 0, "executor-0"));
    }
}
