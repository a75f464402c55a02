//! The MPI4Spark network backend: plugs the MPI transports into sparklet's
//! networking seams.

use std::collections::BTreeMap;
use std::sync::Arc;

use netz::TransportConf;
use simt::sync::Mutex;
use sparklet::config::SparkConf;
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
    /// Each launched process's communicators, by role: the launcher
    /// registers a process before starting it (paper §V), and `plane` looks
    /// it up when the process builds its networking.
    procs: Mutex<BTreeMap<Role, Arc<MpiProcCtx>>>,
}

impl MpiBackend {
    /// Backend for `design` honoring the engine configuration's timeouts:
    /// connection establishment, requests and the Optimized design's
    /// bounded body wait (its endpoint's request timeout) all follow
    /// `spark`'s settings, on the MPI planes and the socket fallback alike.
    pub fn with_conf(design: Design, spark: &SparkConf) -> Self {
        let conf = TransportConf {
            request_timeout_ns: spark.request_timeout_ns,
            connect_timeout_ns: spark.connect_timeout_ns,
            ..TransportConf::default_sockets()
        };
        MpiBackend { design, conf, procs: Mutex::new(BTreeMap::new()) }
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
            Design::Optimized => Arc::new(MpiTransportOptimized::new(ctx)),
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

    fn backend(design: Design) -> MpiBackend {
        MpiBackend::with_conf(design, &SparkConf::default())
    }

    #[test]
    fn backend_names_distinguish_designs() {
        assert_eq!(backend(Design::Optimized).name(), "mpi4spark");
        assert_eq!(backend(Design::Basic).name(), "mpi4spark-basic");
    }

    #[test]
    fn every_plane_carries_the_conf_timeouts() {
        let spark = SparkConf {
            request_timeout_ns: simt::time::millis(200),
            connect_timeout_ns: simt::time::millis(50),
            ..SparkConf::default()
        };
        let sim = simt::Sim::new();
        sim.spawn("launcher", move || {
            let net = fabric::Net::new(&fabric::ClusterSpec::test(1));
            rmpi::launch::mpiexec(&net, &[0], move |world| {
                let id = ProcIdentity::new(Role::Driver, 0, "driver");
                for design in [Design::Basic, Design::Optimized] {
                    let b = MpiBackend::with_conf(design, &spark);
                    b.register(Role::Driver, MpiProcCtx::world_proc(world.clone()));
                    for plane in [Plane::Rpc, Plane::Shuffle] {
                        let fallback = b.fallback_plane(plane, &id).expect("a socket fallback");
                        for desc in [b.plane(plane, &id), fallback] {
                            assert_eq!(desc.conf.request_timeout_ns, spark.request_timeout_ns);
                            assert_eq!(desc.conf.connect_timeout_ns, spark.connect_timeout_ns);
                        }
                    }
                }
            });
        });
        sim.run().unwrap().assert_clean();
        sim.shutdown();
    }

    #[test]
    #[should_panic(expected = "started by the mpi4spark launcher")]
    fn unregistered_process_has_no_plane() {
        let backend = backend(Design::Optimized);
        backend.plane(Plane::Rpc, &ProcIdentity::new(Role::Executor(0), 0, "executor-0"));
    }
}
