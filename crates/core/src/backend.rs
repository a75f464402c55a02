//! The MPI4Spark network backend: plugs the MPI transports into sparklet's
//! networking seams.

use std::collections::BTreeMap;
use std::sync::Arc;

use netz::{RoutePolicy, TransportConf};
use simt::sync::Mutex;
use sparklet::net_backend::{NetworkBackend, Plane, PlaneDesc, ProcIdentity, Role};

use crate::ctx::MpiProcCtx;
use crate::transport::{BasicTuning, MpiTransportBasic, MpiTransportOptimized};

/// Which of the paper's two designs to run (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// All messages over MPI; polling selector loop (§VI-D).
    Basic,
    /// Only shuffle bodies over MPI; header-triggered receives (§VI-E).
    Optimized,
}

impl Design {
    /// The design's default body-routing policy (§VI-D vs §VI-E).
    pub fn default_route_policy(self) -> RoutePolicy {
        match self {
            Design::Basic => RoutePolicy::ALL_MESSAGES,
            Design::Optimized => RoutePolicy::SHUFFLE_BODIES,
        }
    }
}

/// MPI4Spark's backend. Both planes (control RPC and shuffle) run the MPI
/// transport — the paper modifies Netty itself, under all of Spark's
/// messaging.
pub struct MpiBackend {
    design: Design,
    conf: TransportConf,
    basic_tuning: BasicTuning,
    route: RoutePolicy,
    body_timeout_ns: u64,
    /// Each launched process's communicators, by role: the launcher
    /// registers a process before starting it (paper §V), and `plane` looks
    /// it up when the process builds its networking.
    procs: Mutex<BTreeMap<Role, Arc<MpiProcCtx>>>,
}

impl MpiBackend {
    /// Backend for `design` with default socket conf for the establishment
    /// path and the design's default routing policy.
    pub fn new(design: Design) -> Self {
        MpiBackend {
            design,
            conf: TransportConf::default_sockets(),
            basic_tuning: BasicTuning::default(),
            route: design.default_route_policy(),
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

    /// Override the Basic design's polling tunables (ablation benches).
    pub fn with_basic_tuning(mut self, tuning: BasicTuning) -> Self {
        self.basic_tuning = tuning;
        self
    }

    /// Override the body-routing policy (§VI-E ablations: e.g. route every
    /// body, or only chunk bodies, without touching transport code).
    pub fn with_route_policy(mut self, route: RoutePolicy) -> Self {
        self.route = route;
        self
    }

    /// The selected design.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The active body-routing policy.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
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
            Design::Optimized => Arc::new(
                MpiTransportOptimized::with_policy(ctx, self.route)
                    .with_body_timeout(self.body_timeout_ns),
            ),
            Design::Basic => Arc::new(MpiTransportBasic::with_tuning_and_policy(
                ctx,
                self.basic_tuning,
                self.route,
            )),
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
    fn designs_default_to_the_papers_routing() {
        assert_eq!(MpiBackend::new(Design::Optimized).route_policy(), RoutePolicy::SHUFFLE_BODIES);
        assert_eq!(MpiBackend::new(Design::Basic).route_policy(), RoutePolicy::ALL_MESSAGES);
        let ablated = MpiBackend::new(Design::Optimized).with_route_policy(RoutePolicy::ALL_BODIES);
        assert_eq!(ablated.route_policy(), RoutePolicy::ALL_BODIES);
    }

    #[test]
    #[should_panic(expected = "started by the mpi4spark launcher")]
    fn unregistered_process_has_no_plane() {
        let backend = MpiBackend::new(Design::Optimized);
        backend.plane(Plane::Rpc, &ProcIdentity::new(Role::Executor(0), 0, "executor-0"));
    }
}
