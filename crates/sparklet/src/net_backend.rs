//! Pluggable network backends: which transport and cost stack each plane
//! (control RPC vs. shuffle) of each process uses.
//!
//! This is the seam the three evaluated systems differ at:
//!
//! * [`VanillaBackend`] — Netty NIO over Java sockets for everything
//!   (Vanilla Spark / "IPoIB" in the paper's figures).
//! * `rdma-spark::RdmaBackend` — sockets for RPC, RDMA verbs for the
//!   shuffle plane (RDMA-Spark's UCR `BlockTransferService`).
//! * `mpi4spark::MpiBackend` — the paper's contribution: Netty with an MPI
//!   transport (Basic or Optimized) on both planes.

use std::sync::Arc;

use fabric::{Net, NodeId};
use netz::{NioTransport, RpcHandler, Transport, TransportConf, TransportContext};

use crate::config::SparkConf;

/// What a process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Cluster master.
    Master,
    /// Worker `i`.
    Worker(usize),
    /// The driver.
    Driver,
    /// Executor `i`.
    Executor(usize),
}

/// Identity handed to the backend when a process builds its networking.
#[derive(Clone)]
pub struct ProcIdentity {
    /// Role in the cluster.
    pub role: Role,
    /// Node the process runs on.
    pub node: NodeId,
    /// Diagnostic name (`worker-3`, `executor-0`).
    pub name: String,
}

impl ProcIdentity {
    /// Identity of the process `name` with `role` on `node`.
    pub fn new(role: Role, node: NodeId, name: impl Into<String>) -> Self {
        ProcIdentity { role, node, name: name.into() }
    }
}

/// The two networking planes every Spark process runs (paper §II-C): the
/// control-plane RPC environment and the shuffle/block data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Control-plane RPC environment (driver↔master↔workers↔executors).
    Rpc,
    /// Shuffle/block-transfer data plane between executors.
    Shuffle,
}

/// A backend's declaration for one plane: the cost-model configuration and
/// the transport that installs the plane's pipeline handlers (a transport
/// that diverts bodies out-of-band decides itself which ones, paper §VI-E). This is the one place a backend states what a plane runs on —
/// `TransportContext` construction is derived from it instead of duplicated
/// per backend.
pub struct PlaneDesc {
    /// Timeouts and cost stack for the plane.
    pub conf: TransportConf,
    /// Transport wiring the plane's channels.
    pub transport: Arc<dyn Transport>,
}

impl PlaneDesc {
    /// The transport context this descriptor declares, on `net`, serving
    /// `handler`.
    pub fn context(self, net: &Net, handler: Arc<dyn RpcHandler>) -> TransportContext {
        TransportContext::with_transport(net.clone(), self.conf, handler, self.transport)
    }
}

/// Factory for each process's transport contexts.
///
/// Backends implement [`NetworkBackend::plane`] (and optionally
/// [`NetworkBackend::fallback_plane`]) only; context construction is
/// provided. This is the seam the three evaluated systems differ at — each
/// declares its per-plane stacks in one method.
pub trait NetworkBackend: Send + Sync + 'static {
    /// Name used in reports (`vanilla`, `rdma`, `mpi-optimized`, ...).
    fn name(&self) -> &'static str;

    /// Declare `plane`'s stack for the process `identity`.
    fn plane(&self, plane: Plane, identity: &ProcIdentity) -> PlaneDesc;

    /// Build the transport context for `plane` from its descriptor.
    fn context(
        &self,
        plane: Plane,
        identity: &ProcIdentity,
        net: &Net,
        handler: Arc<dyn RpcHandler>,
    ) -> TransportContext {
        self.plane(plane, identity).context(net, handler)
    }

    /// Degraded-mode descriptor for `plane`, if the backend has one.
    ///
    /// Backends whose primary plane runs an accelerated transport
    /// (MPI, RDMA verbs) can declare a plain-sockets descriptor here; the
    /// retry layer switches to it after
    /// [`PLANE_FAILURE_THRESHOLD`](crate::transfer::PLANE_FAILURE_THRESHOLD)
    /// consecutive plane-level failures. `None` (the default) means the
    /// plane has no separate fallback — Vanilla already runs on sockets.
    fn fallback_plane(&self, _plane: Plane, _identity: &ProcIdentity) -> Option<PlaneDesc> {
        None
    }
}

/// Vanilla Spark: Netty NIO over Java sockets on both planes.
pub struct VanillaBackend {
    conf: TransportConf,
}

impl VanillaBackend {
    /// Backend honoring the engine configuration's timeouts.
    pub fn with_conf(spark: &SparkConf) -> Self {
        let mut conf = TransportConf::default_sockets();
        conf.request_timeout_ns = spark.request_timeout_ns;
        conf.connect_timeout_ns = spark.connect_timeout_ns;
        VanillaBackend { conf }
    }
}

impl NetworkBackend for VanillaBackend {
    fn name(&self) -> &'static str {
        "vanilla"
    }

    fn plane(&self, _plane: Plane, _identity: &ProcIdentity) -> PlaneDesc {
        // Same socket stack on both planes; header and body share the
        // socket frame, so nothing is routed out-of-band.
        PlaneDesc { conf: self.conf, transport: Arc::new(NioTransport) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_uses_socket_stack_on_both_planes() {
        let spark = SparkConf {
            request_timeout_ns: 200_000_000,
            connect_timeout_ns: 50_000_000,
            ..SparkConf::default()
        };
        let backend = VanillaBackend::with_conf(&spark);
        assert_eq!(backend.name(), "vanilla");
        let id = ProcIdentity::new(Role::Driver, 0, "driver");
        for plane in [Plane::Rpc, Plane::Shuffle] {
            let desc = backend.plane(plane, &id);
            assert_eq!(desc.conf.stack.name, "JavaSockets/IPoIB");
            assert_eq!(desc.conf.request_timeout_ns, spark.request_timeout_ns);
            assert_eq!(desc.conf.connect_timeout_ns, spark.connect_timeout_ns);
            assert!(backend.fallback_plane(plane, &id).is_none());
        }
    }

    #[test]
    fn identity_constructor() {
        let id = ProcIdentity::new(Role::Executor(3), 2, "executor-3");
        assert_eq!(id.role, Role::Executor(3));
        assert_eq!(id.node, 2);
        assert_eq!(id.name, "executor-3");
    }
}
