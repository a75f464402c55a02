//! # rdma-spark — the RDMA-Spark baseline (Lu et al., IEEE BigData 2016)
//!
//! RDMA-Spark keeps Spark's shuffle managers and replaces the
//! `BlockTransferService` with one built on its Unified Communication
//! Runtime (UCR) over InfiniBand verbs (paper §I-C, Table I: "RDMA-Based
//! BlockTransferService"). Architecturally that means:
//!
//! * the control plane (driver/master/executor RPC) stays on Vanilla
//!   Spark's Netty-over-sockets path, and
//! * the shuffle plane — `OpenBlocks` + chunk transfers between executors —
//!   runs over RDMA.
//!
//! The reproduction expresses exactly that split through sparklet's
//! [`NetworkBackend`] seam: the backend's [`Plane::Rpc`] descriptor uses the
//! Java-sockets stack while its [`Plane::Shuffle`] descriptor uses the
//! calibrated RDMA-verbs stack (`fabric::StackModel::rdma_verbs`, ≈2.1 GB/s
//! effective with ≈8 µs/message registration+completion overhead — the UCR
//! figures the calibration note in `EXPERIMENTS.md` derives from the
//! paper's measured ratios).
//!
//! RDMA-Spark is IB-only (paper Table I: no multi-interconnect support);
//! [`RdmaBackend::with_conf`] checks [`fabric::FabricKind`], mirroring why the
//! paper has no RDMA-Spark numbers on Stampede2's Omni-Path.

#![forbid(unsafe_code)]

use std::sync::Arc;

use fabric::{FabricKind, StackModel};
use netz::{NioTransport, TransportConf};
use sparklet::config::SparkConf;
use sparklet::net_backend::{NetworkBackend, Plane, PlaneDesc, ProcIdentity};

/// The RDMA-Spark network backend.
pub struct RdmaBackend {
    rpc_conf: TransportConf,
    shuffle_conf: TransportConf,
}

impl RdmaBackend {
    /// Backend for a cluster whose interconnect is InfiniBand, honoring the
    /// engine configuration's timeouts on both planes and the fallback.
    ///
    /// # Panics
    /// When the interconnect's [`FabricKind`] is not
    /// [`FabricKind::InfiniBand`] (e.g. Omni-Path): RDMA-Spark only supports
    /// IB, which is why the paper collected no RDMA numbers on Stampede2
    /// (§VII-D).
    pub fn with_conf(interconnect: &fabric::Interconnect, spark: &SparkConf) -> Self {
        assert!(
            interconnect.kind == FabricKind::InfiniBand,
            "RDMA-Spark supports only InfiniBand interconnects (got {} [{:?}])",
            interconnect.name,
            interconnect.kind
        );
        let rpc_conf = TransportConf {
            request_timeout_ns: spark.request_timeout_ns,
            connect_timeout_ns: spark.connect_timeout_ns,
            ..TransportConf::default_sockets()
        };
        let shuffle_conf = TransportConf { stack: StackModel::rdma_verbs(), ..rpc_conf };
        RdmaBackend { rpc_conf, shuffle_conf }
    }
}

impl NetworkBackend for RdmaBackend {
    fn name(&self) -> &'static str {
        "rdma-spark"
    }

    fn plane(&self, plane: Plane, _identity: &ProcIdentity) -> PlaneDesc {
        match plane {
            // Control plane: unmodified Netty-over-sockets, nothing diverted.
            Plane::Rpc => PlaneDesc { conf: self.rpc_conf, transport: Arc::new(NioTransport) },
            // Shuffle plane: the UCR transport exists to carry the same
            // body set §VI-E routes (chunk and stream bodies); in this model
            // the whole plane runs on the verbs stack.
            Plane::Shuffle => {
                PlaneDesc { conf: self.shuffle_conf, transport: Arc::new(NioTransport) }
            }
        }
    }

    fn fallback_plane(&self, plane: Plane, _identity: &ProcIdentity) -> Option<PlaneDesc> {
        match plane {
            // RPC already runs on sockets: no separate degraded mode.
            Plane::Rpc => None,
            // Degraded shuffle: drop from verbs to the socket stack — the
            // same path RDMA-Spark's IPoIB fallback takes when UCR fails.
            Plane::Shuffle => {
                Some(PlaneDesc { conf: self.rpc_conf, transport: Arc::new(NioTransport) })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Interconnect;
    use sparklet::net_backend::Role;

    fn backend(interconnect: &Interconnect) -> RdmaBackend {
        RdmaBackend::with_conf(interconnect, &SparkConf::default())
    }

    #[test]
    fn planes_use_different_stacks() {
        let b = backend(&Interconnect::ib_hdr100());
        let id = ProcIdentity::new(Role::Executor(0), 0, "executor-0");
        let rpc = b.plane(Plane::Rpc, &id);
        let shuffle = b.plane(Plane::Shuffle, &id);
        assert_eq!(rpc.conf.stack.name, "JavaSockets/IPoIB");
        assert_eq!(shuffle.conf.stack.name, "RDMA/UCR");
        assert_eq!(b.name(), "rdma-spark");
    }

    #[test]
    fn every_plane_carries_the_conf_timeouts() {
        let spark = SparkConf {
            request_timeout_ns: simt::time::millis(200),
            connect_timeout_ns: simt::time::millis(50),
            ..SparkConf::default()
        };
        let b = RdmaBackend::with_conf(&Interconnect::ib_hdr100(), &spark);
        let id = ProcIdentity::new(Role::Executor(0), 0, "executor-0");
        let fallback = b.fallback_plane(Plane::Shuffle, &id).expect("a socket fallback");
        assert!(b.fallback_plane(Plane::Rpc, &id).is_none());
        for desc in [b.plane(Plane::Rpc, &id), b.plane(Plane::Shuffle, &id), fallback] {
            assert_eq!(desc.conf.request_timeout_ns, spark.request_timeout_ns);
            assert_eq!(desc.conf.connect_timeout_ns, spark.connect_timeout_ns);
        }
    }

    #[test]
    #[should_panic(expected = "only InfiniBand")]
    fn rejects_omni_path_like_the_real_system() {
        let _ = backend(&Interconnect::omni_path100());
    }

    #[test]
    fn works_on_edr_and_hdr() {
        let _ = backend(&Interconnect::ib_hdr100());
        let _ = backend(&Interconnect::ib_edr100());
    }

    #[test]
    fn fabric_kind_drives_the_rejection_not_the_preset_name() {
        // A hypothetical IB preset whose display name lacks the "IB"
        // substring must still be accepted: the structured kind decides.
        let odd_name = Interconnect {
            name: "ConnectX-6 fabric",
            kind: FabricKind::InfiniBand,
            wire: Interconnect::ib_hdr100().wire,
        };
        let _ = backend(&odd_name);
    }
}
