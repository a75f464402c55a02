//! Node and cluster specifications, with presets matching the paper's
//! Table III.

use crate::model::Interconnect;

/// Index of a node within a [`ClusterSpec`].
pub type NodeId = usize;

/// Hardware description of a single node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name, e.g. `frontera-03`.
    pub name: String,
    /// CPU sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core (2 when hyper-threading).
    pub threads_per_core: u32,
    /// Nominal clock in GHz (scales per-record compute costs).
    pub clock_ghz: f64,
}

impl NodeSpec {
    /// Physical cores on the node.
    pub fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }
}

/// A homogeneous cluster: a set of nodes and the interconnect joining them.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Cluster label used in reports (`frontera`, `stampede2`, `internal`).
    pub name: String,
    /// Node specifications; `NodeId` indexes this vector.
    pub nodes: Vec<NodeSpec>,
    /// The network joining the nodes.
    pub interconnect: Interconnect,
}

impl ClusterSpec {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Build a homogeneous cluster of `n` copies of `proto`.
    pub fn homogeneous(
        name: impl Into<String>,
        n: usize,
        proto: NodeSpec,
        interconnect: Interconnect,
    ) -> Self {
        let name = name.into();
        let nodes =
            (0..n).map(|i| NodeSpec { name: format!("{name}-{i:02}"), ..proto.clone() }).collect();
        ClusterSpec { name, nodes, interconnect }
    }

    /// TACC Frontera (paper Table III): Xeon Platinum 8280, 2 sockets × 28
    /// cores @ 2.7 GHz, 192 GB, no hyper-threading, InfiniBand HDR-100.
    /// The paper uses up to 18 nodes.
    pub fn frontera(n: usize) -> Self {
        Self::homogeneous(
            "frontera",
            n,
            NodeSpec {
                name: String::new(),
                sockets: 2,
                cores_per_socket: 28,
                threads_per_core: 1,
                clock_ghz: 2.7,
            },
            Interconnect::ib_hdr100(),
        )
    }

    /// TACC Stampede2 (paper Table III + §VII-D): Skylake 2 sockets × 24
    /// cores @ 2.1 GHz with 2 threads/core (48 cores / 96 threads per node,
    /// matching the paper's "384 cores — 768 threads" for 8 workers), 192 GB,
    /// Intel Omni-Path 100. Table III lists 28 cores/socket, which
    /// contradicts the paper's own core counts in §VII-D; we follow the
    /// operative numbers.
    pub fn stampede2(n: usize) -> Self {
        Self::homogeneous(
            "stampede2",
            n,
            NodeSpec {
                name: String::new(),
                sockets: 2,
                cores_per_socket: 24,
                threads_per_core: 2,
                clock_ghz: 2.1,
            },
            Interconnect::omni_path100(),
        )
    }

    /// OSU internal cluster (paper Table III): Xeon Broadwell, 2 sockets ×
    /// 14 cores @ 2.1 GHz, 128 GB, InfiniBand EDR-100, 2 nodes.
    pub fn internal(n: usize) -> Self {
        Self::homogeneous(
            "internal",
            n,
            NodeSpec {
                name: String::new(),
                sockets: 2,
                cores_per_socket: 14,
                threads_per_core: 1,
                clock_ghz: 2.1,
            },
            Interconnect::ib_edr100(),
        )
    }

    /// A small generic test cluster (4 cores per node, fast wire) for unit
    /// and integration tests that do not model a specific paper system.
    pub fn test(n: usize) -> Self {
        Self::homogeneous(
            "test",
            n,
            NodeSpec {
                name: String::new(),
                sockets: 1,
                cores_per_socket: 4,
                threads_per_core: 1,
                clock_ghz: 2.5,
            },
            Interconnect::ib_hdr100(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontera_matches_table_iii() {
        let c = ClusterSpec::frontera(18);
        assert_eq!(c.len(), 18);
        let n = &c.nodes[0];
        assert_eq!(n.sockets, 2);
        assert_eq!(n.cores_per_socket, 28);
        assert_eq!(n.cores(), 56);
        assert_eq!(n.threads_per_core, 1);
        assert!((n.clock_ghz - 2.7).abs() < 1e-9);
        assert_eq!(c.interconnect.name, "IB-HDR (100G)");
    }

    #[test]
    fn stampede2_matches_paper_core_counts() {
        let c = ClusterSpec::stampede2(10);
        let n = &c.nodes[0];
        // 8 workers => 384 cores / 768 threads as in §VII-D.
        assert_eq!(n.cores() * 8, 384);
        assert_eq!(n.cores() * n.threads_per_core * 8, 768);
        assert_eq!(c.interconnect.name, "OPA (100G)");
    }

    #[test]
    fn internal_matches_table_iii() {
        let c = ClusterSpec::internal(2);
        let n = &c.nodes[0];
        assert_eq!(n.cores(), 28);
        assert_eq!(c.interconnect.name, "IB-EDR (100G)");
    }

    #[test]
    fn homogeneous_names_nodes() {
        let c = ClusterSpec::test(3);
        assert_eq!(c.nodes[0].name, "test-00");
        assert_eq!(c.nodes[2].name, "test-02");
    }
}
