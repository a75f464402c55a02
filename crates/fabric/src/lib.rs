//! # fabric — simulated cluster hardware and communication cost models
//!
//! This crate stands in for the physical testbeds of the MPI4Spark paper
//! (Table III): TACC Frontera (InfiniBand HDR-100), TACC Stampede2
//! (Omni-Path 100), and OSU's internal Xeon Broadwell cluster (IB EDR-100).
//!
//! It provides three layers:
//!
//! * [`cluster`] — node and cluster specifications with presets matching the
//!   paper's Table III.
//! * [`model`] — the *wire* (interconnect latency/bandwidth) and the
//!   *software stack* cost models. The paper's entire result is a statement
//!   about software stacks on identical wires: Java sockets over IPoIB
//!   (Vanilla Spark), RDMA verbs (RDMA-Spark's UCR), and native MPI
//!   (MPI4Spark / MVAPICH2-X). Calibration rationale lives in
//!   `EXPERIMENTS.md`.
//! * [`net`] — the runtime: per-node CPUs (processor sharing), per-NIC
//!   egress/ingress link occupancy (models shuffle incast), message delivery
//!   with virtual-size payloads, and typed ports.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod model;
pub mod net;
pub mod payload;

pub use chaos::{FaultPlan, Verdict};
pub use cluster::{ClusterSpec, NodeId, NodeSpec};
pub use model::{FabricKind, Interconnect, StackModel, Wire};
pub use net::{Net, NextPacket, Packet, PortAddr};
pub use payload::Payload;
