//! # sparklet — an in-memory Big Data engine (Apache Spark analog)
//!
//! The substrate MPI4Spark modifies. Reproduces the Spark machinery the
//! paper's evaluation exercises:
//!
//! * **RDDs** with narrow (map/filter/flatMap) and wide (groupByKey,
//!   reduceByKey, sortByKey, repartition, cogroup/join) dependencies, plus
//!   caching — see [`rdd`].
//! * **DAG scheduling** into `ShuffleMapStage`s and `ResultStage`s with
//!   per-stage timing breakdowns matching the paper's Fig. 10/11 reporting
//!   (`Job0-ResultStage` datagen, `Job1-ShuffleMapStage` shuffle write,
//!   `Job1-ResultStage` shuffle read) — see [`scheduler`].
//! * **The shuffle**: sort-based writer, `MapOutputTracker`,
//!   `ShuffleBlockFetcherIterator` with `maxBytesInFlight` batching, and a
//!   pluggable [`transfer::BlockTransferService`] over netz — the exact
//!   message flow of the paper's Fig. 4.
//! * **Deployment**: master / worker / executor / driver processes over an
//!   RPC environment, with pluggable [`net_backend::NetworkBackend`]
//!   (which stack the control plane and shuffle plane use) and
//!   [`deploy::ExecutorLauncher`] (how workers fork executors — the seam
//!   where MPI4Spark substitutes DPM for `ProcessBuilder`, paper §V).
//!
//! Simulation shortcuts (documented in `DESIGN.md`): processes share one
//! address space, so task closures travel as `Arc`s and control-plane
//! messages as typed values with declared wire sizes; data-plane payloads
//! use real encoded bytes with independently scalable *virtual* sizes.

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod config;
pub mod data;
pub mod deploy;
pub mod net_backend;
pub mod rdd;
pub mod rpc;
pub mod scheduler;
pub mod shuffle;
pub mod storage;
pub mod task;
pub mod transfer;

pub use broadcast::Broadcast;
pub use config::{CostModel, SparkConf};
pub use data::{Blob, Element};
pub use deploy::{ClusterConfig, ExecutorLauncher, ProcessBuilderLauncher};
pub use net_backend::{NetworkBackend, Plane, PlaneDesc, ProcIdentity, Role, VanillaBackend};
pub use rdd::Rdd;
pub use scheduler::{JobMetrics, StageMetrics};
