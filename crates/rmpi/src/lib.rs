//! # rmpi — an MPI-analog message passing library
//!
//! Stands in for MVAPICH2-X plus the paper's custom Java bindings (§VI-A).
//! It reproduces the MPI facilities MPI4Spark depends on:
//!
//! * **SPMD launch** — [`launch::mpiexec`] starts N ranks on cluster nodes,
//!   each as a simulated process with a `MPI_COMM_WORLD` handle
//!   (paper challenge 1, §III).
//! * **Point-to-point** — `send`/`recv`/`isend`/`irecv` with `(communicator,
//!   source, tag)` matching in post order and an unexpected-message queue;
//!   a [`Request`] is completed by `wait`, `wait_timeout` (a bounded
//!   receive), [`waitall`], or their continuation forms `wait_then` and
//!   `wait_timeout_then`: no thread waits, the message is handed to a
//!   closure on the engine (the Basic design's receive loop and the Optimized
//!   design's header-triggered body receives, §VI-D/E).
//! * **Collectives** — `bcast`, `gather`, `allgather` (used to
//!   exchange executor launch specifications, §V), `allreduce`.
//! * **Dynamic Process Management** — [`Comm::spawn_multiple`] mirrors
//!   `MPI_Comm_spawn_multiple()`: spawned children share a fresh child
//!   world (the paper's `DPM_COMM`) and talk to their parents through an
//!   intercommunicator (paper challenge 3 and Fig. 3 Step C).
//!
//! Deviations from real MPI, all documented in `DESIGN.md`: tags are `u64`
//! (we use them to encode channel ids), payloads are [`fabric::Payload`]
//! values rather than typed buffers, and `isend` has buffered-send
//! semantics (completion on return).

#![forbid(unsafe_code)]

pub mod coll;
pub mod comm;
pub mod dpm;
pub mod launch;
pub mod proc;
pub mod types;

pub use comm::{waitall, Comm, Request};
pub use dpm::SpawnSpec;
pub use launch::{mpiexec, mpiexec_with, Universe};
pub use types::{CommId, MpiError, ProcId, Status, ANY_SOURCE, ANY_TAG};
