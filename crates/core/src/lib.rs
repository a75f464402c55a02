//! # mpi4spark — MPI communication inside the Spark framework
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! * **Launching Spark in an MPI environment** (challenge 1, §V): the
//!   [`launch`] module is the Java-wrapper-program analog. `mpiexec` starts
//!   W+2 wrapper ranks — ranks `0..W` become workers, rank `W` the master,
//!   rank `W+1` the driver (paper Fig. 3, Steps A/B) — each of which runs
//!   its Spark process and a DPM agent.
//! * **Dynamically launching executors** (challenge 3, §V): the
//!   [`launch::DpmLauncher`] replaces Spark's `ProcessBuilder`. Executor
//!   launch arguments are exchanged with `MPI_Allgather` across
//!   `MPI_COMM_WORLD` and the executors are spawned collectively with
//!   `MPI_Comm_spawn_multiple` (Fig. 3 Step C); executors share the child
//!   world (`DPM_COMM`) and reach their parents through the
//!   intercommunicator.
//! * **Event-driven vs. application-driven engines** (challenge 2) and
//!   **process naming** (challenge 4, §VI-B): the [`transport`] module keeps
//!   Netty's connection establishment and exchanges the MPI rank plus a
//!   communicator-type byte during it, mapping each `ChannelId` to an
//!   `(rank, communicator)` pair.
//! * **The two designs** (§VI-D/§VI-E):
//!   [`transport::MpiTransportBasic`] moves *every* message over MPI and
//!   models the polling selector loop (non-blocking `select` + `MPI_Iprobe`)
//!   that burns CPU; [`transport::MpiTransportOptimized`] parses headers in
//!   a channel handler and moves only `ChunkFetchSuccess` and
//!   `StreamResponse` bodies over MPI — headers stay on the socket path.

#![forbid(unsafe_code)]

pub mod backend;
pub mod ctx;
pub mod launch;
mod route;
pub mod transport;

pub use backend::{Design, MpiBackend};
pub use ctx::MpiProcCtx;
pub use launch::{run_app, run_app_with_backend, DpmLauncher};
