//! Workspace umbrella crate for the MPI4Spark reproduction.
//!
//! Re-exports the member crates so examples and integration tests can use a
//! single dependency root. See `README.md` for the architecture overview.

#![forbid(unsafe_code)]

pub use fabric;
pub use mpi4spark;
pub use netz;
pub use rdma_spark;
pub use rmpi;
pub use simt;
pub use sparklet;
pub use workloads;
