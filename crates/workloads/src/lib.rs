//! # workloads — the paper's benchmark suites (Table IV)
//!
//! | Suite | Workload | Module | Category |
//! |---|---|---|---|
//! | OHB | GroupByTest | [`ohb`] | RDD benchmark |
//! | OHB | SortByTest | [`ohb`] | RDD benchmark |
//! | HiBench | Repartition | [`micro`] | Micro benchmark |
//! | HiBench | TeraSort | [`micro`] | Micro benchmark |
//! | HiBench | NWeight | [`graph`] | Graph processing |
//! | HiBench | LR / SVM / GMM / LDA | [`ml`] | Machine learning |
//!
//! [`system::System`] is the unified runner: the same workload closure runs
//! under Vanilla Spark, RDMA-Spark, MPI4Spark-Basic, or
//! MPI4Spark-Optimized on identical simulated hardware.

#![forbid(unsafe_code)]

pub mod graph;
pub mod micro;
pub mod ml;
pub mod ohb;
pub mod system;

pub use system::{spawn_census, RunOutcome, System};
