//! Runner for the OHB RDD benchmark cells (Figs. 9, 10, 11).

use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;
use workloads::ohb::{group_by_app, sort_by_app, OhbConfig, StageBreakdown};
use workloads::System;

/// Which OHB benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OhbBench {
    /// GroupByTest.
    GroupBy,
    /// SortByTest.
    SortBy,
}

impl OhbBench {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OhbBench::GroupBy => "GroupByTest",
            OhbBench::SortBy => "SortByTest",
        }
    }
}

/// One experiment cell's outcome.
#[derive(Debug, Clone)]
pub struct OhbCell {
    /// Stage breakdown (paper Fig. 10/11 bars).
    pub breakdown: StageBreakdown,
    /// Total virtual runtime over all jobs.
    pub total_ns: u64,
    /// Workload sanity value (group/record count).
    pub check: u64,
    /// Chrome-trace timeline JSON when the cell ran with `trace`.
    pub timeline: Option<String>,
    /// The run's counters, the engine's own (`obs::keys::SIMT_*`) included.
    pub metrics: obs::MetricsSnapshot,
}

/// Run one OHB cell: `bench` under `system` on a Frontera-like cluster of
/// `workers` workers with `cores` cores and `gb_per_worker` GiB of generated
/// data each. `trace` records the deterministic timeline; it costs host
/// memory only, never virtual time, so the reported figures are unchanged.
pub fn run_cell(
    system: System,
    bench: OhbBench,
    workers: usize,
    cores: u32,
    gb_per_worker: u64,
    trace: bool,
) -> OhbCell {
    let spec = crate::frontera_cluster(workers);
    let mut conf = SparkConf::paper_defaults(cores);
    conf.trace_timeline = trace;
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    assert_eq!(cluster.worker_nodes.len(), workers);
    let cfg = OhbConfig::paper(workers, cores, gb_per_worker);
    let out = match bench {
        OhbBench::GroupBy => system.run(&spec, cluster, move |sc| group_by_app(sc, cfg)),
        OhbBench::SortBy => system.run(&spec, cluster, move |sc| sort_by_app(sc, cfg)),
    };
    OhbCell {
        breakdown: StageBreakdown::from_jobs(&out.jobs),
        total_ns: out.total_ns(),
        check: out.result,
        timeline: out.timeline,
        metrics: out.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groupby_ordering_holds_at_small_scale() {
        let van = run_cell(System::Vanilla, OhbBench::GroupBy, 2, 4, 1, false);
        let rdma = run_cell(System::RdmaSpark, OhbBench::GroupBy, 2, 4, 1, false);
        let mpi = run_cell(System::Mpi4Spark, OhbBench::GroupBy, 2, 4, 1, false);
        assert!(van.breakdown.shuffle_read_ns > rdma.breakdown.shuffle_read_ns);
        assert!(rdma.breakdown.shuffle_read_ns > mpi.breakdown.shuffle_read_ns);
        assert!(van.total_ns > mpi.total_ns);
    }
}
