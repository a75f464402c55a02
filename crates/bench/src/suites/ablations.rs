//! The fetch-batching ablation: an OHB GroupBy cell swept over Spark's
//! shuffle-fetch knobs under Vanilla and MPI4Spark.

use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;
use workloads::ohb::{group_by_app, OhbConfig};
use workloads::System;

use crate::record::{x1000, Run};
use crate::Scale;

/// Shuffle fetch batching: the in-flight byte cap of the
/// `ShuffleBlockFetcherIterator` (`spark.reducer.maxSizeInFlight`) and the
/// chunk-per-block vs merged-chunk protocol mode, showing how request
/// windowing interacts with each transport's per-message overhead.
pub fn ablation_batching(run: &mut Run<'_>) {
    let (workers, cores, gb) = if run.scale == Scale::Full { (4, 56, 14) } else { (2, 4, 1) };
    let mut sweep = |knob: &str, value: String, conf: SparkConf| {
        let spec = crate::frontera_cluster(workers);
        let mut vanilla = None;
        for system in [System::Vanilla, System::Mpi4Spark] {
            let cluster = ClusterConfig::paper_layout(spec.len(), conf);
            let cfg = OhbConfig::paper(workers, cores, gb);
            let total = system.run(&spec, cluster, move |sc| group_by_app(sc, cfg)).total_ns();
            let base = *vanilla.get_or_insert(total);
            let cell = [
                ("knob", knob.to_string()),
                ("value", value.clone()),
                ("system", system.label().to_string()),
            ];
            run.emit(&cell, total, vec![("total_vs_ipoib_x1000", x1000(base, total))]);
        }
    };
    for mb in [12u64, 24, 48, 96, 192] {
        let mut conf = SparkConf::paper_defaults(cores);
        conf.max_bytes_in_flight = mb << 20;
        sweep("maxBytesInFlight", format!("{mb}MB"), conf);
    }
    for merged in [true, false] {
        let mut conf = SparkConf::paper_defaults(cores);
        conf.merge_chunks_per_request = merged;
        let mode = if merged { "merged-per-request" } else { "chunk-per-block" };
        sweep("chunk-granularity", mode.to_string(), conf);
    }
}
