//! The §VI design ablations, each an OHB GroupBy cell swept over one knob.

use std::sync::Arc;

use fabric::Net;
use mpi4spark::transport::BasicTuning;
use mpi4spark::{Design, MpiBackend};
use netz::RoutePolicy;
use simt::sync::OnceCell;
use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;
use workloads::ohb::{group_by_app, OhbConfig};
use workloads::System;

use crate::ohb_runner::OhbBench;
use crate::record::{x1000, Run};
use crate::Scale;

/// GroupBy under MPI4Spark-Basic with `tuning`; total virtual ns.
fn run_basic_with(tuning: BasicTuning, workers: usize, cores: u32, gb: u64) -> u64 {
    let spec = crate::frontera_cluster(workers);
    let conf = SparkConf::paper_defaults(cores);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let cfg = OhbConfig::paper(workers, cores, gb);
    let sim = simt::Sim::new();
    let out: OnceCell<u64> = OnceCell::new();
    let out2 = out.clone();
    sim.spawn("launcher", move || {
        let net = Net::new(&spec);
        let backend = Arc::new(MpiBackend::new(Design::Basic).with_basic_tuning(tuning));
        let (_r, jobs) =
            mpi4spark::launch::run_app_with_backend(&net, &cluster, backend, move |sc| {
                group_by_app(sc, cfg)
            });
        out2.put(jobs.iter().map(|j| j.duration_ns()).sum());
    });
    sim.run().expect("sim").assert_clean();
    let v = out.try_take().expect("done");
    sim.shutdown();
    v
}

/// The Basic design's polling cost (§VI-D / §VII-B), the mechanism behind
/// Fig. 9: as the modeled selector spin and per-message probe burn more CPU,
/// Basic's runtime degrades while Optimized (no spinning) is unaffected.
pub fn ablation_polling(run: &mut Run<'_>) {
    let (workers, cores, gb) = if run.scale == Scale::Full { (2, 56, 14) } else { (2, 4, 1) };
    for load in [0.0, 2.0, 4.0, 8.0, 16.0] {
        let tuning = BasicTuning { poll_load_per_endpoint: load, ..Default::default() };
        let cell = [("knob", "spin-load".to_string()), ("value", format!("{load:.0}"))];
        run.emit(&cell, run_basic_with(tuning, workers, cores, gb), vec![]);
    }
    for poll_ns in [0u64, 3_000, 6_000, 12_000, 24_000] {
        let tuning = BasicTuning { per_message_poll_ns: poll_ns, ..Default::default() };
        let cell = [("knob", "probe-cost".to_string()), ("value", format!("{}us", poll_ns / 1000))];
        run.emit(&cell, run_basic_with(tuning, workers, cores, gb), vec![]);
    }
}

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
        conf.target_request_size = conf.max_bytes_in_flight / 5;
        sweep("maxBytesInFlight", format!("{mb}MB"), conf);
    }
    for merged in [true, false] {
        let mut conf = SparkConf::paper_defaults(cores);
        conf.merge_chunks_per_request = merged;
        let mode = if merged { "merged-per-request" } else { "chunk-per-block" };
        sweep("chunk-granularity", mode.to_string(), conf);
    }
}

/// Which message types ride MPI (§VI-E). The Optimized design sends only
/// `ChunkFetchSuccess` and `StreamResponse` bodies over MPI, keeping headers
/// and small RPCs on the socket path; the policy is plain backend data, so
/// each variant is a flag flip.
pub fn ablation_routing(run: &mut Run<'_>) {
    let (cores, gb, workers) = (run.scale.frontera_cores(), run.scale.gb(14), run.scale.workers(4));
    let cell = |run: &Run<'_>, policy| {
        super::ohb_cell(run, System::Mpi4Spark, OhbBench::GroupBy, workers, cores, gb, Some(policy))
    };
    let baseline = cell(run, RoutePolicy::SHUFFLE_BODIES).breakdown.shuffle_read_ns;
    for policy in [
        RoutePolicy::NONE,
        RoutePolicy::CHUNK_BODIES,
        RoutePolicy::SHUFFLE_BODIES,
        RoutePolicy::ALL_BODIES,
    ] {
        let c = cell(run, policy);
        let read = c.breakdown.shuffle_read_ns;
        let values = vec![
            ("shuffle_read_ns", read as i64),
            ("read_vs_shuffle_bodies_x1000", x1000(read, baseline)),
        ];
        run.emit(&[("policy", policy.flag_name().to_string())], c.total_ns, values);
    }
}
