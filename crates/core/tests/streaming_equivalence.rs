//! Property: the chunk-granular streaming fetch path delivers byte-identical
//! shuffle data to a directly computed oracle, in both chunking modes
//! (`merge_chunks_per_request` on and off) on all three transports
//! (socket NIO, MPI-Basic, MPI-Optimized). The streamed per-chunk delivery
//! changes *when* results surface, never *what* they decode to.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use mpi4spark::Design;
use simt::sync::OnceCell;
use simt::{for_each_case, Sim};
use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;

fn conf(merge_chunks: bool) -> SparkConf {
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf.merge_chunks_per_request = merge_chunks;
    conf
}

fn canonical(mut v: Vec<(u64, Vec<u64>)>) -> Vec<(u64, Vec<u64>)> {
    for (_, vs) in v.iter_mut() {
        vs.sort_unstable();
    }
    v.sort_by_key(|(k, _)| *k);
    v
}

/// Run the group-by workload on one transport/chunking combination.
fn run_grouping(
    design: Option<Design>,
    merge_chunks: bool,
    pairs: Vec<(u64, u64)>,
    parts: usize,
    reduces: usize,
) -> Vec<(u64, Vec<u64>)> {
    let spec = ClusterSpec::test(5);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf(merge_chunks));
    let app = move |sc: &sparklet::scheduler::SparkContext| {
        sc.parallelize(pairs, parts).group_by_key(reduces).collect()
    };
    match design {
        None => {
            let (r, _) = sparklet::deploy::simulate(
                &spec,
                cluster,
                Arc::new(sparklet::VanillaBackend::with_conf(&conf(merge_chunks))),
                Arc::new(sparklet::ProcessBuilderLauncher),
                app,
            );
            r
        }
        Some(design) => {
            let sim = Sim::new();
            let out: OnceCell<(Vec<(u64, Vec<u64>)>, Vec<sparklet::JobMetrics>)> = OnceCell::new();
            let out2 = out.clone();
            sim.spawn("launcher", move || {
                let net = Net::new(&spec);
                out2.put(mpi4spark::run_app(&net, &cluster, design, app));
            });
            sim.run().unwrap().assert_clean();
            let (r, _) = out.try_take().expect("app finished");
            sim.shutdown();
            r
        }
    }
}

#[test]
fn streamed_chunks_decode_identically_on_every_transport() {
    for_each_case(3, |rng| {
        let n = rng.next_range(1, 100);
        let pairs: Vec<(u64, u64)> =
            (0..n).map(|_| (rng.next_range(0, 12), rng.next_range(0, 1_000_000_000))).collect();
        let parts = rng.next_range(2, 7) as usize;
        let reduces = rng.next_range(2, 6) as usize;

        let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (k, v) in &pairs {
            oracle.entry(*k).or_default().push(*v);
        }
        let expected = canonical(oracle.into_iter().collect());

        for design in [None, Some(Design::Basic), Some(Design::Optimized)] {
            for merge_chunks in [true, false] {
                let got =
                    canonical(run_grouping(design, merge_chunks, pairs.clone(), parts, reduces));
                assert_eq!(
                    got, expected,
                    "transport {design:?} merge_chunks={merge_chunks} diverged from oracle"
                );
            }
        }
    });
}
