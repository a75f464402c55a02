//! Intel HiBench graph workload: NWeight — "computes associations between
//! two vertices that are n-hop away" (Table IV).
//!
//! Path weights propagate by iterated join: paths of length *k* ending at
//! vertex *v* join the adjacency list of *v* to form length-*k+1* paths,
//! with per-(origin, destination) weights combined by summation of path
//! products. Each hop is a join (two shuffles) plus a reduceByKey — the
//! multi-shuffle-per-iteration pattern that makes NWeight communication
//! heavy in HiBench.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparklet::scheduler::SparkContext;
use sparklet::{Blob, Rdd};

/// NWeight sizing.
#[derive(Debug, Clone, Copy)]
pub struct NWeightConfig {
    /// Vertex count.
    pub vertices: u64,
    /// Out-degree per vertex.
    pub degree: usize,
    /// Path length (HiBench default is 3 hops).
    pub hops: usize,
    /// Partition count.
    pub partitions: usize,
    /// Virtual padding carried per path record (models HiBench's row
    /// metadata; keeps the shuffle volume paper-scale without real bytes).
    pub payload_pad: u32,
    /// RNG seed.
    pub seed: u64,
}

/// One weighted path/edge endpoint record.
type PathRecord = (u64, ((u64, f64), Blob));

/// Build the adjacency RDD keyed by source: `(src, ((dst, weight), pad))`.
pub fn adjacency(sc: &SparkContext, cfg: NWeightConfig) -> Rdd<PathRecord> {
    let per_part = cfg.vertices / cfg.partitions as u64;
    sc.generate(cfg.partitions, move |p| {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64) << 13);
        let lo = p as u64 * per_part;
        let hi = if p + 1 == cfg.partitions { cfg.vertices } else { lo + per_part };
        let mut out = Vec::with_capacity(((hi - lo) as usize) * cfg.degree);
        for v in lo..hi {
            for _ in 0..cfg.degree {
                let dst = rng.gen_range(0..cfg.vertices);
                let w: f64 = rng.gen_range(0.1..1.0);
                out.push((v, ((dst, w), Blob::new(v ^ dst, cfg.payload_pad))));
            }
        }
        out
    })
}

/// Run NWeight: returns the number of distinct (origin, destination) pairs
/// with a non-zero n-hop association.
pub fn nweight_app(sc: &SparkContext, cfg: NWeightConfig) -> u64 {
    let adj = adjacency(sc, cfg).cache();
    adj.count(); // job 0: datagen

    // Length-1 paths keyed by their endpoint: (end, ((origin, weight), pad)).
    let mut paths: Rdd<PathRecord> = adj.map(|(src, ((dst, w), b))| (dst, ((src, w), b)));

    for _hop in 1..cfg.hops {
        // Join paths ending at v with v's out-edges.
        let joined = paths.join(&adj.clone(), cfg.partitions);
        // Extend: new endpoint = edge dst; weight = product.
        let extended: Rdd<((u64, u64), (f64, Blob))> =
            joined.map(move |(_via, (((origin, w1), b), ((dst, w2), _b2)))| {
                ((origin, dst), (w1 * w2, b))
            });
        // Combine parallel paths per (origin, destination).
        let combined = extended
            .map(|(k, (w, b))| (k, (w, b)))
            .reduce_by_key(cfg.partitions, |(w1, b), (w2, _)| (w1 + w2, b));
        paths = combined.map(|((origin, dst), (w, b))| (dst, ((origin, w), b)));
    }
    paths
        .map(|(dst, ((origin, w), _b))| ((origin, dst), w))
        .reduce_by_key(cfg.partitions, |a, b| a + b)
        .filter(|(_, w)| *w > 0.0)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use fabric::ClusterSpec;
    use sparklet::deploy::ClusterConfig;
    use sparklet::SparkConf;

    fn setup() -> (ClusterSpec, ClusterConfig) {
        let spec = ClusterSpec::test(4);
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        conf.cost.task_overhead_ns = 10_000;
        (spec.clone(), ClusterConfig::paper_layout(spec.len(), conf))
    }

    #[test]
    fn two_hop_associations_exist_and_are_bounded() {
        let (spec, cluster) = setup();
        let cfg = NWeightConfig {
            vertices: 60,
            degree: 3,
            hops: 2,
            partitions: 6,
            payload_pad: 256,
            seed: 3,
        };
        let out = System::Vanilla.run(&spec, cluster, move |sc| nweight_app(sc, cfg));
        // At most degree^2 × V distinct 2-hop pairs; at least some exist.
        assert!(out.result > 0);
        assert!(out.result <= 60 * 9, "pairs = {}", out.result);
        // Each hop adds shuffles: expect several jobs.
        assert!(out.jobs.len() >= 2);
    }

    #[test]
    fn one_hop_equals_edge_pairs() {
        let (spec, cluster) = setup();
        let cfg = NWeightConfig {
            vertices: 40,
            degree: 2,
            hops: 1,
            partitions: 4,
            payload_pad: 64,
            seed: 9,
        };
        let out = System::Vanilla.run(&spec, cluster, move |sc| nweight_app(sc, cfg));
        // 40 vertices × 2 edges = 80 directed pairs, minus duplicate
        // (src,dst) collisions from the random generator.
        assert!(out.result > 40 && out.result <= 80, "pairs = {}", out.result);
    }
}
