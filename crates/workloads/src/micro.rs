//! Intel HiBench micro benchmarks: Repartition and TeraSort (Table IV).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparklet::scheduler::SparkContext;
use sparklet::Blob;

/// Sizing for the micro benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// Partition count.
    pub partitions: usize,
    /// Real records per partition.
    pub records_per_partition: u64,
    /// Virtual bytes per record (TeraSort's canonical records are 100 B;
    /// HiBench Huge inflates volume — carried virtually here).
    pub record_bytes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl MicroConfig {
    /// HiBench-Huge-style sizing over `workers × cores` partitions with
    /// `gb_total` GiB of data.
    pub fn huge(workers: usize, cores_per_worker: u32, gb_total: u64) -> Self {
        let partitions = workers * cores_per_worker as usize;
        let per_part = (gb_total << 30) / partitions as u64;
        let records_per_partition = 64;
        MicroConfig {
            partitions,
            records_per_partition,
            record_bytes: (per_part / records_per_partition) as u32,
            seed: 0x41B0,
        }
    }
}

/// HiBench Repartition: "benchmarks shuffle performance" — a pure
/// all-to-all redistribution. Returns the (preserved) record count.
pub fn repartition_app(sc: &SparkContext, cfg: MicroConfig) -> u64 {
    let data = sc
        .generate(cfg.partitions, move |p| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ p as u64);
            (0..cfg.records_per_partition).map(|_| Blob::new(rng.gen(), cfg.record_bytes)).collect()
        })
        .cache();
    data.count();
    data.map_partitions(|ctx, recs| {
        // HiBench reads the input split from HDFS at the start of the map
        // stage (transport-independent I/O).
        let bytes: u64 = recs.iter().map(sparklet::Element::virtual_size).sum();
        ctx.services.net.disk_write(ctx.services.node, bytes);
        recs.into_vec()
    })
    .repartition(cfg.partitions)
    .map_partitions(|ctx, recs| {
        // HiBench writes the repartitioned output back to HDFS
        // (single-replica benchmark configuration).
        let bytes: u64 = recs.iter().map(sparklet::Element::virtual_size).sum();
        ctx.services.net.disk_write(ctx.services.node, bytes);
        recs.into_vec()
    })
    .count()
}

/// HiBench TeraSort: sort 100-byte-class records by key. Returns the
/// record count (the sort must preserve it; ordering is asserted by tests
/// via `collect`).
pub fn terasort_app(sc: &SparkContext, cfg: MicroConfig) -> u64 {
    let data = sc
        .generate(cfg.partitions, move |p| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64) << 7);
            (0..cfg.records_per_partition)
                .map(|_| {
                    (rng.gen::<u64>(), Blob::new(rng.gen(), cfg.record_bytes.saturating_sub(10)))
                })
                .collect::<Vec<(u64, Blob)>>()
        })
        .cache();
    data.count();
    data.map_partitions(|ctx, recs| {
        // HDFS input read for the map stage.
        let bytes: u64 = recs.iter().map(sparklet::Element::virtual_size).sum();
        ctx.services.net.disk_write(ctx.services.node, bytes);
        recs.into_vec()
    })
    .sort_by_key(cfg.partitions)
    .map_partitions(|ctx, recs| {
        let bytes: u64 = recs.iter().map(sparklet::Element::virtual_size).sum();
        // Canonical TeraSort sorts 100-byte records: charge the
        // comparison work for the *virtual* record population (the real
        // records here are few and huge).
        ctx.charge(ctx.cost().sort(bytes / 100, 0));
        // Output lands on HDFS with the default replication of 3.
        ctx.services.net.disk_write(ctx.services.node, bytes * 3);
        recs.into_vec()
    })
    .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use fabric::ClusterSpec;
    use sparklet::deploy::ClusterConfig;
    use sparklet::SparkConf;

    fn setup() -> (ClusterSpec, ClusterConfig, MicroConfig) {
        let spec = ClusterSpec::test(4);
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        conf.cost.task_overhead_ns = 10_000;
        let cfg = MicroConfig {
            partitions: 8,
            records_per_partition: 20,
            record_bytes: 1 << 12,
            seed: 11,
        };
        (spec.clone(), ClusterConfig::paper_layout(spec.len(), conf), cfg)
    }

    #[test]
    fn repartition_preserves_count() {
        let (spec, cluster, cfg) = setup();
        let out = System::Vanilla.run(&spec, cluster, move |sc| repartition_app(sc, cfg));
        assert_eq!(out.result, 160);
        assert_eq!(out.jobs.len(), 2);
    }

    #[test]
    fn terasort_preserves_count_and_orders() {
        let (spec, cluster, cfg) = setup();
        let out = System::Vanilla.run(&spec, cluster.clone(), move |sc| terasort_app(sc, cfg));
        assert_eq!(out.result, 160);
        // Ordering check on a collected variant.
        let out2 = System::Vanilla.run(&spec, cluster, move |sc| {
            let data = sc.generate(cfg.partitions, move |p| {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64) << 7);
                (0..cfg.records_per_partition)
                    .map(|_| (rng.gen::<u64>(), Blob::new(rng.gen(), 90)))
                    .collect::<Vec<(u64, Blob)>>()
            });
            data.sort_by_key(cfg.partitions).collect()
        });
        let keys: Vec<u64> = out2.result.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn huge_sizing_is_consistent() {
        let cfg = MicroConfig::huge(16, 56, 300);
        assert_eq!(cfg.partitions, 896);
        let total = cfg.partitions as u64 * cfg.records_per_partition * u64::from(cfg.record_bytes);
        assert!(total > 290 << 30 && total <= 300 << 30, "total={total}");
    }
}
