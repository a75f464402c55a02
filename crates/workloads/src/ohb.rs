//! OSU HiBD Benchmarks (OHB) RDD workloads: GroupByTest and SortByTest.
//!
//! Structure mirrors the paper's description of the stage breakdown
//! (§VII-C): job 0 generates and caches the key/value data
//! (`Job0-ResultStage`), the action job then writes the shuffle
//! (`Job{N}-ShuffleMapStage`, to RAM disk in the paper, to the block
//! manager here) and reads it back (`Job{N}-ResultStage`, "where the heavy
//! communication takes place"). SortByTest inserts a sampling job for the
//! range partitioner, which is why its breakdown names Job2 where
//! GroupByTest names Job1 — exactly as in the paper's Fig. 10.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparklet::scheduler::{JobMetrics, SparkContext};
use sparklet::{Blob, Rdd};

/// Sizing for an OHB RDD benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct OhbConfig {
    /// Partition count (the paper sets this to total cores).
    pub partitions: usize,
    /// Real records materialized per partition (virtual payloads carry the
    /// declared data volume).
    pub records_per_partition: u64,
    /// Virtual bytes per value.
    pub value_bytes: u32,
    /// Distinct keys.
    pub key_range: u64,
    /// RNG seed.
    pub seed: u64,
}

impl OhbConfig {
    /// Paper-style sizing: `gb_per_worker` GiB per worker (weak scaling
    /// uses 14 GB/worker), one partition per core, a fixed number of real
    /// records per partition carrying the volume virtually.
    pub fn paper(workers: usize, cores_per_worker: u32, gb_per_worker: u64) -> Self {
        let partitions = workers * cores_per_worker as usize;
        let total_bytes = (gb_per_worker << 30) * workers as u64;
        let per_partition = total_bytes / partitions as u64;
        let records_per_partition = 64;
        OhbConfig {
            partitions,
            records_per_partition,
            value_bytes: (per_partition / records_per_partition) as u32,
            key_range: (partitions as u64 * records_per_partition) / 4,
            seed: 0x05B_05B,
        }
    }

    /// Total virtual bytes generated.
    pub fn total_bytes(&self) -> u64 {
        self.partitions as u64 * self.records_per_partition * u64::from(self.value_bytes)
    }
}

/// Partition `p` of [`generate_kv`]'s dataset: per record one key draw and
/// one blob-id draw from the partition's seeded stream.
fn kv_partition(cfg: OhbConfig, p: usize) -> impl Iterator<Item = (u64, Blob)> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64).wrapping_mul(0x9E37_79B9));
    (0..cfg.records_per_partition)
        .map(move |_| (rng.gen_range(0..cfg.key_range), Blob::new(rng.gen(), cfg.value_bytes)))
}

/// Generate and cache the key/value dataset; runs job 0 (datagen count).
pub fn generate_kv(sc: &SparkContext, cfg: OhbConfig) -> Rdd<(u64, Blob)> {
    let data = sc.generate(cfg.partitions, move |p| kv_partition(cfg, p).collect()).cache();
    let n = data.count();
    debug_assert_eq!(n, cfg.partitions as u64 * cfg.records_per_partition);
    data
}

/// Distinct keys of [`generate_kv`]'s dataset, replayed from the seed without
/// running a job: what a correct [`group_by_app`] returns.
pub fn distinct_keys(cfg: OhbConfig) -> u64 {
    let mut seen = vec![false; cfg.key_range as usize];
    for p in 0..cfg.partitions {
        kv_partition(cfg, p).for_each(|(key, _)| seen[key as usize] = true);
    }
    seen.iter().filter(|s| **s).count() as u64
}

/// OHB GroupByTest: datagen job + `groupByKey().count()` job.
/// Returns the number of groups.
pub fn group_by_app(sc: &SparkContext, cfg: OhbConfig) -> u64 {
    let data = generate_kv(sc, cfg);
    data.group_by_key(cfg.partitions).count()
}

/// OHB SortByTest: datagen job + sampling job + `sortByKey().count()` job.
/// Returns the record count (which the sort must preserve).
pub fn sort_by_app(sc: &SparkContext, cfg: OhbConfig) -> u64 {
    let data = generate_kv(sc, cfg);
    data.sort_by_key(cfg.partitions).count()
}

/// The paper's Fig. 10/11 stage breakdown, extracted from job metrics.
#[derive(Debug, Clone, Copy)]
pub struct StageBreakdown {
    /// `Job0-ResultStage`: data generation.
    pub datagen_ns: u64,
    /// `Job{N}-ShuffleMapStage`: shuffle write.
    pub shuffle_write_ns: u64,
    /// `Job{N}-ResultStage`: shuffle read ("the heavy communication").
    pub shuffle_read_ns: u64,
    /// Everything else (SortBy's sampling job).
    pub other_ns: u64,
}

impl StageBreakdown {
    /// Extract the breakdown from a run's job metrics (job 0 = datagen,
    /// last job = the shuffle action, anything between = sampling etc.).
    pub fn from_jobs(jobs: &[JobMetrics]) -> Self {
        assert!(jobs.len() >= 2, "need datagen + action jobs");
        let datagen_ns = jobs[0].duration_ns();
        let action = jobs.last().unwrap();
        let shuffle_write_ns = action.stage_duration("ShuffleMapStage").unwrap_or(0);
        let shuffle_read_ns = action.stage_duration("ResultStage").unwrap_or(0);
        let other_ns: u64 = jobs[1..jobs.len() - 1].iter().map(JobMetrics::duration_ns).sum();
        StageBreakdown { datagen_ns, shuffle_write_ns, shuffle_read_ns, other_ns }
    }

    /// Total across accounted stages.
    pub fn total_ns(&self) -> u64 {
        self.datagen_ns + self.shuffle_write_ns + self.shuffle_read_ns + self.other_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use fabric::ClusterSpec;
    use sparklet::deploy::ClusterConfig;
    use sparklet::SparkConf;

    fn tiny() -> OhbConfig {
        OhbConfig {
            partitions: 8,
            records_per_partition: 24,
            value_bytes: 1 << 14,
            key_range: 40,
            seed: 7,
        }
    }

    fn cluster() -> (ClusterSpec, ClusterConfig) {
        let spec = ClusterSpec::test(4); // 2 workers
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        conf.cost.task_overhead_ns = 10_000;
        (spec.clone(), ClusterConfig::paper_layout(spec.len(), conf))
    }

    #[test]
    fn paper_sizing_matches_totals() {
        let cfg = OhbConfig::paper(8, 56, 14);
        assert_eq!(cfg.partitions, 448);
        // 8 workers × 14 GiB each.
        let expect = 8u64 * (14 << 30);
        let got = cfg.total_bytes();
        assert!((got as i64 - expect as i64).unsigned_abs() < expect / 100, "{got} vs {expect}");
    }

    #[test]
    fn group_by_counts_groups() {
        let (spec, cluster) = cluster();
        let cfg = tiny();
        let out = System::Vanilla.run(&spec, cluster, move |sc| group_by_app(sc, cfg));
        // With 192 records over 40 keys nearly all keys appear.
        assert!(out.result > 30, "groups = {}", out.result);
        assert_eq!(out.result, distinct_keys(cfg));
        let b = StageBreakdown::from_jobs(&out.jobs);
        assert!(b.datagen_ns > 0 && b.shuffle_write_ns > 0 && b.shuffle_read_ns > 0);
        assert_eq!(out.jobs.len(), 2);
    }

    #[test]
    fn sort_by_preserves_count_and_adds_sampling_job() {
        let (spec, cluster) = cluster();
        let cfg = tiny();
        let out = System::Vanilla.run(&spec, cluster, move |sc| sort_by_app(sc, cfg));
        assert_eq!(out.result, 8 * 24);
        assert_eq!(out.jobs.len(), 3, "datagen + sample + sort");
        // Paper naming: the sort job is Job2.
        assert!(out.jobs[2].stages.iter().any(|s| s.name.starts_with("Job2-")));
    }

    #[test]
    fn datagen_is_deterministic_per_seed() {
        let (spec, cluster) = cluster();
        let cfg = tiny();
        let a = System::Vanilla.run(&spec, cluster.clone(), move |sc| group_by_app(sc, cfg));
        let b = System::Vanilla.run(&spec, cluster, move |sc| group_by_app(sc, cfg));
        assert_eq!(a.result, b.result);
        assert_eq!(a.total_ns(), b.total_ns());
    }
}
