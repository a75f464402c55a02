//! The four workloads: their frozen sizes, their apps (with a harness span
//! around each `Rdd` action) and their oracles. Sizes are part of the
//! benchmark's definition; `--seed` only feeds the data generators.

use fabric::ClusterSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::{JobMetrics, SparkContext};
use sparklet::SparkConf;
use workloads::ml::{lr_app, MlConfig};
use workloads::ohb::{generate_kv, OhbConfig};

use crate::spans::Recorder;

pub const NAMES: [&str; 4] = ["shuffle_bulk", "shuffle_fanin", "iter_ml", "shuffle_realdata"];

#[derive(Debug, Clone, Copy)]
pub enum App {
    /// OHB GroupByTest: a datagen job, then `groupByKey().count()`.
    GroupBy(OhbConfig),
    /// HiBench LR: a datagen job, then one job per iteration.
    Lr(MlConfig),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub workers: usize,
    pub cores: u32,
    pub app: App,
}

impl Workload {
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let (workers, cores, app) = match name {
            // The paper's Fig. 9 cell: 56 GiB over 224 cores, ~1.1 MiB blocks.
            "shuffle_bulk" => {
                (4, 56, App::GroupBy(OhbConfig { seed, ..OhbConfig::paper(4, 56, 14) }))
            }
            // Many workers, small blocks: 64 partitions of 4 MiB, 64 KiB blocks.
            "shuffle_fanin" => {
                let cfg = OhbConfig { value_bytes: 64 << 10, seed, ..OhbConfig::paper(32, 2, 1) };
                (32, 2, App::GroupBy(cfg))
            }
            // The values of LR's data do not move its virtual time, so the seed
            // also draws the size of the partial aggregates (1 MiB ± 0.5 %): as
            // on the other workloads, no two seeds then time the same.
            "iter_ml" => {
                let pad_bytes = SmallRng::seed_from_u64(seed).gen_range(1_043_333u64..1_053_820);
                let cfg = MlConfig {
                    partitions: 8 * 8,
                    samples_per_partition: 128,
                    virtual_samples_per_partition: 270_000,
                    dim: 12,
                    iterations: 60,
                    agg_partitions: 8,
                    pad_bytes: pad_bytes as u32,
                    seed,
                };
                (8, 8, App::Lr(cfg))
            }
            // Real records instead of virtual volume: 200 k per partition, the
            // partition's virtual size as in the 1 GiB/worker paper cell.
            _ => {
                let paper = OhbConfig::paper(4, 4, 1);
                let records = 200_000;
                let per_partition = paper.records_per_partition * u64::from(paper.value_bytes);
                let cfg = OhbConfig {
                    records_per_partition: records,
                    value_bytes: (per_partition / records) as u32,
                    key_range: paper.partitions as u64 * records / 4,
                    seed,
                    ..paper
                };
                (4, 4, App::GroupBy(cfg))
            }
        };
        Some(Workload { name, workers, cores, app })
    }

    /// Frontera hardware: the workers plus a master and a driver node.
    pub fn cluster(&self, traced: bool) -> (ClusterSpec, ClusterConfig) {
        let spec = ClusterSpec::frontera(self.workers + 2);
        let mut conf = SparkConf::paper_defaults(self.cores);
        conf.trace_timeline = traced;
        let cluster = ClusterConfig::paper_layout(spec.len(), conf);
        (spec, cluster)
    }

    /// Real records the datagen job materializes (for host-µs-per-record).
    pub fn records(&self) -> u64 {
        match self.app {
            App::GroupBy(c) => c.partitions as u64 * c.records_per_partition,
            App::Lr(c) => c.partitions as u64 * c.samples_per_partition,
        }
    }

    /// Run the jobs on the driver, one harness span per `Rdd` action, and
    /// reduce the outcome to one word the oracle can check.
    pub fn run(&self, sc: &SparkContext, rec: &Recorder, parent: u64) -> u64 {
        match self.app {
            App::GroupBy(cfg) => {
                let data = rec.scope("job.datagen", parent, |_| generate_kv(sc, cfg));
                rec.scope("job.action", parent, |_| data.group_by_key(cfg.partitions).count())
            }
            // `lr_app` generates its data itself, so its 61 jobs share a span.
            App::Lr(cfg) => {
                rec.scope("job.action", parent, |_| lr_app(sc, cfg).final_loss.to_bits())
            }
        }
    }

    /// What a correct cell returns, worked out from the seed without running
    /// the program. LR has no closed form: its loss must be below ln 2 (the
    /// loss of the zero model it starts from) and bit-equal on every cell.
    pub fn oracle(&self) -> Oracle {
        match self.app {
            App::GroupBy(cfg) => Oracle::Exact(distinct_keys(&cfg)),
            App::Lr(_) => Oracle::LossBelowLn2,
        }
    }

    /// Virtual time of the stages that read a shuffle: the result stages of
    /// every job after the datagen job (one for OHB, one per iteration for LR).
    pub fn shuffle_read_ns(&self, jobs: &[JobMetrics]) -> u64 {
        jobs[1..]
            .iter()
            .flat_map(|j| &j.stages)
            .filter(|s| s.name.contains("ResultStage"))
            .map(|s| s.duration_ns())
            .sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    Exact(u64),
    LossBelowLn2,
}

impl Oracle {
    /// `first` is the result of the first cell this process ran.
    pub fn accepts(&self, result: u64, first: u64) -> bool {
        match *self {
            Oracle::Exact(want) => result == want,
            Oracle::LossBelowLn2 => {
                result == first && f64::from_bits(result) < std::f64::consts::LN_2
            }
        }
    }
}

/// Replays `workloads::ohb::generate_kv`'s key stream: per partition one key
/// draw and one blob-id draw per record.
pub fn distinct_keys(cfg: &OhbConfig) -> u64 {
    let mut seen = vec![false; cfg.key_range as usize];
    for p in 0..cfg.partitions {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64).wrapping_mul(0x9E37_79B9));
        for _ in 0..cfg.records_per_partition {
            seen[rng.gen_range(0..cfg.key_range) as usize] = true;
            let _blob_id: u64 = rng.gen();
        }
    }
    seen.iter().filter(|s| **s).count() as u64
}
