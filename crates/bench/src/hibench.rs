//! Fig. 12 runner: Intel HiBench workloads at the Huge data size on
//! Frontera-like (16 workers, 896 cores) and Stampede2-like (8 workers,
//! 384 cores / 768 threads) clusters.

use fabric::ClusterSpec;
use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;
use workloads::graph::{nweight_app, NWeightConfig};
use workloads::micro::{repartition_app, terasort_app, MicroConfig};
use workloads::ml::{gmm_app, lda_app, lr_app, svm_app, MlConfig};
use workloads::System;

/// The HiBench workloads of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HiBenchWorkload {
    /// Latent Dirichlet Allocation.
    Lda,
    /// Support Vector Machine.
    Svm,
    /// Gaussian Mixture Model.
    Gmm,
    /// Logistic Regression.
    Lr,
    /// Repartition micro-benchmark.
    Repartition,
    /// TeraSort micro-benchmark.
    TeraSort,
    /// NWeight graph workload.
    NWeight,
}

impl HiBenchWorkload {
    /// Display name as in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            HiBenchWorkload::Lda => "LDA",
            HiBenchWorkload::Svm => "SVM",
            HiBenchWorkload::Gmm => "GMM",
            HiBenchWorkload::Lr => "LR",
            HiBenchWorkload::Repartition => "Repartition",
            HiBenchWorkload::TeraSort => "TeraSort",
            HiBenchWorkload::NWeight => "NWeight",
        }
    }

    /// The Fig. 12(a)/(b) set (Frontera).
    pub fn frontera_set() -> Vec<HiBenchWorkload> {
        use HiBenchWorkload::*;
        vec![Lda, Svm, Gmm, Repartition, NWeight, TeraSort]
    }

    /// The Fig. 12(c) set (Stampede2).
    pub fn stampede2_set() -> Vec<HiBenchWorkload> {
        use HiBenchWorkload::*;
        vec![Lr, Gmm, Svm, Repartition]
    }
}

/// HiBench-Huge sizing used by the Fig. 12 cells.
#[derive(Debug, Clone, Copy)]
pub struct HiBenchParams {
    /// Worker count.
    pub workers: usize,
    /// Cores (task slots) per worker.
    pub cores: u32,
    /// Shrink factor for smoke runs (1 = Huge).
    pub shrink: u64,
}

impl HiBenchParams {
    fn ml_config(&self, pad_bytes: u32, virtual_samples: u64, iterations: usize) -> MlConfig {
        let partitions = self.workers * self.cores as usize;
        MlConfig {
            partitions,
            samples_per_partition: 128,
            virtual_samples_per_partition: (virtual_samples / self.shrink).max(128),
            dim: 12,
            iterations,
            agg_partitions: (partitions / 8).max(2),
            pad_bytes: (u64::from(pad_bytes) / self.shrink).max(64) as u32,
            seed: 0xF1612,
        }
    }
}

/// Run one Fig. 12 cell; returns the total virtual runtime in nanoseconds.
pub fn run_hibench(
    system: System,
    spec: &ClusterSpec,
    params: HiBenchParams,
    workload: HiBenchWorkload,
) -> u64 {
    let conf = SparkConf::paper_defaults(params.cores);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let partitions = params.workers * params.cores as usize;
    let shrink = params.shrink;
    match workload {
        HiBenchWorkload::Lda => {
            // Heaviest per-iteration shuffle: per-token topic vectors across
            // the vocabulary; communication ≈ half of Vanilla's runtime.
            let cfg = params.ml_config(6 * 1024, 2_800_000, 4);
            system.run(spec, cluster, move |sc| lda_app(sc, cfg, 2048, 8)).total_ns()
        }
        HiBenchWorkload::Svm => {
            // Light aggregates: gradients only (~16% comm under Vanilla).
            let cfg = params.ml_config(384 * 1024, 14_000_000, 6);
            system.run(spec, cluster, move |sc| svm_app(sc, cfg)).total_ns()
        }
        HiBenchWorkload::Gmm => {
            // Medium: per-component sufficient statistics (~36% comm).
            let cfg = params.ml_config(1024 * 1024, 1_200_000, 6);
            system.run(spec, cluster, move |sc| gmm_app(sc, cfg, 4)).total_ns()
        }
        HiBenchWorkload::Lr => {
            let cfg = params.ml_config(1024 * 1024, 2_700_000, 6);
            system.run(spec, cluster, move |sc| lr_app(sc, cfg)).total_ns()
        }
        HiBenchWorkload::Repartition => {
            let gb = (params.workers as u64 * 8 / shrink).max(1);
            let cfg = MicroConfig::huge(params.workers, params.cores, gb);
            system.run(spec, cluster, move |sc| repartition_app(sc, cfg)).total_ns()
        }
        HiBenchWorkload::TeraSort => {
            let gb = (params.workers as u64 * 8 / shrink).max(1);
            let cfg = MicroConfig::huge(params.workers, params.cores, gb);
            system.run(spec, cluster, move |sc| terasort_app(sc, cfg)).total_ns()
        }
        HiBenchWorkload::NWeight => {
            let cfg = NWeightConfig {
                vertices: (params.workers as u64 * 2000 / shrink).max(200),
                degree: 4,
                hops: 2,
                partitions,
                payload_pad: 4096,
                seed: 0x9E1_647,
            };
            system.run(spec, cluster, move |sc| nweight_app(sc, cfg)).total_ns()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sets_match_figure_12() {
        assert_eq!(HiBenchWorkload::frontera_set().len(), 6);
        assert_eq!(HiBenchWorkload::stampede2_set().len(), 4);
        assert!(!HiBenchWorkload::stampede2_set().contains(&HiBenchWorkload::NWeight));
    }
}
