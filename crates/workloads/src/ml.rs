//! Intel HiBench machine-learning workloads (Table IV): Logistic
//! Regression, SVM, Gaussian Mixture Model, and LDA.
//!
//! Each is a genuine iterative algorithm computing real numbers on
//! synthetic data, with MLlib's communication shape: per iteration the
//! executors compute partial aggregates and combine them through a shuffle
//! (`treeAggregate` analog: map-side partials → `reduceByKey` over a small
//! number of aggregation partitions → collect). Partial-aggregate payloads
//! carry a configurable virtual pad, standing in for the large model/stat
//! vectors of HiBench-Huge (LDA's word-topic matrix is the largest, which
//! is why LDA shows the paper's biggest ML speedup, Fig. 12a).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparklet::scheduler::SparkContext;
use sparklet::{Blob, Rdd};

/// Sizing for the gradient-descent workloads (LR, SVM) and GMM.
#[derive(Debug, Clone, Copy)]
pub struct MlConfig {
    /// Data partitions.
    pub partitions: usize,
    /// Real samples per partition.
    pub samples_per_partition: u64,
    /// Virtual samples per partition: the HiBench-Huge population the
    /// compute charges represent (real math runs on the small real sample;
    /// the cost model charges for this many).
    pub virtual_samples_per_partition: u64,
    /// Feature dimension (real math runs on it).
    pub dim: usize,
    /// Gradient-descent / EM iterations.
    pub iterations: usize,
    /// Aggregation partitions for the treeAggregate shuffle.
    pub agg_partitions: usize,
    /// Virtual pad per partial aggregate (models Huge-scale stat vectors).
    pub pad_bytes: u32,
    /// RNG seed.
    pub seed: u64,
}

fn vec_add(mut a: Vec<f64>, b: &[f64]) -> Vec<f64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Generate a cached, labeled dataset: `label ∈ {0,1}` from a hidden
/// hyperplane. Runs job 0 (datagen + cache).
pub fn labeled_points(sc: &SparkContext, cfg: MlConfig) -> Rdd<(f64, Vec<f64>)> {
    let data = sc
        .generate(cfg.partitions, move |p| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64) << 17);
            let mut true_w = SmallRng::seed_from_u64(cfg.seed);
            let w: Vec<f64> = (0..cfg.dim).map(|_| true_w.gen_range(-1.0..1.0)).collect();
            (0..cfg.samples_per_partition)
                .map(|_| {
                    let x: Vec<f64> = (0..cfg.dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let dot: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
                    let label = if dot > 0.0 { 1.0 } else { 0.0 };
                    (label, x)
                })
                .collect()
        })
        .cache();
    data.count();
    data
}

/// One treeAggregate round: per-partition partial vectors combined through
/// a `reduceByKey` shuffle, collected at the driver.
fn tree_aggregate(
    data: &Rdd<(f64, Vec<f64>)>,
    cfg: MlConfig,
    partial: Arc<dyn Fn(&[(f64, Vec<f64>)]) -> Vec<f64> + Send + Sync>,
    flops_per_sample: u64,
) -> Vec<f64> {
    let agg = cfg.agg_partitions.max(1);
    let partials: Rdd<(u32, (Vec<f64>, Blob))> = data.map_partitions(move |ctx, recs| {
        let flops = cfg.virtual_samples_per_partition.max(recs.len() as u64) * flops_per_sample;
        ctx.charge((flops as f64 * ctx.cost().flop_ns) as u64);
        let g = partial(&recs);
        let key = (ctx.partition % agg) as u32;
        vec![(key, (g, Blob::new(ctx.partition as u64, cfg.pad_bytes)))]
    });
    let reduced = partials.reduce_by_key(agg, |(g1, b), (g2, _)| (vec_add(g1, &g2), b));
    let chunks = reduced.collect();
    let mut total: Option<Vec<f64>> = None;
    for (_, (g, _)) in chunks {
        total = Some(match total {
            None => g,
            Some(t) => vec_add(t, &g),
        });
    }
    total.expect("non-empty aggregate")
}

/// Outcome of an iterative ML run.
#[derive(Debug, Clone)]
pub struct MlResult {
    /// Final training loss (or negative log-likelihood).
    pub final_loss: f64,
    /// Loss per iteration.
    pub loss_history: Vec<f64>,
}

/// Logistic Regression via batch gradient descent (HiBench "LR").
pub fn lr_app(sc: &SparkContext, cfg: MlConfig) -> MlResult {
    let data = labeled_points(sc, cfg);
    let n_total = (cfg.partitions as u64 * cfg.samples_per_partition) as f64;
    let mut w = vec![0.0f64; cfg.dim];
    let mut history = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let w_now = w.clone();
        let dim = cfg.dim;
        let agg = tree_aggregate(
            &data,
            cfg,
            Arc::new(move |recs| {
                // partial = [grad(dim) | loss | count]
                let mut out = vec![0.0; dim + 2];
                for (y, x) in recs {
                    let z: f64 = w_now.iter().zip(x).map(|(a, b)| a * b).sum();
                    let p = 1.0 / (1.0 + (-z).exp());
                    for (g, xi) in out[..dim].iter_mut().zip(x) {
                        *g += (p - y) * xi;
                    }
                    // The 0/1 label selects one term; the other is ±0 × ln(…).
                    let hit = if *y == 1.0 { p } else { 1.0 - p };
                    out[dim] -= hit.max(1e-12).ln();
                    out[dim + 1] += 1.0;
                }
                out
            }),
            (cfg.dim as u64) * 4,
        );
        let loss = agg[cfg.dim] / n_total;
        history.push(loss);
        for (wi, gi) in w.iter_mut().zip(&agg[..cfg.dim]) {
            *wi -= 1.0 * gi / n_total;
        }
    }
    MlResult { final_loss: *history.last().unwrap(), loss_history: history }
}

/// Support Vector Machine via hinge-loss subgradient descent (HiBench
/// "SVM"; labels remapped to ±1).
pub fn svm_app(sc: &SparkContext, cfg: MlConfig) -> MlResult {
    let data = labeled_points(sc, cfg);
    let n_total = (cfg.partitions as u64 * cfg.samples_per_partition) as f64;
    let reg = 1e-3;
    let mut w = vec![0.0f64; cfg.dim];
    let mut history = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let w_now = w.clone();
        let dim = cfg.dim;
        let agg = tree_aggregate(
            &data,
            cfg,
            Arc::new(move |recs| {
                let mut out = vec![0.0; dim + 2];
                for (y01, x) in recs {
                    let y = if *y01 > 0.5 { 1.0 } else { -1.0 };
                    let z: f64 = w_now.iter().zip(x).map(|(a, b)| a * b).sum();
                    let margin = y * z;
                    if margin < 1.0 {
                        for (g, xi) in out[..dim].iter_mut().zip(x) {
                            *g -= y * xi;
                        }
                        out[dim] += 1.0 - margin;
                    }
                    out[dim + 1] += 1.0;
                }
                out
            }),
            (cfg.dim as u64) * 3,
        );
        let loss = agg[cfg.dim] / n_total + 0.5 * reg * w.iter().map(|x| x * x).sum::<f64>();
        history.push(loss);
        for (wi, gi) in w.iter_mut().zip(&agg[..cfg.dim]) {
            *wi = (1.0 - reg) * *wi - 0.5 * gi / n_total;
        }
    }
    MlResult { final_loss: *history.last().unwrap(), loss_history: history }
}

/// Gaussian Mixture Model via EM with `k` isotropic components (HiBench
/// "GMM"). Data are drawn from `k` well-separated clusters.
pub fn gmm_app(sc: &SparkContext, cfg: MlConfig, k: usize) -> MlResult {
    let dim = cfg.dim;
    // Cluster centers at ±3 on alternating axes.
    let data = sc
        .generate(cfg.partitions, move |p| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64) << 21);
            (0..cfg.samples_per_partition)
                .map(|_| {
                    let c = rng.gen_range(0..k);
                    let x: Vec<f64> = (0..dim)
                        .map(|d| {
                            let center = if d % k == c { 3.0 } else { -3.0 };
                            center + rng.gen_range(-0.5..0.5)
                        })
                        .collect();
                    (c as f64, x)
                })
                .collect()
        })
        .cache();
    data.count();
    let n_total = (cfg.partitions as u64 * cfg.samples_per_partition) as f64;

    // means[k][dim], weights[k]
    let mut means: Vec<Vec<f64>> =
        (0..k).map(|c| (0..dim).map(|d| if d % k == c { 1.0 } else { -1.0 }).collect()).collect();
    let mut mix = vec![1.0 / k as f64; k];
    let mut history = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let means_now = means.clone();
        let mix_now = mix.clone();
        let agg = tree_aggregate(
            &data,
            cfg,
            Arc::new(move |recs| {
                // stats = [per comp: r, r*x(dim)] + [loglik]
                let mut out = vec![0.0; k * (dim + 1) + 1];
                for (_, x) in recs {
                    let mut resp = vec![0.0; k];
                    let mut norm = 0.0;
                    for c in 0..k {
                        let d2: f64 =
                            means_now[c].iter().zip(x).map(|(m, xi)| (xi - m) * (xi - m)).sum();
                        resp[c] = mix_now[c] * (-0.5 * d2).exp().max(1e-300);
                        norm += resp[c];
                    }
                    out[k * (dim + 1)] += norm.max(1e-300).ln();
                    for c in 0..k {
                        let r = resp[c] / norm;
                        out[c * (dim + 1)] += r;
                        for (d, xi) in x.iter().enumerate() {
                            out[c * (dim + 1) + 1 + d] += r * xi;
                        }
                    }
                }
                out
            }),
            (k * dim * 6) as u64,
        );
        let loglik = agg[k * (dim + 1)] / n_total;
        history.push(-loglik);
        for c in 0..k {
            let r_sum = agg[c * (dim + 1)].max(1e-12);
            mix[c] = r_sum / n_total;
            for d in 0..dim {
                means[c][d] = agg[c * (dim + 1) + 1 + d] / r_sum;
            }
        }
    }
    MlResult { final_loss: *history.last().unwrap(), loss_history: history }
}

/// LDA-shaped workload: EM over a mixture-of-unigrams topic model.
///
/// Per iteration every token emits `(word, weighted topic vector)` and the
/// word-topic matrix is rebuilt by a `reduceByKey` over the vocabulary —
/// the heaviest per-iteration shuffle of the four ML workloads, matching
/// LDA's position in the paper's Fig. 12(a).
pub fn lda_app(sc: &SparkContext, cfg: MlConfig, vocab: usize, topics: usize) -> MlResult {
    // Tokens: (word, count), words drawn from per-partition topic biases.
    let data = sc
        .generate(cfg.partitions, move |p| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (p as u64) << 11);
            let bias = p % topics;
            (0..cfg.samples_per_partition)
                .map(|_| {
                    let word = if rng.gen_bool(0.7) {
                        // Biased towards this partition's topic slice.
                        (bias * vocab / topics + rng.gen_range(0..vocab / topics)) as u64
                    } else {
                        rng.gen_range(0..vocab as u64)
                    };
                    (word, 1.0f64 + rng.gen_range(0.0..3.0))
                })
                .collect()
        })
        .cache();
    data.count();

    // phi[t][w]: topic-word probabilities.
    let mut phi: Vec<Vec<f64>> = (0..topics)
        .map(|t| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ t as u64);
            let mut row: Vec<f64> = (0..vocab).map(|_| rng.gen_range(0.5..1.5)).collect();
            let s: f64 = row.iter().sum();
            row.iter_mut().for_each(|x| *x /= s);
            row
        })
        .collect();
    let mut history = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let phi_now = Arc::new(phi.clone());
        let pad = cfg.pad_bytes;
        let phi_for_map = phi_now.clone();
        // E-step: token responsibilities, emitted per word.
        let contrib: Rdd<(u64, (Vec<f64>, Blob))> = data.map_partitions(move |ctx, toks| {
            let virt = cfg.virtual_samples_per_partition.max(toks.len() as u64);
            ctx.charge(((virt * topics as u64 * 4) as f64 * ctx.cost().flop_ns) as u64);
            toks.iter()
                .map(|&(w, c)| {
                    let mut r: Vec<f64> =
                        (0..topics).map(|t| phi_for_map[t][w as usize].max(1e-12)).collect();
                    let s: f64 = r.iter().sum();
                    r.iter_mut().for_each(|x| *x = *x / s * c);
                    (w, (r, Blob::new(w, pad)))
                })
                .collect()
        });
        // M-step shuffle: word-topic counts across the vocabulary.
        let counts =
            contrib.reduce_by_key(cfg.agg_partitions.max(1), |(a, b), (c, _)| (vec_add(a, &c), b));
        let rows = counts.collect();
        let mut new_phi = vec![vec![1e-9; vocab]; topics];
        let mut loglik = 0.0;
        for (w, (r, _)) in rows {
            let tot: f64 = r.iter().sum();
            loglik += tot
                * (0..topics)
                    .map(|t| phi_now[t][w as usize] * r[t] / tot.max(1e-12))
                    .sum::<f64>()
                    .max(1e-300)
                    .ln();
            for t in 0..topics {
                new_phi[t][w as usize] += r[t];
            }
        }
        for row in new_phi.iter_mut() {
            let s: f64 = row.iter().sum();
            row.iter_mut().for_each(|x| *x /= s);
        }
        phi = new_phi;
        history.push(-loglik);
    }
    MlResult { final_loss: *history.last().unwrap(), loss_history: history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use fabric::ClusterSpec;
    use sparklet::deploy::ClusterConfig;
    use sparklet::SparkConf;

    fn setup() -> (ClusterSpec, ClusterConfig, MlConfig) {
        let spec = ClusterSpec::test(4);
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        conf.cost.task_overhead_ns = 10_000;
        let cfg = MlConfig {
            partitions: 6,
            samples_per_partition: 150,
            virtual_samples_per_partition: 150,
            dim: 6,
            iterations: 6,
            agg_partitions: 3,
            pad_bytes: 4096,
            seed: 42,
        };
        (spec.clone(), ClusterConfig::paper_layout(spec.len(), conf), cfg)
    }

    #[test]
    fn lr_loss_decreases() {
        let (spec, cluster, cfg) = setup();
        let out = System::Vanilla.run(&spec, cluster, move |sc| lr_app(sc, cfg));
        let h = &out.result.loss_history;
        assert_eq!(h.len(), 6);
        assert!(h.last().unwrap() < h.first().unwrap(), "history = {h:?}");
        assert!(out.result.final_loss < 0.69, "worse than chance: {}", out.result.final_loss);
    }

    #[test]
    fn svm_loss_decreases() {
        let (spec, cluster, cfg) = setup();
        let out = System::Vanilla.run(&spec, cluster, move |sc| svm_app(sc, cfg));
        let h = &out.result.loss_history;
        assert!(h.last().unwrap() < h.first().unwrap(), "history = {h:?}");
    }

    #[test]
    fn gmm_likelihood_improves() {
        let (spec, cluster, mut cfg) = setup();
        cfg.dim = 4;
        cfg.iterations = 5;
        let out = System::Vanilla.run(&spec, cluster, move |sc| gmm_app(sc, cfg, 2));
        let h = &out.result.loss_history;
        assert!(
            h.last().unwrap() <= h.first().unwrap(),
            "negative log-likelihood should not increase: {h:?}"
        );
    }

    #[test]
    fn training_trajectories_identical_across_transports() {
        // Transports must not alter the math: the per-iteration loss
        // history is bitwise identical under Vanilla and MPI4Spark.
        let (spec, _, cfg) = setup();
        let cluster = || {
            let mut conf = sparklet::SparkConf::default();
            conf.executor_cores = 4;
            conf.cost.task_overhead_ns = 10_000;
            sparklet::deploy::ClusterConfig::paper_layout(spec.len(), conf)
        };
        let a = System::Vanilla.run(&spec, cluster(), move |sc| lr_app(sc, cfg));
        let b = System::Mpi4Spark.run(&spec, cluster(), move |sc| lr_app(sc, cfg));
        assert_eq!(a.result.loss_history, b.result.loss_history);
    }

    #[test]
    fn lda_runs_and_improves() {
        let (spec, cluster, mut cfg) = setup();
        cfg.iterations = 4;
        let out = System::Vanilla.run(&spec, cluster, move |sc| lda_app(sc, cfg, 32, 4));
        let h = &out.result.loss_history;
        assert_eq!(h.len(), 4);
        assert!(h.last().unwrap() <= h.first().unwrap(), "history = {h:?}");
        // Iterations produce per-iteration shuffle jobs: datagen + 4.
        assert!(out.jobs.len() >= 5);
    }
}
