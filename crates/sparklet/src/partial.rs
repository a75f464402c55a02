//! Partial / approximate results: evaluators that fold per-partition task
//! outputs as they complete, with normal-approximation confidence bounds.
//!
//! The port of Spark's `partial/` package (`ApproximateEvaluator`,
//! `PartialResult`, `BoundedDouble`) onto the deterministic scheduler: an
//! approximate action submits its job with a [`JobOptions`] evaluator
//! attached, the stage event loop feeds every completed result partition
//! into [`ApproximateEvaluator::merge`], and a virtual-clock deadline (an
//! instant that bounds the loop's every wait) ends it — at expiry the driver gets
//! the evaluator's best current answer plus `{partitions_seen, total,
//! confidence}` instead of blocking on the last straggler.
//!
//! [`JobOptions`]: crate::rdd::JobOptions
//!
//! ## Estimator
//!
//! Partitions are modeled as a finite population of `N` per-partition
//! aggregates of which `n` have been observed. The total estimate is
//! `N·x̄` with variance `N²·(1 − n/N)·s²/n` (simple random sampling with
//! finite-population correction) and a two-sided normal quantile at the
//! requested confidence. Spark uses a Poisson model for counts and
//! Student's t for means; the normal approximation keeps the math
//! dependency-free and is asymptotically the same. The completed
//! partitions are really the *fastest* ones, not a random sample — under a
//! uniform workload the bias is negligible, under skew the interval is
//! honest about `partitions_seen` so callers can judge coverage.
//!
//! Everything here is pure host-side arithmetic: merging charges no
//! virtual time, so enabling partial evaluation never perturbs simulated
//! timings (the acceptance bar shared with tracing and AQE-off).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::rpc::AnyMsg;

/// A `(mean, confidence, low, high)` interval — Spark's `BoundedDouble`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedDouble {
    /// Point estimate.
    pub mean: f64,
    /// Confidence level the interval was built at (e.g. `0.95`).
    pub confidence: f64,
    /// Lower bound.
    pub low: f64,
    /// Upper bound.
    pub high: f64,
}

impl BoundedDouble {
    /// An exact value: degenerate interval at full confidence.
    pub fn exact(v: f64) -> Self {
        BoundedDouble { mean: v, confidence: 1.0, low: v, high: v }
    }

    /// True when `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.low <= x && x <= self.high
    }

    /// Interval width (`high - low`; infinite for the zero-information
    /// interval).
    pub fn width(&self) -> f64 {
        self.high - self.low
    }
}

impl std::fmt::Display for BoundedDouble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.3}, {:.3}] (mean {:.3}, {:.0}%)",
            self.low,
            self.high,
            self.mean,
            self.confidence * 100.0
        )
    }
}

/// An action's answer, possibly computed from a subset of partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult<R> {
    /// The (possibly approximate) answer.
    pub value: R,
    /// Result partitions folded into the answer.
    pub partitions_seen: usize,
    /// Result partitions the job would compute in full.
    pub total_partitions: usize,
    /// True when every partition was seen — the answer is exact.
    pub is_final: bool,
}

impl<R> PartialResult<R> {
    /// Fraction of the reduce space the answer covers.
    pub fn coverage(&self) -> f64 {
        if self.total_partitions == 0 {
            1.0
        } else {
            self.partitions_seen as f64 / self.total_partitions as f64
        }
    }
}

/// Folds per-partition task results ([`Update`](Self::Update)) into a
/// running approximate answer ([`Output`](Self::Output)). Merge order is
/// completion order — deterministic on the virtual clock — and each result
/// partition is merged exactly once (the scheduler's first-finish dedup
/// runs first).
pub trait ApproximateEvaluator: Send + 'static {
    /// One result task's output.
    type Update: Send + Sync + 'static;
    /// The action's answer.
    type Output: Clone + Send + Sync + 'static;
    /// Fold partition `part`'s task output.
    fn merge(&mut self, part: usize, update: &Self::Update);
    /// Best answer given that `seen` of `total` partitions were merged.
    fn current_result(&self, seen: usize, total: usize) -> Self::Output;
}

// --- normal quantile ---------------------------------------------------------

/// Two-sided standard-normal quantile for a confidence level: the `z` with
/// `P(|Z| ≤ z) = confidence`. Acklam's rational approximation of the
/// inverse CDF (relative error < 1.15e-9) — dependency-free and
/// deterministic.
pub fn normal_quantile_two_sided(confidence: f64) -> f64 {
    assert!((0.0..1.0).contains(&confidence), "confidence must be in [0, 1), got {confidence}");
    // P(Z <= z) = (1 + confidence) / 2.
    inverse_normal_cdf((1.0 + confidence) / 2.0)
}

fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Finite-population total estimate from `n` observed per-partition
/// aggregates out of `N`: `(mean, half_width)` of the confidence interval
/// around `N·x̄`. Returns `None` when no interval can be formed (`n < 2`).
fn total_estimate(values: &[f64], total: usize, z: f64) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let big_n = total as f64;
    let mean = values.iter().sum::<f64>() / nf;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (nf - 1.0);
    let fpc = 1.0 - nf / big_n;
    let est_var = big_n * big_n * fpc.max(0.0) * var / nf;
    Some((big_n * mean, z * est_var.sqrt()))
}

// --- evaluators --------------------------------------------------------------

/// Confidence level of an approximate action called with `confidence: None`
/// (`count_approx(timeout, None)` → bounds at this level).
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// Approximate `count()`: tasks emit `u64` partition counts.
pub struct CountEvaluator {
    confidence: f64,
    counts: Vec<f64>,
}

impl CountEvaluator {
    /// New evaluator at `confidence`.
    pub fn new(confidence: f64) -> Self {
        CountEvaluator { confidence, counts: Vec::new() }
    }
}

impl ApproximateEvaluator for CountEvaluator {
    type Update = u64;
    type Output = BoundedDouble;

    fn merge(&mut self, _part: usize, update: &u64) {
        self.counts.push(*update as f64);
    }

    fn current_result(&self, seen: usize, total: usize) -> BoundedDouble {
        debug_assert_eq!(seen, self.counts.len());
        let observed: f64 = self.counts.iter().sum();
        if seen >= total {
            return BoundedDouble::exact(observed);
        }
        let z = normal_quantile_two_sided(self.confidence);
        match total_estimate(&self.counts, total, z) {
            Some((mean, half)) => BoundedDouble {
                mean,
                confidence: self.confidence,
                // Counts are monotone: the truth is at least what was seen.
                low: (mean - half).max(observed),
                high: mean + half,
            },
            // Zero or one partition: no variance estimate, no upper bound.
            None => BoundedDouble {
                mean: if seen == 0 { 0.0 } else { observed * total as f64 / seen as f64 },
                confidence: 0.0,
                low: observed,
                high: f64::INFINITY,
            },
        }
    }
}

/// Numeric projection to `f64` for `sum_approx`/`mean_approx` (the std
/// `Into<f64>` impls skip `u64`/`i64`, so the engine carries its own).
/// Lossy above 2^53, like Spark's `DoubleRDDFunctions`.
pub trait AsF64 {
    /// The record's numeric value.
    fn as_f64(&self) -> f64;
}

macro_rules! impl_as_f64 {
    ($($t:ty),*) => {$(
        impl AsF64 for $t {
            fn as_f64(&self) -> f64 {
                *self as f64
            }
        }
    )*};
}
impl_as_f64!(u8, u32, u64, i64, f64);

/// Per-partition numeric summary shipped by `sum_approx` / `mean_approx`
/// tasks: enough to bound both the total and the mean.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    /// Record count.
    pub n: u64,
    /// Sum of the projected values.
    pub sum: f64,
    /// Sum of squares of the projected values.
    pub sum_sq: f64,
}

impl Stat {
    /// Summarize one partition's projected values.
    pub fn of(values: impl Iterator<Item = f64>) -> Stat {
        let mut s = Stat::default();
        for v in values {
            s.n += 1;
            s.sum += v;
            s.sum_sq += v * v;
        }
        s
    }
}

/// Approximate `sum()`: finite-population estimate over per-partition sums.
pub struct SumEvaluator {
    confidence: f64,
    sums: Vec<f64>,
}

impl SumEvaluator {
    /// New evaluator at `confidence`.
    pub fn new(confidence: f64) -> Self {
        SumEvaluator { confidence, sums: Vec::new() }
    }
}

impl ApproximateEvaluator for SumEvaluator {
    type Update = Stat;
    type Output = BoundedDouble;

    fn merge(&mut self, _part: usize, update: &Stat) {
        self.sums.push(update.sum);
    }

    fn current_result(&self, seen: usize, total: usize) -> BoundedDouble {
        debug_assert_eq!(seen, self.sums.len());
        let observed: f64 = self.sums.iter().sum();
        if seen >= total {
            return BoundedDouble::exact(observed);
        }
        let z = normal_quantile_two_sided(self.confidence);
        match total_estimate(&self.sums, total, z) {
            Some((mean, half)) => BoundedDouble {
                mean,
                confidence: self.confidence,
                low: mean - half,
                high: mean + half,
            },
            None => BoundedDouble {
                mean: if seen == 0 { 0.0 } else { observed * total as f64 / seen as f64 },
                confidence: 0.0,
                low: f64::NEG_INFINITY,
                high: f64::INFINITY,
            },
        }
    }
}

/// Approximate `mean()`: pooled element-level mean with a normal interval
/// on the standard error (`s/√n`).
pub struct MeanEvaluator {
    confidence: f64,
    pooled: Stat,
}

impl MeanEvaluator {
    /// New evaluator at `confidence`.
    pub fn new(confidence: f64) -> Self {
        MeanEvaluator { confidence, pooled: Stat::default() }
    }
}

impl ApproximateEvaluator for MeanEvaluator {
    type Update = Stat;
    type Output = BoundedDouble;

    fn merge(&mut self, _part: usize, update: &Stat) {
        self.pooled.n += update.n;
        self.pooled.sum += update.sum;
        self.pooled.sum_sq += update.sum_sq;
    }

    fn current_result(&self, seen: usize, total: usize) -> BoundedDouble {
        let n = self.pooled.n as f64;
        if self.pooled.n < 2 {
            return BoundedDouble {
                mean: if self.pooled.n == 0 { f64::NAN } else { self.pooled.sum },
                confidence: 0.0,
                low: f64::NEG_INFINITY,
                high: f64::INFINITY,
            };
        }
        let mean = self.pooled.sum / n;
        if seen >= total {
            return BoundedDouble::exact(mean);
        }
        let var =
            ((self.pooled.sum_sq - self.pooled.sum * self.pooled.sum / n) / (n - 1.0)).max(0.0);
        let se = (var / n).sqrt();
        let half = normal_quantile_two_sided(self.confidence) * se;
        BoundedDouble { mean, confidence: self.confidence, low: mean - half, high: mean + half }
    }
}

/// Per-key accumulator: counts observed per partition, plus how many seen
/// partitions contained the key at all (absent partitions contribute zero
/// to the key's per-partition distribution).
#[derive(Debug, Clone, Copy, Default)]
struct KeyStat {
    sum: f64,
    sum_sq: f64,
}

/// Approximate `count_by_key()`: tasks emit per-partition key histograms
/// (`Vec<(K, u64)>`); each key's total is estimated like [`CountEvaluator`]
/// with the key's per-partition counts (zero where absent) as the sample.
pub struct GroupedCountEvaluator<K: Ord + Clone + Send + 'static> {
    confidence: f64,
    by_key: BTreeMap<K, KeyStat>,
}

impl<K: Ord + Clone + Send + 'static> GroupedCountEvaluator<K> {
    /// New evaluator at `confidence`.
    pub fn new(confidence: f64) -> Self {
        GroupedCountEvaluator { confidence, by_key: BTreeMap::new() }
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> ApproximateEvaluator for GroupedCountEvaluator<K> {
    type Update = Vec<(K, u64)>;
    type Output = Vec<(K, BoundedDouble)>;

    fn merge(&mut self, _part: usize, update: &Vec<(K, u64)>) {
        for (k, c) in update {
            let s = self.by_key.entry(k.clone()).or_default();
            let c = *c as f64;
            s.sum += c;
            s.sum_sq += c * c;
        }
    }

    fn current_result(&self, seen: usize, total: usize) -> Vec<(K, BoundedDouble)> {
        let z = normal_quantile_two_sided(self.confidence);
        self.by_key
            .iter()
            .map(|(k, s)| {
                if seen >= total {
                    return (k.clone(), BoundedDouble::exact(s.sum));
                }
                let b = if seen < 2 {
                    BoundedDouble { mean: s.sum, confidence: 0.0, low: s.sum, high: f64::INFINITY }
                } else {
                    // Sample of `seen` per-partition counts for this key,
                    // zeros included for partitions that lacked it.
                    let nf = seen as f64;
                    let big_n = total as f64;
                    let mean = s.sum / nf;
                    let var = ((s.sum_sq - s.sum * s.sum / nf) / (nf - 1.0)).max(0.0);
                    let est = big_n * mean;
                    let half = z * (big_n * big_n * (1.0 - nf / big_n).max(0.0) * var / nf).sqrt();
                    BoundedDouble {
                        mean: est,
                        confidence: self.confidence,
                        low: (est - half).max(s.sum),
                        high: est + half,
                    }
                };
                (k.clone(), b)
            })
            .collect()
    }
}

// --- type erasure ------------------------------------------------------------

/// Object-safe evaluator the scheduler folds into: the update and output
/// types are erased behind [`AnyMsg`] downcasts so one seam serves every
/// action. Every [`ApproximateEvaluator`] is one; box it to attach it.
pub trait ErasedEvaluator: Send + 'static {
    /// Fold partition `part`'s result-task output.
    fn fold(&mut self, part: usize, result: &AnyMsg);
    /// Best current answer as an [`AnyMsg`] (downcast to the action's
    /// output type).
    fn current(&self, seen: usize, total: usize) -> AnyMsg;
}

impl<E: ApproximateEvaluator> ErasedEvaluator for E {
    fn fold(&mut self, part: usize, result: &AnyMsg) {
        let update = result.downcast_ref().expect("result type matches the evaluator's input");
        self.merge(part, update);
    }

    fn current(&self, seen: usize, total: usize) -> AnyMsg {
        Arc::new(self.current_result(seen, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_known_values() {
        // z_{0.975} = 1.959964, z_{0.995} = 2.575829.
        assert!((normal_quantile_two_sided(0.95) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile_two_sided(0.99) - 2.575829).abs() < 1e-4);
        assert!((normal_quantile_two_sided(0.5) - 0.674490).abs() < 1e-4);
        // Tail branch of the rational approximation.
        assert!((inverse_normal_cdf(0.01) + 2.326348).abs() < 1e-4);
    }

    #[test]
    fn count_evaluator_exact_when_complete() {
        let mut e = CountEvaluator::new(0.95);
        for p in 0..4 {
            e.merge(p, &100u64);
        }
        let r = e.current_result(4, 4);
        assert_eq!(r, BoundedDouble::exact(400.0));
        assert!(r.contains(400.0));
    }

    #[test]
    fn count_evaluator_interval_contains_truth_for_uniform_counts() {
        let mut e = CountEvaluator::new(0.95);
        // 6 of 10 partitions seen, ~100 records each; truth = 1000.
        for (p, c) in [98u64, 103, 99, 101, 97, 102].iter().enumerate() {
            e.merge(p, c);
        }
        let r = e.current_result(6, 10);
        assert!(!r.is_nan_interval());
        assert!(r.contains(1000.0), "interval {r} must contain 1000");
        assert!(r.low >= 600.0 - 1e-9, "lower bound at least the observed count");
        assert!(r.width() < 200.0, "uniform counts give a tight interval, got {r}");
    }

    impl BoundedDouble {
        fn is_nan_interval(&self) -> bool {
            self.mean.is_nan() || self.low.is_nan() || self.high.is_nan()
        }
    }

    #[test]
    fn count_evaluator_zero_information() {
        let e = CountEvaluator::new(0.95);
        let r = e.current_result(0, 8);
        assert_eq!(r.low, 0.0);
        assert_eq!(r.high, f64::INFINITY);
        assert_eq!(r.confidence, 0.0);
    }

    #[test]
    fn sum_evaluator_brackets_truth() {
        let mut e = SumEvaluator::new(0.95);
        let parts = [10.0, 12.0, 9.5, 11.0, 10.5, 9.0, 11.5, 10.0];
        for (p, s) in parts.iter().take(5).enumerate() {
            e.merge(p, &Stat { n: 4, sum: *s, sum_sq: 0.0 });
        }
        let truth: f64 = parts.iter().sum();
        let r = e.current_result(5, 8);
        assert!(r.contains(truth), "{r} should contain {truth}");
        // Complete fold collapses to the exact sum.
        for (p, s) in parts.iter().enumerate().skip(5) {
            e.merge(p, &Stat { n: 4, sum: *s, sum_sq: 0.0 });
        }
        assert_eq!(e.current_result(8, 8), BoundedDouble::exact(truth));
    }

    #[test]
    fn mean_evaluator_pools_elements() {
        let mut e = MeanEvaluator::new(0.95);
        e.merge(0, &Stat::of([1.0, 2.0, 3.0].into_iter()));
        e.merge(1, &Stat::of([2.0, 3.0, 4.0].into_iter()));
        let r = e.current_result(2, 4);
        assert!((r.mean - 2.5).abs() < 1e-12);
        assert!(r.contains(2.5));
        assert!(r.low > 1.0 && r.high < 4.0);
        let exact = e.current_result(4, 4);
        assert_eq!(exact, BoundedDouble::exact(2.5));
    }

    #[test]
    fn grouped_count_scales_per_key() {
        let mut e: GroupedCountEvaluator<u64> = GroupedCountEvaluator::new(0.95);
        e.merge(0, &vec![(1u64, 10u64), (2, 5)]);
        e.merge(1, &vec![(1u64, 12u64), (2, 4)]);
        e.merge(2, &vec![(1u64, 11u64), (2, 6)]);
        let r = e.current_result(3, 6);
        let k1 = r.iter().find(|(k, _)| *k == 1).unwrap().1;
        // 33 seen over half the partitions: estimate ~66.
        assert!((k1.mean - 66.0).abs() < 1e-9);
        assert!(k1.contains(66.0));
        let done = e.current_result(6, 6);
        assert_eq!(done.iter().find(|(k, _)| *k == 1).unwrap().1, BoundedDouble::exact(33.0));
    }

    #[test]
    fn erased_roundtrip() {
        let mut e: Box<dyn ErasedEvaluator> = Box::new(CountEvaluator::new(0.9));
        let msg: AnyMsg = Arc::new(7u64);
        e.fold(0, &msg);
        let msg2: AnyMsg = Arc::new(9u64);
        e.fold(1, &msg2);
        let out = e.current(2, 2);
        let b = out.downcast_ref::<BoundedDouble>().unwrap();
        assert_eq!(*b, BoundedDouble::exact(16.0));
    }
}
