//! Straggler-speculation policy: pure, unit-testable decision functions.
//!
//! The stage engine feeds finished-task durations (the `task.run_ns`
//! counter of each completion's metrics snapshot) into [`DurationStats`];
//! once [`QUANTILE`] of the stage has finished, the median drives a
//! [`MULTIPLIER`]` × median` threshold (floored at [`MIN_RUNTIME_NS`]) and
//! any task running longer gets a duplicate on another executor. All
//! choices are deterministic: sorted inserts, integer medians, lowest-slot
//! tie-breaks.
//!
//! Speculation itself is switched by `SparkConf::speculation`; its tuning is
//! the constants below, the values every speculating workload runs with.

use std::collections::BTreeSet;

/// Virtual period of the speculation check (`spark.speculation.interval`).
pub const INTERVAL_NS: u64 = simt::time::millis(1);
/// How many times slower than the median a task must be
/// (`spark.speculation.multiplier`).
pub const MULTIPLIER: f64 = 2.0;
/// Fraction of tasks that must finish before the median is trusted
/// (`spark.speculation.quantile`). Spark uses 0.75; 0.5 keeps a crashed
/// executor holding up to half a stage's tasks from starving the estimator.
pub const QUANTILE: f64 = 0.5;
/// Tasks faster than this are never speculated, whatever the median
/// (`spark.speculation.minTaskRuntime`).
pub const MIN_RUNTIME_NS: u64 = simt::time::millis(1);

// A zero tick would never advance the attempt loop's deadline: the scheduler
// would spin at one virtual instant and no task would run again.
const _: () = assert!(INTERVAL_NS > 0, "the speculation interval must be positive");

/// Sorted multiset of finished-task durations for one stage attempt.
#[derive(Default)]
pub struct DurationStats {
    sorted: Vec<u64>,
}

impl DurationStats {
    /// Record one finished task's run time.
    pub fn record(&mut self, run_ns: u64) {
        let pos = self.sorted.partition_point(|&x| x <= run_ns);
        self.sorted.insert(pos, run_ns);
    }

    /// Finished-task count.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Upper median of the recorded durations (deterministic for even
    /// counts), `None` before any task finished.
    pub fn median(&self) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.sorted.len() / 2])
    }

    /// The speculation threshold, once enough of the stage has finished:
    /// `max(MULTIPLIER × median, MIN_RUNTIME_NS)`. `None` while fewer than
    /// `QUANTILE × total_tasks` completions have been recorded — an early
    /// median over one or two fast tasks would speculate half the stage.
    pub fn threshold(&self, total_tasks: usize) -> Option<u64> {
        if self.count() < quantile_need(QUANTILE, total_tasks) {
            return None;
        }
        let median = self.median()?;
        Some(((MULTIPLIER * median as f64) as u64).max(MIN_RUNTIME_NS))
    }
}

/// Completions required before the median is trusted: `ceil(quantile ×
/// total)`, at least 1.
pub fn quantile_need(quantile: f64, total: usize) -> usize {
    ((quantile * total as f64).ceil() as usize).max(1)
}

/// Deterministic placement for a speculative copy: the executor slot with
/// the most free cores among those not in `exclude` (slots that already ran
/// a copy of the task), ties broken toward the lowest slot index. `None`
/// when no candidate has a free core — speculation never overcommits.
pub fn pick_speculation_target(free: &[u32], exclude: &BTreeSet<usize>) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (slot, &f) in free.iter().enumerate() {
        if f == 0 || exclude.contains(&slot) {
            continue;
        }
        match best {
            Some(b) if free[b] >= f => {}
            _ => best = Some(slot),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn median_is_upper_for_even_counts() {
        let mut s = DurationStats::default();
        for d in [40, 10, 30, 20] {
            s.record(d);
        }
        assert_eq!(s.median(), Some(30));
        s.record(50);
        assert_eq!(s.median(), Some(30));
    }

    #[test]
    fn threshold_waits_for_the_quantile() {
        let mut s = DurationStats::default();
        s.record(5 * MS);
        s.record(5 * MS);
        assert_eq!(s.threshold(6), None, "2 of 6 < ceil(0.5*6)");
        s.record(5 * MS);
        assert_eq!(s.threshold(6), Some(10 * MS), "2.0 x the median");
    }

    #[test]
    fn threshold_floors_at_min_runtime() {
        let mut s = DurationStats::default();
        s.record(10);
        assert_eq!(s.threshold(1), Some(MS));
    }

    #[test]
    fn quantile_need_is_ceil_and_at_least_one() {
        assert_eq!(quantile_need(0.5, 9), 5);
        assert_eq!(quantile_need(0.75, 4), 3);
        assert_eq!(quantile_need(0.0, 10), 1);
        assert_eq!(quantile_need(0.5, 1), 1);
    }

    #[test]
    fn target_prefers_most_free_cores_then_lowest_slot() {
        let none = BTreeSet::new();
        assert_eq!(pick_speculation_target(&[1, 3, 3], &none), Some(1));
        assert_eq!(pick_speculation_target(&[0, 0, 2], &none), Some(2));
        assert_eq!(pick_speculation_target(&[0, 0, 0], &none), None);
    }

    #[test]
    fn target_excludes_slots_that_ran_the_task() {
        let exclude = BTreeSet::from([1]);
        assert_eq!(pick_speculation_target(&[1, 3, 2], &exclude), Some(2));
        assert_eq!(pick_speculation_target(&[0, 3, 0], &exclude), None);
    }
}
