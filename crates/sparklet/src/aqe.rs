//! Adaptive query execution: size- and skew-aware reduce planning.
//!
//! At the map→reduce stage boundary the scheduler knows, from the
//! registered [`MapStatus`](crate::shuffle::MapStatus) sizes, exactly how
//! many virtual bytes every `(map, reduce)` cell of the shuffle holds.
//! [`plan`] turns that matrix into a [`ReducePlan`]:
//!
//! * runs of adjacent *tiny* reduce buckets are **coalesced** into one task
//!   (fewer task overheads, fewer fetch requests);
//! * a **skewed** bucket — larger than `skew_factor ×` the median non-empty
//!   bucket and above the coalesce target — is **split** by map range, so
//!   several reducers each fetch and pre-aggregate a disjoint slice of the
//!   same bucket (the "salt" is the map range itself), followed by one
//!   final merge task per split bucket;
//! * everything else passes through as a singleton task.
//!
//! The planner is a *pure function* of the size matrix and the
//! [`AqeConf`]: identical inputs always produce an
//! identical plan, which is what makes adaptive execution replayable and
//! lets recovery re-derive the same plan after an epoch bump (recomputed
//! map outputs carry identical sizes — the data is deterministic).
//!
//! The plan is a **partition of the reduce space**: every `(map, reduce)`
//! cell is covered by exactly one task ([`ReducePlan::verify_partition_of_space`]
//! machine-checks it, and a seeded property in `tests/aqe_tests.rs` pins it for
//! arbitrary matrices).

use std::sync::Arc;

use crate::config::AqeConf;
use crate::rdd::{ShuffleDepMeta, TaskRunner};
use crate::rpc::AnyMsg;

/// One schedulable unit of an adaptive reduce stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanTask {
    /// Fetch and reduce a contiguous run of *complete* reduce buckets in
    /// one pass. A singleton run is the static behaviour; a longer run is a
    /// coalesce of adjacent tiny buckets.
    Buckets {
        /// The reduce buckets, ascending and contiguous.
        buckets: Vec<u32>,
    },
    /// Fetch map partitions `map_lo..map_hi` of one oversized bucket and
    /// pre-aggregate the slice; a final merge task combines the slices.
    Slice {
        /// The split bucket.
        bucket: u32,
        /// First map partition of the slice (inclusive).
        map_lo: u32,
        /// One past the last map partition of the slice.
        map_hi: u32,
    },
}

/// The adaptive reduce plan for one shuffle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducePlan {
    /// Map partition count of the planned shuffle.
    pub num_maps: u32,
    /// Reduce bucket count of the planned shuffle.
    pub num_reduces: u32,
    /// The tasks, in ascending bucket order (slices of one bucket in
    /// ascending `map_lo` order).
    pub tasks: Vec<PlanTask>,
    /// Buckets that were split and therefore need a merge phase, ascending.
    pub split_buckets: Vec<u32>,
}

impl ReducePlan {
    /// Check that every `(map, reduce)` cell is covered by exactly one
    /// task — the invariant adaptive correctness rests on.
    pub fn verify_partition_of_space(&self) -> Result<(), String> {
        let (m, r) = (self.num_maps as usize, self.num_reduces as usize);
        let mut cover = vec![0u32; m * r];
        for t in &self.tasks {
            match t {
                PlanTask::Buckets { buckets } => {
                    for &b in buckets {
                        if b as usize >= r {
                            return Err(format!("bucket {b} out of range {r}"));
                        }
                        for map in 0..m {
                            cover[map * r + b as usize] += 1;
                        }
                    }
                }
                PlanTask::Slice { bucket, map_lo, map_hi } => {
                    if *bucket as usize >= r {
                        return Err(format!("slice bucket {bucket} out of range {r}"));
                    }
                    if map_lo >= map_hi || *map_hi as usize > m {
                        return Err(format!("bad slice range {map_lo}..{map_hi} over {m} maps"));
                    }
                    for map in *map_lo..*map_hi {
                        cover[map as usize * r + *bucket as usize] += 1;
                    }
                }
            }
        }
        for (i, c) in cover.iter().enumerate() {
            if *c != 1 {
                return Err(format!(
                    "cell (map {}, reduce {}) covered {c} times",
                    i / r.max(1),
                    i % r.max(1)
                ));
            }
        }
        Ok(())
    }

    /// Number of slice tasks across all split buckets.
    pub fn slice_count(&self) -> usize {
        self.tasks.iter().filter(|t| matches!(t, PlanTask::Slice { .. })).count()
    }

    /// Number of coalesced tasks (runs of more than one bucket).
    pub fn coalesced_count(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t, PlanTask::Buckets { buckets } if buckets.len() > 1))
            .count()
    }
}

/// Build the adaptive reduce plan for a shuffle whose `(map, reduce)` cell
/// sizes are `sizes[map][reduce]` virtual bytes. Pure and deterministic:
/// equal inputs yield equal plans.
pub fn plan<S: AsRef<[u64]>>(sizes: &[S], conf: &AqeConf) -> ReducePlan {
    let num_maps = sizes.len() as u32;
    let num_reduces = sizes.first().map_or(0, |s| s.as_ref().len()) as u32;
    debug_assert!(
        sizes.iter().all(|s| s.as_ref().len() == num_reduces as usize),
        "ragged size matrix"
    );

    // Per-bucket totals.
    let mut bucket_bytes = vec![0u64; num_reduces as usize];
    for row in sizes {
        for (r, sz) in row.as_ref().iter().enumerate() {
            bucket_bytes[r] += *sz;
        }
    }

    // Median of the non-empty buckets anchors the skew test; an empty
    // shuffle (or one bucket) can never be skewed.
    let mut nonzero: Vec<u64> = bucket_bytes.iter().copied().filter(|b| *b > 0).collect();
    nonzero.sort_unstable();
    let median = if nonzero.is_empty() { 0 } else { nonzero[nonzero.len() / 2] };

    let is_split = |bytes: u64| -> bool {
        num_maps >= 2
            && median > 0
            && bytes > conf.target_bytes
            && (bytes as f64) > conf.skew_factor * median as f64
    };

    let mut tasks = Vec::new();
    let mut split_buckets = Vec::new();
    let mut run: Vec<u32> = Vec::new();
    let mut run_bytes = 0u64;
    let flush = |run: &mut Vec<u32>, run_bytes: &mut u64, tasks: &mut Vec<PlanTask>| {
        if !run.is_empty() {
            tasks.push(PlanTask::Buckets { buckets: std::mem::take(run) });
            *run_bytes = 0;
        }
    };

    for r in 0..num_reduces {
        let bytes = bucket_bytes[r as usize];
        if is_split(bytes) {
            // Close the pending coalesce run, then emit map-range slices.
            flush(&mut run, &mut run_bytes, &mut tasks);
            let want = bytes.div_ceil(conf.target_bytes.max(1));
            let k =
                want.min(u64::from(conf.max_slices.max(2))).min(u64::from(num_maps)).max(2) as u32;
            if k < 2 {
                tasks.push(PlanTask::Buckets { buckets: vec![r] });
                continue;
            }
            split_buckets.push(r);
            // Greedy byte-balanced contiguous map ranges: close a slice once
            // it reaches its fair share, keeping one map per pending slice.
            let per_slice = bytes.div_ceil(u64::from(k));
            let mut lo = 0u32;
            let mut acc = 0u64;
            let mut emitted = 0u32;
            for map in 0..num_maps {
                acc += sizes[map as usize].as_ref()[r as usize];
                let maps_left = num_maps - map - 1;
                let slices_left = k - emitted - 1;
                let must_close = maps_left <= slices_left;
                if (acc >= per_slice || must_close) && emitted + 1 < k {
                    tasks.push(PlanTask::Slice { bucket: r, map_lo: lo, map_hi: map + 1 });
                    lo = map + 1;
                    acc = 0;
                    emitted += 1;
                }
            }
            tasks.push(PlanTask::Slice { bucket: r, map_lo: lo, map_hi: num_maps });
            continue;
        }
        // Coalesce path: extend the current run unless the bucket would push
        // it past the target (an oversized-but-not-skewed bucket rides as a
        // singleton run).
        if !run.is_empty() && run_bytes + bytes > conf.target_bytes {
            flush(&mut run, &mut run_bytes, &mut tasks);
        }
        run.push(r);
        run_bytes += bytes;
        if run_bytes >= conf.target_bytes {
            flush(&mut run, &mut run_bytes, &mut tasks);
        }
    }
    flush(&mut run, &mut run_bytes, &mut tasks);

    let p = ReducePlan { num_maps, num_reduces, tasks, split_buckets };
    debug_assert_eq!(p.verify_partition_of_space(), Ok(()));
    p
}

// --- adaptive job bridge ----------------------------------------------------
//
// The scheduler is type-erased; the RDD layer is typed. `AdaptiveJobSpec`
// is the seam: a shuffle-read node hands the scheduler one per adaptive job
// (itself plus the job's erased action), and the scheduler only ever asks it
// for task runners. Outputs ride back through `TaskOutput::Result` wrapped
// in the two marker types below so the scheduler can route them without
// knowing the element type.

/// Result of an adaptive task covering complete buckets: one action result
/// per bucket, in the task's bucket order.
pub struct BucketResults(pub Vec<(u32, AnyMsg)>);

/// Partial result of one map-range slice of a split bucket, to be merged.
pub struct SlicePartial {
    /// The split bucket.
    pub bucket: u32,
    /// First map partition of the slice (orders the merge deterministically).
    pub map_lo: u32,
    /// Type-erased `Vec<U>` partial.
    pub data: AnyMsg,
}

/// Everything the scheduler needs to run one job adaptively.
pub trait AdaptiveJobSpec: Send + Sync + 'static {
    /// The shuffle the reduce plan is built over.
    fn dep(&self) -> Arc<dyn ShuffleDepMeta>;
    /// Build the runner for one plan task. `Buckets` runners return
    /// [`BucketResults`]; `Slice` runners return [`SlicePartial`].
    fn make_task(&self, task: &PlanTask) -> Arc<dyn TaskRunner>;
    /// Build the merge runner for one split bucket over its slice partials
    /// (ascending `map_lo` order). Returns [`BucketResults`] with one entry.
    fn make_merge_task(&self, bucket: u32, partials: Vec<AnyMsg>) -> Arc<dyn TaskRunner>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AqeConf;

    fn conf(target: u64, skew: f64) -> AqeConf {
        AqeConf { enabled: true, target_bytes: target, skew_factor: skew, max_slices: 4 }
    }

    /// sizes[map][reduce] from per-bucket totals, spread evenly over maps.
    fn even(maps: usize, buckets: &[u64]) -> Vec<Vec<u64>> {
        (0..maps).map(|_| buckets.iter().map(|b| b / maps as u64).collect()).collect()
    }

    #[test]
    fn uniform_buckets_pass_through_as_singletons() {
        let sizes = even(4, &[100, 100, 100, 100]);
        let p = plan(&sizes, &conf(100, 4.0));
        assert_eq!(p.tasks.len(), 4);
        assert!(p.split_buckets.is_empty());
        assert_eq!(p.verify_partition_of_space(), Ok(()));
    }

    #[test]
    fn tiny_buckets_coalesce_up_to_target() {
        let sizes = even(2, &[10, 10, 10, 10, 10, 10]);
        let p = plan(&sizes, &conf(30, 4.0));
        assert_eq!(p.verify_partition_of_space(), Ok(()));
        assert_eq!(p.tasks.len(), 2, "{:?}", p.tasks);
        assert_eq!(p.tasks[0], PlanTask::Buckets { buckets: vec![0, 1, 2] });
        assert_eq!(p.tasks[1], PlanTask::Buckets { buckets: vec![3, 4, 5] });
    }

    #[test]
    fn empty_buckets_fold_into_neighbouring_runs() {
        let sizes = even(2, &[0, 0, 8, 0, 0, 0, 8, 0]);
        let p = plan(&sizes, &conf(16, 4.0));
        assert_eq!(p.verify_partition_of_space(), Ok(()));
        // Zero-byte buckets ride along with their neighbours; the run
        // closes when it reaches the target (buckets 0..=6 hold 16 bytes),
        // leaving the trailing empty bucket in a second run.
        assert_eq!(p.tasks.len(), 2, "{:?}", p.tasks);
        assert_eq!(p.tasks[0], PlanTask::Buckets { buckets: (0..7).collect() });
        assert_eq!(p.tasks[1], PlanTask::Buckets { buckets: vec![7] });
    }

    #[test]
    fn skewed_bucket_splits_by_map_range() {
        let sizes = even(4, &[1000, 10, 10, 10]);
        let p = plan(&sizes, &conf(100, 4.0));
        assert_eq!(p.verify_partition_of_space(), Ok(()));
        assert_eq!(p.split_buckets, vec![0]);
        let slices: Vec<_> =
            p.tasks.iter().filter(|t| matches!(t, PlanTask::Slice { .. })).collect();
        assert_eq!(slices.len(), 4, "{:?}", p.tasks);
        assert_eq!(slices[0], &PlanTask::Slice { bucket: 0, map_lo: 0, map_hi: 1 });
        assert_eq!(slices[3], &PlanTask::Slice { bucket: 0, map_lo: 3, map_hi: 4 });
    }

    #[test]
    fn oversized_but_even_buckets_do_not_split() {
        // Every bucket over target, none skewed relative to the median.
        let sizes = even(4, &[400, 400, 400, 400]);
        let p = plan(&sizes, &conf(100, 4.0));
        assert!(p.split_buckets.is_empty());
        assert_eq!(p.tasks.len(), 4);
    }

    #[test]
    fn single_map_never_splits() {
        let sizes = even(1, &[1000, 10]);
        let p = plan(&sizes, &conf(100, 2.0));
        assert!(p.split_buckets.is_empty());
        assert_eq!(p.verify_partition_of_space(), Ok(()));
    }

    #[test]
    fn empty_matrix_yields_one_task_per_nothing() {
        let sizes: Vec<Vec<u64>> = vec![];
        let p = plan(&sizes, &conf(100, 4.0));
        assert_eq!(p.tasks.len(), 0);
        assert_eq!(p.verify_partition_of_space(), Ok(()));
    }

    #[test]
    fn all_zero_buckets_coalesce_to_one_task() {
        let sizes = even(3, &[0, 0, 0, 0]);
        let p = plan(&sizes, &conf(100, 4.0));
        assert_eq!(p.tasks.len(), 1);
        assert_eq!(p.tasks[0], PlanTask::Buckets { buckets: vec![0, 1, 2, 3] });
    }

    #[test]
    fn plan_is_deterministic() {
        let sizes = even(5, &[7, 900, 3, 0, 42, 42, 900, 1]);
        let c = conf(50, 3.0);
        assert_eq!(plan(&sizes, &c), plan(&sizes, &c));
    }
}
