//! One metrics surface for the whole stack.
//!
//! Components register typed handles (`Counter`, `Gauge`, `Histogram`) by
//! name on a [`Registry`]; readers never touch component structs — they take
//! a [`MetricsSnapshot`] (BTreeMap-keyed, so iteration order is
//! deterministic) and query it by key. Snapshots are plain data: they can be
//! shipped inside simulated RPC messages (task → scheduler) and merged.

use simt::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing counter handle. Cheap to clone; all clones share
/// the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (u64; the virtual clock never goes
/// negative and neither do our occupancy figures).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Power-of-two buckets: bucket `i` counts values whose bit length is
    /// `i` (bucket 0 holds zeros), i.e. upper bound `2^i - 1`.
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Power-of-two-bucketed histogram handle (virtual durations, sizes).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let h = &self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        let idx = (64 - v.leading_zeros()) as usize;
        h.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { h.min.load(Ordering::Relaxed) },
            max: h.max.load(Ordering::Relaxed),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (upper_bound(i), n))
                })
                .collect(),
        }
    }
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// Frozen view of one histogram: only non-empty buckets, keyed by their
/// inclusive upper bound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// `(inclusive upper bound, observation count)` for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(ub, n) in &other.buckets {
            *merged.entry(ub).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The single metrics registration/read surface. Cloning shares the
/// underlying store; `snapshot()` is the only sanctioned read path for
/// consumers outside the owning component.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Freeze every registered instrument into a deterministic,
    /// BTreeMap-keyed snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self.inner.gauges.lock().iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Frozen, mergeable view of a [`Registry`]. All maps are `BTreeMap`s so
/// iteration (and any rendering built on it) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, or 0 if never registered.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters add, gauges keep the maximum
    /// (peak semantics — the merge targets are per-task snapshots folded
    /// into a stage), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = Registry::new();
        reg.counter("a.msgs").add(3);
        reg.counter("a.msgs").inc();
        reg.gauge("a.depth").set(7);
        reg.histogram("a.lat").observe(0);
        reg.histogram("a.lat").observe(5);
        reg.histogram("a.lat").observe(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.msgs"), 4);
        assert_eq!(snap.gauge("a.depth"), 7);
        let h = snap.histogram("a.lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1005);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_histograms() {
        let a = Registry::new();
        a.counter("x").add(2);
        a.gauge("g").set(5);
        a.histogram("h").observe(10);
        let b = Registry::new();
        b.counter("x").add(40);
        b.counter("y").inc();
        b.gauge("g").set(3);
        b.histogram("h").observe(100);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("x"), 42);
        assert_eq!(snap.counter("y"), 1);
        assert_eq!(snap.gauge("g"), 5, "merge keeps the peak gauge value");
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 110);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn snapshot_iteration_is_key_ordered() {
        let reg = Registry::new();
        reg.counter("z").inc();
        reg.counter("a").inc();
        reg.counter("m").inc();
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.counters().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }
}
