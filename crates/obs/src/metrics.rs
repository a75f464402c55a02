//! One metrics surface for the whole stack.
//!
//! Components register typed handles (`Counter`, `Gauge`) by
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

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
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
        instrument(&self.inner.counters, name)
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        instrument(&self.inner.gauges, name)
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
        }
    }
}

/// The instrument registered under `name`, registered first if it is new.
/// Only a first registration allocates the name.
fn instrument<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = map.lock();
    match map.get(name) {
        Some(found) => found.clone(),
        None => map.entry(name.to_owned()).or_default().clone(),
    }
}

/// Frozen, mergeable view of a [`Registry`]. All maps are `BTreeMap`s so
/// iteration (and any rendering built on it) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
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
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Fold `other` into `self`: counters add, gauges keep the maximum
    /// (peak semantics — the merge targets are per-task snapshots folded
    /// into a stage).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let reg = Registry::new();
        reg.counter("a.msgs").add(3);
        reg.counter("a.msgs").inc();
        reg.gauge("a.depth").set(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.msgs"), 4);
        assert_eq!(snap.gauge("a.depth"), 7);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn two_lookups_of_one_name_share_one_instrument() {
        let reg = Registry::new();
        let (first, second) = (reg.counter("c"), reg.counter("c"));
        assert!(Arc::ptr_eq(&first.0, &second.0));
        first.add(2);
        assert_eq!(second.get(), 2);
        let (first, second) = (reg.gauge("g"), reg.gauge("g"));
        assert!(Arc::ptr_eq(&first.0, &second.0));
        // A counter and a gauge are separate namespaces.
        assert!(!Arc::ptr_eq(&reg.counter("g").0, &first.0));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_keeps_peak_gauges() {
        let a = Registry::new();
        a.counter("x").add(2);
        a.gauge("g").set(5);
        let b = Registry::new();
        b.counter("x").add(40);
        b.counter("y").inc();
        b.gauge("g").set(3);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("x"), 42);
        assert_eq!(snap.counter("y"), 1);
        assert_eq!(snap.gauge("g"), 5, "merge keeps the peak gauge value");
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
