//! Wait-graph diagnostics: per-resource holder and per-task waits-for bookkeeping.
//!
//! Three kinds of events are reported here: a task starting/stopping a
//! blocking wait on a resource (by [`crate::wait`], under every blocking
//! call), a task acquiring a resource (semaphore permits), and a task
//! releasing one. From those events the engine derives, at quiescence:
//!
//! * a **wait-for graph** — which blocked task waits on which resource, and
//!   which task holds it;
//! * **deadlock cycles** — cycles in that graph, named task-by-task and
//!   resource-by-resource in deterministic order.
//!
//! All bookkeeping is a no-op outside a green thread, so primitives stay
//! usable from plain unit tests. Everything is keyed on [`BTreeMap`]s and
//! per-simulation registration order so reports are bit-identical across
//! runs of the same seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::engine::current_handle;

/// Process-wide resource id allocator. Ids are only used as opaque keys;
/// human-readable labels come from per-simulation registration order, so
/// reports stay deterministic even when unrelated simulations share the
/// counter.
static NEXT_RID: AtomicU64 = AtomicU64::new(1);

/// Identity of one diagnosable resource: what the threads on one
/// [`WaitList`](crate::wait::WaitList) wait for.
pub struct DiagRes {
    rid: u64,
    kind: &'static str,
    name: Option<String>,
    /// Set when a simulation first labels it: only then has its drop
    /// bookkeeping to remove.
    labelled: AtomicBool,
}

impl DiagRes {
    pub(crate) fn new(kind: &'static str, name: Option<String>) -> Self {
        let rid = NEXT_RID.fetch_add(1, Ordering::Relaxed);
        DiagRes { rid, kind, name, labelled: AtomicBool::new(false) }
    }
}

impl Drop for DiagRes {
    /// A dropped resource has no waiter and no holder left to report: its
    /// label and holder counts go with it, so the bookkeeping follows the
    /// live resources, not every resource ever waited on.
    fn drop(&mut self) {
        if *self.labelled.get_mut() {
            with_diag(|d, _| d.forget(self.rid));
        }
    }
}

/// Per-simulation diagnostic state, owned by `engine::Inner`.
#[derive(Default)]
pub(crate) struct DiagState {
    /// Count of resources this simulation has seen; used for default labels.
    next_local: u64,
    /// Global rid -> display label ("fetch-slots" or "queue#3").
    labels: BTreeMap<u64, String>,
    /// Rid -> holder task -> hold count.
    holders: BTreeMap<u64, BTreeMap<usize, u64>>,
    /// Task -> rid it is currently blocked waiting for.
    waiting: BTreeMap<usize, u64>,
}

impl DiagState {
    /// Give `res` its display label the first time this simulation sees it.
    fn register(&mut self, res: &DiagRes) {
        if self.labels.contains_key(&res.rid) {
            return;
        }
        let l = match &res.name {
            Some(n) => n.clone(),
            None => format!("{}#{}", res.kind, self.next_local),
        };
        self.next_local += 1;
        self.labels.insert(res.rid, l);
        res.labelled.store(true, Ordering::Relaxed);
    }

    /// Resources with a label.
    #[cfg(test)]
    pub(crate) fn labelled(&self) -> usize {
        self.labels.len()
    }

    /// Drop what is kept about resource `rid`, which no longer exists.
    fn forget(&mut self, rid: u64) {
        self.labels.remove(&rid);
        self.holders.remove(&rid);
    }

    fn on_wait(&mut self, tid: usize, res: &DiagRes) {
        self.register(res);
        self.waiting.insert(tid, res.rid);
    }

    fn on_wait_end(&mut self, tid: usize) {
        self.waiting.remove(&tid);
    }

    fn on_acquire(&mut self, tid: usize, res: &DiagRes) {
        self.register(res);
        *self.holders.entry(res.rid).or_default().entry(tid).or_insert(0) += 1;
    }

    fn on_release(&mut self, tid: usize, res: &DiagRes) {
        // Semaphores may be released by a task other than the acquirer (a
        // signalling pattern); attribute such releases to the smallest-tid
        // holder so `holders` cannot grow stale monotonically.
        let holders = match self.holders.get_mut(&res.rid) {
            Some(h) if !h.is_empty() => h,
            _ => return,
        };
        let owner = if holders.contains_key(&tid) {
            tid
        } else {
            *holders.keys().next().expect("non-empty holder map")
        };
        let n = holders.get_mut(&owner).expect("owner present");
        *n -= 1;
        if *n == 0 {
            holders.remove(&owner);
        }
    }

    /// Resource label a task is blocked on, if the wait went through a
    /// [`WaitList`](crate::wait::WaitList) (`sleep` and the CPU model wait for
    /// the clock, not for a resource).
    pub(crate) fn waiting_label(&self, tid: usize) -> Option<String> {
        self.waiting.get(&tid).and_then(|rid| self.labels.get(rid).cloned())
    }

    /// Display label of an already-registered resource.
    pub(crate) fn label_of(&self, rid: u64) -> String {
        self.labels.get(&rid).cloned().unwrap_or_else(|| format!("resource#{rid}"))
    }

    /// Find deadlock cycles among `blocked` tasks: task -> waited resource ->
    /// each holder of that resource gives an edge. Cycles are rotated to
    /// start at their smallest tid and deduplicated, so output order is a
    /// pure function of the wait graph.
    pub(crate) fn find_cycles(&self, blocked: &BTreeSet<usize>) -> Vec<Vec<(usize, u64)>> {
        // edges: tid -> (rid waited on, successor holder tids)
        let mut edges: BTreeMap<usize, (u64, BTreeSet<usize>)> = BTreeMap::new();
        for (&tid, &rid) in &self.waiting {
            if !blocked.contains(&tid) {
                continue;
            }
            if let Some(holders) = self.holders.get(&rid) {
                let succ: BTreeSet<usize> =
                    holders.keys().copied().filter(|h| *h != tid && blocked.contains(h)).collect();
                if !succ.is_empty() {
                    edges.insert(tid, (rid, succ));
                }
            }
        }
        let mut cycles: BTreeSet<Vec<(usize, u64)>> = BTreeSet::new();
        for &start in edges.keys() {
            let mut path: Vec<usize> = Vec::new();
            Self::dfs(start, &edges, &mut path, &mut cycles);
        }
        cycles.into_iter().collect()
    }

    fn dfs(
        node: usize,
        edges: &BTreeMap<usize, (u64, BTreeSet<usize>)>,
        path: &mut Vec<usize>,
        cycles: &mut BTreeSet<Vec<(usize, u64)>>,
    ) {
        if let Some(pos) = path.iter().position(|&n| n == node) {
            let cycle: Vec<(usize, u64)> = path[pos..].iter().map(|&t| (t, edges[&t].0)).collect();
            // Canonical rotation: start the cycle at its smallest tid.
            let min_at =
                cycle.iter().enumerate().min_by_key(|(_, (t, _))| *t).map(|(i, _)| i).unwrap_or(0);
            let mut rot = cycle[min_at..].to_vec();
            rot.extend_from_slice(&cycle[..min_at]);
            cycles.insert(rot);
            return;
        }
        let Some((_, succ)) = edges.get(&node) else { return };
        path.push(node);
        for &next in succ {
            Self::dfs(next, edges, path, cycles);
        }
        path.pop();
    }
}

fn with_diag(f: impl FnOnce(&mut DiagState, usize)) {
    if let Some((inner, tid)) = current_handle() {
        let mut d = inner.diag.lock();
        f(&mut d, tid.0);
    }
}

/// The calling task is about to block waiting for `res`.
pub(crate) fn on_wait(res: &DiagRes) {
    with_diag(|d, tid| d.on_wait(tid, res));
}

/// The calling task's wait ended (satisfied, timed out, or errored).
pub(crate) fn on_wait_end() {
    with_diag(|d, tid| d.on_wait_end(tid));
}

/// The calling task acquired `res` (e.g. semaphore permits).
pub(crate) fn on_acquire(res: &DiagRes) {
    with_diag(|d, tid| d.on_acquire(tid, res));
}

/// The calling task released `res`.
pub(crate) fn on_release(res: &DiagRes) {
    with_diag(|d, tid| d.on_release(tid, res));
}
