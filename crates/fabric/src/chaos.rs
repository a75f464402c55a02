//! Deterministic fault injection for the fabric (`FaultPlan`).
//!
//! A [`FaultPlan`] is a scriptable schedule of transport-level failures —
//! per-link drop/delay/flap windows, per-node crash and slowdown, and
//! whole-partition events — keyed to `simt` *virtual* time. The plan is
//! consulted at the single delivery chokepoint ([`crate::Net::send`]), which
//! every software stack (sockets, RDMA verbs, MPI) traverses, so one plan
//! exercises all transports identically. A crash window is also announced
//! at its start ([`crate::Net::on_node_down`]), which is how the layers
//! above notice a dead peer: its connections reset.
//!
//! Determinism: the schedule is fully decided at build time from a `u64`
//! seed ([`FaultPlan::seeded`]); the verdict for a message is a pure
//! function of `(virtual time, src, dst, stack)`. Same seed → same fault
//! schedule → same simulation, which makes any chaos failure replayable
//! from the seed alone.

use crate::cluster::NodeId;
use simt::rng::SeededRng;

/// Half-open virtual-time interval `[start_ns, end_ns)` during which a
/// fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Activation time (inclusive).
    pub start_ns: u64,
    /// Deactivation time (exclusive).
    pub end_ns: u64,
}

impl Window {
    /// True while the window is active at `t`.
    pub fn contains(&self, t: u64) -> bool {
        t >= self.start_ns && t < self.end_ns
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fault {
    /// Messages `src → dst` are dropped during the window.
    LinkDrop { src: NodeId, dst: NodeId, w: Window, stack: Option<String> },
    /// Messages `src → dst` are delivered `extra_ns` late during the window.
    LinkDelay { src: NodeId, dst: NodeId, w: Window, extra_ns: u64 },
    /// The node neither sends nor receives during the window (crash /
    /// blackout; includes loopback traffic).
    NodeDown { node: NodeId, w: Window },
    /// Every message to or from the node is `extra_ns` late (GC pause /
    /// overloaded NIC analog).
    NodeSlow { node: NodeId, w: Window, extra_ns: u64 },
    /// Messages crossing the boundary of `group` are dropped during the
    /// window (network partition: the group can talk internally and the
    /// rest of the cluster can talk internally, but not across).
    Partition { group: Vec<NodeId>, w: Window },
}

/// Verdict for one message at its send instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Silently drop (never schedule delivery).
    Drop,
    /// Deliver, but this many nanoseconds later than the fabric would.
    Delay(u64),
}

/// A seed-deterministic schedule of transport faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Start building a plan whose jitter derives from `seed`.
    pub fn seeded(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder { seed, rng: SeededRng::from_seed(seed), faults: Vec::new() }
    }

    /// The seed the plan was built from (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Each crash window's node and start time, in plan order.
    pub fn crashes(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.faults.iter().filter_map(|f| match f {
            Fault::NodeDown { node, w } => Some((*node, w.start_ns)),
            _ => None,
        })
    }

    /// Decide the fate of a message sent at virtual time `now` from node
    /// `src` to node `dst` over the software stack named `stack`. Drops
    /// dominate delays; delays from multiple matching faults accumulate.
    pub fn verdict(&self, now: u64, src: NodeId, dst: NodeId, stack: &str) -> Verdict {
        let mut extra = 0u64;
        for f in &self.faults {
            match f {
                Fault::LinkDrop { src: s, dst: d, w, stack: filt }
                    if *s == src
                        && *d == dst
                        && w.contains(now)
                        && filt.as_ref().is_none_or(|sub| stack.contains(sub.as_str())) =>
                {
                    return Verdict::Drop;
                }
                Fault::NodeDown { node, w }
                    if (*node == src || *node == dst) && w.contains(now) =>
                {
                    return Verdict::Drop;
                }
                Fault::Partition { group, w } if w.contains(now) => {
                    let a = group.contains(&src);
                    let b = group.contains(&dst);
                    if a != b {
                        return Verdict::Drop;
                    }
                }
                Fault::LinkDelay { src: s, dst: d, w, extra_ns }
                    if *s == src && *d == dst && w.contains(now) =>
                {
                    extra += extra_ns;
                }
                Fault::NodeSlow { node, w, extra_ns }
                    if (*node == src || *node == dst) && w.contains(now) =>
                {
                    extra += extra_ns;
                }
                _ => {}
            }
        }
        if extra > 0 {
            Verdict::Delay(extra)
        } else {
            Verdict::Deliver
        }
    }
}

/// Builder for [`FaultPlan`]. All jitter (flap window placement) comes from
/// the builder's seeded RNG, so the finished plan is a pure function of the
/// seed and the builder-call sequence.
pub struct FaultPlanBuilder {
    seed: u64,
    rng: SeededRng,
    faults: Vec<Fault>,
}

impl FaultPlanBuilder {
    /// Drop messages `src → dst` (one direction) in `[start, start + dur)`.
    pub fn drop_link(mut self, src: NodeId, dst: NodeId, start: u64, dur: u64) -> Self {
        let w = Window { start_ns: start, end_ns: start.saturating_add(dur) };
        self.faults.push(Fault::LinkDrop { src, dst, w, stack: None });
        self
    }

    /// Drop messages in both directions between `a` and `b`.
    pub fn drop_link_sym(self, a: NodeId, b: NodeId, start: u64, dur: u64) -> Self {
        self.drop_link(a, b, start, dur).drop_link(b, a, start, dur)
    }

    /// Drop only messages whose software-stack name contains `stack`
    /// (e.g. `"MPI"`), both directions. Models a plane-selective outage —
    /// the MPI/RDMA data plane dying while the socket plane stays healthy —
    /// which is what backend plane-fallback degrades around.
    pub fn drop_link_stack(
        mut self,
        a: NodeId,
        b: NodeId,
        start: u64,
        dur: u64,
        stack: &str,
    ) -> Self {
        let w = Window { start_ns: start, end_ns: start.saturating_add(dur) };
        self.faults.push(Fault::LinkDrop { src: a, dst: b, w, stack: Some(stack.to_string()) });
        self.faults.push(Fault::LinkDrop { src: b, dst: a, w, stack: Some(stack.to_string()) });
        self
    }

    /// Deliver messages `src → dst` late by `extra_ns` during the window.
    pub fn delay_link(
        mut self,
        src: NodeId,
        dst: NodeId,
        start: u64,
        dur: u64,
        extra_ns: u64,
    ) -> Self {
        let w = Window { start_ns: start, end_ns: start.saturating_add(dur) };
        self.faults.push(Fault::LinkDelay { src, dst, w, extra_ns });
        self
    }

    /// Flap the `a ↔ b` link: `count` symmetric drop windows of `down_for`
    /// ns each, the i-th nominally starting at `first_down + i * period`
    /// with seed-deterministic jitter of up to `period / 8`.
    pub fn flap_link(
        mut self,
        a: NodeId,
        b: NodeId,
        first_down: u64,
        period: u64,
        down_for: u64,
        count: u32,
    ) -> Self {
        assert!(period > 0, "flap period must be positive");
        for i in 0..count {
            let jitter = if period >= 8 { self.rng.next_range(0, period / 8) } else { 0 };
            let start = first_down + u64::from(i) * period + jitter;
            self = self.drop_link_sym(a, b, start, down_for);
        }
        self
    }

    /// Crash `node` for the window: nothing in or out, loopback included.
    pub fn crash_node(mut self, node: NodeId, start: u64, dur: u64) -> Self {
        let w = Window { start_ns: start, end_ns: start.saturating_add(dur) };
        self.faults.push(Fault::NodeDown { node, w });
        self
    }

    /// Isolate `node` from each of `peers` (both directions) for the
    /// window, leaving its other links intact. Models a crashed *data
    /// plane* whose control-plane connectivity (driver/master links)
    /// survives — the scenario Spark's FetchFailed machinery handles.
    pub fn isolate_among(mut self, node: NodeId, peers: &[NodeId], start: u64, dur: u64) -> Self {
        for &p in peers {
            if p != node {
                self = self.drop_link_sym(node, p, start, dur);
            }
        }
        self
    }

    /// Slow `node` down: all its traffic arrives `extra_ns` late during the
    /// window.
    pub fn slow_node(mut self, node: NodeId, start: u64, dur: u64, extra_ns: u64) -> Self {
        let w = Window { start_ns: start, end_ns: start.saturating_add(dur) };
        self.faults.push(Fault::NodeSlow { node, w, extra_ns });
        self
    }

    /// Partition the cluster: `group` vs. everyone else for the window.
    pub fn partition(mut self, group: &[NodeId], start: u64, dur: u64) -> Self {
        let w = Window { start_ns: start, end_ns: start.saturating_add(dur) };
        self.faults.push(Fault::Partition { group: group.to_vec(), w });
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan { seed: self.seed, faults: self.faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOCK: &str = "JavaSockets/IPoIB";

    #[test]
    fn empty_plan_always_delivers() {
        let p = FaultPlan::seeded(1).build();
        assert!(p.is_empty());
        assert_eq!(p.verdict(0, 0, 1, SOCK), Verdict::Deliver);
    }

    #[test]
    fn link_drop_is_directional_and_windowed() {
        let p = FaultPlan::seeded(1).drop_link(0, 1, 100, 50).build();
        assert_eq!(p.verdict(120, 0, 1, SOCK), Verdict::Drop);
        assert_eq!(p.verdict(120, 1, 0, SOCK), Verdict::Deliver, "reverse direction unaffected");
        assert_eq!(p.verdict(99, 0, 1, SOCK), Verdict::Deliver, "before window");
        assert_eq!(p.verdict(150, 0, 1, SOCK), Verdict::Deliver, "window end is exclusive");
    }

    #[test]
    fn stack_filtered_drop_spares_other_stacks() {
        let p = FaultPlan::seeded(1).drop_link_stack(0, 1, 0, 1_000, "MPI").build();
        assert_eq!(p.verdict(10, 0, 1, "MPI/MVAPICH2-X"), Verdict::Drop);
        assert_eq!(p.verdict(10, 1, 0, "MPI/MVAPICH2-X"), Verdict::Drop);
        assert_eq!(p.verdict(10, 0, 1, SOCK), Verdict::Deliver);
    }

    #[test]
    fn node_down_blocks_both_directions_and_loopback() {
        let p = FaultPlan::seeded(1).crash_node(2, 10, 10).build();
        assert_eq!(p.verdict(15, 2, 0, SOCK), Verdict::Drop);
        assert_eq!(p.verdict(15, 0, 2, SOCK), Verdict::Drop);
        assert_eq!(p.verdict(15, 2, 2, SOCK), Verdict::Drop);
        assert_eq!(p.verdict(15, 0, 1, SOCK), Verdict::Deliver);
    }

    #[test]
    fn delays_accumulate_across_matching_faults() {
        let p = FaultPlan::seeded(1).delay_link(0, 1, 0, 100, 7).slow_node(1, 0, 100, 5).build();
        assert_eq!(p.verdict(50, 0, 1, SOCK), Verdict::Delay(12));
        assert_eq!(p.verdict(50, 0, 2, SOCK), Verdict::Deliver);
        assert_eq!(p.verdict(50, 2, 1, SOCK), Verdict::Delay(5));
    }

    #[test]
    fn partition_drops_only_cross_group_traffic() {
        let p = FaultPlan::seeded(1).partition(&[0, 1], 0, 100).build();
        assert_eq!(p.verdict(10, 0, 1, SOCK), Verdict::Deliver, "inside the group");
        assert_eq!(p.verdict(10, 2, 3, SOCK), Verdict::Deliver, "outside the group");
        assert_eq!(p.verdict(10, 0, 2, SOCK), Verdict::Drop);
        assert_eq!(p.verdict(10, 3, 1, SOCK), Verdict::Drop);
    }

    #[test]
    fn drop_dominates_delay() {
        let p = FaultPlan::seeded(1).delay_link(0, 1, 0, 100, 9).drop_link(0, 1, 0, 100).build();
        assert_eq!(p.verdict(10, 0, 1, SOCK), Verdict::Drop);
    }

    #[test]
    fn flap_windows_are_seed_deterministic() {
        let a = FaultPlan::seeded(77).flap_link(0, 1, 1_000, 800, 100, 4).build();
        let b = FaultPlan::seeded(77).flap_link(0, 1, 1_000, 800, 100, 4).build();
        assert_eq!(a, b, "same seed, same schedule");
        let c = FaultPlan::seeded(78).flap_link(0, 1, 1_000, 800, 100, 4).build();
        assert_ne!(a, c, "different seed, different jitter");
        assert_eq!(a.len(), 8, "four windows, both directions");
    }

    #[test]
    fn isolate_spares_unlisted_peers() {
        let p = FaultPlan::seeded(3).isolate_among(1, &[0, 1, 2], 0, 100).build();
        assert_eq!(p.verdict(10, 1, 0, SOCK), Verdict::Drop);
        assert_eq!(p.verdict(10, 2, 1, SOCK), Verdict::Drop);
        // Node 3 (e.g. the driver) keeps talking to the victim.
        assert_eq!(p.verdict(10, 1, 3, SOCK), Verdict::Deliver);
        assert_eq!(p.verdict(10, 3, 1, SOCK), Verdict::Deliver);
    }
}
