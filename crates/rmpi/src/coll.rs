//! Collective operations over intracommunicators.
//!
//! Implemented over point-to-point sends with reserved tags; each collective
//! round consumes one per-communicator sequence number, so collectives and
//! user p2p traffic never cross-match. The data-movement collectives run
//! binomial-tree exchanges built on nonblocking requests ([`Comm::irecv`] +
//! [`crate::waitall`]): a rank posts one receive per tree child up front and
//! completes them as a batch, so an N-rank round costs O(log N) latency
//! steps instead of the old flat O(N) loop at the root.
//!
//! Tree addressing works in *virtual ranks* (`vrank = (rank + size - root) %
//! size`), which places the root at virtual rank 0 for any actual root. A
//! virtual rank `v`'s parent clears its lowest set bit (`v & (v - 1)`); its
//! children are `v + 1, v + 2, v + 4, …` below the next power of two. All
//! loops iterate in deterministic child order, and completion order inside a
//! batch is fixed by virtual arrival time, so collective timings stay
//! byte-reproducible across runs.

use std::any::Any;

use crate::comm::{waitall, Comm, Request};
use crate::types::MpiError;

/// Reserved tag space for collective rounds.
const COLL_BASE: u64 = 1 << 62;

fn coll_tag(op: u64, seq: u64) -> u64 {
    COLL_BASE | (op << 48) | (seq & 0xFFFF_FFFF_FFFF)
}

const OP_BCAST: u64 = 3;
const OP_GATHER: u64 = 4;

/// Lowest set bit of `v` (undefined for 0; callers special-case the root).
fn lowbit(v: u32) -> u32 {
    v & v.wrapping_neg()
}

/// Parent of virtual rank `v` in the binomial tree (clear the lowest set
/// bit). The root (virtual rank 0) has no parent.
fn tree_parent(v: u32) -> u32 {
    v & (v - 1)
}

/// Children of virtual rank `v` in a `size`-member binomial tree, in
/// deterministic increasing order.
fn tree_children(v: u32, size: u32) -> Vec<u32> {
    let limit = if v == 0 { size } else { lowbit(v) };
    let mut out = Vec::new();
    let mut m = 1u32;
    while m < limit {
        let child = v + m;
        if child >= size {
            break;
        }
        out.push(child);
        m <<= 1;
    }
    out
}

impl Comm {
    /// Span covering one collective phase on this rank (when tracing is on).
    fn coll_span(&self, name: &'static str, root: Option<u32>) -> Option<obs::Span> {
        let obs = self.universe().net().obs();
        obs.is_traced().then(|| {
            let mut kvs = obs::kv! {"rank" => self.rank(), "size" => self.size()};
            if let Some(r) = root {
                kvs.push(("root".to_string(), r.to_string()));
            }
            obs.span(name, kvs)
        })
    }

    /// Virtual rank of this process in a tree rooted at `root`.
    fn vrank(&self, root: u32) -> u32 {
        (self.rank() + self.size() - root) % self.size()
    }

    /// Actual rank addressed by virtual rank `v` in a tree rooted at `root`.
    fn actual(&self, v: u32, root: u32) -> u32 {
        (v + root) % self.size()
    }

    /// `MPI_Bcast`: `root` supplies `Some(value)`; everyone returns the
    /// value. `virtual_len` is the charged wire size per hop. Tree descent:
    /// each rank receives from its tree parent and forwards to its children
    /// with nonblocking sends completed as a batch.
    pub fn bcast<T: Any + Send + Sync + Clone>(
        &self,
        root: u32,
        value: Option<T>,
        virtual_len: u64,
    ) -> Result<T, MpiError> {
        let _span = self.coll_span("rmpi.coll.bcast", Some(root));
        let seq = self.next_coll_seq();
        let size = self.size();
        let v = self.vrank(root);
        let value = if v == 0 {
            value.expect("bcast root must supply a value")
        } else {
            let src = self.actual(tree_parent(v), root);
            let (got, _st) = self.recv_value::<T>(Some(src), Some(coll_tag(OP_BCAST, seq)))?;
            (*got).clone()
        };
        let sends: Vec<Request> = tree_children(v, size)
            .into_iter()
            .map(|c| {
                self.isend(
                    self.actual(c, root),
                    coll_tag(OP_BCAST, seq),
                    fabric::Payload::control(value.clone(), virtual_len),
                )
            })
            .collect::<Result<_, _>>()?;
        waitall(sends)?;
        Ok(value)
    }

    /// `MPI_Gather`: root returns `Some(vec)` in rank order; others `None`.
    /// Tree ascent: each rank batches the receives from all its children
    /// with `waitall`, merges the subtree contributions, and forwards one
    /// message (charged by subtree size) to its parent.
    pub fn gather<T: Any + Send + Sync + Clone>(
        &self,
        root: u32,
        value: T,
        virtual_len: u64,
    ) -> Result<Option<Vec<T>>, MpiError> {
        let _span = self.coll_span("rmpi.coll.gather", Some(root));
        let seq = self.next_coll_seq();
        let size = self.size();
        let v = self.vrank(root);

        // Post one receive per child subtree, then complete them together.
        let children = tree_children(v, size);
        let reqs: Vec<Request> = children
            .iter()
            .map(|&c| self.irecv(Some(self.actual(c, root)), Some(coll_tag(OP_GATHER, seq))))
            .collect();
        let mut subtree: Vec<(u32, T)> = vec![(self.rank(), value)];
        for done in waitall(reqs)? {
            let (payload, _st) = done.expect("gather receive completes with a message");
            let part = payload
                .value_as::<Vec<(u32, T)>>()
                .expect("gather subtree carries rank-tagged values");
            subtree.extend(part.iter().cloned());
        }

        if v == 0 {
            debug_assert_eq!(subtree.len(), size as usize, "gather root saw every rank");
            subtree.sort_by_key(|(rank, _)| *rank);
            Ok(Some(subtree.into_iter().map(|(_, value)| value).collect()))
        } else {
            let parent = self.actual(tree_parent(v), root);
            let charged = virtual_len * subtree.len() as u64;
            self.send_value(parent, coll_tag(OP_GATHER, seq), subtree, charged)?;
            Ok(None)
        }
    }

    /// `MPI_Allgather`: everyone returns the rank-ordered vector. This is
    /// the collective the paper uses to exchange executor launch arguments
    /// across workers before `MPI_Comm_spawn_multiple` (§V).
    pub fn allgather<T: Any + Send + Sync + Clone>(
        &self,
        value: T,
        virtual_len: u64,
    ) -> Result<Vec<T>, MpiError> {
        let _span = self.coll_span("rmpi.coll.allgather", None);
        let n = self.size() as u64;
        let gathered = self.gather(0, value, virtual_len)?;
        self.bcast(0, gathered, virtual_len * n)
    }

    /// `MPI_Allreduce` with a user-supplied associative combiner.
    pub fn allreduce<T: Any + Send + Sync + Clone>(
        &self,
        value: T,
        virtual_len: u64,
        combine: impl Fn(T, T) -> T,
    ) -> Result<T, MpiError> {
        let _span = self.coll_span("rmpi.coll.allreduce", None);
        let gathered = self.gather(0, value, virtual_len)?;
        let reduced = gathered.map(|vs| {
            let mut it = vs.into_iter();
            let first = it.next().expect("non-empty communicator");
            it.fold(first, &combine)
        });
        self.bcast(0, reduced, virtual_len)
    }
}

#[cfg(test)]
mod tests {
    use super::{tree_children, tree_parent};
    use crate::launch::mpiexec;
    use fabric::{ClusterSpec, Net};
    use simt::sync::Mutex;
    use std::sync::Arc;

    fn run_ranks(n_nodes: usize, ranks: usize, f: impl Fn(crate::Comm) + Send + Sync + 'static) {
        let sim = simt::Sim::new();
        let placements: Vec<usize> = (0..ranks).map(|i| i % n_nodes).collect();
        sim.spawn("launcher", move || {
            let net = Net::new(&ClusterSpec::test(n_nodes));
            mpiexec(&net, &placements, f);
        });
        let r = sim.run().unwrap();
        r.assert_clean();
    }

    #[test]
    fn binomial_tree_shape_is_consistent() {
        // Every non-root's parent lists it as a child; the tree spans 1..n.
        for size in 1u32..=33 {
            let mut seen = vec![false; size as usize];
            seen[0] = true;
            for v in 1..size {
                let p = tree_parent(v);
                assert!(tree_children(p, size).contains(&v), "size {size}: {p} !-> {v}");
                assert!(!seen[v as usize], "size {size}: {v} reached twice");
                seen[v as usize] = true;
            }
            assert!(seen.iter().all(|s| *s), "size {size}: tree does not span");
        }
    }

    #[test]
    fn bcast_distributes_root_value() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        run_ranks(2, 3, move |comm| {
            let v = comm.bcast(0, if comm.rank() == 0 { Some(42u64) } else { None }, 8).unwrap();
            got2.lock().push(v);
        });
        assert_eq!(got.lock().clone(), vec![42, 42, 42]);
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        run_ranks(2, 3, move |comm| {
            let v = comm
                .bcast(2, if comm.rank() == 2 { Some("hi".to_string()) } else { None }, 2)
                .unwrap();
            got2.lock().push(v);
        });
        assert_eq!(got.lock().clone(), vec!["hi", "hi", "hi"]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let got = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        run_ranks(2, 4, move |comm| {
            let r = comm.gather(0, u64::from(comm.rank()) * 10, 8).unwrap();
            if comm.rank() == 0 {
                *got2.lock() = r;
            } else {
                assert!(r.is_none());
            }
        });
        assert_eq!(got.lock().clone(), Some(vec![0, 10, 20, 30]));
    }

    #[test]
    fn gather_from_nonzero_root_over_a_deep_tree() {
        // 9 ranks forces a 3-level tree plus a vrank rotation: actual rank 5
        // is the root, so virtual rank v maps to actual (v + 5) % 9.
        let got = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        run_ranks(3, 9, move |comm| {
            let r = comm.gather(5, u64::from(comm.rank()) * 10, 8).unwrap();
            if comm.rank() == 5 {
                *got2.lock() = r;
            } else {
                assert!(r.is_none());
            }
        });
        assert_eq!(got.lock().clone(), Some((0..9).map(|i| i * 10).collect::<Vec<u64>>()));
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        run_ranks(3, 3, move |comm| {
            // The paper's §V use case: exchange executor launch args.
            let arg = format!("--executor-on-rank-{}", comm.rank());
            let all = comm.allgather(arg, 64).unwrap();
            got2.lock().push(all);
        });
        let all = got.lock().clone();
        assert_eq!(all.len(), 3);
        for v in all {
            assert_eq!(
                v,
                vec![
                    "--executor-on-rank-0".to_string(),
                    "--executor-on-rank-1".to_string(),
                    "--executor-on-rank-2".to_string()
                ]
            );
        }
    }

    #[test]
    fn allreduce_sums() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        run_ranks(2, 4, move |comm| {
            let s = comm.allreduce(u64::from(comm.rank()) + 1, 8, |a, b| a + b).unwrap();
            got2.lock().push(s);
        });
        assert_eq!(got.lock().clone(), vec![10, 10, 10, 10]);
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        run_ranks(2, 3, move |comm| {
            let a = comm.bcast(0, if comm.rank() == 0 { Some(1u64) } else { None }, 8).unwrap();
            let b = comm.bcast(2, if comm.rank() == 2 { Some(3u64) } else { None }, 8).unwrap();
            let c = comm.bcast(1, if comm.rank() == 1 { Some(2u64) } else { None }, 8).unwrap();
            let d = comm.allgather(comm.rank(), 8).unwrap();
            got2.lock().push((a, b, c, d));
        });
        for (a, b, c, d) in got.lock().clone() {
            assert_eq!((a, b, c), (1, 3, 2));
            assert_eq!(d, vec![0, 1, 2]);
        }
    }

    #[test]
    fn p2p_and_collectives_coexist() {
        run_ranks(2, 2, move |comm| {
            if comm.rank() == 0 {
                // Send user traffic with a tag in the collective numeric
                // range (but without the reserved bit).
                comm.send_value(1, 0xFFFF, 7u32, 8).unwrap();
                comm.bcast(0, Some(9u32), 8).unwrap();
            } else {
                // The user message travels ahead of the bcast's: only the
                // reserved tag may match the collective's receive.
                assert_eq!(comm.bcast::<u32>(0, None, 8).unwrap(), 9);
                let (v, st) = comm.recv_value::<u32>(Some(0), Some(0xFFFF)).unwrap();
                assert_eq!(*v, 7);
                assert_eq!(st.source, 0);
            }
        });
    }
}
