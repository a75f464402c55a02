//! Property: batched completion is observationally equivalent to sequential
//! completion. `waitall(reqs)` must yield exactly the payloads a sequential
//! `wait()` loop yields, in request order, finishing at the same virtual
//! time — whatever the arrival order, posting order, or send staggering.
//! This pins the reservation semantics: posted receives reserve their match
//! at arrival, so no completion strategy can re-match messages differently.

use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use rmpi::{mpiexec, waitall, Comm};
use simt::sync::Mutex;
use simt::{for_each_case, SeededRng, Sim};

const TAG_BASE: u64 = 10_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Completion {
    Waitall,
    Sequential,
}

/// One observed fan-in round: payload values and sources in request order,
/// plus the virtual time when the whole batch had completed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    values: Vec<u64>,
    sources: Vec<u32>,
    done_at: u64,
}

/// `lo..hi` send times below `horizon`, and a posting order for them (a
/// Fisher–Yates permutation of the indices).
fn draw_case(rng: &mut SeededRng, horizon: u64, lo: u64, hi: u64) -> (Vec<u64>, Vec<usize>) {
    let n = rng.next_range(lo, hi) as usize;
    let times = (0..n).map(|_| rng.next_range(0, horizon)).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.next_range(0, i as u64 + 1) as usize);
    }
    (times, perm)
}

/// Rank 0 sends message `i` (value `i`, tag `TAG_BASE + i`) at absolute
/// virtual time `times[i]`; rank 1 posts receives in `perm` order and
/// completes them with the given strategy.
fn run_fanin(times: Vec<u64>, perm: Vec<usize>, mode: Completion) -> Observed {
    let out: Arc<Mutex<Option<Observed>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let out3 = out2.clone();
        mpiexec(&net, &[0, 1], move |comm: Comm| {
            if comm.rank() == 0 {
                let mut order: Vec<usize> = (0..times.len()).collect();
                order.sort_by_key(|&i| (times[i], i));
                for i in order {
                    let at = times[i];
                    if at > simt::now() {
                        simt::sleep(at - simt::now());
                    }
                    comm.send_value(1, TAG_BASE + i as u64, i as u64, 8).unwrap();
                }
            } else {
                let reqs: Vec<rmpi::Request> =
                    perm.iter().map(|&i| comm.irecv(Some(0), Some(TAG_BASE + i as u64))).collect();
                let completed: Vec<(u64, u32)> = match mode {
                    Completion::Waitall => waitall(reqs)
                        .unwrap()
                        .into_iter()
                        .map(|done| {
                            let (payload, status) = done.expect("receive yields a message");
                            (*payload.value_as::<u64>().unwrap(), status.source)
                        })
                        .collect(),
                    Completion::Sequential => reqs
                        .into_iter()
                        .map(|req| {
                            let (payload, status) =
                                req.wait().unwrap().expect("receive yields a message");
                            (*payload.value_as::<u64>().unwrap(), status.source)
                        })
                        .collect(),
                };
                *out3.lock() = Some(Observed {
                    values: completed.iter().map(|(v, _)| *v).collect(),
                    sources: completed.iter().map(|(_, s)| *s).collect(),
                    done_at: simt::now(),
                });
            }
        });
    });
    sim.run().unwrap().assert_clean();
    let observed = out.lock().take().expect("receiver finished");
    sim.shutdown();
    observed
}

#[test]
fn waitall_matches_sequential_waits() {
    for_each_case(24, |rng| {
        let (times, perm) = draw_case(rng, 200_000, 1, 14);

        let batched = run_fanin(times.clone(), perm.clone(), Completion::Waitall);
        let sequential = run_fanin(times.clone(), perm.clone(), Completion::Sequential);

        // Same payloads, same sources, same virtual completion time.
        assert_eq!(batched, sequential);

        // And both honour the reservation contract: request order is the
        // posting permutation, whatever order the messages arrived in.
        let expected: Vec<u64> = perm.iter().map(|&i| i as u64).collect();
        assert_eq!(batched.values, expected);
        assert!(batched.sources.iter().all(|&s| s == 0));

        // A batch can never finish before its slowest member arrives.
        let slowest = times.iter().copied().max().unwrap_or(0);
        assert!(
            batched.done_at >= slowest,
            "batch completed at {} before the last send at {}",
            batched.done_at,
            slowest
        );
    });
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same seed ⇒ byte-identical observations, run to run: completion
    // order inside the store derives from virtual time + posting order,
    // never from host scheduling.
    for_each_case(24, |rng| {
        let (times, perm) = draw_case(rng, 100_000, 1, 10);
        let a = run_fanin(times.clone(), perm.clone(), Completion::Waitall);
        let b = run_fanin(times, perm, Completion::Waitall);
        assert_eq!(a, b);
    });
}
