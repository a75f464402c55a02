//! Differential test of receive matching. Whatever mix of `recv`,
//! `irecv().wait()`, `waitall`, `irecv().wait_then()` and
//! `irecv().wait_timeout_then()` posts the receives of a process, and from however many of its threads, they match
//! as MPI prescribes: receives in post order, messages in arrival order
//! (FIFO per `(comm, src, tag)`).
//! Payloads and virtual completion times must equal the reference matcher's
//! below, which knows nothing of slots, stores or wake-ups.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, Payload};
use rmpi::{mpiexec, waitall, Comm, MpiError, Status};
use simt::sync::Mutex;
use simt::{for_each_case, SeededRng, Sim};

/// `(source, tag)`, `None` a wildcard.
type Matcher = (Option<u32>, Option<u64>);

/// Rank `src` sends its index in [`Case::sends`] as the payload, at `at`.
#[derive(Clone, Copy, Debug)]
struct Send {
    at: u64,
    src: u32,
    tag: u64,
}

#[derive(Clone, Debug)]
enum Op {
    Recv(Matcher),
    IrecvWait(Matcher),
    Waitall(Vec<Matcher>),
    /// A continuation receive: no thread waits for it.
    IrecvThen(Matcher),
    /// A continuation receive without a deadline.
    IrecvWaitThen(Matcher),
}

/// The continuation receives' timeout: far past the last send, so that only
/// a receive nothing matches times out, and records nothing.
const THEN_TIMEOUT: u64 = 1_000_000_000;

/// Ranks `1..=senders` send to rank 0, where every op runs on a thread of its
/// own and posts at its own (distinct) time. Both lists are in time order.
#[derive(Debug)]
struct Case {
    senders: u32,
    sends: Vec<Send>,
    ops: Vec<(u64, Op)>,
}

/// What one op returned — payloads in request order — and when. `None`: it
/// never returned.
type Seen = Option<(Vec<u64>, u64)>;

fn draw_case(rng: &mut SeededRng) -> Case {
    let senders = rng.next_range(1, 4) as u32;
    let mut sends: Vec<Send> = (0..rng.next_range(2, 10))
        .map(|_| Send {
            at: rng.next_range(0, 200_000),
            src: rng.next_range(1, u64::from(senders) + 1) as u32,
            tag: rng.next_range(1, 3),
        })
        .collect();
    sends.sort_by_key(|s| s.at);
    let matcher = |rng: &mut SeededRng| {
        let src = rng.next_range(1, u64::from(senders) + 1) as u32;
        let tag = rng.next_range(1, 3);
        ((rng.next_range(0, 2) == 0).then_some(src), (rng.next_range(0, 2) == 0).then_some(tag))
    };
    let mut ops: Vec<(u64, Op)> = (0..rng.next_range(2, 8))
        .map(|i| {
            let op = match rng.next_range(0, 5) {
                0 => Op::Recv(matcher(rng)),
                1 => Op::IrecvWait(matcher(rng)),
                2 => Op::IrecvThen(matcher(rng)),
                3 => Op::IrecvWaitThen(matcher(rng)),
                _ => Op::Waitall((0..rng.next_range(1, 4)).map(|_| matcher(rng)).collect()),
            };
            (rng.next_range(0, 25_000) * 8 + i, op)
        })
        .collect();
    ops.sort_by_key(|(at, _)| *at);
    Case { senders, sends, ops }
}

/// Run the case's sends against its ops, or — `probe` — against one wildcard
/// `recv` per message, which returns each message when it arrives.
fn run(case: &Arc<Case>, probe: bool) -> Vec<Seen> {
    let slots = if probe { case.sends.len() } else { case.ops.len() };
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(vec![None; slots]));
    let (case2, seen2) = (case.clone(), seen.clone());
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let placements: Vec<usize> = (0..=case2.senders as usize).map(|r| r % 2).collect();
        mpiexec(&net, &placements, move |comm: Comm| {
            let rank = comm.rank();
            if rank > 0 {
                for (value, s) in case2.sends.iter().enumerate().filter(|(_, s)| s.src == rank) {
                    simt::sleep(s.at.saturating_sub(simt::now()));
                    comm.send_value(0, s.tag, value as u64, 8).unwrap();
                }
            } else if probe {
                for slot in 0..slots {
                    let (value, _) = comm.recv_value::<u64>(None, None).unwrap();
                    seen2.lock()[slot] = Some((vec![*value], simt::now()));
                }
            } else {
                for (slot, (at, op)) in case2.ops.iter().cloned().enumerate() {
                    let (comm, seen) = (comm.clone(), seen2.clone());
                    simt::spawn(format!("rx{slot}"), move || {
                        simt::sleep(at);
                        let seen2 = seen.clone();
                        let record = move |r: Result<Option<(Payload, Status)>, MpiError>| {
                            if let Ok(Some((p, _))) = r {
                                let value = *p.value_as::<u64>().unwrap();
                                seen2.lock()[slot] = Some((vec![value], simt::now()));
                            }
                        };
                        let done = match op {
                            Op::IrecvThen((src, tag)) => {
                                return comm
                                    .irecv(src, tag)
                                    .wait_timeout_then(THEN_TIMEOUT, record);
                            }
                            Op::IrecvWaitThen((src, tag)) => {
                                return comm.irecv(src, tag).wait_then(record);
                            }
                            Op::Recv((src, tag)) => vec![comm.recv(src, tag).unwrap()],
                            Op::IrecvWait((src, tag)) => {
                                vec![comm.irecv(src, tag).wait().unwrap().expect("a receive")]
                            }
                            Op::Waitall(ms) => {
                                let reqs = ms.iter().map(|&(src, tag)| comm.irecv(src, tag));
                                waitall(reqs.collect()).unwrap().into_iter().flatten().collect()
                            }
                        };
                        let values = done.iter().map(|(p, _)| *p.value_as::<u64>().unwrap());
                        seen.lock()[slot] = Some((values.collect(), simt::now()));
                    });
                }
            }
        });
    });
    // Not `assert_clean`: a receive nothing matches stays blocked, and the
    // reference says so too.
    sim.run().unwrap();
    let seen = seen.lock().clone();
    seen
}

/// The reference: a message goes to the earliest-posted pending receive it
/// matches, else it waits; a receive takes the earliest-arrived waiting
/// message it matches, else it pends. `arrivals` are `(payload, time)` in
/// arrival order. `None` when a post and an arrival share a virtual instant:
/// their order is then the engine's business, not MPI's.
fn reference(case: &Case, arrivals: &[(u64, u64)]) -> Option<Vec<Seen>> {
    let posts: Vec<(u64, usize, Matcher)> = (case.ops.iter().enumerate())
        .flat_map(|(slot, (at, op))| {
            let matchers = match op {
                Op::Recv(m) | Op::IrecvWait(m) | Op::IrecvThen(m) | Op::IrecvWaitThen(m) => {
                    vec![*m]
                }
                Op::Waitall(ms) => ms.clone(),
            };
            matchers.into_iter().map(move |m| (*at, slot, m))
        })
        .collect();
    let matches = |(src, tag): Matcher, value: u64| {
        let sent = case.sends[value as usize];
        src.is_none_or(|s| s == sent.src) && tag.is_none_or(|t| t == sent.tag)
    };
    let mut got: Vec<Option<(u64, u64)>> = vec![None; posts.len()];
    let (mut pending, mut waiting) = (Vec::new(), Vec::new());
    let (mut a, mut p) = (0, 0);
    while a < arrivals.len() || p < posts.len() {
        if a < arrivals.len() && p < posts.len() && arrivals[a].1 == posts[p].0 {
            return None;
        }
        if a == arrivals.len() || (p < posts.len() && posts[p].0 < arrivals[a].1) {
            match waiting.iter().position(|&value| matches(posts[p].2, value)) {
                Some(k) => got[p] = Some((waiting.remove(k), posts[p].0)),
                None => pending.push(p),
            }
            p += 1;
        } else {
            let (value, at) = arrivals[a];
            match pending.iter().position(|&r| matches(posts[r].2, value)) {
                Some(k) => got[pending.remove(k)] = Some((value, at)),
                None => waiting.push(value),
            }
            a += 1;
        }
    }
    // An op returns when the last of its receives has its message.
    let per_op = (0..case.ops.len()).map(|slot| {
        let mine = posts.iter().zip(&got).filter(|(post, _)| post.1 == slot);
        let mine: Vec<(u64, u64)> = mine.map(|(_, g)| *g).collect::<Option<_>>()?;
        Some((mine.iter().map(|g| g.0).collect(), mine.iter().map(|g| g.1).max()?))
    });
    Some(per_op.collect())
}

#[test]
fn receives_match_in_post_order_like_the_reference_matcher() {
    let mut compared = 0;
    for_each_case(64, |rng| {
        let case = Arc::new(draw_case(rng));
        let arrivals: Vec<(u64, u64)> = run(&case, true)
            .into_iter()
            .map(|seen| seen.map(|(values, at)| (values[0], at)).expect("every message arrives"))
            .collect();
        let Some(expected) = reference(&case, &arrivals) else { return };
        assert_eq!(run(&case, false), expected, "{case:#?}\narrivals {arrivals:?}");
        compared += 1;
    });
    assert!(compared >= 56, "only {compared} of 64 cases were free of post/arrival ties");
}
