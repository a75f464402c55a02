//! The life cycle of a green thread's stack, seen from outside the crate:
//! mapped once, recycled last-in-first-out, bounded, guarded throughout.
//!
//! One process and one `#[test]`: the stack pool is process-wide, so the phases
//! run in a fixed order and nothing else spawns green threads beside them.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simt::{stack_stats, Sim};

/// `coro::MAX_IDLE`, as `StackStats::idle` documents it.
const BOUND: u64 = 128;
/// An engine stack without its guard page.
const STACK: usize = 512 * 1024;

/// `(start, end, perms)` of every mapping of this process, in address order.
fn mappings() -> Vec<(usize, usize, String)> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("Linux procfs");
    maps.lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next().unwrap().split_once('-').unwrap();
            let hex = |s| usize::from_str_radix(s, 16).unwrap();
            (hex(start), hex(end), fields.next().unwrap().to_string())
        })
        .collect()
}

/// A `Sim` of `total` green threads that each sleep a few virtual nanoseconds,
/// spawned `wave` at a time; each wave is gone before the next starts.
fn churn(total: usize, wave: usize) {
    let sim = Sim::new();
    sim.spawn("driver", move || {
        for w in 0..total / wave {
            for i in 0..wave {
                simt::spawn(format!("w{w}-{i}"), move || simt::sleep(1 + i as u64 % 7));
            }
            simt::sleep(10);
        }
    });
    sim.run().unwrap().assert_clean();
    let stats = sim.stats();
    assert_eq!(stats.threads_spawned, total as u64 + 1);
    assert!(stats.peak_live_threads <= wave as u64 + 1);
}

/// `deep_frames_and_floats_survive_a_switch`'s body: 200 frames, a live `f64`
/// in each, `bottom` (a switch) in the deepest. True if the sum comes out right.
fn deep_sum_survives(bottom: fn()) -> bool {
    fn descend(depth: u32, acc: f64, bottom: fn()) -> f64 {
        if depth == 0 {
            bottom();
            return acc;
        }
        let here = f64::from(depth).sqrt();
        descend(depth - 1, acc + here, bottom) + here
    }
    let expect: f64 = (1..=200u32).map(|d| f64::from(d).sqrt()).sum::<f64>() * 2.0;
    (descend(200, 0.0, bottom) - expect).abs() < 1e-6
}

/// An address near the top of the calling green thread's stack.
fn stack_address() -> usize {
    let local = 0u8;
    std::ptr::from_ref(&local) as usize
}

#[derive(Debug, PartialEq)]
struct Own(u32);

/// The next green thread after `leaver` runs on the stack `leaver` gave back,
/// computes the right sum there and surfaces its own panic payload.
fn follower_is_unharmed(tag: u32, leaver: &AtomicUsize) {
    let before = stack_stats();
    let leaver = leaver.load(Ordering::SeqCst);
    let sim = Sim::new();
    sim.spawn("follower", move || {
        // Same depth of the same stack, not the one next door (≥ STACK away).
        assert!(stack_address().abs_diff(leaver) < STACK / 2, "not the leaver's stack");
        assert!(deep_sum_survives(|| simt::sleep(1)));
        panic_any(Own(tag));
    });
    let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the follower panics");
    assert_eq!(payload.downcast_ref::<Own>(), Some(&Own(tag)), "a follower's own assert failed");
    let after = stack_stats();
    assert_eq!((after.mapped, after.reused), (before.mapped, before.reused + 1));
}

#[test]
fn stacks_are_mapped_once_recycled_bounded_and_stay_guarded() {
    let maps_at_start = mappings().len();
    assert_eq!(stack_stats(), simt::StackStats::default(), "nothing ran before this test");

    // Reuse: 2 000 threads, at most 51 alive at once, run on at most 51
    // mappings (one `mmap` each before the pool), and a second `Sim` of
    // the same process maps none.
    churn(2_000, 50);
    let first = stack_stats();
    assert!(first.mapped <= 50 + 2, "{first:?}");
    assert_eq!(first.mapped + first.reused, 2_001);
    assert_eq!((first.idle, first.unmapped), (first.mapped, 0));
    churn(2_000, 50);
    let second = stack_stats();
    assert_eq!((second.mapped, second.reused), (first.mapped, first.reused + 2_001));

    // Census: six `Sim`s of 4 000 threads in waves of 200, more than the idle
    // list holds. The process's mappings stop growing once the list is full
    // (two mappings per stack), and every stack over the bound was unmapped.
    let mut maps_after = Vec::new();
    for _ in 0..6 {
        churn(4_000, 200);
        maps_after.push(mappings().len());
    }
    assert_eq!(maps_after[1], maps_after[5], "mappings creep: {maps_after:?}");
    assert!(maps_after[5] <= maps_at_start + 2 * BOUND as usize + 16, "{maps_after:?}");
    let full = stack_stats();
    assert_eq!(full.idle, BOUND, "{full:?}");
    assert_eq!(full.mapped - full.unmapped, BOUND, "neither idle nor unmapped: {full:?}");

    // The guard survives recycling: under a recycled stack still sits `---p`.
    let sim = Sim::new();
    sim.spawn("on-a-recycled-stack", || {
        let here = stack_address();
        let maps = mappings();
        let mine = maps.iter().position(|&(lo, hi, _)| (lo..hi).contains(&here)).unwrap();
        let (lo, hi, ref perms) = maps[mine];
        assert_eq!((hi - lo, perms.as_str()), (STACK, "rw-p"));
        let (_, guard_hi, ref guard) = maps[mine - 1];
        assert_eq!((guard_hi, guard.as_str()), (lo, "---p"), "no guard page below the stack");
    });
    sim.run().unwrap().assert_clean();
    let guarded = stack_stats();
    assert_eq!((guarded.mapped, guarded.reused), (full.mapped, full.reused + 1));
    drop(sim);

    // Hygiene: whatever state a thread leaves its stack in, the next one on it
    // is unharmed. (a) 200 frames deep with live floats.
    let left = Arc::new(AtomicUsize::new(0));
    let sim = Sim::new();
    let at = left.clone();
    sim.spawn("deep", move || {
        at.store(stack_address(), Ordering::SeqCst);
        assert!(deep_sum_survives(|| simt::sleep(1)));
    });
    sim.run().unwrap().assert_clean();
    follower_is_unharmed(1, &left);

    // (b) Unwound by a panic with a payload.
    let sim = Sim::new();
    let at = left.clone();
    sim.spawn("panics", move || {
        at.store(stack_address(), Ordering::SeqCst);
        simt::sleep(3);
        panic_any(Own(0));
    });
    let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("re-raised by run()");
    assert_eq!(payload.downcast_ref::<Own>(), Some(&Own(0)));
    follower_is_unharmed(2, &left);

    // (c) Suspended mid-body, 200 frames deep, and unwound by `shutdown()`.
    let sim = Sim::new();
    let at = left.clone();
    sim.spawn_daemon("parked", move || {
        at.store(stack_address(), Ordering::SeqCst);
        deep_sum_survives(|| simt::sync::Semaphore::new(0).acquire(1)); // never released
        unreachable!("shutdown() unwinds from inside acquire()");
    });
    sim.run().unwrap().assert_clean();
    let before = stack_stats().idle;
    sim.shutdown();
    assert_eq!(stack_stats().idle, before + 1, "shutdown() gave the parked thread's stack back");
    follower_is_unharmed(3, &left);
}
