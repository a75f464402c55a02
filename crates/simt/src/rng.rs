//! Seeded deterministic pseudo-randomness for simulations.
//!
//! The whole stack runs under a determinism rule: nothing inside a
//! simulation may consult wall-clock time or ambient OS randomness, because
//! identical seeds must produce identical schedules (asserted by the
//! `whole_stack_is_deterministic` test). Components that need jitter —
//! fault-injection schedules, retry backoff — therefore draw from this
//! explicit-state generator, seeded from a `u64` the harness controls.
//!
//! The core is splitmix64 (Steele et al., "Fast splittable pseudorandom
//! number generators"): tiny state, full 64-bit period over the counter,
//! and cheap `fork`ing for independent substreams.

/// A splittable, seedable PRNG. Not cryptographic; statistical quality is
/// ample for schedule jitter.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

/// splitmix64 finalizer: bijective 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Generator seeded from `seed`. Equal seeds yield equal streams.
    pub fn from_seed(seed: u64) -> Self {
        SeededRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform value in `[lo, hi)`. Panics when the range is empty.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift range reduction; the modest bias (< 2^-32 for the
        // spans used here) is irrelevant for schedule jitter.
        lo + (((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Split off an independent substream labelled `label`. Forks with equal
    /// `(state, label)` are equal; distinct labels decorrelate the streams.
    pub fn fork(&mut self, label: u64) -> SeededRng {
        SeededRng { state: mix(self.next_u64() ^ mix(label)) }
    }
}

/// Property-test driver: runs `body` once per case seed in `0..cases`, each
/// with a generator seeded from it to draw the case's inputs. A case that
/// panics names its seed on the way out; `SeededRng::from_seed(seed)` replays
/// exactly that case.
pub fn for_each_case(cases: u64, mut body: impl FnMut(&mut SeededRng)) {
    for seed in 0..cases {
        let case = std::panic::AssertUnwindSafe(|| body(&mut SeededRng::from_seed(seed)));
        if let Err(panic) = std::panic::catch_unwind(case) {
            eprintln!("property failed at case seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SeededRng::from_seed(42);
        let mut b = SeededRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::from_seed(1);
        let mut b = SeededRng::from_seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SeededRng::from_seed(7);
        for _ in 0..1000 {
            let v = r.next_range(10, 20);
            assert!((10..20).contains(&v));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut a = SeededRng::from_seed(9);
        let mut b = SeededRng::from_seed(9);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
        let mut fa2 = a.fork(2);
        assert_ne!(fa.next_u64(), fa2.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SeededRng::from_seed(0).next_range(5, 5);
    }
}
