//! Exponential backoff with seeded jitter, driven by the virtual clock.
//!
//! This is the netz analog of Spark's `RetryingBlockFetcher` schedule: a
//! retry waits `base * 2^attempt` capped at `max`, plus a jitter drawn from
//! an explicit [`SeededRng`] so that two runs with the same chaos seed retry
//! at identical virtual instants (the determinism rule forbids ambient
//! randomness). The policy itself is plain data; callers own the RNG.

use simt::SeededRng;

/// Schedule for retrying transient failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, in virtual nanoseconds.
    pub base_delay_ns: u64,
    /// Ceiling on the exponential growth.
    pub max_delay_ns: u64,
    /// Fraction of the capped delay added as uniform jitter in
    /// `[0, jitter_frac * delay)`. Zero disables jitter.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay_ns: simt::time::millis(100),
            max_delay_ns: simt::time::secs(5),
            jitter_frac: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based: the delay between the
    /// first failure and the first retry is `backoff_ns(0, ..)`).
    pub fn backoff_ns(&self, attempt: u32, rng: &mut SeededRng) -> u64 {
        let exp = attempt.min(63);
        let grown = self.base_delay_ns.saturating_mul(1u64.checked_shl(exp).unwrap_or(u64::MAX));
        let capped = grown.min(self.max_delay_ns);
        let jitter_span = (capped as f64 * self.jitter_frac) as u64;
        if jitter_span == 0 {
            capped
        } else {
            capped + rng.next_range(0, jitter_span)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(base: u64, max: u64) -> RetryPolicy {
        RetryPolicy { base_delay_ns: base, max_delay_ns: max, jitter_frac: 0.0 }
    }

    #[test]
    fn backoff_doubles_until_the_cap() {
        let p = no_jitter(100, 450);
        let mut rng = SeededRng::from_seed(1);
        assert_eq!(p.backoff_ns(0, &mut rng), 100);
        assert_eq!(p.backoff_ns(1, &mut rng), 200);
        assert_eq!(p.backoff_ns(2, &mut rng), 400);
        assert_eq!(p.backoff_ns(3, &mut rng), 450);
        assert_eq!(p.backoff_ns(20, &mut rng), 450);
    }

    #[test]
    fn huge_attempts_do_not_overflow() {
        let p = no_jitter(u64::MAX / 2, u64::MAX);
        let mut rng = SeededRng::from_seed(1);
        assert_eq!(p.backoff_ns(63, &mut rng), u64::MAX);
        assert_eq!(p.backoff_ns(u32::MAX, &mut rng), u64::MAX);
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let p = RetryPolicy { base_delay_ns: 1_000, max_delay_ns: 1_000_000, jitter_frac: 0.5 };
        let mut a = SeededRng::from_seed(7);
        let mut b = SeededRng::from_seed(7);
        for attempt in 0..5 {
            let da = p.backoff_ns(attempt, &mut a);
            let db = p.backoff_ns(attempt, &mut b);
            assert_eq!(da, db, "same seed, same schedule");
            let capped = (1_000u64 << attempt).min(1_000_000);
            assert!(da >= capped && da < capped + capped / 2 + 1);
        }
    }
}
