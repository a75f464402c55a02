//! Stand-in for `rand` 0.8 with the `small_rng` feature: `SmallRng` seeded
//! through `SeedableRng::seed_from_u64`, and the `Rng` methods the workload
//! generators call. The algorithms follow rand 0.8.5 on a 64-bit target
//! (xoshiro256++, its PCG32 seed expansion, widening-multiply integer ranges,
//! 52-bit float ranges), because every virtual-time figure of the benchmark
//! depends on this stream; `src/tests.rs` in the benchmark pins it.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

/// Ranges `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

pub trait Rng: RngCore + Sized {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} is outside [0, 1]");
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; `p` scaled to the full u64 range.
        self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }
}

impl<R: RngCore> Rng for R {}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample<R: RngCore>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

macro_rules! int_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let range = (self.end - self.start) as u64;
                // Reject the draws that would make the low values more likely.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let wide = u128::from(rng.next_u64()) * u128::from(range);
                    if (wide as u64) <= zone {
                        return self.start + (wide >> 64) as $ty;
                    }
                }
            }
        }
    )*};
}
int_range!(u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let scale = self.end - self.start;
        loop {
            // 52 random mantissa bits under exponent 0: a value in [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = value1_2 * scale + (self.start - scale);
            // Rounding can land exactly on the excluded end.
            if res < self.end {
                return res;
            }
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        /// rand_core 0.6's default seed expansion: one PCG32 output per four
        /// seed bytes.
        fn seed_from_u64(mut state: u64) -> SmallRng {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            let mut pcg32 = || {
                state = state.wrapping_mul(MUL).wrapping_add(INC);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                u64::from(xorshifted.rotate_right((state >> 59) as u32))
            };
            let mut s = [0u64; 4];
            for word in &mut s {
                let lo = pcg32();
                *word = lo | (pcg32() << 32);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
