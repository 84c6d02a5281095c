//! Offline shim for the `rand` API surface used by this workspace.
//!
//! Provides [`rngs::StdRng`] (xoshiro256++ seeded via SplitMix64),
//! [`SeedableRng::seed_from_u64`] and [`RngExt::random_range`] over
//! integer ranges. The generator is deterministic per seed and
//! stable across releases — a property the experiment harness relies on
//! (the real `rand` changes `StdRng` between versions).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Deterministically build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ with SplitMix64
    /// seed expansion. Small, fast, and statistically solid for workload
    /// generation and randomized algorithms.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
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

/// A range from which a uniform value can be drawn.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Draw a `u64` uniformly from `[0, span)` without modulo bias
/// (Lemire's multiply-shift; the tiny residual bias for astronomically
/// large spans is irrelevant here).
#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    // Full 64-bit range: every word is uniform already.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait RngExt: RngCore {
    /// A value drawn uniformly from `range`.
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.random_range(0..u64::MAX)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random_range(0..u64::MAX)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, (0..8).map(|_| c.random_range(0..u64::MAX)).collect::<Vec<_>>());
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn inclusive_full_u32_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_high = false;
        for _ in 0..1000 {
            let v = rng.random_range(0..=u32::MAX);
            seen_high |= v > u32::MAX / 2;
        }
        assert!(seen_high);
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[rng.random_range(0usize..10)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b} far from uniform");
        }
    }
}
