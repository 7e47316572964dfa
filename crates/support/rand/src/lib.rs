//! Offline, deterministic subset of the `rand` crate API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this small crate supplies exactly the surface the workspace uses:
//!
//! * [`Rng`] — the base trait (a `u64` source);
//! * [`RngExt`] — the extension trait with `random`, `random_range` and
//!   `random_bool` (blanket-implemented for every [`Rng`]);
//! * [`SeedableRng`] with `seed_from_u64`;
//! * [`rngs::StdRng`] — a xoshiro256++ generator seeded via SplitMix64.
//!
//! Everything is deterministic given the seed, which is what the tests,
//! simulators and sampled robustness checks rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A source of random `u64`s.
pub trait Rng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from an [`Rng`].
pub trait Random: Sized {
    /// Draws one uniformly distributed value.
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for usize {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Random for bool {
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn random_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that can be sampled to produce a `T`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// One draw reduced into `0..span` as `next_u64() % span`. A span below
/// `2^64` takes a 64-bit remainder; the only larger span, `2^64` (a
/// full-width inclusive range), keeps the draw itself, which is what the
/// remainder would give. No 128-bit division is made.
#[inline]
fn draw_below<R: Rng + ?Sized>(rng: &mut R, span: u128) -> i128 {
    let draw = rng.next_u64();
    match u64::try_from(span) {
        Ok(span) => (draw % span) as i128,
        Err(_) => draw as i128,
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + draw_below(rng, span)) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + draw_below(rng, span)) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience methods on every [`Rng`], mirroring `rand 0.9`'s `Rng`
/// surface (`random`, `random_range`, `random_bool`).
pub trait RngExt: Rng {
    /// Draws one uniformly distributed value of type `T`.
    fn random<T: Random>(&mut self) -> T {
        T::random_from(self)
    }

    /// Draws one value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        f64::random_from(self) < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Rngs that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ with SplitMix64
    /// seeding. Fast, small, and more than good enough for simulations and
    /// sampled searches (not cryptographically secure).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut s = seed;
            StdRng {
                state: [
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [a, b, c, d] = self.state;
            let result = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
            let t = b << 17;
            let mut s = [a, b, c, d];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.state = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: usize = rng.random_range(0..=5);
            assert!(y <= 5);
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            let s: i8 = rng.random_range(-5i8..=5);
            assert!((-5..=5).contains(&s));
        }
    }

    #[test]
    fn works_through_unsized_rng() {
        fn draw(rng: &mut (impl Rng + ?Sized)) -> u64 {
            rng.random_range(0..10u64)
        }
        let mut rng = StdRng::seed_from_u64(1);
        let dynrng: &mut dyn Rng = &mut rng;
        assert!(draw(dynrng) < 10);
    }

    /// The reduction every range used before `draw_below`: a 128-bit
    /// remainder of the draw by the span.
    fn reference(draw: u64, lo: i128, hi_inclusive: i128) -> i128 {
        let span = (hi_inclusive - lo) as u128 + 1;
        lo + ((draw as u128) % span) as i128
    }

    #[test]
    fn range_draws_match_the_128_bit_remainder() {
        const DRAWS: usize = 2_000;
        let mut rng = StdRng::seed_from_u64(5);
        let mut twin = rng.clone();
        // unsigned spans 1, 2^32 - 1, 2^32, 2^32 + 1 and 2^64 - 1, then
        // the full inclusive range (span 2^64)
        for (lo, hi) in [
            (7u64, 7u64),
            (0, (1 << 32) - 2),
            (0, (1 << 32) - 1),
            (3, 3 + (1 << 32)),
            (0, u64::MAX - 1),
            (1, u64::MAX),
            (0, u64::MAX),
        ] {
            for _ in 0..DRAWS {
                let got: u64 = rng.random_range(lo..=hi);
                let want = reference(twin.next_u64(), lo as i128, hi as i128);
                assert_eq!(got as i128, want, "{lo}..={hi}");
                if hi > lo {
                    let got: u64 = rng.random_range(lo..hi);
                    let want = reference(twin.next_u64(), lo as i128, hi as i128 - 1);
                    assert_eq!(got as i128, want, "{lo}..{hi}");
                }
            }
        }
        // signed ranges with negative starts, up to the full inclusive i64
        for (lo, hi) in [
            (-1i64, -1i64),
            (-5, 5),
            (-(1 << 31), (1 << 31) - 1),
            (-(1 << 31), 1 << 31),
            (i64::MIN, i64::MAX - 1),
            (i64::MIN + 1, i64::MAX),
            (i64::MIN, i64::MAX),
        ] {
            for _ in 0..DRAWS {
                let got: i64 = rng.random_range(lo..=hi);
                let want = reference(twin.next_u64(), lo as i128, hi as i128);
                assert_eq!(got as i128, want, "{lo}..={hi}");
            }
        }
        // narrow types widen the same way
        for _ in 0..DRAWS {
            let got: i8 = rng.random_range(-128i8..=127);
            assert_eq!(got as i128, reference(twin.next_u64(), -128, 127));
            let got: usize = rng.random_range(3usize..9);
            assert_eq!(got as i128, reference(twin.next_u64(), 3, 8));
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
