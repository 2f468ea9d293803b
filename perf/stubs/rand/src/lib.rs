//! Offline stand-in for the slice of `rand 0.8` the workspace uses:
//! `StdRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}`.
//!
//! The generator is xoshiro256** seeded through splitmix64, so a seed maps
//! to one fixed stream on every machine. Simulated numbers produced under
//! this crate are a property of this repository, not of the published
//! `rand` (whose `StdRng` is ChaCha12 and yields a different stream).

use std::ops::{Range, RangeInclusive};

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit source every [`Rng`] method draws from.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Types [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges [`Rng::gen_range`] can sample.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range, like `rand`.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing sampling methods.
pub trait Rng: RngCore {
    /// A uniformly distributed value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniformly distributed value inside `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }

        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform value in `[0, span)` by widening multiply (`span <= 2^64`).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    (u128::from(rng.next_u64()) * span) >> 64
}

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's only generator: xoshiro256**.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen_range(0..=u64::MAX)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen_range(0..=u64::MAX)).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen_range(0..=u64::MAX)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..10_000 {
            let v: i32 = a.gen_range(-99_999..=99_999);
            assert!((-99_999..=99_999).contains(&v));
            let u: usize = a.gen_range(0..7);
            assert!(u < 7);
            let f: f64 = a.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
