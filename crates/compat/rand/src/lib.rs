//! Offline stub for the subset of `rand` 0.8 the workspace uses.
//!
//! The graph generators only need a seedable, deterministic PRNG with
//! `gen::<f64>()` and `gen_range(lo..hi)`. [`rngs::StdRng`] here is
//! splitmix64-seeded xoshiro256++, which is deterministic per seed on
//! every platform — a property the real `StdRng` does not even promise
//! across versions. Value streams differ from the real crate; only the
//! golden checkpoint in `tests/data/` depends on this exact stream.
//! See `crates/compat/README.md`.

use std::ops::Range;

/// Seedable RNG constructor (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Builds the RNG from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// Types usable as [`Rng::gen_range`] bounds.
pub trait UniformSample: Sized {
    /// Draws one value uniformly from `[range.start, range.end)`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// The subset of `rand::Rng` the generators call.
pub trait Rng {
    /// The core 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample of `T` (`rng.gen::<f64>()` yields `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 significand bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                // Debiased via 128-bit multiply (Lemire's method without
                // the rejection loop; bias is < 2^-64, irrelevant here).
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                range.start + hi as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let unit: $t = Standard::sample(rng);
                range.start + unit * (range.end - range.start)
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// RNG implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator, splitmix64-seeded.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
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
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step (public domain reference algorithm).
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen_low = false;
        for _ in 0..2000 {
            let v = rng.gen_range(3u32..7);
            assert!((3..7).contains(&v));
            seen_low |= v == 3;
        }
        assert!(seen_low, "uniform sampler should reach the low bound");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        rng.gen_range(5u32..5);
    }
}
