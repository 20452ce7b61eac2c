//! Minimal stand-in for `rand` 0.8: `SmallRng` (xoshiro256++ seeded
//! through splitmix64, as upstream on 64-bit targets), `gen` and
//! `gen_range` over the types `genie-tensor::init` draws. Streams are
//! deterministic per seed; they are not promised to match upstream's
//! bit for bit, and nothing in the benchmark depends on that.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can draw.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    fn draw_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::draw_range(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

macro_rules! float_range {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn draw_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<$ty>) -> $ty {
                assert!(range.start < range.end, "gen_range: empty range");
                let u: $ty = Standard::draw(rng);
                let v = range.start + (range.end - range.start) * u;
                // Rounding can land exactly on `end`; keep the range half-open.
                if v < range.end { v } else { range.start }
            }
        }
    )*};
}

float_range!(f32, f64);

macro_rules! int_range {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn draw_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<$ty>) -> $ty {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let v = (rng.next_u64() as u128 * span) >> 64;
                (range.start as i128 + v as i128) as $ty
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod rngs {
    use crate::{RngCore, SeedableRng};

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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
