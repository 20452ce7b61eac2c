//! Deterministic tensor initialization.
//!
//! Every random tensor in Genie flows through a seeded generator so that
//! lazy capture, remote execution, and lineage replay can be checked for
//! bit-identical results.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// xoshiro256++ with its state filled by splitmix64: the stream every
/// golden file and benchmark oracle of this repo was rendered under, and
/// the same one on every machine and toolchain.
struct Xoshiro256([u64; 4]);

impl Xoshiro256 {
    fn new(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        Xoshiro256(s)
    }

    /// Uniform in `[0, 1)`, from the top 24 bits of the next output.
    fn unit(&mut self) -> f32 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        (out >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Uniform values in `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Tensor {
    let shape = shape.into();
    let mut rng = Xoshiro256::new(seed);
    let data = (0..shape.num_elements())
        .map(|_| {
            let v = lo + (hi - lo) * rng.unit();
            // Rounding can land exactly on `hi`; keep the range half-open.
            if v < hi {
                v
            } else {
                lo
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Approximately standard-normal values (sum of uniforms; exactness is
/// irrelevant — determinism and scale are what tests rely on).
pub fn randn(shape: impl Into<Shape>, seed: u64) -> Tensor {
    let shape = shape.into();
    let mut rng = Xoshiro256::new(seed);
    let data = (0..shape.num_elements())
        .map(|_| {
            // Irwin–Hall approximation to N(0, 1): 12 uniforms.
            let s: f32 = (0..12).map(|_| rng.unit()).sum();
            s - 6.0
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// `0, 1, 2, …` reshaped — handy for exactness tests.
pub fn arange(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.num_elements()).map(|x| x as f32).collect();
    Tensor::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_init_is_deterministic() {
        let a = randn([4, 4], 42);
        let b = randn([4, 4], 42);
        assert_eq!(a, b);
        let c = randn([4, 4], 43);
        assert_ne!(a, c);
    }

    #[test]
    fn the_stream_of_a_seed_is_pinned() {
        // Goldens that hash sampled tokens (`tests/golden/serving_runs.txt`)
        // and every benchmark oracle rest on these exact weights.
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(randn([4], 42)),
            [0x3fbd8d0c, 0xbf4ad2c0, 0x3f9307a0, 0x3e998d20]
        );
        assert_eq!(
            bits(uniform([3], -0.5, 0.5, 7)),
            [0xbee3a7cc, 0xbea7e070, 0x3e5ecc44]
        );
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform([1000], -0.5, 0.5, 7);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn randn_is_roughly_centered() {
        let t = randn([10_000], 1);
        let mean: f32 = t.data().iter().sum::<f32>() / t.len() as f32;
        let var: f32 = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn arange_values() {
        let t = arange([2, 3]);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
