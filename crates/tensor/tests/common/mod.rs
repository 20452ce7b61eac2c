//! What the seeded-loop suites of this directory share: how a case is
//! drawn. A case is a function of its index alone, so a failure names
//! the seed that reproduces it.

use genie_tensor::init;

/// One draw per `(lo, hi)` range, half-open like `lo..hi`, from `init`'s
/// seeded stream.
pub fn draw<const N: usize>(seed: u64, ranges: [(usize, usize); N]) -> [usize; N] {
    let u = init::uniform([N], 0.0, 1.0, seed ^ 0xD1CE);
    std::array::from_fn(|i| {
        let (lo, hi) = ranges[i];
        (lo + (u.data()[i] * (hi - lo) as f32) as usize).min(hi - 1)
    })
}
