//! What the seeded-loop suites of this directory share: how a case is
//! drawn (the `crates/tensor/tests/common` precedent).

use genie_netsim::XorShift64;

/// One case of a seeded loop: its draws come from a stream that is a
/// function of the case index alone, and a panic while the case is
/// alive names the index.
pub struct Case {
    index: u64,
    pub rng: XorShift64,
}

impl Case {
    pub fn new(index: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Case { index, rng }
    }

    /// Uniform in `lo..=hi`.
    pub fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.next_below(hi - lo + 1)
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}
