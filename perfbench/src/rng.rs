//! The input generator's own RNG (splitmix64), so generated inputs do
//! not depend on any generator inside the program under test.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }

    /// `items` in a seeded order (Fisher–Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.range(0, i));
        }
        out
    }

    /// `n` token ids below `vocab`.
    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<i64> {
        (0..n).map(|_| self.range(0, vocab - 1) as i64).collect()
    }
}

/// Seed of input set `i` of a run: `seed * 1000 + i`.
pub fn set_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = SplitMix64::new(set_seed(3, 2));
        let mut b = SplitMix64::new(3002);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!((16..=128).contains(&r.range(16, 128)));
            let f = r.unit_f32();
            assert!((-1.0..1.0).contains(&f));
        }
        assert!(r.tokens(64, 512).iter().all(|&t| (0..512).contains(&t)));
        let mut deck = r.shuffled(&[1, 2, 3, 4, 5, 6, 7, 8]);
        deck.sort_unstable();
        assert_eq!(deck, [1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
