//! The benchmark's own seeded generator.
//!
//! SplitMix64, kept in the benchmark rather than borrowed from the
//! library, so that no change to the program under test can alter the
//! inputs the benchmark replays for a given `--seed`.

/// SplitMix64: one multiply-xorshift round per draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, on the independent stream `stream` (each
    /// workload part draws from its own stream, so adding draws to one
    /// part never shifts another's inputs).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Index of the bucket a uniform draw over `weights` lands in.
    pub fn pick(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut x = self.below(total as usize) as u32;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// An anchor index into `n` initial items with the benchmark's hot
    /// spot: 90 % of draws fall on the first 5 % of the list.
    pub fn hot(&mut self, n: usize) -> usize {
        if self.below(100) < 90 {
            self.below((n / 20).max(1))
        } else {
            self.below(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
        assert_ne!(draw(42, 1), draw(43, 1));
    }

    #[test]
    fn hot_draws_concentrate_on_the_list_head() {
        let mut r = Rng::new(7, 0);
        let head = (0..10_000).filter(|_| r.hot(1000) < 50).count();
        assert!((8_800..=9_300).contains(&head), "{head}");
        assert_eq!(r.pick(&[0, 5, 0]), 1);
    }
}
