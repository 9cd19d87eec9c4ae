//! Deterministic, splittable randomness for parallel workloads.
//!
//! Parallel generators and microbenchmarks need per-index randomness that is
//! independent of scheduling; `hash64(seed, i)` gives every index its own
//! reproducible value (the SplitMix64 finaliser, which passes BigCrush), and
//! [`SplitMix64`] is a small sequential stream for test drivers.

/// Stateless 64-bit mix of `(seed, x)` — the SplitMix64 finaliser applied to
/// `seed ^ golden_ratio * x`.
#[inline]
pub fn hash64(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unbiased-enough mapping of a hash into `[0, bound)` via the widening
/// multiply trick (Lemire). `bound` must be nonzero.
#[inline]
pub fn hash_range(seed: u64, x: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((hash64(seed, x) as u128 * bound as u128) >> 64) as u64
}

/// A tiny sequential PRNG (SplitMix64) for test and workload drivers.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn next_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `u32` in `[lo, hi)`; requires `lo < hi`.
    #[inline]
    pub fn next_u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo < hi);
        lo + self.next_range((hi - lo) as u64) as u32
    }

    /// Derives an independent child stream (for forking into parallel
    /// tasks deterministically).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_is_deterministic_and_spreads() {
        assert_eq!(hash64(1, 2), hash64(1, 2));
        assert_ne!(hash64(1, 2), hash64(1, 3));
        assert_ne!(hash64(1, 2), hash64(2, 2));
        // Crude avalanche check: flipping one input bit changes many output
        // bits on average.
        let a = hash64(42, 1000);
        let b = hash64(42, 1001);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn hash_range_in_bounds() {
        for i in 0..10_000u64 {
            let v = hash_range(7, i, 997);
            assert!(v < 997);
        }
    }

    #[test]
    fn splitmix_range_uniform_ish() {
        let mut rng = SplitMix64::new(123);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.next_range(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn next_u32_in_bounds() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let v = rng.next_u32_in(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn split_streams_differ() {
        let mut rng = SplitMix64::new(9);
        let mut a = rng.split();
        let mut b = rng.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
