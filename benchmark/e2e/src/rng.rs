//! The benchmark's own seeded randomness: sources, update batches and
//! arrival times all come from here, so `--seed` alone fixes the op list.

/// SplitMix64: tiny, fast, and good enough to pick sources and arrival
/// times. Streams for different purposes are forked with [`Rng::fork`] so
/// adding a draw to one never shifts another.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `purpose` (any stable label).
    pub fn fork(&self, purpose: &str) -> Rng {
        let mut h = self.0 ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut r = Rng(h);
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

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf popularity over ranks `0..k`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Zipf {
        assert!(k > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for r in 0..k {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    pub fn mass(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    /// Splits `total` draws among the ranks in proportion to their masses
    /// (largest-remainder rounding): what an ideal sample of that size
    /// would contain. Sums to `total` exactly.
    pub fn quotas(&self, total: usize) -> Vec<usize> {
        let exact: Vec<f64> = (0..self.cdf.len())
            .map(|r| self.mass(r) * total as f64)
            .collect();
        let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor())
                .partial_cmp(&(exact[a] - exact[a].floor()))
                .expect("masses are finite")
                .then(a.cmp(&b))
        });
        let short = total - quotas.iter().sum::<usize>();
        for &r in by_remainder.iter().take(short) {
            quotas[r] += 1;
        }
        quotas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let root = Rng::new(1);
        assert_ne!(
            root.fork("sources").next_u64(),
            root.fork("arrivals").next_u64()
        );
        assert_eq!(
            root.fork("sources").next_u64(),
            root.fork("sources").next_u64()
        );
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(9).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_masses_sum_to_one_and_decrease() {
        let z = Zipf::new(64, 1.1);
        let total: f64 = (0..64).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..64 {
            assert!(z.mass(r) < z.mass(r - 1));
        }
        // rank 1 is 2^1.1 times rarer than rank 0
        assert!((z.mass(0) / z.mass(1) - 2f64.powf(1.1)).abs() < 1e-9);
    }

    #[test]
    fn zipf_quotas_sum_exactly_and_follow_the_masses() {
        let z = Zipf::new(32, 1.1);
        for total in [0, 1, 7, 540, 541, 6000] {
            let q = z.quotas(total);
            assert_eq!(q.iter().sum::<usize>(), total);
            assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
            for (r, &n) in q.iter().enumerate() {
                assert!((n as f64 - z.mass(r) * total as f64).abs() < 1.0);
            }
        }
    }
}
