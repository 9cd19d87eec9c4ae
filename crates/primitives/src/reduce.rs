//! Parallel reductions (the paper's `Reduce`): O(n) work, O(log n) depth.

use crate::SEQ_THRESHOLD;
use rayon::prelude::*;

/// Reduces `xs` with the associative operator `op` and identity `identity`.
pub fn reduce<T, F>(xs: &[T], identity: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    if xs.len() <= SEQ_THRESHOLD {
        return xs.iter().fold(identity, |acc, &x| op(acc, x));
    }
    xs.par_iter().copied().reduce(|| identity, op)
}

/// Maximum of `u32` values (0 for an empty slice).
pub fn max_u32(xs: &[u32]) -> u32 {
    reduce(xs, 0u32, |a, b| a.max(b))
}

/// Maximum over mapped values: `max_i f(i)` for `i in 0..n`, or `default` if
/// `n == 0`. Used e.g. to compute the initial number of buckets from `D`.
pub fn max_mapped<F>(n: usize, default: u32, f: F) -> u32
where
    F: Fn(usize) -> u32 + Send + Sync,
{
    if n == 0 {
        return default;
    }
    if n <= SEQ_THRESHOLD {
        return (0..n).map(&f).fold(default, |a, b| a.max(b));
    }
    (0..n)
        .into_par_iter()
        .map(&f)
        .reduce(|| default, |a, b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_matches_fold() {
        for n in [0usize, 1, 100, 10_000] {
            let xs: Vec<u64> = (0..n as u64).collect();
            assert_eq!(reduce(&xs, 0u64, |a, b| a + b), xs.iter().sum::<u64>());
        }
    }

    #[test]
    fn max_of_empty_is_zero() {
        assert_eq!(max_u32(&[]), 0);
        assert_eq!(max_u32(&[5, 2, 9, 1]), 9);
    }

    #[test]
    fn max_mapped_handles_ranges() {
        assert_eq!(max_mapped(0, 7, |_| 100), 7);
        assert_eq!(max_mapped(10, 0, |i| (i * i) as u32), 81);
        assert_eq!(max_mapped(100_000, 0, |i| (i % 977) as u32), 976);
    }
}
