//! Prefix sums (`scan`) over associative operators.
//!
//! The paper's `Scan` takes an array, an associative operator ⊕ and an
//! identity ⊥ and returns the exclusive prefix array plus the overall sum,
//! in O(n) work and O(log n) depth. We implement the standard two-pass
//! chunked algorithm: chunk-local reductions, a (small) scan of the chunk
//! sums, then a chunk-local rescan with carried offsets. Because the chunks
//! are contiguous, both passes use safe `par_chunks_mut` parallelism.

use crate::num_chunks;
use rayon::prelude::*;

/// Exclusive scan in place: `x[i] <- ⊥ ⊕ x[0] ⊕ … ⊕ x[i-1]`. Returns the
/// total `⊥ ⊕ x[0] ⊕ … ⊕ x[n-1]`.
pub fn scan_exclusive_in_place<T, F>(xs: &mut [T], identity: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let n = xs.len();
    let chunks = num_chunks(n);
    if chunks <= 1 {
        let mut acc = identity;
        for x in xs.iter_mut() {
            let next = op(acc, *x);
            *x = acc;
            acc = next;
        }
        return acc;
    }
    let per = n.div_ceil(chunks);

    // Pass 1: per-chunk totals.
    let mut sums: Vec<T> = xs
        .par_chunks(per)
        .map(|chunk| chunk.iter().fold(identity, |acc, &x| op(acc, x)))
        .collect();

    // Scan the (small) sums array sequentially.
    let mut acc = identity;
    for s in sums.iter_mut() {
        let next = op(acc, *s);
        *s = acc;
        acc = next;
    }
    let total = acc;

    // Pass 2: chunk-local exclusive scans seeded with the chunk offset.
    xs.par_chunks_mut(per)
        .zip(sums.par_iter())
        .for_each(|(chunk, &seed)| {
            let mut acc = seed;
            for x in chunk.iter_mut() {
                let next = op(acc, *x);
                *x = acc;
                acc = next;
            }
        });
    total
}

/// Exclusive scan producing a fresh output array plus the total.
pub fn scan_exclusive<T, F>(xs: &[T], identity: T, op: F) -> (Vec<T>, T)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let mut out = xs.to_vec();
    let total = scan_exclusive_in_place(&mut out, identity, op);
    (out, total)
}

/// Exclusive prefix-sums of `usize` counts — the workhorse for computing
/// scatter offsets. Returns the total.
pub fn prefix_sums(xs: &mut [usize]) -> usize {
    scan_exclusive_in_place(xs, 0usize, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_scan_matches_reference() {
        for n in [0usize, 1, 2, 100, 2048, 5000, 100_000] {
            let xs: Vec<u64> = (0..n as u64).map(|i| i % 17).collect();
            let (scanned, total) = scan_exclusive(&xs, 0u64, |a, b| a + b);
            let mut acc = 0u64;
            for i in 0..n {
                assert_eq!(scanned[i], acc, "n={n} i={i}");
                acc += xs[i];
            }
            assert_eq!(total, acc);
        }
    }

    #[test]
    fn prefix_sums_offsets() {
        let mut counts = vec![3usize, 0, 5, 1];
        let total = prefix_sums(&mut counts);
        assert_eq!(counts, vec![0, 3, 3, 8]);
        assert_eq!(total, 9);
    }

    #[test]
    fn scan_with_max_monoid() {
        let xs = vec![3u32, 9, 1, 7, 9, 2];
        let (ex, total) = scan_exclusive(&xs, 0u32, |a, b| a.max(b));
        assert_eq!(ex, vec![0, 3, 9, 9, 9, 9]);
        assert_eq!(total, 9);
    }

    #[test]
    fn empty_scan() {
        let mut xs: Vec<usize> = vec![];
        assert_eq!(prefix_sums(&mut xs), 0);
    }
}
