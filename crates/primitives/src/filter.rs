//! Parallel filter / pack (the paper's `Filter`): O(n) work, O(log n) depth.
//!
//! Implemented as the classic flag–scan–scatter: per-chunk counts of
//! survivors, an exclusive scan of the counts, then a disjoint parallel
//! scatter into the exact-size output.

use crate::scan::prefix_sums;
use crate::unsafe_write::DisjointWriter;
use crate::{chunk_bounds, num_chunks};
use rayon::prelude::*;

/// Returns the elements of `xs` satisfying `pred`, in input order.
pub fn filter<T, F>(xs: &[T], pred: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    filter_map(xs, |x| if pred(x) { Some(*x) } else { None })
}

/// Applies `f` to each element in parallel and keeps the `Some` results, in
/// input order.
///
/// `f` is invoked **exactly once per element**, so it may carry side effects
/// (the framework relies on this: k-core's `Update` both mutates degrees and
/// computes a bucket destination inside one `filter_map` pass). The
/// implementation buffers per-chunk survivors and concatenates with a scan —
/// one extra copy, but safe for impure closures.
pub fn filter_map<T, U, F>(xs: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Copy + Send + Sync,
    F: Fn(&T) -> Option<U> + Send + Sync,
{
    let n = xs.len();
    let chunks = num_chunks(n);
    if chunks <= 1 {
        return xs.iter().filter_map(&f).collect();
    }

    // Single evaluation pass: per-chunk survivor buffers.
    let buffers: Vec<Vec<U>> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let (s, e) = chunk_bounds(n, chunks, c);
            xs[s..e].iter().filter_map(&f).collect()
        })
        .collect();

    let mut out = Vec::new();
    flatten_into(&buffers, &mut out);
    out
}

/// Refills `out` with `f(x)` for every `x` of `xs`, in input order, keeping
/// `out`'s buffer: a loop that calls this every round allocates only when
/// `out` must grow. `f` is invoked exactly once per element; one chunk runs
/// inline, more run in parallel.
pub fn map_into<T, U, F>(xs: &[T], out: &mut Vec<U>, f: F)
where
    T: Sync,
    U: Copy + Send + Sync,
    F: Fn(&T) -> U + Send + Sync,
{
    out.clear();
    if num_chunks(xs.len()) <= 1 {
        out.extend(xs.iter().map(f));
        return;
    }
    out.reserve_exact(xs.len());
    {
        let writer = DisjointWriter::new(out.spare_capacity_mut());
        xs.par_iter().enumerate().for_each(|(k, x)| {
            // SAFETY: each position of `xs` is written once, by its own item.
            unsafe { writer.write(k, std::mem::MaybeUninit::new(f(x))) };
        });
    }
    // SAFETY: exactly `xs.len()` slots were initialised above.
    unsafe { out.set_len(xs.len()) };
}

/// Replaces `out`'s contents with the per-chunk buffers, in chunk order,
/// scattered in parallel at scanned offsets; `out` keeps its buffer.
pub fn flatten_into<U: Copy + Send + Sync>(buffers: &[Vec<U>], out: &mut Vec<U>) {
    let mut counts: Vec<usize> = buffers.iter().map(Vec::len).collect();
    let total = prefix_sums(&mut counts);
    out.clear();
    out.reserve_exact(total);
    {
        let writer = DisjointWriter::new(out.spare_capacity_mut());
        buffers
            .par_iter()
            .zip(counts.par_iter())
            .for_each(|(buf, &off)| {
                for (k, &u) in buf.iter().enumerate() {
                    // SAFETY: the scan gives each chunk a contiguous private
                    // destination range of exactly its buffer length.
                    unsafe { writer.write(off + k, std::mem::MaybeUninit::new(u)) };
                }
            });
    }
    // SAFETY: exactly `total` slots were initialised by the scatter.
    unsafe { out.set_len(total) };
}

/// Returns the indices `i in 0..n` for which `pred(i)` holds (the PBBS
/// `pack_index` primitive), in increasing order.
///
/// `pred` must be **pure**: it is evaluated twice per index (count pass and
/// write pass).
pub fn pack_index<F>(n: usize, pred: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Send + Sync,
{
    let chunks = num_chunks(n);
    if chunks <= 1 {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }
    let mut counts: Vec<usize> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let (s, e) = chunk_bounds(n, chunks, c);
            (s..e).filter(|&i| pred(i)).count()
        })
        .collect();
    let total = prefix_sums(&mut counts);
    let mut out: Vec<u32> = Vec::with_capacity(total);
    {
        let writer = DisjointWriter::new(out.spare_capacity_mut());
        counts.par_iter().enumerate().for_each(|(c, &off)| {
            let (s, e) = chunk_bounds(n, chunks, c);
            let mut k = off;
            for i in s..e {
                if pred(i) {
                    // SAFETY: disjoint destination ranges per chunk.
                    unsafe { writer.write(k, std::mem::MaybeUninit::new(i as u32)) };
                    k += 1;
                }
            }
        });
    }
    // SAFETY: exactly `total` slots initialised.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_preserves_order() {
        for n in [0usize, 1, 100, 5000, 50_000] {
            let xs: Vec<u32> = (0..n as u32).collect();
            let got = filter(&xs, |&x| x % 3 == 0);
            let want: Vec<u32> = xs.iter().copied().filter(|&x| x % 3 == 0).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn filter_map_combines() {
        let xs: Vec<u32> = (0..10_000).collect();
        let got = filter_map(&xs, |&x| if x % 2 == 0 { Some(x / 2) } else { None });
        let want: Vec<u32> = (0..5_000).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_index_matches_sequential() {
        for n in [0usize, 1, 17, 4096, 40_000] {
            let got = pack_index(n, |i| i % 7 == 2);
            let want: Vec<u32> = (0..n).filter(|&i| i % 7 == 2).map(|i| i as u32).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn filter_map_calls_closure_exactly_once_per_element() {
        // Regression test: k-core passes a side-effecting closure; a
        // two-pass implementation would double-apply the side effects and
        // desynchronise the passes.
        use std::sync::atomic::{AtomicU32, Ordering};
        let n = 100_000; // large enough to take the parallel path
        let calls: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let xs: Vec<u32> = (0..n as u32).collect();
        let got = filter_map(&xs, |&x| {
            let prev = calls[x as usize].fetch_add(1, Ordering::Relaxed);
            assert_eq!(prev, 0, "element {x} visited twice");
            if x % 2 == 0 {
                Some(x)
            } else {
                None
            }
        });
        assert_eq!(got.len(), n / 2);
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_into_refills_in_order_and_keeps_the_buffer() {
        let mut out = vec![7u64; 3];
        for n in [0usize, 5, 2048, 50_000, 10] {
            let xs: Vec<u32> = (0..n as u32).collect();
            let cap = out.capacity();
            map_into(&xs, &mut out, |&x| x as u64 * 3);
            let want: Vec<u64> = xs.iter().map(|&x| x as u64 * 3).collect();
            assert_eq!(out, want, "n={n}");
            assert!(out.capacity() >= cap, "n={n}: the buffer shrank");
        }
    }

    #[test]
    fn filter_all_and_none() {
        let xs: Vec<u32> = (0..10_000).collect();
        assert_eq!(filter(&xs, |_| true), xs);
        assert!(filter(&xs, |_| false).is_empty());
    }
}
