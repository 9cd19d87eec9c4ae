//! Parallel primitives for the Julienne reproduction.
//!
//! This crate provides the PBBS/Ligra-style sequence primitives that the
//! paper's bucketing structure and applications are built from:
//!
//! * [`scan`] — exclusive prefix sums over arbitrary monoids,
//! * [`reduce`] — parallel reductions,
//! * [`filter`] — parallel filter / pack,
//! * [`sort`] — a parallel LSD radix sort for 32-bit keys,
//! * [`semisort`] — key-grouping (the work-efficient semisort of Section 2),
//! * [`histogram`] — the blocked-histogram kernel of Section 3.3,
//! * [`atomics`] — `CAS` and `writeMin` (Section 2),
//! * [`bitset`] — plain and atomic bitsets for dense vertex subsets,
//! * [`rng`] — deterministic splittable randomness for parallel workloads,
//! * [`unsafe_write`] — a scoped disjoint-write cell used by the scatter
//!   phases of the radix sort and bucket structure,
//! * [`telemetry`] — engine-wide counters, spans, and per-round trace
//!   records (compiled to no-ops when the `telemetry` feature is off),
//! * [`error`] — the workspace-wide typed [`error::Error`] enum shared by
//!   loaders, the engine, the CLI, and the query server.
//!
//! All parallel routines are written against [rayon] and respect its global
//! (or per-call [`rayon::ThreadPool`]) configuration, which is how the
//! benchmark harness performs thread-count sweeps.

pub mod atomics;
pub mod bitset;
pub mod error;
pub mod filter;
pub mod histogram;
pub mod reduce;
pub mod rng;
pub mod scan;
pub mod semisort;
pub mod sort;
pub mod telemetry;
pub mod unsafe_write;

/// Default granularity: parallel loops fall back to sequential execution
/// below this many elements, matching the fork-join overheads measured in
/// PBBS-style codes.
pub const SEQ_THRESHOLD: usize = 2048;

/// Cap on [`num_chunks`]: bounds per-call combine overhead while leaving
/// enough chunks to saturate any pool this workspace targets.
pub const MAX_CHUNKS: usize = 64;

/// Number of chunks to split `n` elements into for two-pass (chunk-local +
/// combine) parallel algorithms: one chunk per [`SEQ_THRESHOLD`] elements,
/// capped at [`MAX_CHUNKS`].
///
/// Deliberately a pure function of `n` — **never** of the thread count —
/// so chunk boundaries, and with them every chunk-local partial result
/// (prefix sums, packed offsets, histogram buckets, …), are identical no
/// matter how many worker threads execute the chunks. This is what makes
/// whole-algorithm outputs bit-identical across `JULIENNE_NUM_THREADS`
/// settings.
pub fn num_chunks(n: usize) -> usize {
    if n <= SEQ_THRESHOLD {
        1
    } else {
        n.div_ceil(SEQ_THRESHOLD).min(MAX_CHUNKS)
    }
}

/// Splits `n` into `chunks` nearly equal ranges; returns the bounds of chunk
/// `i` as `(start, end)`.
pub fn chunk_bounds(n: usize, chunks: usize, i: usize) -> (usize, usize) {
    let per = n.div_ceil(chunks);
    let start = (i * per).min(n);
    let end = ((i + 1) * per).min(n);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_range() {
        for n in [0usize, 1, 5, 100, 2048, 4097] {
            for chunks in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..chunks {
                    let (s, e) = chunk_bounds(n, chunks, i);
                    assert!(s <= e);
                    assert_eq!(s, prev_end.min(s).max(s)); // monotone
                    assert!(s >= prev_end);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n, "n={n} chunks={chunks}");
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn num_chunks_small_is_one() {
        assert_eq!(num_chunks(0), 1);
        assert_eq!(num_chunks(SEQ_THRESHOLD), 1);
        assert!(num_chunks(SEQ_THRESHOLD + 1) >= 1);
    }

    #[test]
    fn num_chunks_is_thread_count_independent() {
        let sizes = [0usize, 100, 2049, 100_000, 10_000_000];
        let at_default: Vec<usize> = sizes.iter().map(|&n| num_chunks(n)).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let inside: Vec<usize> =
                pool.install(|| sizes.iter().map(|&n| num_chunks(n)).collect());
            assert_eq!(inside, at_default, "threads = {threads}");
        }
    }
}
