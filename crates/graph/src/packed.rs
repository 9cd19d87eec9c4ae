//! Packable adjacency: a graph whose per-vertex neighbor lists can be
//! compacted ("packed") in place, one list at a time.
//!
//! `edgeMapFilter(…, Pack)` in Section 4.3 removes edges to covered
//! elements from each set's adjacency list and updates its degree. The
//! arena layout keeps each vertex's (possibly shrunken) list inside its
//! original CSR slice, so packing never allocates; the live length is
//! tracked per vertex.
//!
//! The arena stays atomic because [`PackedGraph::pack_list`] takes `&self`:
//! the per-vertex packs write through a shared reference from parallel tasks,
//! and any reader holding the same reference may race them. So `targets`
//! and the live lengths are `AtomicU32`s; readers read *values* (never
//! tear, never go out of bounds), and each read pins the live length
//! **once** — the length and the elements it covers are published together
//! by the pack's release store.

use crate::csr::{Csr, Weight};
use crate::VertexId;
use std::sync::atomic::{AtomicU32, Ordering};

/// A graph with shrinkable adjacency lists.
#[derive(Debug)]
pub struct PackedGraph {
    n: usize,
    original_m: usize,
    offsets: Vec<u64>,
    targets: Vec<AtomicU32>,
    /// Live neighbor count of each vertex (≤ original degree).
    live: Vec<AtomicU32>,
}

impl PackedGraph {
    /// Builds a packable copy of `g`.
    pub fn from_csr<W: Weight>(g: &Csr<W>) -> Self {
        PackedGraph {
            n: g.num_vertices(),
            original_m: g.num_edges(),
            offsets: g.offsets().to_vec(),
            targets: g.targets().iter().map(|&t| AtomicU32::new(t)).collect(),
            live: g.degrees().into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges in the original (unpacked) arena.
    pub fn original_num_edges(&self) -> usize {
        self.original_m
    }

    /// Current (live) degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.live[v as usize].load(Ordering::Acquire) as usize
    }

    /// The live neighbors of `v`, with the live length pinned **once**.
    ///
    /// A concurrent [`pack_list`](Self::pack_list) may shrink the list while we copy;
    /// pinning the length up front (with the matching acquire on the pack's
    /// release store) guarantees the returned slice never exceeds the
    /// vertex's arena slice and every element is a value some pack wrote —
    /// re-reading the degree for the slice bound (the pre-PR-9 bug) could
    /// observe a *different*, torn length.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let start = self.offsets[v as usize] as usize;
        let cap = (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize;
        let len = self.degree(v).min(cap);
        (0..len)
            .map(|k| self.targets[start + k].load(Ordering::Relaxed))
            .collect()
    }

    /// Visits the live neighbors of `v` without allocating. Same pinning
    /// contract as [`neighbors`](Self::neighbors).
    #[inline]
    pub fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId)) {
        let start = self.offsets[v as usize] as usize;
        let cap = (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize;
        let len = self.degree(v).min(cap);
        for k in 0..len {
            f(self.targets[start + k].load(Ordering::Relaxed));
        }
    }

    /// Packs `v`'s list in place: keeps only the neighbors satisfying
    /// `pred`, compacted in one pass to the front of `v`'s own slice, and
    /// publishes the new live degree, which it returns. Allocates nothing.
    ///
    /// Lists of different vertices may pack concurrently; one list must not
    /// be packed by two tasks at once, and `pred` must not read it.
    /// Concurrent *readers* are safe: survivors are stored before the
    /// shrunken degree is released, so a reader that pins the new length
    /// sees only packed elements.
    ///
    /// Set cover packs each list as a visit of the sparse edgeMap driver.
    /// That is safe because a `PackedGraph` list is never chunked (its
    /// `out_chunk_edges` is `usize::MAX`), so each list gets exactly one
    /// visit.
    pub fn pack_list(&self, v: VertexId, mut pred: impl FnMut(VertexId) -> bool) -> u32 {
        let start = self.offsets[v as usize] as usize;
        let deg = self.live[v as usize].load(Ordering::Relaxed) as usize;
        let mut kept = 0;
        for k in start..start + deg {
            let u = self.targets[k].load(Ordering::Relaxed);
            if pred(u) {
                self.targets[start + kept].store(u, Ordering::Relaxed);
                kept += 1;
            }
        }
        // Release-publish the new length after the elements, pairing with
        // the acquire load in `degree`/`neighbors`.
        self.live[v as usize].store(kept as u32, Ordering::Release);
        kept as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_pairs_symmetric;

    fn star() -> PackedGraph {
        // center 0 connected to 1..=5
        let pairs: Vec<(u32, u32)> = (1..=5).map(|i| (0, i)).collect();
        PackedGraph::from_csr(&from_pairs_symmetric(6, &pairs))
    }

    #[test]
    fn pack_removes_filtered_neighbors() {
        let g = star();
        assert_eq!(g.degree(0), 5);
        // Keep the odd ones; survivors keep their list order.
        assert_eq!(g.pack_list(0, |u| u % 2 == 1), 3);
        assert_eq!(g.neighbors(0), vec![1, 3, 5]);
        // Other vertices untouched.
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn pack_is_idempotent_under_true() {
        let g = star();
        let before = g.neighbors(0);
        g.pack_list(0, |_| true);
        assert_eq!(g.neighbors(0), before);
    }

    #[test]
    fn repeated_packs_shrink_monotonically() {
        let g = star();
        g.pack_list(0, |u| u <= 4);
        assert_eq!(g.degree(0), 4);
        g.pack_list(0, |u| u <= 2);
        assert_eq!(g.degree(0), 2);
        g.pack_list(0, |_| false);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn parallel_pack_many_vertices() {
        use rayon::prelude::*;
        // Each vertex i in a cycle of 1000 keeps neighbors < 500.
        let pairs: Vec<(u32, u32)> = (0..1000).map(|i| (i, (i + 1) % 1000)).collect();
        let g = PackedGraph::from_csr(&from_pairs_symmetric(1000, &pairs));
        let degs: Vec<u32> = (0..1000u32)
            .into_par_iter()
            .map(|v| g.pack_list(v, |u| u < 500))
            .collect();
        for v in 0..1000u32 {
            assert!(g.neighbors(v).iter().all(|&u| u < 500));
            assert_eq!(degs[v as usize] as usize, g.degree(v));
        }
        assert_eq!(g.original_num_edges(), 2000);
    }

    /// Satellite 3 regression: readers racing a pack loop must never slice
    /// a stale length. Every observed list is a prefix some pack published:
    /// bounded by the arena slice, monotonically shrinking, and containing
    /// only original neighbors.
    #[test]
    fn concurrent_pack_and_read_pins_the_length() {
        use std::sync::atomic::AtomicBool;
        let pairs: Vec<(u32, u32)> = (1..=64).map(|i| (0, i)).collect();
        let g = std::sync::Arc::new(PackedGraph::from_csr(&from_pairs_symmetric(65, &pairs)));
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let reader = {
            let g = std::sync::Arc::clone(&g);
            let done = std::sync::Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_len = usize::MAX;
                while !done.load(Ordering::Acquire) {
                    let nbrs = g.neighbors(0);
                    assert!(nbrs.len() <= 64, "length beyond the arena slice");
                    assert!(
                        nbrs.len() <= last_len,
                        "live length must shrink monotonically"
                    );
                    last_len = nbrs.len();
                    for &u in &nbrs {
                        assert!((1..=64).contains(&u), "non-neighbor value {u} observed");
                    }
                }
            })
        };
        // Pack vertex 0 down one threshold at a time.
        for cut in (0..=64u32).rev() {
            g.pack_list(0, |u| u <= cut);
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(g.degree(0), 0);
    }
}
