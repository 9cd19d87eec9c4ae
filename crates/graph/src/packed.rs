//! Packable, batch-updatable adjacency: a graph whose per-vertex neighbor
//! lists can be compacted ("packed") in parallel and rewritten wholesale by
//! sorted batches of edge insertions/deletions.
//!
//! `edgeMapFilter(…, Pack)` in Section 4.3 removes edges to covered
//! elements from each set's adjacency list and updates its degree. The
//! arena layout keeps each vertex's (possibly shrunken) list inside its
//! original CSR slice, so packing never allocates; the live length is
//! tracked per vertex.
//!
//! Since PR 9 the arena is atomic end to end: `targets` is a `Vec<AtomicU32>`
//! so concurrent readers racing a pack read *values* (never tear, never go
//! out of bounds), and each read pins the live length **once** — the length
//! and the elements it covers are published together by the pack's release
//! store. On top of packing, [`PackedGraph::apply_batch`] merges a
//! normalized batch of [`EdgeUpdate`]s into a fresh, compact, version-bumped
//! arena — the building block for the MVCC snapshots in
//! [`crate::snapshot`].

use crate::csr::{Csr, Weight};
use crate::VertexId;
use julienne_primitives::error::Error;
use julienne_primitives::scan::prefix_sums;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// CSR offsets (length `degs.len() + 1`) from per-vertex degrees.
fn offsets_from_degrees(degs: &[u32]) -> Vec<u64> {
    let n = degs.len();
    let mut counts = vec![0usize; n + 1];
    for (i, &d) in degs.iter().enumerate() {
        counts[i] = d as usize;
    }
    let m = prefix_sums(&mut counts[..]);
    let mut offsets = vec![0u64; n + 1];
    for i in 0..n {
        offsets[i] = counts[i] as u64;
    }
    offsets[n] = m as u64;
    offsets
}

/// The direction of a single edge update inside a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Ensure the edge is present (no-op if it already is).
    Insert,
    /// Ensure the edge is absent (no-op if it already is).
    Delete,
}

/// One directed edge update. Batches of these drive
/// [`PackedGraph::apply_batch`]; symmetric mirroring is the caller's job
/// (see [`crate::snapshot::DynamicGraph`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeUpdate {
    /// Source vertex.
    pub u: VertexId,
    /// Target vertex.
    pub v: VertexId,
    /// Insert or delete.
    pub op: UpdateOp,
}

impl EdgeUpdate {
    /// An insertion of `u → v`.
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        EdgeUpdate {
            u,
            v,
            op: UpdateOp::Insert,
        }
    }

    /// A deletion of `u → v`.
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        EdgeUpdate {
            u,
            v,
            op: UpdateOp::Delete,
        }
    }
}

/// Normalizes a raw update batch against a graph on `n` vertices: rejects
/// out-of-range endpoints, drops self-loops, sorts by `(u, v)`, and
/// collapses duplicates so the **last** op in batch order wins for each
/// directed edge. The result is sorted, duplicate-free, and self-loop-free
/// — the shape [`PackedGraph::apply_batch`] consumes.
pub fn normalize_updates(n: usize, updates: &[EdgeUpdate]) -> Result<Vec<EdgeUpdate>, Error> {
    for up in updates {
        if up.u as usize >= n || up.v as usize >= n {
            return Err(Error::input(format!(
                "edge update ({}, {}) out of range for a graph with {} vertices",
                up.u, up.v, n
            )));
        }
    }
    let mut ops: Vec<(usize, EdgeUpdate)> = updates
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, e)| e.u != e.v)
        .collect();
    ops.sort_unstable_by_key(|&(i, e)| (e.u, e.v, i));
    let mut out: Vec<EdgeUpdate> = Vec::with_capacity(ops.len());
    for (_, e) in ops {
        match out.last_mut() {
            Some(last) if last.u == e.u && last.v == e.v => *last = e,
            _ => out.push(e),
        }
    }
    Ok(out)
}

/// The outcome of [`PackedGraph::apply_batch`]: the next-version graph plus
/// the *effective* edge changes (inserts of edges that were absent, deletes
/// of edges that were present), each sorted by `(u, v)`.
#[derive(Debug)]
pub struct BatchResult {
    /// The merged graph, one version newer than the receiver.
    pub graph: PackedGraph,
    /// Directed edges that were actually added.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Directed edges that were actually removed.
    pub deleted: Vec<(VertexId, VertexId)>,
}

/// A graph with mutable (shrinkable, batch-rewritable) adjacency lists.
#[derive(Debug)]
pub struct PackedGraph {
    n: usize,
    original_m: usize,
    offsets: Vec<u64>,
    targets: Vec<AtomicU32>,
    /// Live neighbor count of each vertex (≤ original degree).
    live: Vec<AtomicU32>,
    version: u64,
}

impl PackedGraph {
    /// Builds a packable copy of `g` at version 0.
    pub fn from_csr<W: Weight>(g: &Csr<W>) -> Self {
        PackedGraph {
            n: g.num_vertices(),
            original_m: g.num_edges(),
            offsets: g.offsets().to_vec(),
            targets: g.targets().iter().map(|&t| AtomicU32::new(t)).collect(),
            live: g.degrees().into_iter().map(AtomicU32::new).collect(),
            version: 0,
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

    /// Monotone arena version; [`apply_batch`](Self::apply_batch) bumps it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current (live) degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.live[v as usize].load(Ordering::Acquire) as usize
    }

    /// The live neighbors of `v`, with the live length pinned **once**.
    ///
    /// A concurrent [`pack`](Self::pack) may shrink the list while we copy;
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

    /// Packs the adjacency lists of every vertex in `vs`: keeps only
    /// neighbors satisfying `pred`, compacts them to the front of the
    /// vertex's slice, and updates the live degree. Returns the new degree
    /// of each vertex, parallel to `vs`.
    ///
    /// Different vertices pack concurrently; `vs` must not name the same
    /// vertex twice, so each vertex's slice is touched by exactly one task.
    /// `pred` must not read the adjacency lists being packed. Concurrent
    /// *readers* are safe: survivors are stored before the shrunken degree
    /// is released, so a reader that pins the new length sees only packed
    /// elements.
    pub fn pack<P>(&self, vs: &[VertexId], pred: P) -> Vec<u32>
    where
        P: Fn(VertexId, VertexId) -> bool + Send + Sync,
    {
        vs.par_iter()
            .map(|&v| {
                let start = self.offsets[v as usize] as usize;
                let deg = self.live[v as usize].load(Ordering::Relaxed) as usize;
                // Collect survivors locally, then write back to the front of
                // the slice (each vertex owns its slice exclusively).
                let mut kept: Vec<VertexId> = Vec::with_capacity(deg);
                for k in 0..deg {
                    let u = self.targets[start + k].load(Ordering::Relaxed);
                    if pred(v, u) {
                        kept.push(u);
                    }
                }
                for (k, &u) in kept.iter().enumerate() {
                    self.targets[start + k].store(u, Ordering::Relaxed);
                }
                let new_deg = kept.len() as u32;
                // Release-publish the new length after the elements, pairing
                // with the acquire load in `degree`/`neighbors`.
                self.live[v as usize].store(new_deg, Ordering::Release);
                new_deg
            })
            .collect()
    }

    /// Merges an update batch into a fresh compact arena and returns it as
    /// a new [`PackedGraph`] one version up, together with the effective
    /// inserts/deletes. The receiver is left untouched, so readers holding
    /// it never observe a half-applied batch.
    ///
    /// The batch is normalized first ([`normalize_updates`]): out-of-range
    /// endpoints are an [`Error::Input`], self-loops are dropped, and the
    /// last op per directed edge wins. Inserting a present edge and
    /// deleting an absent one are no-ops that don't show up in the result's
    /// delta lists. Per-vertex merges run in parallel; adjacency lists stay
    /// sorted ascending (lists are sorted defensively on first touch, so
    /// any source order converges to sorted).
    pub fn apply_batch(&self, updates: &[EdgeUpdate]) -> Result<BatchResult, Error> {
        let ops = normalize_updates(self.n, updates)?;
        // Group the sorted ops into per-source runs.
        let mut groups: Vec<(VertexId, usize, usize)> = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            let u = ops[i].u;
            let mut j = i + 1;
            while j < ops.len() && ops[j].u == u {
                j += 1;
            }
            groups.push((u, i, j));
            i = j;
        }
        // Merge each touched vertex's sorted list with its sorted ops.
        type Merged = (VertexId, Vec<VertexId>, Vec<(u32, u32)>, Vec<(u32, u32)>);
        let merged: Vec<Merged> = groups
            .par_iter()
            .map(|&(u, s, e)| {
                let mut old = self.neighbors(u);
                old.sort_unstable();
                old.dedup();
                let mut list = Vec::with_capacity(old.len() + (e - s));
                let mut ins = Vec::new();
                let mut del = Vec::new();
                let mut k = 0;
                for up in &ops[s..e] {
                    while k < old.len() && old[k] < up.v {
                        list.push(old[k]);
                        k += 1;
                    }
                    let present = k < old.len() && old[k] == up.v;
                    match up.op {
                        UpdateOp::Insert => {
                            list.push(up.v);
                            if present {
                                k += 1;
                            } else {
                                ins.push((u, up.v));
                            }
                        }
                        UpdateOp::Delete => {
                            if present {
                                k += 1;
                                del.push((u, up.v));
                            }
                        }
                    }
                }
                list.extend_from_slice(&old[k..]);
                (u, list, ins, del)
            })
            .collect();
        // New degrees → offsets → fresh arena, copied in parallel.
        let mut new_deg: Vec<u32> = (0..self.n).map(|v| self.degree(v as u32) as u32).collect();
        for (u, list, _, _) in &merged {
            new_deg[*u as usize] = list.len() as u32;
        }
        let offsets = offsets_from_degrees(&new_deg);
        let m = offsets[self.n] as usize;
        let targets: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();
        (0..self.n as u32).into_par_iter().for_each(|v| {
            let dst = offsets[v as usize] as usize;
            match merged.binary_search_by_key(&v, |g| g.0) {
                Ok(g) => {
                    for (k, &t) in merged[g].1.iter().enumerate() {
                        targets[dst + k].store(t, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    let src = self.offsets[v as usize] as usize;
                    for k in 0..new_deg[v as usize] as usize {
                        let t = self.targets[src + k].load(Ordering::Relaxed);
                        targets[dst + k].store(t, Ordering::Relaxed);
                    }
                }
            }
        });
        let mut inserted = Vec::new();
        let mut deleted = Vec::new();
        for (_, _, ins, del) in merged {
            inserted.extend(ins);
            deleted.extend(del);
        }
        Ok(BatchResult {
            graph: PackedGraph {
                n: self.n,
                original_m: m,
                offsets,
                targets,
                live: new_deg.into_iter().map(AtomicU32::new).collect(),
                version: self.version + 1,
            },
            inserted,
            deleted,
        })
    }

    /// Materializes the live adjacency as an unweighted CSR, preserving
    /// per-vertex neighbor order. `symmetric` is recorded as-is; the caller
    /// asserts it (e.g. a [`crate::snapshot::DynamicGraph`] that mirrors
    /// every update).
    pub fn to_csr(&self, symmetric: bool) -> Csr<()> {
        let degs: Vec<u32> = (0..self.n as u32).map(|v| self.degree(v) as u32).collect();
        let offsets = offsets_from_degrees(&degs);
        let m = offsets[self.n] as usize;
        let mut targets = vec![0u32; m];
        // Safe parallel fill: split `targets` into per-vertex slices.
        let mut rest = targets.as_mut_slice();
        let mut slices: Vec<(u32, &mut [u32])> = Vec::with_capacity(self.n);
        for v in 0..self.n as u32 {
            let (head, tail) = rest.split_at_mut(degs[v as usize] as usize);
            slices.push((v, head));
            rest = tail;
        }
        slices.par_iter_mut().for_each(|(v, dst)| {
            let src = self.offsets[*v as usize] as usize;
            for (k, slot) in dst.iter_mut().enumerate() {
                *slot = self.targets[src + k].load(Ordering::Relaxed);
            }
        });
        Csr::from_parts(offsets, targets, Vec::new(), symmetric)
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
        let new_degs = g.pack(&[0], |_, u| u % 2 == 1); // keep odd
        assert_eq!(new_degs, vec![3]);
        let mut nbrs = g.neighbors(0);
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 3, 5]);
        // Other vertices untouched.
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn pack_is_idempotent_under_true() {
        let g = star();
        let before = g.neighbors(0);
        g.pack(&[0], |_, _| true);
        assert_eq!(g.neighbors(0), before);
    }

    #[test]
    fn repeated_packs_shrink_monotonically() {
        let g = star();
        g.pack(&[0], |_, u| u <= 4);
        assert_eq!(g.degree(0), 4);
        g.pack(&[0], |_, u| u <= 2);
        assert_eq!(g.degree(0), 2);
        g.pack(&[0], |_, _| false);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn parallel_pack_many_vertices() {
        // Each vertex i in a cycle of 1000 keeps neighbors < 500.
        let pairs: Vec<(u32, u32)> = (0..1000).map(|i| (i, (i + 1) % 1000)).collect();
        let g = PackedGraph::from_csr(&from_pairs_symmetric(1000, &pairs));
        let vs: Vec<u32> = (0..1000).collect();
        let degs = g.pack(&vs, |_, u| u < 500);
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
            g.pack(&[0], |_, u| u <= cut);
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(g.degree(0), 0);
    }

    // ---- batch normalization + apply_batch (satellite 5) ----

    fn path4() -> PackedGraph {
        // 0 - 1 - 2 - 3
        PackedGraph::from_csr(&from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 3)]))
    }

    fn undirected(ups: &[(u32, u32, UpdateOp)]) -> Vec<EdgeUpdate> {
        ups.iter()
            .flat_map(|&(u, v, op)| [EdgeUpdate { u, v, op }, EdgeUpdate { u: v, v: u, op }])
            .collect()
    }

    #[test]
    fn empty_batch_is_a_versioned_noop() {
        let g = path4();
        let r = g.apply_batch(&[]).unwrap();
        assert_eq!(r.graph.version(), 1);
        assert_eq!(r.graph.original_num_edges(), 6);
        assert!(r.inserted.is_empty() && r.deleted.is_empty());
        for v in 0..4 {
            assert_eq!(r.graph.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn insert_then_delete_of_the_same_edge_last_op_wins() {
        let g = path4();
        let ups = undirected(&[(0, 3, UpdateOp::Insert), (0, 3, UpdateOp::Delete)]);
        let r = g.apply_batch(&ups).unwrap();
        assert!(r.inserted.is_empty(), "insert was overridden");
        assert!(r.deleted.is_empty(), "edge was never present");
        assert_eq!(r.graph.neighbors(0), vec![1]);
        // And the reverse order resolves to an insert.
        let ups = undirected(&[(0, 3, UpdateOp::Delete), (0, 3, UpdateOp::Insert)]);
        let r = g.apply_batch(&ups).unwrap();
        assert_eq!(r.inserted, vec![(0, 3), (3, 0)]);
        assert_eq!(r.graph.neighbors(0), vec![1, 3]);
    }

    #[test]
    fn duplicate_inserts_and_present_edges_are_single_noops() {
        let g = path4();
        let ups = [
            EdgeUpdate::insert(0, 1), // already present
            EdgeUpdate::insert(0, 2),
            EdgeUpdate::insert(0, 2), // duplicate
        ];
        let r = g.apply_batch(&ups).unwrap();
        assert_eq!(r.inserted, vec![(0, 2)]);
        assert_eq!(r.graph.neighbors(0), vec![1, 2]);
        assert_eq!(r.graph.original_num_edges(), 7);
    }

    #[test]
    fn self_loops_are_dropped_and_out_of_range_rejected() {
        let g = path4();
        let r = g.apply_batch(&[EdgeUpdate::insert(2, 2)]).unwrap();
        assert!(r.inserted.is_empty());
        assert_eq!(r.graph.neighbors(2), vec![1, 3]);
        let err = g.apply_batch(&[EdgeUpdate::insert(0, 4)]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = g
            .apply_batch(&[EdgeUpdate::delete(u32::MAX, 0)])
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn u32_boundary_vertex_ids_round_trip() {
        // A graph whose last valid id is exactly n-1; updates touching it
        // must work and ids ≥ n (up to u32::MAX) must fail cleanly.
        let n = 5u32;
        let g = PackedGraph::from_csr(&from_pairs_symmetric(n as usize, &[(0, 1)]));
        let r = g
            .apply_batch(&undirected(&[(0, n - 1, UpdateOp::Insert)]))
            .unwrap();
        assert_eq!(r.inserted, vec![(0, n - 1), (n - 1, 0)]);
        assert_eq!(r.graph.neighbors(n - 1), vec![0]);
        assert!(g.apply_batch(&[EdgeUpdate::insert(0, n)]).is_err());
        assert!(g
            .apply_batch(&[EdgeUpdate::insert(u32::MAX, u32::MAX - 1)])
            .is_err());
    }

    #[test]
    fn normalize_sorts_dedups_and_keeps_batch_order_semantics() {
        let ups = [
            EdgeUpdate::insert(1, 2),
            EdgeUpdate::delete(0, 1),
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(3, 3), // self-loop: dropped
        ];
        let norm = normalize_updates(4, &ups).unwrap();
        assert_eq!(
            norm,
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 2)]
        );
        assert!(normalize_updates(2, &ups).is_err());
    }

    #[test]
    fn apply_batch_after_pack_merges_the_live_lists() {
        let g = star();
        g.pack(&[0], |_, u| u <= 2); // live: 0 -> {1, 2}
        let r = g
            .apply_batch(&undirected(&[(0, 5, UpdateOp::Insert)]))
            .unwrap();
        assert_eq!(r.graph.neighbors(0), vec![1, 2, 5]);
        assert_eq!(r.graph.degree(5), 1);
        assert_eq!(r.graph.version(), 1);
    }

    #[test]
    fn to_csr_reflects_live_adjacency() {
        let g = star();
        g.pack(&[0], |_, u| u % 2 == 1);
        let csr = g.to_csr(false);
        assert_eq!(csr.num_vertices(), 6);
        assert_eq!(csr.neighbors(0), &[1, 3, 5]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.num_edges(), 8);
    }
}
