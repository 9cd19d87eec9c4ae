//! Edge-list ingestion: a counting-sort CSR build, linear work apart from
//! sorting each adjacency list on its own.
//!
//! The build counts each source's out-degree, places every edge in its
//! source's slot range by a prefix sum and a scatter, sorts and dedups each
//! list on its own, and compacts the lists into the final arrays. No step
//! sorts the whole edge list; the one comparison sort is per list.

use crate::csr::{Csr, Weight};
use crate::VertexId;
use julienne_primitives::scan::scan_exclusive_in_place;

/// Slots a list-sorting task takes on before it splits in two.
const SPLIT_SLOTS: usize = 1 << 15;

/// A raw edge list; the staging representation all generators and readers
/// produce before CSR construction.
#[derive(Clone, Debug)]
pub struct EdgeList<W: Weight> {
    /// Number of vertices (ids must be `< n`).
    pub n: usize,
    /// Directed edges `(src, dst, weight)`.
    pub edges: Vec<(VertexId, VertexId, W)>,
}

impl<W: Weight> EdgeList<W> {
    /// Creates an edge list over `n` vertices.
    pub fn new(n: usize) -> Self {
        EdgeList {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds one directed edge.
    pub fn push(&mut self, u: VertexId, v: VertexId, w: W) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push((u, v, w));
    }

    /// Adds both directions of an undirected edge.
    pub fn push_undirected(&mut self, u: VertexId, v: VertexId, w: W) {
        self.push(u, v, w);
        self.push(v, u, w);
    }

    /// Builds a CSR: rows by source, each list sorted by target, no
    /// self-loops, and of parallel edges only the one of **minimum** weight,
    /// per the paper's no-self-edge / no-duplicate assumption.
    ///
    /// The weight decides which parallel edge survives on purpose: keeping
    /// "the first one seen" would pick an arbitrary survivor — and could
    /// keep different weights for the two directions of a mirrored edge, so
    /// a graph marked symmetric would have `w(u,v) ≠ w(v,u)` and push- vs
    /// pull-based traversals would compute different shortest paths.
    /// Minimum weight is deterministic and direction-symmetric.
    pub fn build(self, symmetric: bool) -> Csr<W> {
        self.count_sort(false, symmetric)
    }

    /// Builds a symmetric CSR of every edge and its mirror; the mirrors are
    /// counted and placed, never listed.
    pub fn build_symmetric(self) -> Csr<W> {
        self.count_sort(true, true)
    }

    /// [`EdgeList::build_symmetric`] when `symmetric`, else the directed
    /// [`EdgeList::build`]: what a generator or reader asked for either
    /// shape calls.
    pub fn build_as(self, symmetric: bool) -> Csr<W> {
        self.count_sort(symmetric, symmetric)
    }

    /// The build, in five steps: count each source's edges (and each
    /// target's, when `mirror`), prefix-sum the counts into slot ranges,
    /// scatter every edge into its source's range, sort and dedup each list
    /// by `(target, weight)`, and compact the lists.
    fn count_sort(self, mirror: bool, symmetric: bool) -> Csr<W> {
        let (n, edges) = (self.n, self.edges);
        // The slots an edge takes: `(u, v)` in `u`'s list and, mirrored,
        // `(v, u)` in `v`'s; a self-loop takes none.
        let placed = |&(u, v, w): &(VertexId, VertexId, W)| {
            let takes = if u == v { 0 } else { 1 + usize::from(mirror) };
            [(u, v, w), (v, u, w)].into_iter().take(takes)
        };
        // Out-degrees, then their exclusive prefix sums: each list's first
        // slot, and the slot count at `n`.
        let mut cursors = vec![0u64; n + 1];
        for (s, _, _) in edges.iter().flat_map(placed) {
            cursors[s as usize] += 1;
        }
        let slots = scan_exclusive_in_place(&mut cursors, 0, |a, b| a + b) as usize;
        // Scatter: each edge takes the next free slot of its list, after
        // which each cursor sits where its list ends.
        let mut lists = vec![(0 as VertexId, W::default()); slots];
        for (s, t, w) in edges.iter().flat_map(placed) {
            let at = &mut cursors[s as usize];
            lists[*at as usize] = (t, w);
            *at += 1;
        }
        drop(edges);
        let ends = cursors;

        // Sort and dedup each list in place; `offsets` takes the kept counts,
        // then their prefix sums.
        let mut offsets = vec![0u64; n + 1];
        sort_lists(&ends[..n], &mut offsets[..n], &mut lists, 0);
        let m = scan_exclusive_in_place(&mut offsets, 0, |a, b| a + b) as usize;

        // Compact: move each kept prefix down to its offset, in order, so
        // that no move overwrites a list still to come; then split the
        // slots into targets and weights.
        let mut start = 0;
        for v in 0..n {
            let at = offsets[v] as usize;
            lists.copy_within(start..start + (offsets[v + 1] as usize - at), at);
            start = ends[v] as usize;
        }
        lists.truncate(m);
        let weights = lists.iter().map(|&(_, w)| w).collect();
        let targets = lists.into_iter().map(|(t, _)| t).collect();
        Csr::from_parts(offsets, targets, weights, symmetric)
    }
}

/// Sorts each list of `lists` by `(target, weight)` and keeps the first of
/// each target's run at the front of its slots, writing the kept count to
/// `kept`. List `i` ends at slot `ends[i] - base`, and starts where list
/// `i - 1` ends (list 0 at slot 0). Halves that still hold more than
/// [`SPLIT_SLOTS`] slots run in parallel.
fn sort_lists<W: Weight>(ends: &[u64], kept: &mut [u64], lists: &mut [(VertexId, W)], base: u64) {
    if lists.len() > SPLIT_SLOTS && ends.len() > 1 {
        let half = base + lists.len() as u64 / 2;
        let mid = ends
            .partition_point(|&e| e <= half)
            .clamp(1, ends.len() - 1);
        let cut = ends[mid - 1] - base;
        let (ends_l, ends_r) = ends.split_at(mid);
        let (kept_l, kept_r) = kept.split_at_mut(mid);
        let (lists_l, lists_r) = lists.split_at_mut(cut as usize);
        rayon::join(
            || sort_lists(ends_l, kept_l, lists_l, base),
            || sort_lists(ends_r, kept_r, lists_r, base + cut),
        );
        return;
    }
    let mut start = 0;
    for (&end, kept) in ends.iter().zip(kept) {
        let list = &mut lists[start..(end - base) as usize];
        list.sort_unstable_by_key(|&(t, w)| (t, w.to_u64()));
        let mut len = 0;
        for i in 0..list.len() {
            if len == 0 || list[len - 1].0 != list[i].0 {
                list[len] = list[i];
                len += 1;
            }
        }
        *kept = len as u64;
        start = (end - base) as usize;
    }
}

/// Convenience: builds an unweighted directed CSR from `(u, v)` pairs.
pub fn from_pairs(n: usize, pairs: &[(VertexId, VertexId)]) -> Csr<()> {
    let mut el = EdgeList::new(n);
    for &(u, v) in pairs {
        el.push(u, v, ());
    }
    el.build(false)
}

/// Convenience: builds an unweighted symmetric CSR from `(u, v)` pairs.
pub fn from_pairs_symmetric(n: usize, pairs: &[(VertexId, VertexId)]) -> Csr<()> {
    let mut el = EdgeList::new(n);
    for &(u, v) in pairs {
        el.push(u, v, ());
    }
    el.build_symmetric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = from_pairs(4, &[(0, 1), (0, 1), (1, 1), (2, 0), (0, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn symmetric_build_mirrors() {
        let g = from_pairs_symmetric(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
        assert!(g.validate().is_ok());
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn weighted_build_keeps_minimum_weight() {
        let mut el: EdgeList<u32> = EdgeList::new(2);
        el.push(0, 1, 9);
        el.push(0, 1, 5); // parallel edge: the lighter one survives
        let g = el.build(false);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weights_of(0), &[5]);
    }

    #[test]
    fn parallel_edge_dedup_is_direction_symmetric() {
        // Two undirected pushes of the same pair with different weights:
        // both directions must keep the same (minimum) weight, or the
        // "symmetric" graph would be weight-asymmetric and pull-based
        // traversals would see different distances than push-based ones.
        let mut el: EdgeList<u32> = EdgeList::new(2);
        el.push_undirected(0, 1, 9);
        el.push_undirected(0, 1, 5);
        let g = el.build_symmetric();
        assert_eq!(g.weights_of(0), &[5]);
        assert_eq!(g.weights_of(1), &[5]);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let g = from_pairs(10, &[(0, 9)]);
        assert_eq!(g.num_vertices(), 10);
        for v in 1..9 {
            assert_eq!(g.degree(v), 0);
        }
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn empty_graph() {
        let g = from_pairs(5, &[]);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn push_undirected_adds_both() {
        let mut el: EdgeList<()> = EdgeList::new(3);
        el.push_undirected(0, 2, ());
        let g = el.build(true);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }
}
