//! The graph-access trait hierarchy — the canonical backend abstraction.
//!
//! Every traversal in the framework is written against one of two traits,
//! so the same algorithm runs unmodified over CSR graphs (owned, or mapped
//! from a `.jgr` file), Ligra+ byte-compressed graphs, and packable graphs
//! — mirroring how Julienne runs unmodified on compressed inputs:
//!
//! * [`OutEdges`] — per-vertex **out**-edge iteration, with the early-exit
//!   and chunked forms. Sufficient for sparse (push) traversals, sequential
//!   oracles, and anything that only walks forward edges.
//! * [`GraphRef`] — the umbrella bound for direction-optimized `edgeMap`:
//!   symmetry metadata plus the frontier out-degree sum used by the
//!   `|U| + Σ out-deg(U) > m/20` switching rule.
//!
//! The dense (pull) direction needs a target's in-edges. A graph is stored
//! in one direction only, so pull runs on symmetric graphs, whose out-lists
//! are their in-lists — as GBBS runs its pull traversals:
//!
//! | backend            | `OutEdges` | dense pull                          |
//! |--------------------|------------|-------------------------------------|
//! | `Csr<W>`           | yes        | when symmetric                      |
//! | `Compressed<W>`    | yes        | when symmetric                      |
//! | `PackedGraph`      | yes        | never (`is_symmetric` is `false`:   |
//! |                    |            | packing shrinks each out-list alone)|
//!
//! All three implement `GraphRef`. A mapped `.jgr` is a `Csr` whose arrays
//! view the file, and a `SnapshotGraph` is read through its materialized
//! `csr()`.

use julienne_graph::compress::Compressed;
use julienne_graph::csr::{Csr, Weight};
use julienne_graph::packed::PackedGraph;
use julienne_graph::VertexId;
use rayon::prelude::*;

/// Read access to a graph's out-adjacency.
pub trait OutEdges: Sync {
    /// Edge weight type.
    type W: Weight;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of (directed) edges currently in the graph.
    fn num_edges(&self) -> usize;

    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> usize;

    /// Visits each out-edge `(target, weight)` of `v`.
    fn for_each_out<F: FnMut(VertexId, Self::W)>(&self, v: VertexId, f: F);

    /// Visits out-edges of `v` until `f` returns `false`.
    ///
    /// The default keeps calling [`for_each_out`](Self::for_each_out) with a
    /// dead flag (correct but scans the whole list); backends with a real
    /// break — slice iteration, early decode stop — should override.
    fn for_each_out_until<F: FnMut(VertexId, Self::W) -> bool>(&self, v: VertexId, mut f: F) {
        let mut alive = true;
        self.for_each_out(v, |u, w| {
            if alive {
                alive = f(u, w);
            }
        });
    }

    /// Degree-aware split granularity: edges per independently scannable
    /// sub-chunk of one vertex's out-list, or `usize::MAX` when the backend
    /// cannot split a single list. edgeMap uses this to break giant
    /// adjacency lists (hub vertices) into parallel chunk tasks instead of
    /// serializing a whole list on one worker. Must be a pure function of
    /// the graph — never of the thread count — so chunk task sets are
    /// deterministic.
    fn out_chunk_edges(&self) -> usize {
        usize::MAX
    }

    /// Visits chunk `c` of `v`'s out-edges — the local edge range
    /// `[c·sz, min((c+1)·sz, deg))` with `sz = out_chunk_edges()`. Chunks
    /// of one vertex may be visited concurrently. Backends that cannot
    /// split (the default) only accept chunk 0 = the whole list.
    fn for_each_out_chunk<F: FnMut(VertexId, Self::W)>(&self, v: VertexId, c: usize, f: F) {
        debug_assert_eq!(c, 0, "unsplittable backend asked for out-chunk {c}");
        self.for_each_out(v, f);
    }
}

/// The umbrella bound for direction-optimized traversal: out-edges and
/// the metadata the sparse/dense switching rule needs.
pub trait GraphRef: OutEdges {
    /// Whether the graph is symmetric (undirected) — the condition for a
    /// dense (pull) traversal, which reads a target's out-list as its
    /// in-list.
    fn is_symmetric(&self) -> bool;

    /// Sum of out-degrees over a set of vertices (the `Σ out-deg(U)` term
    /// of the switching rule). The default parallelizes above 4096 ids.
    fn out_degrees_sum(&self, vs: &[VertexId]) -> usize {
        if vs.len() < 4096 {
            vs.iter().map(|&v| self.out_degree(v)).sum()
        } else {
            vs.par_iter().map(|&v| self.out_degree(v)).sum()
        }
    }
}

/// Chunk granularity for `Csr`, owned or mapped.
/// Contiguous slices split at any boundary, so the choice only balances
/// scheduling overhead against load balance; 4096 edges ≈ one L1-resident
/// slice per task and mirrors the compressed backend's default of
/// [`julienne_graph::compress::DEFAULT_CHUNK_SIZE`] × a small factor.
const CSR_CHUNK_EDGES: usize = 4096;

// --------------------------------------------------------------------------
// Csr<W>
// --------------------------------------------------------------------------

impl<W: Weight> OutEdges for Csr<W> {
    type W = W;

    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn for_each_out<F: FnMut(VertexId, W)>(&self, v: VertexId, mut f: F) {
        for (u, w) in self.edges_of(v) {
            f(u, w);
        }
    }

    #[inline]
    fn for_each_out_until<F: FnMut(VertexId, W) -> bool>(&self, v: VertexId, mut f: F) {
        for (u, w) in self.edges_of(v) {
            if !f(u, w) {
                break;
            }
        }
    }

    fn out_chunk_edges(&self) -> usize {
        CSR_CHUNK_EDGES
    }

    #[inline]
    fn for_each_out_chunk<F: FnMut(VertexId, W)>(&self, v: VertexId, c: usize, mut f: F) {
        let deg = self.degree(v);
        let lo = c.saturating_mul(CSR_CHUNK_EDGES).min(deg);
        let hi = lo.saturating_add(CSR_CHUNK_EDGES).min(deg);
        let ns = &self.neighbors(v)[lo..hi];
        let ws = &self.weights_of(v)[lo..hi];
        for (&u, &w) in ns.iter().zip(ws) {
            f(u, w);
        }
    }
}

impl<W: Weight> GraphRef for Csr<W> {
    #[inline]
    fn is_symmetric(&self) -> bool {
        Csr::is_symmetric(self)
    }
}

// --------------------------------------------------------------------------
// Compressed<W>
// --------------------------------------------------------------------------

impl<W: Weight> OutEdges for Compressed<W> {
    type W = W;

    fn num_vertices(&self) -> usize {
        Compressed::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Compressed::num_edges(self)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn for_each_out<F: FnMut(VertexId, W)>(&self, v: VertexId, f: F) {
        Compressed::for_each_out(self, v, f);
    }

    #[inline]
    fn for_each_out_until<F: FnMut(VertexId, W) -> bool>(&self, v: VertexId, f: F) {
        Compressed::for_each_out_until(self, v, f);
    }

    fn out_chunk_edges(&self) -> usize {
        self.chunk_edges()
    }

    #[inline]
    fn for_each_out_chunk<F: FnMut(VertexId, W)>(&self, v: VertexId, c: usize, f: F) {
        Compressed::for_each_out_chunk(self, v, c, f);
    }
}

impl<W: Weight> GraphRef for Compressed<W> {
    #[inline]
    fn is_symmetric(&self) -> bool {
        Compressed::is_symmetric(self)
    }
}

// --------------------------------------------------------------------------
// PackedGraph
// --------------------------------------------------------------------------

impl OutEdges for PackedGraph {
    type W = ();

    fn num_vertices(&self) -> usize {
        PackedGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        self.original_num_edges()
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn for_each_out<F: FnMut(VertexId, ())>(&self, v: VertexId, mut f: F) {
        self.for_each_neighbor(v, |u| f(u, ()));
    }
}

impl GraphRef for PackedGraph {
    /// Always `false`: packing shrinks out-lists independently, so even a
    /// symmetric source graph stops being symmetric after the first `pack`.
    /// The dense path is therefore never chosen for packed graphs.
    #[inline]
    fn is_symmetric(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::{from_pairs, from_pairs_symmetric};
    use julienne_graph::compress::CompressedGraph;

    fn collect<G: OutEdges>(g: &G, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        g.for_each_out(v, |u, _| out.push(u));
        out.sort_unstable();
        out
    }

    #[test]
    fn all_backends_agree() {
        let g = from_pairs(6, &[(0, 1), (0, 3), (0, 5), (2, 4)]);
        let c = CompressedGraph::from_csr(&g);
        let p = PackedGraph::from_csr(&g);
        for v in 0..6u32 {
            let want = collect(&g, v);
            assert_eq!(collect(&c, v), want, "compressed vertex {v}");
            assert_eq!(collect(&p, v), want, "packed vertex {v}");
            assert_eq!(g.out_degree(v), c.out_degree(v));
            assert_eq!(g.out_degree(v), p.out_degree(v));
        }
        assert_eq!(OutEdges::num_edges(&g), 4);
        assert_eq!(OutEdges::num_vertices(&c), 6);
    }

    #[test]
    fn out_until_stops_early() {
        let g = from_pairs(4, &[(0, 1), (0, 2), (0, 3)]);
        let c = CompressedGraph::from_csr(&g);
        let p = PackedGraph::from_csr(&g);
        fn first_two<G: OutEdges>(g: &G) -> Vec<VertexId> {
            let mut seen = Vec::new();
            g.for_each_out_until(0, |u, _| {
                seen.push(u);
                seen.len() < 2
            });
            seen
        }
        assert_eq!(first_two(&g).len(), 2);
        assert_eq!(first_two(&c).len(), 2);
        assert_eq!(first_two(&p).len(), 2);
    }

    #[test]
    fn packed_is_never_symmetric() {
        let g = from_pairs_symmetric(3, &[(0, 1), (1, 2)]);
        let p = PackedGraph::from_csr(&g);
        assert!(!GraphRef::is_symmetric(&p));
    }

    #[test]
    fn chunk_concat_matches_whole_list() {
        // A hub with 11 out-edges, compressed with chunk_size 4 → 3 chunks.
        let pairs: Vec<(u32, u32)> = (1..=11).map(|u| (0, u)).collect();
        let g = from_pairs(12, &pairs);
        let c = CompressedGraph::from_csr_with_chunk_size(&g, 4);
        assert_eq!(OutEdges::out_chunk_edges(&c), 4);
        let deg = OutEdges::out_degree(&c, 0);
        let nc = deg.div_ceil(OutEdges::out_chunk_edges(&c));
        let mut got = Vec::new();
        for ch in 0..nc {
            let before = got.len();
            c.for_each_out_chunk(0, ch, |u, ()| got.push(u));
            assert!(got.len() - before <= 4, "chunk {ch} over-sized");
        }
        assert_eq!(got, collect(&c, 0), "chunk concat != whole list");
        // CSR and legacy compressed report "unsplittable or huge" sizes and
        // serve the whole list as chunk 0.
        let legacy = CompressedGraph::from_csr_with_chunk_size(&g, 0);
        assert_eq!(OutEdges::out_chunk_edges(&legacy), usize::MAX);
        let mut whole = Vec::new();
        legacy.for_each_out_chunk(0, 0, |u, ()| whole.push(u));
        assert_eq!(whole, got);
        assert_eq!(OutEdges::out_chunk_edges(&g), CSR_CHUNK_EDGES);
        let mut csr_whole = Vec::new();
        g.for_each_out_chunk(0, 0, |u, w: ()| csr_whole.push((u, w)));
        assert_eq!(csr_whole.len(), deg);
    }

    #[test]
    fn default_out_degrees_sum_matches_manual() {
        let g = from_pairs(5, &[(0, 1), (0, 2), (3, 4)]);
        let c = CompressedGraph::from_csr(&g);
        assert_eq!(GraphRef::out_degrees_sum(&c, &[0, 3]), 3);
        assert_eq!(GraphRef::out_degrees_sum(&g, &[0, 3]), 3);
    }
}
