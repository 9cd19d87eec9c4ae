//! Triangle counting and per-edge support — the substrate for k-truss
//! (the bucketing-over-edges application the paper envisions in §3.1).
//!
//! Global counting uses the standard rank orientation: direct each
//! undirected edge from lower to higher (degree, id) rank, then intersect
//! out-neighborhoods; every triangle is counted exactly once at its lowest
//! -rank vertex. O(m^{3/2}) work on arbitrary graphs.

use julienne_graph::VertexId;
use julienne_ligra::traits::{GraphRef, OutEdges};
use julienne_primitives::scan::prefix_sums;
use rayon::prelude::*;

/// Intersects two sorted ascending slices, invoking `f` on every common
/// element.
#[inline]
pub fn intersect_sorted<F: FnMut(VertexId)>(a: &[VertexId], b: &[VertexId], mut f: F) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Rank of a vertex for orientation: (degree, id) lexicographic.
#[inline]
fn rank_lt<G: OutEdges>(g: &G, a: VertexId, b: VertexId) -> bool {
    let (da, db) = (g.out_degree(a), g.out_degree(b));
    da < db || (da == db && a < b)
}

/// Counts the triangles of a symmetric graph exactly once each.
pub fn triangle_count<G: GraphRef>(g: &G) -> u64 {
    assert!(g.is_symmetric());
    let n = g.num_vertices();
    // Build the rank-oriented DAG adjacency (each vertex keeps only
    // higher-ranked neighbors), sorted for merge intersection.
    let oriented: Vec<Vec<VertexId>> = (0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            let mut out: Vec<VertexId> = Vec::new();
            g.for_each_out(v, |u, _| {
                if rank_lt(g, v, u) {
                    out.push(u);
                }
            });
            out.sort_unstable();
            out
        })
        .collect();
    (0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            let mut local = 0u64;
            for &u in &oriented[v as usize] {
                intersect_sorted(&oriented[v as usize], &oriented[u as usize], |_| {
                    local += 1;
                });
            }
            local
        })
        .sum()
}

/// The undirected edge set of a symmetric graph, as `(u, v)` with `u < v`,
/// plus a CSR-shaped index that maps each directed arc to its undirected
/// edge id — the identifier space k-truss buckets over.
pub struct EdgeIndex {
    /// Endpoints of undirected edge `e` (`endpoints[e].0 < endpoints[e].1`).
    pub endpoints: Vec<(VertexId, VertexId)>,
    /// CSR offsets over directed arcs (same shape as the graph).
    pub arc_offsets: Vec<u64>,
    /// Neighbor of each arc (sorted per vertex).
    pub arc_target: Vec<VertexId>,
    /// Undirected edge id of each arc.
    pub arc_eid: Vec<u32>,
}

impl EdgeIndex {
    /// Builds the index. Requires a symmetric graph; neighbor lists need
    /// not be pre-sorted.
    pub fn new<G: GraphRef>(g: &G) -> EdgeIndex {
        assert!(g.is_symmetric());
        let n = g.num_vertices();
        // Sorted adjacency copy.
        let sorted: Vec<Vec<VertexId>> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| {
                let mut a = Vec::with_capacity(g.out_degree(v));
                g.for_each_out(v, |u, _| a.push(u));
                a.sort_unstable();
                a
            })
            .collect();
        // Assign ids to (u < v) edges in CSR order of u.
        let mut counts: Vec<usize> = sorted
            .iter()
            .enumerate()
            .map(|(v, a)| a.iter().filter(|&&u| u > v as VertexId).count())
            .collect();
        counts.push(0);
        let num_edges = prefix_sums(&mut counts);
        let mut endpoints = vec![(0, 0); num_edges];
        for (v, a) in sorted.iter().enumerate() {
            let mut k = counts[v];
            for &u in a {
                if u > v as VertexId {
                    endpoints[k] = (v as VertexId, u);
                    k += 1;
                }
            }
        }
        // Arc arrays with edge-id resolution: for arc (v, u), the edge id
        // is found by position within the lower endpoint's higher-neighbor
        // run.
        let mut arc_offsets = vec![0u64; n + 1];
        for v in 0..n {
            arc_offsets[v + 1] = arc_offsets[v] + sorted[v].len() as u64;
        }
        let mut arc_target = Vec::with_capacity(arc_offsets[n] as usize);
        let mut arc_eid = vec![0u32; arc_offsets[n] as usize];
        for a in &sorted {
            arc_target.extend_from_slice(a);
        }
        let eid_of = |a: VertexId, b: VertexId| -> u32 {
            // a < b required; edge id = counts[a] + rank of b among a's
            // higher neighbors.
            let higher_start = sorted[a as usize].partition_point(|&x| x <= a);
            let pos = sorted[a as usize][higher_start..]
                .binary_search(&b)
                .expect("edge must exist");
            (counts[a as usize] + pos) as u32
        };
        for v in 0..n as VertexId {
            let base = arc_offsets[v as usize] as usize;
            for (k, &u) in sorted[v as usize].iter().enumerate() {
                let (a, b) = (v.min(u), v.max(u));
                arc_eid[base + k] = eid_of(a, b);
            }
        }
        EdgeIndex {
            endpoints,
            arc_offsets,
            arc_target,
            arc_eid,
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The sorted neighbor slice of `v` with parallel edge ids.
    pub fn arcs_of(&self, v: VertexId) -> (&[VertexId], &[u32]) {
        let s = self.arc_offsets[v as usize] as usize;
        let e = self.arc_offsets[v as usize + 1] as usize;
        (&self.arc_target[s..e], &self.arc_eid[s..e])
    }
}

/// Per-edge triangle support: `support[e]` = number of triangles through
/// undirected edge `e`. The sum over edges equals 3 × triangle count.
/// (Everything needed lives in the index; the graph argument is retained
/// for signature symmetry with the other support primitives.)
pub fn edge_support<G: OutEdges>(_g: &G, idx: &EdgeIndex) -> Vec<u32> {
    idx.endpoints
        .par_iter()
        .map(|&(u, v)| {
            let (nu, _) = idx.arcs_of(u);
            let (nv, _) = idx.arcs_of(v);
            let mut s = 0u32;
            intersect_sorted(nu, nv, |_| s += 1);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::csr::Csr;
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};

    fn triangle_count_brute(g: &Csr<()>) -> u64 {
        let n = g.num_vertices() as u32;
        let mut count = 0u64;
        for u in 0..n {
            for &v in g.neighbors(u) {
                if v <= u {
                    continue;
                }
                for &w in g.neighbors(v) {
                    if w <= v {
                        continue;
                    }
                    if g.neighbors(u).contains(&w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn counts_known_graphs() {
        // Triangle.
        let g = from_pairs_symmetric(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&g), 1);
        // K4 has 4 triangles.
        let k4 = from_pairs_symmetric(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(&k4), 4);
        // A square has none.
        let c4 = from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(triangle_count(&c4), 0);
    }

    #[test]
    fn matches_brute_force_random() {
        for seed in 0..3 {
            let g = erdos_renyi(120, 1_200, seed, true);
            assert_eq!(triangle_count(&g), triangle_count_brute(&g), "seed {seed}");
        }
    }

    #[test]
    fn support_sums_to_three_times_triangles() {
        let g = rmat(9, 8, RmatParams::default(), 4, true);
        let idx = EdgeIndex::new(&g);
        let support = edge_support(&g, &idx);
        let sum: u64 = support.iter().map(|&s| s as u64).sum();
        assert_eq!(sum, 3 * triangle_count(&g));
        assert_eq!(idx.num_edges(), g.num_edges() / 2);
    }

    #[test]
    fn edge_index_lookup_consistent() {
        let g = erdos_renyi(200, 1_600, 7, true);
        let idx = EdgeIndex::new(&g);
        let edge_id = |a: VertexId, b: VertexId| {
            let (nbrs, eids) = idx.arcs_of(a);
            nbrs.binary_search(&b).ok().map(|i| eids[i])
        };
        for (e, &(u, v)) in idx.endpoints.iter().enumerate() {
            assert!(u < v);
            assert_eq!(edge_id(u, v), Some(e as u32));
            assert_eq!(edge_id(v, u), Some(e as u32));
        }
        // Non-edges return None.
        let mut non_edge = None;
        'outer: for a in 0..200u32 {
            for b in (a + 1)..200 {
                if !g.neighbors(a).contains(&b) {
                    non_edge = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = non_edge.unwrap();
        assert_eq!(edge_id(a, b), None);
    }

    #[test]
    fn k4_edge_support_all_two() {
        let k4 = from_pairs_symmetric(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let idx = EdgeIndex::new(&k4);
        let support = edge_support(&k4, &idx);
        assert_eq!(support, vec![2; 6]);
    }
}
