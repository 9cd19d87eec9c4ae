//! Triangle oracles by hashed neighbor-set membership — no degree
//! orientation, no sorted-list merging, no shared code with the parallel
//! counter.

use julienne_graph::csr::Weight;
use julienne_graph::{Csr, VertexId};
use std::collections::HashSet;

/// Number of triangles through each vertex, counted from the definition:
/// for every vertex v, every unordered neighbor pair (u, w) with u and w
/// adjacent closes a triangle.
pub fn triangles_per_vertex<W: Weight>(g: &Csr<W>) -> Vec<u64> {
    let n = g.num_vertices();
    let adjacency: Vec<HashSet<VertexId>> = (0..n as VertexId)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    (0..n as VertexId)
        .map(|v| {
            let nbrs = g.neighbors(v);
            let mut t = 0u64;
            for (i, &u) in nbrs.iter().enumerate() {
                for &w in &nbrs[i + 1..] {
                    if adjacency[u as usize].contains(&w) {
                        t += 1;
                    }
                }
            }
            t
        })
        .collect()
}

/// Number of triangles through each undirected edge `(u, v)`, `u < v`, in
/// [`trussness_peel`](crate::kcore::trussness_peel)'s edge order: every
/// vertex adjacent to both endpoints closes one.
pub fn edge_support_naive<W: Weight>(g: &Csr<W>) -> Vec<u32> {
    let adjacency: Vec<HashSet<VertexId>> = (0..g.num_vertices() as VertexId)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    crate::kcore::undirected_edges(g)
        .into_iter()
        .map(|(u, v)| {
            let at_v = &adjacency[v as usize];
            adjacency[u as usize]
                .iter()
                .filter(|w| at_v.contains(w))
                .count() as u32
        })
        .collect()
}

/// Total triangle count: each triangle touches exactly three vertices.
pub fn triangle_count_naive<W: Weight>(g: &Csr<W>) -> u64 {
    triangles_per_vertex(g).iter().sum::<u64>() / 3
}

/// Per-vertex local clustering coefficient
/// `C(v) = T(v) / (deg(v)·(deg(v)−1)/2)`, 0 for degree < 2.
pub fn local_clustering_naive<W: Weight>(g: &Csr<W>) -> Vec<f64> {
    triangles_per_vertex(g)
        .into_iter()
        .enumerate()
        .map(|(v, t)| {
            let d = g.degree(v as VertexId) as u64;
            if d < 2 {
                0.0
            } else {
                t as f64 / ((d * (d - 1) / 2) as f64)
            }
        })
        .collect()
}

/// Global transitivity `3·triangles / wedges` (0 when there are no
/// wedges).
pub fn transitivity_naive<W: Weight>(g: &Csr<W>) -> f64 {
    let triangles = triangle_count_naive(g);
    let wedges: u64 = (0..g.num_vertices() as VertexId)
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}
