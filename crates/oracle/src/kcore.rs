//! Peeling oracles: coreness, degeneracy, and edge trussness by literal
//! repeated removal.

use julienne_graph::csr::Weight;
use julienne_graph::{Csr, VertexId};
use std::collections::HashSet;

/// Coreness λ(v) of every vertex by literal peeling: for k = 0, 1, 2, …
/// repeatedly delete any live vertex whose live degree is ≤ k, assigning it
/// coreness k, until all vertices are gone. O(n·m) worst case — fine for
/// an oracle.
pub fn coreness_peel<W: Weight>(g: &Csr<W>) -> Vec<u32> {
    let n = g.num_vertices();
    let mut live_degree: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut coreness = vec![0u32; n];
    let mut remaining = n;
    let mut k = 0u32;
    while remaining > 0 {
        // Peel everything of degree ≤ k to a fixpoint before raising k.
        while let Some(v) = (0..n).find(|&v| alive[v] && live_degree[v] <= k as usize) {
            alive[v] = false;
            coreness[v] = k;
            remaining -= 1;
            for &u in g.neighbors(v as VertexId) {
                if alive[u as usize] {
                    live_degree[u as usize] -= 1;
                }
            }
        }
        k += 1;
    }
    coreness
}

/// The degeneracy of the graph: the largest coreness.
pub fn degeneracy<W: Weight>(g: &Csr<W>) -> u32 {
    coreness_peel(g).into_iter().max().unwrap_or(0)
}

/// Checks a claimed degeneracy order: walking `order` front to back and
/// deleting as we go, every vertex must have at most `claimed_degeneracy`
/// neighbors among the not-yet-deleted suffix, and `order` must be a
/// permutation of the vertices.
pub fn is_degeneracy_order<W: Weight>(
    g: &Csr<W>,
    order: &[VertexId],
    claimed_degeneracy: u32,
) -> bool {
    let n = g.num_vertices();
    if order.len() != n {
        return false;
    }
    let mut position = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if (v as usize) >= n || position[v as usize] != usize::MAX {
            return false;
        }
        position[v as usize] = i;
    }
    order.iter().enumerate().all(|(i, &v)| {
        let later = g
            .neighbors(v)
            .iter()
            .filter(|&&u| position[u as usize] > i)
            .count();
        later <= claimed_degeneracy as usize
    })
}

/// The undirected edges `(u, v)`, `u < v`, of a symmetric graph, sorted.
pub(crate) fn undirected_edges<W: Weight>(g: &Csr<W>) -> Vec<(VertexId, VertexId)> {
    let mut endpoints: Vec<(VertexId, VertexId)> = Vec::new();
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.neighbors(u) {
            if u < v {
                endpoints.push((u, v));
            }
        }
    }
    endpoints.sort_unstable();
    endpoints
}

/// Trussness of every undirected edge by literal peeling, mirroring the
/// definition: for k = 3, 4, … repeatedly delete any live edge closing
/// fewer than k − 2 triangles in the live subgraph, assigning it trussness
/// k − 1. Edges in no triangle get trussness 2.
///
/// Returns `(endpoints, trussness)` with endpoints `(u, v)`, `u < v`,
/// sorted — the same edge-id order as the parallel `EdgeIndex`.
pub fn trussness_peel<W: Weight>(g: &Csr<W>) -> (Vec<(VertexId, VertexId)>, Vec<u32>) {
    let n = g.num_vertices();
    let endpoints = undirected_edges(g);
    let m = endpoints.len();

    let adjacency: Vec<HashSet<VertexId>> = (0..n as VertexId)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let ordered = |a: u32, b: u32| (a.min(b), a.max(b));
    // A triangle through live edge (u, v) needs both closing edges live.
    let live_support = |e: usize, dead: &HashSet<(u32, u32)>| {
        let (u, v) = endpoints[e];
        adjacency[u as usize]
            .iter()
            .filter(|&&w| {
                adjacency[v as usize].contains(&w)
                    && !dead.contains(&ordered(u, w))
                    && !dead.contains(&ordered(v, w))
            })
            .count() as u32
    };

    let mut alive = vec![true; m];
    let mut dead: HashSet<(u32, u32)> = HashSet::new();
    let mut trussness = vec![2u32; m];
    let mut remaining = m;
    let mut k = 3u32;
    while remaining > 0 {
        while let Some(e) = (0..m).find(|&e| alive[e] && live_support(e, &dead) < k - 2) {
            alive[e] = false;
            dead.insert(endpoints[e]);
            trussness[e] = k - 1;
            remaining -= 1;
        }
        k += 1;
    }
    (endpoints, trussness)
}
