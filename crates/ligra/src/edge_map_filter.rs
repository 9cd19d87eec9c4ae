//! `edgeMapFilter` with the optional `Pack` (Section 2.1, used by set
//! cover), plus a side-effect-only `edgeMap` over packable graphs.

use crate::subset::VertexSubsetData;
use crate::traits::OutEdges;
use julienne_graph::packed::PackedGraph;
use julienne_graph::VertexId;
use rayon::prelude::*;

/// `edgeMapFilter(G, U, P)`: counts, for each `u ∈ U`, the neighbors
/// satisfying `P(u, v)`, without mutating the graph. Works on any
/// [`OutEdges`] backend; on [`PackedGraph`] only live edges are counted.
pub fn edge_map_filter_count<G, P>(
    g: &G,
    frontier_ids: &[VertexId],
    pred: P,
) -> VertexSubsetData<u32>
where
    G: OutEdges,
    P: Fn(VertexId, VertexId) -> bool + Send + Sync,
{
    let counts: Vec<u32> = frontier_ids
        .par_iter()
        .map(|&u| {
            let mut c = 0u32;
            g.for_each_out(u, |v, _| {
                if pred(u, v) {
                    c += 1;
                }
            });
            c
        })
        .collect();
    VertexSubsetData::from_entries(
        g.num_vertices(),
        frontier_ids.iter().copied().zip(counts).collect(),
    )
}

/// `edgeMapFilter(G, U, P, Pack)`: removes the edges of each `u ∈ U` whose
/// targets fail `P`, mutating `G` through its atomic arena (`&self` — the
/// pack publishes each shrunken list with a release store, so concurrent
/// readers stay safe), and returns each vertex with its new degree.
pub fn edge_map_filter_pack<P>(
    g: &PackedGraph,
    frontier_ids: &[VertexId],
    pred: P,
) -> VertexSubsetData<u32>
where
    P: Fn(VertexId, VertexId) -> bool + Send + Sync,
{
    let new_degrees = g.pack(frontier_ids, pred);
    VertexSubsetData::from_entries(
        g.num_vertices(),
        frontier_ids.iter().copied().zip(new_degrees).collect(),
    )
}

/// Side-effect `edgeMap` over any [`OutEdges`] backend: applies
/// `update(u, v)` to each live edge of the frontier whose target satisfies
/// `cond`. The result subset is not needed by set cover, so none is built.
pub fn edge_map_packed<G, Fu, Fc>(g: &G, frontier_ids: &[VertexId], update: Fu, cond: Fc)
where
    G: OutEdges,
    Fu: Fn(VertexId, VertexId) + Send + Sync,
    Fc: Fn(VertexId) -> bool + Send + Sync,
{
    frontier_ids.par_iter().for_each(|&u| {
        g.for_each_out(u, |v, _| {
            if cond(v) {
                update(u, v);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn bipartite() -> PackedGraph {
        // sets {0,1}, elements {2,3,4}: 0-{2,3,4}, 1-{3,4}
        let pairs = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)];
        PackedGraph::from_csr(&from_pairs_symmetric(5, &pairs))
    }

    #[test]
    fn count_then_pack() {
        let g = bipartite();
        // Pretend elements 3 is covered.
        let covered = |_s: VertexId, e: VertexId| e != 3;
        let counts = edge_map_filter_count(&g, &[0, 1], covered);
        assert_eq!(counts.entries(), &[(0, 2), (1, 1)]);
        // Graph untouched by count.
        assert_eq!(g.degree(0), 3);
        let packed = edge_map_filter_pack(&g, &[0, 1], covered);
        assert_eq!(packed.entries(), &[(0, 2), (1, 1)]);
        assert_eq!(g.degree(0), 2);
        assert!(!g.neighbors(0).contains(&3));
        assert_eq!(g.neighbors(1), vec![4]);
    }

    #[test]
    fn packed_edge_map_side_effects() {
        let g = bipartite();
        let visits: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(0)).collect();
        edge_map_packed(
            &g,
            &[0, 1],
            |_, v| {
                visits[v as usize].fetch_add(1, Ordering::Relaxed);
            },
            |v| v != 2,
        );
        assert_eq!(visits[2].load(Ordering::Relaxed), 0); // cond excluded
        assert_eq!(visits[3].load(Ordering::Relaxed), 2); // from 0 and 1
        assert_eq!(visits[4].load(Ordering::Relaxed), 2);
    }
}
