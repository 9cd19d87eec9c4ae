//! `edgeMapFilter` with the `Pack` option (Section 2.1, used by set cover).

use crate::subset::VertexSubsetData;
use julienne_graph::packed::PackedGraph;
use julienne_graph::VertexId;

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

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;

    #[test]
    fn pack_drops_failing_targets() {
        // sets {0,1}, elements {2,3,4}: 0-{2,3,4}, 1-{3,4}
        let pairs = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)];
        let g = PackedGraph::from_csr(&from_pairs_symmetric(5, &pairs));
        // Pretend element 3 is covered.
        let packed = edge_map_filter_pack(&g, &[0, 1], |_, e| e != 3);
        assert_eq!(packed.entries(), &[(0, 2), (1, 1)]);
        assert_eq!(g.degree(0), 2);
        assert!(!g.neighbors(0).contains(&3));
        assert_eq!(g.neighbors(1), vec![4]);
    }
}
