//! Workload statistics for Table 2: graph sizes, peeling complexity ρ, and
//! eccentricity estimates.

use crate::bfs::bfs_seq;
use crate::kcore::{coreness, KcoreParams};
use julienne::query::QueryCtx;
use julienne_graph::VertexId;
use julienne_ligra::traits::GraphRef;

/// Table 2-style statistics of an input graph.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// |V|.
    pub num_vertices: usize,
    /// |E| (directed edge count).
    pub num_edges: usize,
    /// Peeling complexity ρ: rounds of the bucketed peeling process
    /// (symmetric graphs only — `None` for directed, matching the paper's
    /// "–" entries).
    pub rho: Option<u64>,
    /// Largest coreness k_max (symmetric graphs only).
    pub k_max: Option<u32>,
    /// Maximum out-degree.
    pub max_degree: u32,
    /// BFS eccentricity of vertex 0 (hop radius estimate r_src).
    pub eccentricity_from_zero: u32,
}

/// Computes the statistics. ρ and k_max run the work-efficient peeling and
/// are only defined for symmetric graphs.
pub fn graph_stats<G: GraphRef>(g: &G) -> GraphStats {
    let (rho, k_max) = if g.is_symmetric() {
        // Weights are irrelevant to coreness, so peel the graph directly.
        let r = coreness(g, &KcoreParams::default(), &QueryCtx::default())
            .expect("uncancellable query");
        let k_max = r.coreness.iter().copied().max().unwrap_or(0);
        (Some(r.rounds), Some(k_max))
    } else {
        (None, None)
    };
    let levels = bfs_seq(g, 0);
    let ecc = levels
        .iter()
        .copied()
        .filter(|&l| l != u32::MAX)
        .max()
        .unwrap_or(0);
    let max_degree = (0..g.num_vertices() as VertexId)
        .map(|v| g.out_degree(v) as u32)
        .max()
        .unwrap_or(0);
    GraphStats {
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        rho,
        k_max,
        max_degree,
        eccentricity_from_zero: ecc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::generators::grid2d;

    #[test]
    fn grid_stats() {
        let g = grid2d(10, 10);
        let s = graph_stats(&g);
        assert_eq!(s.num_vertices, 100);
        assert_eq!(s.num_edges, 360);
        assert_eq!(s.k_max, Some(2));
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.eccentricity_from_zero, 18);
        assert!(s.rho.unwrap() >= 2);
    }

    #[test]
    fn directed_graph_has_no_rho() {
        use julienne_graph::builder::from_pairs;
        let g = from_pairs(4, &[(0, 1), (1, 2)]);
        let s = graph_stats(&g);
        assert!(s.rho.is_none());
        assert!(s.k_max.is_none());
        assert_eq!(s.eccentricity_from_zero, 2);
    }

    #[test]
    fn clique_rho_is_one() {
        // A clique peels in one round.
        let mut pairs = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                pairs.push((i, j));
            }
        }
        let g = from_pairs_symmetric(5, &pairs);
        let s = graph_stats(&g);
        assert_eq!(s.rho, Some(1));
        assert_eq!(s.k_max, Some(4));
    }
}
