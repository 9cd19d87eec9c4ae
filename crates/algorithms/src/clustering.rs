//! Clustering coefficients — exact local and global (transitivity),
//! computed from the one per-edge support vector of [`crate::triangles`].

use crate::triangles::{edge_support, EdgeIndex};
use julienne::Error;
use julienne_graph::VertexId;
use julienne_ligra::traits::GraphRef;
use rayon::prelude::*;

/// Local and global clustering of a symmetric graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// Per-vertex local coefficient `C(v) = 2·T(v) / (deg(v)·(deg(v)−1))`,
    /// where `T(v)` counts triangles through `v` (0 for degree < 2).
    pub local: Vec<f64>,
    /// Global transitivity: `3·triangles / wedges` (0 without wedges).
    pub transitivity: f64,
}

/// Both coefficients from one triangle walk. Lists that are not mutual are
/// an [`Error::Input`].
pub fn clustering<G: GraphRef>(g: &G) -> Result<Clustering, Error> {
    let idx = EdgeIndex::new(g)?;
    let support = edge_support(&idx);
    let (arcs, n) = (&idx.arcs, g.num_vertices() as VertexId);
    let wedges = |v| arcs.degree(v) as u64 * arcs.degree(v).saturating_sub(1) as u64 / 2;
    let local = (0..n)
        .into_par_iter()
        .map(|v| {
            // T(v) = ½ Σ_{e ∋ v} support(e): a triangle through v holds two
            // of v's edges.
            let t = arcs
                .weights_of(v)
                .iter()
                .map(|&e| support[e as usize] as u64)
                .sum::<u64>()
                / 2;
            match wedges(v) {
                0 => 0.0,
                w => t as f64 / w as f64,
            }
        })
        .collect();
    let triangles = support.iter().map(|&s| s as u64).sum::<u64>() / 3;
    let all_wedges: u64 = (0..n).into_par_iter().map(wedges).sum();
    Ok(Clustering {
        local,
        transitivity: match all_wedges {
            0 => 0.0,
            w => 3.0 * triangles as f64 / w as f64,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::generators::{erdos_renyi, grid2d};

    #[test]
    fn triangle_has_full_clustering() {
        let g = from_pairs_symmetric(3, &[(0, 1), (1, 2), (0, 2)]);
        let c = clustering(&g).unwrap();
        assert_eq!(c.local, vec![1.0, 1.0, 1.0]);
        assert!((c.transitivity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        let pairs: Vec<(u32, u32)> = (1..8).map(|i| (0, i)).collect();
        let g = from_pairs_symmetric(8, &pairs);
        let c = clustering(&g).unwrap();
        assert!(c.local.iter().all(|&c| c == 0.0));
        assert_eq!(c.transitivity, 0.0);
    }

    #[test]
    fn local_matches_brute_force() {
        let g = erdos_renyi(150, 1_800, 5, true);
        let got = clustering(&g).unwrap().local;
        for v in 0..150u32 {
            let nbrs = g.neighbors(v);
            let d = nbrs.len();
            let mut tri = 0usize;
            for i in 0..d {
                for j in (i + 1)..d {
                    if g.neighbors(nbrs[i]).contains(&nbrs[j]) {
                        tri += 1;
                    }
                }
            }
            let want = if d < 2 {
                0.0
            } else {
                tri as f64 / (d * (d - 1) / 2) as f64
            };
            assert!(
                (got[v as usize] - want).abs() < 1e-9,
                "vertex {v}: {} vs {want}",
                got[v as usize]
            );
        }
    }

    #[test]
    fn grid_is_triangle_free() {
        let g = grid2d(10, 10);
        assert!(clustering(&g).unwrap().local.iter().all(|&c| c == 0.0));
    }
}
