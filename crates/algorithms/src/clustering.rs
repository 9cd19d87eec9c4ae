//! Clustering coefficients — exact local and global (transitivity),
//! computed on the triangle substrate of [`crate::triangles`].

use crate::triangles::{edge_support, EdgeIndex};
use julienne::Error;
use julienne_graph::VertexId;
use julienne_ligra::traits::GraphRef;
use rayon::prelude::*;

/// Per-vertex local clustering coefficient:
/// `C(v) = 2·T(v) / (deg(v)·(deg(v)−1))`, where `T(v)` counts triangles
/// through `v` (0 for degree < 2). Lists that are not mutual are an
/// [`Error::Input`].
pub fn local_clustering<G: GraphRef>(g: &G) -> Result<Vec<f64>, Error> {
    assert!(g.is_symmetric());
    let idx = EdgeIndex::new(g)?;
    let support = edge_support(&idx);
    // T(v) = ½ Σ_{e ∋ v} support(e): each triangle through v contributes to
    // exactly two of v's incident edges.
    let n = g.num_vertices();
    let mut tri_twice = vec![0u64; n];
    for (e, &(u, v)) in idx.endpoints.iter().enumerate() {
        tri_twice[u as usize] += support[e] as u64;
        tri_twice[v as usize] += support[e] as u64;
    }
    Ok((0..n)
        .into_par_iter()
        .map(|v| {
            let d = g.out_degree(v as VertexId) as u64;
            if d < 2 {
                0.0
            } else {
                (tri_twice[v] / 2) as f64 / ((d * (d - 1) / 2) as f64)
            }
        })
        .collect())
}

/// Global transitivity: `3·triangles / wedges`.
pub fn transitivity<G: GraphRef>(g: &G) -> f64 {
    assert!(g.is_symmetric());
    let triangles = crate::triangles::triangle_count(g);
    let wedges: u64 = (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| {
            let d = g.out_degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::generators::{erdos_renyi, grid2d};

    #[test]
    fn triangle_has_full_clustering() {
        let g = from_pairs_symmetric(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(local_clustering(&g).unwrap(), vec![1.0, 1.0, 1.0]);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        let pairs: Vec<(u32, u32)> = (1..8).map(|i| (0, i)).collect();
        let g = from_pairs_symmetric(8, &pairs);
        assert!(local_clustering(&g).unwrap().iter().all(|&c| c == 0.0));
        assert_eq!(transitivity(&g), 0.0);
    }

    #[test]
    fn local_matches_brute_force() {
        let g = erdos_renyi(150, 1_800, 5, true);
        let got = local_clustering(&g).unwrap();
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
        assert!(local_clustering(&g).unwrap().iter().all(|&c| c == 0.0));
    }
}
