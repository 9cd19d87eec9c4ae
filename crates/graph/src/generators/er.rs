//! Erdős–Rényi G(n, m) graphs.

use crate::builder::EdgeList;
use crate::csr::Csr;
use crate::VertexId;
use julienne_primitives::rng::hash_range;
use rayon::prelude::*;

/// Samples `m` directed edges uniformly at random over `n` vertices (with
/// duplicate/self-loop removal performed by the builder, so the result has
/// at most `m` edges). `symmetric` mirrors every edge.
pub fn erdos_renyi(n: usize, m: usize, seed: u64, symmetric: bool) -> Csr<()> {
    assert!(n >= 2);
    let edges: Vec<(VertexId, VertexId, ())> = (0..m as u64)
        .into_par_iter()
        .map(|i| {
            let u = hash_range(seed, 2 * i, n as u64) as VertexId;
            let v = hash_range(seed, 2 * i + 1, n as u64) as VertexId;
            (u, v, ())
        })
        .collect();
    EdgeList { n, edges }.build_as(symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_shape() {
        let g = erdos_renyi(1000, 8000, 1, false);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.num_edges() > 7000 && g.num_edges() <= 8000);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn symmetric_variant() {
        let g = erdos_renyi(500, 2000, 2, true);
        assert!(g.is_symmetric());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn deterministic() {
        let a = erdos_renyi(200, 1000, 3, false);
        let b = erdos_renyi(200, 1000, 3, false);
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.offsets(), b.offsets());
    }
}
