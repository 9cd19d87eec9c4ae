//! Random near-regular graphs: every vertex draws `degree` random
//! out-neighbors. This is the "degree-8 random graph" of the Section 3.4
//! bucketing microbenchmark.

use crate::builder::EdgeList;
use crate::csr::Csr;
use crate::VertexId;
use julienne_primitives::rng::hash_range;
use rayon::prelude::*;

/// Each of the `n` vertices samples `degree` uniform random out-neighbors
/// (self-loops and duplicates removed by the builder, so out-degrees are at
/// most `degree`).
pub fn random_regular(n: usize, degree: usize, seed: u64, symmetric: bool) -> Csr<()> {
    assert!(n >= 2);
    let edges: Vec<(VertexId, VertexId, ())> = (0..n as u64)
        .into_par_iter()
        .flat_map_iter(|u| {
            (0..degree as u64).map(move |j| {
                let v = hash_range(seed, u * degree as u64 + j, n as u64) as VertexId;
                (u as VertexId, v, ())
            })
        })
        .collect();
    EdgeList { n, edges }.build_as(symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_near_target() {
        let g = random_regular(10_000, 8, 5, false);
        assert!(g.validate().is_ok());
        let degs = g.degrees();
        let avg: f64 = degs.iter().map(|&d| d as f64).sum::<f64>() / degs.len() as f64;
        assert!(avg > 7.5 && avg <= 8.0, "avg={avg}");
        assert!(degs.iter().all(|&d| d <= 8));
    }

    #[test]
    fn symmetric_microbench_shape() {
        let g = random_regular(1000, 8, 9, true);
        assert!(g.is_symmetric());
        assert!(g.validate().is_ok());
    }
}
