//! Chung–Lu random graphs with power-law expected degrees — a second
//! heavy-tailed family (independent edges, unlike R-MAT's recursive
//! correlation) used to vary the k-core peeling-complexity ρ.

use crate::builder::EdgeList;
use crate::csr::Csr;
use crate::VertexId;
use julienne_primitives::rng::{hash64, hash_range};
use rayon::prelude::*;

/// Samples a Chung–Lu graph: vertex `i` has expected degree
/// `d_max · (i+1)^(−1/(α−1))` (a power law with exponent `α`), realised by
/// sampling `m_target` endpoints proportional to the weights via inverse
/// transform on the weight prefix distribution, approximated here by the
/// standard trick of sampling ranks with density `∝ r^(−1/(α−1))`.
pub fn chung_lu(n: usize, m_target: usize, alpha: f64, seed: u64, symmetric: bool) -> Csr<()> {
    assert!(n >= 2);
    assert!(alpha > 1.5, "alpha must exceed 1.5 for a proper tail");
    // Exponent for rank sampling: picking rank r with prob ∝ r^(-β) where
    // β = 1/(α−1) is achieved by r = ⌊U^(1/(1−β)) · n⌋ for U uniform.
    let beta = 1.0 / (alpha - 1.0);
    let inv = 1.0 / (1.0 - beta);
    let pick = |h: u64| -> VertexId {
        let u = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        let r = (u.powf(inv) * n as f64) as usize;
        r.min(n - 1) as VertexId
    };
    let edges: Vec<(VertexId, VertexId, ())> = (0..m_target as u64)
        .into_par_iter()
        .map(|i| {
            let u = pick(hash64(seed, 2 * i));
            // Second endpoint uniform: gives each edge one heavy endpoint,
            // mimicking the hub-to-leaf structure of social graphs.
            let v = hash_range(seed ^ 0xDEAD_BEEF, 2 * i + 1, n as u64) as VertexId;
            (u, v, ())
        })
        .collect();
    EdgeList { n, edges }.build_as(symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_tail_exists() {
        let g = chung_lu(10_000, 80_000, 2.2, 3, true);
        assert!(g.validate().is_ok());
        let degs = g.degrees();
        let max = *degs.iter().max().unwrap() as f64;
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(max > 10.0 * avg, "max={max} avg={avg}");
    }

    #[test]
    fn deterministic() {
        let a = chung_lu(1000, 5000, 2.5, 1, false);
        let b = chung_lu(1000, 5000, 2.5, 1, false);
        assert_eq!(a.targets(), b.targets());
    }
}
