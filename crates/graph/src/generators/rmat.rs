//! R-MAT recursive-matrix graphs (Chakrabarti et al.), the standard
//! heavy-tailed stand-in for social/web graphs like the paper's Twitter,
//! Friendster and Hyperlink inputs.

use crate::builder::EdgeList;
use crate::csr::Csr;
use crate::VertexId;
use julienne_primitives::rng::hash64;
use rayon::prelude::*;

/// R-MAT quadrant probabilities. The Graph500 defaults (0.57/0.19/0.19/0.05)
/// produce a heavy-tailed degree distribution with a small effective
/// diameter.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// P(top-left): controls hub formation.
    pub a: f64,
    /// P(top-right).
    pub b: f64,
    /// P(bottom-left).
    pub c: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generates an R-MAT graph with `2^scale` vertices and `edge_factor *
/// 2^scale` sampled edges (deduplicated by the builder). `symmetric`
/// mirrors edges, matching the paper's `-Sym` inputs.
pub fn rmat(
    scale: u32,
    edge_factor: usize,
    params: RmatParams,
    seed: u64,
    symmetric: bool,
) -> Csr<()> {
    assert!((1..=30).contains(&scale));
    let n = 1usize << scale;
    let m = edge_factor * n;
    let edges: Vec<(VertexId, VertexId, ())> = (0..m as u64)
        .into_par_iter()
        .map(|i| {
            let (u, v) = sample_edge(scale, params, seed, i);
            (u, v, ())
        })
        .collect();
    EdgeList { n, edges }.build_as(symmetric)
}

/// Samples one edge by descending `scale` levels of the recursive matrix,
/// consuming one hash per level (SKG with per-level noise, which avoids the
/// R-MAT artefact of exactly repeated quadrant choices).
///
/// A level draws `r` in `[0, 1)` and takes quadrant (0,0) below `a`, (0,1)
/// below `a + b`, (1,0) below `a + b + c` and (1,1) above. The two bits are
/// compared out, not branched on: the row bit is `r ≥ a + b`, and the column
/// bit is `a ≤ r < a + b` or `r ≥ a + b + c`.
fn sample_edge(scale: u32, p: RmatParams, seed: u64, index: u64) -> (VertexId, VertexId) {
    let (ab, abc) = (p.a + p.b, p.a + p.b + p.c);
    let mut u = 0u64;
    let mut v = 0u64;
    for level in 0..scale {
        let h = hash64(
            seed ^ (level as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            index,
        );
        // Map to [0,1) with 53-bit precision.
        let r = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let du = u64::from(r >= ab);
        let dv = u64::from((r >= p.a) & (r < ab)) | u64::from(r >= abc);
        u = (u << 1) | du;
        v = (v << 1) | dv;
    }
    (u as VertexId, v as VertexId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_heavy_tail() {
        let g = rmat(12, 8, RmatParams::default(), 42, true);
        assert_eq!(g.num_vertices(), 1 << 12);
        assert!(g.validate().is_ok());
        let degs = g.degrees();
        let max = *degs.iter().max().unwrap() as f64;
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // A heavy-tailed graph has max degree far above average.
        assert!(max > 8.0 * avg, "expected hubs: max={max} avg={avg:.1}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = rmat(8, 4, RmatParams::default(), 7, false);
        let b = rmat(8, 4, RmatParams::default(), 7, false);
        assert_eq!(a.targets(), b.targets());
        let c = rmat(8, 4, RmatParams::default(), 8, false);
        assert_ne!(a.targets(), c.targets());
    }

    #[test]
    fn directed_variant_valid() {
        let g = rmat(10, 8, RmatParams::default(), 1, false);
        assert!(!g.is_symmetric());
        assert!(g.validate().is_ok());
        assert!(g.num_edges() > 0);
    }
}
