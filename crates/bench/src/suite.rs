//! The synthetic input suite — laptop-scale stand-ins for Table 2.
//!
//! Each entry mirrors the *shape* that drives the paper's observations:
//! heavy-tailed R-MAT graphs for the social/web inputs (low diameter, large
//! peeling complexity), a grid for road networks (high diameter), and
//! skewed bipartite instances for set cover. Sizes scale with the `scale`
//! knob so the harness can run anywhere from seconds to minutes.

use julienne_graph::generators::{
    chung_lu, grid2d, rmat, set_cover_instance, RmatParams, SetCoverInstance,
};
use julienne_graph::transform::{assign_weights, symmetrize, wbfs_weight_range};
use julienne_graph::{Graph, WGraph};

/// A named unweighted benchmark graph.
pub struct NamedGraph {
    /// Short name printed in table rows.
    pub name: &'static str,
    /// Which Table 2 input this stands in for.
    pub stands_in_for: &'static str,
    /// The graph.
    pub graph: Graph,
}

/// Default scale for the harness binaries (vertices ≈ 2^scale).
pub const DEFAULT_SCALE: u32 = 14;

/// The symmetric suite used by k-core (Table 3 / Figure 2).
pub fn symmetric_suite(scale: u32) -> Vec<NamedGraph> {
    vec![
        NamedGraph {
            name: "rmat-sym",
            stands_in_for: "com-Orkut / Twitter-Sym",
            graph: rmat(scale, 16, RmatParams::default(), 0xACE1, true),
        },
        NamedGraph {
            name: "chunglu-sym",
            stands_in_for: "Friendster",
            graph: chung_lu(1usize << scale, 12usize << scale, 2.2, 0xACE2, true),
        },
        NamedGraph {
            name: "rmat-dense-sym",
            stands_in_for: "Hyperlink-Host-Sym",
            graph: rmat(
                scale.saturating_sub(1),
                32,
                RmatParams::default(),
                0xACE3,
                true,
            ),
        },
    ]
}

/// The SSSP suite: weighted directed/symmetric graphs. `heavy_weights`
/// picks the `[1, 10^5)` range (Δ-stepping inputs) instead of
/// `[1, ⌈log n⌉)` (wBFS inputs).
pub fn weighted_suite(scale: u32, heavy_weights: bool) -> Vec<(&'static str, WGraph)> {
    let n = 1usize << scale;
    let (lo, hi) = if heavy_weights {
        (1, 100_000)
    } else {
        wbfs_weight_range(n)
    };
    let side = ((n as f64).sqrt() as usize).max(2);
    vec![
        (
            "rmat-sym",
            assign_weights(
                &rmat(scale, 16, RmatParams::default(), 0xBEE1, true),
                lo,
                hi,
                1,
            ),
        ),
        (
            "rmat-dir",
            assign_weights(
                &symmetrize(&rmat(scale, 8, RmatParams::default(), 0xBEE2, false)),
                lo,
                hi,
                2,
            ),
        ),
        ("grid-road", assign_weights(&grid2d(side, side), lo, hi, 3)),
    ]
}

/// The set-cover suite (Table 3 / Figure 5 inputs).
pub fn setcover_suite(scale: u32) -> Vec<(&'static str, SetCoverInstance)> {
    let elems = 1usize << scale;
    vec![
        (
            "cover-skew",
            set_cover_instance(elems / 64, elems, 4, 0xCAFE),
        ),
        (
            "cover-wide",
            set_cover_instance(elems / 16, elems, 2, 0xCAFF),
        ),
    ]
}

/// Unweighted view helper for stats over weighted graphs.
pub fn strip_weights(g: &WGraph) -> Graph {
    g.with_weights(vec![(); g.num_edges()])
        .expect("one weight per edge")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_build_and_validate() {
        for g in symmetric_suite(10) {
            assert!(g.graph.validate().is_ok(), "{}", g.name);
            assert!(g.graph.is_symmetric());
        }
        for (name, g) in weighted_suite(10, false) {
            assert!(g.validate().is_ok(), "{name}");
        }
        for (name, inst) in setcover_suite(10) {
            assert!(inst.graph.validate().is_ok(), "{name}");
        }
    }

    #[test]
    fn weight_ranges_differ() {
        let light = weighted_suite(8, false);
        let heavy = weighted_suite(8, true);
        let max_light = light[0].1.weights().iter().max().copied().unwrap();
        let max_heavy = heavy[0].1.weights().iter().max().copied().unwrap();
        assert!(max_light < 20);
        assert!(max_heavy > 1000);
    }
}
