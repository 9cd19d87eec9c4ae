//! Shared fixtures for the workspace-root integration and property suites:
//! thread-pool scoping, the paper's generator-backed graph families, and
//! the proptest strategies for random graphs. Each suite pulls this in with
//! `mod common;` — keep everything here deterministic (fixed seeds) so the
//! suites stay reproducible.
#![allow(dead_code)]

use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::generators::{chung_lu, erdos_renyi, grid2d, rmat, RmatParams};
use julienne_repro::graph::transform::{assign_weights, wbfs_weight_range};
use julienne_repro::graph::{Csr, Graph, WGraph};
use proptest::prelude::*;

/// Runs `f` with the worker-thread count capped at `threads`.
pub fn at<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build thread pool")
        .install(f)
}

/// RMAT (skewed) and Chung-Lu (power-law) symmetric test graphs.
pub fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat", rmat(11, 8, RmatParams::default(), 7, true)),
        ("powerlaw", chung_lu(2_000, 16_000, 2.2, 8, true)),
    ]
}

/// Smaller instances of the same families for the super-linear algorithms.
pub fn small_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat", rmat(9, 8, RmatParams::default(), 7, true)),
        ("powerlaw", chung_lu(500, 4_000, 2.2, 8, true)),
    ]
}

/// Tiny instances of the same families, for suites whose per-graph cost is
/// quadratic-and-worse in debug builds (the differential-oracle checks run
/// all-source centralities and edge peeling on two backends per graph).
pub fn tiny_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat", rmat(7, 8, RmatParams::default(), 7, true)),
        ("powerlaw", chung_lu(160, 1_200, 2.2, 8, true)),
    ]
}

/// [`graphs`] with weights: `heavy` gives a wide range (many Δ-stepping
/// annuli), otherwise the wBFS `[1, log n)` range.
pub fn weighted(heavy: bool) -> Vec<(&'static str, WGraph)> {
    let (lo, hi) = if heavy {
        (1, 100_000)
    } else {
        wbfs_weight_range(2_048)
    };
    graphs()
        .into_iter()
        .map(|(name, g)| (name, assign_weights(&g, lo, hi, 21)))
        .collect()
}

/// Directed/symmetric/grid weighted families for the SSSP suites: distinct
/// from [`weighted`] so Δ-stepping also sees a directed graph and a
/// high-diameter lattice.
pub fn weighted_families(heavy: bool) -> Vec<(&'static str, WGraph)> {
    let (lo, hi) = if heavy {
        (1, 100_000)
    } else {
        wbfs_weight_range(2_048)
    };
    vec![
        (
            "er-sym",
            assign_weights(&erdos_renyi(2_000, 16_000, 1, true), lo, hi, 11),
        ),
        (
            "rmat-dir",
            assign_weights(&rmat(11, 8, RmatParams::default(), 2, false), lo, hi, 12),
        ),
        ("grid", assign_weights(&grid2d(45, 45), lo, hi, 13)),
    ]
}

/// Arbitrary symmetric unweighted graph (2..150 vertices). The raw pairs
/// include self-loops and duplicates by construction; `EdgeList::build`
/// must strip them, so every downstream consumer sees a simple graph.
pub fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..150,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..900),
    )
        .prop_map(|(n, raw)| {
            let mut el: EdgeList<()> = EdgeList::new(n);
            for (a, b) in raw {
                el.push(a % n as u32, b % n as u32, ());
            }
            el.build_symmetric()
        })
}

/// Arbitrary frontier: a strictly increasing vertex-id list in `0..n`.
pub fn arb_frontier(n: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0u32..n as u32, 0..n.min(60)).prop_map(|s| s.into_iter().collect())
}

/// Arbitrary symmetric weighted graph (2..100 vertices, weights 1..1000).
pub fn arb_weighted_graph() -> impl Strategy<Value = Csr<u32>> {
    arb_weighted_graph_of(1u32..1000)
}

/// [`arb_weighted_graph`] with the weights drawn from `weight`.
pub fn arb_weighted_graph_of(
    weight: impl Strategy<Value = u32>,
) -> impl Strategy<Value = Csr<u32>> {
    (
        2usize..100,
        prop::collection::vec((any::<u32>(), any::<u32>(), weight), 0..600),
    )
        .prop_map(|(n, raw)| {
            let mut el: EdgeList<u32> = EdgeList::new(n);
            for (a, b, w) in raw {
                el.push_undirected(a % n as u32, b % n as u32, w);
            }
            el.build_symmetric()
        })
}

/// Arbitrary graph biased toward disconnection: vertices are split into
/// 2–5 blocks and every edge is drawn *within* its endpoint's block, so
/// the result has at least `blocks` components (isolates included).
pub fn arb_disconnected_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..6,
        8usize..30,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..400),
    )
        .prop_map(|(blocks, per_block, raw)| {
            let n = blocks * per_block;
            let mut el: EdgeList<()> = EdgeList::new(n);
            for (a, b) in raw {
                let block = (a as usize) % blocks;
                let base = (block * per_block) as u32;
                el.push(base + a % per_block as u32, base + b % per_block as u32, ());
            }
            el.build_symmetric()
        })
}

/// Arbitrary grid lattice (2..12 on each side) — the high-diameter
/// counterpoint to the skewed families (many peeling rounds, long tails).
pub fn arb_grid_graph() -> impl Strategy<Value = Graph> {
    (2usize..12, 2usize..12).prop_map(|(w, h)| grid2d(w, h))
}

/// One strategy drawing from every unweighted family above — the input
/// distribution for the differential-oracle suite.
pub fn arb_any_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![arb_graph(), arb_disconnected_graph(), arb_grid_graph(),]
}
