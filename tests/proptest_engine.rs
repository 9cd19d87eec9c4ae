//! Property tests over the Ligra engine: for arbitrary random graphs and
//! frontiers, sparse push and dense pull traversals must produce identical
//! results, and the aggregation primitives must match brute-force oracles.

mod common;

use common::{arb_frontier, arb_graph, at};
use julienne_repro::graph::builder::from_pairs;
use julienne_repro::graph::compress::CompressedGraph;
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::Csr;
use julienne_repro::ligra::edge_map::{EdgeMap, Mode};
use julienne_repro::ligra::edge_map_reduce::{edge_map_sum, edge_map_sum_with_scratch, SumScratch};
use julienne_repro::ligra::subset::VertexSubset;
use julienne_repro::ligra::traits::{GraphRef, OutEdges};
use proptest::prelude::*;
use std::collections::HashMap;

/// Brute-force: the set of vertices with cond true reachable by one hop
/// from the frontier (update ≡ first-touch).
fn one_hop_oracle(g: &Csr<()>, frontier: &[u32], cond: impl Fn(u32) -> bool) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for &u in frontier {
        for &v in g.neighbors(u) {
            if cond(v) && !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out.sort_unstable();
    out
}

/// One hop from `frontier` over `g` in `mode` with an update that always
/// succeeds: every target it reports, sorted, duplicates kept.
fn hop_targets<G: GraphRef>(
    g: &G,
    frontier: &VertexSubset,
    mode: Mode,
    cond: impl Fn(u32) -> bool + Send + Sync,
) -> Vec<u32> {
    let out = EdgeMap::new(g)
        .mode(mode)
        .run(frontier, |_, _, _| true, cond);
    let mut ids = out.to_vertices();
    ids.sort_unstable();
    ids
}

/// One hop from `frontier` over `g` in `mode`: its targets, sorted and
/// deduplicated.
fn one_hop<G: GraphRef>(
    g: &G,
    frontier: &VertexSubset,
    mode: Mode,
    cond: impl Fn(u32) -> bool + Send + Sync,
) -> Vec<u32> {
    let mut ids = hop_targets(g, frontier, mode, cond);
    ids.dedup();
    ids
}

// Pure functions of the target and its count, so the reference is well
// defined: a third of the targets are dead, and `update` drops odd counts.
fn sum_cond(v: u32) -> bool {
    v % 3 != 1
}
fn sum_update(v: u32, count: u32) -> Option<u64> {
    count
        .is_multiple_of(2)
        .then_some((v as u64) << 32 | count as u64)
}

/// `edgeMapSum` done sequentially: count live edges per target, list the
/// targets by first occurrence in frontier order × edge order.
fn sum_reference(g: &Csr<()>, frontier: &[u32]) -> Vec<(u32, u64)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    let mut order = Vec::new();
    for &u in frontier {
        for &v in g.neighbors(u).iter().filter(|&&v| sum_cond(v)) {
            let count = counts.entry(v).or_default();
            if *count == 0 {
                order.push(v);
            }
            *count += 1;
        }
    }
    let entry = |v| sum_update(v, counts[&v]).map(|o| (v, o));
    order.into_iter().filter_map(entry).collect()
}

/// The scratch `edgeMapSum` on one backend equals `want` entry for entry at
/// every thread count and under schedule chaos. One scratch serves every
/// call, with an all-`None` update in between, so a counter left non-zero by
/// any of them shows up as a wrong count or a missing entry in the next.
fn check_sum<G: OutEdges>(
    what: &str,
    g: &G,
    frontier: &[u32],
    want: &[(u32, u64)],
) -> Result<(), TestCaseError> {
    let scratch = SumScratch::new(g.num_vertices());
    let run = |threads| {
        at(threads, || {
            let dropped =
                edge_map_sum_with_scratch(g, frontier, |_, _| None::<u64>, sum_cond, &scratch);
            assert!(dropped.is_empty());
            edge_map_sum_with_scratch(g, frontier, sum_update, sum_cond, &scratch).into_entries()
        })
    };
    for threads in [1, 2, 4] {
        prop_assert_eq!(&run(threads), want, "{} threads={}", what, threads);
    }
    for (seed, threads) in [(1u64, 2), (0xDEAD_BEEF, 4)] {
        rayon::set_chaos_seed(Some(seed));
        let got = run(threads);
        rayon::set_chaos_seed(None);
        prop_assert_eq!(
            &got,
            want,
            "{} chaos seed={} threads={}",
            what,
            seed,
            threads
        );
    }
    Ok(())
}

#[test]
fn edge_map_sum_scratch_counts_a_hub_target_once() {
    // 10^5 spokes, each with one edge into vertex 0: 25 blocks of the
    // driver all hit the same counter.
    const SPOKES: u32 = 100_000;
    let pairs: Vec<(u32, u32)> = (1..=SPOKES).map(|u| (u, 0)).collect();
    let g = from_pairs(SPOKES as usize + 1, &pairs);
    let frontier: Vec<u32> = (1..=SPOKES).collect();
    let scratch = SumScratch::new(g.num_vertices());
    for threads in [1, 2, 4] {
        let out = at(threads, || {
            edge_map_sum_with_scratch(&g, &frontier, |_, c| Some(c), |_| true, &scratch)
        });
        assert_eq!(out.entries(), &[(0, SPOKES)], "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sparse_and_dense_one_hop_agree((g, seedbits) in arb_graph().prop_flat_map(|g| {
        let n = g.num_vertices();
        (Just(g), arb_frontier(n))
    })) {
        let n = g.num_vertices();
        let frontier_ids = seedbits;
        let frontier = VertexSubset::from_vertices(n, frontier_ids.clone());
        let cond = |v: u32| v % 3 != 1;
        let want = one_hop_oracle(&g, &frontier_ids, cond);
        // Chunk size 3 sends every target of degree above 6 through the
        // dense pass's chunk tasks.
        let compressed = CompressedGraph::from_csr_with_chunk_size(&g, 3);
        // Unique per test thread: the harness may run cases side by side.
        let path = std::env::temp_dir().join(format!(
            "julienne-one-hop-{}-{:?}.jgr",
            std::process::id(),
            std::thread::current().id()
        ));
        GraphIo::write(&g, &path, &IoOptions::default()).unwrap();
        let mapped = Csr::<()>::open(&path);
        std::fs::remove_file(&path).ok();
        let mapped = mapped.unwrap();
        for mode in [Mode::Sparse, Mode::Dense, Mode::Auto] {
            prop_assert_eq!(&one_hop(&g, &frontier, mode, cond), &want, "csr {:?}", mode);
            prop_assert_eq!(&one_hop(&compressed, &frontier, mode, cond), &want, "compressed {:?}", mode);
            prop_assert_eq!(&one_hop(&mapped, &frontier, mode, cond), &want, "mapped {:?}", mode);
        }
    }

    #[test]
    fn edge_map_sum_matches_hash_map_oracle((g, frontier) in arb_graph().prop_flat_map(|g| {
        let n = g.num_vertices();
        (Just(g), arb_frontier(n))
    })) {
        let mut oracle: HashMap<u32, u32> = HashMap::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if v % 2 == 0 {
                    *oracle.entry(v).or_default() += 1;
                }
            }
        }
        let got = edge_map_sum(&g, &frontier, |_, c| Some(c), |v| v % 2 == 0);
        let mut got: Vec<(u32, u32)> = got.into_entries();
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = oracle.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn edge_map_sum_scratch_matches_first_occurrence_reference(
        (g, frontier) in arb_graph().prop_flat_map(|g| {
            // Any order, repeats allowed: the entry order is positional.
            let n = g.num_vertices() as u32;
            (Just(g), prop::collection::vec(0..n, 0..80))
        })
    ) {
        let want = sum_reference(&g, &frontier);
        check_sum("csr", &g, &frontier, &want)?;
        // Chunk size 7 splits any list above 14 edges across chunk tasks.
        check_sum("compressed/split", &CompressedGraph::from_csr_with_chunk_size(&g, 7), &frontier, &want)?;

        // Unique per test thread: the harness may run cases side by side.
        let path = std::env::temp_dir().join(format!(
            "julienne-edge-map-sum-{}-{:?}.jgr",
            std::process::id(),
            std::thread::current().id()
        ));
        GraphIo::write(&g, &path, &IoOptions::default()).unwrap();
        let mapped = Csr::<()>::open(&path);
        std::fs::remove_file(&path).ok();
        check_sum("mapped", &mapped.unwrap(), &frontier, &want)?;
    }

    #[test]
    fn sparse_push_reports_every_successful_update((g, frontier) in arb_graph().prop_flat_map(|g| {
        let n = g.num_vertices();
        (Just(g), arb_frontier(n))
    })) {
        // The engine never filters its output: a target reached by k edges
        // whose update succeeds appears k times.
        let cond = |v: u32| v % 3 != 1;
        let mut want: Vec<u32> = frontier
            .iter()
            .flat_map(|&u| g.neighbors(u).iter().copied().filter(|&v| cond(v)))
            .collect();
        want.sort_unstable();
        let fs = VertexSubset::from_vertices(g.num_vertices(), frontier);
        let compressed = CompressedGraph::from_csr_with_chunk_size(&g, 3);
        for threads in [1, 4] {
            let on_csr = at(threads, || hop_targets(&g, &fs, Mode::Sparse, cond));
            let on_compressed = at(threads, || hop_targets(&compressed, &fs, Mode::Sparse, cond));
            prop_assert_eq!(&on_csr, &want, "csr threads={}", threads);
            prop_assert_eq!(&on_compressed, &want, "compressed threads={}", threads);
        }
    }
}
