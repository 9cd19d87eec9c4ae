//! Property tests for the peel kernel `edge_map_peel`: on every backend, its
//! inline walk and its fanned-out fallback (forced to 1, 2, 3 and 7 pieces)
//! leave the same degrees, report the same `(v, prev, new)` list in the same
//! order and count the same edges as a reference built on
//! `edge_map_sum_with_scratch` — at 1, 2 and 4 threads and under schedule
//! chaos — and leave the touched bit clear on every word. The loops that own
//! a peel (`coreness`, `degeneracy_order`) give the same answers under
//! forced pieces, and `coreness` equals the sequential Batagelj–Zaversnik
//! peel.

mod common;

use common::at;
use julienne_repro::algorithms::degeneracy::degeneracy_order;
use julienne_repro::algorithms::kcore::{coreness, coreness_bz_seq, KcoreParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::compress::CompressedWGraph;
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::Csr;
use julienne_repro::ligra::edge_map::sparse_in_pieces;
use julienne_repro::ligra::edge_map_reduce::{
    edge_map_peel, edge_map_sum_with_scratch, SumScratch,
};
use julienne_repro::ligra::traits::OutEdges;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// The bit a peel keeps its round's touched flag in.
const TOUCHED: u32 = 1 << 31;

/// Degrees after the call, the `(v, (prev, new))` hits in order, the edges
/// scanned.
type Outcome = (Vec<u32>, Vec<(u32, (u32, u32))>, u64);

/// A directed weighted graph whose vertex 0 points at `hub_degree` others
/// (0 for no hub), plus `raw` random edges. The CSR and mapped backends
/// split a list above 8192 edges in a fanned-out round, so the hub cases
/// need that many targets; the compressed backend is built with small
/// chunks and splits far sooner.
fn build(n: usize, hub_degree: usize, raw: &[(u32, u32)], symmetric: bool) -> Csr<u32> {
    let mut el: EdgeList<u32> = EdgeList::new(n);
    for v in 1..=hub_degree.min(n - 1) as u32 {
        el.push(0, v, 1);
    }
    for &(a, b) in raw {
        el.push(a % n as u32, b % n as u32, 1);
    }
    if symmetric {
        el.build_symmetric()
    } else {
        el.build(false)
    }
}

/// A graph, a frontier (any order, repeats allowed: the kernel's contract
/// is positional), round-start degrees and a floor. Degrees sit just above
/// the floor so that targets die mid-walk, either near 0 or just below the
/// touched bit.
fn arb_case() -> impl Strategy<Value = (Csr<u32>, Vec<u32>, Vec<u32>, u32)> {
    let shape = prop_oneof![
        (2usize..300, Just(0usize), 0usize..3_000),
        (300usize..2_000, 0usize..1_500, 3_000usize..20_000),
        (8_300usize..9_500, 8_200usize..9_400, 0usize..3_000),
    ];
    shape
        .prop_flat_map(|(n, hub, edges)| {
            (
                Just((n, hub)),
                prop::collection::vec((any::<u32>(), any::<u32>()), edges..edges + 1),
                prop::collection::vec(0u32..n as u32, 0..80),
                any::<u64>(),
                prop_oneof![Just(0u32), 1u32..6, Just(TOUCHED - 9)],
            )
        })
        .prop_map(|((n, hub), raw, mut frontier, seed, floor)| {
            if hub > 0 && frontier.len() > 3 {
                frontier[3] = 0;
            }
            let degrees = (0..n as u64)
                .map(|v| {
                    let h = (v ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
                    // Mostly above the floor, some at or below it.
                    (floor + h as u32).saturating_sub(3).min(TOUCHED - 1)
                })
                .collect();
            (build(n, hub, &raw, false), frontier, degrees, floor)
        })
}

/// Which changed targets the caller keeps: a pure function of the hit.
fn pick(v: u32, prev: u32, new: u32) -> Option<(u32, u32)> {
    (!(v ^ prev ^ new).is_multiple_of(3)).then_some((prev, new))
}

fn words(degrees: &[u32]) -> Vec<AtomicU32> {
    degrees.iter().map(|&d| AtomicU32::new(d)).collect()
}

fn values(words: Vec<AtomicU32>) -> Vec<u32> {
    words.into_iter().map(AtomicU32::into_inner).collect()
}

/// The same round as `edgeMapSum` over the histogram: count the live
/// targets' edges, then lower each once.
fn reference<G: OutEdges>(g: &G, frontier: &[u32], degrees: &[u32], floor: u32) -> Outcome {
    let degrees = words(degrees);
    let scratch = SumScratch::new(g.num_vertices());
    let hits = edge_map_sum_with_scratch(
        g,
        frontier,
        |v, removed| {
            let prev = degrees[v as usize].load(Ordering::Relaxed);
            let new = prev.saturating_sub(removed).max(floor);
            degrees[v as usize].store(new, Ordering::Relaxed);
            pick(v, prev, new)
        },
        |v| degrees[v as usize].load(Ordering::Relaxed) > floor,
        &scratch,
    );
    let edges = frontier.iter().map(|&u| g.out_degree(u) as u64).sum();
    (values(degrees), hits.into_entries(), edges)
}

/// One kernel call, then a second with the same scratch and moves buffer,
/// whose outcome must be the same: the kept buffers carry nothing over.
fn peel<G: OutEdges>(g: &G, frontier: &[u32], degrees: &[u32], floor: u32) -> Outcome {
    let mut scratch = SumScratch::new(g.num_vertices());
    let mut moves = Vec::new();
    let mut once = || {
        let words = words(degrees);
        let edges = edge_map_peel(g, frontier, &words, floor, &mut scratch, &mut moves, pick);
        (values(words), moves.clone(), edges)
    };
    let first = once();
    assert_eq!(once(), first, "a second call on kept buffers differs");
    first
}

fn check<G: OutEdges>(
    what: &str,
    g: &G,
    frontier: &[u32],
    degrees: &[u32],
    floor: u32,
    want: &Outcome,
) -> Result<(), TestCaseError> {
    let schedules = [
        (None, 1),
        (None, 2),
        (None, 4),
        (Some(1u64), 2),
        (Some(0xDEAD_BEEF), 4),
    ];
    for (seed, threads) in schedules {
        rayon::set_chaos_seed(seed);
        let inline = at(threads, || peel(g, frontier, degrees, floor));
        let fanned = [1, 2, 3, 7].map(|pieces| {
            let got = at(threads, || {
                sparse_in_pieces(pieces, || peel(g, frontier, degrees, floor))
            });
            (pieces, got)
        });
        rayon::set_chaos_seed(None);
        let runs = std::iter::once((0, inline)).chain(fanned);
        for (pieces, got) in runs {
            prop_assert!(
                got.0.iter().all(|&d| d < TOUCHED),
                "{} pieces={} chaos={:?} threads={}: touched bit left set",
                what,
                pieces,
                seed,
                threads
            );
            prop_assert_eq!(
                &got,
                want,
                "{} pieces={} (0 = inline) chaos={:?} threads={}",
                what,
                pieces,
                seed,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn peel_matches_the_histogram_reference((g, frontier, degrees, floor) in arb_case()) {
        let want = reference(&g, &frontier, &degrees, floor);

        check("csr", &g, &frontier, &degrees, floor, &want)?;
        // Chunk size 0 never splits a list; 7 splits anything above 14 edges.
        let unsplit = CompressedWGraph::from_csr_with_chunk_size(&g, 0);
        check("compressed/unsplit", &unsplit, &frontier, &degrees, floor, &want)?;
        let split = CompressedWGraph::from_csr_with_chunk_size(&g, 7);
        check("compressed/split", &split, &frontier, &degrees, floor, &want)?;

        // Unique per test thread: the harness may run cases side by side.
        let path = std::env::temp_dir().join(format!(
            "julienne-peel-{}-{:?}.jgr",
            std::process::id(),
            std::thread::current().id()
        ));
        GraphIo::write(&g, &path, &IoOptions::default()).unwrap();
        let mapped = Csr::<u32>::open(&path);
        std::fs::remove_file(&path).ok();
        check("mapped", &mapped.unwrap(), &frontier, &degrees, floor, &want)?;
    }

    #[test]
    fn peeling_loops_agree_under_forced_pieces(
        n in 2usize..400,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..3_000),
        hub in 0usize..300,
    ) {
        let g = build(n, hub, &raw, true);
        let oracle = coreness_bz_seq(&g).coreness;
        let run = || coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
        let natural = run();
        prop_assert_eq!(&natural.coreness, &oracle);
        let order = degeneracy_order(&g).order;
        for pieces in [2, 3, 7] {
            for threads in [1, 2, 4] {
                let (forced, forced_order) = at(threads, || {
                    sparse_in_pieces(pieces, || (run(), degeneracy_order(&g).order))
                });
                prop_assert_eq!(&forced.coreness, &oracle, "pieces={} threads={}", pieces, threads);
                prop_assert_eq!(
                    (forced.rounds, forced.edges_traversed, forced.identifiers_moved),
                    (natural.rounds, natural.edges_traversed, natural.identifiers_moved),
                    "pieces={} threads={}", pieces, threads
                );
                prop_assert_eq!(&forced_order, &order, "pieces={} threads={}", pieces, threads);
            }
        }
    }
}
