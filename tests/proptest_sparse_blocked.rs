//! Property tests for the sparse `edgeMap` driver: on every backend, for
//! frontiers with and without split hubs, the ids, the payloads **and their
//! order** equal a sequential frontier-order × edge-order reference — at 1
//! and 2 threads and under schedule chaos. The list visitor of
//! `run_sparse_at` sees every (frontier position, edge) exactly once and in
//! that order, and every empty list once in its place, each list or chunk
//! yields as many edges as its `len`, and the lengths add up to the edges
//! scanned. These rounds are small enough
//! to run as one piece, so the fanned-out walk is also driven directly at
//! 2, 3 and 7 pieces.

mod common;

use common::at;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::compress::CompressedWGraph;
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::Csr;
use julienne_repro::ligra::edge_map::{sparse_in_pieces, EdgeMap};
use julienne_repro::ligra::traits::OutEdges;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A directed weighted graph whose vertex 0 points at `hub_degree` others
/// (0 for no hub), plus `raw` random edges. The CSR and mapped backends
/// split a list above 8192 edges, so the hub cases need that many targets;
/// the compressed backend is built with small chunks and splits far sooner.
fn build(n: usize, hub_degree: usize, raw: &[(u32, u32, u32)]) -> Csr<u32> {
    let mut el: EdgeList<u32> = EdgeList::new(n);
    for v in 1..=hub_degree.min(n - 1) as u32 {
        el.push(0, v, v % 97 + 1);
    }
    for &(a, b, w) in raw {
        el.push(a % n as u32, b % n as u32, w);
    }
    el.build(false)
}

/// Small graphs (one block, maybe two), mid-size ones (several blocks, no
/// CSR hub), and star-heavy ones where vertex 0 is split on every backend.
fn arb_case() -> impl Strategy<Value = (Csr<u32>, Vec<u32>)> {
    let shape = prop_oneof![
        (2usize..300, Just(0usize), 0usize..3_000),
        (300usize..2_000, 0usize..1_500, 3_000usize..20_000),
        (8_300usize..9_500, 8_200usize..9_400, 0usize..3_000),
    ];
    shape
        .prop_flat_map(|(n, hub, edges)| {
            (
                Just((n, hub)),
                prop::collection::vec((any::<u32>(), any::<u32>(), 1u32..1_000), edges..edges + 1),
                // Any order, repeats allowed: the driver's contract is
                // positional. The hub is frontier member 3 when present.
                prop::collection::vec(0u32..n as u32, 0..80),
            )
        })
        .prop_map(|((n, hub), raw, mut frontier)| {
            if hub > 0 && frontier.len() > 3 {
                frontier[3] = 0;
            }
            (build(n, hub, &raw), frontier)
        })
}

// Pure functions of the edge, so the reference order is well defined.
fn cond(v: u32) -> bool {
    v % 5 != 2
}
fn payload(u: u32, v: u32, w: u32) -> Option<u64> {
    let h = (u as u64 * 31 + v as u64 * 17 + w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 61 != 0).then_some(h)
}

/// What one backend's sparse traversals return: `run_sparse_data`'s entries,
/// `run_sparse`'s ids, and the list visitor's (frontier position, target,
/// weight) per edge, or (frontier position, [`EMPTY`], 0) per empty list,
/// with the edges scanned, the sum of the units' `len`s and the units whose
/// `for_each` disagreed with their `len`.
type Runs = (Vec<(u32, u64)>, Vec<u32>, Vec<(usize, u32, u32)>, [u64; 3]);

/// The target the list visitor records for a visit of an empty list.
const EMPTY: u32 = u32::MAX;

fn reference(g: &Csr<u32>, frontier: &[u32]) -> Runs {
    let (mut entries, mut edges, mut scanned) = (Vec::new(), Vec::new(), 0);
    for (i, &u) in frontier.iter().enumerate() {
        for (v, w) in g.edges_of(u) {
            if cond(v) {
                entries.extend(payload(u, v, w).map(|t| (v, t)));
            }
            edges.push((i, v, w));
            scanned += 1;
        }
        if g.out_degree(u) == 0 {
            edges.push((i, EMPTY, 0));
        }
    }
    let ids = entries.iter().map(|&(v, _)| v).collect();
    (entries, ids, edges, [scanned, scanned, 0])
}

/// The sparse entry points on one backend, in raw output order.
fn run<G: OutEdges<W = u32>>(g: &G, frontier: &[u32]) -> Runs {
    let em = EdgeMap::new(g);
    let data = em.run_sparse_data(frontier, payload, cond);
    let ids = em.run_sparse(frontier, |u, v, w| payload(u, v, w).is_some(), cond);
    let (lens, bad) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut edges = Vec::new();
    let scanned = em.run_sparse_at(frontier, &mut edges, |i, list, edges| {
        let before = edges.len();
        list.for_each(|v, w| edges.push((i, v, w)));
        let wrong = edges.len() - before != list.len || list.source != frontier[i];
        if list.len == 0 {
            edges.push((i, EMPTY, 0));
        }
        lens.fetch_add(list.len as u64, Ordering::Relaxed);
        bad.fetch_add(u64::from(wrong), Ordering::Relaxed);
    });
    let counts = [scanned, lens.into_inner(), bad.into_inner()];
    (data.entries().to_vec(), ids.to_vertices(), edges, counts)
}

/// The sparse entry points walked as exactly `pieces` pieces, in raw
/// output order.
fn run_in<G: OutEdges<W = u32>>(g: &G, frontier: &[u32], pieces: usize) -> Runs {
    sparse_in_pieces(pieces, || run(g, frontier))
}

fn check<G: OutEdges<W = u32>>(
    what: &str,
    g: &G,
    frontier: &[u32],
    want: &Runs,
) -> Result<(), TestCaseError> {
    let schedules = [
        (None, 1),
        (None, 2),
        (Some(1u64), 2),
        (Some(0xDEAD_BEEF), 4),
    ];
    for (seed, threads) in schedules {
        rayon::set_chaos_seed(seed);
        let got = at(threads, || run(g, frontier));
        let fanned =
            [1, 2, 3, 7].map(|pieces| (pieces, at(threads, || run_in(g, frontier, pieces))));
        rayon::set_chaos_seed(None);
        prop_assert_eq!(&got, want, "{} chaos={:?} threads={}", what, seed, threads);
        for (pieces, got) in fanned {
            prop_assert_eq!(
                &got,
                want,
                "{} pieces={} chaos={:?} threads={}",
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
    fn blocked_driver_matches_sequential_reference((g, frontier) in arb_case()) {
        let want = reference(&g, &frontier);

        check("csr", &g, &frontier, &want)?;
        // Chunk size 0 never splits a list; 3 splits anything above 6 edges.
        check("compressed/unsplit", &CompressedWGraph::from_csr_with_chunk_size(&g, 0), &frontier, &want)?;
        check("compressed/split", &CompressedWGraph::from_csr_with_chunk_size(&g, 3), &frontier, &want)?;

        // Unique per test thread: the harness may run cases side by side.
        let path = std::env::temp_dir().join(format!(
            "julienne-sparse-blocked-{}-{:?}.jgr",
            std::process::id(),
            std::thread::current().id()
        ));
        GraphIo::write(&g, &path, &IoOptions::default()).unwrap();
        let mapped = Csr::<u32>::open(&path);
        std::fs::remove_file(&path).ok();
        check("mapped", &mapped.unwrap(), &frontier, &want)?;
    }
}
