//! Property tests for fused Δ-stepping rounds that fan out: with the sparse
//! driver forced (`sparse_in_pieces`) to 1, 2, 3 and 7 pieces, at 1, 2 and
//! 4 threads, every lane of `sssp_multi` equals a one-lane `sssp` run from
//! its source in `dist`, `rounds` and `relaxations`, on CSR, on the
//! compressed backend with chunks of 3 edges (a hub's run of lanes then
//! spans chunks, and chunks span pieces) and on a mapped `.jgr`. The
//! one-lane loop itself is held to the same answers under forced pieces.
//! Run it under `JULIENNE_CHAOS_SEED` too; the rounds themselves are far
//! too small to fan out on their own. A fused round of more than 2048
//! vertices fans out over its vertices without any forcing; a fixed hub
//! graph whose one annulus holds thousands of vertices pins that walk to
//! the same answers.

mod common;

use common::at;
use julienne_repro::algorithms::delta_stepping::{sssp, sssp_multi, SsspLane, SsspParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::compress::CompressedWGraph;
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::Csr;
use julienne_repro::ligra::edge_map::sparse_in_pieces;
use julienne_repro::ligra::traits::OutEdges;
use proptest::prelude::*;

/// (dist, rounds, relaxations): what a lane must share with its solo run.
type Fingerprint = (Vec<u64>, u64, u64);

/// A directed weighted graph whose vertex 0 is a hub joined both ways to
/// `hub_degree` others, plus `raw` random edges: every spoke reaches the
/// hub, so lanes from different sources meet in its run.
fn build(n: usize, hub_degree: usize, raw: &[(u32, u32, u32)]) -> Csr<u32> {
    let mut el: EdgeList<u32> = EdgeList::new(n);
    for v in 1..=hub_degree.min(n - 1) as u32 {
        el.push(0, v, v % 89 + 1);
        el.push(v, 0, v % 13 + 1);
    }
    for &(a, b, w) in raw {
        el.push(a % n as u32, b % n as u32, w);
    }
    el.build(false)
}

/// A graph, three to six sources (repeats allowed; the hub first and last,
/// so its first round already walks a run of two lanes) and a Δ from
/// wBFS's 1 to one bucket for everything.
fn arb_case() -> impl Strategy<Value = (Csr<u32>, Vec<u32>, u64)> {
    (2usize..200, 0usize..120, 0usize..1_500)
        .prop_flat_map(|(n, hub, edges)| {
            (
                Just((n, hub)),
                prop::collection::vec((any::<u32>(), any::<u32>(), 1u32..1_000), edges..edges + 1),
                prop::collection::vec(0u32..n as u32, 1..5),
                prop_oneof![Just(1u64), Just(16), Just(1024), Just(1 << 40)],
            )
        })
        .prop_map(|((n, hub), raw, mut srcs, delta)| {
            srcs.insert(0, 0);
            srcs.push(0);
            (build(n, hub, &raw), srcs, delta)
        })
}

fn solo<G: OutEdges<W = u32>>(g: &G, src: u32, delta: u64) -> Fingerprint {
    let r = sssp(g, &SsspParams { src, delta }, &QueryCtx::default()).expect("solo run");
    (r.dist, r.rounds, r.relaxations)
}

fn fused<G: OutEdges<W = u32>>(g: &G, srcs: &[u32], delta: u64) -> Vec<Fingerprint> {
    let ctx = QueryCtx::default();
    let lanes: Vec<SsspLane<'_>> = srcs
        .iter()
        .map(|&src| SsspLane { src, ctx: &ctx })
        .collect();
    sssp_multi(g, delta, &lanes)
        .expect("fused run")
        .into_iter()
        .map(|lane| {
            let r = lane.expect("lane result");
            (r.dist, r.rounds, r.relaxations)
        })
        .collect()
}

fn check<G: OutEdges<W = u32> + Sync>(
    what: &str,
    g: &G,
    srcs: &[u32],
    delta: u64,
    want: &[Fingerprint],
) -> Result<(), TestCaseError> {
    for pieces in [1, 2, 3, 7] {
        for threads in [1, 2, 4] {
            let (lanes, one) = at(threads, || {
                sparse_in_pieces(pieces, || (fused(g, srcs, delta), solo(g, srcs[0], delta)))
            });
            for (l, (got, want)) in lanes.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    got,
                    want,
                    "{} lane {} (src {}) pieces={} threads={}",
                    what,
                    l,
                    srcs[l],
                    pieces,
                    threads
                );
            }
            prop_assert_eq!(
                &one,
                &want[0],
                "{} solo pieces={} threads={}",
                what,
                pieces,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fanned_out_fused_lanes_equal_solo_runs((g, srcs, delta) in arb_case()) {
        let want: Vec<Fingerprint> = srcs.iter().map(|&src| at(1, || solo(&g, src, delta))).collect();

        check("csr", &g, &srcs, delta, &want)?;
        check("compressed/3", &CompressedWGraph::from_csr_with_chunk_size(&g, 3), &srcs, delta, &want)?;

        // Unique per test thread: the harness may run cases side by side.
        let path = std::env::temp_dir().join(format!(
            "julienne-fused-pieces-{}-{:?}.jgr",
            std::process::id(),
            std::thread::current().id()
        ));
        GraphIo::write(&g, &path, &IoOptions::default()).unwrap();
        let mapped = Csr::<u32>::open(&path);
        std::fs::remove_file(&path).ok();
        check("mapped", &mapped.unwrap(), &srcs, delta, &want)?;
    }
}

/// A hub joined both ways to 5 000 spokes whose weights all fit one
/// 1024-wide annulus, plus random spoke edges: the round after the hub's
/// holds every spoke, so the fused walk fans out over its vertices, and
/// two hub lanes share each spoke's run.
#[test]
fn fused_rounds_of_thousands_of_vertices_fan_out_and_equal_solo_runs() {
    let n = 6_000usize;
    let raw: Vec<(u32, u32, u32)> = (0..20_000u32)
        .map(|k| {
            let h = k.wrapping_mul(2_654_435_761);
            (h % 5_001, (h >> 7) % n as u32, k % 500 + 1)
        })
        .collect();
    let g = build(n, 5_000, &raw);
    let srcs = [0, 4_321, 0, 5_999];
    for delta in [1_024, 1 << 40] {
        let want: Vec<Fingerprint> = srcs
            .iter()
            .map(|&src| at(1, || solo(&g, src, delta)))
            .collect();
        for threads in [1, 2, 4] {
            for (l, (got, want)) in at(threads, || fused(&g, &srcs, delta))
                .iter()
                .zip(&want)
                .enumerate()
            {
                assert_eq!(got, want, "delta {delta} lane {l} threads={threads}");
            }
        }
        check("csr/hub", &g, &srcs, delta, &want).unwrap();
    }
}
