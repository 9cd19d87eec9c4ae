//! Allocation bounds of Δ-stepping's visit protocol: one distance word per
//! identifier, the visited bit inside it, and round-start distances carried
//! by the frontier — no flag bitset and no n-word snapshot array. Its own
//! test binary, because it replaces the global allocator to count bytes,
//! and a single `#[test]`, because the count is process-wide.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes_of;
use julienne_repro::algorithms::delta_stepping::{sssp, sssp_multi, SsspLane, SsspParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::WGraph;

/// 2^20 vertices, the sources on a 10-vertex path and every other vertex
/// isolated: per-round buffers are a few bytes, so what is left is the
/// per-identifier state.
const N: usize = 1 << 20;

#[test]
fn sssp_allocates_one_word_per_identifier() {
    let mut el: EdgeList<u32> = EdgeList::new(N);
    for u in 0..9 {
        el.push(u, u + 1, 3);
    }
    let g: WGraph = el.build(false);
    solo_allocates_under_nine_bytes_per_vertex(&g);
    two_lanes_allocate_under_thirty_three_bytes_per_vertex(&g);
}

fn solo_allocates_under_nine_bytes_per_vertex(g: &WGraph) {
    let ctx = QueryCtx::default();
    let run = || sssp(g, &SsspParams { src: 0, delta: 4 }, &ctx).unwrap();
    run(); // spawns the worker pool outside the measured call
    let (r, bytes) = bytes_of(run);
    assert_eq!(r.dist[9], 27);
    // The distance words (8 n), handed back in place as `dist`. The
    // snapshot array and the flag bitset were another 8.1 n.
    assert!(
        bytes < 9 * N,
        "{bytes} bytes = {:.2} n",
        bytes as f64 / N as f64
    );
}

fn two_lanes_allocate_under_thirty_three_bytes_per_vertex(g: &WGraph) {
    let ctx = QueryCtx::default();
    let lanes = [
        SsspLane { src: 0, ctx: &ctx },
        SsspLane { src: 5, ctx: &ctx },
    ];
    let run = || sssp_multi(g, 4, &lanes).unwrap();
    run();
    let (r, bytes) = bytes_of(run);
    assert_eq!(r[1].as_ref().unwrap().dist[9], 12);
    // The 2 n distance words (16 n) and each lane's own `dist` (8 n each).
    // The 2 n-word snapshot and its flags were another 16.25 n.
    assert!(
        bytes < 33 * N,
        "{bytes} bytes = {:.2} n",
        bytes as f64 / N as f64
    );
}
