//! Allocator calls of k-truss's round loop. A round refills buffers kept
//! across rounds — the peeled edges, the endpoint each one walks, the
//! bucket moves — so once the buffers have grown a round allocates
//! nothing: the calls a run makes must not grow with the edges it peels.
//! Its own test binary, because it replaces the global allocator to count
//! calls, and a single `#[test]`, because the count is process-wide.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::calls_of;
use julienne_repro::algorithms::ktruss::{ktruss, KtrussParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::from_pairs_symmetric;
use julienne_repro::graph::Graph;

/// A path of `len` vertices with two apexes joined to every one of them
/// (vertices 0 and 1, not joined to each other). A path edge closes two
/// triangles, an apex edge one per path neighbour, so every support is 1
/// or 2 and the two bucket ids never leave the open window. Peeling starts
/// at the path's ends, and each round's peel drops the next path edge and
/// its two apex edges to the floor: about `len / 2` rounds of six edges,
/// each far below a 2048-id block, so no round is big enough for the
/// bucket structure's or the driver's parallel paths.
fn double_cone(len: u32) -> Graph {
    let path = 2..2 + len;
    let pairs: Vec<(u32, u32)> = path
        .clone()
        .flat_map(|v| [(0, v), (1, v)])
        .chain(path.skip(1).map(|v| (v - 1, v)))
        .collect();
    from_pairs_symmetric(2 + len as usize, &pairs)
}

/// Rounds, edges and allocator calls of one `ktruss` run on
/// [`double_cone`]`(len)`.
fn rounds_edges_and_calls(len: u32) -> (u64, usize, usize) {
    let g = double_cone(len);
    let ctx = QueryCtx::default();
    let run = || ktruss(&g, &KtrussParams::default(), &ctx).unwrap();
    run(); // spawns the worker pool outside the measured call
    let (r, calls) = calls_of(run);
    (r.rounds, r.trussness.len(), calls)
}

#[test]
fn peeled_edges_allocate_nothing() {
    let (small_rounds, small_edges, small_calls) = rounds_edges_and_calls(200);
    let (large_rounds, large_edges, large_calls) = rounds_edges_and_calls(2_000);
    let extra_rounds = large_rounds - small_rounds;
    let extra_edges = large_edges - small_edges;
    let extra_calls = large_calls.saturating_sub(small_calls);
    assert!(extra_rounds > 800, "{small_rounds} → {large_rounds} rounds");
    // A round that allocated even once would add a call per extra round,
    // and a peeled edge that did, one per extra edge.
    assert!(
        (extra_calls as f64) < 0.1 * extra_rounds as f64,
        "{extra_calls} more allocator calls ({small_calls} → {large_calls}) for \
         {extra_rounds} more rounds ({small_rounds} → {large_rounds}) and \
         {extra_edges} more edges ({small_edges} → {large_edges})"
    );
}
