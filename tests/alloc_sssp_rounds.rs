//! Allocator calls of Δ-stepping's round loop. A round refills buffers kept
//! across rounds — the frontier, its round-start distances, a fused round's
//! vertices and lane runs, edgeMap's hits, Reset's bucket moves — and bucket
//! slots keep their capacity, so once the buffers have grown a round
//! allocates nothing, solo or fused: the calls a run makes must not grow
//! with its round count. Its own test binary, because it replaces the
//! global allocator to count calls, and a single `#[test]`, because the
//! count is process-wide.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::calls_of;
use julienne_repro::algorithms::delta_stepping::{sssp, sssp_multi, SsspLane, SsspParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::grid2d;
use julienne_repro::graph::transform::assign_weights;

/// Rounds and allocator calls of one `sssp` run from a corner of a
/// `side × side` grid with weights in [1, 100 000) and Δ = 32 768: the
/// benchmark's road-like regime of many small rounds.
fn rounds_and_calls(side: usize) -> (u64, usize) {
    let g = assign_weights(&grid2d(side, side), 1, 100_000, 7);
    let ctx = QueryCtx::default();
    let params = SsspParams {
        src: 0,
        delta: 32_768,
    };
    let run = || sssp(&g, &params, &ctx).unwrap();
    run(); // spawns the worker pool outside the measured call
    let (r, calls) = calls_of(run);
    (r.rounds, calls)
}

/// The same for a fused run of two lanes, from opposite corners of the
/// grid; its rounds are those of the first lane, which meets the other
/// mid-grid.
fn fused_rounds_and_calls(side: usize) -> (u64, usize) {
    let g = assign_weights(&grid2d(side, side), 1, 100_000, 7);
    let ctx = QueryCtx::default();
    let far = (side * side - 1) as u32;
    let lanes = [
        SsspLane { src: 0, ctx: &ctx },
        SsspLane {
            src: far,
            ctx: &ctx,
        },
    ];
    let run = || sssp_multi(&g, 32_768, &lanes).unwrap();
    run();
    let (r, calls) = calls_of(run);
    (r[0].as_ref().unwrap().rounds, calls)
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    assert_rounds_allocate_nothing("solo", rounds_and_calls);
    assert_rounds_allocate_nothing("two lanes", fused_rounds_and_calls);
}

fn assert_rounds_allocate_nothing(what: &str, rounds_and_calls: fn(usize) -> (u64, usize)) {
    let (small_rounds, small_calls) = rounds_and_calls(64);
    let (large_rounds, large_calls) = rounds_and_calls(256);
    let extra_rounds = large_rounds - small_rounds;
    let extra_calls = large_calls.saturating_sub(small_calls);
    assert!(
        extra_rounds > 1_000,
        "{what}: {small_rounds} → {large_rounds} rounds"
    );
    // A round that allocated even once would add a call per extra round.
    assert!(
        (extra_calls as f64) < 0.1 * extra_rounds as f64,
        "{what}: {extra_calls} more allocator calls ({small_calls} → {large_calls}) \
         for {extra_rounds} more rounds ({small_rounds} → {large_rounds})"
    );
}
