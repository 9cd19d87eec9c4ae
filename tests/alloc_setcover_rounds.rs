//! Allocator calls of set cover's round loop. A round refills buffers kept
//! across rounds — the extracted sets, the active ones, the bucket moves —
//! and packs each set's list in place, so once the buffers have grown a
//! round allocates nothing: the calls a run makes must not grow with its
//! round count. Its own test binary, because it replaces the global
//! allocator to count calls, and a single `#[test]`, because the count is
//! process-wide.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::calls_of;
use julienne_repro::algorithms::setcover::{cover, SetCoverParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::from_pairs_symmetric;
use julienne_repro::graph::generators::SetCoverInstance;

/// Set `i` of `sets` covers elements `i` and `i + 1`. Every set starts in
/// the top bucket, and each round chooses the smallest undecided set left
/// in it, whose successor drops to the bucket below. So the rounds grow
/// with `sets` while the bucket structure holds two buckets and never
/// redistributes its overflow, and the calls left are the round loop's
/// own. `sets` stays below 2048, so no round is big enough for the bucket
/// structure's or the driver's parallel paths.
fn chain(sets: usize) -> SetCoverInstance {
    const SPAN: usize = 2;
    let num_elements = sets + SPAN - 1;
    let pairs: Vec<(u32, u32)> = (0..sets)
        .flat_map(|s| (s..s + SPAN).map(move |e| (s as u32, (sets + e) as u32)))
        .collect();
    SetCoverInstance {
        graph: from_pairs_symmetric(sets + num_elements, &pairs),
        num_sets: sets,
        num_elements,
    }
}

/// Rounds and allocator calls of one `cover` run at ε = 0.1 on
/// [`chain`]`(sets)`.
fn rounds_and_calls(sets: usize) -> (u64, usize) {
    let inst = chain(sets);
    let ctx = QueryCtx::default();
    let params = SetCoverParams { eps: 0.1 };
    let run = || cover(&inst, &params, &ctx).unwrap();
    run(); // spawns the worker pool outside the measured call
    let (r, calls) = calls_of(run);
    (r.rounds, calls)
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let (small_rounds, small_calls) = rounds_and_calls(200);
    let (large_rounds, large_calls) = rounds_and_calls(2_000);
    let extra_rounds = large_rounds - small_rounds;
    let extra_calls = large_calls.saturating_sub(small_calls);
    assert!(extra_rounds > 800, "{small_rounds} → {large_rounds} rounds");
    // A round that allocated even once would add a call per extra round.
    assert!(
        (extra_calls as f64) < 0.1 * extra_rounds as f64,
        "{extra_calls} more allocator calls ({small_calls} → {large_calls}) \
         for {extra_rounds} more rounds ({small_rounds} → {large_rounds})"
    );
}
