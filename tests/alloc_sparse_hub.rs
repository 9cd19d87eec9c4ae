//! Allocation bound of the sparse `edgeMap`: memory written is proportional
//! to the frontier and the hits, not to the edges scanned. Its own test
//! binary, because it replaces the global allocator to count bytes.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes_of;
use julienne_repro::graph::builder::from_pairs;
use julienne_repro::ligra::edge_map::EdgeMap;
use julienne_repro::ligra::edge_map_reduce::{edge_map_sum_with_scratch, SumScratch};

#[test]
fn rejected_hub_scan_allocates_for_hits_not_for_edges() {
    // A star: vertex 0 points at a million others. One slot per scanned
    // edge would be 24 MB for this traversal.
    const SPOKES: u32 = 1_000_000;
    let pairs: Vec<(u32, u32)> = (1..=SPOKES).map(|v| (0, v)).collect();
    let g = from_pairs(SPOKES as usize + 1, &pairs);
    let em = EdgeMap::new(&g);
    check(|keep| {
        let (out, bytes) = bytes_of(|| em.run_sparse_data(&[0], |_, v, _| Some(v), |v| v <= keep));
        (out.len(), bytes)
    });
    // `edgeMapSum`'s emit writes every scanned target's slot before it knows
    // whether the target is live; that must not become a slot per edge.
    let scratch = SumScratch::new(g.num_vertices());
    check(|keep| {
        let (out, bytes) = bytes_of(|| {
            edge_map_sum_with_scratch(&g, &[0], |_, c| Some(c), |v| v <= keep, &scratch)
        });
        (out.len(), bytes)
    });
}

/// `hits_of(keep)` scans the star keeping targets `1..=keep` and returns
/// (entries out, bytes allocated).
fn check(hits_of: impl Fn(u32) -> (usize, usize)) {
    hits_of(0); // spawns the worker pool outside the measured calls

    // Every target rejected: what is left is per block (an empty buffer
    // and its offset, 1/4096 of the edges), not per edge.
    let (hits, bytes) = hits_of(0);
    assert_eq!(hits, 0);
    assert!(bytes < 64 << 10, "{bytes} bytes for a scan with no hits");

    // A thousand 8-byte hits cost their own size a few times over (buffer
    // growth, then the concatenated copy), still nothing per edge.
    let (hits, more) = hits_of(1_000);
    assert_eq!(hits, 1_000);
    assert!(more < bytes + (64 << 10), "{more} bytes for 1000 hits");
}
