//! Allocation bounds of the mutable graph: epoch 0 is the loaded CSR itself,
//! and a batch writes one new CSR, merged from the published one. Its own
//! test binary, because it replaces the global allocator to count bytes,
//! and a single `#[test]`, because the count is process-wide.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes_of;
use julienne_repro::graph::generators::{rmat, RmatParams};
use julienne_repro::graph::snapshot::{DynamicGraph, EdgeUpdate};

/// 64 mixed updates over random pairs (mirrored to 128 on this symmetric
/// graph).
fn batch(n: u32) -> Vec<EdgeUpdate> {
    let mut x: u64 = 0xD1CE;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    (0..64)
        .map(|i| {
            let (u, v) = (next() % n, next() % n);
            if i % 4 == 0 {
                EdgeUpdate::delete(u, v)
            } else {
                EdgeUpdate::insert(u, v)
            }
        })
        .collect()
}

#[test]
fn the_mutable_graph_holds_one_csr_and_a_batch_writes_one_more() {
    let g = rmat(16, 8, RmatParams::default(), 11, true);
    let (n, m) = (g.num_vertices(), g.num_edges());
    assert!(n >= 1 << 16);
    let csr_bytes = 8 * (n + 1) + 4 * m;
    let ups = batch(n as u32);

    // One batch outside the measured windows, so the worker pool and any
    // lazily built state are in place before counting.
    DynamicGraph::from_csr(g.clone()).apply_batch(&ups).unwrap();

    let (dg, bytes) = bytes_of(|| DynamicGraph::from_csr(g));
    // The snapshot's `Arc` and the locks: epoch 0 is `g` itself.
    assert!(bytes < 4 << 10, "from_csr allocated {bytes} bytes");

    let (applied, bytes) = bytes_of(|| dg.apply_batch(&ups).unwrap());
    assert_eq!(applied.epoch, 1);
    assert!(applied.applied() > 0);
    // The next CSR plus the batch's own buffers.
    let bound = csr_bytes + csr_bytes / 4 + (64 << 10);
    assert!(
        bytes < bound,
        "a 64-update batch allocated {bytes} bytes = {:.2} × the CSR ({csr_bytes} bytes)",
        bytes as f64 / csr_bytes as f64
    );
}
