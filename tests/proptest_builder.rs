//! Property tests for the counting-sort CSR build: `EdgeList::build` and
//! `build_symmetric` equal the sort-based build they replaced, kept here as
//! the oracle, on edge lists with self-loops, parallel edges of differing
//! weights, isolated vertices and `n` of 0 and 1; for unit, `u32` and `u64`
//! weights; directed and symmetric; at 1, 2 and 4 threads and under
//! schedule chaos. Lists longer than a sort task's split (and a single list
//! longer than it) are among the cases.

mod common;

use common::at;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::csr::Weight;
use julienne_repro::graph::{Csr, VertexId};
use proptest::prelude::*;
use std::sync::Mutex;

/// Schedule chaos is process-global; one test at a time turns it on.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// The build as it was: mirror the whole list when asked, sort it by
/// `(src, dst, weight)`, keep the first of each `(src, dst)` run, drop
/// self-loops and count the rows.
fn sort_build<W: Weight>(
    n: usize,
    mut edges: Vec<(VertexId, VertexId, W)>,
    mirror: bool,
    symmetric: bool,
) -> Csr<W> {
    if mirror {
        let mirrored: Vec<_> = edges.iter().map(|&(u, v, w)| (v, u, w)).collect();
        edges.extend(mirrored);
    }
    edges.sort_unstable_by_key(|&(u, v, w)| (((u as u64) << 32) | v as u64, w.to_u64()));
    edges.dedup_by_key(|&mut (u, v, _)| (u, v));
    edges.retain(|&(u, v, _)| u != v);
    let mut offsets = vec![0u64; n + 1];
    for &(u, _, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let targets = edges.iter().map(|&(_, v, _)| v).collect();
    let weights = edges.iter().map(|&(_, _, w)| w).collect();
    Csr::from_parts(offsets, targets, weights, symmetric)
}

/// The counting-sort build of the same list.
fn count_build<W: Weight>(
    n: usize,
    edges: &[(VertexId, VertexId, W)],
    mirror: bool,
    symmetric: bool,
) -> Csr<W> {
    let el = EdgeList {
        n,
        edges: edges.to_vec(),
    };
    match (mirror, symmetric) {
        (true, _) => el.build_symmetric(),
        (false, symmetric) => el.build(symmetric),
    }
}

fn same<W: Weight>(what: &str, got: &Csr<W>, want: &Csr<W>) {
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert_eq!(got.targets(), want.targets(), "{what}: targets");
    assert_eq!(got.weights(), want.weights(), "{what}: weights");
    assert_eq!(
        got.is_symmetric(),
        want.is_symmetric(),
        "{what}: symmetric flag"
    );
}

/// Holds the build of `edges` to the oracle in both shapes, at 1, 2 and 4
/// threads and at 4 threads under schedule chaos.
fn check<W: Weight>(n: usize, edges: &[(VertexId, VertexId, W)]) {
    for (mirror, symmetric) in [(false, false), (false, true), (true, true)] {
        let want = sort_build(n, edges.to_vec(), mirror, symmetric);
        if mirror {
            assert!(want.validate().is_ok());
        }
        for threads in [1, 2, 4] {
            let got = at(threads, || count_build(n, edges, mirror, symmetric));
            same(
                &format!("n={n} mirror={mirror} threads={threads}"),
                &got,
                &want,
            );
        }
        let _chaos = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        rayon::set_chaos_seed(Some(1));
        let got = at(4, || count_build(n, edges, mirror, symmetric));
        rayon::set_chaos_seed(None);
        same(&format!("n={n} mirror={mirror} chaos"), &got, &want);
    }
}

/// A vertex count and raw `(u, v, weight)` triples with ids taken modulo
/// `n`: few distinct weights, so parallel edges differ in weight, and ids
/// drawn from a prefix, so the vertices above it are isolated. Vertex 0 is
/// a hub with `hub` more edges, enough in the largest shape for one list to
/// outgrow a sort task's split.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    let shape = prop_oneof![
        (1usize..40, Just(0usize), 0usize..200),
        (40usize..3_000, 0usize..500, 200usize..20_000),
        (3_000usize..6_000, 40_000usize..45_000, 0usize..2_000),
    ];
    shape
        .prop_flat_map(|(n, hub, edges)| {
            (
                Just((n, hub)),
                prop::collection::vec((any::<u32>(), any::<u32>(), 0u64..4), edges..edges + 1),
                any::<u64>(),
            )
        })
        .prop_map(|((n, hub), raw, seed)| {
            let used = (n - n / 4).max(1) as u32;
            let mut edges: Vec<_> = raw
                .into_iter()
                .map(|(u, v, w)| (u % used, v % used, w))
                .collect();
            for i in 0..hub as u64 {
                let v = (julienne_repro::primitives::rng::hash64(seed, i) % n as u64) as u32;
                edges.push((0, v, i % 3));
            }
            (n, edges)
        })
}

/// `raw`'s weights as `W`, spread past `u32::MAX` for `u64`.
fn weighted<W: Weight>(raw: &[(u32, u32, u64)], spread: u64) -> Vec<(u32, u32, W)> {
    raw.iter()
        .map(|&(u, v, w)| (u, v, W::from_u64(w * spread)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn counting_sort_build_equals_the_sort_build((n, raw) in arb_edges()) {
        check::<()>(n, &weighted(&raw, 1));
        check::<u32>(n, &weighted(&raw, 1));
        check::<u64>(n, &weighted(&raw, 1 << 33));
    }
}

#[test]
fn empty_and_single_vertex_lists_build() {
    check::<()>(0, &[]);
    check::<u32>(0, &[]);
    check::<()>(1, &[]);
    check::<u32>(1, &[(0, 0, 7), (0, 0, 3)]);
    check::<u64>(1, &[(0, 0, u64::MAX)]);
    // Parallel edges of differing weights in both directions: the lighter
    // survives, and the mirrored build agrees in both directions.
    check::<u32>(3, &[(0, 1, 9), (1, 0, 5), (0, 1, 7), (2, 2, 1), (1, 2, 4)]);
}
