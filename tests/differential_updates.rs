//! Mutate-vs-rebuild differential suite (the dynamic-graph contract):
//! applying an update batch through the MVCC writer and then querying must
//! be indistinguishable from rebuilding the graph from scratch with the
//! naive oracle ([`julienne_oracle::updates::apply_updates`]) and querying
//! that — for the published snapshot's structure, for every registry
//! algorithm's wire output, and for the incrementally maintained coreness
//! vector, on both the CSR and byte-compressed rebuild backends, at 1 and
//! 4 worker threads.
//!
//! Batches are drawn adversarially: proptest mixes inserts, deletes,
//! duplicates, self-loops, already-present inserts, and absent deletes in
//! one batch, in arbitrary order.

mod common;

use common::{arb_any_graph, at};
use julienne_oracle as oracle;
use julienne_repro::algorithms::dynamic::DynamicStore;
use julienne_repro::algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::from_pairs_symmetric;
use julienne_repro::graph::generators::erdos_renyi;
use julienne_repro::graph::snapshot::EdgeUpdate;
use julienne_repro::graph::Graph;
use julienne_repro::prelude::Backend;
use proptest::prelude::*;
use std::sync::Arc;

/// The unweighted registry algorithms whose wire output must be identical
/// between a mutated dynamic store and a rebuilt immutable one. `kcore` is
/// checked separately (its dynamic fast path renders without peel
/// counters), `sssp` needs weights, `setcover` ignores the graph.
const ALGOS: [&str; 6] = [
    "components",
    "densest",
    "pagerank",
    "triangles",
    "truss",
    "clustering",
];

fn run_algo(algo: &str, store: &GraphStore) -> String {
    Registry::standard()
        .run(algo, store, &ParamMap::default(), &QueryCtx::default())
        .unwrap_or_else(|e| panic!("{algo}: {e}"))
}

/// Maps raw `(u, v, insert)` triples (vertices taken mod `n`) to the
/// framework and oracle update types, preserving batch order.
fn to_updates(
    n: usize,
    raw: &[(u32, u32, bool)],
) -> (Vec<EdgeUpdate>, Vec<oracle::updates::Update>) {
    let n = n as u32;
    raw.iter()
        .map(|&(a, b, ins)| {
            let (u, v) = (a % n, b % n);
            if ins {
                (
                    EdgeUpdate::insert(u, v),
                    oracle::updates::Update::insert(u, v),
                )
            } else {
                (
                    EdgeUpdate::delete(u, v),
                    oracle::updates::Update::delete(u, v),
                )
            }
        })
        .unzip()
}

/// The whole contract for one (graph, batch) pair: structural equality of
/// the published snapshot, byte-identical registry outputs on both rebuild
/// backends, and the coreness vector against the peeling oracle.
fn check_mutate_equals_rebuild(g: &Graph, ups: &[EdgeUpdate], oups: &[oracle::updates::Update]) {
    let store = Arc::new(DynamicStore::from_graph(g.clone()));
    store.apply_batch(ups).unwrap();
    let snap = store.snapshot();
    let rebuilt = oracle::updates::apply_updates(g, oups);

    // Structure first: the published snapshot IS the rebuilt graph.
    assert_eq!(snap.epoch(), 1);
    assert_eq!(snap.csr().num_vertices(), rebuilt.num_vertices());
    assert_eq!(snap.csr().num_edges(), rebuilt.num_edges());
    for v in 0..rebuilt.num_vertices() as u32 {
        assert_eq!(snap.csr().neighbors(v), rebuilt.neighbors(v), "vertex {v}");
    }

    // Query level: mutate-then-query ≡ rebuild-then-query, on both rebuild
    // backends.
    let dynamic = GraphStore::dynamic(Arc::clone(&store)).pin();
    let csr = GraphStore::from_graph(rebuilt.clone(), Backend::Csr);
    let compressed = GraphStore::from_graph(rebuilt.clone(), Backend::Compressed);
    for algo in ALGOS {
        let got = run_algo(algo, &dynamic);
        assert_eq!(got, run_algo(algo, &csr), "{algo}: vs rebuilt csr");
        assert_eq!(
            got,
            run_algo(algo, &compressed),
            "{algo}: vs rebuilt compressed"
        );
    }

    // kcore: the dynamic render must match a fresh dynamic store built
    // from the rebuilt graph (same fast path), and the vector itself must
    // match the peeling oracle.
    let rebuilt_dynamic =
        GraphStore::dynamic(Arc::new(DynamicStore::from_graph(rebuilt.clone()))).pin();
    assert_eq!(
        run_algo("kcore", &dynamic),
        run_algo("kcore", &rebuilt_dynamic),
        "kcore render"
    );
    assert_eq!(
        *store.coreness_for(&snap, &QueryCtx::default()).unwrap(),
        oracle::kcore::coreness_peel(&rebuilt),
        "coreness vector"
    );

    // Weighted algorithms cannot run on the unweighted dynamic store, and
    // must say so rather than answer nonsense.
    let err = Registry::standard()
        .run("sssp", &dynamic, &ParamMap::default(), &QueryCtx::default())
        .unwrap_err();
    assert!(err.to_string().contains("weighted"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mutate_then_query_equals_rebuild_then_query(
        g in arb_any_graph(),
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..120),
    ) {
        let (ups, oups) = to_updates(g.num_vertices(), &raw);
        at(1, || check_mutate_equals_rebuild(&g, &ups, &oups));
        at(4, || check_mutate_equals_rebuild(&g, &ups, &oups));
    }
}

#[test]
fn curated_update_mixes_match_the_oracle() {
    // Two triangles sharing vertex 2 plus a pendant: every interesting mix
    // in one batch — duplicate insert, insert+delete of the same edge
    // (delete wins: it comes later), a self-loop, an already-present
    // insert, and an absent delete.
    let g = from_pairs_symmetric(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)]);
    let raw: Vec<(u32, u32, bool)> = vec![
        (5, 6, true),  // genuinely new edge
        (5, 6, true),  // duplicate of it
        (0, 1, false), // real deletion
        (0, 1, true),  // ...resurrected: last op wins
        (3, 4, false),
        (3, 3, true),  // self-loop: dropped
        (2, 0, true),  // already present
        (1, 6, false), // absent: no-op
        (2, 4, true),  // present, spelled the other way round
        (2, 4, false), // net effect: deleted
    ];
    let (ups, oups) = to_updates(7, &raw);
    at(1, || check_mutate_equals_rebuild(&g, &ups, &oups));
    at(4, || check_mutate_equals_rebuild(&g, &ups, &oups));
}

#[test]
fn empty_and_noop_batches_change_nothing_observable() {
    let g = from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    // Self-loops and absent deletes only: the rebuilt graph is the input.
    let raw = vec![(1, 1, true), (0, 2, false)];
    let (ups, oups) = to_updates(4, &raw);
    at(4, || check_mutate_equals_rebuild(&g, &ups, &oups));
    at(4, || check_mutate_equals_rebuild(&g, &[], &[]));
}

/// Drives a *sequence* of small batches through one store so the
/// incremental k-core maintenance path (not the full re-peel) is what the
/// oracle is compared against at every epoch.
#[test]
fn incremental_kcore_tracks_the_oracle_across_batches() {
    let g = erdos_renyi(300, 1_200, 77, true);
    let store = DynamicStore::from_graph(g.clone());
    // Seed the maintained state so later batches repair incrementally.
    store
        .coreness_for(&store.snapshot(), &QueryCtx::default())
        .unwrap();

    let mut x: u64 = 0x5EED;
    let mut lcg = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    let mut cumulative: Vec<oracle::updates::Update> = Vec::new();
    for round in 0..6 {
        let raw: Vec<(u32, u32, bool)> = (0..12)
            .map(|_| (lcg() % 300, lcg() % 300, lcg() % 3 != 0))
            .collect();
        let (ups, oups) = to_updates(300, &raw);
        store.apply_batch(&ups).unwrap();
        cumulative.extend(oups);

        let snap = store.snapshot();
        assert_eq!(snap.epoch(), round + 1);
        assert!(
            store.has_kcore_state_for(snap.epoch()),
            "round {round}: small batch should have been repaired in place"
        );
        let got = store.coreness_for(&snap, &QueryCtx::default()).unwrap();
        let want = oracle::updates::coreness_after_updates(&g, &cumulative);
        assert_eq!(*got, want, "round {round}");
    }
}
