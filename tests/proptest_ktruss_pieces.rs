//! Property tests for k-truss rounds that fan out: with the sparse driver
//! forced (`sparse_in_pieces`) to 1, 2, 3 and 7 pieces, at 1, 2 and 4
//! threads, `ktruss` gives the trussness of `julienne-oracle`'s
//! one-edge-at-a-time peel and the rounds of its own one-piece run. The
//! rounds of random graphs are far too small to fan out on their own. A
//! fixed graph with two hubs of over 8,192 arcs each hands the visitor its
//! hub-to-hub edge in chunks of a hub's list once a round fans out; that
//! graph is too big for the oracle's quadratic peel, so its trussness is
//! worked out by hand. Run it under `JULIENNE_CHAOS_SEED` too.

mod common;

use common::at;
use julienne_oracle as oracle;
use julienne_repro::algorithms::ktruss::{ktruss, KtrussParams};
use julienne_repro::algorithms::triangles::EdgeIndex;
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::{from_pairs_symmetric, EdgeList};
use julienne_repro::graph::Graph;
use julienne_repro::ligra::edge_map::sparse_in_pieces;
use proptest::prelude::*;

/// Checks `ktruss` on `g` under every forced piece count and thread count
/// against `want`, and its rounds against the one-piece run's.
fn check(what: &str, g: &Graph, want: &[u32]) -> Result<(), TestCaseError> {
    let run = || ktruss(g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
    let one = sparse_in_pieces(1, run);
    prop_assert_eq!(&one.trussness, want, "{} one piece", what);
    for pieces in [1, 2, 3, 7] {
        for threads in [1, 2, 4] {
            let r = at(threads, || sparse_in_pieces(pieces, run));
            prop_assert_eq!(
                &r.trussness,
                want,
                "{} pieces={} threads={}",
                what,
                pieces,
                threads
            );
            prop_assert_eq!(
                r.rounds,
                one.rounds,
                "{} pieces={} threads={}",
                what,
                pieces,
                threads
            );
        }
    }
    Ok(())
}

/// Hubs 0 and 1, joined, each with about 9,000 leaves of its own (even
/// ids to 0, odd to 1), and a 6-clique of hub 0 with five vertices from
/// the middle of the id range, two of which hub 1 joins too. Leaf edges
/// close no triangle (trussness 2); hub 1's three edges close two each
/// inside the 4-clique {0, 1, 9000, 9001} (trussness 4); the 6-clique's
/// edges have trussness 6. The hub-to-hub edge peels after the leaves,
/// while its two triangles still stand, and walks the list of hub 1, the
/// shorter one, whose clique neighbours sit in its second chunk.
fn two_hubs() -> (Graph, Vec<u32>) {
    const N: u32 = 18_010;
    let clique = [0, 9_000, 9_001, 9_002, 9_003, 9_004];
    let mut el: EdgeList<()> = EdgeList::new(N as usize);
    for (i, &a) in clique.iter().enumerate() {
        for &b in &clique[i + 1..] {
            el.push_undirected(a, b, ());
        }
    }
    for (a, b) in [(0, 1), (1, 9_000), (1, 9_001)] {
        el.push_undirected(a, b, ());
    }
    for leaf in (2..N).filter(|v| !clique.contains(v)) {
        el.push_undirected(leaf % 2, leaf, ());
    }
    let g = el.build_symmetric();
    let want = EdgeIndex::new(&g)
        .unwrap()
        .endpoints
        .iter()
        .map(|(u, v)| match (clique.contains(u), clique.contains(v)) {
            (true, true) => 6,
            _ if [(0, 1), (1, 9_000), (1, 9_001)].contains(&(*u, *v)) => 4,
            _ => 2,
        })
        .collect();
    (g, want)
}

#[test]
fn hub_lists_in_chunks_peel_as_one() {
    let (g, want) = two_hubs();
    assert!(
        g.degree(0) > 8_192 && g.degree(1) > 8_192,
        "both hubs split into chunks"
    );
    check("two hubs", &g, &want).unwrap();
}

/// Random symmetric graphs dense enough for triangles: 4–60 vertices and
/// up to 400 edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        4usize..60,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..400),
    )
        .prop_map(|(n, raw)| {
            let pairs: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            from_pairs_symmetric(n, &pairs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forced_pieces_match_the_oracle(g in arb_graph()) {
        let (_, want) = oracle::kcore::trussness_peel(&g);
        check("random", &g, &want)?;
    }
}
