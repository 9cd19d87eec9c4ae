//! k-truss decomposition by bucketed **edge** peeling — the "identifiers
//! represent other objects such as edges" application the paper envisions
//! in §3.1 (and that GBBS, Julienne's successor, ships).
//!
//! The trussness of an edge is the largest k such that the edge survives in
//! the k-truss (the maximal subgraph where every edge closes ≥ k − 2
//! triangles). Peeling mirrors k-core with edges in place of vertices and
//! triangle support in place of degree: extract the minimum-support bucket,
//! remove those edges, decrement the support of the other two edges of each
//! destroyed triangle (clamped at the current bucket), rebucket.
//!
//! Simultaneous removal needs care: when several edges of one triangle peel
//! in the same round, the triangle must be destroyed exactly once — the
//! minimum-id peeled edge is the designated owner of the decrements.
//!
//! A round is one visit of the sparse edgeMap driver over the
//! [`EdgeIndex`]'s arcs: each peeled edge walks the list of its endpoint of
//! smaller degree, merging it by a cursor against the other endpoint's
//! list, and every support word is `Relaxed` (DESIGN §6).

use crate::triangles::{edge_support, EdgeIndex};
use julienne::bucket::{Bucketing, Order};
use julienne::query::QueryCtx;
use julienne::telemetry::Phase;
use julienne::Error;
use julienne_graph::Csr;
use julienne_ligra::edge_map::{sparse_in_pieces, OutList};
use julienne_ligra::traits::GraphRef;
use julienne_ligra::EdgeMap;
use julienne_primitives::bitset::BitSet;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a truss decomposition.
#[derive(Clone, Debug)]
pub struct KtrussResult {
    /// Trussness of each undirected edge (edge ids from [`EdgeIndex`]);
    /// an edge in no triangle has trussness 2.
    pub trussness: Vec<u32>,
    /// Peeling rounds.
    pub rounds: u64,
    /// The largest trussness.
    pub max_truss: u32,
}

/// Parameters for [`ktruss`]. The edge peel has no tunables beyond the
/// engine configuration; the marker struct keeps the registry signature
/// symmetric with [`KcoreParams`](crate::kcore::KcoreParams).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KtrussParams {}

/// Work-efficient parallel truss decomposition over the bucket structure:
/// the single entry point behind the `truss` registry id. The graph must be
/// symmetric; lists that are not mutual are an [`Error::Input`].
///
/// Bucket window and telemetry scope come from `ctx`'s engine; each peeling
/// round emits a round record. The context is polled once per round: a
/// cancelled or deadline-expired query returns `Err` with no partial
/// output, dropping its buckets on the way out.
pub fn ktruss<G: GraphRef>(
    g: &G,
    _params: &KtrussParams,
    ctx: &QueryCtx,
) -> Result<KtrussResult, Error> {
    assert!(g.is_symmetric());
    let engine = ctx.engine();
    let idx = EdgeIndex::new(g)?;
    let (m, arcs) = (idx.num_edges(), &idx.arcs);
    let support: Vec<AtomicU32> = edge_support(&idx).into_iter().map(AtomicU32::new).collect();
    // ORDERING: Relaxed; the buckets read the support words only between
    // walks, after the driver's join.
    let d = |e: u32| support[e as usize].load(Ordering::Relaxed);
    let mut buckets = engine.buckets(m, d, Order::Increasing);
    let telemetry = engine.telemetry();
    let em = EdgeMap::new(arcs).telemetry(telemetry);
    // The edges peeled in earlier rounds and in this one, written between
    // walks.
    let (mut gone, mut peeling) = (BitSet::new(m), BitSet::new(m));

    let mut finished = 0usize;
    let mut rounds = 0u64;
    // Round buffers, refilled in place every round: the peeled edges, the
    // endpoint each one walks, and the bucket moves.
    let (mut peeled, mut sources, mut moves) = (vec![], vec![], vec![]);
    while finished < m {
        // Round boundary: a cancelled/expired query unwinds here, dropping
        // the bucket structure and support array with it.
        ctx.check()?;
        let mut span = telemetry.span();
        let k = span
            .lap(Phase::NextBucket, buckets.next_bucket_into(&mut peeled))
            .expect("peel exhausted early");
        finished += peeled.len();
        rounds += 1;

        // The peeled edges leave the graph now; each walks the list of its
        // endpoint of smaller degree.
        sources.clear();
        sources.extend(peeled.iter().map(|&e| {
            peeling.set(e as usize);
            let (u, v) = idx.endpoints[e as usize];
            std::cmp::min_by_key(u, v, |&x| arcs.degree(x))
        }));
        span.lap(Phase::Walk, ());

        // Destroy each triangle exactly once and emit bucket moves for the
        // decremented survivor edges.
        let stood = |f: u32| !gone.get(f as usize);
        let peels = |f: u32| peeling.get(f as usize);
        // ORDERING: Relaxed; a decrement needs atomicity only, and the
        // driver's join publishes it to the buckets.
        let decrement = |f: u32| {
            support[f as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s > k).then(|| s - 1)
            })
        };
        let visit = |i: usize, list: OutList<'_, Csr<u32>>, moves: &mut Vec<_>| {
            let e = peeled[i];
            let (u, v) = idx.endpoints[e as usize];
            let other = if list.source == u { v } else { u };
            let (targets, ids) = (arcs.neighbors(other), arcs.weights_of(other));
            // A chunk of a hub's list starts its cursor at its first target.
            let mut cursor = None;
            list.for_each(|x, e1| {
                let j = cursor.get_or_insert_with(|| targets.partition_point(|&y| y < x));
                while *j < targets.len() && targets[*j] < x {
                    *j += 1;
                }
                if *j == targets.len() || targets[*j] != x {
                    return;
                }
                let e2 = ids[*j];
                // The triangle stood at round start, and `e` is its
                // minimum-id peeled edge.
                if !(stood(e1) && stood(e2)) || (peels(e1) && e1 < e) || (peels(e2) && e2 < e) {
                    return;
                }
                for f in [e1, e2].into_iter().filter(|&f| !peels(f)) {
                    if let Ok(s) = decrement(f) {
                        let dest = buckets.get_bucket(f, s, s - 1);
                        moves.extend((!dest.is_null()).then_some((f, dest)));
                    }
                }
            });
        };
        let mut walk = || em.run_sparse_at(&sources, &mut moves, visit);
        // A walked arc costs a merge against the other endpoint's list,
        // unseen by the driver's edge count: cut the round by edges peeled.
        let scanned = match rayon::pool::piece_count(peeled.len()) {
            1 => walk(),
            pieces => sparse_in_pieces(pieces, walk),
        };
        for &e in &peeled {
            peeling.clear(e as usize);
            gone.set(e as usize);
        }
        span.lap(Phase::EdgeMap, ());
        buckets.update_buckets(&moves);
        span.lap(Phase::UpdateBuckets, ());
        let relaxed = moves.len() as u64;
        telemetry.finish_round(span, rounds - 1, k, peeled.len(), scanned, relaxed);
    }

    let trussness: Vec<u32> = support.into_iter().map(|s| s.into_inner() + 2).collect();
    let max_truss = trussness.iter().copied().max().unwrap_or(0);
    Ok(KtrussResult {
        trussness,
        rounds,
        max_truss,
    })
}

/// Sequential oracle: one-edge-at-a-time min-support peel with a lazy
/// bucket queue.
pub fn ktruss_seq<G: GraphRef>(g: &G) -> KtrussResult {
    assert!(g.is_symmetric());
    let idx = EdgeIndex::new(g).expect("ktruss_seq needs mutual lists");
    let m = idx.num_edges();
    if m == 0 {
        return KtrussResult {
            trussness: vec![],
            rounds: 0,
            max_truss: 0,
        };
    }
    let mut support = edge_support(&idx);
    let mut alive = vec![true; m];
    let max_s = support.iter().copied().max().unwrap_or(0) as usize;
    let mut queue: Vec<Vec<u32>> = vec![Vec::new(); max_s + 1];
    for (e, &s) in support.iter().enumerate() {
        queue[s as usize].push(e as u32);
    }
    let mut k = 0usize;
    let mut removed = 0usize;
    while removed < m {
        while k < queue.len() && queue[k].is_empty() {
            k += 1;
        }
        let e = queue[k].pop().unwrap();
        if !alive[e as usize] || support[e as usize] as usize != k {
            continue; // stale entry
        }
        alive[e as usize] = false;
        removed += 1;
        let (u, v) = idx.endpoints[e as usize];
        let (nu, eu) = (idx.arcs.neighbors(u), idx.arcs.weights_of(u));
        let (nv, ev) = (idx.arcs.neighbors(v), idx.arcs.weights_of(v));
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (e1, e2) = (eu[i], ev[j]);
                    i += 1;
                    j += 1;
                    if alive[e1 as usize] && alive[e2 as usize] {
                        for other in [e1, e2] {
                            let s = support[other as usize];
                            if s as usize > k {
                                support[other as usize] = s - 1;
                                queue[(s - 1) as usize].push(other);
                            }
                        }
                    }
                }
            }
        }
    }
    let trussness: Vec<u32> = support.iter().map(|&s| s + 2).collect();
    let max_truss = trussness.iter().copied().max().unwrap_or(2);
    KtrussResult {
        trussness,
        rounds: m as u64,
        max_truss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};

    /// Shorthand: default context, panic on lifecycle errors (impossible
    /// without a token/deadline).
    fn run<G: GraphRef>(g: &G) -> KtrussResult {
        ktruss(g, &KtrussParams::default(), &QueryCtx::default()).unwrap()
    }

    #[test]
    fn k4_is_a_4_truss() {
        let k4 = from_pairs_symmetric(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let r = run(&k4);
        assert_eq!(r.trussness, vec![4; 6]);
        assert_eq!(r.max_truss, 4);
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle {0,1,2} (trussness 3) + pendant edge 2-3 (trussness 2).
        let g = from_pairs_symmetric(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let idx = EdgeIndex::new(&g).unwrap();
        let r = run(&g);
        for (e, &(u, v)) in idx.endpoints.iter().enumerate() {
            let want = if (u, v) == (2, 3) { 2 } else { 3 };
            assert_eq!(r.trussness[e], want, "edge ({u},{v})");
        }
    }

    #[test]
    fn matches_sequential_oracle_random() {
        for seed in 0..3 {
            let g = erdos_renyi(150, 2_000, seed, true);
            let par = run(&g);
            let seq = ktruss_seq(&g);
            assert_eq!(par.trussness, seq.trussness, "seed {seed}");
        }
    }

    #[test]
    fn matches_sequential_oracle_heavy_tailed() {
        let g = rmat(9, 10, RmatParams::default(), 6, true);
        let par = run(&g);
        let seq = ktruss_seq(&g);
        assert_eq!(par.trussness, seq.trussness);
        assert!(par.max_truss >= 3, "expect triangles in a dense R-MAT");
    }

    #[test]
    fn trussness_defines_nested_subgraphs() {
        // Every edge with trussness ≥ t must close ≥ t-2 triangles within
        // the subgraph of edges with trussness ≥ t (the defining property).
        let g = erdos_renyi(120, 1_800, 9, true);
        let idx = EdgeIndex::new(&g).unwrap();
        let r = run(&g);
        let t = r.max_truss;
        if t < 3 {
            return; // no triangles; nothing to check
        }
        let member: Vec<bool> = r.trussness.iter().map(|&x| x >= t).collect();
        for (e, &(u, v)) in idx.endpoints.iter().enumerate() {
            if !member[e] {
                continue;
            }
            let (nu, eu) = (idx.arcs.neighbors(u), idx.arcs.weights_of(u));
            let (nv, ev) = (idx.arcs.neighbors(v), idx.arcs.weights_of(v));
            let mut tri = 0u32;
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if member[eu[i] as usize] && member[ev[j] as usize] {
                            tri += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            assert!(
                tri >= t - 2,
                "edge {e} in the {t}-truss closes only {tri} triangles"
            );
        }
    }

    #[test]
    fn triangle_free_graph_all_trussness_two() {
        use julienne_graph::generators::grid2d;
        let g = grid2d(10, 10);
        let r = run(&g);
        assert!(r.trussness.iter().all(|&t| t == 2));
        assert_eq!(r.max_truss, 2);
    }
}
