//! k-core / coreness (Section 4.1).
//!
//! * [`coreness`] — Algorithm 1: the first work-efficient parallel
//!   coreness algorithm with non-trivial parallelism. O(m + n) expected
//!   work, O(ρ log n) depth w.h.p., where ρ is the peeling complexity.
//!   Parameterized by [`KcoreParams`] and a [`QueryCtx`] (deadline +
//!   cancellation polled at round boundaries).
//! * [`coreness_ligra`] — the work-inefficient Ligra-style peeling that
//!   scans **all remaining vertices** every core value:
//!   O(k_max·n + m) work (the Table 3 / Figure 2 comparator).
//! * [`coreness_bz_seq`] — the sequential Batagelj–Zaversnik bucket-sort
//!   algorithm (the "well-tuned sequential baseline").
//!
//! All three return identical coreness values; the tests check them against
//! each other and against hand-computed graphs.

use julienne::bucket::{Bucketing, Order};
use julienne::query::QueryCtx;
use julienne::telemetry::{Counter, Phase};
use julienne::Error;
use julienne_graph::VertexId;
use julienne_ligra::edge_map_reduce::{edge_map_peel, peel_degrees, SumScratch};
use julienne_ligra::traits::OutEdges;
use julienne_primitives::filter::pack_index;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a coreness computation, with the work counters used by the
/// Table 1 / EXPERIMENTS.md work-efficiency checks.
#[derive(Clone, Debug)]
pub struct KcoreResult {
    /// λ(v) for every vertex.
    pub coreness: Vec<u32>,
    /// Number of `nextBucket` rounds (= the measured peeling complexity ρ
    /// for the Julienne implementation).
    pub rounds: u64,
    /// Total vertices scanned across rounds (extracted, for Julienne; all
    /// remaining vertices per scan, for the work-inefficient variant).
    pub vertices_scanned: u64,
    /// Total edges traversed.
    pub edges_traversed: u64,
    /// Identifiers physically moved by the bucket structure (0 for
    /// non-bucketed variants).
    pub identifiers_moved: u64,
}

/// Parameters for [`coreness`]. k-core has no tunables beyond the engine
/// configuration, so this is an empty marker struct kept for signature
/// symmetry with the other registry entry points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KcoreParams {}

/// Work-efficient coreness (Algorithm 1) over any out-edge backend — plain
/// CSR or byte-compressed: the single entry point behind the `kcore`
/// registry id. The graph must be symmetric.
///
/// Bucket window and telemetry scope come from `ctx`'s engine; each peeling
/// round emits a round record. The context is polled once per round: a
/// cancelled or deadline-expired query returns `Err` with no partial
/// output, dropping its buckets on the way out.
pub fn coreness<G: OutEdges>(
    g: &G,
    _params: &KcoreParams,
    ctx: &QueryCtx,
) -> Result<KcoreResult, Error> {
    let engine = ctx.engine();
    let n = g.num_vertices();
    // D holds the induced degree of live vertices and, once extracted, the
    // final coreness. It doubles as the bucket map.
    let degrees = peel_degrees(g)?;
    // ORDERING: Relaxed, by `edge_map_peel`'s protocol: the buckets read D
    // only inside `next_bucket`, after the last peel has cleared its bits.
    let d = |i: u32| degrees[i as usize].load(Ordering::Relaxed);
    let mut buckets = engine.buckets(n, d, Order::Increasing);
    let telemetry = engine.telemetry();
    let mut scratch = SumScratch::new(n);

    let mut finished = 0usize;
    let mut rounds = 0u64;
    let mut vertices_scanned = 0u64;
    let mut edges_traversed = 0u64;
    // Round buffers, refilled in place every round: the frontier and the
    // bucket moves.
    let (mut ids, mut moves) = (vec![], vec![]);

    while finished < n {
        // Round boundary: a cancelled/expired query unwinds here, dropping
        // the bucket structure and degree arrays with it.
        ctx.check()?;
        let mut span = telemetry.span();
        let k = span
            .lap(Phase::NextBucket, buckets.next_bucket_into(&mut ids))
            .expect("bucket structure exhausted before all vertices finished");
        finished += ids.len();
        rounds += 1;
        vertices_scanned += ids.len() as u64;

        // Update (Algorithm 1, lines 3–10): each live neighbor of the peeled
        // set loses its removed edges, clamped at k, and moves bucket.
        let round_edges = edge_map_peel(
            g,
            &ids,
            &degrees,
            k,
            &mut scratch,
            &mut moves,
            |v, prev, new| Some(buckets.get_bucket(v, prev, new)).filter(|dest| !dest.is_null()),
        );
        edges_traversed += round_edges;
        span.lap(Phase::EdgeMap, ());
        let relaxed = moves.len() as u64;
        buckets.update_buckets(&moves);
        span.lap(Phase::UpdateBuckets, ());
        telemetry.add(Counter::VerticesScanned, ids.len() as u64);
        telemetry.add(Counter::EdgesScanned, round_edges);
        telemetry.add(Counter::EdgesRelaxed, relaxed);
        telemetry.finish_round(span, rounds - 1, k, ids.len(), round_edges, relaxed);
    }

    let identifiers_moved = buckets.stats().identifiers_moved;
    Ok(KcoreResult {
        coreness: degrees.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
        vertices_scanned,
        edges_traversed,
        identifiers_moved,
    })
}

/// Work-inefficient Ligra-style coreness: for each core value k, repeatedly
/// scans **all remaining vertices** for those with induced degree ≤ k.
/// O(k_max·n + m) work — the comparator the paper beats by 2.6–9.2×.
pub fn coreness_ligra<G: OutEdges>(g: &G) -> KcoreResult {
    let n = g.num_vertices();
    let degrees: Vec<AtomicU32> = (0..n)
        .map(|v| AtomicU32::new(g.out_degree(v as VertexId) as u32))
        .collect();
    let alive: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(1)).collect();
    let coreness: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();

    let mut finished = 0usize;
    let mut k = 0u32;
    let mut rounds = 0u64;
    let mut vertices_scanned = 0u64;
    let mut edges_traversed = 0u64;

    while finished < n {
        // Scan all remaining vertices — the work-inefficiency.
        vertices_scanned += (n - finished) as u64;
        rounds += 1;
        // ORDERING: Relaxed throughout: each phase below is a `par_iter`
        // (or this pack), whose join publishes its writes to the next.
        let peel: Vec<VertexId> = pack_index(n, |v| {
            alive[v].load(Ordering::Relaxed) == 1 && degrees[v].load(Ordering::Relaxed) <= k
        });
        if peel.is_empty() {
            k += 1;
            continue;
        }
        finished += peel.len();
        peel.par_iter().for_each(|&v| {
            // ORDERING: Relaxed; the join before the decrement phase
            // publishes these.
            alive[v as usize].store(0, Ordering::Relaxed);
            coreness[v as usize].store(k, Ordering::Relaxed);
        });
        edges_traversed += peel
            .par_iter()
            .map(|&v| g.out_degree(v) as u64)
            .sum::<u64>();
        peel.par_iter().for_each(|&v| {
            g.for_each_out(v, |u, _| {
                // ORDERING: Relaxed; `alive` was last written a phase ago,
                // and `fetch_sub` needs atomicity only, not order.
                if alive[u as usize].load(Ordering::Relaxed) == 1 {
                    degrees[u as usize].fetch_sub(1, Ordering::Relaxed);
                }
            });
        });
    }

    KcoreResult {
        coreness: coreness.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
        vertices_scanned,
        edges_traversed,
        identifiers_moved: 0,
    }
}

/// Sequential Batagelj–Zaversnik coreness: bucket sort by degree, repeatedly
/// delete the minimum-degree vertex, moving each affected neighbor down one
/// bucket per removed edge. O(m + n) work, fully sequential.
pub fn coreness_bz_seq<G: OutEdges>(g: &G) -> KcoreResult {
    let n = g.num_vertices();
    let mut deg: Vec<u32> = (0..n).map(|v| g.out_degree(v as VertexId) as u32).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;

    // bin[d] = start index of degree-d vertices in `vert`.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for i in 1..bin.len() {
        bin[i] += bin[i - 1];
    }
    let mut start = bin.clone(); // running start of each degree class
    let mut vert = vec![0 as VertexId; n];
    let mut pos = vec![0usize; n];
    for v in 0..n {
        let d = deg[v] as usize;
        pos[v] = start[d];
        vert[pos[v]] = v as VertexId;
        start[d] += 1;
    }

    let mut edges_traversed = 0u64;
    let mut nbrs = Vec::new();
    for i in 0..n {
        let v = vert[i] as usize;
        edges_traversed += g.out_degree(v as VertexId) as u64;
        nbrs.clear();
        g.for_each_out(v as VertexId, |u, _| nbrs.push(u));
        for &u in &nbrs {
            let u = u as usize;
            if deg[u] > deg[v] {
                // Swap u to the front of its degree class and shrink it.
                let du = deg[u] as usize;
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw] as usize;
                if u != w {
                    pos[u] = pw;
                    pos[w] = pu;
                    vert[pu] = w as VertexId;
                    vert[pw] = u as VertexId;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }

    KcoreResult {
        coreness: deg,
        rounds: n as u64,
        vertices_scanned: n as u64,
        edges_traversed,
        identifiers_moved: 0,
    }
}

/// Extracts the vertices of the k-core (coreness ≥ k) from a coreness
/// vector — the paper's footnote 1: the k-core is the induced subgraph over
/// these vertices.
pub fn kcore_vertices(coreness: &[u32], k: u32) -> Vec<VertexId> {
    pack_index(coreness.len(), |v| coreness[v] >= k)
}

/// Incremental coreness maintenance after an edge-update batch, localized
/// the way the dynamic-graph literature does it (the Sarıyüce et al.
/// *traversal* insight plus h-index descent, Montresor et al.):
///
/// * **Insertions**, applied one at a time: inserting `(u, v)` with
///   `r = min(c(u), c(v))` can raise coreness only for vertices of the
///   *subcore* — vertices with coreness exactly `r` reachable from the
///   `r`-valued endpoint(s) through coreness-`r` vertices — and by at
///   most one. So only the subcore is bumped to `min(deg, c+1)`; h-index
///   descent (`c(v) ← min(c(v), H({c(u) : u ∈ N(v)}))`, the greatest
///   fixpoint of which is coreness from any sound pointwise upper bound)
///   runs over that set and whatever it cascades to. Everything outside
///   stays a fixpoint untouched.
/// * **Deletions**, applied together afterwards: deleting edges only
///   lowers coreness, so the old values stay a sound upper bound and the
///   descent is seeded from the deleted edges' endpoints alone.
///
/// `g` is the **post-batch** graph; `old` the pre-batch coreness vector
/// (`old.len()` must equal `g.num_vertices()`); `inserts` / `deletes` the
/// distinct undirected edges the batch actually inserted / deleted (the
/// pre-batch adjacency is reconstructed from `g` by undoing them). Wholly
/// sequential — the per-insert work is a localized traversal, so there is
/// nothing worth forking over — and therefore deterministic at any thread
/// count. The context is polled once per descent round.
pub fn coreness_incremental<G: OutEdges>(
    g: &G,
    old: &[u32],
    inserts: &[(VertexId, VertexId)],
    deletes: &[(VertexId, VertexId)],
    ctx: &QueryCtx,
) -> Result<Vec<u32>, Error> {
    let n = g.num_vertices();
    if old.len() != n {
        return Err(Error::input(format!(
            "stale coreness state: {} entries for {} vertices",
            old.len(),
            n
        )));
    }
    // Mutable adjacency, rewound to the pre-batch graph: strip what the
    // batch inserted, restore what it deleted.
    let mut adj: Vec<Vec<VertexId>> = (0..n)
        .map(|v| {
            let mut a = Vec::with_capacity(g.out_degree(v as VertexId));
            g.for_each_out(v as VertexId, |u, _| a.push(u));
            a
        })
        .collect();
    let unlink = |adj: &mut Vec<Vec<VertexId>>, a: VertexId, b: VertexId| {
        if let Some(p) = adj[a as usize].iter().position(|&x| x == b) {
            adj[a as usize].swap_remove(p);
        }
    };
    for &(u, v) in inserts {
        unlink(&mut adj, u, v);
        unlink(&mut adj, v, u);
    }
    for &(u, v) in deletes {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }

    let mut cur = old.to_vec();
    let mut mark = vec![0u32; n]; // subcore-BFS visited stamps
    let mut stamp = 0u32;

    // Phase 1: insertions, one localized repair each.
    for &(u, v) in inserts {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        let r = cur[u as usize].min(cur[v as usize]);
        // Subcore BFS through coreness-r vertices from the r-valued
        // endpoint(s), over the adjacency *with* the new edge.
        stamp += 1;
        let mut subcore: Vec<VertexId> = Vec::new();
        for root in [u, v] {
            if cur[root as usize] == r && mark[root as usize] != stamp {
                mark[root as usize] = stamp;
                subcore.push(root);
            }
        }
        let mut head = 0;
        while head < subcore.len() {
            let w = subcore[head];
            head += 1;
            for &x in &adj[w as usize] {
                if cur[x as usize] == r && mark[x as usize] != stamp {
                    mark[x as usize] = stamp;
                    subcore.push(x);
                }
            }
        }
        for &w in &subcore {
            cur[w as usize] = (cur[w as usize] + 1).min(adj[w as usize].len() as u32);
        }
        subcore.sort_unstable();
        descend(&adj, &mut cur, subcore, ctx)?;
    }

    // Phase 2: deletions, all at once, seeded from their endpoints.
    if !deletes.is_empty() {
        for &(u, v) in deletes {
            unlink(&mut adj, u, v);
            unlink(&mut adj, v, u);
        }
        let mut seeds: Vec<VertexId> = deletes.iter().flat_map(|&(u, v)| [u, v]).collect();
        seeds.sort_unstable();
        seeds.dedup();
        descend(&adj, &mut cur, seeds, ctx)?;
    }
    Ok(cur)
}

/// Synchronous (Jacobi) h-index descent over `adj` from the sound upper
/// bound in `cur`, touching only `active` and whatever it cascades to:
/// each round re-evaluates the active set against the previous array, and
/// changed vertices activate their neighbors. Values only decrease, so the
/// loop terminates; the limit is the greatest h-index fixpoint below the
/// starting bound — coreness, when the bound is sound.
fn descend(
    adj: &[Vec<VertexId>],
    cur: &mut [u32],
    mut active: Vec<VertexId>,
    ctx: &QueryCtx,
) -> Result<(), Error> {
    while !active.is_empty() {
        ctx.check()?;
        let mut changes: Vec<(VertexId, u32)> = Vec::new();
        for &v in &active {
            let cap = cur[v as usize];
            if cap == 0 {
                continue;
            }
            // Histogram of neighbor values clamped to cap, then walk down
            // to the largest h with ≥ h neighbors valued ≥ h.
            let mut counts = vec![0u32; cap as usize + 1];
            for &u in &adj[v as usize] {
                counts[cur[u as usize].min(cap) as usize] += 1;
            }
            let mut at_least = 0u32;
            let mut h = cap;
            loop {
                at_least += counts[h as usize];
                if at_least >= h || h == 0 {
                    break;
                }
                h -= 1;
            }
            if h < cap {
                changes.push((v, h));
            }
        }
        if changes.is_empty() {
            break;
        }
        for &(v, h) in &changes {
            cur[v as usize] = h;
        }
        let mut next: Vec<VertexId> = Vec::new();
        for &(v, _) in &changes {
            next.extend_from_slice(&adj[v as usize]);
        }
        next.sort_unstable();
        next.dedup();
        active = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne::engine::Engine;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::csr::Csr;
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};

    /// Shorthand: default context, panic on lifecycle errors (impossible
    /// without a token/deadline).
    fn run<G: OutEdges>(g: &G) -> KcoreResult {
        coreness(g, &KcoreParams::default(), &QueryCtx::default()).unwrap()
    }

    /// A graph with known coreness: a 4-clique with a pendant path.
    /// clique {0,1,2,3} → coreness 3; path 3-4-5 → coreness 1.
    fn clique_with_tail() -> Csr<()> {
        from_pairs_symmetric(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn known_coreness_julienne() {
        let g = clique_with_tail();
        let r = run(&g);
        assert_eq!(r.coreness, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn known_coreness_ligra() {
        let g = clique_with_tail();
        let r = coreness_ligra(&g);
        assert_eq!(r.coreness, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn known_coreness_bz() {
        let g = clique_with_tail();
        let r = coreness_bz_seq(&g);
        assert_eq!(r.coreness, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn all_three_agree_on_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi(400, 3200, seed, true);
            let a = run(&g);
            let b = coreness_ligra(&g);
            let c = coreness_bz_seq(&g);
            assert_eq!(a.coreness, c.coreness, "julienne vs BZ, seed {seed}");
            assert_eq!(b.coreness, c.coreness, "ligra vs BZ, seed {seed}");
        }
    }

    #[test]
    fn incremental_handles_nonlocal_insert_damage() {
        // Closing a 5-path into a cycle raises *every* vertex's coreness
        // from 1 to 2, including vertices far from the inserted edge — the
        // case a "bump the endpoints" scheme gets wrong.
        let path = from_pairs_symmetric(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let old = run(&path).coreness;
        assert_eq!(old, vec![1; 5]);
        let cycle = from_pairs_symmetric(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inc = coreness_incremental(&cycle, &old, &[(4, 0)], &[], &QueryCtx::default()).unwrap();
        assert_eq!(inc, run(&cycle).coreness);
        assert_eq!(inc, vec![2; 5]);
    }

    #[test]
    fn incremental_deletions_recompute_from_seeds_only() {
        let g = clique_with_tail();
        let old = run(&g).coreness;
        // Delete the 2-3 clique edge: coreness of the clique drops to 2.
        let after =
            from_pairs_symmetric(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (4, 5)]);
        let inc = coreness_incremental(&after, &old, &[], &[(2, 3)], &QueryCtx::default()).unwrap();
        assert_eq!(inc, run(&after).coreness);
        assert_eq!(inc, vec![2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn incremental_matches_full_on_random_batches() {
        use std::collections::BTreeSet;
        for seed in 0..3u64 {
            let before = erdos_renyi(200, 1200, seed, true);
            let old = run(&before).coreness;
            // Edge set of `before` as canonical (u < v) pairs, then a mixed
            // batch of real insertions and deletions drawn from an LCG:
            // present pairs get deleted, absent ones inserted.
            let mut edges: BTreeSet<(u32, u32)> = (0..200u32)
                .flat_map(|u| before.neighbors(u).iter().map(move |&v| (u, v)))
                .filter(|&(u, v)| u < v)
                .collect();
            let mut x = seed.wrapping_add(0xA11CE);
            let mut lcg = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u32
            };
            let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
            while inserts.len() + deletes.len() < 24 {
                let (a, b) = (lcg() % 200, lcg() % 200);
                let (u, v) = (a.min(b), a.max(b));
                if u == v {
                    continue;
                }
                if edges.remove(&(u, v)) {
                    deletes.push((u, v));
                } else {
                    edges.insert((u, v));
                    inserts.push((u, v));
                }
            }
            let pairs: Vec<(u32, u32)> = edges.into_iter().collect();
            let after = from_pairs_symmetric(200, &pairs);
            let inc = coreness_incremental(&after, &old, &inserts, &deletes, &QueryCtx::default())
                .unwrap();
            assert_eq!(inc, run(&after).coreness, "seed {seed}");
        }
    }

    #[test]
    fn incremental_handles_mixed_batches() {
        // Delete a clique edge *and* close the tail into a triangle with
        // the clique, in one batch: coreness becomes 2 everywhere.
        let g = clique_with_tail();
        let old = run(&g).coreness;
        let after = from_pairs_symmetric(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (3, 4),
                (4, 5),
                (5, 3),
            ],
        );
        let inc =
            coreness_incremental(&after, &old, &[(5, 3)], &[(2, 3)], &QueryCtx::default()).unwrap();
        assert_eq!(inc, run(&after).coreness);
        assert_eq!(inc, vec![2; 6]);
    }

    #[test]
    fn incremental_rejects_stale_state() {
        let g = clique_with_tail();
        assert!(coreness_incremental(&g, &[1, 2], &[], &[], &QueryCtx::default()).is_err());
    }

    #[test]
    fn agree_on_heavy_tailed_graph() {
        let g = rmat(10, 8, RmatParams::default(), 3, true);
        let a = run(&g);
        let c = coreness_bz_seq(&g);
        assert_eq!(a.coreness, c.coreness);
    }

    #[test]
    fn julienne_work_efficiency_counters() {
        // Julienne scans each vertex exactly once; the Ligra variant scans
        // the remaining set every round.
        let g = rmat(10, 8, RmatParams::default(), 5, true);
        let a = run(&g);
        let b = coreness_ligra(&g);
        assert_eq!(a.vertices_scanned, g.num_vertices() as u64);
        assert!(
            b.vertices_scanned > 4 * a.vertices_scanned,
            "inefficient {} vs efficient {}",
            b.vertices_scanned,
            a.vertices_scanned
        );
        // Bucket moves are bounded by 2m (each removed edge causes at most
        // one move request).
        assert!(a.identifiers_moved <= 2 * g.num_edges() as u64);
    }

    #[test]
    fn compressed_graph_gives_same_coreness() {
        use julienne_graph::compress::CompressedGraph;
        let g = erdos_renyi(300, 2400, 9, true);
        let c = CompressedGraph::from_csr(&g);
        let a = run(&g);
        let b = run(&c);
        assert_eq!(a.coreness, b.coreness);
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = from_pairs_symmetric(5, &[(0, 1)]);
        let r = run(&g);
        assert_eq!(r.coreness, vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn cycle_has_coreness_two() {
        let pairs: Vec<(u32, u32)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        let g = from_pairs_symmetric(10, &pairs);
        let r = run(&g);
        assert!(r.coreness.iter().all(|&c| c == 2));
    }

    #[test]
    fn kcore_vertices_extraction() {
        let g = clique_with_tail();
        let r = run(&g);
        assert_eq!(kcore_vertices(&r.coreness, 3), vec![0, 1, 2, 3]);
        assert_eq!(kcore_vertices(&r.coreness, 4), Vec::<u32>::new());
        assert_eq!(kcore_vertices(&r.coreness, 1).len(), 6);
    }

    #[test]
    fn small_open_bucket_count_still_correct() {
        let g = rmat(9, 8, RmatParams::default(), 11, true);
        let a = coreness(
            &g,
            &KcoreParams::default(),
            &QueryCtx::from_engine(&Engine::builder().open_buckets(2).build()),
        )
        .unwrap();
        let c = coreness_bz_seq(&g);
        assert_eq!(a.coreness, c.coreness);
    }
}
