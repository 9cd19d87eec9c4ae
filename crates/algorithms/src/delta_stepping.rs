//! Δ-stepping and wBFS (Section 4.2, Algorithm 2).
//!
//! Buckets partition vertices by distance annulus `[i·Δ, (i+1)·Δ)`. Each
//! round extracts the closest unfinished annulus and relaxes its out-edges;
//! the visit protocol (`Dists`: the round's visited bit lives in the
//! distance word, as in GBBS) guarantees exactly one relaxer per target per
//! round captures the round-start distance, which `Reset` uses to compute
//! the bucket move via `getBucket`.
//!
//! * [`sssp`] — the plain Algorithm 2, parameterized by [`SsspParams`] and
//!   a [`QueryCtx`] (deadline + cancellation polled at round boundaries).
//! * [`wbfs`] — Δ = 1 with integral weights: O(r_src + m) expected work and
//!   O(r_src log n) depth w.h.p. (Theorem 4.2).
//! * [`delta_stepping_light_heavy`] — the Meyer–Sanders light/heavy edge
//!   split the paper implemented but found unhelpful on its inputs (kept
//!   for the A2 ablation).

use crate::bellman_ford::SsspResult;
use crate::INF;
use julienne::bucket::{BucketId, Bucketing, Order, NULL_BKT};
use julienne::query::QueryCtx;
use julienne::telemetry::Phase;
use julienne::Error;
use julienne_graph::builder::EdgeList;
use julienne_graph::csr::Csr;
use julienne_graph::VertexId;
use julienne_ligra::traits::OutEdges;
use julienne_ligra::EdgeMap;
use julienne_primitives::filter::map_into;
use std::sync::atomic::{AtomicU64, Ordering};

/// Δ-stepping SSSP result with bucket-structure counters.
#[derive(Clone, Debug)]
pub struct DeltaResult {
    /// Shortest distance from the source (INF if unreachable).
    pub dist: Vec<u64>,
    /// Buckets extracted (the paper's round count).
    pub rounds: u64,
    /// Edge relaxations attempted.
    pub relaxations: u64,
    /// Identifiers physically moved inside the bucket structure.
    pub identifiers_moved: u64,
}

impl From<DeltaResult> for SsspResult {
    fn from(d: DeltaResult) -> SsspResult {
        SsspResult {
            dist: d.dist,
            rounds: d.rounds,
            relaxations: d.relaxations,
        }
    }
}

/// Largest usable bucket id: `NULL_BKT` is reserved as the "no bucket"
/// sentinel, so distances whose annulus index would reach it are clamped to
/// the id just below. Clamping is *correct*, not just safe: all clamped
/// vertices share the final bucket, and re-relaxations within a bucket
/// reinsert into the current bucket (`get_bucket` handles
/// `next == current`), so processing that bucket converges to the exact
/// distances Bellman-Ford-style — it merely loses priority ordering among
/// those extreme vertices.
const MAX_ANNULUS: u64 = NULL_BKT as u64 - 1;

#[inline]
fn annulus(dist: u64, delta: u64) -> BucketId {
    (dist / delta).min(MAX_ANNULUS) as BucketId
}

/// Bit 63 of a distance word: the id was lowered in the current round.
const VISITED: u64 = 1 << 63;
/// Bits 0–62 of a distance word; all set means unreached.
const DIST: u64 = !VISITED;

/// Most vertices whose distances provably fit [`DIST`]: a shortest path has
/// at most n − 1 edges, each of weight below 2^32, so for n ≤ 2^31 every
/// distance is below 2^63 − 1. A longer tentative distance merely fails
/// `relax`'s comparison; it can never reach the visited bit.
const MAX_VERTICES: usize = 1 << 31;

/// Rejects a zero Δ, and graphs whose distances might not fit the 63
/// distance bits.
pub(crate) fn check_input(n: usize, delta: u64) -> Result<(), Error> {
    if delta == 0 {
        return Err(Error::usage("delta must be >= 1"));
    }
    if n > MAX_VERTICES {
        return Err(Error::input(format!(
            "n = {n} exceeds the 2^31 vertices whose distances fit 63 bits"
        )));
    }
    Ok(())
}

/// The visit protocol in one word per id (GBBS): bits 0–62 hold the
/// tentative distance and bit 63 is the round's visited bit. The CAS that
/// lowers a word first in a round is the one that finds the bit clear, so
/// it alone learns the round-start distance and reports the id to Reset,
/// which clears the bit with a plain store.
///
/// Happens-before, once for every access below: a round's phases — the
/// frontier walk, edgeMap, Reset, the bucket calls — are each one parallel
/// call, and the runtime's join at its end (`run_pieces`) orders all of its
/// writes before the next phase's reads. Within edgeMap the words are only
/// read and CAS'd, and the CAS's atomicity, not its ordering, elects the
/// visitor. So every access is `Relaxed`.
pub(crate) struct Dists {
    words: Vec<AtomicU64>,
    delta: u64,
}

impl Dists {
    /// `len` unreached ids, bucketed by annuli of width `delta`.
    pub(crate) fn new(len: usize, delta: u64) -> Self {
        Dists {
            words: (0..len).map(|_| AtomicU64::new(DIST)).collect(),
            delta,
        }
    }

    /// Makes `id` a source (distance 0) before the traversal starts.
    pub(crate) fn start(&mut self, id: usize) {
        *self.words[id].get_mut() = 0;
    }

    /// The distance of `id` ([`DIST`] while unreached), visited bit masked.
    #[inline]
    pub(crate) fn dist(&self, id: usize) -> u64 {
        // ORDERING: Relaxed; a previous phase's writes are published by its
        // join, and light/heavy's live read may see any tentative value.
        self.words[id].load(Ordering::Relaxed) & DIST
    }

    /// Lowers `id` to `nd` if that improves it, setting the visited bit.
    /// Returns the round-start distance to the one lowering this round that
    /// found the bit clear, `None` to every other call.
    #[inline]
    pub(crate) fn relax(&self, id: usize, nd: u64) -> Option<u64> {
        let word = &self.words[id];
        // ORDERING: Relaxed; a stale value only costs the CAS a retry.
        let mut cur = word.load(Ordering::Relaxed);
        while nd < cur & DIST {
            // ORDERING: Relaxed; atomicity alone elects the visitor.
            match word.compare_exchange_weak(
                cur,
                nd | VISITED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (cur & VISITED == 0).then_some(cur),
                Err(now) => cur = now,
            }
        }
        None
    }

    /// Reset: clears `id`'s visited bit and returns its annulus move, from
    /// that of `round_start` (what [`relax`](Self::relax) reported) to that
    /// of its new distance — `getBucket`'s `(prev, next)`.
    #[inline]
    pub(crate) fn settle(&self, id: usize, round_start: u64) -> (BucketId, BucketId) {
        let d = self.dist(id);
        // ORDERING: Relaxed; Reset touches each id once, after edgeMap's join.
        self.words[id].store(d, Ordering::Relaxed);
        (self.bucket_of(round_start), self.bucket_of(d))
    }

    /// D: the annulus of `id`, `NULL_BKT` while unreached.
    pub(crate) fn bucket(&self, id: usize) -> BucketId {
        self.bucket_of(self.dist(id))
    }

    /// The annulus of distance `d`, `NULL_BKT` for [`DIST`].
    #[inline]
    fn bucket_of(&self, d: u64) -> BucketId {
        if d == DIST {
            NULL_BKT
        } else {
            annulus(d, self.delta)
        }
    }

    /// The final distances, [`INF`] for unreached ids.
    pub(crate) fn into_dists(self) -> Vec<u64> {
        self.words
            .into_iter()
            .map(|w| match w.into_inner() & DIST {
                DIST => INF,
                d => d,
            })
            .collect()
    }
}

/// Parameters for [`sssp`]: Δ-stepping from `src` with bucket width
/// `delta`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsspParams {
    /// Source vertex.
    pub src: VertexId,
    /// Bucket (annulus) width Δ; `1` makes this wBFS. Must be ≥ 1.
    pub delta: u64,
}

impl Default for SsspParams {
    fn default() -> Self {
        SsspParams {
            src: 0,
            delta: 32_768,
        }
    }
}

/// Δ-stepping SSSP (Algorithm 2): the single entry point behind the
/// `sssp` registry id.
///
/// Generic over the out-edge backend, so it runs unmodified on plain CSR
/// and on Ligra+-style byte-compressed weighted graphs. Bucket window and
/// telemetry scope come from `ctx`'s engine; each annulus round emits a
/// round record. The context is polled once per round: a cancelled or
/// deadline-expired query returns `Err` with no partial output, dropping
/// its buckets on the way out.
pub fn sssp<G: OutEdges<W = u32>>(
    g: &G,
    params: &SsspParams,
    ctx: &QueryCtx,
) -> Result<DeltaResult, Error> {
    let n = g.num_vertices();
    check_input(n, params.delta)?;
    let engine = ctx.engine();
    let mut sp = Dists::new(n, params.delta);
    sp.start(params.src as usize);
    let mut buckets = engine.buckets(n, |v| sp.bucket(v as usize), Order::Increasing);
    let telemetry = engine.telemetry();
    let em = engine.edge_map(g);

    let mut rounds = 0u64;
    let mut relaxations = 0u64;
    // Round buffers, refilled in place every round: the frontier, its
    // round-start distances, edgeMap's hits and Reset's bucket moves.
    let (mut ids, mut starts, mut hits, mut moves) = (vec![], vec![], vec![], vec![]);
    loop {
        // Round boundary: a cancelled/expired query unwinds here, dropping
        // the bucket structure and distance array with it.
        ctx.check()?;
        let mut span = telemetry.span();
        let Some(bkt) = span.lap(Phase::NextBucket, buckets.next_bucket_into(&mut ids)) else {
            break;
        };
        rounds += 1;
        // Round-start distances, by frontier position. Relaxing from these
        // (instead of the live values) makes each round's outcome a pure
        // function of the frontier *set*: an intra-annulus edge that
        // improves a frontier member mid-round no longer changes what that
        // member propagates this round (the improvement reinserts it and
        // propagates next round instead). That order-independence is what
        // lets the fused multi-source kernel reproduce solo results
        // bit-for-bit, and what makes the round count invariant across
        // thread counts.
        map_into(&ids, &mut starts, |&v| sp.dist(v as usize));
        span.lap(Phase::Walk, ());

        // Update (Algorithm 2, lines 4–10): the CAS that first lowers a
        // target this round captures its round-start distance.
        let round_edges = em.run_sparse_at(&ids, &mut hits, |i, v, w| {
            sp.relax(v as usize, starts[i] + w as u64)
        });
        relaxations += span.lap(Phase::EdgeMap, round_edges);

        // Reset (lines 11–13): clear the visited bit and compute the bucket
        // move from the round-start annulus to the new one.
        map_into(&hits, &mut moves, |&(v, round_start)| {
            let (prev, next) = sp.settle(v as usize, round_start);
            (v, buckets.get_bucket(v, prev, next))
        });
        span.lap(Phase::Reset, ());
        buckets.update_buckets(&moves);
        span.lap(Phase::UpdateBuckets, ());
        let relaxed = moves.len() as u64;
        telemetry.finish_round(span, rounds - 1, bkt, ids.len(), round_edges, relaxed);
    }

    Ok(DeltaResult {
        // Last use of `buckets`, whose D closure borrows `sp`.
        identifiers_moved: buckets.stats().identifiers_moved,
        dist: sp.into_dists(),
        rounds,
        relaxations,
    })
}

/// Weighted BFS: Δ-stepping with Δ = 1 (Theorem 4.2).
pub fn wbfs<G: OutEdges<W = u32>>(g: &G, src: VertexId) -> DeltaResult {
    sssp(g, &SsspParams { src, delta: 1 }, &QueryCtx::default()).expect("uncancellable query")
}

/// Δ-stepping with the Meyer–Sanders light/heavy edge split: light edges
/// (w ≤ Δ) are relaxed repeatedly inside the current annulus, heavy edges
/// once per settled vertex when the annulus completes.
pub fn delta_stepping_light_heavy<G: OutEdges<W = u32>>(
    g: &G,
    src: VertexId,
    delta: u64,
) -> DeltaResult {
    let n = g.num_vertices();
    check_input(n, delta).expect("delta >= 1 and a graph whose distances fit 63 bits");

    // Split into light/heavy subgraphs once (the paper: "two graphs, one
    // containing just the light edges and the other just the heavy edges").
    // The split subgraphs are materialised as plain CSR regardless of the
    // input backend.
    let mut light: EdgeList<u32> = EdgeList::new(n);
    let mut heavy: EdgeList<u32> = EdgeList::new(n);
    for u in 0..n as VertexId {
        g.for_each_out(u, |v, w| {
            if w as u64 <= delta {
                light.push(u, v, w);
            } else {
                heavy.push(u, v, w);
            }
        });
    }
    let light = light.build(false);
    let heavy = heavy.build(false);

    let mut sp = Dists::new(n, delta);
    sp.start(src as usize);
    let mut buckets =
        julienne::bucket::BucketsBuilder::new(n, |v| sp.bucket(v as usize), Order::Increasing)
            .build();

    let mut rounds = 0u64;
    let mut relaxations = 0u64;

    // One relaxation pass over `graph` from `ids`, returning bucket moves.
    // Relaxes from the live distance (masked: the source may itself have
    // been lowered this pass), not a round-start one.
    let relax = |graph: &Csr<u32>,
                 ids: &[VertexId],
                 buckets: &julienne::bucket::Buckets<_>,
                 relaxations: &mut u64|
     -> Vec<(u32, julienne::bucket::BucketDest)> {
        let mut moved = Vec::new();
        *relaxations += EdgeMap::new(graph).run_sparse_at(ids, &mut moved, |i, v, w| {
            sp.relax(v as usize, sp.dist(ids[i] as usize) + w as u64)
        });
        let mut dests = Vec::new();
        map_into(&moved, &mut dests, |&(v, round_start)| {
            let (prev, next) = sp.settle(v as usize, round_start);
            (v, buckets.get_bucket(v, prev, next))
        });
        dests
    };

    while let Some((_bkt, first)) = buckets.next_bucket() {
        rounds += 1;
        let mut settled: Vec<VertexId> = Vec::new();
        let mut cur = first;
        // Light phase: drain the current annulus to a fixed point.
        loop {
            settled.extend_from_slice(&cur);
            let moves = relax(&light, &cur, &buckets, &mut relaxations);
            buckets.update_buckets(&moves);
            match buckets.try_next_in_current() {
                Some(more) => cur = more,
                None => break,
            }
        }
        // Heavy phase: each settled vertex relaxes its heavy edges once.
        let moves = relax(&heavy, &settled, &buckets, &mut relaxations);
        buckets.update_buckets(&moves);
    }

    let identifiers_moved = buckets.stats().identifiers_moved;
    drop(buckets); // releases the D closure's borrow of `sp`
    DeltaResult {
        dist: sp.into_dists(),
        rounds,
        relaxations,
        identifiers_moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use julienne::engine::Engine;
    use julienne_graph::generators::{erdos_renyi, grid2d, rmat, RmatParams};
    use julienne_graph::transform::{assign_weights, wbfs_weight_range};
    use rayon::prelude::*;

    fn weighted_er(seed: u64, lo: u32, hi: u32) -> Csr<u32> {
        assign_weights(&erdos_renyi(400, 3200, seed, true), lo, hi, seed + 100)
    }

    /// Shorthand for the common case: default context, panic on lifecycle
    /// errors (none are possible without a token/deadline).
    fn run<G: OutEdges<W = u32>>(g: &G, src: VertexId, delta: u64) -> DeltaResult {
        sssp(g, &SsspParams { src, delta }, &QueryCtx::default()).unwrap()
    }

    #[test]
    fn wbfs_matches_dijkstra_small_weights() {
        for seed in 0..3 {
            let (lo, hi) = wbfs_weight_range(400);
            let g = weighted_er(seed, lo, hi);
            let r = wbfs(&g, 0);
            assert_eq!(r.dist, dijkstra(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn delta_stepping_matches_dijkstra_large_weights() {
        for seed in 0..3 {
            let g = weighted_er(seed, 1, 100_000);
            for delta in [1u64, 1000, 32768, 1 << 40] {
                let r = run(&g, 0, delta);
                assert_eq!(r.dist, dijkstra(&g, 0), "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn huge_delta_equals_bellman_ford_semantics() {
        // Δ = ∞ → one bucket → Bellman–Ford behaviour, still correct.
        let g = weighted_er(9, 1, 1000);
        let r = run(&g, 5, u64::MAX / 4);
        assert_eq!(r.dist, dijkstra(&g, 5));
    }

    #[test]
    fn light_heavy_matches_plain() {
        for seed in 0..2 {
            let g = weighted_er(seed + 20, 1, 10_000);
            let plain = run(&g, 0, 512);
            let lh = delta_stepping_light_heavy(&g, 0, 512);
            assert_eq!(plain.dist, lh.dist, "seed {seed}");
        }
    }

    #[test]
    fn grid_high_diameter_correct() {
        let g = assign_weights(&grid2d(30, 30), 1, 20, 4);
        let r = run(&g, 0, 8);
        assert_eq!(r.dist, dijkstra(&g, 0));
        assert!(r.rounds > 10, "grid should need many annuli");
    }

    #[test]
    fn directed_rmat_correct() {
        let g = assign_weights(&rmat(10, 8, RmatParams::default(), 7, false), 1, 50, 8);
        let r = run(&g, 0, 64);
        assert_eq!(r.dist, dijkstra(&g, 0));
    }

    #[test]
    fn wbfs_work_bound_holds() {
        // Theorem 4.2: each edge causes at most one insertion; moves ≤ m.
        let (lo, hi) = wbfs_weight_range(1 << 10);
        let g = assign_weights(&rmat(10, 8, RmatParams::default(), 2, true), lo, hi, 3);
        let r = wbfs(&g, 0);
        assert!(
            r.identifiers_moved <= g.num_edges() as u64,
            "moved {} > m {}",
            r.identifiers_moved,
            g.num_edges()
        );
    }

    #[test]
    fn annulus_overflow_clamps_to_last_bucket() {
        // With Δ = 1 and max-weight (u32::MAX) edges, path lengths blow past
        // the 32-bit bucket-id space after two hops. The annulus index used
        // to truncate silently in release builds (and trip a debug_assert in
        // debug builds); it must instead clamp to the last valid bucket and
        // still produce exact distances.
        use julienne_graph::builder::EdgeList;
        let n = 6;
        let mut el: EdgeList<u32> = EdgeList::new(n);
        for u in 0..(n as u32 - 1) {
            el.push(u, u + 1, u32::MAX);
        }
        // A shortcut with a light edge: forces mixed annuli, including ids
        // both below and at the clamp.
        el.push(0, 2, 3);
        let g = el.build(false);
        let oracle = dijkstra(&g, 0);
        assert!(
            *oracle.iter().filter(|&&d| d != INF).max().unwrap() > NULL_BKT as u64,
            "test graph must actually overflow the bucket-id space"
        );
        for delta in [1u64, 2] {
            let r = run(&g, 0, delta);
            assert_eq!(r.dist, oracle, "delta {delta}");
            let lh = delta_stepping_light_heavy(&g, 0, delta);
            assert_eq!(lh.dist, oracle, "light/heavy delta {delta}");
        }
    }

    #[test]
    fn annulus_function_clamps_not_wraps() {
        assert_eq!(annulus(u64::MAX, 1), MAX_ANNULUS as BucketId);
        assert_eq!(annulus(NULL_BKT as u64, 1), MAX_ANNULUS as BucketId);
        assert_eq!(annulus(NULL_BKT as u64 - 1, 1), NULL_BKT - 1);
        assert_eq!(annulus(10, 3), 3);
    }

    #[test]
    fn racing_relaxers_elect_one_visitor_with_the_round_start() {
        const CALLERS: u64 = 1 << 16; // 32 runtime pieces: a real race
        let prev = rayon::chaos_seed();
        for threads in [2, 4] {
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                let d = Dists::new(1, 8);
                assert_eq!(d.relax(0, 1 << 20), Some(DIST));
                assert_eq!(d.settle(0, DIST), (NULL_BKT, 1 << 17));
                // Every caller improves on the round start; the least offer
                // is 1000.
                rayon::set_chaos_seed(Some(seed));
                let won: Vec<u64> = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| {
                        (0..CALLERS)
                            .into_par_iter()
                            .filter_map(|k| d.relax(0, 1000 + (k * 7919) % CALLERS))
                            .collect()
                    });
                rayon::set_chaos_seed(prev);
                assert_eq!(won, vec![1 << 20], "threads {threads} seed {seed}");
                assert_eq!(d.settle(0, 1 << 20), (1 << 17, 125), "seed {seed}");
                assert_eq!(d.dist(0), 1000, "threads {threads} seed {seed}");
            }
        }
    }

    #[test]
    fn settle_clears_the_visited_bit() {
        let mut d = Dists::new(3, 4);
        d.start(2);
        assert_eq!(d.relax(2, 0), None, "an equal distance is no visit");
        assert_eq!(d.relax(1, 9), Some(DIST));
        assert_eq!(d.relax(1, 10), None, "a longer one neither");
        assert_eq!(*d.words[1].get_mut(), 9 | VISITED);
        assert_eq!(d.bucket(1), 2, "D masks the visited bit");
        assert_eq!(d.settle(1, DIST), (NULL_BKT, 2));
        assert_eq!(*d.words[1].get_mut(), 9);
        assert_eq!(d.relax(1, 7), Some(9), "the next round elects again");
        assert_eq!(d.settle(1, 9), (2, 1));
        assert_eq!(d.dist(1), 7);
        assert_eq!(d.bucket(0), NULL_BKT);
        assert_eq!(d.into_dists(), vec![INF, 7, 0]);
    }

    #[test]
    fn distances_fit_63_bits_up_to_2_pow_31_vertices() {
        // The longest shortest path on the largest accepted graph.
        let worst = (MAX_VERTICES as u64 - 1) * u32::MAX as u64;
        assert!(worst < DIST);
        assert!(check_input(MAX_VERTICES, 1).is_ok());
        assert!(matches!(
            check_input(MAX_VERTICES + 1, 1),
            Err(Error::Input(_))
        ));
        assert!(check_input(1, 0).unwrap_err().is_usage());
    }

    #[test]
    fn unreachable_inf_and_source_zero() {
        use julienne_graph::builder::EdgeList;
        let mut el: EdgeList<u32> = EdgeList::new(5);
        el.push(0, 1, 7);
        el.push(1, 2, 7);
        let g = el.build(false);
        let r = run(&g, 0, 4);
        assert_eq!(r.dist, vec![0, 7, 14, INF, INF]);
    }

    #[test]
    fn wbfs_on_compressed_weighted_graph() {
        use julienne_graph::compress::CompressedWGraph;
        let (lo, hi) = wbfs_weight_range(1 << 11);
        let g = assign_weights(&rmat(11, 8, RmatParams::default(), 13, true), lo, hi, 14);
        let cg = CompressedWGraph::from_csr(&g);
        let plain = wbfs(&g, 0);
        let compressed = wbfs(&cg, 0);
        assert_eq!(plain.dist, compressed.dist);
        assert_eq!(plain.dist, dijkstra(&g, 0));
    }

    #[test]
    fn small_open_buckets_still_correct() {
        let g = weighted_er(31, 1, 100_000);
        let engine = Engine::builder().open_buckets(2).build();
        let r = sssp(
            &g,
            &SsspParams {
                src: 0,
                delta: 1024,
            },
            &QueryCtx::from_engine(&engine),
        )
        .unwrap();
        assert_eq!(r.dist, dijkstra(&g, 0));
    }
}
