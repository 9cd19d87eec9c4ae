//! Δ-stepping and wBFS (Section 4.2, Algorithm 2).
//!
//! Buckets partition vertices by distance annulus `[i·Δ, (i+1)·Δ)`. Each
//! round extracts the closest unfinished annulus and relaxes its out-edges;
//! the visit protocol (`Dists`, GBBS's visited bit in the distance word)
//! lets exactly one relaxer per target per round capture the round-start
//! distance, from which `Reset` computes the bucket move (`getBucket`).
//!
//! * [`sssp_multi`] — the round loop, from many sources at once, each in
//!   its own **frontier lane** (how the serve path batches `sssp`);
//!   [`sssp`] is that loop with one lane.
//! * [`wbfs`] — Δ = 1 with integral weights: O(r_src + m) expected work and
//!   O(r_src log n) depth w.h.p. (Theorem 4.2).
//! * [`delta_stepping_light_heavy`] — the Meyer–Sanders light/heavy split
//!   the paper found unhelpful on its inputs (kept for the A2 ablation).
//!
//! Lane `l` of `L` owns the identifiers `v·L + l`; one bucket structure over
//! all `L·n` orders every lane's annuli. Lanes never interact and each round
//! relaxes from round-start distances, so a lane's `dist`, `rounds` and
//! `relaxations` are **bit-identical** to a one-lane run from its source
//! (pinned by the scheduler-equivalence proptests). A lane whose
//! [`QueryCtx`] trips **detaches**; its siblings run on untouched.

use crate::INF;
use julienne::bucket::{BucketId, Bucketing, Order, NULL_BKT};
use julienne::query::QueryCtx;
use julienne::telemetry::Phase;
use julienne::Error;
use julienne_graph::builder::EdgeList;
use julienne_graph::csr::Csr;
use julienne_graph::VertexId;
use julienne_ligra::edge_map::sparse_in_pieces;
use julienne_ligra::traits::OutEdges;
use julienne_ligra::EdgeMap;
use julienne_primitives::filter::map_into;
use rayon::prelude::*;
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
    /// Identifiers physically moved inside the bucket structure (shared
    /// by every lane of a fused batch, so exact only for one lane).
    pub identifiers_moved: u64,
}

/// Largest usable bucket id (`NULL_BKT` means "no bucket"): later annuli
/// are clamped to it. That is *correct*: re-relaxations in the current
/// bucket reinsert into it (`get_bucket` handles `next == current`), so the
/// shared last bucket converges Bellman-Ford-style, only without priority.
const MAX_ANNULUS: u64 = NULL_BKT as u64 - 1;

#[inline]
fn annulus(dist: u64, delta: u64) -> BucketId {
    (dist / delta).min(MAX_ANNULUS) as BucketId
}

/// Bit 63 of a distance word: the id was lowered in the current round.
const VISITED: u64 = 1 << 63;
/// Bits 0–62 of a distance word; all set means unreached.
const DIST: u64 = !VISITED;

/// Most vertices whose distances provably fit [`DIST`]: n − 1 edges below
/// 2^32 each stay below 2^63 − 1 for n ≤ 2^31. A longer tentative distance
/// just fails `relax`'s comparison; it never reaches the visited bit.
const MAX_VERTICES: usize = 1 << 31;

/// Rejects a zero Δ, distances that might not fit 63 bits, sources out of
/// range, and `L·n` ids beyond `u32` (`NULL_BKT` = `u32::MAX` is reserved).
fn check_input(
    n: usize,
    delta: u64,
    mut srcs: impl ExactSizeIterator<Item = VertexId>,
) -> Result<(), Error> {
    if delta == 0 {
        return Err(Error::usage("delta must be >= 1"));
    }
    if n > MAX_VERTICES {
        return Err(Error::input(format!(
            "n = {n} exceeds the 2^31 vertices whose distances fit 63 bits"
        )));
    }
    let lanes = srcs.len();
    if lanes.saturating_mul(n) > u32::MAX as usize {
        return Err(Error::input(format!(
            "{lanes} lanes over n = {n} exceed the u32 identifier space"
        )));
    }
    match srcs.find(|&src| src as usize >= n) {
        Some(src) => Err(Error::input(format!("src {src} out of range (n = {n})"))),
        None => Ok(()),
    }
}

/// The visit protocol in one word per id (GBBS): bits 0–62 hold the
/// tentative distance, bit 63 the round's visited bit. The CAS that first
/// lowers a word in a round finds the bit clear, so it alone learns the
/// round-start distance and reports the id to Reset, which clears the bit.
///
/// Happens-before, once for every access below: each phase of a round (the
/// frontier walk, edgeMap, Reset, the bucket calls) is one parallel call
/// whose join (`run_pieces`) orders its writes before the next phase's
/// reads, and in edgeMap the CAS's atomicity, not its ordering, elects the
/// visitor. So every access is `Relaxed`.
struct Dists {
    words: Vec<AtomicU64>,
    delta: u64,
}

impl Dists {
    /// `len` unreached ids, bucketed by annuli of width `delta`.
    fn new(len: usize, delta: u64) -> Self {
        Dists {
            words: (0..len).map(|_| AtomicU64::new(DIST)).collect(),
            delta,
        }
    }

    /// Makes `id` a source (distance 0) before the traversal starts.
    fn start(&mut self, id: usize) {
        *self.words[id].get_mut() = 0;
    }

    /// The distance of `id` ([`DIST`] while unreached), visited bit masked.
    #[inline]
    fn dist(&self, id: usize) -> u64 {
        // ORDERING: Relaxed; a previous phase's writes are published by its
        // join, and light/heavy's live read may see any tentative value.
        self.words[id].load(Ordering::Relaxed) & DIST
    }

    /// Lowers `id` to `nd` if that improves it, setting the visited bit.
    /// Returns the round-start distance to the one lowering this round that
    /// found the bit clear, `None` to every other call.
    #[inline]
    fn relax(&self, id: usize, nd: u64) -> Option<u64> {
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

    /// A one-lane round's edgeMap: relaxes the out-list of each `ids[i]`
    /// from its round-start distance `starts[i]`, read once per list, into
    /// `hits`; returns the edges scanned.
    fn relax_frontier<G: OutEdges<W = u32>>(
        &self,
        em: &EdgeMap<'_, G>,
        ids: &[VertexId],
        starts: &[u64],
        hits: &mut Vec<(VertexId, u64)>,
    ) -> u64 {
        em.run_sparse_at(ids, hits, |i, list, hits| {
            let start = starts[i];
            list.for_each(|v, w| {
                if let Some(old) = self.relax(v as usize, start + w as u64) {
                    hits.push((v, old));
                }
            });
        })
    }

    /// Reset: clears `id`'s visited bit and returns its annulus move, from
    /// that of `round_start` (what [`relax`](Self::relax) reported) to that
    /// of its new distance — `getBucket`'s `(prev, next)`.
    #[inline]
    fn settle(&self, id: usize, round_start: u64) -> (BucketId, BucketId) {
        let d = self.dist(id);
        // ORDERING: Relaxed; Reset touches each id once, after edgeMap's join.
        self.words[id].store(d, Ordering::Relaxed);
        (self.bucket_of(round_start), self.bucket_of(d))
    }

    /// D: the annulus of `id`, `NULL_BKT` while unreached.
    fn bucket(&self, id: usize) -> BucketId {
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
    fn into_dists(self) -> Vec<u64> {
        self.words
            .into_iter()
            .map(|w| match w.into_inner() & DIST {
                DIST => INF,
                d => d,
            })
            .collect()
    }
}

/// Parameters for [`sssp`]: Δ-stepping from `src` with bucket width `delta`.
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

/// One source of [`sssp_multi`]: where it starts and the per-query context
/// that cancels or expires it independently of its siblings.
pub struct SsspLane<'a> {
    /// Source vertex (must be `< n`).
    pub src: VertexId,
    /// This lane's lifecycle context, polled at every round boundary.
    pub ctx: &'a QueryCtx,
}

/// Δ-stepping SSSP (Algorithm 2) from one source, on any out-edge backend:
/// [`sssp_multi`] with one lane, behind the `sssp` registry id. Bucket
/// window and telemetry come from `ctx`'s engine; `ctx` is polled once per
/// round, and a cancelled or expired query returns `Err` with no partial
/// output.
pub fn sssp<G: OutEdges<W = u32>>(
    g: &G,
    params: &SsspParams,
    ctx: &QueryCtx,
) -> Result<DeltaResult, Error> {
    let SsspParams { src, delta } = *params;
    let mut lanes = sssp_multi(g, delta, &[SsspLane { src, ctx }])?;
    lanes.pop().expect("one result per lane")
}

/// Δ-stepping (Algorithm 2) from every lane's source in one bucketed
/// traversal. Returns each lane's result, in lane order, or its own
/// lifecycle `Err`; the outer `Err` is misuse (see `check_input`). The
/// engine is the **first** lane's: batches form within one session. One
/// lane walks the extracted bucket as the paper's loop does; a fused round
/// walks one entry per vertex, relaxing every lane of its run (`Fused`).
pub fn sssp_multi<G: OutEdges<W = u32>>(
    g: &G,
    delta: u64,
    lanes: &[SsspLane<'_>],
) -> Result<Vec<Result<DeltaResult, Error>>, Error> {
    let n = g.num_vertices();
    check_input(n, delta, lanes.iter().map(|lane| lane.src))?;
    let Some(first) = lanes.first() else {
        return Ok(Vec::new());
    };
    let width = lanes.len();
    let mut sp = Dists::new(n * width, delta);
    for (l, lane) in lanes.iter().enumerate() {
        sp.start(lane.src as usize * width + l);
    }
    let engine = first.ctx.engine();
    let mut buckets = engine.buckets(n * width, |id| sp.bucket(id as usize), Order::Increasing);
    let telemetry = engine.telemetry();
    let em = engine.edge_map(g);

    let mut dead: Vec<Option<Error>> = lanes.iter().map(|_| None).collect();
    let (mut round, mut relaxations) = (0u64, 0u64);
    // Per lane of a fused batch: (rounds, relaxations, last round counted).
    let mut tally = vec![(0u64, 0u64, 0u64); width];
    // Round buffers, refilled in place: frontier, round-start distances, a
    // fused round's grouping, edgeMap's hits and Reset's bucket moves.
    let (mut ids, mut starts, mut fused) = (vec![], vec![], Fused::default());
    let (mut hits, mut moves) = (vec![], vec![]);
    loop {
        // Round boundary: poll every live lane. A tripped lane detaches;
        // with none left the run returns at once, dropping its buckets and
        // words unread.
        for (dead, lane) in dead.iter_mut().zip(lanes) {
            if dead.is_none() {
                *dead = lane.ctx.check().err();
            }
        }
        if dead.iter().all(Option::is_some) {
            return Ok(dead.into_iter().flatten().map(Err).collect());
        }
        let mut span = telemetry.span();
        let Some(bkt) = span.lap(Phase::NextBucket, buckets.next_bucket_into(&mut ids)) else {
            break;
        };
        round += 1;
        if width > 1 {
            fused.group(g, round, &dead, &mut ids, &mut tally);
        }
        // Round-start distances, by frontier position: relaxing from these
        // makes a round a pure function of the frontier *set*, so fused lanes
        // equal one-lane runs and rounds do not depend on the thread count.
        map_into(&ids, &mut starts, |&id| sp.dist(id as usize));
        span.lap(Phase::Walk, ());

        // Update (Algorithm 2, lines 4–10): the CAS that first lowers a
        // target this round captures its round-start distance.
        let round_edges = match width {
            1 => sp.relax_frontier(&em, &ids, &starts, &mut hits),
            _ => fused.relax(&em, &sp, width, &starts, &mut hits),
        };
        relaxations += span.lap(Phase::EdgeMap, round_edges);

        // Reset (lines 11–13): clear the visited bit and compute the bucket
        // move from the round-start annulus to the new one.
        map_into(&hits, &mut moves, |&(id, round_start)| {
            let (prev, next) = sp.settle(id as usize, round_start);
            (id, buckets.get_bucket(id, prev, next))
        });
        span.lap(Phase::Reset, ());
        buckets.update_buckets(&moves);
        span.lap(Phase::UpdateBuckets, ());
        let relaxed = moves.len() as u64;
        telemetry.finish_round(span, round - 1, bkt, ids.len(), round_edges, relaxed);
    }

    // Last use of `buckets`, whose D closure borrows `sp`.
    let identifiers_moved = buckets.stats().identifiers_moved;
    drop(buckets);
    if width == 1 {
        tally[0] = (round, relaxations, round);
    }
    // One lane's distance words are its distances, handed back in place.
    let mut words = sp.into_dists();
    let mut dist = |l| match width {
        1 => std::mem::take(&mut words),
        _ => (0..n).map(|v| words[v * width + l]).collect(),
    };
    Ok(dead
        .into_iter()
        .zip(tally)
        .enumerate()
        .map(|(l, (dead, (rounds, relaxations, _)))| match dead {
            Some(e) => Err(e),
            None => Ok(DeltaResult {
                dist: dist(l),
                rounds,
                relaxations,
                identifiers_moved,
            }),
        })
        .collect())
}

/// A fused frontier by vertex, kept across rounds: each vertex once, where
/// its run of lanes starts in the sorted frontier (closed by its length),
/// and each position's lane, so a visit finds a lane with no division.
#[derive(Default)]
struct Fused {
    verts: Vec<VertexId>,
    runs: Vec<usize>,
    lanes: Vec<u32>,
}

impl Fused {
    /// Drops detached lanes' ids and sorts the rest into one run per vertex
    /// (ids are vertex-major); tallies each lane's round and relaxations.
    fn group<G: OutEdges>(
        &mut self,
        g: &G,
        round: u64,
        dead: &[Option<Error>],
        ids: &mut Vec<VertexId>,
        tally: &mut [(u64, u64, u64)],
    ) {
        let width = tally.len() as VertexId;
        ids.retain(|&id| dead[(id % width) as usize].is_none());
        ids.par_sort_unstable();
        map_into(ids, &mut self.lanes, |&id| id % width);
        self.verts.clear();
        self.runs.clear();
        let mut degree = 0;
        for (k, &id) in ids.iter().enumerate() {
            let v = id / width;
            if self.verts.last() != Some(&v) {
                self.verts.push(v);
                self.runs.push(k);
                degree = g.out_degree(v) as u64;
            }
            let lane = &mut tally[(id % width) as usize];
            lane.0 += u64::from(lane.2 != round);
            lane.1 += degree;
            lane.2 = round;
        }
        self.runs.push(ids.len());
    }

    /// Relaxes each lane of a vertex's run along its out-edges from the lane's
    /// round-start distance into `hits`; returns the edges scanned. The run
    /// and its start distances are sliced once per list. A fused
    /// edge costs a relaxation per lane, unseen by the sparse driver's edge
    /// count, so the round is cut by vertices ([`rayon::pool::piece_count`]).
    fn relax<G: OutEdges<W = u32>>(
        &self,
        em: &EdgeMap<'_, G>,
        sp: &Dists,
        width: usize,
        starts: &[u64],
        hits: &mut Vec<(VertexId, u64)>,
    ) -> u64 {
        let mut walk = || {
            em.run_sparse_at(&self.verts, hits, |i, list, hits| {
                let run = self.runs[i]..self.runs[i + 1];
                let (lanes, starts) = (&self.lanes[run.clone()], &starts[run]);
                list.for_each(|v, w| {
                    // Lane `l` of the run relaxes `v·L + l`.
                    let to = v as usize * width;
                    for (&l, &start) in lanes.iter().zip(starts) {
                        let id = to + l as usize;
                        if let Some(old) = sp.relax(id, start + w as u64) {
                            hits.push((id as VertexId, old));
                        }
                    }
                });
            })
        };
        match rayon::pool::piece_count(self.verts.len()) {
            1 => walk(),
            pieces => sparse_in_pieces(pieces, walk),
        }
    }
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
    check_input(n, delta, [src].into_iter())
        .expect("delta >= 1, src < n and a graph whose distances fit 63 bits");

    // Split into light/heavy subgraphs once, as plain CSR whatever the
    // backend (the paper: "two graphs, one containing just the light edges
    // and the other just the heavy edges").
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
    let (light, heavy) = (light.build(false), heavy.build(false));

    let mut sp = Dists::new(n, delta);
    sp.start(src as usize);
    let mut buckets =
        julienne::bucket::BucketsBuilder::new(n, |v| sp.bucket(v as usize), Order::Increasing)
            .build();

    let (mut rounds, mut relaxations) = (0u64, 0u64);

    // One relaxation pass over `graph` from `ids`, returning bucket moves,
    // from the live distance (the source may have been lowered this pass).
    let relax = |graph: &Csr<u32>,
                 ids: &[VertexId],
                 buckets: &julienne::bucket::Buckets<_>,
                 relaxations: &mut u64|
     -> Vec<(u32, julienne::bucket::BucketDest)> {
        let mut moved = Vec::new();
        *relaxations += EdgeMap::new(graph).run_sparse_at(ids, &mut moved, |_, list, moved| {
            list.for_each(|v, w| {
                let nd = sp.dist(list.source as usize) + w as u64;
                moved.extend(sp.relax(v as usize, nd).map(|old| (v, old)));
            });
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
        let none = || std::iter::empty();
        assert!(check_input(MAX_VERTICES, 1, none()).is_ok());
        assert!(matches!(
            check_input(MAX_VERTICES + 1, 1, none()),
            Err(Error::Input(_))
        ));
        assert!(check_input(1, 0, none()).unwrap_err().is_usage());
        // Two lanes over 2^31 vertices overflow the u32 identifier space.
        assert!(check_input(MAX_VERTICES, 1, [0].into_iter()).is_ok());
        assert!(matches!(
            check_input(MAX_VERTICES, 1, [0, 0].into_iter()),
            Err(Error::Input(_))
        ));
    }

    #[test]
    fn a_source_out_of_range_is_an_input_error() {
        let g = weighted_er(1, 1, 10);
        for src in [400, u32::MAX] {
            let r = sssp(&g, &SsspParams { src, delta: 4 }, &QueryCtx::default());
            assert!(matches!(r, Err(Error::Input(_))), "src {src}: {r:?}");
        }
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

    fn assert_lane_identical(fused: &DeltaResult, solo: &DeltaResult, tag: &str) {
        assert_eq!(fused.dist, solo.dist, "{tag}: dist");
        assert_eq!(fused.rounds, solo.rounds, "{tag}: rounds");
        assert_eq!(fused.relaxations, solo.relaxations, "{tag}: relaxations");
    }

    #[test]
    fn fused_lanes_match_solo_runs() {
        let g = weighted_er(3, 1, 1000);
        let ctx = QueryCtx::default();
        for delta in [1u64, 64, 32768] {
            let srcs = [0u32, 7, 7, 399];
            let lanes: Vec<SsspLane> = srcs
                .iter()
                .map(|&src| SsspLane { src, ctx: &ctx })
                .collect();
            let fused = sssp_multi(&g, delta, &lanes).unwrap();
            for (i, &src) in srcs.iter().enumerate() {
                let lane = fused[i].as_ref().unwrap();
                assert_lane_identical(
                    lane,
                    &run(&g, src, delta),
                    &format!("delta {delta} src {src}"),
                );
            }
        }
    }

    #[test]
    fn fused_wbfs_on_compressed_backend_matches_solo() {
        use julienne_graph::compress::CompressedWGraph;
        let (lo, hi) = wbfs_weight_range(1 << 10);
        let g = assign_weights(&rmat(10, 8, RmatParams::default(), 2, true), lo, hi, 3);
        let cg = CompressedWGraph::from_csr(&g);
        let ctx = QueryCtx::default();
        let srcs = [0u32, 3, 11];
        let lanes: Vec<SsspLane> = srcs
            .iter()
            .map(|&src| SsspLane { src, ctx: &ctx })
            .collect();
        let fused = sssp_multi(&cg, 1, &lanes).unwrap();
        for (i, &src) in srcs.iter().enumerate() {
            let lane = fused[i].as_ref().unwrap();
            assert_lane_identical(lane, &run(&g, src, 1), &format!("src {src}"));
        }
    }

    #[test]
    fn cancelled_lane_detaches_without_poisoning_siblings() {
        use julienne::query::CancelToken;
        let g = weighted_er(7, 1, 1000);
        let live_ctx = QueryCtx::default();
        // Trip after a few round-boundary polls so the doomed lane has
        // in-flight bucket entries when it detaches.
        let engine = Engine::default();
        let doomed_ctx =
            QueryCtx::from_engine(&engine).with_cancel_token(CancelToken::cancel_after_polls(3));
        let lanes = [
            SsspLane {
                src: 0,
                ctx: &live_ctx,
            },
            SsspLane {
                src: 5,
                ctx: &doomed_ctx,
            },
            SsspLane {
                src: 42,
                ctx: &live_ctx,
            },
        ];
        let fused = sssp_multi(&g, 64, &lanes).unwrap();
        assert!(
            matches!(fused[1], Err(Error::Cancelled)),
            "{:?}",
            fused[1].as_ref().err()
        );
        assert_lane_identical(fused[0].as_ref().unwrap(), &run(&g, 0, 64), "sibling 0");
        assert_lane_identical(fused[2].as_ref().unwrap(), &run(&g, 42, 64), "sibling 2");
    }

    #[test]
    fn all_lanes_cancelled_returns_all_errors() {
        use julienne::query::CancelToken;
        let g = weighted_er(9, 1, 100);
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::default();
        let ctx = QueryCtx::from_engine(&engine).with_cancel_token(token);
        let lanes = [
            SsspLane { src: 0, ctx: &ctx },
            SsspLane { src: 1, ctx: &ctx },
        ];
        let fused = sssp_multi(&g, 16, &lanes).unwrap();
        for r in &fused {
            assert!(matches!(r, Err(Error::Cancelled)));
        }
        let solo = sssp(&g, &SsspParams { src: 0, delta: 16 }, &ctx);
        assert!(matches!(solo, Err(Error::Cancelled)));
    }

    #[test]
    fn structural_misuse_is_an_outer_error() {
        let g = weighted_er(1, 1, 10);
        let ctx = QueryCtx::default();
        assert!(sssp_multi(&g, 0, &[SsspLane { src: 0, ctx: &ctx }]).is_err());
        assert!(sssp_multi(
            &g,
            1,
            &[SsspLane {
                src: 400,
                ctx: &ctx
            }]
        )
        .is_err());
        assert!(sssp_multi::<Csr<u32>>(&g, 1, &[]).unwrap().is_empty());
    }
}
