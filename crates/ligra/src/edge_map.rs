//! Direction-optimized `edgeMap` (Section 2.1).
//!
//! `edgeMap(G, U, F, C)` applies `F` to edges `(u, v)` with `u ∈ U` and
//! `C(v) = true`, returning the vertices for which `F` returned `true`.
//! Two traversal strategies:
//!
//! * **sparse (push)** — iterate the out-edges of the frontier, appending
//!   hits straight to the output when the round runs on one worker, and in
//!   edge-balanced pieces with piece-local buffers when it fans out
//!   (`sparse_blocked`, GBBS's `edgeMapBlocked`), so the traversal "only
//!   writes to an amount of memory proportional to the size of the output
//!   frontier" (the optimization the paper credits for its fast 1-thread
//!   SSSP times);
//! * **dense (pull)** — iterate in-edges of every vertex with `C(v)` true,
//!   breaking early once `C(v)` flips; chosen when
//!   `|U| + Σ out-deg(U) > m / 20` (Ligra's threshold). Graphs are stored
//!   in one direction only, so pull runs on symmetric graphs and reads each
//!   target's out-list as its in-list; a directed graph always pushes.
//!
//! Both directions split **giant adjacency lists** into parallel chunk
//! tasks when the backend supports it (see [`OutEdges::out_chunk_edges`]):
//! in a round that fans out, a hub vertex whose list spans more than two
//! chunks no longer serializes the round on one worker. Chunk and piece
//! boundaries are a pure function of degrees, so results stay identical at
//! every thread count.
//!
//! The unified entry point is the [`EdgeMap`] builder, which owns the
//! traversal options and an optional [`Telemetry`] sink recording the
//! direction decision, edges scanned, and successful updates of every
//! traversal. Both directions are generic over the trait hierarchy of
//! [`crate::traits`]: the sparse path needs only [`OutEdges`], the
//! direction-optimized path needs [`GraphRef`] (the symmetry flag that
//! permits pull), so every backend — CSR, byte-compressed, mapped,
//! packed — goes through the same code.

use crate::subset::{VertexSubset, VertexSubsetData};
use crate::traits::{GraphRef, OutEdges};
use julienne_graph::VertexId;
use julienne_primitives::bitset::AtomicBitSet;
use julienne_primitives::filter::flatten_into;
use julienne_primitives::scan::prefix_sums;
use julienne_primitives::telemetry::{Counter, Telemetry};
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// Traversal strategy selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mode {
    /// Always push from the frontier.
    Sparse,
    /// Always pull over all vertices. A directed graph has no in-lists to
    /// pull from, so it pushes instead.
    Dense,
    /// Ligra's threshold rule.
    #[default]
    Auto,
}

/// Dense threshold denominator: `Mode::Auto` goes dense when
/// `|U| + Σ out-deg(U) > m / 20` (Ligra's threshold).
const DENSE_THRESHOLD_DIV: usize = 20;

/// Builder-style `edgeMap`: configure once, traverse many times.
///
/// `update(u, v, w)` is applied to live edges and must return `true` at most
/// once per target `v` per call (use CAS/writeMin); a sparse traversal keeps
/// every success, so duplicates would reach the output. `cond(v)` gates
/// targets.
///
/// ```
/// use julienne_ligra::{EdgeMap, VertexSubset};
/// use julienne_graph::builder::from_pairs_symmetric;
/// use julienne_primitives::atomics::cas_u32;
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// // One BFS step from {0} on a path 0-1-2.
/// let g = from_pairs_symmetric(3, &[(0, 1), (1, 2)]);
/// let parent = [0, u32::MAX, u32::MAX].map(AtomicU32::new);
/// let next = EdgeMap::new(&g).run(
///     &VertexSubset::single(3, 0),
///     |u, v, _| cas_u32(&parent[v as usize], u32::MAX, u),
///     |v| parent[v as usize].load(Ordering::SeqCst) == u32::MAX,
/// );
/// assert_eq!(next.to_vertices(), vec![1]);
/// ```
pub struct EdgeMap<'g, G> {
    g: &'g G,
    mode: Mode,
    telemetry: Telemetry,
}

impl<'g, G: OutEdges> EdgeMap<'g, G> {
    /// A traversal over `g` with default options and no telemetry.
    pub fn new(g: &'g G) -> Self {
        EdgeMap {
            g,
            mode: Mode::Auto,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the traversal strategy.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a telemetry sink; every traversal records its direction
    /// decision, frontier size, edges scanned, and successful updates.
    pub fn telemetry(mut self, sink: &Telemetry) -> Self {
        self.telemetry = sink.clone();
        self
    }

    fn note(&self, direction: Counter, frontier: usize, scanned: u64, relaxed: usize) {
        if self.telemetry.is_enabled() {
            self.telemetry.incr(direction);
            self.telemetry
                .add(Counter::VerticesScanned, frontier as u64);
            self.telemetry.add(Counter::EdgesScanned, scanned);
            self.telemetry.add(Counter::EdgesRelaxed, relaxed as u64);
        }
    }

    /// Sparse (push) traversal over an explicit id list; works with any
    /// out-edge backend (CSR, compressed, packed, edge partitions).
    pub fn run_sparse<Fu, Fc>(
        &self,
        frontier_ids: &[VertexId],
        update: Fu,
        cond: Fc,
    ) -> VertexSubset
    where
        Fu: Fn(VertexId, VertexId, G::W) -> bool + Send + Sync,
        Fc: Fn(VertexId) -> bool + Send + Sync,
    {
        let n = self.g.num_vertices();
        let mut hits = Vec::new();
        let scanned = sparse_blocked(self.g, frontier_ids, &mut hits, |_, u, v, w, hits| {
            if cond(v) && update(u, v, w) {
                hits.push(v);
            }
        });
        self.note(
            Counter::SparseTraversals,
            frontier_ids.len(),
            scanned,
            hits.len(),
        );
        VertexSubset::from_vertices(n, hits)
    }

    /// Sparse (push) data-carrying traversal over an explicit id list.
    pub fn run_sparse_data<T, Fu, Fc>(
        &self,
        frontier_ids: &[VertexId],
        update: Fu,
        cond: Fc,
    ) -> VertexSubsetData<T>
    where
        T: Copy + Send + Sync,
        Fu: Fn(VertexId, VertexId, G::W) -> Option<T> + Send + Sync,
        Fc: Fn(VertexId) -> bool + Send + Sync,
    {
        let mut hits = Vec::new();
        self.run_sparse_at(frontier_ids, &mut hits, |i, v, w, hits| {
            if cond(v) {
                hits.extend(update(frontier_ids[i], v, w).map(|t| (v, t)));
            }
        });
        VertexSubsetData::from_entries(self.g.num_vertices(), hits)
    }

    /// Sparse (push) traversal that hands `visit(i, v, w, hits)` the
    /// frontier *position* `i` of the edge's source (`frontier_ids[i]`), so
    /// per-source state can ride in arrays beside the frontier, and lets it
    /// append any number of results to `hits` (one per lane of a fused
    /// Δ-stepping batch). Replaces `hits`' contents with what the visits
    /// appended, in (frontier position, edge position) order, keeping its
    /// buffer (a round loop passes the same one every round), and returns
    /// the edges scanned (the frontier's out-degree sum).
    pub fn run_sparse_at<T, Fv>(
        &self,
        frontier_ids: &[VertexId],
        hits: &mut Vec<T>,
        visit: Fv,
    ) -> u64
    where
        T: Copy + Send + Sync,
        Fv: Fn(usize, VertexId, G::W, &mut Vec<T>) + Send + Sync,
    {
        // Forced inline: left to the optimiser, a larger visit (fused
        // Δ-stepping walks a run of lanes per edge) became a call per edge.
        let scanned = sparse_blocked(
            self.g,
            frontier_ids,
            hits,
            #[inline(always)]
            |i, _, v, w, hits| visit(i, v, w, hits),
        );
        self.note(
            Counter::SparseTraversals,
            frontier_ids.len(),
            scanned,
            hits.len(),
        );
        scanned
    }
}

impl<'g, G: GraphRef> EdgeMap<'g, G> {
    fn choose_dense(&self, frontier_ids: &[VertexId]) -> bool {
        self.g.is_symmetric()
            && match self.mode {
                Mode::Sparse => false,
                Mode::Dense => true,
                Mode::Auto => {
                    frontier_ids.len() + self.g.out_degrees_sum(frontier_ids)
                        > self.g.num_edges() / DENSE_THRESHOLD_DIV
                }
            }
    }

    /// Direction-optimized traversal: picks sparse or dense per the
    /// configured [`Mode`] and runs it. Works over any [`GraphRef`]
    /// backend; only a symmetric graph is ever pulled.
    pub fn run<Fu, Fc>(&self, frontier: &VertexSubset, update: Fu, cond: Fc) -> VertexSubset
    where
        Fu: Fn(VertexId, VertexId, G::W) -> bool + Send + Sync,
        Fc: Fn(VertexId) -> bool + Send + Sync,
    {
        let owned;
        let ids: &[VertexId] = match frontier.as_sparse() {
            Some(s) => s,
            None => {
                owned = frontier.to_vertices();
                &owned
            }
        };
        if self.choose_dense(ids) {
            let (out, scanned) = dense_counted(self.g, frontier, update, cond);
            self.note(Counter::DenseTraversals, ids.len(), scanned, out.len());
            out
        } else {
            self.run_sparse(ids, update, cond)
        }
    }
}

/// Edges per block of [`sparse_blocked`] (GBBS's `edgeMapBlocked` size):
/// the unit the runtime's fan-out rule counts. A constant, so block and
/// piece boundaries never depend on the thread count.
const BLOCK_EDGES: usize = 4096;

thread_local! {
    /// The piece count [`sparse_in_pieces`] forces on this thread.
    static FORCED_PIECES: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The pieces a sparse round of `edges` edges is cut into: its blocks of
/// [`BLOCK_EDGES`], cut as the runtime cuts that many items
/// ([`rayon::pool::piece_count`]), or what [`sparse_in_pieces`] forces. One
/// piece means the round runs on one worker whatever the thread count.
pub(crate) fn sparse_pieces(edges: usize) -> usize {
    FORCED_PIECES
        .get()
        .unwrap_or_else(|| rayon::pool::piece_count(edges.div_ceil(BLOCK_EDGES)))
}

/// Runs `f` with every sparse round walked on this thread — `edgeMap`'s,
/// `edgeMapSum`'s and the peel's — cut into exactly `pieces` pieces
/// whatever its size. A caller whose visit costs more than an edge sizes
/// its rounds this way (fused Δ-stepping cuts by vertices), and tests drive
/// the fanned-out walk on small graphs with it, through the loops that own
/// it too.
pub fn sparse_in_pieces<R>(pieces: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_PIECES.set(self.0);
        }
    }
    let _restore = Restore(FORCED_PIECES.replace(Some(pieces)));
    f()
}

/// Trims `buf`, which had capacity `kept` before a walk appended to it, to
/// its length if the walk grew it and left more than a block's worth of
/// slots spare: the spare half that doubling leaves behind outlives the
/// call in buffers a caller keeps or returns, and showed up as server RSS.
/// Small rounds keep doubling's slack, so a kept buffer stops reallocating
/// once it has grown.
pub(crate) fn trim_grown<T>(buf: &mut Vec<T>, kept: usize) {
    if buf.capacity() > kept && buf.capacity() - buf.len() > BLOCK_EDGES {
        buf.shrink_to_fit();
    }
}

/// The sparse (push) driver behind every frontier-out traversal in this
/// crate: applies `visit(i, u, v, w, hits)` to each out-edge of
/// `u = frontier_ids[i]`, `hits` being the buffer `visit` appends its
/// results to. On return `out` holds what was appended, in (frontier
/// position, edge position) order, in `out`'s own buffer; the edges scanned
/// are returned. How a result is appended is the caller's: behind a branch
/// when hits are rare, without one when they are a coin flip per edge.
///
/// The frontier's edges count as blocks of [`BLOCK_EDGES`], and the round
/// is cut into as many pieces as the runtime would cut that many blocks
/// into ([`sparse_pieces`]). A round of one piece — every round below about
/// 8.4 M edges — runs on one worker whatever the thread count, so it is
/// walked inline, whole lists in frontier order, straight into `out`: no
/// offsets, no per-piece buffers, no concatenating copy.
///
/// More than one piece cuts the degree prefix sums at block boundaries,
/// the blocks spread evenly over the pieces ([`rayon::pool::piece_bounds`]).
/// A piece owns every *unit* whose first edge falls in its range, a unit
/// being a whole out-list or — for a list longer than twice the backend's
/// [`OutEdges::out_chunk_edges`] — one chunk of it, so a hub spreads over
/// many pieces. Each piece appends its hits to its own buffer and the
/// buffers are concatenated into `out` in piece order: memory written is
/// proportional to the hits, not to the edges scanned.
pub(crate) fn sparse_blocked<G, T, F>(
    g: &G,
    frontier_ids: &[VertexId],
    out: &mut Vec<T>,
    visit: F,
) -> u64
where
    G: OutEdges,
    T: Copy + Send + Sync,
    F: Fn(usize, VertexId, VertexId, G::W, &mut Vec<T>) + Send + Sync,
{
    let total: usize = frontier_ids.iter().map(|&u| g.out_degree(u)).sum();
    let pieces = sparse_pieces(total);
    if pieces <= 1 {
        // Whole lists in frontier order: the same edges, in the same order,
        // as the pieces' walk over the units below.
        out.clear();
        let kept = out.capacity();
        for (i, &u) in frontier_ids.iter().enumerate() {
            g.for_each_out(u, |v, w| visit(i, u, v, w, out));
        }
        trim_grown(out, kept);
        return total as u64;
    }
    let mut offsets: Vec<usize> = frontier_ids.par_iter().map(|&u| g.out_degree(u)).collect();
    prefix_sums(&mut offsets);
    let split = g.out_chunk_edges();
    let scan = |lo: usize, hi: usize| {
        let mut hits = Vec::new();
        // Start at the list holding edge `lo`: the last one whose first
        // edge is at or before it.
        let mut i = offsets.partition_point(|&o| o <= lo).saturating_sub(1);
        while i < offsets.len() && offsets[i] < hi {
            let (u, base) = (frontier_ids[i], offsets[i]);
            let end = offsets.get(i + 1).copied().unwrap_or(total);
            // Forced inline, as in `EdgeMap::run_sparse_at`.
            if split != usize::MAX && end - base > split.saturating_mul(2) {
                let first = lo.saturating_sub(base).div_ceil(split);
                let last = (hi.min(end) - base).div_ceil(split);
                for c in first..last {
                    g.for_each_out_chunk(
                        u,
                        c,
                        #[inline(always)]
                        |v, w| visit(i, u, v, w, &mut hits),
                    );
                }
            } else if base >= lo {
                g.for_each_out(
                    u,
                    #[inline(always)]
                    |v, w| visit(i, u, v, w, &mut hits),
                );
            }
            i += 1;
        }
        hits
    };
    let blocks = total.div_ceil(BLOCK_EDGES);
    let bufs: Vec<Mutex<Vec<T>>> = (0..pieces).map(|_| Mutex::default()).collect();
    rayon::pool::run_pieces(pieces, |p| {
        let (first, last) = rayon::pool::piece_bounds(blocks, pieces, p);
        let hits = scan(first * BLOCK_EDGES, (last * BLOCK_EDGES).min(total));
        *bufs[p].lock().unwrap_or_else(PoisonError::into_inner) = hits;
    });
    let bufs: Vec<Vec<T>> = bufs
        .into_iter()
        .map(|b| b.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    flatten_into(&bufs, out);
    total as u64
}

/// Dense pull kernel over a symmetric graph, whose out-lists are its
/// in-lists; returns the new frontier and the edges examined (the early
/// exit makes this less than the full degree sum).
///
/// Heavy targets — degree above twice the backend's
/// [`OutEdges::out_chunk_edges`] granularity — are pulled out of the main
/// per-vertex loop and scanned as parallel chunk tasks, so one hub's
/// list no longer serializes the round. Chunk tasks decode in full
/// (no early exit): the examined-edge count stays a pure function of the
/// graph, the same trade Ligra+ makes to decode compressed lists in
/// parallel. Extra `update` calls after `cond` flips are harmless for the
/// CAS/writeMin updates `edgeMap` requires.
fn dense_counted<G, Fu, Fc>(
    g: &G,
    frontier: &VertexSubset,
    update: Fu,
    cond: Fc,
) -> (VertexSubset, u64)
where
    G: GraphRef,
    Fu: Fn(VertexId, VertexId, G::W) -> bool + Send + Sync,
    Fc: Fn(VertexId) -> bool + Send + Sync,
{
    let n = g.num_vertices();
    let frontier_bits = frontier.to_bitset();
    let out = AtomicBitSet::new(n);
    let trigger = heavy_trigger(g.out_chunk_edges());
    let scanned: u64 = (0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            if !cond(v) {
                return 0u64;
            }
            if trigger != usize::MAX && g.out_degree(v) > trigger {
                return 0u64; // handled by the heavy pass below
            }
            let mut examined = 0u64;
            g.for_each_out_until(v, |u, w| {
                examined += 1;
                if frontier_bits.get(u as usize) && update(u, v, w) {
                    out.set(v as usize);
                }
                // Ligra's dense early exit: once the target no longer wants
                // updates, stop scanning its in-edges.
                cond(v)
            });
            examined
        })
        .sum();
    let mut heavy_scanned = 0u64;
    if trigger != usize::MAX {
        let split = g.out_chunk_edges();
        let heavy: Vec<VertexId> = (0..n as VertexId)
            .into_par_iter()
            .filter(|&v| cond(v) && g.out_degree(v) > trigger)
            .collect();
        let tasks: Vec<(VertexId, usize)> = heavy
            .iter()
            .flat_map(|&v| (0..g.out_degree(v).div_ceil(split)).map(move |c| (v, c)))
            .collect();
        tasks.par_iter().for_each(|&(v, c)| {
            g.for_each_out_chunk(v, c, |u, w| {
                if frontier_bits.get(u as usize) && cond(v) && update(u, v, w) {
                    out.set(v as usize);
                }
            });
        });
        heavy_scanned = heavy.iter().map(|&v| g.out_degree(v) as u64).sum();
    }
    (
        VertexSubset::from_bitset(out.into_bitset()),
        scanned + heavy_scanned,
    )
}

/// Degree above which a dense target's list is scanned as chunk
/// tasks: twice the chunk granularity, so splitting only kicks in when it
/// buys at least two-way parallelism. `usize::MAX` (unsplittable backend)
/// disables the heavy pass entirely.
fn heavy_trigger(split: usize) -> usize {
    if split == usize::MAX {
        usize::MAX
    } else {
        split.saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::{from_pairs, from_pairs_symmetric};
    use julienne_graph::csr::Csr;
    use julienne_primitives::atomics::cas_u32;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn atomic_u32_filled(n: usize, init: u32) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(init)).collect()
    }

    /// One BFS step from {0} on a small graph, in each mode.
    fn bfs_step(mode: Mode) -> Vec<VertexId> {
        let g = from_pairs_symmetric(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let parent = atomic_u32_filled(6, u32::MAX);
        parent[0].store(0, Ordering::Relaxed);
        let frontier = VertexSubset::single(6, 0);
        let out = EdgeMap::new(&g).mode(mode).run(
            &frontier,
            |u, v, _| cas_u32(&parent[v as usize], u32::MAX, u),
            |v| parent[v as usize].load(Ordering::Relaxed) == u32::MAX,
        );
        let mut ids = out.to_vertices();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn sparse_and_dense_agree() {
        assert_eq!(bfs_step(Mode::Sparse), vec![1, 2]);
        assert_eq!(bfs_step(Mode::Dense), vec![1, 2]);
        assert_eq!(bfs_step(Mode::Auto), vec![1, 2]);
    }

    #[test]
    fn cond_gates_targets() {
        let g = from_pairs(4, &[(0, 1), (0, 2), (0, 3)]);
        let frontier = VertexSubset::single(4, 0);
        let out = EdgeMap::new(&g)
            .mode(Mode::Sparse)
            .run(&frontier, |_, _, _| true, |v| v != 2);
        let mut ids = out.to_vertices();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn duplicate_removal() {
        // Both 0 and 1 point at 2; update always true would emit 2 twice.
        let g = from_pairs(3, &[(0, 2), (1, 2)]);
        let frontier = VertexSubset::from_vertices(3, vec![0, 1]);
        let without = EdgeMap::new(&g)
            .mode(Mode::Sparse)
            .run(&frontier, |_, _, _| true, |_| true);
        assert_eq!(without.len(), 2); // duplicates kept
    }

    #[test]
    fn data_map_carries_values() {
        let g: Csr<u32> = {
            use julienne_graph::builder::EdgeList;
            let mut el = EdgeList::new(3);
            el.push(0, 1, 10);
            el.push(0, 2, 20);
            el.build(false)
        };
        let out = EdgeMap::new(&g).run_sparse_data(
            &[0],
            |_, _, w| if w >= 20 { Some(w * 2) } else { None },
            |_| true,
        );
        assert_eq!(out.entries(), &[(2, 40)]);
    }

    #[test]
    fn empty_frontier_empty_result() {
        let g = from_pairs(3, &[(0, 1)]);
        let out = EdgeMap::new(&g).run(&VertexSubset::empty(3), |_, _, _| true, |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_pushes_on_directed_graph() {
        // A directed graph has no in-lists: Auto must push even with a full
        // frontier.
        let g = from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let out = EdgeMap::new(&g).run(&VertexSubset::all(4), |_, _, _| true, |_| true);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn dense_works_on_compressed_backend() {
        use julienne_graph::compress::CompressedGraph;
        let g = from_pairs_symmetric(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let c = CompressedGraph::from_csr(&g);
        let parent = atomic_u32_filled(6, u32::MAX);
        parent[0].store(0, Ordering::Relaxed);
        let out = EdgeMap::new(&c).mode(Mode::Dense).run(
            &VertexSubset::single(6, 0),
            |u, v, _| cas_u32(&parent[v as usize], u32::MAX, u),
            |v| parent[v as usize].load(Ordering::Relaxed) == u32::MAX,
        );
        let mut ids = out.to_vertices();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn dense_on_directed_graph_pushes() {
        // Pulling a directed graph's out-lists would walk its edges
        // backwards (round 1 would claim 2 through 2 -> 0), so a forced
        // `Mode::Dense` pushes and every level matches a sequential BFS;
        // 5 only points into the graph and stays unreached.
        let g = from_pairs(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 4)]);
        let sink = Telemetry::enabled();
        let level = atomic_u32_filled(6, u32::MAX);
        level[0].store(0, Ordering::Relaxed);
        let mut frontier = VertexSubset::single(6, 0);
        let mut rounds = 0;
        while !frontier.is_empty() {
            rounds += 1;
            frontier = EdgeMap::new(&g).mode(Mode::Dense).telemetry(&sink).run(
                &frontier,
                |_, v, _| cas_u32(&level[v as usize], u32::MAX, rounds),
                |v| level[v as usize].load(Ordering::Relaxed) == u32::MAX,
            );
        }
        let mut want = vec![u32::MAX; 6];
        want[0] = 0;
        let mut queue = std::collections::VecDeque::from([0 as VertexId]);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if want[v as usize] == u32::MAX {
                    want[v as usize] = want[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        let got: Vec<u32> = level.iter().map(|l| l.load(Ordering::Relaxed)).collect();
        assert_eq!(got, want);
        #[cfg(feature = "telemetry")]
        {
            assert_eq!(sink.get(Counter::DenseTraversals), 0);
            assert_eq!(sink.get(Counter::SparseTraversals), u64::from(rounds));
        }
    }

    #[test]
    fn sparse_split_hub_matches_unsplit() {
        use julienne_graph::compress::CompressedGraph;
        // Hub 0 with 40 out-edges, chunk size 3 → the giant-list path
        // triggers (40 > 2·3) and fans out into 14 chunk tasks.
        let pairs: Vec<(u32, u32)> = (1..=40).map(|u| (0, u)).collect();
        let g = from_pairs(64, &pairs);
        let split = CompressedGraph::from_csr_with_chunk_size(&g, 3);
        let whole = CompressedGraph::from_csr_with_chunk_size(&g, 0);
        let run = |c: &CompressedGraph| {
            let out = EdgeMap::new(c).mode(Mode::Sparse).run(
                &VertexSubset::single(64, 0),
                |_, v, _| v % 2 == 0,
                |v| v != 7,
            );
            out.to_vertices() // scatter slots fix the order — compare raw
        };
        assert_eq!(run(&split), run(&whole));
    }

    #[test]
    fn sparse_data_split_hub_matches_unsplit() {
        use julienne_graph::compress::CompressedGraph;
        let pairs: Vec<(u32, u32)> = (1..=30).map(|u| (0, u)).collect();
        let g = from_pairs(32, &pairs);
        let split = CompressedGraph::from_csr_with_chunk_size(&g, 4);
        let whole = CompressedGraph::from_csr_with_chunk_size(&g, 0);
        let run = |c: &CompressedGraph| {
            let out = EdgeMap::new(c).run_sparse_data(
                &[0],
                |_, v, _| if v % 3 == 0 { Some(v * 10) } else { None },
                |_| true,
            );
            out.entries().to_vec()
        };
        assert_eq!(run(&split), run(&whole));
    }

    #[test]
    fn dense_heavy_target_matches_unsplit() {
        use julienne_graph::compress::CompressedGraph;
        // Star: every spoke points at hub 31, which has in-degree 31 —
        // heavy for chunk size 4 (31 > 2·4). BFS-style CAS update keeps
        // the traversal's output frontier deterministic.
        let pairs: Vec<(u32, u32)> = (0..31).map(|u| (u, 31)).collect();
        let g = from_pairs_symmetric(32, &pairs);
        let run = |c: &CompressedGraph| {
            let claimed = atomic_u32_filled(32, 0);
            let frontier = VertexSubset::from_vertices(32, (0..31).collect());
            let out = EdgeMap::new(c).mode(Mode::Dense).run(
                &frontier,
                |_, v, _| cas_u32(&claimed[v as usize], 0, 1),
                |v| claimed[v as usize].load(Ordering::Relaxed) == 0,
            );
            let mut ids = out.to_vertices();
            ids.sort_unstable();
            ids
        };
        let split = CompressedGraph::from_csr_with_chunk_size(&g, 4);
        let whole = CompressedGraph::from_csr_with_chunk_size(&g, 0);
        assert_eq!(run(&split), run(&whole));
        assert_eq!(run(&split), vec![31]);
    }

    #[test]
    fn telemetry_records_direction_and_counts() {
        let g = from_pairs_symmetric(4, &[(0, 1), (0, 2), (2, 3)]);
        let sink = Telemetry::enabled();
        let out = EdgeMap::new(&g).mode(Mode::Sparse).telemetry(&sink).run(
            &VertexSubset::single(4, 0),
            |_, _, _| true,
            |v| v != 0,
        );
        assert_eq!(out.len(), 2);
        #[cfg(feature = "telemetry")]
        {
            assert_eq!(sink.get(Counter::SparseTraversals), 1);
            assert_eq!(sink.get(Counter::DenseTraversals), 0);
            assert_eq!(sink.get(Counter::EdgesScanned), 2); // deg(0) = 2
            assert_eq!(sink.get(Counter::EdgesRelaxed), 2);
            assert_eq!(sink.get(Counter::VerticesScanned), 1);
        }
        let dense_sink = Telemetry::enabled();
        EdgeMap::new(&g)
            .mode(Mode::Dense)
            .telemetry(&dense_sink)
            .run(&VertexSubset::single(4, 0), |_, _, _| true, |v| v != 0);
        #[cfg(feature = "telemetry")]
        assert_eq!(dense_sink.get(Counter::DenseTraversals), 1);
    }
}
