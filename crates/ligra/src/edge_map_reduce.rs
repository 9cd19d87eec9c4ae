//! `edgeMapReduce` and `edgeMapSum` (Section 2.1).
//!
//! `edgeMapReduce(G, S, M, R, U)` maps `M` over the live edges out of `S`,
//! reduces the mapped values per target vertex with `R`, and applies
//! `U(v, reduced)` to produce a `vertexSubsetData`. k-core uses the `M = 1`,
//! `R = +` specialisation `edgeMapSum` to count, per neighbor, how many of
//! its edges were removed this round.
//!
//! Two implementations:
//! * the default gathers live `(target, value)` pairs and aggregates them
//!   with the semisort (the paper's theoretically-efficient route);
//! * [`edge_map_sum_with_scratch`] is the paper's histogram over a reusable
//!   counter array, in three phases — emit the live targets, count them in
//!   one pass, update each distinct target once — clearing only touched
//!   counters, trading O(n) one-time space for fewer passes (the A3
//!   ablation compares the two). No phase needs a locked read-modify-write;
//!   `ci.sh` keeps it that way.
//!
//! [`edge_map_peel`] is k-core's round with the count kept in the degree
//! word itself: a round on one worker lowers each target's degree as it
//! walks, and only a round that fans out counts through the histogram.

use crate::edge_map::{sparse_blocked, sparse_pieces, trim_grown};
use crate::subset::VertexSubsetData;
use crate::traits::OutEdges;
use julienne_graph::VertexId;
use julienne_primitives::error::Error;
use julienne_primitives::filter::filter_map;
use julienne_primitives::semisort::semisort_by_key;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// `edgeMapReduce`: per-target reduction of mapped edge values.
///
/// `update(v, reduced)` returns `Some(out)` to include `v` in the result.
pub fn edge_map_reduce<G, T, O, M, R, U, Fc>(
    g: &G,
    frontier_ids: &[VertexId],
    map: M,
    reduce: R,
    update: U,
    cond: Fc,
) -> VertexSubsetData<O>
where
    G: OutEdges,
    T: Copy + Send + Sync,
    O: Copy + Send + Sync,
    M: Fn(VertexId, VertexId, G::W) -> T + Send + Sync,
    R: Fn(T, T) -> T + Send + Sync,
    U: Fn(VertexId, T) -> Option<O> + Send + Sync,
    Fc: Fn(VertexId) -> bool + Send + Sync,
{
    let n = g.num_vertices();
    // `(target, M(u,v,w))` for every edge out of the frontier whose target
    // satisfies `cond`.
    let mut pairs = Vec::new();
    sparse_blocked(g, frontier_ids, &mut pairs, |_, list, pairs| {
        let u = list.source;
        list.for_each(|v, w| {
            if cond(v) {
                pairs.push((v, map(u, v, w)));
            }
        });
    });
    if pairs.is_empty() {
        return VertexSubsetData::empty(n);
    }
    let groups = semisort_by_key(&mut pairs, (n - 1) as u32, |p| p.0);
    let entries = filter_map(&groups, |grp| {
        let seg = &pairs[grp.start..grp.start + grp.len];
        let mut acc = seg[0].1;
        for p in &seg[1..] {
            acc = reduce(acc, p.1);
        }
        update(grp.key, acc).map(|o| (grp.key, o))
    });
    VertexSubsetData::from_entries(n, entries)
}

/// `edgeMapSum`: counts live edges per target and applies `update(v, count)`.
pub fn edge_map_sum<G, O, U, Fc>(
    g: &G,
    frontier_ids: &[VertexId],
    update: U,
    cond: Fc,
) -> VertexSubsetData<O>
where
    G: OutEdges,
    O: Copy + Send + Sync,
    U: Fn(VertexId, u32) -> Option<O> + Send + Sync,
    Fc: Fn(VertexId) -> bool + Send + Sync,
{
    edge_map_reduce(g, frontier_ids, |_, _, _| 1u32, |a, b| a + b, update, cond)
}

/// Reusable scratch for [`edge_map_sum_with_scratch`] and
/// [`edge_map_peel`]: the per-vertex counters, allocated by the first call
/// that counts (a peel counts only in a round that fans out), and the
/// peel's owners buffer, kept across rounds.
pub struct SumScratch {
    n: usize,
    counts: OnceLock<Box<[AtomicU32]>>,
    owners: Vec<(VertexId, u32)>,
}

impl SumScratch {
    /// Scratch for an `n`-vertex graph; its counters start at zero.
    pub fn new(n: usize) -> Self {
        SumScratch {
            n,
            counts: OnceLock::new(),
            owners: Vec::new(),
        }
    }

    fn counts(&self) -> &[AtomicU32] {
        self.counts
            .get_or_init(|| (0..self.n).map(|_| AtomicU32::new(0)).collect())
    }
}

/// `edgeMapSum` as a histogram over a persistent counter array: **emit**
/// every live target in (frontier position, edge position) order, **count**
/// them in one sequential pass that also keeps each target's first
/// occurrence, then **update** each distinct target with its count.
/// Counters of touched vertices are reset before returning, keeping per-call
/// work proportional to the traversed edges, and the entry order is the same
/// at every thread count by construction.
pub fn edge_map_sum_with_scratch<G, O, U, Fc>(
    g: &G,
    frontier_ids: &[VertexId],
    update: U,
    cond: Fc,
    scratch: &SumScratch,
) -> VertexSubsetData<O>
where
    G: OutEdges,
    O: Copy + Send + Sync,
    U: Fn(VertexId, u32) -> Option<O> + Send + Sync,
    Fc: Fn(VertexId) -> bool + Send + Sync,
{
    let n = g.num_vertices();
    debug_assert_eq!(scratch.n, n);
    let counts = scratch.counts();
    // In a peel `cond` is a coin flip per edge, so the append must not branch
    // on it: write the slot, keep it iff live.
    let mut live = Vec::new();
    sparse_blocked(g, frontier_ids, &mut live, |_, list, live| {
        list.for_each(|v, _| {
            live.push(v);
            live.truncate(live.len() - usize::from(!cond(v)));
        });
    });
    // First occurrences are compacted into the front of `live` itself:
    // `owners <= i`, so the slot written was already read.
    let mut owners = 0;
    for i in 0..live.len() {
        let v = live[i];
        let count = &counts[v as usize];
        // ORDERING: Relaxed; this pass is the only code touching the counters,
        // on the calling thread, between the joins that end emit and begin update.
        let seen = count.load(Ordering::Relaxed);
        // ORDERING: as the load above: a plain increment.
        count.store(seen + 1, Ordering::Relaxed);
        live[owners] = v;
        owners += usize::from(seen == 0);
    }
    live.truncate(owners);
    let entries = filter_map(&live, |&v| {
        // ORDERING: Relaxed; each owner appears once, so exactly one task reads
        // and clears a counter, and the join after count published it.
        let count = counts[v as usize].load(Ordering::Relaxed);
        // ORDERING: as the load above.
        counts[v as usize].store(0, Ordering::Relaxed);
        update(v, count).map(|o| (v, o))
    });
    VertexSubsetData::from_entries(n, entries)
}

/// Bit 31 of a peel's degree word: the vertex was lowered this round.
const TOUCHED: u32 = 1 << 31;

/// The degree words of a peel over `g`: each vertex's out-degree. Refuses a
/// degree of 2^31 or more, which would reach the round's touched bit
/// (and beyond 2^32 would have been truncated).
pub fn peel_degrees<G: OutEdges>(g: &G) -> Result<Vec<AtomicU32>, Error> {
    (0..g.num_vertices())
        .map(|v| match g.out_degree(v as VertexId) {
            d if d < TOUCHED as usize => Ok(AtomicU32::new(d as u32)),
            d => Err(Error::input(format!(
                "vertex {v} has degree {d}; a peel needs degrees below 2^31"
            ))),
        })
        .collect()
}

/// One peeling round (Algorithm 1, lines 3–10): every *live* target of the
/// frontier's edges — degree word above `floor` — loses one degree per edge
/// from the frontier, clamped at `floor`. Then, in the order of each
/// target's first live edge, `update(v, prev, new)` gets each changed
/// target's round-start and new degree once, and `moves` is refilled with
/// its `Some` results. Returns the edges scanned. Degrees must be below
/// 2^31 ([`peel_degrees`]).
///
/// A round of one piece (the rule the sparse `edgeMap` uses) is one list
/// visitor of the sparse driver that lowers each target's word as it goes, the
/// round's touched bit kept in bit 31 of the word, as Δ-stepping keeps its
/// visited bit: per edge a load, a store of the lowered or unchanged word,
/// and an owners slot written always and kept only on the first touch, with
/// no branch on liveness. The slots are reserved a list at a time, so the
/// owners count stays in a register. The owners pass then clears the bit
/// and calls `update`. A round that fans out takes the same owners, in the
/// same order, from [`edge_map_sum_with_scratch`]'s three phases, so the
/// result is the same at every thread count.
///
/// Happens-before, once for every access to `degrees` below: in a round of
/// one piece, one worker — the caller — owns every word during the walk,
/// and the owners pass runs after it on the same thread; in a round that
/// fans out, each phase is one parallel call whose join publishes its
/// writes, emit only reads words and update writes each from one task. The
/// caller's buckets read the words only inside `next_bucket`, after the
/// owners pass has cleared bit 31. So every access is `Relaxed`.
pub fn edge_map_peel<G, O, U>(
    g: &G,
    frontier_ids: &[VertexId],
    degrees: &[AtomicU32],
    floor: u32,
    scratch: &mut SumScratch,
    moves: &mut Vec<(VertexId, O)>,
    update: U,
) -> u64
where
    G: OutEdges,
    U: Fn(VertexId, u32, u32) -> Option<O>,
{
    let edges: usize = frontier_ids.iter().map(|&u| g.out_degree(u)).sum();
    let pieces = sparse_pieces(edges);
    let mut owners = std::mem::take(&mut scratch.owners);
    owners.clear();
    let capacity = (owners.capacity(), moves.capacity());
    if pieces <= 1 {
        // One worker walks the round, in whole lists.
        sparse_blocked(g, frontier_ids, &mut owners, |_, list, owners| {
            owners.reserve(list.len);
            let slots = owners.spare_capacity_mut();
            let mut kept = 0;
            list.for_each(|v, _| {
                let word = &degrees[v as usize];
                // ORDERING: Relaxed; the caller owns every word during the walk.
                let d = word.load(Ordering::Relaxed);
                let live = d & !TOUCHED > floor;
                // ORDERING: as the load above.
                word.store(if live { (d - 1) | TOUCHED } else { d }, Ordering::Relaxed);
                slots[kept].write((v, d));
                kept += usize::from(live & (d < TOUCHED));
            });
            // SAFETY: every edge writes `slots[kept]` (bounds-checked) before
            // `kept` can pass it, so `slots[..kept]` is initialised.
            unsafe { owners.set_len(owners.len() + kept) };
        });
    } else {
        let lowered = edge_map_sum_with_scratch(
            g,
            frontier_ids,
            |v, removed| {
                let word = &degrees[v as usize];
                // ORDERING: Relaxed; update writes each word from one task.
                let d = word.load(Ordering::Relaxed);
                // ORDERING: as the load above.
                word.store(d.saturating_sub(removed).max(floor), Ordering::Relaxed);
                Some(d)
            },
            // ORDERING: Relaxed; emit only reads the words.
            |v| degrees[v as usize].load(Ordering::Relaxed) > floor,
            scratch,
        );
        owners.extend_from_slice(lowered.entries());
    }
    moves.clear();
    for &(v, prev) in &owners {
        let word = &degrees[v as usize];
        // ORDERING: Relaxed; the owners pass runs on the caller's thread after
        // the walk or the update phase's join.
        let new = word.load(Ordering::Relaxed) & !TOUCHED;
        // ORDERING: as the load above.
        word.store(new, Ordering::Relaxed);
        moves.extend(update(v, prev, new).map(|o| (v, o)));
    }
    trim_grown(&mut owners, capacity.0);
    trim_grown(moves, capacity.1);
    scratch.owners = owners;
    edges as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs;

    fn diamond() -> julienne_graph::Graph {
        // 0 and 1 both point at 2 and 3; 2 points at 3.
        from_pairs(4, &[(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn sum_counts_in_edges_from_frontier() {
        let g = diamond();
        let out = edge_map_sum(&g, &[0, 1], |v, c| Some((v, c)), |_| true);
        let mut entries: Vec<_> = out.entries().to_vec();
        entries.sort_by_key(|&(v, _)| v);
        assert_eq!(entries, vec![(2, (2, 2)), (3, (3, 2))]);
    }

    #[test]
    fn cond_excludes_targets() {
        let g = diamond();
        let out = edge_map_sum(&g, &[0, 1], |_, c| Some(c), |v| v != 3);
        assert_eq!(out.entries(), &[(2, 2)]);
    }

    #[test]
    fn update_none_drops() {
        let g = diamond();
        let out = edge_map_sum(
            &g,
            &[0, 1, 2],
            |_, c| if c >= 3 { Some(c) } else { None },
            |_| true,
        );
        // target 3 has in-edges from 0,1,2 = 3; target 2 only 2.
        assert_eq!(out.entries(), &[(3, 3)]);
    }

    #[test]
    fn scratch_variant_agrees_with_sort_variant() {
        use julienne_graph::generators::erdos_renyi;
        let g = erdos_renyi(500, 4000, 3, false);
        let frontier: Vec<VertexId> = (0..250).collect();
        let scratch = SumScratch::new(500);
        let a = edge_map_sum(&g, &frontier, |_, c| Some(c), |v| v % 3 != 0);
        let b = edge_map_sum_with_scratch(&g, &frontier, |_, c| Some(c), |v| v % 3 != 0, &scratch);
        let mut ea: Vec<_> = a.entries().to_vec();
        let mut eb: Vec<_> = b.entries().to_vec();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
        // Scratch must be fully cleared for reuse.
        let counts = scratch.counts();
        // ORDERING: Relaxed; the call above has returned.
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 0));
    }

    /// Two vertices claiming degrees `degree` and 0, with no edges.
    struct ClaimedDegree(usize);

    impl OutEdges for ClaimedDegree {
        type W = ();
        fn num_vertices(&self) -> usize {
            2
        }
        fn num_edges(&self) -> usize {
            self.0
        }
        fn out_degree(&self, v: VertexId) -> usize {
            if v == 0 {
                self.0
            } else {
                0
            }
        }
        fn for_each_out<F: FnMut(VertexId, ())>(&self, _: VertexId, _: F) {}
    }

    #[test]
    fn peel_degrees_refuse_what_reaches_the_touched_bit() {
        let words = peel_degrees(&ClaimedDegree(TOUCHED as usize - 1)).unwrap();
        assert_eq!(
            words
                .into_iter()
                .map(AtomicU32::into_inner)
                .collect::<Vec<_>>(),
            [TOUCHED - 1, 0]
        );
        for degree in [TOUCHED as usize, 1 << 32, (1 << 32) + 3] {
            let err = peel_degrees(&ClaimedDegree(degree)).unwrap_err();
            assert!(matches!(err, Error::Input(_)), "{degree}: {err:?}");
        }
    }

    #[test]
    fn peel_lowers_live_targets_once_and_clears_the_bit() {
        let g = diamond();
        // 2 is live above floor 1; 3 sits at the floor and stays.
        let degrees: Vec<AtomicU32> = [5, 5, 4, 1].map(AtomicU32::new).into();
        let mut scratch = SumScratch::new(4);
        let mut moves = Vec::new();
        let edges = edge_map_peel(
            &g,
            &[0, 1],
            &degrees,
            1,
            &mut scratch,
            &mut moves,
            |v, p, n| Some((v, p, n)),
        );
        assert_eq!(edges, 4);
        assert_eq!(moves, [(2, (2, 4, 2))]);
        let words: Vec<u32> = degrees.into_iter().map(AtomicU32::into_inner).collect();
        assert_eq!(words, [5, 5, 2, 1]);
    }

    #[test]
    fn reduce_with_max_monoid() {
        let g = diamond();
        // value = source id; reduce = max → per-target max source.
        let out = edge_map_reduce(
            &g,
            &[0, 1, 2],
            |u, _, _| u,
            |a, b| a.max(b),
            |_, m| Some(m),
            |_| true,
        );
        let mut entries: Vec<_> = out.entries().to_vec();
        entries.sort_by_key(|&(v, _)| v);
        assert_eq!(entries, vec![(2, 1), (3, 2)]);
    }

    #[test]
    fn empty_frontier() {
        let g = diamond();
        let out = edge_map_sum(&g, &[], |_, c| Some(c), |_| true);
        assert!(out.is_empty());
    }
}
