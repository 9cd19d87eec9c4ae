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

use crate::edge_map::sparse_blocked;
use crate::subset::VertexSubsetData;
use crate::traits::OutEdges;
use julienne_graph::VertexId;
use julienne_primitives::filter::filter_map;
use julienne_primitives::semisort::semisort_by_key;
use std::sync::atomic::{AtomicU32, Ordering};

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
    sparse_blocked(g, frontier_ids, &mut pairs, |_, u, v, w, pairs| {
        if cond(v) {
            pairs.push((v, map(u, v, w)));
        }
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

/// Reusable counter array for [`edge_map_sum_with_scratch`].
pub struct SumScratch {
    counts: Vec<AtomicU32>,
}

impl SumScratch {
    /// Allocates counters for an `n`-vertex graph (all zero).
    pub fn new(n: usize) -> Self {
        SumScratch {
            counts: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
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
    debug_assert_eq!(scratch.counts.len(), n);
    // In a peel `cond` is a coin flip per edge, so the append must not branch
    // on it: write the slot, keep it iff live.
    let mut live = Vec::new();
    sparse_blocked(g, frontier_ids, &mut live, |_, _, v, _, live| {
        live.push(v);
        live.truncate(live.len() - usize::from(!cond(v)));
    });
    // ORDERING: this pass is the only code touching the counters and it runs
    // on the calling thread, so `Relaxed` load + store is a plain increment;
    // the fork–join around it orders it against the other two phases.
    // First occurrences are compacted into the front of `live` itself:
    // `owners <= i`, so the slot written was already read.
    let mut owners = 0;
    for i in 0..live.len() {
        let v = live[i];
        let count = &scratch.counts[v as usize];
        let seen = count.load(Ordering::Relaxed);
        count.store(seen + 1, Ordering::Relaxed);
        live[owners] = v;
        owners += usize::from(seen == 0);
    }
    live.truncate(owners);
    // Each owner appears once, so exactly one task reads and clears a counter.
    let entries = filter_map(&live, |&v| {
        let count = scratch.counts[v as usize].load(Ordering::Relaxed);
        scratch.counts[v as usize].store(0, Ordering::Relaxed);
        update(v, count).map(|o| (v, o))
    });
    VertexSubsetData::from_entries(n, entries)
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
        assert!(scratch
            .counts
            .iter()
            .all(|c| c.load(Ordering::Relaxed) == 0));
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
