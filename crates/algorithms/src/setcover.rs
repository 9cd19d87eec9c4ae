//! Work-efficient approximate set cover (Section 4.3, Algorithm 3).
//!
//! Implements the Blelloch–Peng–Tangwongsan bucketing algorithm: sets are
//! bucketed by `⌊log_{1+ε} D[s]⌋` (uncovered elements covered) and processed
//! from the costliest bucket down; each round fuses one MaNIS step — active
//! sets reserve uncovered elements with `writeMin` (ties to the smaller set
//! id), sets that won enough join the cover, the rest release their
//! reservations and are **rebucketed** (the step the PBBS comparator skips,
//! making it work-inefficient).
//!
//! One deliberate deviation from the pseudocode: the WonEnough threshold is
//! the *float* `(1+ε)^(b−1)` rather than `⌈(1+ε)^max(b−1,0)⌉`, and the test
//! is `elmsWon > threshold`. With the integer ceiling as literally written,
//! a degree-1 set in bucket 0 can never win (`1 > 1` fails) and the
//! algorithm livelocks; with the float threshold the smallest-id active set
//! always wins all of its elements and is chosen, so every round makes
//! progress while the per-bucket (1+ε) approximation factor is preserved.
//!
//! Every phase of a round that walks lists (pack, reserve, count and
//! commit) is a visit of the one sparse edgeMap driver, and every atomic
//! access is `Relaxed`: each phase is one call whose join publishes its
//! writes before the next phase reads them (DESIGN §6), and within a phase
//! only `writeMin`'s atomicity, not its ordering, matters.

use julienne::bucket::{BucketId, Bucketing, Order, NULL_BKT};
use julienne::query::QueryCtx;
use julienne::telemetry::{Counter, Phase};
use julienne::Error;
use julienne_graph::generators::SetCoverInstance;
use julienne_graph::packed::PackedGraph;
use julienne_graph::VertexId;
use julienne_ligra::EdgeMap;
use julienne_primitives::atomics::write_min_u32;
use julienne_primitives::bitset::AtomicBitSet;
use julienne_primitives::filter::pack_index;
use std::sync::atomic::{AtomicU32, Ordering};

/// Marker for sets that joined the cover (the pseudocode's `D[s] = ∞`).
const IN_COVER: u32 = u32::MAX;
/// Marker for unreserved elements (the pseudocode's `El[e] = ∞`).
const UNRESERVED: u32 = u32::MAX;

/// Result of a set-cover computation.
#[derive(Clone, Debug)]
pub struct SetCoverResult {
    /// Ids of the chosen sets.
    pub cover: Vec<VertexId>,
    /// For each element, the chosen set covering it (`u32::MAX` if the
    /// element was uncoverable, which cannot happen for generated
    /// instances).
    pub assignment: Vec<u32>,
    /// Bucket rounds executed.
    pub rounds: u64,
    /// Total set-element edges examined.
    pub edges_examined: u64,
}

/// Computes `⌊log_{1+ε} d⌋` (the paper's `BucketNum`), or `NULL_BKT` for
/// degree 0 / in-cover sets.
#[inline]
fn bucket_num(d: u32, inv_log1p_eps: f64) -> BucketId {
    if d == 0 || d == IN_COVER {
        return NULL_BKT;
    }
    ((d as f64).ln() * inv_log1p_eps).floor() as BucketId
}

/// Parameters for [`cover`]: the approximation knob ε.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetCoverParams {
    /// Bucketing granularity ε; the per-bucket approximation factor is
    /// (1+ε). The paper's experiments use ε = 0.01. Must be > 0.
    pub eps: f64,
}

impl Default for SetCoverParams {
    fn default() -> Self {
        SetCoverParams { eps: 0.01 }
    }
}

/// Work-efficient approximate set cover (Algorithm 3): the single entry
/// point behind the `setcover` registry id.
///
/// Bucket window and telemetry scope come from `ctx`'s engine; each bucket
/// round emits a round record. The context is polled once per round: a
/// cancelled or deadline-expired query returns `Err` with no partial
/// output, dropping its buckets on the way out.
pub fn cover(
    inst: &SetCoverInstance,
    params: &SetCoverParams,
    ctx: &QueryCtx,
) -> Result<SetCoverResult, Error> {
    let eps = params.eps;
    if eps.is_nan() || eps <= 0.0 {
        return Err(Error::usage("eps must be > 0"));
    }
    let engine = ctx.engine();
    let num_sets = inst.num_sets;
    let num_elements = inst.num_elements;
    let inv_log1p_eps = 1.0 / (1.0 + eps).ln();

    let packed = PackedGraph::from_csr(&inst.graph);
    // El: element → reserving set (offset by num_sets in vertex space).
    let el: Vec<AtomicU32> = (0..num_elements)
        .map(|_| AtomicU32::new(UNRESERVED))
        .collect();
    let covered = AtomicBitSet::new(num_elements);
    // D: remaining uncovered elements per set; IN_COVER once chosen.
    let d: Vec<AtomicU32> = (0..num_sets)
        .map(|s| AtomicU32::new(inst.graph.degree(s as VertexId) as u32))
        .collect();

    let elem_idx = |e: VertexId| (e as usize) - num_sets;
    // ORDERING: Relaxed; the buckets read D between phases, after a join.
    let d_fun = |s: u32| bucket_num(d[s as usize].load(Ordering::Relaxed), inv_log1p_eps);
    let mut buckets = engine.buckets(num_sets, d_fun, Order::Decreasing);
    let telemetry = engine.telemetry();
    // Untraced walks: each round records its own counters below.
    let em = EdgeMap::new(&packed);

    let mut rounds = 0u64;
    let mut edges_examined = 0u64;
    // Round buffers, refilled in place every round: the extracted sets, the
    // active ones and the bucket moves. The reserve and commit walks append
    // nothing.
    let (mut sets, mut active, mut rebucket) = (vec![], vec![], vec![]);
    let none = &mut Vec::<()>::new();

    loop {
        // Round boundary: a cancelled/expired query unwinds here, dropping
        // the bucket structure and reservation arrays with it.
        ctx.check()?;
        let mut span = telemetry.span();
        let Some(b) = span.lap(Phase::NextBucket, buckets.next_bucket_into(&mut sets)) else {
            break;
        };
        rounds += 1;

        // Phase 1 (lines 25–27): pack out covered elements, refresh D, and
        // keep the sets still above this bucket's threshold active, in
        // frontier order. The walk returns the pre-pack degree sum: the
        // round's edges examined.
        let threshold_active = (1.0 + eps).powi(b as i32).ceil() as u32;
        let round_edges = em.run_sparse_at(&sets, &mut active, |_, list, active| {
            let s = list.source;
            // Packing during the visit is safe: a packed list is never
            // chunked, so this is the one visit of `s`'s list.
            debug_assert_eq!(list.len, packed.degree(s), "a packed list is visited whole");
            let deg = packed.pack_list(s, |e| !covered.get(elem_idx(e)));
            // ORDERING: Relaxed; only this visit writes `s`'s word, and the
            // walk's join publishes it.
            d[s as usize].store(deg, Ordering::Relaxed);
            if deg >= threshold_active {
                active.push(s);
            }
        });
        span.lap(Phase::Walk, ());
        edges_examined += round_edges;

        // Phase 2 (lines 28–30): one MaNIS step. Active sets reserve their
        // elements (smallest id wins): every element left in an active
        // set's list after this round's pack is uncovered, and nothing is
        // covered before the commit.
        em.run_sparse_at(&active, none, |_, list, _| {
            list.for_each(|e, ()| {
                write_min_u32(&el[elem_idx(e)], list.source);
            });
        });
        // Phase 3 (lines 30–31): a set that won more than (1+ε)^(b−1)
        // elements joins the cover and marks them covered; the rest release
        // their reservations. Counting and committing in one visit is
        // race-free: a visit writes `el[e]` only where `el[e] == s`, and no
        // other visit compares `el[e]` against `s`, so a concurrent release
        // (another set's id turning UNRESERVED) never changes this count.
        let threshold_win = (1.0 + eps).powi(b as i32 - 1);
        em.run_sparse_at(&active, none, |_, list, _| {
            let s = list.source;
            // ORDERING: Relaxed; the reserve walk's join published every
            // reservation, and only `s` writes an element that holds `s`.
            let mine = |e: VertexId| el[elem_idx(e)].load(Ordering::Relaxed) == s;
            let mut won = 0u32;
            list.for_each(|e, ()| won += u32::from(mine(e)));
            let chosen = won as f64 > threshold_win;
            if chosen {
                // ORDERING: Relaxed; only this visit writes `s`'s word.
                d[s as usize].store(IN_COVER, Ordering::Relaxed);
            }
            list.for_each(|e, ()| {
                if mine(e) {
                    if chosen {
                        covered.set(elem_idx(e));
                    } else {
                        // ORDERING: Relaxed; as the load in `mine`.
                        el[elem_idx(e)].store(UNRESERVED, Ordering::Relaxed);
                    }
                }
            });
        });
        span.lap(Phase::EdgeMap, ());

        // Phase 4 (lines 32–33): rebucket every extracted set that did not
        // join the cover.
        rebucket.clear();
        rebucket.extend(sets.iter().filter_map(|&s| {
            // ORDERING: Relaxed; the commit walk's join published D.
            let deg = d[s as usize].load(Ordering::Relaxed);
            (deg != IN_COVER).then(|| (s, buckets.get_bucket(s, b, bucket_num(deg, inv_log1p_eps))))
        }));
        span.lap(Phase::Reset, ());
        buckets.update_buckets(&rebucket);
        span.lap(Phase::UpdateBuckets, ());
        telemetry.add(Counter::VerticesScanned, sets.len() as u64);
        telemetry.add(Counter::EdgesScanned, round_edges);
        // "Relaxed" here: the sets that joined the cover this round.
        let joined = (sets.len() - rebucket.len()) as u64;
        telemetry.finish_round(span, rounds - 1, b, sets.len(), round_edges, joined);
    }

    // ORDERING: Relaxed; the last round's joins published D.
    let cover = pack_index(num_sets, |s| d[s].load(Ordering::Relaxed) == IN_COVER);
    let assignment: Vec<u32> = el.into_iter().map(AtomicU32::into_inner).collect();

    Ok(SetCoverResult {
        cover,
        assignment,
        rounds,
        edges_examined,
    })
}

/// Checks that `cover` covers every element of the instance: a visit of
/// each chosen set's list marks its elements, so a list that arrives in
/// chunks marks the same elements.
pub fn verify_cover(inst: &SetCoverInstance, cover: &[VertexId]) -> bool {
    let covered = AtomicBitSet::new(inst.num_elements);
    EdgeMap::new(&inst.graph).run_sparse_at(cover, &mut Vec::<()>::new(), |_, list, _| {
        list.for_each(|e, _| {
            covered.set(e as usize - inst.num_sets);
        });
    });
    covered.into_bitset().count_ones() == inst.num_elements
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setcover_baselines::set_cover_greedy_seq;
    use julienne_graph::generators::set_cover_instance;

    /// Shorthand: default context, panic on lifecycle/usage errors.
    fn run(inst: &SetCoverInstance, eps: f64) -> SetCoverResult {
        cover(inst, &SetCoverParams { eps }, &QueryCtx::default()).unwrap()
    }

    #[test]
    fn covers_small_instances() {
        for seed in 0..5 {
            let inst = set_cover_instance(20, 200, 3, seed);
            let r = run(&inst, 0.01);
            assert!(verify_cover(&inst, &r.cover), "seed {seed}");
            assert!(!verify_cover(&inst, &[]), "seed {seed}");
            assert!(!r.cover.is_empty());
        }
    }

    #[test]
    fn covers_larger_instance() {
        let inst = set_cover_instance(300, 20_000, 4, 42);
        let r = run(&inst, 0.01);
        assert!(verify_cover(&inst, &r.cover));
    }

    #[test]
    fn cost_close_to_greedy() {
        // The (1+ε)Hₙ guarantee: our cover should be within a small factor
        // of sequential greedy.
        let inst = set_cover_instance(200, 10_000, 4, 7);
        let jul = run(&inst, 0.01);
        let greedy = set_cover_greedy_seq(&inst);
        assert!(verify_cover(&inst, &jul.cover));
        assert!(verify_cover(&inst, &greedy.cover));
        let ratio = jul.cover.len() as f64 / greedy.cover.len() as f64;
        assert!(ratio <= 2.0, "parallel cover {}x larger than greedy", ratio);
    }

    #[test]
    fn assignment_consistent_with_cover() {
        let inst = set_cover_instance(50, 2000, 3, 9);
        let r = run(&inst, 0.05);
        let in_cover: std::collections::HashSet<u32> = r.cover.iter().copied().collect();
        for (e, &s) in r.assignment.iter().enumerate() {
            if s != u32::MAX {
                assert!(
                    in_cover.contains(&s),
                    "element {e} assigned to non-cover set {s}"
                );
                // s really contains e.
                assert!(inst.graph.neighbors(s).contains(&inst.element_vertex(e)));
            }
        }
        // Every element must be assigned (instance guarantees coverage).
        assert!(r.assignment.iter().all(|&s| s != u32::MAX));
    }

    #[test]
    fn eps_variations_all_valid() {
        let inst = set_cover_instance(100, 5000, 3, 11);
        for eps in [0.01, 0.1, 0.5, 1.0] {
            let r = run(&inst, eps);
            assert!(verify_cover(&inst, &r.cover), "eps {eps}");
        }
    }

    #[test]
    fn single_set_instance() {
        // One set covering everything: cover = {0}.
        let inst = set_cover_instance(1, 50, 1, 3);
        let r = run(&inst, 0.01);
        assert_eq!(r.cover, vec![0]);
        assert!(verify_cover(&inst, &r.cover));
    }
}
