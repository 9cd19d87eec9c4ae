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
//! Every atomic access is `Relaxed`: each phase of a round (pack, reserve,
//! count wins, commit/release, rebucket) is one parallel call whose join
//! publishes its writes before the next phase reads them (DESIGN §6), and
//! within a phase only `writeMin`'s atomicity, not its ordering, matters.

use julienne::bucket::{BucketDest, BucketId, Bucketing, Order, NULL_BKT};
use julienne::query::QueryCtx;
use julienne::telemetry::Counter;
use julienne::Error;
use julienne_graph::generators::SetCoverInstance;
use julienne_graph::packed::PackedGraph;
use julienne_graph::VertexId;
use julienne_ligra::edge_map_filter::edge_map_filter_pack;
use julienne_ligra::EdgeMap;
use julienne_primitives::atomics::write_min_u32;
use julienne_primitives::bitset::AtomicBitSet;
use julienne_primitives::filter::filter_map;
use rayon::prelude::*;
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

    loop {
        // Round boundary: a cancelled/expired query unwinds here, dropping
        // the bucket structure and reservation arrays with it.
        ctx.check()?;
        let span = telemetry.span();
        let Some((b, sets)) = buckets.next_bucket() else {
            break;
        };
        rounds += 1;
        let round_edges: u64 = sets.par_iter().map(|&s| packed.degree(s) as u64).sum();
        edges_examined += round_edges;

        // Phase 1 (lines 25–27): pack out covered elements, refresh D, and
        // keep the sets still above this bucket's threshold active.
        let sets_d = edge_map_filter_pack(&packed, &sets, |_s, e| !covered.get(elem_idx(e)));
        sets_d.entries().par_iter().for_each(|&(s, new_deg)| {
            // ORDERING: Relaxed; one task writes each set's word, and the
            // join publishes it.
            d[s as usize].store(new_deg, Ordering::Relaxed);
        });
        let threshold_active = (1.0 + eps).powi(b as i32).ceil() as u32;
        let active = filter_map(sets_d.entries(), |&(s, deg)| {
            (deg >= threshold_active).then_some(s)
        });

        if !active.is_empty() {
            // Phase 2 (lines 28–30): one MaNIS step. Active sets reserve
            // uncovered elements (smallest id wins), then sets that won
            // more than (1+ε)^(b−1) elements join the cover.
            // The walks append nothing; a packed list is never split, so
            // each visit sees a set's whole list.
            let none = &mut Vec::<()>::new();
            em.run_sparse_at(&active, none, |_, list, _| {
                list.for_each(|e, ()| {
                    if !covered.get(elem_idx(e)) {
                        write_min_u32(&el[elem_idx(e)], list.source);
                    }
                });
            });
            let threshold_win = (1.0 + eps).powi(b as i32 - 1);
            em.run_sparse_at(&active, none, |_, list, _| {
                let s = list.source;
                let mut won = 0u32;
                // ORDERING: Relaxed; the reservations were published by the
                // join that ended the reserve walk.
                list.for_each(|e, ()| {
                    won += u32::from(el[elem_idx(e)].load(Ordering::Relaxed) == s)
                });
                if won as f64 > threshold_win {
                    // ORDERING: Relaxed; only this visit writes `s`'s word.
                    d[s as usize].store(IN_COVER, Ordering::Relaxed);
                }
            });

            // Phase 3 (line 31): mark elements of chosen sets covered;
            // release reservations of the rest.
            em.run_sparse_at(&active, none, |_, list, _| {
                let s = list.source;
                // ORDERING: Relaxed; the count walk's join published D.
                let chosen = d[s as usize].load(Ordering::Relaxed) == IN_COVER;
                list.for_each(|e, ()| {
                    let ei = elem_idx(e);
                    // ORDERING: Relaxed; only the set holding `ei`'s
                    // reservation writes it, and no other set matches either
                    // value the others may read.
                    if el[ei].load(Ordering::Relaxed) == s {
                        if chosen {
                            covered.set(ei);
                        } else {
                            // ORDERING: as the load above.
                            el[ei].store(UNRESERVED, Ordering::Relaxed);
                        }
                    }
                });
            });
        }

        // Phase 4 (lines 32–33): rebucket every extracted set that did not
        // join the cover.
        let rebucket: Vec<(u32, BucketDest)> = filter_map(&sets, |&s| {
            // ORDERING: Relaxed; the commit walk's join published D.
            let deg = d[s as usize].load(Ordering::Relaxed);
            if deg == IN_COVER {
                return None;
            }
            Some((s, buckets.get_bucket(s, b, bucket_num(deg, inv_log1p_eps))))
        });
        buckets.update_buckets(&rebucket);
        telemetry.add(Counter::VerticesScanned, sets.len() as u64);
        telemetry.add(Counter::EdgesScanned, round_edges);
        // "Relaxed" here: the sets that joined the cover this round.
        let joined = (sets.len() - rebucket.len()) as u64;
        telemetry.finish_round(span, rounds - 1, b, sets.len(), round_edges, joined);
    }

    let cover: Vec<VertexId> = filter_map(&(0..num_sets as u32).collect::<Vec<_>>(), |&s| {
        // ORDERING: Relaxed; the last round's joins published D.
        (d[s as usize].load(Ordering::Relaxed) == IN_COVER).then_some(s)
    });
    let assignment: Vec<u32> = el.into_iter().map(AtomicU32::into_inner).collect();

    Ok(SetCoverResult {
        cover,
        assignment,
        rounds,
        edges_examined,
    })
}

/// Checks that `cover` covers every element of the instance.
pub fn verify_cover(inst: &SetCoverInstance, cover: &[VertexId]) -> bool {
    let mut in_cover = vec![false; inst.num_sets];
    for &s in cover {
        in_cover[s as usize] = true;
    }
    (0..inst.num_elements).into_par_iter().all(|e| {
        inst.graph
            .neighbors(inst.element_vertex(e))
            .iter()
            .any(|&s| in_cover[s as usize])
    })
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
