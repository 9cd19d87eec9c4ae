//! Set-cover baselines: the sequential greedy algorithm and the PBBS-style
//! work-inefficient parallel comparator of Table 3 / Figure 5.
//!
//! The comparator's atomics are `Relaxed`, as in `setcover.rs`: each phase
//! of a round is one parallel call whose join publishes its writes before
//! the next phase reads them.

use crate::setcover::SetCoverResult;
use julienne_graph::generators::SetCoverInstance;
use julienne_graph::packed::PackedGraph;
use julienne_graph::VertexId;
use julienne_primitives::atomics::write_min_u32;
use julienne_primitives::bitset::AtomicBitSet;
use julienne_primitives::filter::pack_index;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential greedy set cover (Johnson): repeatedly choose the set
/// covering the most uncovered elements. Hₙ-approximate; implemented with a
/// lazy max-heap (degrees only decrease, so a stale pop is re-keyed).
pub fn set_cover_greedy_seq(inst: &SetCoverInstance) -> SetCoverResult {
    let num_sets = inst.num_sets;
    let num_elements = inst.num_elements;
    let mut covered = vec![false; num_elements];
    let mut assignment = vec![u32::MAX; num_elements];
    let mut cover = Vec::new();
    let mut uncovered_left = num_elements;
    let mut edges_examined = 0u64;

    let mut heap: BinaryHeap<(u32, Reverse<VertexId>)> = (0..num_sets as VertexId)
        .map(|s| (inst.graph.degree(s) as u32, Reverse(s)))
        .collect();

    while uncovered_left > 0 {
        let (claimed, Reverse(s)) = heap.pop().expect("uncovered elements but no sets left");
        if claimed == 0 {
            panic!("instance not coverable");
        }
        // Lazy re-key: recompute the true uncovered count.
        let actual = inst
            .graph
            .neighbors(s)
            .iter()
            .filter(|&&e| !covered[(e as usize) - num_sets])
            .count() as u32;
        edges_examined += inst.graph.degree(s) as u64;
        if actual < claimed {
            if actual > 0 {
                heap.push((actual, Reverse(s)));
            }
            continue;
        }
        // Choose s.
        cover.push(s);
        for &e in inst.graph.neighbors(s) {
            let ei = (e as usize) - num_sets;
            if !covered[ei] {
                covered[ei] = true;
                assignment[ei] = s;
                uncovered_left -= 1;
            }
        }
    }

    SetCoverResult {
        cover,
        assignment,
        rounds: 0,
        edges_examined,
    }
}

/// PBBS-style work-inefficient parallel set cover: the same bucketed MaNIS
/// rounds as Algorithm 3, but unchosen sets are **carried to the next
/// round and rescanned** instead of being rebucketed — every round touches
/// all undecided sets, the inefficiency the paper's Figure 5 exposes.
pub fn set_cover_pbbs_style(inst: &SetCoverInstance, eps: f64) -> SetCoverResult {
    assert!(eps > 0.0);
    let num_sets = inst.num_sets;
    let num_elements = inst.num_elements;
    let packed = PackedGraph::from_csr(&inst.graph);
    let el: Vec<AtomicU32> = (0..num_elements)
        .map(|_| AtomicU32::new(u32::MAX))
        .collect();
    let covered = AtomicBitSet::new(num_elements);
    let decided: Vec<AtomicU32> = (0..num_sets).map(|_| AtomicU32::new(0)).collect();
    let elem_idx = |e: VertexId| (e as usize) - num_sets;

    let max_deg = (0..num_sets as VertexId)
        .map(|s| inst.graph.degree(s))
        .max()
        .unwrap_or(0) as f64;
    let mut b = if max_deg >= 1.0 {
        (max_deg.ln() / (1.0 + eps).ln()).floor() as i64
    } else {
        -1
    };

    let mut rounds = 0u64;
    let mut edges_examined = 0u64;

    while b >= 0 {
        // Work-inefficiency: scan ALL undecided sets every round.
        // ORDERING: Relaxed; the last round's joins published `decided`.
        let undecided = pack_index(num_sets, |s| decided[s].load(Ordering::Relaxed) == 0);
        if undecided.is_empty() {
            break;
        }
        rounds += 1;
        edges_examined += undecided
            .par_iter()
            .map(|&s| packed.degree(s) as u64)
            .sum::<u64>();

        // Pack covered elements out of every undecided set; sets with no
        // uncovered elements left are decided (not in cover).
        let threshold_active = (1.0 + eps).powi(b as i32).ceil() as u32;
        let active: Vec<VertexId> = undecided
            .par_iter()
            .filter_map(|&s| {
                let deg = packed.pack_list(s, |e| !covered.get(elem_idx(e)));
                if deg == 0 {
                    // ORDERING: Relaxed; one task writes each set's word,
                    // and the join publishes it.
                    decided[s as usize].store(2, Ordering::Relaxed);
                }
                (deg >= threshold_active).then_some(s)
            })
            .collect();
        if active.is_empty() {
            b -= 1;
            continue;
        }

        // MaNIS step (identical to the Julienne version).
        active.par_iter().for_each(|&s| {
            for e in packed.neighbors(s) {
                let ei = elem_idx(e);
                if !covered.get(ei) {
                    write_min_u32(&el[ei], s);
                }
            }
        });
        let threshold_win = (1.0 + eps).powi(b as i32 - 1);
        active.par_iter().for_each(|&s| {
            let won = packed
                .neighbors(s)
                .iter()
                .filter(|&&e| {
                    // ORDERING: Relaxed; the reserve pass's join published `el`.
                    el[elem_idx(e)].load(Ordering::Relaxed) == s
                })
                .count();
            if won as f64 > threshold_win {
                // ORDERING: Relaxed; only this task writes `s`'s word.
                decided[s as usize].store(1, Ordering::Relaxed); // in cover
            }
        });
        active.par_iter().for_each(|&s| {
            for e in packed.neighbors(s) {
                let ei = elem_idx(e);
                // ORDERING: Relaxed; the count pass's join published `el` and
                // `decided`, and only `s` writes an element that holds `s`.
                if el[ei].load(Ordering::Relaxed) == s {
                    // ORDERING: as above.
                    if decided[s as usize].load(Ordering::Relaxed) == 1 {
                        covered.set(ei);
                    } else {
                        // ORDERING: as above.
                        el[ei].store(u32::MAX, Ordering::Relaxed);
                    }
                }
            }
        });
    }

    // ORDERING: Relaxed; the last round's joins published `decided`.
    let cover = pack_index(num_sets, |s| decided[s].load(Ordering::Relaxed) == 1);
    SetCoverResult {
        cover,
        assignment: el.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
        edges_examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setcover::{cover, verify_cover, SetCoverParams};
    use julienne::query::QueryCtx;
    use julienne_graph::generators::set_cover_instance;

    fn julienne_cover(inst: &SetCoverInstance, eps: f64) -> SetCoverResult {
        cover(inst, &SetCoverParams { eps }, &QueryCtx::default()).unwrap()
    }

    #[test]
    fn greedy_covers_and_is_minimal_ish() {
        let inst = set_cover_instance(50, 2000, 3, 1);
        let r = set_cover_greedy_seq(&inst);
        assert!(verify_cover(&inst, &r.cover));
        assert!(!r.cover.is_empty() && r.cover.len() <= inst.num_sets);
        // Every element assigned to a cover set.
        assert!(r.assignment.iter().all(|&s| s != u32::MAX));
        // Greedy picks sets in non-increasing marginal-gain order; the first
        // pick must be a maximum-degree set.
        let max_deg = (0..inst.num_sets as u32)
            .map(|s| inst.graph.degree(s))
            .max()
            .unwrap();
        assert_eq!(inst.graph.degree(r.cover[0]), max_deg);
    }

    #[test]
    fn pbbs_style_covers() {
        for seed in 0..3 {
            let inst = set_cover_instance(80, 4000, 3, seed);
            let r = set_cover_pbbs_style(&inst, 0.01);
            assert!(verify_cover(&inst, &r.cover), "seed {seed}");
        }
    }

    #[test]
    fn pbbs_examines_more_edges_than_julienne() {
        let inst = set_cover_instance(400, 20_000, 4, 5);
        let jul = julienne_cover(&inst, 0.01);
        let pbbs = set_cover_pbbs_style(&inst, 0.01);
        assert!(verify_cover(&inst, &jul.cover));
        assert!(verify_cover(&inst, &pbbs.cover));
        assert!(
            pbbs.edges_examined > jul.edges_examined,
            "pbbs {} vs julienne {}",
            pbbs.edges_examined,
            jul.edges_examined
        );
    }

    #[test]
    fn covers_of_same_quality_family() {
        let inst = set_cover_instance(150, 8000, 4, 13);
        let jul = julienne_cover(&inst, 0.01);
        let pbbs = set_cover_pbbs_style(&inst, 0.01);
        let greedy = set_cover_greedy_seq(&inst);
        // All within a small constant of greedy.
        for (name, c) in [("jul", &jul.cover), ("pbbs", &pbbs.cover)] {
            let ratio = c.len() as f64 / greedy.cover.len() as f64;
            assert!(ratio < 2.5, "{name} ratio {ratio}");
        }
    }
}
