//! Cross-crate integration: set cover validity, approximation quality, and
//! the work-efficiency separation against the PBBS-style baseline.

mod common;

use common::at;
use julienne_repro::algorithms::setcover::{cover, verify_cover, SetCoverParams, SetCoverResult};
use julienne_repro::algorithms::setcover_baselines::{set_cover_greedy_seq, set_cover_pbbs_style};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::set_cover_instance;
use julienne_repro::ligra::edge_map::sparse_in_pieces;

#[test]
fn all_implementations_cover_all_families() {
    for (sets, elems, mult) in [(10, 200, 2), (64, 4_000, 3), (256, 16_000, 5)] {
        for seed in 0..2 {
            let inst = set_cover_instance(sets, elems, mult, seed);
            let jul = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
            let pbbs = set_cover_pbbs_style(&inst, 0.01);
            let greedy = set_cover_greedy_seq(&inst);
            assert!(
                verify_cover(&inst, &jul.cover),
                "julienne {sets}/{elems}/{seed}"
            );
            assert!(
                verify_cover(&inst, &pbbs.cover),
                "pbbs {sets}/{elems}/{seed}"
            );
            assert!(
                verify_cover(&inst, &greedy.cover),
                "greedy {sets}/{elems}/{seed}"
            );
        }
    }
}

#[test]
fn approximation_quality_within_bound() {
    // Greedy is Hn-approximate; the parallel algorithms are (1+ε)Hn. On a
    // shared instance the parallel covers stay within a small constant of
    // greedy's.
    let inst = set_cover_instance(500, 40_000, 5, 77);
    let greedy = set_cover_greedy_seq(&inst).cover.len() as f64;
    let jul = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default())
        .unwrap()
        .cover
        .len() as f64;
    let pbbs = set_cover_pbbs_style(&inst, 0.01).cover.len() as f64;
    assert!(jul / greedy < 2.0, "julienne {jul} vs greedy {greedy}");
    assert!(pbbs / greedy < 2.0, "pbbs {pbbs} vs greedy {greedy}");
}

#[test]
fn rebucketing_beats_carry_over_on_work() {
    // The PBBS-style implementation rescans all undecided sets every
    // round; Julienne only touches extracted buckets. On instances with
    // many rounds the edge-examination gap is the paper's Figure 5 story.
    let inst = set_cover_instance(1_000, 50_000, 4, 21);
    let jul = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
    let pbbs = set_cover_pbbs_style(&inst, 0.01);
    assert!(
        pbbs.edges_examined as f64 >= 1.2 * jul.edges_examined as f64,
        "expected a work gap: pbbs {} vs julienne {}",
        pbbs.edges_examined,
        jul.edges_examined
    );
}

#[test]
fn deterministic_given_seeded_instance() {
    let inst = set_cover_instance(100, 5_000, 3, 5);
    let a = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
    let b = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
    // writeMin tie-breaking by id makes the MaNIS outcome deterministic.
    assert_eq!(a.cover, b.cover);
    assert_eq!(a.assignment, b.assignment);
}

#[test]
fn tiny_degenerate_instances() {
    // 1 set, 1 element.
    let inst = set_cover_instance(1, 1, 1, 0);
    let r = cover(&inst, &SetCoverParams { eps: 0.5 }, &QueryCtx::default()).unwrap();
    assert_eq!(r.cover, vec![0]);
    // More sets than elements.
    let inst = set_cover_instance(50, 10, 1, 1);
    let r = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
    assert!(verify_cover(&inst, &r.cover));
    assert!(r.cover.len() <= 10);
}

#[test]
fn forced_pieces_match_the_one_piece_run() {
    // No served set-cover round reaches the sparse driver's fan-out
    // threshold, so force it: the pack, reserve and count/commit visits
    // that run concurrently, packing lists in place, must leave what the
    // one-piece walk leaves, on one worker and on four.
    let inst = set_cover_instance(500, 40_000, 4, 31);
    let outcome = |r: SetCoverResult| (r.cover, r.assignment, r.rounds, r.edges_examined);
    for eps in [0.1, 1.0] {
        let params = SetCoverParams { eps };
        let run = || {
            let jul = cover(&inst, &params, &QueryCtx::default()).unwrap();
            (outcome(jul), outcome(set_cover_pbbs_style(&inst, eps)))
        };
        let (jul, pbbs) = run();
        assert!(verify_cover(&inst, &jul.0), "eps {eps}");
        for threads in [1, 4] {
            for pieces in [2, 3, 7] {
                let (j, p) = at(threads, || sparse_in_pieces(pieces, run));
                assert!(
                    j == jul,
                    "cover: eps={eps} pieces={pieces} threads={threads}"
                );
                assert!(
                    p == pbbs,
                    "pbbs: eps={eps} pieces={pieces} threads={threads}"
                );
            }
        }
    }
}
