//! Cross-thread-count determinism: every bucketed algorithm produces
//! bit-identical output at 1, 2, 4, and 8 worker threads.
//!
//! This is the end-to-end witness for the runtime's determinism contract:
//! chunk/piece counts are pure functions of input length (never of the
//! thread count), and partial results are always combined in piece order,
//! so parallelism affects speed only — never results. These tests pin that
//! property at the whole-algorithm level on the paper's graph families.

mod common;

use common::{at, graphs, weighted};
use julienne_repro::algorithms::bellman_ford::bellman_ford;
use julienne_repro::algorithms::components::connected_components;
use julienne_repro::algorithms::delta_stepping::{sssp, wbfs, SsspParams};
use julienne_repro::algorithms::kcore::{coreness, KcoreParams};
use julienne_repro::algorithms::setcover::{cover, verify_cover, SetCoverParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::{rmat, set_cover_instance, RmatParams};
use julienne_repro::graph::transform::assign_weights;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn kcore_identical_across_thread_counts() {
    for (name, g) in graphs() {
        let reference = at(1, || {
            coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap()
        });
        for t in THREADS {
            let r = at(t, || {
                coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap()
            });
            assert_eq!(r.coreness, reference.coreness, "{name} at {t} threads");
        }
    }
}

#[test]
fn components_identical_across_thread_counts() {
    for (name, g) in graphs() {
        let reference = at(1, || connected_components(&g));
        for t in THREADS {
            let r = at(t, || connected_components(&g));
            assert_eq!(r.label, reference.label, "{name} at {t} threads");
            assert_eq!(r.rounds, reference.rounds, "{name} rounds at {t} threads");
        }
    }
}

#[test]
fn delta_stepping_identical_across_thread_counts() {
    for (name, g) in weighted(true) {
        let reference = at(1, || {
            sssp(
                &g,
                &SsspParams {
                    src: 0,
                    delta: 32_768,
                },
                &QueryCtx::default(),
            )
            .unwrap()
        });
        for t in THREADS {
            let r = at(t, || {
                sssp(
                    &g,
                    &SsspParams {
                        src: 0,
                        delta: 32_768,
                    },
                    &QueryCtx::default(),
                )
                .unwrap()
            });
            assert_eq!(r.dist, reference.dist, "{name} at {t} threads");
            assert_eq!(r.rounds, reference.rounds, "{name} rounds at {t} threads");
        }
    }
}

#[test]
fn wbfs_identical_across_thread_counts() {
    for (name, g) in weighted(false) {
        let reference = at(1, || wbfs(&g, 0));
        for t in THREADS {
            let r = at(t, || wbfs(&g, 0));
            assert_eq!(r.dist, reference.dist, "{name} at {t} threads");
        }
    }
}

#[test]
fn setcover_identical_across_thread_counts() {
    let inst = set_cover_instance(256, 16_000, 4, 5);
    let reference = at(1, || {
        cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap()
    });
    assert!(verify_cover(&inst, &reference.cover));
    for t in THREADS {
        let r = at(t, || {
            cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap()
        });
        assert_eq!(r.cover, reference.cover, "setcover at {t} threads");
        assert_eq!(r.rounds, reference.rounds, "setcover rounds at {t} threads");
    }
}

#[test]
fn bellman_ford_rounds_identical_across_thread_counts() {
    // A symmetric R-MAT graph with wBFS weights: its middle rounds cover
    // most of the graph, so the direction rule pulls them, and a distance
    // read inside the round would let the schedule change what a round
    // relaxes.
    let g = assign_weights(&rmat(12, 16, RmatParams::default(), 1, true), 1, 13, 7);
    for src in [0, 3, 5, 17] {
        let reference = at(1, || bellman_ford(&g, src));
        for t in THREADS {
            let r = at(t, || bellman_ford(&g, src));
            assert_eq!(r.dist, reference.dist, "src {src} at {t} threads");
            assert_eq!(
                r.rounds, reference.rounds,
                "src {src} rounds at {t} threads"
            );
            assert_eq!(
                r.relaxations, reference.relaxations,
                "src {src} relaxations at {t} threads"
            );
        }
    }
}
