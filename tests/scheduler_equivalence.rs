//! Batched-equals-solo equivalence for the serve pipeline's fused
//! multi-source SSSP kernel: for arbitrary weighted graphs and source
//! sets, every lane of [`sssp_multi`] must be **bit-identical** to a solo
//! [`sssp`] run from the same source — distances, round counts, and
//! relaxation counts — on both graph backends, at 1 and 4 worker threads,
//! and under schedule chaos. Cancelling one lane must leave its siblings
//! byte-for-byte untouched.
//!
//! This is the contract that lets the query server coalesce pipelined
//! `sssp` queries into one traversal and still answer each client exactly
//! what a dedicated run would have said.

mod common;

use common::{arb_weighted_graph, at};
use julienne_repro::algorithms::delta_stepping::{sssp, sssp_multi, SsspLane, SsspParams};
use julienne_repro::graph::compress::CompressedWGraph;
use julienne_repro::graph::Csr;
use julienne_repro::ligra::traits::OutEdges;
use julienne_repro::prelude::{CancelToken, Engine, QueryCtx};
use proptest::prelude::*;
use std::sync::Mutex;

/// Chaos mode is process-global; serialize the chaos windows.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// (dist, rounds, relaxations) — everything the wire report is rendered
/// from. `identifiers_moved` is deliberately absent: a shared bucket
/// structure cannot attribute moves to a lane (see the delta_stepping docs).
type Fingerprint = (Vec<u64>, u64, u64);

fn solo_fingerprints<G: OutEdges<W = u32>>(g: &G, srcs: &[u32], delta: u64) -> Vec<Fingerprint> {
    let engine = Engine::default();
    srcs.iter()
        .map(|&src| {
            let r = sssp(
                g,
                &SsspParams { src, delta },
                &QueryCtx::from_engine(&engine),
            )
            .expect("solo run");
            (r.dist, r.rounds, r.relaxations)
        })
        .collect()
}

fn fused_fingerprints<G: OutEdges<W = u32>>(g: &G, srcs: &[u32], delta: u64) -> Vec<Fingerprint> {
    let engine = Engine::default();
    let ctxs: Vec<QueryCtx> = srcs
        .iter()
        .map(|_| QueryCtx::from_engine(&engine))
        .collect();
    let lanes: Vec<SsspLane<'_>> = srcs
        .iter()
        .zip(&ctxs)
        .map(|(&src, ctx)| SsspLane { src, ctx })
        .collect();
    sssp_multi(g, delta, &lanes)
        .expect("fused run")
        .into_iter()
        .map(|lane| {
            let r = lane.expect("lane result");
            (r.dist, r.rounds, r.relaxations)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fused_lanes_bit_identical_to_solo_under_chaos(
        (g, srcs) in arb_weighted_graph().prop_flat_map(|g| {
            let n = g.num_vertices() as u32;
            (Just(g), prop::collection::vec(0..n, 1..5))
        }),
        delta in prop_oneof![Just(1u64), Just(16u64), Just(4096u64)],
    ) {
        let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cg = CompressedWGraph::from_csr(&g);
        let solo = at(1, || solo_fingerprints(&g, &srcs, delta));
        // Both backends, both thread counts, chaos on and off: every
        // fused lane must reproduce its solo fingerprint exactly.
        for threads in [1usize, 4] {
            for chaos in [None, Some(0x5EEDu64)] {
                rayon::set_chaos_seed(chaos);
                let fused_csr = at(threads, || fused_fingerprints(&g, &srcs, delta));
                let fused_cmp = at(threads, || fused_fingerprints(&cg, &srcs, delta));
                rayon::set_chaos_seed(None);
                prop_assert_eq!(
                    &fused_csr, &solo,
                    "csr lanes diverged (threads={}, chaos={:?})", threads, chaos
                );
                prop_assert_eq!(
                    &fused_cmp, &solo,
                    "compressed lanes diverged (threads={}, chaos={:?})", threads, chaos
                );
            }
        }
    }
}

/// Cancelling one lane mid-traversal detaches it (its slot reports the
/// cancellation) while every sibling still matches its solo run exactly.
#[test]
fn cancelled_lane_never_perturbs_siblings() {
    let g: Csr<u32> = {
        use julienne_repro::graph::generators::erdos_renyi;
        use julienne_repro::graph::transform::assign_weights;
        assign_weights(&erdos_renyi(400, 3200, 7, true), 1, 1000, 11)
    };
    let srcs: [u32; 3] = [0, 7, 399];
    for delta in [1u64, 64, 32768] {
        let solo = solo_fingerprints(&g, &srcs, delta);
        for threads in [1usize, 4] {
            let results = at(threads, || {
                let engine = Engine::default();
                let ctxs: Vec<QueryCtx> = srcs
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        let ctx = QueryCtx::from_engine(&engine);
                        if i == 1 {
                            // Trips after a few round polls: mid-run for
                            // small delta, pre-run for huge delta.
                            ctx.with_cancel_token(CancelToken::cancel_after_polls(2))
                        } else {
                            ctx
                        }
                    })
                    .collect();
                let lanes: Vec<SsspLane<'_>> = srcs
                    .iter()
                    .zip(&ctxs)
                    .map(|(&src, ctx)| SsspLane { src, ctx })
                    .collect();
                sssp_multi(&g, delta, &lanes).expect("fused run")
            });
            assert!(
                results[1].is_err(),
                "lane 1 should have been cancelled (delta={delta}, threads={threads})"
            );
            for (i, lane) in results.into_iter().enumerate() {
                if i == 1 {
                    continue;
                }
                let r = lane.expect("sibling lane");
                assert_eq!(
                    (r.dist, r.rounds, r.relaxations),
                    solo[i].clone(),
                    "sibling lane {i} perturbed by a cancelled neighbour \
                     (delta={delta}, threads={threads})"
                );
            }
        }
    }
}
