//! Property tests for the telemetry layer: enabling collection must never
//! change algorithm outputs (telemetry is observe-only), and the counters
//! and per-round records an enabled engine accumulates must be internally
//! consistent with the algorithm's own result counters.

mod common;

use common::arb_weighted_graph;
use julienne_repro::algorithms::delta_stepping::{sssp, SsspParams};
use julienne_repro::algorithms::kcore::{coreness, KcoreParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::prelude::{Counter, Engine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kcore_output_identical_with_and_without_telemetry(g in arb_weighted_graph()) {
        let plain = coreness(&g, &KcoreParams::default(), &QueryCtx::from_engine(&Engine::default())).unwrap();
        let traced_engine = Engine::builder().telemetry(true).build();
        let traced = coreness(&g, &KcoreParams::default(), &QueryCtx::from_engine(&traced_engine)).unwrap();
        prop_assert_eq!(&plain.coreness, &traced.coreness);
        prop_assert_eq!(plain.rounds, traced.rounds);
        prop_assert_eq!(plain.identifiers_moved, traced.identifiers_moved);
        // When the feature is compiled in, the enabled sink must agree with
        // the algorithm's own counters.
        #[cfg(feature = "telemetry")]
        {
            let t = traced_engine.telemetry();
            prop_assert_eq!(t.get(Counter::Rounds), traced.rounds);
            prop_assert_eq!(t.get(Counter::VerticesScanned), traced.vertices_scanned);
            prop_assert_eq!(t.get(Counter::EdgesScanned), traced.edges_traversed);
            let records = t.rounds();
            prop_assert_eq!(records.len() as u64, traced.rounds);
            let frontier_sum: u64 = records.iter().map(|r| r.frontier as u64).sum();
            prop_assert_eq!(frontier_sum, g.num_vertices() as u64);
            // Every peeling round times its phases; k-core has no Reset.
            for r in &records {
                let ns = r.phase_ns.expect("a recorded k-core round has phase times");
                prop_assert_eq!(ns[julienne_repro::core::telemetry::Phase::Reset as usize], 0);
            }
        }
        // The disabled sink must stay empty either way.
        let _ = Counter::Rounds; // used only under the feature gate above
        prop_assert_eq!(Engine::default().telemetry().get(Counter::Rounds), 0);
    }

    #[test]
    fn sssp_output_identical_with_and_without_telemetry(
        (g, src, delta) in arb_weighted_graph().prop_flat_map(|g| {
            let n = g.num_vertices() as u32;
            (Just(g), 0..n, prop_oneof![Just(1u64), Just(64), Just(1 << 20)])
        })
    ) {
        let plain = sssp(&g, &SsspParams { src, delta }, &QueryCtx::from_engine(&Engine::default())).unwrap();
        let traced_engine = Engine::builder().telemetry(true).build();
        let traced = sssp(&g, &SsspParams { src, delta }, &QueryCtx::from_engine(&traced_engine)).unwrap();
        prop_assert_eq!(&plain.dist, &traced.dist);
        prop_assert_eq!(plain.rounds, traced.rounds);
        prop_assert_eq!(plain.relaxations, traced.relaxations);
        prop_assert_eq!(plain.identifiers_moved, traced.identifiers_moved);
        #[cfg(feature = "telemetry")]
        {
            let t = traced_engine.telemetry();
            prop_assert_eq!(t.get(Counter::Rounds), traced.rounds);
            // Each round is a sparse traversal of the extracted annulus.
            prop_assert_eq!(t.get(Counter::SparseTraversals), traced.rounds);
            let records = t.rounds();
            let scanned: u64 = records.iter().map(|r| r.edges_scanned).sum();
            prop_assert_eq!(scanned, traced.relaxations);
        }
    }
}
