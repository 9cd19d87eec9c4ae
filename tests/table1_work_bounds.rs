//! Table 1 of the paper as assertions: the work the three bucketed
//! algorithms do, counted by the engine's telemetry, stays within a small
//! constant of the input size — O(m + n) for k-core, O(r_src + m) for
//! wBFS, O(M) for approximate set cover. The inputs, scales and limits are
//! those of `results/table1_workcheck.txt` (`bench --bin
//! table1_workcheck`, measured ratios 1.07–1.09, 1.07 and 2.66–2.69), so a
//! change to the bucket structure that loses work-efficiency fails here
//! instead of only shifting a bench printout.

use julienne_repro::algorithms::delta_stepping::{sssp, SsspParams};
use julienne_repro::algorithms::kcore::{coreness, KcoreParams};
use julienne_repro::algorithms::setcover::{cover, SetCoverParams};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::{rmat, set_cover_instance, RmatParams};
use julienne_repro::graph::transform::{assign_weights, wbfs_weight_range};
use julienne_repro::prelude::{Counter, Engine};

const SCALES: [u32; 2] = [13, 14];

/// When telemetry is compiled in, the engine's sink must have counted
/// exactly what the algorithm reported — the sink is what an operator
/// reads, so the bounds below hold for it too.
fn assert_sink(engine: &Engine, counter: Counter, want: u64) {
    if cfg!(feature = "telemetry") {
        assert_eq!(engine.telemetry().get(counter), want, "{}", counter.name());
    }
}

fn traced() -> Engine {
    Engine::builder().telemetry(true).build()
}

#[test]
fn kcore_work_is_linear_in_m_plus_n() {
    for scale in SCALES {
        let g = rmat(scale, 8, RmatParams::default(), 0x7AB1E, true);
        let engine = traced();
        let r = coreness(&g, &KcoreParams::default(), &QueryCtx::from_engine(&engine)).unwrap();
        assert_sink(&engine, Counter::EdgesScanned, r.edges_traversed);
        assert_sink(&engine, Counter::IdentifiersMoved, r.identifiers_moved);
        let ratio = (r.edges_traversed + r.identifiers_moved) as f64
            / (g.num_edges() + g.num_vertices()) as f64;
        assert!(
            ratio <= 1.2,
            "scale {scale}: (edges + moves)/(m + n) = {ratio:.3}"
        );
    }
}

#[test]
fn wbfs_work_is_linear_in_m() {
    for scale in SCALES {
        let base = rmat(scale, 8, RmatParams::default(), 0x7AB1F, true);
        let (lo, hi) = wbfs_weight_range(base.num_vertices());
        let g = assign_weights(&base, lo, hi, 5);
        let engine = traced();
        let r = sssp(
            &g,
            &SsspParams { src: 0, delta: 1 },
            &QueryCtx::from_engine(&engine),
        )
        .unwrap();
        assert_sink(&engine, Counter::EdgesScanned, r.relaxations);
        assert_sink(&engine, Counter::IdentifiersMoved, r.identifiers_moved);
        let ratio = (r.relaxations + r.identifiers_moved) as f64 / g.num_edges() as f64;
        assert!(
            ratio <= 1.2,
            "scale {scale}: (relaxations + moves)/m = {ratio:.3}"
        );
    }
}

#[test]
fn setcover_examines_under_three_times_its_edges() {
    for scale in SCALES {
        let elems = 1usize << scale;
        let inst = set_cover_instance(elems / 32, elems, 4, 0x7AB20);
        let engine = traced();
        let r = cover(
            &inst,
            &SetCoverParams { eps: 0.01 },
            &QueryCtx::from_engine(&engine),
        )
        .unwrap();
        assert_sink(&engine, Counter::EdgesScanned, r.edges_examined);
        let ratio = r.edges_examined as f64 / (inst.graph.num_edges() / 2) as f64;
        assert!(
            ratio < 3.0,
            "scale {scale}: edges examined / M = {ratio:.3}"
        );
    }
}
