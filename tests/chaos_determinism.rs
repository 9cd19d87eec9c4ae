//! Schedule-chaos determinism: under `JULIENNE_CHAOS_SEED` the worker pool
//! permutes piece claim order, injects yields/sleeps, and stalls workers —
//! and every algorithm must still produce **bit-identical** output, because
//! the determinism contract derives piece boundaries from input length and
//! combines partial results in piece order, never in completion order.
//!
//! Each failure message prints the chaos seed and thread count; reproduce
//! any failure with
//! `JULIENNE_CHAOS_SEED=<seed> JULIENNE_NUM_THREADS=<t> cargo test <name>`.

mod common;

use common::{at, small_graphs};
use julienne_repro::algorithms::bellman_ford::bellman_ford;
use julienne_repro::algorithms::bfs::bfs;
use julienne_repro::algorithms::clustering::clustering;
use julienne_repro::algorithms::components::connected_components;
use julienne_repro::algorithms::degeneracy::degeneracy_order;
use julienne_repro::algorithms::delta_stepping::{sssp, wbfs, SsspParams};
use julienne_repro::algorithms::dial::dial;
use julienne_repro::algorithms::dijkstra::dijkstra;
use julienne_repro::algorithms::gap_delta::gap_delta_stepping;
use julienne_repro::algorithms::kcore::{coreness, coreness_ligra, KcoreParams};
use julienne_repro::algorithms::ktruss::{ktruss, KtrussParams};
use julienne_repro::algorithms::pagerank::pagerank;
use julienne_repro::algorithms::setcover::{cover, SetCoverParams};
use julienne_repro::algorithms::stats::graph_stats;
use julienne_repro::algorithms::triangles::{edge_support, triangle_count, EdgeIndex};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::set_cover_instance;
use julienne_repro::graph::transform::{assign_weights, wbfs_weight_range};
use julienne_repro::graph::WGraph;
use std::fmt::Debug;
use std::sync::Mutex;

/// Chaos mode is process-global; tests in this binary run on parallel
/// harness threads, so every chaos window takes this lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// ≥ 8 seeds, spanning small values, bit patterns, and the extremes.
const SEEDS: [u64; 8] = [
    0,
    1,
    42,
    0x5EED,
    0x9E37_79B9_7F4A_7C15,
    0xDEAD_BEEF,
    0x0123_4567_89AB_CDEF,
    u64::MAX,
];

const THREADS: [usize; 3] = [2, 4, 8];

/// Asserts `f` produces the same output under every chaos seed × thread
/// count as it does with chaos off.
fn chaos_check<T: PartialEq + Debug + Send>(what: &str, f: impl Fn() -> T + Send + Sync) {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    rayon::set_chaos_seed(None);
    let reference = at(4, &f);
    for &seed in &SEEDS {
        for threads in THREADS {
            rayon::set_chaos_seed(Some(seed));
            let got = at(threads, &f);
            rayon::set_chaos_seed(None);
            assert!(
                got == reference,
                "{what}: output diverged under schedule chaos.\n  \
                 reproduce: JULIENNE_CHAOS_SEED={seed} JULIENNE_NUM_THREADS={threads} \
                 cargo test --test chaos_determinism"
            );
        }
    }
}

fn small_weighted(heavy: bool) -> Vec<(&'static str, WGraph)> {
    let (lo, hi) = if heavy {
        (1, 100_000)
    } else {
        wbfs_weight_range(512)
    };
    small_graphs()
        .into_iter()
        .map(|(name, g)| (name, assign_weights(&g, lo, hi, 21)))
        .collect()
}

#[test]
fn frontier_algorithms_deterministic_under_chaos() {
    for (name, g) in small_graphs() {
        chaos_check(&format!("bfs/{name}"), || bfs(&g, 0).level);
        chaos_check(&format!("components/{name}"), || {
            let r = connected_components(&g);
            (r.label, r.rounds)
        });
        chaos_check(&format!("pagerank/{name}"), || {
            pagerank(&g, 0.85, 1e-9, 30)
                .rank
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<u64>>()
        });
    }
}

#[test]
fn peeling_algorithms_deterministic_under_chaos() {
    for (name, g) in small_graphs() {
        chaos_check(&format!("kcore_julienne/{name}"), || {
            let r = coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
            (r.coreness, r.rounds)
        });
        chaos_check(&format!("kcore_ligra/{name}"), || {
            coreness_ligra(&g).coreness
        });
        chaos_check(&format!("degeneracy/{name}"), || degeneracy_order(&g).order);
        chaos_check(&format!("ktruss/{name}"), || {
            let r = ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
            (r.trussness, r.max_truss)
        });
    }
}

#[test]
fn sssp_family_deterministic_under_chaos() {
    for (name, g) in small_weighted(true) {
        chaos_check(&format!("delta_stepping/{name}"), || {
            let r = sssp(
                &g,
                &SsspParams {
                    src: 0,
                    delta: 32_768,
                },
                &QueryCtx::default(),
            )
            .unwrap();
            (r.dist, r.rounds)
        });
        chaos_check(&format!("bellman_ford/{name}"), || bellman_ford(&g, 0).dist);
        chaos_check(&format!("gap_delta/{name}"), || {
            gap_delta_stepping(&g, 0, 4_096).dist
        });
        chaos_check(&format!("dijkstra/{name}"), || dijkstra(&g, 0));
        chaos_check(&format!("dial/{name}"), || dial(&g, 0));
    }
    for (name, g) in small_weighted(false) {
        chaos_check(&format!("wbfs/{name}"), || wbfs(&g, 0).dist);
    }
}

#[test]
fn triangles_and_clustering_deterministic_under_chaos() {
    for (name, g) in small_graphs() {
        chaos_check(&format!("triangles/{name}"), || triangle_count(&g).unwrap());
        chaos_check(&format!("edge_support/{name}"), || {
            edge_support(&EdgeIndex::new(&g).unwrap())
        });
        chaos_check(&format!("clustering/{name}"), || {
            let c = clustering(&g).unwrap();
            let lc: Vec<u64> = c.local.iter().map(|c| c.to_bits()).collect();
            (lc, c.transitivity.to_bits())
        });
        chaos_check(&format!("stats/{name}"), || {
            let s = graph_stats(&g);
            (s.rho, s.k_max, s.max_degree, s.eccentricity_from_zero)
        });
    }
}

#[test]
fn setcover_deterministic_under_chaos() {
    let inst = set_cover_instance(128, 6_000, 4, 5);
    chaos_check("setcover", || {
        let r = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
        (r.cover, r.rounds)
    });
}
