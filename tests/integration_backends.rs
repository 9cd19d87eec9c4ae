//! Cross-backend equivalence: every algorithm produces identical output on
//! the raw CSR backend and the Ligra+-style byte-compressed backend
//! (`CompressedGraph` / `CompressedWGraph`), at 1 and 4 worker threads.
//!
//! The traversal stack is generic over the graph-trait hierarchy
//! (`OutEdges` / `GraphRef`), so the same algorithm code runs
//! against both representations; these tests pin that the representation
//! is invisible to results, on the paper's graph families (skewed R-MAT
//! and power-law Chung-Lu).

use julienne_repro::algorithms::bellman_ford::bellman_ford;
use julienne_repro::algorithms::bfs::{bfs, bfs_seq};
use julienne_repro::algorithms::clustering::clustering;
use julienne_repro::algorithms::components::{connected_components, connected_components_seq};
use julienne_repro::algorithms::degeneracy::{degeneracy_order, densest_subgraph};
use julienne_repro::algorithms::delta_stepping::{sssp, wbfs, SsspParams};
use julienne_repro::algorithms::dial::dial;
use julienne_repro::algorithms::dijkstra::dijkstra;
use julienne_repro::algorithms::gap_delta::gap_delta_stepping;
use julienne_repro::algorithms::kcore::{coreness, coreness_ligra, KcoreParams};
use julienne_repro::algorithms::ktruss::{ktruss, KtrussParams};
use julienne_repro::algorithms::pagerank::pagerank;
use julienne_repro::algorithms::setcover::{cover, SetCoverParams};
use julienne_repro::algorithms::stats::graph_stats;
use julienne_repro::algorithms::triangles::triangle_count;
use julienne_repro::graph::compress::{CompressedGraph, CompressedWGraph};
use julienne_repro::graph::generators::set_cover_instance;

mod common;

use common::{at, graphs, small_graphs, weighted};
use julienne_repro::core::query::QueryCtx;

const THREADS: [usize; 2] = [1, 4];

/// Asserts `csr()` and `compressed()` agree at 1 and 4 threads.
fn eq_backends<T: PartialEq + std::fmt::Debug + Send>(
    what: &str,
    csr: impl Fn() -> T + Send + Sync,
    compressed: impl Fn() -> T + Send + Sync,
) {
    for t in THREADS {
        let a = at(t, &csr);
        let b = at(t, &compressed);
        assert_eq!(a, b, "{what}: backends diverged at {t} threads");
    }
}

#[test]
fn frontier_algorithms_match_on_compressed_backend() {
    for (name, g) in graphs() {
        let cg = CompressedGraph::from_csr(&g);
        eq_backends(
            &format!("bfs/{name}"),
            || bfs(&g, 0).level,
            || bfs(&cg, 0).level,
        );
        eq_backends(
            &format!("bfs_seq/{name}"),
            || bfs_seq(&g, 0),
            || bfs_seq(&cg, 0),
        );
        eq_backends(
            &format!("components/{name}"),
            || connected_components(&g).label,
            || connected_components(&cg).label,
        );
        eq_backends(
            &format!("components_seq/{name}"),
            || connected_components_seq(&g),
            || connected_components_seq(&cg),
        );
        eq_backends(
            &format!("pagerank/{name}"),
            || pagerank(&g, 0.85, 1e-9, 50).rank,
            || pagerank(&cg, 0.85, 1e-9, 50).rank,
        );
    }
}

#[test]
fn peeling_algorithms_match_on_compressed_backend() {
    for (name, g) in graphs() {
        let cg = CompressedGraph::from_csr(&g);
        eq_backends(
            &format!("kcore_julienne/{name}"),
            || {
                let r = coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
                (r.coreness, r.rounds)
            },
            || {
                let r = coreness(&cg, &KcoreParams::default(), &QueryCtx::default()).unwrap();
                (r.coreness, r.rounds)
            },
        );
        eq_backends(
            &format!("kcore_ligra/{name}"),
            || coreness_ligra(&g).coreness,
            || coreness_ligra(&cg).coreness,
        );
        eq_backends(
            &format!("degeneracy_order/{name}"),
            || degeneracy_order(&g).order,
            || degeneracy_order(&cg).order,
        );
        eq_backends(
            &format!("densest/{name}"),
            || densest_subgraph(&g).vertices,
            || densest_subgraph(&cg).vertices,
        );
    }
}

#[test]
fn triangle_family_matches_on_compressed_backend() {
    for (name, g) in small_graphs() {
        let cg = CompressedGraph::from_csr(&g);
        eq_backends(
            &format!("triangles/{name}"),
            || triangle_count(&g).unwrap(),
            || triangle_count(&cg).unwrap(),
        );
        eq_backends(
            &format!("ktruss/{name}"),
            || {
                let r = ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
                (r.trussness, r.max_truss)
            },
            || {
                let r = ktruss(&cg, &KtrussParams::default(), &QueryCtx::default()).unwrap();
                (r.trussness, r.max_truss)
            },
        );
        eq_backends(
            &format!("clustering/{name}"),
            || {
                let c = clustering(&g).unwrap();
                (c.local, c.transitivity.to_bits())
            },
            || {
                let c = clustering(&cg).unwrap();
                (c.local, c.transitivity.to_bits())
            },
        );
    }
}

#[test]
fn stats_match_on_compressed_backend() {
    for (name, g) in small_graphs() {
        let cg = CompressedGraph::from_csr(&g);
        eq_backends(
            &format!("graph_stats/{name}"),
            || {
                let s = graph_stats(&g);
                (s.rho, s.k_max, s.max_degree, s.eccentricity_from_zero)
            },
            || {
                let s = graph_stats(&cg);
                (s.rho, s.k_max, s.max_degree, s.eccentricity_from_zero)
            },
        );
    }
}

#[test]
fn sssp_family_matches_on_compressed_backend() {
    for heavy in [false, true] {
        let delta = if heavy { 32_768 } else { 1 };
        for (name, g) in weighted(heavy) {
            let cg = CompressedWGraph::from_csr(&g);
            eq_backends(
                &format!("delta_stepping/{name}/heavy={heavy}"),
                || {
                    let r = sssp(&g, &SsspParams { src: 0, delta }, &QueryCtx::default()).unwrap();
                    (r.dist, r.rounds)
                },
                || {
                    let r = sssp(&cg, &SsspParams { src: 0, delta }, &QueryCtx::default()).unwrap();
                    (r.dist, r.rounds)
                },
            );
            eq_backends(
                &format!("dijkstra/{name}/heavy={heavy}"),
                || dijkstra(&g, 0),
                || dijkstra(&cg, 0),
            );
            eq_backends(
                &format!("bellman_ford/{name}/heavy={heavy}"),
                || bellman_ford(&g, 0).dist,
                || bellman_ford(&cg, 0).dist,
            );
            eq_backends(
                &format!("gap_delta/{name}/heavy={heavy}"),
                || gap_delta_stepping(&g, 0, delta.max(1024)).dist,
                || gap_delta_stepping(&cg, 0, delta.max(1024)).dist,
            );
            eq_backends(
                &format!("dial/{name}/heavy={heavy}"),
                || dial(&g, 0),
                || dial(&cg, 0),
            );
        }
        // wBFS is the light-weight special case.
        if !heavy {
            for (name, g) in weighted(false) {
                let cg = CompressedWGraph::from_csr(&g);
                eq_backends(
                    &format!("wbfs/{name}"),
                    || wbfs(&g, 0).dist,
                    || wbfs(&cg, 0).dist,
                );
            }
        }
    }
}

#[test]
fn tiny_chunk_compressed_backend_matches_csr() {
    // Chunk size 4 forces nearly every vertex into multi-chunk blocks, so
    // the degree-aware split paths in edge_map (sparse task splitting and
    // the dense heavy-vertex chunk scan) run on every frontier instead of
    // only on hubs. Results must still be identical to CSR at 1 and 4
    // threads.
    for (name, g) in graphs() {
        let cg = CompressedGraph::from_csr_with_chunk_size(&g, 4);
        eq_backends(
            &format!("tiny-chunk bfs/{name}"),
            || bfs(&g, 0).level,
            || bfs(&cg, 0).level,
        );
        eq_backends(
            &format!("tiny-chunk components/{name}"),
            || connected_components(&g).label,
            || connected_components(&cg).label,
        );
        eq_backends(
            &format!("tiny-chunk pagerank/{name}"),
            || pagerank(&g, 0.85, 1e-9, 50).rank,
            || pagerank(&cg, 0.85, 1e-9, 50).rank,
        );
        eq_backends(
            &format!("tiny-chunk kcore/{name}"),
            || {
                let r = coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
                (r.coreness, r.rounds)
            },
            || {
                let r = coreness(&cg, &KcoreParams::default(), &QueryCtx::default()).unwrap();
                (r.coreness, r.rounds)
            },
        );
    }
    for (name, g) in weighted(false) {
        let cg = CompressedWGraph::from_csr_with_chunk_size(&g, 4);
        eq_backends(
            &format!("tiny-chunk wbfs/{name}"),
            || wbfs(&g, 0).dist,
            || wbfs(&cg, 0).dist,
        );
        eq_backends(
            &format!("tiny-chunk sssp/{name}"),
            || {
                let r = sssp(&g, &SsspParams { src: 0, delta: 1 }, &QueryCtx::default()).unwrap();
                (r.dist, r.rounds)
            },
            || {
                let r = sssp(&cg, &SsspParams { src: 0, delta: 1 }, &QueryCtx::default()).unwrap();
                (r.dist, r.rounds)
            },
        );
    }
}

#[test]
fn setcover_matches_after_compression_round_trip() {
    let inst = set_cover_instance(256, 16_000, 4, 5);
    let mut roundtrip = set_cover_instance(256, 16_000, 4, 5);
    roundtrip.graph = CompressedGraph::from_csr(&inst.graph).to_csr();
    eq_backends(
        "setcover",
        || {
            let r = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
            (r.cover, r.rounds)
        },
        || {
            let r = cover(
                &roundtrip,
                &SetCoverParams { eps: 0.01 },
                &QueryCtx::default(),
            )
            .unwrap();
            (r.cover, r.rounds)
        },
    );
}
