//! Differential testing against `julienne-oracle`: every algorithm module
//! is checked against an independent naive sequential reference — not
//! against another parallel configuration of itself — on checked-in
//! regression graphs, the paper's generator families, and proptest-drawn
//! random graphs, on both the CSR and byte-compressed backends.
//!
//! The cross-thread and cross-backend suites prove the parallel code is
//! *self-consistent*; this suite is the one that proves it is *right*.

mod common;

use common::{arb_any_graph, arb_weighted_graph, tiny_graphs};
use julienne_oracle as oracle;
use julienne_repro::algorithms::bellman_ford::bellman_ford;
use julienne_repro::algorithms::bfs::{bfs, bfs_seq};
use julienne_repro::algorithms::clustering::{local_clustering, transitivity};
use julienne_repro::algorithms::components::{connected_components, connected_components_seq};
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
use julienne_repro::algorithms::triangles::{triangle_count, EdgeIndex};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::compress::{CompressedGraph, CompressedWGraph};
use julienne_repro::graph::generators::set_cover_instance;
use julienne_repro::graph::io::{Format, GraphIo, IoOptions};
use julienne_repro::graph::{Graph, WGraph};
use julienne_repro::ligra::traits::GraphRef;
use proptest::prelude::*;
use std::path::PathBuf;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn approx(name: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (v, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "{name}: vertex {v}: got {a}, oracle {b}"
        );
    }
}

/// Runs every unweighted algorithm on `g` (any backend) and compares the
/// results against the oracles evaluated on the plain CSR `plain`.
fn check_unweighted_on<G: GraphRef<W = ()>>(name: &str, plain: &Graph, g: &G) {
    // Traversals.
    let levels = oracle::traversal::bfs_levels(plain, 0);
    assert_eq!(bfs(g, 0).level, levels, "{name}: bfs");
    assert_eq!(bfs_seq(g, 0), levels, "{name}: bfs_seq");
    let comp = oracle::traversal::components_min_label(plain);
    assert_eq!(
        oracle::traversal::canonical_labels(&connected_components(g).label),
        comp,
        "{name}: components"
    );
    assert_eq!(
        oracle::traversal::canonical_labels(&connected_components_seq(g)),
        comp,
        "{name}: components_seq"
    );

    // Peeling.
    let core = oracle::kcore::coreness_peel(plain);
    assert_eq!(
        coreness(g, &KcoreParams::default(), &QueryCtx::default())
            .unwrap()
            .coreness,
        core,
        "{name}: kcore_julienne"
    );
    assert_eq!(coreness_ligra(g).coreness, core, "{name}: kcore_ligra");
    let degen = oracle::kcore::degeneracy(plain);
    let order = degeneracy_order(g);
    assert_eq!(order.degeneracy, degen, "{name}: degeneracy value");
    assert!(
        oracle::kcore::is_degeneracy_order(plain, &order.order, degen),
        "{name}: degeneracy order invalid"
    );

    // Edge peeling: the parallel edge ids (CSR order) must line up with the
    // oracle's sorted-(u < v) enumeration, then trussness must match.
    let (endpoints, truss) = oracle::kcore::trussness_peel(plain);
    let idx = EdgeIndex::new(g).unwrap();
    assert_eq!(idx.endpoints, endpoints, "{name}: edge enumeration");
    let kt = ktruss(g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
    assert_eq!(kt.trussness, truss, "{name}: ktruss");
    assert_eq!(
        kt.max_truss,
        truss.iter().copied().max().unwrap_or(0),
        "{name}: max_truss"
    );

    // Triangles and clustering.
    assert_eq!(
        triangle_count(g),
        oracle::triangles::triangle_count_naive(plain),
        "{name}: triangle_count"
    );
    approx(
        &format!("{name}: local_clustering"),
        &local_clustering(g).unwrap(),
        &oracle::triangles::local_clustering_naive(plain),
        1e-9,
    );
    let t = transitivity(g);
    let t_oracle = oracle::triangles::transitivity_naive(plain);
    assert!(
        (t - t_oracle).abs() <= 1e-9,
        "{name}: transitivity {t} vs {t_oracle}"
    );

    // Ranking (float: oracle accumulates in a different order).
    approx(
        &format!("{name}: pagerank"),
        &pagerank(g, 0.85, 1e-10, 100).rank,
        &oracle::pagerank::pagerank_power(plain, 0.85, 1e-10, 100),
        1e-6,
    );

    // Stats: k_max against the peeled coreness, eccentricity against BFS.
    let s = graph_stats(g);
    assert_eq!(
        s.k_max,
        Some(core.iter().copied().max().unwrap_or(0)),
        "{name}: stats k_max"
    );
    assert_eq!(
        s.eccentricity_from_zero,
        oracle::traversal::eccentricity(plain, 0),
        "{name}: stats eccentricity"
    );
}

/// Writes `g` to a scratch `.jgr`, runs `f` on the memory-mapped view, and
/// removes the file — the third backend for the differential checks.
fn with_mapped<W: julienne_repro::graph::csr::Weight>(
    g: &julienne_repro::graph::Csr<W>,
    f: impl FnOnce(&julienne_repro::graph::Csr<W>),
) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "julienne-oracle-{}-{}.jgr",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    GraphIo::write(g, &path, &IoOptions::default()).unwrap();
    let mg = julienne_repro::graph::Csr::open(&path).unwrap();
    f(&mg);
    drop(mg);
    std::fs::remove_file(&path).ok();
}

fn check_unweighted(name: &str, g: &Graph) {
    check_unweighted_on(&format!("{name}/csr"), g, g);
    let cg = CompressedGraph::from_csr(g);
    check_unweighted_on(&format!("{name}/compressed"), g, &cg);
    with_mapped(g, |mg| {
        check_unweighted_on(&format!("{name}/mapped"), g, mg)
    });
}

/// Runs every SSSP implementation on `g` (any backend) and compares against
/// binary-heap Dijkstra on the plain CSR.
fn check_weighted_on<G: GraphRef<W = u32>>(name: &str, plain: &WGraph, g: &G) {
    let want = oracle::sssp::dijkstra_binheap(plain, 0);
    assert_eq!(dijkstra(g, 0), want, "{name}: dijkstra");
    assert_eq!(bellman_ford(g, 0).dist, want, "{name}: bellman_ford");
    assert_eq!(dial(g, 0), want, "{name}: dial");
    assert_eq!(wbfs(g, 0).dist, want, "{name}: wbfs");
    for delta in [1u64, 64, 1 << 20] {
        assert_eq!(
            sssp(g, &SsspParams { src: 0, delta }, &QueryCtx::default())
                .unwrap()
                .dist,
            want,
            "{name}: delta_stepping Δ={delta}"
        );
        assert_eq!(
            gap_delta_stepping(g, 0, delta).dist,
            want,
            "{name}: gap_delta Δ={delta}"
        );
    }
}

fn check_weighted(name: &str, g: &WGraph) {
    check_weighted_on(&format!("{name}/csr"), g, g);
    let cg = CompressedWGraph::from_csr(g);
    check_weighted_on(&format!("{name}/compressed"), g, &cg);
    with_mapped(g, |mg| check_weighted_on(&format!("{name}/mapped"), g, mg));
}

#[test]
fn regression_corpus_matches_oracles() {
    let corpus: [(&str, Option<usize>); 4] = [
        ("empty.el", Some(5)),
        ("single_vertex.el", Some(1)),
        ("star.el", Some(9)),
        ("two_components.el", Some(7)),
    ];
    for (file, n) in corpus {
        let opts = IoOptions {
            format: Some(Format::EdgeList),
            vertices: n,
            symmetric: true,
            ..Default::default()
        };
        let g: Graph =
            GraphIo::read(&data(file), &opts).unwrap_or_else(|e| panic!("loading {file}: {e}"));
        check_unweighted(file, &g);
    }
}

#[test]
fn u32_boundary_weights_match_dijkstra_oracle() {
    // Weights at u32::MAX: any two-edge path overflows u32, so this fails
    // against any implementation that accumulates distances in 32 bits or
    // clamps annulus indices carelessly.
    let opts = IoOptions {
        format: Some(Format::EdgeList),
        vertices: Some(6),
        symmetric: true,
        ..Default::default()
    };
    let g: WGraph = GraphIo::read(&data("u32_boundary.el"), &opts).unwrap();
    let want = oracle::sssp::dijkstra_binheap(&g, 0);
    assert_eq!(want[3], 2 * (u32::MAX as u64) - 1, "shortcut 0-4-3");
    assert_eq!(want[5], 2 * (u32::MAX as u64), "chain end");
    check_weighted("u32_boundary.el", &g);
}

#[test]
fn generator_families_match_oracles() {
    // Tiny instances on purpose: each graph runs ~20 oracle comparisons on
    // three backends (CSR, compressed, mapped), several of them all-source,
    // and this suite must stay fast in debug builds.
    for (name, g) in tiny_graphs() {
        check_unweighted(name, &g);
    }
}

#[test]
fn setcover_matches_greedy_oracle() {
    for seed in [5u64, 17, 42] {
        let inst = set_cover_instance(64, 2_000, 3, seed);
        let greedy = oracle::setcover::greedy_cover(&inst);
        assert!(oracle::setcover::is_cover(&inst, &greedy), "oracle bug");
        let r = cover(&inst, &SetCoverParams { eps: 0.01 }, &QueryCtx::default()).unwrap();
        assert!(
            oracle::setcover::is_cover(&inst, &r.cover),
            "seed {seed}: parallel set cover is not a cover"
        );
        // Bucketed (1+ε)-greedy tracks exact greedy closely; a 2x blowup
        // would mean the bucketing is broken, not a rounding difference.
        assert!(
            r.cover.len() <= greedy.len() * 2 + 2,
            "seed {seed}: cover size {} vs greedy {}",
            r.cover.len(),
            greedy.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_graphs_match_oracles(g in arb_any_graph()) {
        check_unweighted("random", &g);
    }

    #[test]
    fn random_weighted_graphs_match_dijkstra(g in arb_weighted_graph()) {
        check_weighted("random", &g);
    }
}
