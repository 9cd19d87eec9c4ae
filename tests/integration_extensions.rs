//! Cross-crate integration for the extension algorithms: k-truss,
//! PageRank, connected components, the densest subgraph, and the
//! hub-sort/relabel transform — each checked against an independent oracle
//! or invariant.

use julienne_repro::algorithms::components::{
    connected_components, connected_components_seq, num_components,
};
use julienne_repro::algorithms::degeneracy::{degeneracy_order, densest_subgraph, induced_density};
use julienne_repro::algorithms::kcore::{coreness, KcoreParams};
use julienne_repro::algorithms::ktruss::{ktruss, ktruss_seq, KtrussParams};
use julienne_repro::algorithms::pagerank::pagerank;
use julienne_repro::algorithms::triangles::triangle_count;
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::{chung_lu, erdos_renyi, rmat, RmatParams};
use julienne_repro::graph::transform::hub_sort;

#[test]
fn truss_oracle_across_families() {
    for (name, g) in [
        ("er", erdos_renyi(200, 2_400, 1, true)),
        ("rmat", rmat(9, 10, RmatParams::default(), 2, true)),
        ("chunglu", chung_lu(300, 3_000, 2.3, 3, true)),
    ] {
        let par = ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
        let seq = ktruss_seq(&g);
        assert_eq!(par.trussness, seq.trussness, "{name}");
    }
}

#[test]
fn truss_relates_to_core_and_triangles() {
    let g = rmat(10, 12, RmatParams::default(), 7, true);
    let truss = ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
    let core = coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
    let k_max = core.coreness.iter().copied().max().unwrap();
    // Classic relation: max trussness ≤ degeneracy + 1 (each edge of the
    // t-truss lies in a (t−1)-core).
    assert!(
        truss.max_truss <= k_max + 1,
        "t_max {} vs k_max {}",
        truss.max_truss,
        k_max
    );
    // Triangle-free ⇒ all trussness 2 (contrapositive check).
    if triangle_count(&g).unwrap() > 0 {
        assert!(truss.max_truss >= 3);
    }
}

#[test]
fn relabeling_preserves_all_peeling_invariants() {
    let g = rmat(10, 8, RmatParams::default(), 11, true);
    let (sorted, perm) = hub_sort(&g);
    // Coreness is permutation-equivariant.
    let orig = coreness(&g, &KcoreParams::default(), &QueryCtx::default())
        .unwrap()
        .coreness;
    let relab = coreness(&sorted, &KcoreParams::default(), &QueryCtx::default())
        .unwrap()
        .coreness;
    for v in 0..g.num_vertices() {
        assert_eq!(orig[v], relab[perm[v] as usize], "vertex {v}");
    }
    // Triangle count is invariant.
    assert_eq!(
        triangle_count(&g).unwrap(),
        triangle_count(&sorted).unwrap()
    );
    // Degeneracy is invariant.
    assert_eq!(
        degeneracy_order(&g).degeneracy,
        degeneracy_order(&sorted).degeneracy
    );
}

#[test]
fn components_oracle_and_pagerank_mass() {
    let g = erdos_renyi(2_000, 3_000, 5, true); // sparse: several components
    let par = connected_components(&g);
    assert_eq!(par.label, connected_components_seq(&g));
    assert!(num_components(&par.label) > 1);

    let pr = pagerank(&g, 0.85, 1e-10, 200);
    let total: f64 = pr.rank.iter().sum();
    assert!((total - 1.0).abs() < 1e-6);
}

#[test]
fn densest_subgraph_reports_its_induced_density() {
    let g = chung_lu(3_000, 30_000, 2.2, 23, true);
    let exact = densest_subgraph(&g);
    assert!((induced_density(&g, &exact.vertices) - exact.density).abs() < 1e-6);
    // The k_max-core is a suffix of the peel with minimum degree k_max.
    assert!(exact.density * 2.0 + 1e-9 >= degeneracy_order(&g).degeneracy as f64);
}
