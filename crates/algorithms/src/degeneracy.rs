//! Applications of the peeling order: degeneracy ordering and Charikar's
//! 2-approximate densest subgraph.
//!
//! The paper (footnote 1 and §4.1) notes that coreness values and the
//! peeling process have many downstream uses; these are the two classic
//! ones, built directly on the work-efficient bucketed peel.

use julienne::bucket::{Bucketing, BucketsBuilder, Order};
use julienne_graph::VertexId;
use julienne_ligra::edge_map_reduce::{edge_map_peel, peel_degrees, SumScratch};
use julienne_ligra::traits::{GraphRef, OutEdges};
use std::sync::atomic::Ordering as AtomicOrdering;

/// A degeneracy ordering: vertices in the order the bucketed peel removes
/// them. Every vertex has at most `degeneracy` neighbors *later* in the
/// order — the defining property, checked by the tests.
#[derive(Clone, Debug)]
pub struct DegeneracyOrder {
    /// Peel order (all n vertices).
    pub order: Vec<VertexId>,
    /// The degeneracy (= k_max = the largest coreness).
    pub degeneracy: u32,
}

/// Computes a degeneracy ordering with the work-efficient peel.
///
/// # Panics
///
/// If a vertex has degree 2^31 or more ([`peel_degrees`]).
pub fn degeneracy_order<G: OutEdges>(g: &G) -> DegeneracyOrder {
    let n = g.num_vertices();
    let degrees = peel_degrees(g).expect("degrees below 2^31");
    // ORDERING: Relaxed, by `edge_map_peel`'s protocol (stated there once).
    let d = |i: u32| degrees[i as usize].load(AtomicOrdering::Relaxed);
    let mut buckets = BucketsBuilder::new(n, d, Order::Increasing).build();
    let mut scratch = SumScratch::new(n);
    let (mut ids, mut moves) = (vec![], vec![]);

    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0u32;
    while order.len() < n {
        let k = buckets
            .next_bucket_into(&mut ids)
            .expect("peel exhausted early");
        degeneracy = degeneracy.max(k);
        edge_map_peel(
            g,
            &ids,
            &degrees,
            k,
            &mut scratch,
            &mut moves,
            |v, prev, new| Some(buckets.get_bucket(v, prev, new)).filter(|dest| !dest.is_null()),
        );
        buckets.update_buckets(&moves);
        order.extend_from_slice(&ids);
    }
    DegeneracyOrder { order, degeneracy }
}

/// Densest-subgraph statistics from the peel.
#[derive(Clone, Debug)]
pub struct DensestSubgraph {
    /// Vertices of the 2-approximate densest subgraph.
    pub vertices: Vec<VertexId>,
    /// Its density |E(S)| / |S|.
    pub density: f64,
}

/// Charikar's greedy 2-approximation: peel vertices in degeneracy order and
/// return the suffix maximising edge density. Runs in O(m + n) on top of
/// the bucketed peel.
pub fn densest_subgraph<G: GraphRef>(g: &G) -> DensestSubgraph {
    assert!(g.is_symmetric());
    let n = g.num_vertices();
    if n == 0 {
        return DensestSubgraph {
            vertices: vec![],
            density: 0.0,
        };
    }
    let peel = degeneracy_order(g);

    // Walk the peel order, tracking remaining undirected edges; the best
    // prefix-removal point maximises density of the remaining suffix.
    let mut removed = vec![false; n];
    let mut edges_left = g.num_edges() as f64 / 2.0;
    let mut best_density = edges_left / n as f64;
    let mut best_cut = 0usize; // remove order[..best_cut]
    for (i, &v) in peel.order.iter().enumerate() {
        let mut still = 0usize;
        g.for_each_out(v, |u, _| {
            if !removed[u as usize] {
                still += 1;
            }
        });
        edges_left -= still as f64;
        removed[v as usize] = true;
        let left = n - i - 1;
        if left > 0 {
            let density = edges_left / left as f64;
            if density > best_density {
                best_density = density;
                best_cut = i + 1;
            }
        }
    }
    DensestSubgraph {
        vertices: peel.order[best_cut..].to_vec(),
        density: best_density,
    }
}

/// Greedy graph coloring along the *reverse* degeneracy order: each vertex
/// sees at most `degeneracy` already-colored neighbors, so at most
/// `degeneracy + 1` colors are used — the classic corollary the bucketed
/// peel makes cheap.
pub fn greedy_coloring<G: GraphRef>(g: &G) -> Vec<u32> {
    assert!(g.is_symmetric());
    let n = g.num_vertices();
    let order = degeneracy_order(g);
    let mut color = vec![u32::MAX; n];
    let mut forbidden: Vec<u32> = Vec::new();
    for &v in order.order.iter().rev() {
        forbidden.clear();
        g.for_each_out(v, |u, _| {
            if color[u as usize] != u32::MAX {
                forbidden.push(color[u as usize]);
            }
        });
        forbidden.sort_unstable();
        forbidden.dedup();
        let mut c = 0u32;
        for &f in &forbidden {
            if f == c {
                c += 1;
            } else if f > c {
                break;
            }
        }
        color[v as usize] = c;
    }
    color
}

/// Bahmani–Kumar–Vassilvitskii (2+ε)-approximate densest subgraph:
/// repeatedly remove *all* vertices with degree ≤ 2(1+ε)·(current density),
/// keeping the best suffix. O(log_{1+ε} n) rounds — the low-depth
/// alternative to the exact Charikar peel above.
pub fn densest_subgraph_approx<G: GraphRef>(g: &G, eps: f64) -> DensestSubgraph {
    assert!(g.is_symmetric());
    assert!(eps > 0.0);
    let n = g.num_vertices();
    if n == 0 {
        return DensestSubgraph {
            vertices: vec![],
            density: 0.0,
        };
    }
    let mut degrees: Vec<usize> = (0..n).map(|v| g.out_degree(v as VertexId)).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut live_vertices = n;
    let mut live_edges = g.num_edges() as f64 / 2.0;

    let mut best_density = live_edges / n as f64;
    let mut best: Vec<VertexId> = (0..n as VertexId).collect();

    while live_vertices > 0 {
        let density = live_edges / live_vertices as f64;
        if density > best_density {
            best_density = density;
            best = (0..n as VertexId).filter(|&v| alive[v as usize]).collect();
        }
        let threshold = (2.0 * (1.0 + eps) * density).ceil() as u32;
        let peel: Vec<VertexId> = julienne_primitives::filter::pack_index(n, |v| {
            alive[v] && degrees[v] <= threshold as usize
        });
        if peel.is_empty() {
            // Cannot happen: average degree is 2·density ≤ threshold, so
            // some vertex is always at or below it. Guard regardless.
            break;
        }
        let mut in_peel = vec![false; n];
        for &v in &peel {
            in_peel[v as usize] = true;
        }
        // Removed edges = peel→survivor crossings + peel-internal edges.
        let mut cross = 0u64;
        let mut internal_twice = 0u64;
        for &v in &peel {
            g.for_each_out(v, |u, _| {
                if in_peel[u as usize] {
                    internal_twice += 1;
                } else if alive[u as usize] {
                    degrees[u as usize] -= 1;
                    cross += 1;
                }
            });
        }
        for &v in &peel {
            alive[v as usize] = false;
        }
        live_vertices -= peel.len();
        live_edges -= cross as f64 + (internal_twice / 2) as f64;
    }

    DensestSubgraph {
        vertices: best,
        density: best_density,
    }
}

/// Exact density of an induced subgraph (test helper; O(sum of degrees)).
pub fn induced_density<G: OutEdges>(g: &G, vs: &[VertexId]) -> f64 {
    if vs.is_empty() {
        return 0.0;
    }
    let mut member = vec![false; g.num_vertices()];
    for &v in vs {
        member[v as usize] = true;
    }
    let twice_edges: usize = vs
        .iter()
        .map(|&v| {
            let mut c = 0usize;
            g.for_each_out(v, |u, _| {
                if member[u as usize] {
                    c += 1;
                }
            });
            c
        })
        .sum();
    twice_edges as f64 / 2.0 / vs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcore::{coreness, KcoreParams};
    use julienne::query::QueryCtx;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::csr::Csr;
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};

    fn check_order_property(g: &Csr<()>, ord: &DegeneracyOrder) {
        // Each vertex has ≤ degeneracy neighbors later in the order.
        let mut pos = vec![0usize; g.num_vertices()];
        for (i, &v) in ord.order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for &v in &ord.order {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| pos[u as usize] > pos[v as usize])
                .count();
            assert!(
                later <= ord.degeneracy as usize,
                "vertex {v} has {later} later neighbors > degeneracy {}",
                ord.degeneracy
            );
        }
    }

    #[test]
    fn order_property_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi(500, 4_000, seed, true);
            let ord = degeneracy_order(&g);
            assert_eq!(ord.order.len(), 500);
            check_order_property(&g, &ord);
        }
    }

    #[test]
    fn degeneracy_equals_kmax() {
        let g = rmat(10, 8, RmatParams::default(), 5, true);
        let ord = degeneracy_order(&g);
        let k_max = coreness(&g, &KcoreParams::default(), &QueryCtx::default())
            .unwrap()
            .coreness
            .into_iter()
            .max()
            .unwrap();
        assert_eq!(ord.degeneracy, k_max);
        check_order_property(&g, &ord);
    }

    #[test]
    fn clique_is_its_own_densest_subgraph() {
        // 6-clique plus a long pendant path.
        let mut pairs = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                pairs.push((i, j));
            }
        }
        for i in 6..30u32 {
            pairs.push((i - 1, i));
        }
        let g = from_pairs_symmetric(30, &pairs);
        let ds = densest_subgraph(&g);
        let mut vs = ds.vertices.clone();
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2, 3, 4, 5]);
        assert!((ds.density - 2.5).abs() < 1e-9); // C(6,2)/6 = 2.5
        assert!((induced_density(&g, &ds.vertices) - ds.density).abs() < 1e-9);
    }

    #[test]
    fn density_meets_degeneracy_bound() {
        let g = rmat(10, 12, RmatParams::default(), 9, true);
        let ds = densest_subgraph(&g);
        // A graph with degeneracy k has a subgraph of density ≥ k/2.
        let k_max = coreness(&g, &KcoreParams::default(), &QueryCtx::default())
            .unwrap()
            .coreness
            .into_iter()
            .max()
            .unwrap_or(0);
        let bound = k_max as f64 / 2.0;
        assert!(
            ds.density + 1e-9 >= bound,
            "density {} below k_max/2 bound {}",
            ds.density,
            bound
        );
        // Reported density must equal the actual induced density.
        assert!((induced_density(&g, &ds.vertices) - ds.density).abs() < 1e-6);
    }

    #[test]
    fn coloring_is_proper_and_bounded_by_degeneracy() {
        for seed in 0..3 {
            let g = erdos_renyi(400, 3_000, seed, true);
            let colors = greedy_coloring(&g);
            let degeneracy = degeneracy_order(&g).degeneracy;
            for v in 0..400u32 {
                assert_ne!(colors[v as usize], u32::MAX);
                for &u in g.neighbors(v) {
                    assert_ne!(colors[v as usize], colors[u as usize], "edge ({v},{u})");
                }
            }
            let used = colors.iter().copied().max().unwrap() + 1;
            assert!(
                used <= degeneracy + 1,
                "{used} colors > degeneracy {degeneracy} + 1 (seed {seed})"
            );
        }
    }

    #[test]
    fn bipartite_graph_two_colors() {
        use julienne_graph::generators::grid2d;
        let g = grid2d(15, 15);
        let colors = greedy_coloring(&g);
        assert!(colors.iter().copied().max().unwrap() < 3); // degeneracy 2 ⇒ ≤ 3
        for v in 0..g.num_vertices() as u32 {
            for &u in g.neighbors(v) {
                assert_ne!(colors[v as usize], colors[u as usize]);
            }
        }
    }

    #[test]
    fn approx_densest_within_factor_of_exact() {
        for seed in 0..3 {
            let g = rmat(10, 10, RmatParams::default(), seed, true);
            let exact = densest_subgraph(&g);
            let approx = densest_subgraph_approx(&g, 0.1);
            // 2(1+ε)-approximation.
            assert!(
                approx.density * 2.0 * 1.1 + 1e-9 >= exact.density,
                "approx {} vs exact {} (seed {seed})",
                approx.density,
                exact.density
            );
            // Reported density must match the actual induced density.
            assert!(
                (induced_density(&g, &approx.vertices) - approx.density).abs() < 1e-6,
                "density accounting broken (seed {seed})"
            );
        }
    }

    #[test]
    fn approx_on_clique_with_tail_finds_clique_region() {
        let mut pairs = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                pairs.push((i, j));
            }
        }
        for i in 8..40u32 {
            pairs.push((i - 1, i));
        }
        let g = from_pairs_symmetric(40, &pairs);
        let a = densest_subgraph_approx(&g, 0.05);
        // Exact densest density is 3.5 (the 8-clique); the approximation
        // must find something with at least half that.
        assert!(
            a.density >= 3.5 / (2.0 * 1.05) - 1e-9,
            "density {}",
            a.density
        );
    }

    #[test]
    fn empty_graph() {
        let g = from_pairs_symmetric(3, &[]);
        let ds = densest_subgraph(&g);
        assert_eq!(ds.density, 0.0);
        let ord = degeneracy_order(&g);
        assert_eq!(ord.degeneracy, 0);
        assert_eq!(ord.order.len(), 3);
    }
}
