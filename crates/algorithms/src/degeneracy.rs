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
    fn empty_graph() {
        let g = from_pairs_symmetric(3, &[]);
        let ds = densest_subgraph(&g);
        assert_eq!(ds.density, 0.0);
        let ord = degeneracy_order(&g);
        assert_eq!(ord.degeneracy, 0);
        assert_eq!(ord.order.len(), 3);
    }
}
