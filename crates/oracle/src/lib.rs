//! # julienne-oracle
//!
//! Deliberately naive, obviously-correct **sequential** reference
//! implementations of every problem the workspace solves in parallel.
//!
//! The thread-count and backend equivalence suites compare the parallel
//! code against itself, so a bug shared by both sides passes unnoticed.
//! This crate closes that hole: each function here is written straight
//! from the textbook definition against a plain [`Csr`] — no bucket
//! structure, no `EdgeMap`, no worker pool, no shared helper code — so a
//! differential test against it fails unless the parallel implementation
//! is *actually* correct, not merely self-consistent (the GBBS
//! methodology: validate parallel kernels against simple sequential
//! checkers).
//!
//! Simplicity is the point. Everything here favours the most obvious
//! formulation over efficiency: coreness by literal peeling, SSSP by
//! binary-heap Dijkstra, set cover by literal greedy, triangles by hashed
//! neighbor-set intersection. Do **not** optimise these; an oracle you
//! have to think about is no oracle.
//!
//! [`Csr`]: julienne_graph::Csr

pub mod kcore;
pub mod pagerank;
pub mod setcover;
pub mod sssp;
pub mod traversal;
pub mod triangles;
pub mod updates;

/// Distance value for unreachable vertices (matches the parallel crate).
pub const INF: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    //! Hand-computed fixtures: the oracles must be right by inspection, so
    //! every expectation here is derivable on paper.

    use super::*;
    use julienne_graph::builder::{from_pairs_symmetric, EdgeList};

    /// Two triangles sharing vertex 2, plus a pendant at 5 and an isolated
    /// vertex 6.
    fn bowtie() -> julienne_graph::Graph {
        from_pairs_symmetric(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)])
    }

    #[test]
    fn bfs_levels_hand_checked() {
        let g = bowtie();
        assert_eq!(
            traversal::bfs_levels(&g, 0),
            vec![0, 1, 1, 2, 2, 3, u32::MAX]
        );
        assert_eq!(traversal::eccentricity(&g, 0), 3);
    }

    #[test]
    fn components_min_label_hand_checked() {
        let g = bowtie();
        assert_eq!(
            traversal::components_min_label(&g),
            vec![0, 0, 0, 0, 0, 0, 6]
        );
        let relabeled = vec![9, 9, 9, 9, 9, 9, 4];
        assert_eq!(
            traversal::canonical_labels(&relabeled),
            vec![0, 0, 0, 0, 0, 0, 6]
        );
    }

    #[test]
    fn apply_updates_hand_checked() {
        let g = bowtie();
        let ups = [
            updates::Update::insert(5, 6),  // attach the isolate
            updates::Update::delete(4, 5),  // detach the pendant from 4
            updates::Update::insert(0, 0),  // self-loop: ignored
            updates::Update::insert(0, 1),  // already present: no-op
            updates::Update::delete(3, 6),  // absent: no-op
            updates::Update::insert(1, 99), // out of range: ignored
        ];
        let after = updates::apply_updates(&g, &ups);
        assert!(after.is_symmetric());
        assert_eq!(after.num_edges(), g.num_edges(), "+1 edge, -1 edge");
        assert_eq!(after.neighbors(5), &[6]);
        assert_eq!(after.neighbors(6), &[5]);
        assert_eq!(after.neighbors(4), &[2, 3]);
        // Last op wins: delete then insert of the same edge nets an insert.
        let flip = [updates::Update::delete(0, 1), updates::Update::insert(0, 1)];
        assert_eq!(updates::apply_updates(&g, &flip).num_edges(), g.num_edges());
    }

    #[test]
    fn coreness_after_updates_hand_checked() {
        let g = bowtie();
        // Delete one triangle edge: 0 and 1 fall out of the 2-core.
        let ups = [updates::Update::delete(0, 1)];
        assert_eq!(
            updates::coreness_after_updates(&g, &ups),
            vec![1, 1, 2, 2, 2, 1, 0]
        );
    }

    #[test]
    fn coreness_peel_hand_checked() {
        // Both triangles are 2-cores; the pendant 5 and isolate 6 are not.
        let g = bowtie();
        assert_eq!(kcore::coreness_peel(&g), vec![2, 2, 2, 2, 2, 1, 0]);
        assert_eq!(kcore::degeneracy(&g), 2);
    }

    #[test]
    fn degeneracy_order_checker() {
        let g = bowtie();
        assert!(kcore::is_degeneracy_order(&g, &[6, 5, 4, 3, 2, 1, 0], 2));
        // Claiming degeneracy 1 must fail (triangles need 2).
        assert!(!kcore::is_degeneracy_order(&g, &[6, 5, 4, 3, 2, 1, 0], 1));
        // Not a permutation.
        assert!(!kcore::is_degeneracy_order(&g, &[0, 0, 1, 2, 3, 4, 5], 2));
    }

    #[test]
    fn trussness_hand_checked() {
        // K4: every edge closes 2 triangles → trussness 4.
        let k4 = from_pairs_symmetric(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let (endpoints, truss) = kcore::trussness_peel(&k4);
        assert_eq!(endpoints.len(), 6);
        assert!(truss.iter().all(|&t| t == 4), "{truss:?}");
        // A path has no triangles → trussness 2 everywhere.
        let path = from_pairs_symmetric(3, &[(0, 1), (1, 2)]);
        let (_, truss) = kcore::trussness_peel(&path);
        assert_eq!(truss, vec![2, 2]);
    }

    #[test]
    fn dijkstra_hand_checked() {
        // 0 →(5) 1 →(1) 2, plus direct 0 →(10) 2: shortest 0→2 is 6.
        let mut el: EdgeList<u32> = EdgeList::new(4);
        el.push_undirected(0, 1, 5);
        el.push_undirected(1, 2, 1);
        el.push_undirected(0, 2, 10);
        let g = el.build(true);
        assert_eq!(sssp::dijkstra_binheap(&g, 0), vec![0, 5, 6, INF]);
    }

    #[test]
    fn triangle_oracles_hand_checked() {
        let g = bowtie();
        assert_eq!(triangles::triangle_count_naive(&g), 2);
        assert_eq!(
            triangles::triangles_per_vertex(&g),
            vec![1, 1, 2, 1, 1, 0, 0]
        );
        let c = triangles::local_clustering_naive(&g);
        assert_eq!(c[0], 1.0); // deg 2, one triangle
        assert_eq!(c[2], 2.0 / 6.0); // deg 4, two of six pairs closed
        assert_eq!(c[6], 0.0);
        // Edges (0,1) (0,2) (1,2) (2,3) (2,4) (3,4) (4,5): one triangle on
        // each of the bow's edges, none on the tail.
        assert_eq!(triangles::edge_support_naive(&g), vec![1, 1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let pairs: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        let g = from_pairs_symmetric(8, &pairs);
        let r = pagerank::pagerank_power(&g, 0.85, 1e-12, 200);
        for &x in &r {
            assert!((x - 0.125).abs() < 1e-9, "{r:?}");
        }
    }
}
