//! Graph transforms: symmetrisation, weight assignment.

use crate::builder::EdgeList;
use crate::csr::{Csr, Weight};
use crate::VertexId;
use julienne_primitives::rng::hash64;
use rayon::prelude::*;

/// Returns the symmetric closure of `g` (edges mirrored, duplicates removed).
pub fn symmetrize<W: Weight>(g: &Csr<W>) -> Csr<W> {
    let n = g.num_vertices();
    let mut el = EdgeList::new(n);
    el.edges.reserve(2 * g.num_edges());
    for u in 0..n as VertexId {
        for (v, w) in g.edges_of(u) {
            el.push(u, v, w);
            el.push(v, u, w);
        }
    }
    el.build(true)
}

/// Assigns each edge a deterministic pseudo-random weight in `[lo, hi)`.
///
/// Used to create the paper's weighted inputs: `[1, ⌈log n⌉)` for wBFS and
/// `[1, 10^5)` for Δ-stepping. For symmetric graphs the weight of `(u, v)`
/// and `(v, u)` must agree, so the hash key is the unordered pair.
pub fn assign_weights(g: &Csr<()>, lo: u32, hi: u32, seed: u64) -> Csr<u32> {
    assert!(lo < hi);
    let n = g.num_vertices();
    let range = (hi - lo) as u64;
    let weights: Vec<u32> = (0..n as VertexId)
        .into_par_iter()
        .flat_map_iter(|u| {
            g.neighbors(u).iter().map(move |&v| {
                let (a, b) = if g.is_symmetric() {
                    (u.min(v), u.max(v))
                } else {
                    (u, v)
                };
                let key = ((a as u64) << 32) | b as u64;
                lo + (hash64(seed, key) % range) as u32
            })
        })
        .collect();
    Csr::from_parts(
        g.offsets().to_vec(),
        g.targets().to_vec(),
        weights,
        g.is_symmetric(),
    )
}

/// Relabels vertices by a permutation: vertex `v` becomes `perm[v]`.
/// `perm` must be a bijection on `0..n`.
pub fn relabel<W: Weight>(g: &Csr<W>, perm: &[VertexId]) -> Csr<W> {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n);
    debug_assert!({
        let mut seen = vec![false; n];
        perm.iter().all(|&p| {
            let fresh = !seen[p as usize];
            seen[p as usize] = true;
            fresh
        })
    });
    let mut el = EdgeList::new(n);
    el.edges.reserve(g.num_edges());
    for u in 0..n as VertexId {
        for (v, w) in g.edges_of(u) {
            el.push(perm[u as usize], perm[v as usize], w);
        }
    }
    el.build(g.is_symmetric())
}

/// Degree-descending relabeling ("hub sorting"): hubs get the smallest ids,
/// which clusters the hottest adjacency lists together and improves cache
/// behaviour on heavy-tailed graphs — the standard preprocessing used by
/// frameworks the paper compares against.
pub fn hub_sort<W: Weight>(g: &Csr<W>) -> (Csr<W>, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.par_sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    // perm[old] = new rank.
    let mut perm = vec![0 as VertexId; n];
    for (rank, &v) in by_degree.iter().enumerate() {
        perm[v as usize] = rank as VertexId;
    }
    (relabel(g, &perm), perm)
}

/// The standard weight range for wBFS inputs: `[1, max(2, ⌈log2 n⌉))`.
pub fn wbfs_weight_range(n: usize) -> (u32, u32) {
    let log_n = usize::BITS - n.max(2).leading_zeros();
    (1, log_n.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_pairs;

    #[test]
    fn symmetrize_doubles_and_dedups() {
        let g = from_pairs(3, &[(0, 1), (1, 0), (1, 2)]);
        let s = symmetrize(&g);
        assert!(s.is_symmetric());
        assert_eq!(s.num_edges(), 4); // {0,1} and {1,2} both ways
        assert!(s.validate().is_ok());
    }

    #[test]
    fn weights_in_range_and_symmetric_consistent() {
        let g = from_pairs(50, &(0..49).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let s = symmetrize(&g);
        let w = assign_weights(&s, 1, 10, 42);
        for u in 0..50u32 {
            for (v, wt) in w.edges_of(u) {
                assert!((1..10).contains(&wt));
                // reverse edge must carry same weight
                let rev = w
                    .edges_of(v)
                    .find(|&(x, _)| x == u)
                    .map(|(_, rw)| rw)
                    .unwrap();
                assert_eq!(wt, rev, "asym weight on ({u},{v})");
            }
        }
    }

    #[test]
    fn wbfs_range_sane() {
        assert_eq!(wbfs_weight_range(2), (1, 2));
        let (lo, hi) = wbfs_weight_range(1 << 20);
        assert_eq!(lo, 1);
        assert_eq!(hi, 21);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = from_pairs(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let perm: Vec<u32> = vec![4, 3, 2, 1, 0]; // reverse
        let h = relabel(&g, &perm);
        assert_eq!(h.num_edges(), g.num_edges());
        for u in 0..5u32 {
            let mut want: Vec<u32> = g.neighbors(u).iter().map(|&v| perm[v as usize]).collect();
            want.sort_unstable();
            assert_eq!(h.neighbors(perm[u as usize]), &want[..]);
        }
    }

    #[test]
    fn hub_sort_orders_by_degree() {
        use crate::generators::rmat;
        use crate::generators::RmatParams;
        let g = rmat(9, 8, RmatParams::default(), 3, true);
        let (h, perm) = hub_sort(&g);
        assert_eq!(h.num_edges(), g.num_edges());
        // New ids are degree-descending.
        for v in 1..h.num_vertices() as u32 {
            assert!(h.degree(v - 1) >= h.degree(v), "not sorted at {v}");
        }
        // perm is a bijection mapping old degrees onto new positions.
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(h.degree(perm[v as usize]), g.degree(v));
        }
    }

    #[test]
    fn weights_deterministic_across_calls() {
        let g = from_pairs(10, &[(0, 1), (1, 2), (2, 3)]);
        let w1 = assign_weights(&g, 1, 100, 7);
        let w2 = assign_weights(&g, 1, 100, 7);
        assert_eq!(w1.weights(), w2.weights());
        let w3 = assign_weights(&g, 1, 100, 8);
        assert_ne!(w1.weights(), w3.weights());
    }
}
