//! Bipartite set-cover instances (Section 4.3 / Section 5).
//!
//! The paper "generated bipartite graphs to use as set cover instances by
//! having vertices represent both the sets and the elements". We do the
//! same: vertices `[0, num_sets)` are sets, `[num_sets, num_sets +
//! num_elements)` are elements, and membership edges run both ways. Every
//! element belongs to at least one set, so a full cover always exists.

use crate::builder::EdgeList;
use crate::csr::Csr;
use crate::VertexId;
use julienne_primitives::rng::{hash64, hash_range};
use rayon::prelude::*;

/// A generated set-cover instance over a symmetric bipartite graph.
#[derive(Clone, Debug)]
pub struct SetCoverInstance {
    /// Symmetric bipartite membership graph (sets first, then elements).
    pub graph: Csr<()>,
    /// Number of set vertices (`0..num_sets`).
    pub num_sets: usize,
    /// Number of element vertices (`num_sets..num_sets + num_elements`).
    pub num_elements: usize,
}

impl SetCoverInstance {
    /// The vertex id of element `e`.
    pub fn element_vertex(&self, e: usize) -> VertexId {
        (self.num_sets + e) as VertexId
    }

    /// Whether `v` is a set vertex.
    pub fn is_set(&self, v: VertexId) -> bool {
        (v as usize) < self.num_sets
    }
}

/// Generates an instance in which each element joins `1 + extra` sets, with
/// `extra` geometric-ish in `[0, max_multiplicity)` and set choices skewed
/// toward low-numbered sets (power-law set sizes, like real web corpora).
pub fn set_cover_instance(
    num_sets: usize,
    num_elements: usize,
    max_multiplicity: usize,
    seed: u64,
) -> SetCoverInstance {
    assert!(num_sets >= 1 && num_elements >= 1);
    let n = num_sets + num_elements;
    let skewed_set = |h: u64| -> VertexId {
        // Square a uniform variate: density ∝ 1/(2·sqrt(u)) toward 0, giving
        // a mild skew so some sets are much larger than others.
        let u = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        ((u * u * num_sets as f64) as usize).min(num_sets - 1) as VertexId
    };
    let edges: Vec<(VertexId, VertexId, ())> = (0..num_elements as u64)
        .into_par_iter()
        .flat_map_iter(|e| {
            let copies =
                1 + (hash_range(seed ^ 0xC0FFEE, e, max_multiplicity.max(1) as u64) as usize);
            let elem_v = (num_sets as u64 + e) as VertexId;
            (0..copies).map(move |j| {
                let s = skewed_set(hash64(seed, e * 131 + j as u64));
                (s, elem_v, ())
            })
        })
        .collect();
    let graph = EdgeList { n, edges }.build_symmetric();
    SetCoverInstance {
        graph,
        num_sets,
        num_elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_element_covered() {
        let inst = set_cover_instance(100, 5000, 4, 11);
        assert!(inst.graph.validate().is_ok());
        for e in 0..inst.num_elements {
            let v = inst.element_vertex(e);
            assert!(inst.graph.degree(v) >= 1, "element {e} belongs to no set");
            // All neighbors of an element are sets.
            for &s in inst.graph.neighbors(v) {
                assert!(inst.is_set(s));
            }
        }
    }

    #[test]
    fn sets_only_touch_elements() {
        let inst = set_cover_instance(50, 1000, 3, 7);
        for s in 0..inst.num_sets as VertexId {
            for &e in inst.graph.neighbors(s) {
                assert!(!inst.is_set(e));
            }
        }
    }

    #[test]
    fn set_sizes_are_skewed() {
        let inst = set_cover_instance(200, 20_000, 4, 3);
        let sizes: Vec<usize> = (0..inst.num_sets as VertexId)
            .map(|s| inst.graph.degree(s))
            .collect();
        let max = *sizes.iter().max().unwrap();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(max as f64 > 3.0 * avg, "max={max} avg={avg}");
    }

    #[test]
    fn deterministic() {
        let a = set_cover_instance(10, 100, 2, 5);
        let b = set_cover_instance(10, 100, 2, 5);
        assert_eq!(a.graph.targets(), b.graph.targets());
    }
}
