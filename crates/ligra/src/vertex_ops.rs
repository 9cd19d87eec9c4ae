//! `vertexMap` and `vertexFilter` (Section 2.1).

use crate::subset::{VertexSubset, VertexSubsetData};
use julienne_graph::VertexId;
use julienne_primitives::filter::filter_map;
use rayon::prelude::*;

/// Applies `f` to every vertex of `subset` in parallel and returns the
/// subset of vertices for which `f` returned `true`. `f` may side-effect
/// per-vertex state.
pub fn vertex_map<F>(subset: &VertexSubset, f: F) -> VertexSubset
where
    F: Fn(VertexId) -> bool + Send + Sync,
{
    match subset.as_sparse() {
        Some(ids) => {
            let kept = filter_map(ids, |&v| if f(v) { Some(v) } else { None });
            VertexSubset::from_vertices(subset.universe(), kept)
        }
        None => {
            let bs = subset.as_dense().unwrap();
            let n = subset.universe();
            crate::subset::subset_from_pred(n, |i| bs.get(i) && f(i as VertexId))
        }
    }
}

/// Applies `f` for its side effects only, ignoring the result subset.
pub fn vertex_for_each<F>(subset: &VertexSubset, f: F)
where
    F: Fn(VertexId) + Send + Sync,
{
    match subset.as_sparse() {
        Some(ids) => ids.par_iter().for_each(|&v| f(v)),
        None => {
            let bs = subset.as_dense().unwrap();
            (0..subset.universe()).into_par_iter().for_each(|i| {
                if bs.get(i) {
                    f(i as VertexId);
                }
            });
        }
    }
}

/// `vertexFilter`: keeps vertices satisfying the pure predicate `p`.
/// (Identical machinery to [`vertex_map`], named separately to mirror the
/// paper's API, where `vertexFilter` must be side-effect free.)
pub fn vertex_filter<F>(subset: &VertexSubset, p: F) -> VertexSubset
where
    F: Fn(VertexId) -> bool + Send + Sync,
{
    vertex_map(subset, p)
}

/// `vertexMap` over a value-carrying subset: `f(v, value)` returns
/// `Some(out)` to keep `v` with a new value, `None` to drop it.
pub fn vertex_map_data<T, U, F>(subset: &VertexSubsetData<T>, f: F) -> VertexSubsetData<U>
where
    T: Copy + Send + Sync,
    U: Copy + Send + Sync,
    F: Fn(VertexId, T) -> Option<U> + Send + Sync,
{
    let out = filter_map(subset.entries(), |&(v, t)| f(v, t).map(|u| (v, u)));
    VertexSubsetData::from_entries(subset.universe(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_primitives::bitset::BitSet;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn vertex_map_filters_and_side_effects() {
        let touched: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(0)).collect();
        let s = VertexSubset::from_vertices(10, vec![1, 2, 3, 4]);
        let out = vertex_map(&s, |v| {
            touched[v as usize].fetch_add(1, Ordering::Relaxed);
            v % 2 == 0
        });
        let mut ids = out.to_vertices();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 4]);
        for v in [1, 2, 3, 4] {
            assert_eq!(touched[v].load(Ordering::Relaxed), 1);
        }
        assert_eq!(touched[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn vertex_map_on_dense_subset() {
        let ids: Vec<VertexId> = (0..50).collect();
        let s = VertexSubset::from_bitset(BitSet::from_indices(100, &ids));
        let out = vertex_map(&s, |v| v < 10);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn vertex_map_data_transforms() {
        let d = VertexSubsetData::from_entries(10, vec![(1, 10u32), (2, 20), (3, 30)]);
        let out = vertex_map_data(&d, |v, x| if v != 2 { Some(x * 2) } else { None });
        assert_eq!(out.entries(), &[(1, 20), (3, 60)]);
    }

    #[test]
    fn for_each_visits_all() {
        let count = AtomicU32::new(0);
        let s = VertexSubset::from_vertices(10, vec![0, 5, 9]);
        vertex_for_each(&s, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}
