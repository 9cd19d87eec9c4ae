//! `vertexSubset` and `vertexSubsetData<T>` (Section 2.1).
//!
//! A subset of the vertices, stored sparse (an id array) or dense (a
//! bitset). Ligra's engine converts between the two depending on traversal
//! direction; conversion is O(n)/O(|S|) and parallel.

use julienne_graph::VertexId;
use julienne_primitives::bitset::{BitSet, OnesIter};
use julienne_primitives::filter::pack_index;
use std::sync::OnceLock;

/// Sparse subsets at or below this size answer [`VertexSubset::contains`]
/// with a linear scan instead of building the memoized bitset.
const CONTAINS_SCAN_MAX: usize = 16;

/// The two physical representations of a vertex subset.
#[derive(Clone, Debug)]
pub enum Repr {
    /// Vertex ids, no duplicates, order unspecified.
    Sparse(Vec<VertexId>),
    /// One bit per vertex.
    Dense(BitSet),
}

/// A subset of `0..n` vertices.
///
/// Membership and representation are fixed at construction, which lets
/// [`VertexSubset::contains`] memoize a bitset for large sparse subsets
/// without ever invalidating it.
#[derive(Debug)]
pub struct VertexSubset {
    n: usize,
    repr: Repr,
    /// Lazily built membership bitset for large sparse subsets (see
    /// [`VertexSubset::contains`]). Never set while dense.
    memo: OnceLock<BitSet>,
}

impl Clone for VertexSubset {
    fn clone(&self) -> Self {
        // Drop the memo rather than deep-copying it; the clone rebuilds it
        // on first `contains` if it ever needs one.
        VertexSubset {
            n: self.n,
            repr: self.repr.clone(),
            memo: OnceLock::new(),
        }
    }
}

impl VertexSubset {
    fn from_repr(n: usize, repr: Repr) -> Self {
        VertexSubset {
            n,
            repr,
            memo: OnceLock::new(),
        }
    }

    /// The empty subset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_repr(n, Repr::Sparse(Vec::new()))
    }

    /// The singleton `{v}`.
    pub fn single(n: usize, v: VertexId) -> Self {
        debug_assert!((v as usize) < n);
        Self::from_repr(n, Repr::Sparse(vec![v]))
    }

    /// The full vertex set `0..n`.
    pub fn all(n: usize) -> Self {
        Self::from_repr(n, Repr::Sparse((0..n as VertexId).collect()))
    }

    /// A sparse subset from an id list (caller guarantees no duplicates).
    pub fn from_vertices(n: usize, vs: Vec<VertexId>) -> Self {
        debug_assert!(vs.iter().all(|&v| (v as usize) < n));
        Self::from_repr(n, Repr::Sparse(vs))
    }

    /// A dense subset from a bitset of length `n`.
    pub fn from_bitset(bs: BitSet) -> Self {
        let n = bs.len();
        Self::from_repr(n, Repr::Dense(bs))
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.len(),
            Repr::Dense(b) => b.count_ones(),
        }
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Sparse(v) => v.is_empty(),
            Repr::Dense(b) => b.count_ones() == 0,
        }
    }

    /// Membership test.
    ///
    /// Cost contract: O(1) when dense; when sparse, a linear scan for
    /// subsets of at most `CONTAINS_SCAN_MAX` (16) ids, otherwise O(1) after a
    /// one-time O(n) bitset memoization on the first query. The memo is
    /// sound because membership never changes after construction, and it
    /// is rebuilt lazily after `clone`.
    /// Per-edge callers therefore pay amortized O(1), not O(|S|) per probe.
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.repr {
            Repr::Sparse(ids) => {
                if ids.len() <= CONTAINS_SCAN_MAX {
                    ids.contains(&v)
                } else {
                    self.memo
                        .get_or_init(|| BitSet::from_indices(self.n, ids))
                        .get(v as usize)
                }
            }
            Repr::Dense(b) => b.get(v as usize),
        }
    }

    /// Borrows the id list if sparse.
    pub fn as_sparse(&self) -> Option<&[VertexId]> {
        match &self.repr {
            Repr::Sparse(v) => Some(v),
            Repr::Dense(_) => None,
        }
    }

    /// Borrows the bitset if dense.
    pub fn as_dense(&self) -> Option<&BitSet> {
        match &self.repr {
            Repr::Dense(b) => Some(b),
            Repr::Sparse(_) => None,
        }
    }

    /// Materialises the id list (cheap if already sparse).
    pub fn to_vertices(&self) -> Vec<VertexId> {
        match &self.repr {
            Repr::Sparse(v) => v.clone(),
            Repr::Dense(b) => b.to_indices(),
        }
    }

    /// Materialises a bitset (cheap if already dense).
    pub fn to_bitset(&self) -> BitSet {
        match &self.repr {
            Repr::Sparse(v) => BitSet::from_indices(self.n, v),
            Repr::Dense(b) => b.clone(),
        }
    }

    /// Iterates the member vertices without materialising an id list
    /// (unlike [`VertexSubset::to_vertices`], which allocates even when the
    /// subset is already sparse). Sparse order is unspecified; dense order
    /// is increasing.
    pub fn iter(&self) -> SubsetIter<'_> {
        match &self.repr {
            Repr::Sparse(v) => SubsetIter::Sparse(v.iter()),
            Repr::Dense(b) => SubsetIter::Dense(b.iter_ones()),
        }
    }
}

impl<'a> IntoIterator for &'a VertexSubset {
    type Item = VertexId;
    type IntoIter = SubsetIter<'a>;

    fn into_iter(self) -> SubsetIter<'a> {
        self.iter()
    }
}

/// Allocation-free iterator over a [`VertexSubset`]'s members.
pub enum SubsetIter<'a> {
    /// Walking a sparse id list.
    Sparse(std::slice::Iter<'a, VertexId>),
    /// Walking a dense bitset's set bits.
    Dense(OnesIter<'a>),
}

impl Iterator for SubsetIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            SubsetIter::Sparse(it) => it.next().copied(),
            SubsetIter::Dense(it) => it.next().map(|i| i as VertexId),
        }
    }
}

/// A sparse subset whose members carry a value of type `T` — the paper's
/// `vertexSubsetData<T>` ("we add a function call operator to vertexSubset
/// which returns a (vertex, data) pair").
#[derive(Clone, Debug)]
pub struct VertexSubsetData<T> {
    n: usize,
    entries: Vec<(VertexId, T)>,
}

impl<T: Send + Sync> VertexSubsetData<T> {
    /// The empty data-subset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        VertexSubsetData {
            n,
            entries: Vec::new(),
        }
    }

    /// Builds from `(vertex, value)` pairs (no duplicate vertices).
    pub fn from_entries(n: usize, entries: Vec<(VertexId, T)>) -> Self {
        debug_assert!(entries.iter().all(|&(v, _)| (v as usize) < n));
        VertexSubsetData { n, entries }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(vertex, value)` pairs.
    pub fn entries(&self) -> &[(VertexId, T)] {
        &self.entries
    }

    /// Consumes into the pair list.
    pub fn into_entries(self) -> Vec<(VertexId, T)> {
        self.entries
    }
}

/// Packs the indices of `0..n` satisfying `pred` into a sparse subset.
pub fn subset_from_pred<F>(n: usize, pred: F) -> VertexSubset
where
    F: Fn(usize) -> bool + Send + Sync,
{
    VertexSubset::from_vertices(n, pack_index(n, pred))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_dense_roundtrip() {
        let s = VertexSubset::from_vertices(100, vec![3, 50, 99]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(50));
        assert!(!s.contains(51));
        let d = VertexSubset::from_bitset(s.to_bitset());
        assert!(d.as_sparse().is_none());
        assert_eq!(d.len(), 3);
        assert!(d.contains(99));
        assert_eq!(d.to_vertices(), vec![3, 50, 99]);
    }

    #[test]
    fn empty_single_all() {
        assert!(VertexSubset::empty(10).is_empty());
        let s = VertexSubset::single(10, 7);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
        assert_eq!(VertexSubset::all(5).len(), 5);
    }

    #[test]
    fn data_subset_projects() {
        let d = VertexSubsetData::from_entries(10, vec![(1, "a"), (4, "b")]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.into_entries(), vec![(1, "a"), (4, "b")]);
    }

    #[test]
    fn iter_matches_to_vertices_in_both_reprs() {
        let sparse = VertexSubset::from_vertices(100, vec![9, 3, 77]);
        let got: Vec<u32> = sparse.iter().collect();
        assert_eq!(got, sparse.to_vertices());
        let dense = VertexSubset::from_bitset(sparse.to_bitset());
        let got: Vec<u32> = dense.iter().collect();
        assert_eq!(got, vec![3, 9, 77]);
        assert_eq!(VertexSubset::empty(5).iter().count(), 0);
        // for-loop sugar via IntoIterator
        let mut sum = 0u32;
        for v in &sparse {
            sum += v;
        }
        assert_eq!(sum, 9 + 3 + 77);
    }

    #[test]
    fn contains_memoizes_large_sparse_sets() {
        // Above CONTAINS_SCAN_MAX ids: first probe builds the bitset memo,
        // later probes reuse it.
        let ids: Vec<u32> = (0..40).map(|i| i * 3).collect();
        let s = VertexSubset::from_vertices(200, ids.clone());
        assert!(s.contains(117));
        assert!(!s.contains(118));
        for &v in &ids {
            assert!(s.contains(v));
        }
        // Clone drops the memo but keeps membership.
        let c = s.clone();
        assert!(c.contains(117) && !c.contains(1));
    }

    #[test]
    fn subset_from_pred_packs() {
        let s = subset_from_pred(20, |i| i % 5 == 0);
        let mut ids = s.to_vertices();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 5, 10, 15]);
    }

    #[test]
    fn bitset_constructor() {
        let mut bs = BitSet::new(8);
        bs.set(2);
        bs.set(6);
        let s = VertexSubset::from_bitset(bs);
        assert_eq!(s.universe(), 8);
        assert_eq!(s.len(), 2);
        assert!(s.as_dense().is_some());
    }
}
