//! Compressed-sparse-row graphs, generic over the edge-weight type.

use crate::VertexId;
use rayon::prelude::*;

/// Edge-weight types usable in a [`Csr`].
///
/// `()` marks an unweighted graph (zero storage); `u32` carries the paper's
/// nonnegative integral weights; `u64` exists for accumulated distances.
pub trait Weight: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Whether this weight type carries no information (unweighted graphs).
    const IS_UNIT: bool;
    /// Serialises for binary I/O.
    fn to_u64(self) -> u64;
    /// Deserialises from binary I/O.
    fn from_u64(x: u64) -> Self;
}

impl Weight for () {
    const IS_UNIT: bool = true;
    fn to_u64(self) -> u64 {
        0
    }
    fn from_u64(_: u64) -> Self {}
}

impl Weight for u32 {
    const IS_UNIT: bool = false;
    fn to_u64(self) -> u64 {
        self as u64
    }
    fn from_u64(x: u64) -> Self {
        x as u32
    }
}

impl Weight for u64 {
    const IS_UNIT: bool = false;
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(x: u64) -> Self {
        x
    }
}

/// An immutable CSR graph with edge weights of type `W`.
///
/// `offsets`/`targets` hold the **out**-adjacency. Symmetric graphs set
/// [`Csr::is_symmetric`]; their out-lists are also their in-lists, which is
/// what Ligra's dense (pull) traversal reads.
#[derive(Clone, Debug)]
pub struct Csr<W: Weight> {
    n: usize,
    m: usize,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<W>,
    symmetric: bool,
}

/// Unweighted graph.
pub type Graph = Csr<()>;
/// Integer-weighted graph (the paper's wBFS / Δ-stepping inputs).
pub type WGraph = Csr<u32>;

impl<W: Weight> Csr<W> {
    /// Builds a CSR directly from components. `offsets` must have length
    /// `n + 1`, be nondecreasing, start at 0 and end at `targets.len()`;
    /// `weights` must be empty (unweighted) or parallel to `targets`.
    pub fn from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<W>,
        symmetric: bool,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1");
        let n = offsets.len() - 1;
        let m = targets.len();
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[n] as usize, m);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(weights.len() == m || (W::IS_UNIT && weights.is_empty()));
        let weights = if W::IS_UNIT && weights.is_empty() {
            vec![W::default(); m]
        } else {
            weights
        };
        debug_assert!(targets.iter().all(|&t| (t as usize) < n));
        Csr {
            n,
            m,
            offsets,
            targets,
            weights,
            symmetric,
        }
    }

    /// Fallible [`Csr::from_parts`]: returns a description of the first
    /// violated invariant instead of panicking. The binary and container
    /// loaders use this so corrupt files surface as typed parse errors
    /// rather than asserts (or, worse, silently garbage graphs when
    /// `debug_assert`s are compiled out).
    pub fn try_from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<W>,
        symmetric: bool,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets array is empty (must have length n+1)".into());
        }
        let n = offsets.len() - 1;
        let m = targets.len();
        if offsets[0] != 0 {
            return Err(format!("offsets must start at 0, found {}", offsets[0]));
        }
        if offsets[n] as usize != m {
            return Err(format!(
                "offsets end at {} but there are {m} targets",
                offsets[n]
            ));
        }
        if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!("offsets not monotone ({} > {})", w[0], w[1]));
        }
        if !(weights.len() == m || (W::IS_UNIT && weights.is_empty())) {
            return Err(format!("{} weights for {m} edges", weights.len()));
        }
        if let Some(&t) = targets.iter().find(|&&t| t as usize >= n) {
            return Err(format!("target {t} out of range for {n} vertices"));
        }
        let weights = if W::IS_UNIT && weights.is_empty() {
            vec![W::default(); m]
        } else {
            weights
        };
        Ok(Csr {
            n,
            m,
            offsets,
            targets,
            weights,
            symmetric,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Whether the graph is symmetric (undirected).
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Total bytes of the adjacency arrays (offsets + targets + weights).
    /// The denominator for the bytes/edge comparison against the compressed
    /// backends.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<W>()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Weights of the out-edges of `v`, parallel to [`Csr::neighbors`].
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> &[W] {
        let v = v as usize;
        &self.weights[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`'s out-edges.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, W)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    /// The offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat targets array.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The flat weights array (parallel to targets).
    pub fn weights(&self) -> &[W] {
        &self.weights
    }

    /// All out-degrees as a vector.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.n)
            .into_par_iter()
            .map(|v| self.degree(v as VertexId) as u32)
            .collect()
    }

    /// Sum of out-degrees over a set of vertices (used for the edgeMap
    /// sparse/dense threshold).
    pub fn out_degrees_sum(&self, vs: &[VertexId]) -> usize {
        if vs.len() < 4096 {
            vs.iter().map(|&v| self.degree(v)).sum()
        } else {
            vs.par_iter().map(|&v| self.degree(v)).sum()
        }
    }

    /// Checks structural invariants; used by tests and after I/O.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.n + 1 {
            return Err("offsets length".into());
        }
        if self.offsets[self.n] as usize != self.m || self.targets.len() != self.m {
            return Err("edge count mismatch".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets not monotone".into());
            }
        }
        if let Some(&bad) = self.targets.iter().find(|&&t| t as usize >= self.n) {
            return Err(format!("target {bad} out of range"));
        }
        if self.symmetric {
            // Spot-check symmetry on a sample of edges.
            for v in (0..self.n as VertexId).step_by((self.n / 64).max(1)) {
                for &u in self.neighbors(v) {
                    if !self.neighbors(u).contains(&v) {
                        return Err(format!("edge ({v},{u}) not symmetric"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        // 0 -> 1,2 ; 1 -> 2 ; 2 -> (none) ; 3 -> 0
        Csr::from_parts(vec![0, 2, 3, 3, 4], vec![1, 2, 2, 0], vec![], false)
    }

    #[test]
    fn basic_accessors() {
        let g = tiny();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.degrees(), vec![2, 1, 0, 1]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn weighted_edges_iterate() {
        let g: WGraph = Csr::from_parts(vec![0, 2, 2], vec![1, 1], vec![10, 20], false);
        let edges: Vec<_> = g.edges_of(0).collect();
        assert_eq!(edges, vec![(1, 10), (1, 20)]);
        assert_eq!(g.weights_of(0), &[10, 20]);
    }

    #[test]
    #[should_panic]
    fn bad_offsets_panic() {
        let _ = Graph::from_parts(vec![0, 2], vec![1, 0, 0], vec![], false);
    }

    #[test]
    fn out_degrees_sum() {
        let g = tiny();
        assert_eq!(g.out_degrees_sum(&[0, 3]), 3);
        assert_eq!(g.out_degrees_sum(&[]), 0);
    }
}
