//! Compressed-sparse-row graphs, generic over the edge-weight type.

use crate::mmap::Array;
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
    /// Adopts a container's stored `u32` weights: `u32` keeps the view
    /// where it lies, other types widen into an array of their own.
    fn from_stored(ws: Array<u32>) -> Array<Self> {
        ws.iter()
            .map(|&w| Self::from_u64(w.into()))
            .collect::<Vec<_>>()
            .into()
    }
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
    fn from_stored(ws: Array<u32>) -> Array<u32> {
        ws
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
/// what Ligra's dense (pull) traversal reads. The three arrays are owned,
/// or views of a mapped `.jgr` file's sections ([`Csr::open`]); nothing
/// that reads the graph can tell which.
#[derive(Clone, Debug)]
pub struct Csr<W: Weight> {
    offsets: Array<u64>,
    targets: Array<VertexId>,
    weights: Array<W>,
    symmetric: bool,
}

/// Unweighted graph.
pub type Graph = Csr<()>;
/// Integer-weighted graph (the paper's wBFS / Δ-stepping inputs).
pub type WGraph = Csr<u32>;

impl<W: Weight> Csr<W> {
    /// Builds a CSR directly from components. `offsets` must have length
    /// `n + 1`, be nondecreasing, start at 0 and end at `targets.len()`;
    /// every target must be below `n`; `weights` must be empty
    /// (unweighted) or parallel to `targets`. Panics otherwise.
    pub fn from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<W>,
        symmetric: bool,
    ) -> Self {
        Self::try_from_parts(offsets, targets, weights, symmetric)
            .unwrap_or_else(|msg| panic!("invalid CSR parts: {msg}"))
    }

    /// Fallible [`Csr::from_parts`]: returns a description of the first
    /// violated invariant instead of panicking. The binary loader uses this
    /// so corrupt files surface as typed parse errors rather than asserts
    /// or silently garbage graphs.
    pub fn try_from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<W>,
        symmetric: bool,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets array is empty (must have length n+1)".into());
        }
        let weights = if W::IS_UNIT && weights.is_empty() {
            vec![W::default(); targets.len()]
        } else {
            weights
        };
        let g = Self::from_arrays(offsets.into(), targets.into(), weights.into(), symmetric);
        g.check_structure()?;
        Ok(g)
    }

    /// This graph's structure with `weights` in place of its own: the
    /// offsets and targets are shared, not copied, and the structure check
    /// holds the weights to the targets.
    pub fn with_weights<V: Weight>(&self, weights: Vec<V>) -> Result<Csr<V>, String> {
        let (offsets, targets) = (self.offsets.clone(), self.targets.clone());
        let g = Csr::from_arrays(offsets, targets, weights.into(), self.symmetric);
        g.check_structure().map(|()| g)
    }

    /// Assembles a CSR without looking at a single edge; `offsets` must not
    /// be empty (it holds `n + 1` entries). Until [`Csr::check_structure`]
    /// passes, a malformed graph is only safe: a bad offset panics at the
    /// slice it cuts.
    pub(crate) fn from_arrays(
        offsets: Array<u64>,
        targets: Array<VertexId>,
        weights: Array<W>,
        symmetric: bool,
    ) -> Self {
        Csr {
            offsets,
            targets,
            weights,
            symmetric,
        }
    }

    /// The structure every CSR read from outside holds, or the first
    /// violation: the offsets start at 0, never decrease and end at `m`,
    /// every target is below `n`, and the weights are parallel to the
    /// targets. One pass over the arrays.
    pub(crate) fn check_structure(&self) -> Result<(), String> {
        let (offsets, n, m) = (&self.offsets, self.num_vertices(), self.num_edges());
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
        if self.weights.len() != m {
            return Err(format!("{} weights for {m} edges", self.weights.len()));
        }
        if let Some(&t) = self.targets.iter().find(|&&t| t as usize >= n) {
            return Err(format!("target {t} out of range for {n} vertices"));
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
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
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId) as u32)
            .collect()
    }

    /// Checks the structure ([`Csr::try_from_parts`]'s invariants) and, on
    /// a sample of vertices, the symmetry a symmetric graph claims; used by
    /// tests and after I/O.
    pub fn validate(&self) -> Result<(), String> {
        self.check_structure()?;
        if self.symmetric {
            // Spot-check symmetry on a sample of edges.
            let n = self.num_vertices();
            for v in (0..n as VertexId).step_by((n / 64).max(1)) {
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
    fn malformed_parts_are_refused() {
        let refuse = |o: Vec<u64>, t: Vec<u32>| Graph::try_from_parts(o, t, vec![], false);
        assert!(refuse(vec![], vec![]).unwrap_err().contains("empty"));
        assert!(refuse(vec![1, 1], vec![0])
            .unwrap_err()
            .contains("start at 0"));
        assert!(refuse(vec![0, 2], vec![0])
            .unwrap_err()
            .contains("end at 2"));
        assert!(refuse(vec![0, 2, 1, 2], vec![0, 0])
            .unwrap_err()
            .contains("monotone"));
        assert!(refuse(vec![0, 1], vec![1])
            .unwrap_err()
            .contains("out of range"));
        let short = WGraph::try_from_parts(vec![0, 1, 1], vec![1], vec![], false);
        assert!(short.unwrap_err().contains("0 weights for 1 edges"));
    }
}
