//! MVCC snapshots over a batch-updatable graph.
//!
//! [`DynamicGraph`] is its published, epoch-stamped, immutable
//! [`SnapshotGraph`] behind an `RwLock<Arc<…>>`, plus a writer mutex.
//! Readers clone the `Arc` once (a "pin") and then run entirely against
//! that snapshot: a concurrent [`DynamicGraph::apply_batch`] merges the
//! batch into the *next* CSR off to the side and swaps the pointer, so no
//! query ever observes a half-applied batch and nothing stops the world.
//! Writers serialize on the writer mutex; epochs increase by exactly 1 per
//! applied batch. Epoch 0 is the loaded CSR itself, and each epoch is
//! merged from the one before it.
//!
//! The snapshot's adjacency is a plain [`Csr`], so reads cost the same as
//! any other CSR backend, and per-vertex neighbor order is ascending —
//! byte-identical to what
//! [`EdgeList::build`](crate::builder::EdgeList::build) produces for the
//! same edge set, which is what makes mutate-then-query vs
//! rebuild-then-query differential testing exact.
//!
//! No lock here guards state a panic could leave half-written (the publish
//! is one `Arc` store; the writer mutex guards nothing), so a poisoned lock
//! is recovered, not propagated.

use crate::csr::{Csr, Graph};
use crate::VertexId;
use julienne_primitives::error::Error;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// The direction of a single edge update inside a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Ensure the edge is present (no-op if it already is).
    Insert,
    /// Ensure the edge is absent (no-op if it already is).
    Delete,
}

/// One directed edge update. Batches of these drive
/// [`DynamicGraph::apply_batch`], which mirrors them on symmetric graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeUpdate {
    /// Source vertex.
    pub u: VertexId,
    /// Target vertex.
    pub v: VertexId,
    /// Insert or delete.
    pub op: UpdateOp,
}

impl EdgeUpdate {
    /// An insertion of `u → v`.
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        EdgeUpdate {
            u,
            v,
            op: UpdateOp::Insert,
        }
    }

    /// A deletion of `u → v`.
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        EdgeUpdate {
            u,
            v,
            op: UpdateOp::Delete,
        }
    }
}

/// Normalizes a raw update batch against a graph on `n` vertices: rejects
/// out-of-range endpoints, drops self-loops, sorts by `(u, v)`, and
/// collapses duplicates so the **last** op in batch order wins for each
/// directed edge. The result is sorted, duplicate-free, and self-loop-free
/// — the shape the merge in [`DynamicGraph::apply_batch`] consumes.
pub fn normalize_updates(n: usize, updates: &[EdgeUpdate]) -> Result<Vec<EdgeUpdate>, Error> {
    for up in updates {
        if up.u as usize >= n || up.v as usize >= n {
            return Err(Error::input(format!(
                "edge update ({}, {}) out of range for a graph with {} vertices",
                up.u, up.v, n
            )));
        }
    }
    let mut ops: Vec<(usize, EdgeUpdate)> = updates
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, e)| e.u != e.v)
        .collect();
    ops.sort_unstable_by_key(|&(i, e)| (e.u, e.v, i));
    let mut out: Vec<EdgeUpdate> = Vec::with_capacity(ops.len());
    for (_, e) in ops {
        match out.last_mut() {
            Some(last) if last.u == e.u && last.v == e.v => *last = e,
            _ => out.push(e),
        }
    }
    Ok(out)
}

/// An immutable, epoch-stamped view of a [`DynamicGraph`]. Cheap to share
/// (`Arc`), safe to read for as long as a query holds it, even across any
/// number of concurrent epoch publishes.
pub struct SnapshotGraph {
    epoch: u64,
    csr: Csr<()>,
}

impl SnapshotGraph {
    /// Wraps a materialized CSR as the snapshot for `epoch`.
    pub fn new(epoch: u64, csr: Csr<()>) -> Self {
        SnapshotGraph { epoch, csr }
    }

    /// The epoch this snapshot belongs to (0 for the initial load).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying CSR adjacency.
    pub fn csr(&self) -> &Csr<()> {
        &self.csr
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Whether the edge set is symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.csr.is_symmetric()
    }
}

/// The outcome of one applied batch: the new epoch plus the effective edge
/// delta (mirrored pairs count individually for symmetric graphs).
#[derive(Clone, Debug)]
pub struct AppliedBatch {
    /// The epoch the batch produced (previous epoch + 1).
    pub epoch: u64,
    /// Directed edges actually added, sorted by `(u, v)`.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Directed edges actually removed, sorted by `(u, v)`.
    pub deleted: Vec<(VertexId, VertexId)>,
    /// Vertex count (unchanged by updates).
    pub n: usize,
    /// Directed edge count after the batch.
    pub m: usize,
}

impl AppliedBatch {
    /// Effective directed changes (inserts + deletes).
    pub fn applied(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }
}

/// A mutable graph with snapshot isolation: one serialized writer, any
/// number of lock-free readers pinned to published epochs.
pub struct DynamicGraph {
    published: RwLock<Arc<SnapshotGraph>>,
    writer: Mutex<()>,
}

impl DynamicGraph {
    /// Publishes `g` itself as epoch 0. For symmetric graphs every
    /// subsequent update is mirrored automatically, keeping the invariant.
    ///
    /// Adjacency lists must be sorted ascending (every loader and builder
    /// in this workspace produces that); batch merges preserve it.
    pub fn from_csr(g: Graph) -> Self {
        debug_assert!(
            (0..g.num_vertices() as u32).all(|v| g.neighbors(v).windows(2).all(|w| w[0] <= w[1])),
            "DynamicGraph requires sorted adjacency lists"
        );
        DynamicGraph {
            published: RwLock::new(Arc::new(SnapshotGraph::new(0, g))),
            writer: Mutex::new(()),
        }
    }

    /// Number of vertices (fixed for the lifetime of the graph).
    pub fn num_vertices(&self) -> usize {
        self.snapshot().num_vertices()
    }

    /// Whether updates are mirrored to keep the edge set symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.snapshot().is_symmetric()
    }

    /// Pins the currently published snapshot.
    pub fn snapshot(&self) -> Arc<SnapshotGraph> {
        let published = self
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&published)
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Applies one update batch: normalizes it (mirroring each update when
    /// the graph is symmetric), merges it into the next CSR, and publishes
    /// that as the next-epoch snapshot with an atomic `Arc` swap.
    /// Concurrent writers serialize; concurrent readers keep whatever
    /// snapshot they pinned. Errors (out-of-range endpoints) leave graph
    /// and epoch untouched.
    ///
    /// Inserting a present edge and deleting an absent one are no-ops that
    /// don't show up in the result's delta lists.
    pub fn apply_batch(&self, updates: &[EdgeUpdate]) -> Result<AppliedBatch, Error> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = self.snapshot();
        let g = prev.csr();
        let mirrored: Vec<EdgeUpdate>;
        let ups: &[EdgeUpdate] = if g.is_symmetric() {
            mirrored = updates
                .iter()
                .flat_map(|&e| {
                    [
                        e,
                        EdgeUpdate {
                            u: e.v,
                            v: e.u,
                            op: e.op,
                        },
                    ]
                })
                .collect();
            &mirrored
        } else {
            updates
        };
        let ops = normalize_updates(g.num_vertices(), ups)?;
        let (csr, applied) = merge(g, &ops, prev.epoch() + 1);
        // Publish while still holding the writer lock so epochs are
        // strictly increasing and never race past each other.
        let next = Arc::new(SnapshotGraph::new(applied.epoch, csr));
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = next;
        Ok(applied)
    }
}

/// Merges normalized `ops` into `g`, returning the next CSR and its
/// [`AppliedBatch`] as epoch `epoch`. One sequential pass writes offsets
/// and targets: the vertices between two touched sources are copied as one
/// slice, and a touched list, sorted and deduped first if it is not already
/// strictly ascending, is merged with its run of ops.
fn merge(g: &Graph, ops: &[EdgeUpdate], epoch: u64) -> (Graph, AppliedBatch) {
    let n = g.num_vertices();
    let inserts = ops.iter().filter(|e| e.op == UpdateOp::Insert).count();
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut targets: Vec<VertexId> = Vec::with_capacity(g.num_edges() + inserts);
    let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
    let mut sorted: Vec<VertexId> = Vec::new();
    let mut next = 0;
    for run in ops.chunk_by(|a, b| a.u == b.u) {
        let u = run[0].u;
        copy_untouched(g, next..u as usize, &mut offsets, &mut targets);
        offsets.push(targets.len() as u64);
        let mut old = g.neighbors(u);
        if !old.windows(2).all(|w| w[0] < w[1]) {
            sorted.clear();
            sorted.extend_from_slice(old);
            sorted.sort_unstable();
            sorted.dedup();
            old = &sorted;
        }
        let mut k = 0;
        for up in run {
            while k < old.len() && old[k] < up.v {
                targets.push(old[k]);
                k += 1;
            }
            let present = k < old.len() && old[k] == up.v;
            k += usize::from(present);
            match up.op {
                UpdateOp::Insert => {
                    targets.push(up.v);
                    if !present {
                        inserted.push((u, up.v));
                    }
                }
                UpdateOp::Delete if present => deleted.push((u, up.v)),
                UpdateOp::Delete => {}
            }
        }
        targets.extend_from_slice(&old[k..]);
        next = u as usize + 1;
    }
    copy_untouched(g, next..n, &mut offsets, &mut targets);
    offsets.push(targets.len() as u64);
    let csr = Csr::from_parts(offsets, targets, Vec::new(), g.is_symmetric());
    let applied = AppliedBatch {
        epoch,
        inserted,
        deleted,
        n,
        m: csr.num_edges(),
    };
    (csr, applied)
}

/// Appends the lists of `g`'s vertices `vs` unchanged, shifting their
/// offsets to where the lists land in `targets`.
fn copy_untouched(
    g: &Graph,
    vs: Range<usize>,
    offsets: &mut Vec<u64>,
    targets: &mut Vec<VertexId>,
) {
    let (lo, hi) = (g.offsets()[vs.start], g.offsets()[vs.end]);
    let base = targets.len() as u64;
    offsets.extend(g.offsets()[vs].iter().map(|&o| o - lo + base));
    targets.extend_from_slice(&g.targets()[lo as usize..hi as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_pairs, from_pairs_symmetric};

    #[test]
    fn epoch_zero_snapshot_matches_the_source() {
        let g = from_pairs_symmetric(4, &[(0, 1), (1, 2)]);
        let dg = DynamicGraph::from_csr(g);
        let snap = dg.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.num_edges(), 4);
        assert!(snap.is_symmetric());
        assert_eq!(snap.csr().neighbors(1), &[0, 2]);
    }

    #[test]
    fn symmetric_updates_are_mirrored_and_epochs_step_by_one() {
        let g = from_pairs_symmetric(4, &[(0, 1)]);
        let dg = DynamicGraph::from_csr(g);
        let a = dg.apply_batch(&[EdgeUpdate::insert(2, 3)]).unwrap();
        assert_eq!(a.epoch, 1);
        assert_eq!(a.inserted, vec![(2, 3), (3, 2)]);
        assert_eq!(a.m, 4);
        let snap = dg.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.csr().neighbors(3), &[2]);
        let b = dg.apply_batch(&[EdgeUpdate::delete(0, 1)]).unwrap();
        assert_eq!(b.epoch, 2);
        assert_eq!(b.deleted, vec![(0, 1), (1, 0)]);
        assert_eq!(dg.snapshot().num_edges(), 2);
    }

    #[test]
    fn directed_graphs_do_not_mirror() {
        let g = from_pairs(3, &[(0, 1)]);
        let dg = DynamicGraph::from_csr(g);
        let a = dg.apply_batch(&[EdgeUpdate::insert(1, 2)]).unwrap();
        assert_eq!(a.inserted, vec![(1, 2)]);
        let snap = dg.snapshot();
        assert_eq!(snap.csr().neighbors(1), &[2]);
        assert_eq!(snap.csr().degree(2), 0);
    }

    #[test]
    fn pinned_readers_keep_their_epoch_across_publishes() {
        let g = from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 3)]);
        let dg = DynamicGraph::from_csr(g);
        let pinned = dg.snapshot();
        dg.apply_batch(&[EdgeUpdate::delete(1, 2)]).unwrap();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.num_edges(), 6, "pinned snapshot is immutable");
        assert_eq!(dg.snapshot().num_edges(), 4);
        assert_eq!(dg.epoch(), 1);
    }

    #[test]
    fn failed_batches_change_nothing() {
        let g = from_pairs_symmetric(3, &[(0, 1)]);
        let dg = DynamicGraph::from_csr(g);
        assert!(dg.apply_batch(&[EdgeUpdate::insert(0, 9)]).is_err());
        assert_eq!(dg.epoch(), 0);
        assert_eq!(dg.snapshot().num_edges(), 2);
    }

    #[test]
    fn a_panicked_writer_or_publisher_poisons_nothing() {
        let dg = DynamicGraph::from_csr(from_pairs(3, &[(0, 1)]));
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _held = dg.writer.lock();
                panic!("writer panics holding the writer lock");
            });
            assert!(writer.join().is_err());
            let publisher = s.spawn(|| {
                let _held = dg.published.write();
                panic!("publisher panics holding the published lock");
            });
            assert!(publisher.join().is_err());
        });
        assert!(dg.writer.is_poisoned() && dg.published.is_poisoned());
        let pinned = dg.snapshot();
        let a = dg.apply_batch(&[EdgeUpdate::insert(1, 2)]).unwrap();
        assert_eq!((a.epoch, dg.epoch()), (1, 1));
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(dg.snapshot().csr().neighbors(1), &[2]);
    }

    // ---- batch semantics, on directed graphs so nothing is mirrored ----

    /// 0 → 1 → 2 → 3.
    fn path4() -> DynamicGraph {
        DynamicGraph::from_csr(from_pairs(4, &[(0, 1), (1, 2), (2, 3)]))
    }

    #[test]
    fn empty_batch_publishes_the_next_epoch_with_identical_lists() {
        let dg = path4();
        let before = dg.snapshot();
        let a = dg.apply_batch(&[]).unwrap();
        assert_eq!(a.epoch, 1);
        assert_eq!(a.m, 3);
        assert!(a.inserted.is_empty() && a.deleted.is_empty());
        let after = dg.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.csr().offsets(), before.csr().offsets());
        assert_eq!(after.csr().targets(), before.csr().targets());
    }

    #[test]
    fn insert_then_delete_of_the_same_edge_last_op_wins() {
        let dg = path4();
        let a = dg
            .apply_batch(&[EdgeUpdate::insert(0, 3), EdgeUpdate::delete(0, 3)])
            .unwrap();
        assert!(a.inserted.is_empty(), "insert was overridden");
        assert!(a.deleted.is_empty(), "edge was never present");
        assert_eq!(dg.snapshot().csr().neighbors(0), &[1]);
        // And the reverse order resolves to an insert.
        let a = dg
            .apply_batch(&[EdgeUpdate::delete(0, 3), EdgeUpdate::insert(0, 3)])
            .unwrap();
        assert_eq!(a.inserted, vec![(0, 3)]);
        assert_eq!(dg.snapshot().csr().neighbors(0), &[1, 3]);
    }

    #[test]
    fn duplicate_inserts_and_present_edges_are_single_noops() {
        let dg = path4();
        let a = dg
            .apply_batch(&[
                EdgeUpdate::insert(0, 1), // already present
                EdgeUpdate::insert(0, 2),
                EdgeUpdate::insert(0, 2), // duplicate
            ])
            .unwrap();
        assert_eq!(a.inserted, vec![(0, 2)]);
        assert_eq!(dg.snapshot().csr().neighbors(0), &[1, 2]);
        assert_eq!(a.m, 4);
    }

    #[test]
    fn self_loops_are_dropped_and_out_of_range_rejected() {
        let dg = path4();
        let a = dg.apply_batch(&[EdgeUpdate::insert(2, 2)]).unwrap();
        assert!(a.inserted.is_empty());
        assert_eq!(dg.snapshot().csr().neighbors(2), &[3]);
        let err = dg.apply_batch(&[EdgeUpdate::insert(0, 4)]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = dg
            .apply_batch(&[EdgeUpdate::delete(u32::MAX, 0)])
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(dg.epoch(), 1, "rejected batches publish nothing");
    }

    #[test]
    fn u32_boundary_vertex_ids_round_trip() {
        // A graph whose last valid id is exactly n-1; updates touching it
        // must work and ids ≥ n (up to u32::MAX) must fail cleanly.
        let n = 5u32;
        let dg = DynamicGraph::from_csr(from_pairs(n as usize, &[(0, 1)]));
        let a = dg
            .apply_batch(&[EdgeUpdate::insert(0, n - 1), EdgeUpdate::insert(n - 1, 0)])
            .unwrap();
        assert_eq!(a.inserted, vec![(0, n - 1), (n - 1, 0)]);
        assert_eq!(dg.snapshot().csr().neighbors(n - 1), &[0]);
        assert!(dg.apply_batch(&[EdgeUpdate::insert(0, n)]).is_err());
        assert!(dg
            .apply_batch(&[EdgeUpdate::insert(u32::MAX, u32::MAX - 1)])
            .is_err());
    }

    #[test]
    fn normalize_sorts_dedups_and_keeps_batch_order_semantics() {
        let ups = [
            EdgeUpdate::insert(1, 2),
            EdgeUpdate::delete(0, 1),
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(3, 3), // self-loop: dropped
        ];
        let norm = normalize_updates(4, &ups).unwrap();
        assert_eq!(
            norm,
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 2)]
        );
        assert!(normalize_updates(2, &ups).is_err());
    }
}
