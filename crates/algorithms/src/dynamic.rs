//! The serve-path dynamic graph: a [`DynamicGraph`] plus incrementally
//! maintained algorithm state, the first consumer being k-core.
//!
//! [`DynamicStore`] owns the [`DynamicGraph`]. Queries pin a
//! [`SnapshotGraph`] and never see a half-applied batch; the writer applies
//! batches serially and, when the damage is small enough, repairs the
//! maintained coreness vector with [`coreness_incremental`] instead of
//! re-peeling from scratch. Past the damage threshold (or after an epoch
//! mismatch) the state is dropped and the next k-core query re-peels the
//! pinned snapshot — the fallback is always the plain Algorithm 1 peel, so
//! answers are bit-identical either way.

use crate::kcore::{coreness, coreness_incremental, KcoreParams};
use julienne::query::QueryCtx;
use julienne::Error;
use julienne_graph::snapshot::{AppliedBatch, DynamicGraph, EdgeUpdate, SnapshotGraph};
use julienne_graph::{Graph, VertexId};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Maintained-state damage threshold: batches whose effective change count
/// exceeds this drop the incremental state instead of repairing it (the
/// h-index descent would churn most of the graph anyway).
fn damage_threshold(n: usize) -> usize {
    (n / 16).max(64)
}

/// A mutable graph registered in the serve path: MVCC snapshots for readers
/// plus incrementally maintained k-core state for the writer.
pub struct DynamicStore {
    graph: DynamicGraph,
    /// `(epoch, coreness)` of the most recent epoch whose coreness vector
    /// is known, if any.
    kcore: Mutex<Option<(u64, Arc<Vec<u32>>)>>,
}

impl DynamicStore {
    /// Publishes an unweighted CSR itself as epoch 0. The graph must be
    /// symmetric for k-core maintenance to engage (asymmetric graphs still
    /// mutate and serve, they just never answer `kcore`).
    pub fn from_graph(g: Graph) -> Self {
        DynamicStore {
            graph: DynamicGraph::from_csr(g),
            kcore: Mutex::new(None),
        }
    }

    /// The maintained k-core state. A panic while it is held leaves it
    /// `None` or whole (the repair `take`s it first), so a poisoned lock is
    /// recovered.
    fn kcore_state(&self) -> MutexGuard<'_, Option<(u64, Arc<Vec<u32>>)>> {
        self.kcore.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The underlying MVCC graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Pins the currently published snapshot.
    pub fn snapshot(&self) -> Arc<SnapshotGraph> {
        self.graph.snapshot()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Applies one batch and eagerly repairs the maintained k-core state
    /// when it is current and the damage is below threshold.
    pub fn apply_batch(&self, updates: &[EdgeUpdate]) -> Result<AppliedBatch, Error> {
        let applied = self.graph.apply_batch(updates)?;
        self.maintain_kcore(&applied);
        Ok(applied)
    }

    fn maintain_kcore(&self, applied: &AppliedBatch) {
        // Subcore repair is an undirected-graph theorem; directed stores
        // never maintain state and re-peel on every epoch.
        if !self.graph.is_symmetric() {
            self.kcore_state().take();
            return;
        }
        let mut state = self.kcore_state();
        let Some((epoch, old)) = state.take() else {
            return;
        };
        if epoch + 1 != applied.epoch || applied.applied() > damage_threshold(applied.n) {
            return; // stale or too damaged: re-peel lazily on next query
        }
        let snap = self.graph.snapshot();
        if snap.epoch() != applied.epoch {
            return; // another batch already landed; its repair will run
        }
        // Distinct undirected pairs: the applied lists mirror every edge,
        // so keep each edge's canonical (u < v) spelling only.
        let undirected = |pairs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
            pairs.iter().copied().filter(|(u, v)| u < v).collect()
        };
        let inserts = undirected(&applied.inserted);
        let deletes = undirected(&applied.deleted);
        if let Ok(cores) =
            coreness_incremental(snap.csr(), &old, &inserts, &deletes, &QueryCtx::default())
        {
            *state = Some((applied.epoch, Arc::new(cores)));
        }
    }

    /// The coreness vector for `snap`, answered from maintained state when
    /// its epoch matches, else by a full peel of the pinned snapshot (which
    /// then seeds the maintained state if the snapshot is still current).
    pub fn coreness_for(
        &self,
        snap: &SnapshotGraph,
        ctx: &QueryCtx,
    ) -> Result<Arc<Vec<u32>>, Error> {
        {
            let state = self.kcore_state();
            if let Some((epoch, cores)) = &*state {
                if *epoch == snap.epoch() {
                    return Ok(Arc::clone(cores));
                }
            }
        }
        let result = coreness(snap.csr(), &KcoreParams::default(), ctx)?;
        let cores = Arc::new(result.coreness);
        let mut state = self.kcore_state();
        // Seed maintained state only if this snapshot is still the live one
        // and nothing newer was recorded meanwhile.
        if snap.epoch() == self.graph.epoch()
            && state.as_ref().is_none_or(|(e, _)| *e < snap.epoch())
        {
            *state = Some((snap.epoch(), Arc::clone(&cores)));
        }
        Ok(cores)
    }

    /// Whether maintained k-core state exists for the given epoch (test and
    /// bench introspection).
    pub fn has_kcore_state_for(&self, epoch: u64) -> bool {
        self.kcore_state()
            .as_ref()
            .is_some_and(|(e, _)| *e == epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcore::coreness_bz_seq;
    use julienne_graph::builder::from_pairs_symmetric;

    fn ctx() -> QueryCtx {
        QueryCtx::default()
    }

    #[test]
    fn coreness_is_maintained_across_small_batches() {
        let g = from_pairs_symmetric(6, &[(0, 1), (0, 2), (1, 2), (3, 4)]);
        let store = DynamicStore::from_graph(g.clone());
        let snap0 = store.snapshot();
        let c0 = store.coreness_for(&snap0, &ctx()).unwrap();
        assert_eq!(*c0, coreness_bz_seq(&g).coreness);
        assert!(store.has_kcore_state_for(0));

        let applied = store
            .apply_batch(&[EdgeUpdate::insert(3, 5), EdgeUpdate::insert(4, 5)])
            .unwrap();
        assert_eq!(applied.epoch, 1);
        assert!(store.has_kcore_state_for(1), "state repaired eagerly");
        let snap1 = store.snapshot();
        let c1 = store.coreness_for(&snap1, &ctx()).unwrap();
        assert_eq!(*c1, coreness_bz_seq(snap1.csr()).coreness);
        assert_eq!(c1[3..6], [2, 2, 2], "new triangle has coreness 2");
        // The pinned epoch-0 snapshot still answers with its own values.
        let c0_again = store.coreness_for(&snap0, &ctx()).unwrap();
        assert_eq!(*c0_again, *c0);
    }

    #[test]
    fn oversized_batches_drop_state_and_repeel() {
        // 80 vertices → threshold max(64, 5) = 64 effective directed
        // changes; a 40-edge undirected batch (80 directed inserts) is past
        // it, so the maintained state must be dropped, then rebuilt by the
        // next query's full peel.
        let g = from_pairs_symmetric(80, &[(0, 1)]);
        let store = DynamicStore::from_graph(g);
        store.coreness_for(&store.snapshot(), &ctx()).unwrap();
        let batch: Vec<EdgeUpdate> = (0..40)
            .map(|i| EdgeUpdate::insert(2 * i, 2 * i + 1))
            .collect();
        let applied = store.apply_batch(&batch).unwrap();
        assert_eq!(applied.applied(), 78, "(0,1) was already present");
        assert!(!store.has_kcore_state_for(1), "state past threshold drops");
        let snap = store.snapshot();
        let c = store.coreness_for(&snap, &ctx()).unwrap();
        assert_eq!(*c, coreness_bz_seq(snap.csr()).coreness);
        assert!(store.has_kcore_state_for(1), "full peel reseeds the state");
    }

    #[test]
    fn deletion_batches_repair_via_seeds() {
        let g = from_pairs_symmetric(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        );
        let store = DynamicStore::from_graph(g);
        store.coreness_for(&store.snapshot(), &ctx()).unwrap();
        store.apply_batch(&[EdgeUpdate::delete(2, 3)]).unwrap();
        assert!(store.has_kcore_state_for(1));
        let snap = store.snapshot();
        let c = store.coreness_for(&snap, &ctx()).unwrap();
        assert_eq!(*c, vec![2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn a_panic_holding_the_kcore_lock_poisons_nothing() {
        let g = from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 0)]);
        let store = DynamicStore::from_graph(g);
        store.coreness_for(&store.snapshot(), &ctx()).unwrap();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = store.kcore.lock();
                panic!("a thread panics holding the k-core lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(store.kcore.is_poisoned());
        store.apply_batch(&[EdgeUpdate::insert(2, 3)]).unwrap();
        assert!(store.has_kcore_state_for(1), "the repair still runs");
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 1);
        let c = store.coreness_for(&snap, &ctx()).unwrap();
        assert_eq!(*c, vec![2, 2, 2, 1]);
    }
}
