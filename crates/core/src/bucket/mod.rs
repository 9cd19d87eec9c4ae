//! The bucketing interface (Section 3.1): one lazy open-window structure
//! behind the paper's four calls.
//!
//! | paper | here |
//! |---|---|
//! | `makeBuckets(n, D, O)` | [`BucketsBuilder::new`]`(n, d, order).build()` (or [`Engine::buckets`](crate::engine::Engine::buckets)) |
//! | `getBucket(prev, next)` | [`Bucketing::get_bucket`]`(i, prev, next)` |
//! | `updateBuckets(k, F)` | [`Bucketing::update_buckets`]`(&[(id, dest)])` |
//! | `nextBucket()` | [`Bucketing::next_bucket`] |
//!
//! `D : identifier → bucket_id` is the *current* logical bucket of each
//! identifier; the structure keeps it and re-evaluates it lazily, so stale
//! physical copies are filtered at extraction instead of being deleted at
//! update time. The core loop of every bucketing-based algorithm is:
//!
//! ```text
//! while let Some((bkt, ids)) = B.next_bucket() {
//!     …process ids, mutating the state D reads…
//!     let moved = …(id, B.get_bucket(id, prev, next)) for affected ids…;
//!     B.update_buckets(&moved);
//! }
//! ```
//!
//! There is one production structure, [`Buckets`] (Section 3.3: `nB` open
//! buckets plus one overflow bucket, blocked-histogram `updateBuckets`),
//! and one sequential exact reference, [`SeqBuckets`] (Section 3.2), which
//! the property tests compare it against. Both answer the four calls
//! through [`Bucketing`].
//!
//! A complete example — drain identifiers in increasing bucket order,
//! moving one forward mid-stream:
//!
//! ```
//! use julienne::bucket::{Bucketing, BucketsBuilder, Order, NULL_BKT};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! // D: identifier -> bucket (shared state the algorithm mutates).
//! let d: Vec<AtomicU32> = [2u32, 0, 2].into_iter().map(AtomicU32::new).collect();
//! let mut b = BucketsBuilder::new(3, |i: u32| d[i as usize].load(Ordering::SeqCst),
//!                                 Order::Increasing)
//!     .build();
//!
//! assert_eq!(b.next_bucket(), Some((0, vec![1])));
//! // Move identifier 0 from bucket 2 to bucket 1.
//! d[0].store(1, Ordering::SeqCst);
//! let dest = b.get_bucket(0, 2, 1);
//! b.update_buckets(&[(0, dest)]);
//! assert_eq!(b.next_bucket(), Some((1, vec![0])));
//! assert_eq!(b.next_bucket(), Some((2, vec![2])));
//! assert_eq!(b.next_bucket(), None);
//! ```
//!
//! ## Contract
//!
//! * `D` must reflect all state mutations *before* the corresponding
//!   `get_bucket`/`update_buckets`/`next_bucket` calls.
//! * Per identifier, logical bucket ids must move monotonically in the
//!   traversal direction (never behind the current bucket) — true of every
//!   algorithm in the paper, enforced where cheap by `debug_assert!`.
//! * With [`Order::Decreasing`], no bucket id may ever exceed the maximum
//!   present at creation (set-cover degrees only shrink, so this holds).
//! * An identifier may appear at most once per `update_buckets` call.

mod par;
mod seq;

pub use par::{Buckets, BucketsBuilder, DEFAULT_OPEN_BUCKETS};
pub use seq::SeqBuckets;

/// A bucketed object's unique integer id (the paper's `identifier`).
pub type Identifier = u32;

/// A bucket's integer id (the paper's `bucket_id`).
pub type BucketId = u32;

/// The distinguished "no bucket" id (the paper's `nullbkt`): identifiers
/// mapped here are not in the structure (or are leaving it).
pub const NULL_BKT: BucketId = u32::MAX;

/// Traversal order over buckets (the paper's `bucket_order`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Lowest bucket first (k-core, wBFS, Δ-stepping).
    Increasing,
    /// Highest bucket first (approximate set cover).
    Decreasing,
}

/// Opaque destination of a moving identifier (the paper's `bucket_dest`),
/// produced by `get_bucket` and consumed by `update_buckets`.
///
/// Internally a slot index into the open-bucket window (or the overflow
/// bucket); `NULL` means "no physical move required".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketDest(pub(crate) u32);

impl BucketDest {
    pub(crate) const NULL_SLOT: u32 = u32::MAX;

    /// The "no move needed" destination.
    pub const NULL: BucketDest = BucketDest(Self::NULL_SLOT);

    /// Whether this destination requires no physical move.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == Self::NULL_SLOT
    }
}

/// Operation counters, used by the Figure 1 microbenchmark and the
/// work-efficiency checks of EXPERIMENTS.md.
///
/// `identifiers_extracted` and `buckets_extracted` depend only on the
/// workload, so [`Buckets`] and [`SeqBuckets`] always agree on them.
/// `identifiers_moved` and `null_requests` agree as long as no move starts
/// and ends in the overflow bucket (the open-window structure answers
/// those with a null destination; the exact one has no overflow bucket).
/// The overflow counters are physical-representation detail and stay 0 on
/// [`SeqBuckets`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BucketStats {
    /// Identifiers returned by `next_bucket`.
    pub identifiers_extracted: u64,
    /// Non-null destinations processed by `update_buckets` (the paper's
    /// throughput metric counts these plus extractions; null requests are
    /// excluded because they are handled without random accesses).
    pub identifiers_moved: u64,
    /// Null destinations received (ignored cheaply).
    pub null_requests: u64,
    /// Non-empty buckets returned.
    pub buckets_extracted: u64,
    /// Times the overflow bucket was redistributed (0 on the exact
    /// representation).
    pub overflow_redistributions: u64,
    /// Identifiers reinserted during overflow redistribution (0 on the
    /// exact representation).
    pub identifiers_redistributed: u64,
}

/// The bucketing interface (the paper's `buckets` object): the three calls
/// an algorithm makes on a structure built by [`BucketsBuilder`], plus the
/// operation counters. Implemented by [`Buckets`] and [`SeqBuckets`].
pub trait Bucketing {
    /// `getBucket(i, prev, next)`: the physical destination for identifier
    /// `i` whose logical bucket changes from `prev` (`NULL_BKT` if not yet
    /// bucketed) to `next`. Returns [`BucketDest::NULL`] when no physical
    /// move is required.
    ///
    /// Neither in-tree structure reads `i` — needing only `(prev, next)` is
    /// the paper's point (Section 3.3 measured an internal identifier→slot
    /// map at ~30% more expensive; `julienne-bench`'s `MappedBuckets`
    /// reproduces that) — but call sites pass it so the interface does not
    /// rule such a structure out.
    fn get_bucket(&self, i: Identifier, prev: BucketId, next: BucketId) -> BucketDest;

    /// `updateBuckets`: moves each identifier to its destination. Null
    /// destinations are counted but incur no random accesses. An identifier
    /// may appear at most once per call.
    fn update_buckets(&mut self, moves: &[(Identifier, BucketDest)]);

    /// `nextBucket`: the id and live identifiers of the next non-empty
    /// bucket, or `None` when the structure is exhausted. The same bucket
    /// id can be returned again if identifiers were reinserted into `cur`.
    fn next_bucket(&mut self) -> Option<(BucketId, Vec<Identifier>)>;

    /// The operation counters accumulated so far (see [`BucketStats`] for
    /// which of them agree across structures).
    fn stats(&self) -> BucketStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_dest_is_null() {
        assert!(BucketDest::NULL.is_null());
        assert!(!BucketDest(0).is_null());
    }
}
