//! Sequential bucketing (Section 3.2) — exact bucket representation.
//!
//! Every bucket is represented by its own dynamic array, updates are lazy
//! (stale copies are filtered at extraction against `D`), and `bucket_dest`
//! coincides with the bucket key. Serves as the oracle for the property
//! tests of the parallel structure and as the sequential baseline in the
//! ablation benchmarks. Reports the same [`BucketStats`] extraction
//! counters as the parallel structure (the overflow counters stay 0: the
//! exact representation has no overflow bucket).

use super::{BucketDest, BucketId, BucketStats, Bucketing, Identifier, Order, NULL_BKT};
use julienne_primitives::telemetry::{Counter, Telemetry};

/// The sequential bucket structure.
pub struct SeqBuckets<D> {
    d: D,
    order: Order,
    /// `flip_base` maps decreasing bucket ids onto increasing keys:
    /// `key = flip_base − bucket_id` (0 and unused for increasing order).
    flip_base: u64,
    /// Bucket arrays indexed by key.
    buckets: Vec<Vec<Identifier>>,
    /// Current key being processed.
    cur: u64,
    stats: BucketStats,
    telemetry: Telemetry,
}

impl<D: Fn(Identifier) -> BucketId> SeqBuckets<D> {
    /// Creates the structure over identifiers `0..n` with initial buckets
    /// given by `d` (which the structure keeps and re-evaluates lazily).
    /// Called by [`BucketsBuilder::build_seq`](super::BucketsBuilder::build_seq).
    pub(crate) fn from_builder(n: usize, d: D, order: Order, telemetry: &Telemetry) -> Self {
        let flip_base = match order {
            Order::Increasing => 0,
            Order::Decreasing => (0..n as Identifier)
                .map(&d)
                .filter(|&b| b != NULL_BKT)
                .max()
                .unwrap_or(0) as u64,
        };
        let mut this = SeqBuckets {
            d,
            order,
            flip_base,
            buckets: Vec::new(),
            cur: 0,
            stats: BucketStats::default(),
            telemetry: telemetry.clone(),
        };
        for i in 0..n as Identifier {
            let b = (this.d)(i);
            if b != NULL_BKT {
                let key = this.key_of(b);
                this.insert(i, key);
            }
        }
        this
    }

    #[inline]
    fn key_of(&self, b: BucketId) -> u64 {
        match self.order {
            Order::Increasing => b as u64,
            Order::Decreasing => {
                debug_assert!(
                    (b as u64) <= self.flip_base,
                    "decreasing-order bucket id {b} exceeds initial maximum {}",
                    self.flip_base
                );
                self.flip_base - b as u64
            }
        }
    }

    #[inline]
    fn bucket_of_key(&self, key: u64) -> BucketId {
        match self.order {
            Order::Increasing => key as BucketId,
            Order::Decreasing => (self.flip_base - key) as BucketId,
        }
    }

    fn insert(&mut self, i: Identifier, key: u64) {
        let idx = key as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        self.buckets[idx].push(i);
    }
}

impl<D: Fn(Identifier) -> BucketId> Bucketing for SeqBuckets<D> {
    /// `getBucket(i, prev, next)`: the destination for an identifier moving
    /// from bucket `prev` (or `NULL_BKT` if not yet bucketed) to `next`.
    /// `i` is unused — the exact representation needs no per-identifier
    /// state.
    fn get_bucket(&self, _i: Identifier, prev: BucketId, next: BucketId) -> BucketDest {
        if next == NULL_BKT {
            return BucketDest::NULL;
        }
        let key_next = self.key_of(next);
        if key_next < self.cur {
            return BucketDest::NULL;
        }
        // Reinsertion into the current bucket is always a physical insert:
        // the identifier was just extracted (see the parallel impl).
        if key_next != self.cur && prev != NULL_BKT && self.key_of(prev) == key_next {
            return BucketDest::NULL;
        }
        BucketDest(key_next as u32)
    }

    /// `updateBuckets`: inserts each identifier at its destination. `NULL`
    /// destinations are counted but otherwise ignored without cost.
    fn update_buckets(&mut self, moves: &[(Identifier, BucketDest)]) {
        let mut nulls = 0u64;
        for &(i, dest) in moves {
            if dest.is_null() {
                nulls += 1;
            } else {
                self.insert(i, dest.0 as u64);
            }
        }
        self.stats.null_requests += nulls;
        self.stats.identifiers_moved += moves.len() as u64 - nulls;
        self.telemetry
            .add(Counter::IdentifiersMoved, moves.len() as u64 - nulls);
    }

    /// `nextBucket`: the next non-empty bucket and its live identifiers, or
    /// `None` when the structure is exhausted.
    fn next_bucket(&mut self) -> Option<(BucketId, Vec<Identifier>)> {
        while (self.cur as usize) < self.buckets.len() {
            let idx = self.cur as usize;
            if !self.buckets[idx].is_empty() {
                let raw = std::mem::take(&mut self.buckets[idx]);
                let bkt = self.bucket_of_key(self.cur);
                let live: Vec<Identifier> =
                    raw.into_iter().filter(|&i| (self.d)(i) == bkt).collect();
                if !live.is_empty() {
                    self.stats.identifiers_extracted += live.len() as u64;
                    self.stats.buckets_extracted += 1;
                    self.telemetry
                        .add(Counter::IdentifiersExtracted, live.len() as u64);
                    self.telemetry.incr(Counter::BucketsExtracted);
                    return Some((bkt, live));
                }
            }
            self.cur += 1;
        }
        None
    }

    /// The operation counters accumulated so far (overflow counters always
    /// 0 on this backend).
    fn stats(&self) -> BucketStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::BucketsBuilder;
    use super::*;
    use std::cell::RefCell;

    fn build<D: Fn(Identifier) -> BucketId>(n: usize, d: D, order: Order) -> SeqBuckets<D> {
        BucketsBuilder::new(n, d, order).build_seq()
    }

    #[test]
    fn extracts_in_increasing_order() {
        let d = vec![3u32, 1, 1, 0, NULL_BKT];
        let dd = d.clone();
        let mut b = build(5, move |i| dd[i as usize], Order::Increasing);
        let (k0, ids0) = b.next_bucket().unwrap();
        assert_eq!((k0, ids0), (0, vec![3]));
        let (k1, mut ids1) = b.next_bucket().unwrap();
        ids1.sort_unstable();
        assert_eq!((k1, ids1), (1, vec![1, 2]));
        let (k3, ids3) = b.next_bucket().unwrap();
        assert_eq!((k3, ids3), (3, vec![0]));
        assert!(b.next_bucket().is_none());
        assert_eq!(b.stats().identifiers_extracted, 4);
        assert_eq!(b.stats().buckets_extracted, 3);
    }

    #[test]
    fn extracts_in_decreasing_order() {
        let d = vec![3u32, 1, 5];
        let dd = d.clone();
        let mut b = build(3, move |i| dd[i as usize], Order::Decreasing);
        assert_eq!(b.next_bucket().unwrap(), (5, vec![2]));
        assert_eq!(b.next_bucket().unwrap(), (3, vec![0]));
        assert_eq!(b.next_bucket().unwrap(), (1, vec![1]));
        assert!(b.next_bucket().is_none());
    }

    #[test]
    fn moves_are_lazy_and_stale_copies_filtered() {
        // Identifier 0 starts in bucket 5; we move it to 2 before any
        // extraction. It must come out of bucket 2, once.
        let d = RefCell::new(vec![5u32]);
        let dref = &d;
        let mut b = build(1, move |i| dref.borrow()[i as usize], Order::Increasing);
        d.borrow_mut()[0] = 2;
        let dest = b.get_bucket(0, 5, 2);
        assert!(!dest.is_null());
        b.update_buckets(&[(0, dest)]);
        assert_eq!(b.next_bucket().unwrap(), (2, vec![0]));
        assert!(b.next_bucket().is_none());
        assert_eq!(b.stats().identifiers_moved, 1);
    }

    #[test]
    fn reinsertion_into_current_bucket() {
        // Extract bucket 1, then push a new identifier back into bucket 1:
        // nextBucket must return bucket 1 again (paper Section 3.1).
        let d = RefCell::new(vec![1u32, NULL_BKT]);
        let dref = &d;
        let mut b = build(2, move |i| dref.borrow()[i as usize], Order::Increasing);
        assert_eq!(b.next_bucket().unwrap(), (1, vec![0]));
        d.borrow_mut()[1] = 1;
        let dest = b.get_bucket(1, NULL_BKT, 1);
        assert!(!dest.is_null());
        b.update_buckets(&[(1, dest)]);
        assert_eq!(b.next_bucket().unwrap(), (1, vec![1]));
    }

    #[test]
    fn null_moves_ignored() {
        let d = vec![0u32, 1];
        let dd = d.clone();
        let mut b = build(2, move |i| dd[i as usize], Order::Increasing);
        assert!(b.get_bucket(0, 0, NULL_BKT).is_null());
        assert!(b.get_bucket(0, 3, 3).is_null()); // same bucket
        b.update_buckets(&[(0, BucketDest::NULL)]);
        assert_eq!(b.stats().null_requests, 1);
        assert_eq!(b.next_bucket().unwrap(), (0, vec![0]));
    }

    #[test]
    fn moving_behind_cur_returns_null() {
        let d = vec![2u32];
        let dd = d.clone();
        let mut b = build(1, move |i| dd[i as usize], Order::Increasing);
        assert_eq!(b.next_bucket().unwrap(), (2, vec![0]));
        // cur is now 2; destination 1 is behind it.
        assert!(b.get_bucket(0, 2, 1).is_null());
    }

    #[test]
    fn empty_structure() {
        let mut b = build(3, |_| NULL_BKT, Order::Increasing);
        assert!(b.next_bucket().is_none());
    }
}
