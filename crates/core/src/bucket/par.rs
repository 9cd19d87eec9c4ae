//! Work-efficient parallel bucketing (Sections 3.2–3.3).
//!
//! Implements the paper's optimized structure:
//!
//! * only `nB` **open** buckets are physically represented (default 128);
//!   identifiers whose bucket lies beyond the open window live in one
//!   **overflow** bucket;
//! * `getBucket(prev, next)` lets the structure skip physical moves that
//!   start and end in the overflow bucket — the reason the primitive takes
//!   `prev` (the paper measured the internal-map alternative at ~30% more
//!   expensive);
//! * `updateBuckets` writes identifiers directly to their destination
//!   buckets, avoiding the semisort's shuffle. A batch longer than one
//!   block (M = 2048) goes through the blocked-histogram scatter of
//!   Section 3.3 (per-block counts, strided scan, parallel scatter at
//!   unique offsets). A batch of at most one block — where that scatter is
//!   one sequential walk in input order anyway — is appended in that same
//!   order without the counting pass, so a call costs per identifier moved
//!   and nothing per open bucket. Construction and overflow redistribution
//!   insert through the same kernel. The semisort route of Section 3.2 is
//!   kept as [`Buckets::update_buckets_semisort`] for the ablation
//!   benchmarks;
//! * when the open window is exhausted, the overflow bucket is
//!   redistributed by re-evaluating `D`, jumping `cur` to the window of the
//!   smallest live key.
//!
//! Costs (Lemma 3.2): O(n + T + Σ|Sᵢ|) expected work over K `updateBuckets`
//! calls and O((K + L) log n) depth w.h.p. for L `nextBucket` calls.

use super::{
    BucketDest, BucketId, BucketStats, Bucketing, Identifier, Order, SeqBuckets, NULL_BKT,
};
use julienne_primitives::filter::filter_map;
use julienne_primitives::histogram::{blocked_histogram, BLOCK_SIZE};
use julienne_primitives::num_chunks;
use julienne_primitives::semisort::semisort_by_key;
use julienne_primitives::telemetry::{Counter, Telemetry};
use julienne_primitives::unsafe_write::DisjointWriter;
use rayon::prelude::*;

/// Default number of open buckets (the paper's default `nB = 128`).
pub const DEFAULT_OPEN_BUCKETS: usize = 128;

/// The parallel bucket structure (the paper's `buckets` object).
///
/// `D` is the user's identifier→bucket map; the structure stores it and
/// re-evaluates it lazily to filter stale copies, exactly as in Julienne.
pub struct Buckets<D> {
    d: D,
    order: Order,
    num_open: usize,
    /// Decreasing order is normalised onto increasing keys:
    /// `key = flip_base − bucket_id`.
    flip_base: u64,
    /// Window index: the open buckets cover keys
    /// `[cur_range·nB, (cur_range+1)·nB)`.
    cur_range: u64,
    /// Position within the window (`0..=num_open`).
    cur_local: usize,
    /// The `nB` open buckets.
    open: Vec<Vec<Identifier>>,
    /// The overflow bucket.
    overflow: Vec<Identifier>,
    /// Empty buffers of open buckets the cursor has passed, kept with their
    /// capacity for the next bucket that fills from nothing.
    spare: Vec<Vec<Identifier>>,
    stats: BucketStats,
    telemetry: Telemetry,
}

/// Builder for the bucket structures (the paper's `makeBuckets`):
/// [`build`](Self::build) for the parallel structure,
/// [`build_seq`](Self::build_seq) for the sequential reference.
///
/// ```
/// use julienne::bucket::{Bucketing, BucketsBuilder, Order};
/// let d = vec![2u32, 0, 1];
/// let mut b = BucketsBuilder::new(3, |i| d[i as usize], Order::Increasing)
///     .open_buckets(64)
///     .build();
/// assert_eq!(b.next_bucket().unwrap(), (0, vec![1]));
/// ```
pub struct BucketsBuilder<D> {
    n: usize,
    d: D,
    order: Order,
    num_open: usize,
    telemetry: Telemetry,
}

impl<D> BucketsBuilder<D> {
    /// Starts a builder for `makeBuckets(n, D, O)` with the paper's default
    /// window of 128 open buckets and no telemetry.
    pub fn new(n: usize, d: D, order: Order) -> Self {
        BucketsBuilder {
            n,
            d,
            order,
            num_open: DEFAULT_OPEN_BUCKETS,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the open-bucket window size `nB`.
    ///
    /// # Panics
    /// `build` panics if `nB == 0`.
    pub fn open_buckets(mut self, num_open: usize) -> Self {
        self.num_open = num_open;
        self
    }

    /// Attaches a telemetry sink; bucket operations will record moved /
    /// extracted identifier counts and overflow redistributions.
    pub fn telemetry(mut self, sink: &Telemetry) -> Self {
        self.telemetry = sink.clone();
        self
    }
}

impl<D: Fn(Identifier) -> BucketId> BucketsBuilder<D> {
    /// Builds the sequential exact structure (Section 3.2's reference
    /// representation). Ignores `open_buckets`; every bucket gets its own
    /// array.
    pub fn build_seq(self) -> SeqBuckets<D> {
        SeqBuckets::from_builder(self.n, self.d, self.order, &self.telemetry)
    }
}

impl<D: Fn(Identifier) -> BucketId + Sync> BucketsBuilder<D> {
    /// Builds the structure and performs the initial insertion of every
    /// identifier `i in 0..n` with `D(i) != NULL_BKT`.
    pub fn build(self) -> Buckets<D> {
        let BucketsBuilder {
            n,
            d,
            order,
            num_open,
            telemetry,
        } = self;
        assert!(num_open >= 1);
        let flip_base = match order {
            Order::Increasing => 0,
            Order::Decreasing => {
                // Reduce over D, ignoring unbucketed identifiers.
                julienne_primitives::reduce::max_mapped(n, 0, |i| {
                    let b = d(i as Identifier);
                    if b == NULL_BKT {
                        0
                    } else {
                        b
                    }
                }) as u64
            }
        };
        let mut this = Buckets {
            d,
            order,
            num_open,
            flip_base,
            cur_range: 0,
            cur_local: 0,
            open: (0..num_open).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            spare: Vec::new(),
            stats: BucketStats::default(),
            telemetry,
        };
        // One pass over D: only the bucketed identifiers are materialised
        // and inserted, so an almost-empty start (SSSP buckets its source
        // alone) costs n reads of D and nothing else per identifier.
        let bucketed: Vec<(Identifier, BucketDest)> = (0..n)
            .into_par_iter()
            .filter_map(|i| {
                let b = (this.d)(i as Identifier);
                (b != NULL_BKT).then(|| {
                    let slot = this.slot_for_key(this.key_of(b));
                    (i as Identifier, BucketDest(slot as u32))
                })
            })
            .collect();
        this.insert(&bucketed);
        this
    }
}

impl<D: Fn(Identifier) -> BucketId + Sync> Buckets<D> {
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

    #[inline]
    fn cur_key(&self) -> u64 {
        self.cur_range * self.num_open as u64 + self.cur_local as u64
    }

    /// Slot (open index or overflow) for a key at-or-beyond the current
    /// window.
    #[inline]
    fn slot_for_key(&self, key: u64) -> usize {
        let window = key / self.num_open as u64;
        debug_assert!(window >= self.cur_range, "key {key} behind current window");
        if window == self.cur_range {
            (key % self.num_open as u64) as usize
        } else {
            self.num_open
        }
    }

    /// The physical bucket behind a slot: an open bucket, or the overflow
    /// bucket for slot `nB`.
    #[inline]
    fn slot_mut(&mut self, slot: usize) -> &mut Vec<Identifier> {
        if slot == self.num_open {
            &mut self.overflow
        } else {
            &mut self.open[slot]
        }
    }

    /// Shared insertion kernel of `build`, `update_buckets` and overflow
    /// redistribution: appends every identifier with a non-null destination
    /// to its slot, in input order within each slot, and returns how many
    /// it appended.
    fn insert(&mut self, moves: &[(Identifier, BucketDest)]) -> usize {
        if moves.len() <= BLOCK_SIZE {
            // One histogram block: the blocked scatter below would walk it
            // sequentially and in this order anyway, so append directly and
            // skip the per-call counting, scan and writer set-up. This is
            // the many-small-rounds case (Figure 1's left side).
            let mut inserted = 0;
            for &(i, dest) in moves {
                if !dest.is_null() {
                    let slot = dest.0 as usize;
                    let b = if slot == self.num_open {
                        &mut self.overflow
                    } else {
                        &mut self.open[slot]
                    };
                    if b.capacity() == 0 {
                        *b = self.spare.pop().unwrap_or_default();
                    }
                    b.push(i);
                    inserted += 1;
                }
            }
            return inserted;
        }
        let len = moves.len();
        let num_slots = self.num_open + 1;
        let slot_of = |k: usize| {
            let dest = moves[k].1;
            (!dest.is_null()).then_some(dest.0 as usize)
        };
        let hist = blocked_histogram(len, num_slots, slot_of);

        // Resize every destination bucket once, then scatter in parallel at
        // unique offsets.
        let mut old_lens = Vec::with_capacity(num_slots);
        for (s, total) in hist.slot_totals.iter().enumerate() {
            let b = self.slot_mut(s);
            old_lens.push(b.len());
            b.resize(b.len() + total, 0);
        }
        {
            let mut writers: Vec<DisjointWriter<'_, Identifier>> = Vec::with_capacity(num_slots);
            for (s, b) in self
                .open
                .iter_mut()
                .chain(std::iter::once(&mut self.overflow))
                .enumerate()
            {
                let start = old_lens[s];
                writers.push(DisjointWriter::new(&mut b[start..]));
            }
            hist.scatter(len, slot_of, |slot, pos, k| {
                // SAFETY: the histogram hands each (slot, pos) to exactly
                // one item.
                unsafe { writers[slot].write(pos, moves[k].0) };
            });
        }
        hist.slot_totals.iter().sum()
    }

    /// Empties the overflow bucket back into the structure. Returns whether
    /// any live identifier remains.
    fn redistribute_overflow(&mut self) -> bool {
        if self.overflow.is_empty() {
            return false;
        }
        self.stats.overflow_redistributions += 1;
        self.telemetry.incr(Counter::OverflowRedistributions);
        let mut over = std::mem::take(&mut self.overflow);
        let window_end = (self.cur_range + 1) * self.num_open as u64;
        let d = &self.d;
        let order = self.order;
        let flip_base = self.flip_base;
        let key_of = |b: BucketId| -> u64 {
            match order {
                Order::Increasing => b as u64,
                Order::Decreasing => flip_base - b as u64,
            }
        };
        // Re-evaluate D; identifiers that left the structure or whose
        // bucket already passed are dropped.
        let keyed: Vec<(Identifier, u64)> = filter_map(&over, |&i| {
            let b = d(i);
            if b == NULL_BKT {
                return None;
            }
            let key = key_of(b);
            if key < window_end {
                // Processed or finalised while parked in overflow.
                return None;
            }
            Some((i, key))
        });
        // The overflow bucket keeps its buffer for the next window's arrivals.
        over.clear();
        self.overflow = over;
        if keyed.is_empty() {
            return false;
        }
        let min_key = keyed
            .par_iter()
            .map(|&(_, k)| k)
            .reduce(|| u64::MAX, u64::min);
        self.cur_range = min_key / self.num_open as u64;
        self.cur_local = (min_key % self.num_open as u64) as usize;
        self.stats.identifiers_redistributed += keyed.len() as u64;

        let moves: Vec<(Identifier, BucketDest)> = keyed
            .par_iter()
            .map(|&(i, key)| (i, BucketDest(self.slot_for_key(key) as u32)))
            .collect();
        self.insert(&moves);
        true
    }

    /// Semisort-based `updateBuckets` (Section 3.2) — the theoretically
    /// clean variant the paper found slower in practice; kept for the A1
    /// ablation. Semantically identical to
    /// [`update_buckets`](Bucketing::update_buckets).
    pub fn update_buckets_semisort(&mut self, moves: &[(Identifier, BucketDest)]) {
        let nulls = moves.iter().filter(|(_, d)| d.is_null()).count() as u64;
        self.stats.null_requests += nulls;
        self.stats.identifiers_moved += moves.len() as u64 - nulls;
        self.telemetry
            .add(Counter::IdentifiersMoved, moves.len() as u64 - nulls);

        let mut pairs: Vec<(Identifier, u32)> = filter_map(moves, |&(i, dest)| {
            if dest.is_null() {
                None
            } else {
                Some((i, dest.0))
            }
        });
        if pairs.is_empty() {
            return;
        }
        // Semisort by destination slot, then bulk-append each group.
        let groups = semisort_by_key(&mut pairs, self.num_open as u32, |p| p.1);
        for g in groups {
            self.slot_mut(g.key as usize)
                .extend(pairs[g.start..g.start + g.len].iter().map(|&(i, _)| i));
        }
    }

    /// Re-examines the **current** bucket only: if it holds live
    /// identifiers (reinserted since the last extraction, or not yet
    /// extracted), returns them without advancing the cursor; otherwise
    /// returns `None` (cursor unchanged).
    ///
    /// The only outside caller is the light/heavy edge optimization of
    /// Δ-stepping (Section 4.2), which must finish relaxing light edges
    /// inside the current annulus before the heavy relaxations may
    /// repopulate *earlier* open buckets than the next non-empty one.
    pub fn try_next_in_current(&mut self) -> Option<Vec<Identifier>> {
        let mut ids = Vec::new();
        self.take_current(&mut ids).then_some(ids)
    }

    /// [`next_bucket`](Bucketing::next_bucket) into a frontier buffer the
    /// caller keeps across rounds: `ids` is refilled with the next
    /// non-empty bucket's live identifiers (emptied when there is none) and
    /// that bucket's slot keeps `ids`' previous buffer, so a steady-state
    /// extraction allocates nothing and a reinsertion into the current
    /// bucket lands in capacity that is already there.
    pub fn next_bucket_into(&mut self, ids: &mut Vec<Identifier>) -> Option<BucketId> {
        loop {
            while self.cur_local < self.num_open {
                if self.take_current(ids) {
                    return Some(self.bucket_of_key(self.cur_key()));
                }
                // The cursor leaves this slot for the rest of the window.
                let passed = std::mem::take(&mut self.open[self.cur_local]);
                if passed.capacity() > 0 {
                    self.spare.push(passed);
                }
                self.cur_local += 1;
            }
            if !self.redistribute_overflow() {
                ids.clear();
                return None;
            }
        }
    }

    /// Swaps the current bucket's buffer with `ids` (whose contents are
    /// dropped) and filters it down to the live identifiers. Returns
    /// whether any are live; the cursor does not move.
    fn take_current(&mut self, ids: &mut Vec<Identifier>) -> bool {
        if self.cur_local >= self.num_open || self.open[self.cur_local].is_empty() {
            return false;
        }
        ids.clear();
        std::mem::swap(ids, &mut self.open[self.cur_local]);
        let bkt = self.bucket_of_key(self.cur_key());
        let d = &self.d;
        // One chunk filters sequentially anyway: filter in place instead of
        // allocating a second buffer (order is preserved either way).
        if num_chunks(ids.len()) <= 1 {
            ids.retain(|&i| d(i) == bkt);
        } else {
            let live = filter_map(ids, |&i| if d(i) == bkt { Some(i) } else { None });
            *ids = live;
        }
        if ids.is_empty() {
            return false;
        }
        self.stats.identifiers_extracted += ids.len() as u64;
        self.stats.buckets_extracted += 1;
        self.telemetry
            .add(Counter::IdentifiersExtracted, ids.len() as u64);
        self.telemetry.incr(Counter::BucketsExtracted);
        true
    }
}

impl<D: Fn(Identifier) -> BucketId + Sync> Bucketing for Buckets<D> {
    /// `getBucket(i, prev, next)` (Section 3.1): computes the physical
    /// destination for an identifier whose logical bucket changes from
    /// `prev` (`NULL_BKT` if not yet bucketed) to `next`. The identifier
    /// `i` itself is unused — the two-argument design is exactly the
    /// paper's point (the internal-map alternative cost ~30% more). Returns
    /// [`BucketDest::NULL`] when no physical move is required — when `next`
    /// is null or behind `cur`, or when source and destination share a slot
    /// (both overflow, or the same open bucket).
    fn get_bucket(&self, _i: Identifier, prev: BucketId, next: BucketId) -> BucketDest {
        if next == NULL_BKT {
            return BucketDest::NULL;
        }
        let key_next = self.key_of(next);
        if key_next < self.cur_key() {
            return BucketDest::NULL;
        }
        let slot_next = self.slot_for_key(key_next);
        // Reinsertion into the *current* bucket: the identifier was just
        // extracted (its physical copy is gone), so it must be inserted even
        // if prev == next. This is what lets nextBucket return cur again
        // (Section 3.1) — e.g. Δ-stepping's intra-annulus re-relaxation and
        // set cover's rebucketing of unchosen sets.
        if key_next == self.cur_key() {
            return BucketDest(slot_next as u32);
        }
        if prev != NULL_BKT {
            let key_prev = self.key_of(prev);
            // A source behind the current window is stale (its copy is dead
            // or extracted); the identifier must be physically (re)inserted.
            if key_prev >= self.cur_range * self.num_open as u64 {
                let slot_prev = if key_prev / self.num_open as u64 == self.cur_range {
                    (key_prev % self.num_open as u64) as usize
                } else {
                    self.num_open
                };
                if slot_prev == slot_next {
                    return BucketDest::NULL;
                }
            }
        }
        BucketDest(slot_next as u32)
    }

    /// `updateBuckets` (Section 3.3): moves `moves.len()` identifiers to
    /// their destinations — direct appends up to one histogram block, the
    /// blocked-histogram scatter beyond.
    fn update_buckets(&mut self, moves: &[(Identifier, BucketDest)]) {
        let moved = self.insert(moves) as u64;
        self.stats.null_requests += moves.len() as u64 - moved;
        self.stats.identifiers_moved += moved;
        self.telemetry.add(Counter::IdentifiersMoved, moved);
    }

    /// `nextBucket` (Section 3.1): the id and live identifiers of the next
    /// non-empty bucket, or `None` when the structure is exhausted. The
    /// same bucket id can be returned again if identifiers were reinserted
    /// into `cur`.
    fn next_bucket(&mut self) -> Option<(BucketId, Vec<Identifier>)> {
        let mut ids = Vec::new();
        let bkt = self.next_bucket_into(&mut ids)?;
        Some((bkt, ids))
    }

    /// The operation counters accumulated so far.
    fn stats(&self) -> BucketStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn atomic_d(init: &[u32]) -> Vec<AtomicU32> {
        init.iter().map(|&x| AtomicU32::new(x)).collect()
    }

    #[test]
    fn increasing_extraction_matches_seq_semantics() {
        let d = atomic_d(&[3, 1, 1, 0, NULL_BKT]);
        let mut b = BucketsBuilder::new(
            5,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        assert_eq!(b.next_bucket().unwrap(), (0, vec![3]));
        let (k, mut ids) = b.next_bucket().unwrap();
        ids.sort_unstable();
        assert_eq!((k, ids), (1, vec![1, 2]));
        assert_eq!(b.next_bucket().unwrap(), (3, vec![0]));
        assert!(b.next_bucket().is_none());
        assert_eq!(b.stats().identifiers_extracted, 4);
        assert_eq!(b.stats().buckets_extracted, 3);
    }

    #[test]
    fn decreasing_extraction() {
        let d = atomic_d(&[3, 1, 5]);
        let mut b = BucketsBuilder::new(
            3,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Decreasing,
        )
        .build();
        assert_eq!(b.next_bucket().unwrap(), (5, vec![2]));
        assert_eq!(b.next_bucket().unwrap(), (3, vec![0]));
        assert_eq!(b.next_bucket().unwrap(), (1, vec![1]));
        assert!(b.next_bucket().is_none());
    }

    #[test]
    fn overflow_window_advance() {
        // Identifiers far beyond the first window of 4 open buckets.
        let init: Vec<u32> = vec![1000, 2000, 2, 1001];
        let d = atomic_d(&init);
        let mut b = BucketsBuilder::new(
            4,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .open_buckets(4)
        .build();
        assert_eq!(b.next_bucket().unwrap(), (2, vec![2]));
        assert_eq!(b.next_bucket().unwrap(), (1000, vec![0]));
        assert_eq!(b.next_bucket().unwrap(), (1001, vec![3]));
        assert_eq!(b.next_bucket().unwrap(), (2000, vec![1]));
        assert!(b.next_bucket().is_none());
        assert!(b.stats().overflow_redistributions >= 2);
    }

    #[test]
    fn move_between_open_buckets() {
        let d = atomic_d(&[10, 20]);
        let mut b = BucketsBuilder::new(
            2,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        // Move id 1 from 20 to 15 before extraction.
        d[1].store(15, Ordering::Relaxed);
        let dest = b.get_bucket(1, 20, 15);
        assert!(!dest.is_null());
        b.update_buckets(&[(1, dest)]);
        assert_eq!(b.next_bucket().unwrap(), (10, vec![0]));
        assert_eq!(b.next_bucket().unwrap(), (15, vec![1]));
        // Stale copy in bucket 20 must be filtered out.
        assert!(b.next_bucket().is_none());
        assert_eq!(b.stats().identifiers_moved, 1);
    }

    #[test]
    fn overflow_to_overflow_is_free() {
        let d = atomic_d(&[500, 900]);
        let mut b = BucketsBuilder::new(
            2,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .open_buckets(8)
        .build();
        // 500 → 600: both in overflow: no physical move.
        d[0].store(600, Ordering::Relaxed);
        let dest = b.get_bucket(0, 500, 600);
        assert!(dest.is_null());
        b.update_buckets(&[(0, dest)]);
        assert_eq!(b.stats().identifiers_moved, 0);
        assert_eq!(b.stats().null_requests, 1);
        // Extraction honours the new D value.
        assert_eq!(b.next_bucket().unwrap(), (600, vec![0]));
        assert_eq!(b.next_bucket().unwrap(), (900, vec![1]));
    }

    #[test]
    fn reinsertion_into_current_bucket() {
        let d = atomic_d(&[1, NULL_BKT]);
        let mut b = BucketsBuilder::new(
            2,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        assert_eq!(b.next_bucket().unwrap(), (1, vec![0]));
        d[1].store(1, Ordering::Relaxed);
        let dest = b.get_bucket(1, NULL_BKT, 1);
        assert!(!dest.is_null());
        b.update_buckets(&[(1, dest)]);
        assert_eq!(b.next_bucket().unwrap(), (1, vec![1]));
    }

    #[test]
    fn try_next_in_current_returns_reinserted_ids_without_advancing() {
        let d = atomic_d(&[0, NULL_BKT, 5]);
        let mut b = BucketsBuilder::new(
            3,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        assert_eq!(b.next_bucket().unwrap(), (0, vec![0]));
        assert!(b.try_next_in_current().is_none());
        d[1].store(0, Ordering::Relaxed);
        let dest = b.get_bucket(1, NULL_BKT, 0);
        b.update_buckets(&[(1, dest)]);
        assert_eq!(b.try_next_in_current().unwrap(), vec![1]);
        // Bucket 5 is not the current one: only next_bucket reaches it.
        assert!(b.try_next_in_current().is_none());
        assert_eq!(b.next_bucket().unwrap(), (5, vec![2]));
    }

    #[test]
    fn extraction_and_passed_buckets_keep_their_buffers() {
        let d = atomic_d(&[0, 0, 1, NULL_BKT]);
        let mut b = BucketsBuilder::new(
            4,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .open_buckets(4)
        .build();
        let reinsert = |b: &mut Buckets<_>, bkt| {
            d[3].store(bkt, Ordering::Relaxed);
            let dest = b.get_bucket(3, NULL_BKT, bkt);
            b.update_buckets(&[(3, dest)]);
        };
        let mut ids = Vec::with_capacity(64);
        assert_eq!(b.next_bucket_into(&mut ids), Some(0));
        assert_eq!(ids, [0, 1]);
        assert_eq!(b.open[0].capacity(), 64, "the slot holds the old frontier");
        reinsert(&mut b, 0);
        assert_eq!(b.next_bucket_into(&mut ids), Some(0));
        assert_eq!((ids.as_slice(), ids.capacity()), (&[3][..], 64));
        // Leaving bucket 0 makes its buffer a spare ...
        assert_eq!(b.next_bucket_into(&mut ids), Some(1));
        assert_eq!(ids, [2]);
        assert_eq!((b.open[0].capacity(), b.spare.len()), (0, 1));
        // ... which the next bucket to fill from nothing takes.
        reinsert(&mut b, 3);
        assert!(b.spare.is_empty());
        assert!(b.open[3].capacity() > 0);
        assert_eq!(b.next_bucket_into(&mut ids), Some(3));
        assert_eq!(ids, [3]);
        assert_eq!(b.next_bucket_into(&mut ids), None);
        assert!(ids.is_empty());
        assert_eq!(b.stats().identifiers_extracted, 5);
    }

    #[test]
    fn null_and_behind_cur_requests() {
        let d = atomic_d(&[2]);
        let mut b = BucketsBuilder::new(
            1,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        assert!(b.get_bucket(0, 2, NULL_BKT).is_null());
        assert_eq!(b.next_bucket().unwrap(), (2, vec![0]));
        assert!(b.get_bucket(0, 2, 1).is_null(), "behind cur");
        assert!(b.get_bucket(0, 7, 7).is_null(), "same bucket");
    }

    #[test]
    fn semisort_update_agrees_with_histogram_update() {
        let init: Vec<u32> = (0..1000).map(|i| (i * 7) % 300).collect();
        let d1 = atomic_d(&init);
        let d2 = atomic_d(&init);
        let mut b1 = BucketsBuilder::new(
            1000,
            |i| d1[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        let mut b2 = BucketsBuilder::new(
            1000,
            |i| d2[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        // Move every third identifier forward by 50.
        let moves: Vec<u32> = (0..1000).step_by(3).collect();
        let mut m1 = Vec::new();
        let mut m2 = Vec::new();
        for &i in &moves {
            let old = init[i as usize];
            let new = old + 50;
            d1[i as usize].store(new, Ordering::Relaxed);
            d2[i as usize].store(new, Ordering::Relaxed);
            m1.push((i, b1.get_bucket(i, old, new)));
            m2.push((i, b2.get_bucket(i, old, new)));
        }
        b1.update_buckets(&m1);
        b2.update_buckets_semisort(&m2);
        loop {
            let x = b1.next_bucket();
            let y = b2.next_bucket();
            match (x, y) {
                (None, None) => break,
                (Some((kx, mut vx)), Some((ky, mut vy))) => {
                    vx.sort_unstable();
                    vy.sort_unstable();
                    assert_eq!(kx, ky);
                    assert_eq!(vx, vy);
                }
                other => panic!("divergence: {other:?}"),
            }
        }
    }

    #[test]
    fn decreasing_with_shrinking_ids() {
        // Set-cover pattern: ids drop to lower buckets over time.
        let d = atomic_d(&[8, 8, 4]);
        let mut b = BucketsBuilder::new(
            3,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Decreasing,
        )
        .open_buckets(2)
        .build();
        let (k, ids) = b.next_bucket().unwrap();
        assert_eq!(k, 8);
        assert_eq!(ids.len(), 2);
        // id 0 not chosen: degree shrinks to 3 → rebucket.
        d[0].store(3, Ordering::Relaxed);
        let dest = b.get_bucket(0, 8, 3);
        b.update_buckets(&[(0, dest)]);
        assert_eq!(b.next_bucket().unwrap(), (4, vec![2]));
        assert_eq!(b.next_bucket().unwrap(), (3, vec![0]));
        assert!(b.next_bucket().is_none());
    }

    #[test]
    fn empty_structure_none() {
        let mut b = BucketsBuilder::new(10, |_| NULL_BKT, Order::Increasing).build();
        assert!(b.next_bucket().is_none());
        assert_eq!(b.stats().identifiers_extracted, 0);
    }

    #[test]
    fn large_random_drain_extracts_everything_once() {
        use julienne_primitives::rng::SplitMix64;
        let mut rng = SplitMix64::new(42);
        let n = 20_000;
        let init: Vec<u32> = (0..n).map(|_| rng.next_u32() % 5000).collect();
        let d = atomic_d(&init);
        let mut b = BucketsBuilder::new(
            n as usize,
            |i| d[i as usize].load(Ordering::Relaxed),
            Order::Increasing,
        )
        .build();
        let mut seen = vec![false; n as usize];
        let mut last = 0u32;
        while let Some((k, ids)) = b.next_bucket() {
            assert!(k >= last);
            last = k;
            for i in ids {
                assert!(!seen[i as usize], "id {i} extracted twice");
                assert_eq!(init[i as usize], k);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
