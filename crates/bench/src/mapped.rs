//! The internal-mapping alternative the paper rejected (Section 3.3).
//!
//! Instead of asking the user for `prev` in `getBucket`, this variant keeps
//! its own identifier→slot array so moves can be deduplicated internally.
//! The paper: "we found that the cost of maintaining this array of size
//! O(n) was significant (about 30% more expensive) in our applications,
//! due to the cost of an extra random-access read and write per identifier
//! in updateBuckets". [`MappedBuckets`] exists to reproduce that
//! measurement (ablation A1b, `benches/ablation_update_buckets.rs`) and
//! lives in the bench crate for that reason: the library ships only the
//! production [`julienne::bucket::Buckets`]. Its `get_bucket(i, next)`
//! takes no `prev` — that is the design under test — so it has its own
//! destination type and does not implement `julienne::bucket::Bucketing`.

use julienne::bucket::{BucketId, BucketStats, Identifier, Order, DEFAULT_OPEN_BUCKETS, NULL_BKT};
use julienne_primitives::filter::filter_map;
use julienne_primitives::histogram::blocked_histogram;
use julienne_primitives::unsafe_write::DisjointWriter;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

const NO_SLOT: u32 = u32::MAX;

/// Destination of a moving identifier: a slot of the open window (or the
/// overflow bucket); [`MappedDest::NULL`] means "no physical move".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MappedDest(u32);

impl MappedDest {
    /// The "no move needed" destination.
    pub const NULL: MappedDest = MappedDest(NO_SLOT);

    /// Whether this destination requires no physical move.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == NO_SLOT
    }
}

/// Bucket structure with an internal identifier→slot map in place of the
/// `prev` argument of `get_bucket`.
pub struct MappedBuckets<D> {
    d: D,
    order: Order,
    num_open: usize,
    flip_base: u64,
    cur_range: u64,
    cur_local: usize,
    open: Vec<Vec<Identifier>>,
    overflow: Vec<Identifier>,
    /// The extra O(n) state: the physical slot of every identifier
    /// (`NO_SLOT` if absent). Read and written once per moved identifier —
    /// the cost the paper measured.
    location: Vec<AtomicU32>,
    stats: BucketStats,
}

impl<D: Fn(Identifier) -> BucketId + Sync> MappedBuckets<D> {
    /// Creates the structure (cf. `makeBuckets`) with the paper's default
    /// window of 128 open buckets.
    pub fn new(n: usize, d: D, order: Order) -> Self {
        let num_open = DEFAULT_OPEN_BUCKETS;
        let flip_base = match order {
            Order::Increasing => 0,
            Order::Decreasing => julienne_primitives::reduce::max_mapped(n, 0, |i| {
                let b = d(i as Identifier);
                if b == NULL_BKT {
                    0
                } else {
                    b
                }
            }) as u64,
        };
        let mut this = MappedBuckets {
            d,
            order,
            num_open,
            flip_base,
            cur_range: 0,
            cur_local: 0,
            open: (0..num_open).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            location: (0..n).map(|_| AtomicU32::new(NO_SLOT)).collect(),
            stats: BucketStats::default(),
        };
        let slots: Vec<Option<usize>> = (0..n)
            .into_par_iter()
            .map(|i| {
                let b = (this.d)(i as Identifier);
                if b == NULL_BKT {
                    None
                } else {
                    let key = this.key_of(b);
                    let window = key / num_open as u64;
                    Some(if window == 0 {
                        (key % num_open as u64) as usize
                    } else {
                        num_open
                    })
                }
            })
            .collect();
        this.insert_with(n, &|k| slots[k], |k| k as Identifier);
        this
    }

    #[inline]
    fn key_of(&self, b: BucketId) -> u64 {
        match self.order {
            Order::Increasing => b as u64,
            Order::Decreasing => self.flip_base - b as u64,
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

    fn insert_with<S, I>(&mut self, len: usize, slot_of: &S, id_of: I)
    where
        S: Fn(usize) -> Option<usize> + Sync,
        I: Fn(usize) -> Identifier + Sync,
    {
        if len == 0 {
            return;
        }
        let num_slots = self.num_open + 1;
        let hist = blocked_histogram(len, num_slots, slot_of);
        let mut old_lens = Vec::with_capacity(num_slots);
        for (s, total) in hist.slot_totals.iter().enumerate() {
            let b = if s == self.num_open {
                &mut self.overflow
            } else {
                &mut self.open[s]
            };
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
                // SAFETY: unique (slot, pos) per item.
                unsafe { writers[slot].write(pos, id_of(k)) };
            });
        }
    }

    fn redistribute_overflow(&mut self) -> bool {
        if self.overflow.is_empty() {
            return false;
        }
        self.stats.overflow_redistributions += 1;
        let over = std::mem::take(&mut self.overflow);
        let window_end = (self.cur_range + 1) * self.num_open as u64;
        let d = &self.d;
        let order = self.order;
        let flip_base = self.flip_base;
        let key_of = |b: BucketId| match order {
            Order::Increasing => b as u64,
            Order::Decreasing => flip_base - b as u64,
        };
        let keyed: Vec<(Identifier, u64)> = filter_map(&over, |&i| {
            let b = d(i);
            if b == NULL_BKT {
                return None;
            }
            let key = key_of(b);
            if key < window_end {
                return None;
            }
            Some((i, key))
        });
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
        let slots: Vec<usize> = keyed
            .par_iter()
            .map(|&(_, key)| {
                if key / self.num_open as u64 == self.cur_range {
                    (key % self.num_open as u64) as usize
                } else {
                    self.num_open
                }
            })
            .collect();
        // Map maintenance on redistribution too.
        keyed
            .par_iter()
            .zip(slots.par_iter())
            .for_each(|(&(i, _), &s)| {
                self.location[i as usize].store(s as u32, AtomicOrdering::SeqCst);
            });
        self.insert_with(keyed.len(), &|k| Some(slots[k]), |k| keyed[k].0);
        true
    }

    /// `getBucket(i, next)`: the internal map supplies the source slot, so
    /// there is no `prev` — at the price of a random read per call (the
    /// overhead ablation A1b measures).
    pub fn get_bucket(&self, i: Identifier, next: BucketId) -> MappedDest {
        if next == NULL_BKT {
            return MappedDest::NULL;
        }
        let key_next = self.key_of(next);
        if key_next < self.cur_key() {
            return MappedDest::NULL;
        }
        let window = key_next / self.num_open as u64;
        let slot_next = if window == self.cur_range {
            (key_next % self.num_open as u64) as usize
        } else {
            self.num_open
        };
        // The extra random read the two-argument interface avoids:
        let slot_prev = self.location[i as usize].load(AtomicOrdering::SeqCst);
        if key_next != self.cur_key() && slot_prev == slot_next as u32 {
            return MappedDest::NULL;
        }
        MappedDest(slot_next as u32)
    }

    /// `updateBuckets` with internal map maintenance (the extra random
    /// write per identifier).
    pub fn update_buckets(&mut self, moves: &[(Identifier, MappedDest)]) {
        let nulls = moves.par_iter().filter(|(_, dest)| dest.is_null()).count() as u64;
        self.stats.null_requests += nulls;
        self.stats.identifiers_moved += moves.len() as u64 - nulls;
        // Maintain the map (the measured overhead).
        moves.par_iter().for_each(|&(i, dest)| {
            if !dest.is_null() {
                self.location[i as usize].store(dest.0, AtomicOrdering::SeqCst);
            }
        });
        self.insert_with(
            moves.len(),
            &|k| {
                let (_, dest) = moves[k];
                if dest.is_null() {
                    None
                } else {
                    Some(dest.0 as usize)
                }
            },
            |k| moves[k].0,
        );
    }

    /// `nextBucket` (identical semantics to the two-argument structure).
    pub fn next_bucket(&mut self) -> Option<(BucketId, Vec<Identifier>)> {
        loop {
            while self.cur_local < self.num_open {
                if !self.open[self.cur_local].is_empty() {
                    let raw = std::mem::take(&mut self.open[self.cur_local]);
                    let bkt = self.bucket_of_key(self.cur_key());
                    let d = &self.d;
                    let live: Vec<Identifier> =
                        filter_map(&raw, |&i| if d(i) == bkt { Some(i) } else { None });
                    if !live.is_empty() {
                        self.stats.identifiers_extracted += live.len() as u64;
                        self.stats.buckets_extracted += 1;
                        return Some((bkt, live));
                    }
                }
                self.cur_local += 1;
            }
            if !self.redistribute_overflow() {
                return None;
            }
        }
    }

    /// The operation counters accumulated so far.
    pub fn stats(&self) -> BucketStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne::bucket::{Bucketing, BucketsBuilder};
    use julienne_primitives::rng::SplitMix64;

    fn atomic_d(init: &[u32]) -> Vec<AtomicU32> {
        init.iter().map(|&x| AtomicU32::new(x)).collect()
    }

    #[test]
    fn matches_two_argument_structure_on_kcore_like_workload() {
        let n = 5_000usize;
        let mut rng = SplitMix64::new(3);
        let init: Vec<u32> = (0..n).map(|_| rng.next_u32() % 400).collect();
        let a = atomic_d(&init);
        let b = atomic_d(&init);
        let mut two = BucketsBuilder::new(
            n,
            |i: u32| a[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing,
        )
        .build();
        let mut one = MappedBuckets::new(
            n,
            |i: u32| b[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing,
        );
        let mut extracted = vec![false; n];
        loop {
            let x = two.next_bucket();
            let y = one.next_bucket();
            match (x, y) {
                (None, None) => break,
                (Some((kx, mut vx)), Some((ky, mut vy))) => {
                    vx.sort_unstable();
                    vy.sort_unstable();
                    assert_eq!((kx, &vx), (ky, &vy));
                    for &i in &vx {
                        extracted[i as usize] = true;
                    }
                    // Same monotone update stream on both.
                    let cur = kx;
                    let mut mx = Vec::new();
                    let mut my = Vec::new();
                    for i in 0..n as u32 {
                        if extracted[i as usize] || rng.next_range(5) != 0 {
                            continue;
                        }
                        let old = a[i as usize].load(AtomicOrdering::SeqCst);
                        if old <= cur {
                            continue;
                        }
                        let new = cur + rng.next_range((old - cur + 1) as u64) as u32;
                        if new == old {
                            continue;
                        }
                        a[i as usize].store(new, AtomicOrdering::SeqCst);
                        b[i as usize].store(new, AtomicOrdering::SeqCst);
                        mx.push((i, two.get_bucket(i, old, new)));
                        my.push((i, one.get_bucket(i, new)));
                    }
                    two.update_buckets(&mx);
                    one.update_buckets(&my);
                }
                other => panic!("divergence: {other:?}"),
            }
        }
        assert!(extracted.iter().all(|&e| e));
        assert!(one.stats().identifiers_moved > 0);
        assert_eq!(
            one.stats().identifiers_extracted,
            two.stats().identifiers_extracted
        );
        assert_eq!(one.stats().buckets_extracted, two.stats().buckets_extracted);
    }

    /// With every bucket inside the first open window (so no move can start
    /// and end in the overflow bucket) the internal map must account for
    /// exactly the traffic the two-argument structure does: extracted,
    /// moved, null requests and buckets all equal.
    #[test]
    fn counters_match_two_argument_structure_inside_the_open_window() {
        let n = 4_000usize;
        let mut rng = SplitMix64::new(9);
        let init: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 96) as u32).collect();
        let a = atomic_d(&init);
        let b = atomic_d(&init);
        let mut two = BucketsBuilder::new(
            n,
            |i: u32| a[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing,
        )
        .build();
        let mut one = MappedBuckets::new(
            n,
            |i: u32| b[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing,
        );
        let mut rng = SplitMix64::new(0xC0DE);
        while let Some((cur, ids)) = two.next_bucket() {
            assert_eq!(
                one.next_bucket().map(|(k, v)| (k, v.len())),
                Some((cur, ids.len()))
            );
            let (mut mx, mut my) = (Vec::new(), Vec::new());
            for _ in &ids {
                // Halve the bucket of a pseudo-random other identifier.
                let v = (rng.next_u64() % n as u64) as u32;
                let dv = a[v as usize].load(AtomicOrdering::SeqCst);
                if dv != NULL_BKT && dv > cur {
                    let new = (dv / 2).max(cur);
                    a[v as usize].store(new, AtomicOrdering::SeqCst);
                    b[v as usize].store(new, AtomicOrdering::SeqCst);
                    mx.push((v, two.get_bucket(v, dv, new)));
                    my.push((v, one.get_bucket(v, new)));
                }
            }
            two.update_buckets(&mx);
            one.update_buckets(&my);
        }
        assert!(one.next_bucket().is_none());
        let (s1, s2) = (one.stats(), two.stats());
        assert!(s2.identifiers_moved > 0);
        assert_eq!(s1.identifiers_extracted, s2.identifiers_extracted);
        assert_eq!(s1.identifiers_moved, s2.identifiers_moved);
        assert_eq!(s1.null_requests, s2.null_requests);
        assert_eq!(s1.buckets_extracted, s2.buckets_extracted);
    }
}
