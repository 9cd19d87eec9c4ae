//! Allocation bounds of the bucket structure (Lemma 3.2 charges it per
//! identifier inserted, not per `n` and not per open bucket): building over
//! an almost-unbucketed identifier space, and a small `updateBuckets` call.
//! Its own test binary, because it replaces the global allocator to count
//! bytes, and a single `#[test]`, because the count is process-wide: a
//! sibling test on another harness thread would allocate inside the
//! measured windows.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes_of;
use julienne_repro::core::bucket::{BucketDest, Bucketing, BucketsBuilder, Order, NULL_BKT};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn bucket_structure_allocates_per_identifier_inserted() {
    build_allocates_for_the_bucketed_identifiers_not_for_n();
    small_update_into_warm_buckets_allocates_nothing();
}

fn build_allocates_for_the_bucketed_identifiers_not_for_n() {
    // The SSSP start: 2^20 identifiers, only the source bucketed. One slot
    // per identifier would be 16 MiB.
    const N: usize = 1 << 20;
    let d = |i: u32| if i == 77 { 3 } else { NULL_BKT };
    let build = || BucketsBuilder::new(N, d, Order::Increasing).build();
    build(); // spawns the worker pool outside the measured call
    let (mut b, bytes) = bytes_of(build);
    assert!(bytes < 64 << 10, "{bytes} bytes to bucket one identifier");
    assert_eq!(b.next_bucket(), Some((3, vec![77])));
}

fn small_update_into_warm_buckets_allocates_nothing() {
    // 1000 identifiers, none bucketed at first; 800 then 200 of them ask
    // for eight open buckets and the overflow bucket, every tenth request
    // a null one.
    let bucket_of = |i: u32| match i % 10 {
        9 => NULL_BKT,
        8 => 5000,
        r => r,
    };
    let armed = AtomicBool::new(false);
    let d = |i: u32| {
        if armed.load(Ordering::SeqCst) {
            bucket_of(i)
        } else {
            NULL_BKT
        }
    };
    let mut b = BucketsBuilder::new(1000, d, Order::Increasing).build();
    armed.store(true, Ordering::SeqCst);
    let requests = |b: &dyn Bucketing, ids: std::ops::Range<u32>| -> Vec<(u32, BucketDest)> {
        ids.map(|i| (i, b.get_bucket(i, NULL_BKT, bucket_of(i))))
            .collect()
    };
    let (warm, moves) = (requests(&b, 0..800), requests(&b, 800..1000));
    b.update_buckets(&warm);
    // 80 identifiers in each destination so far (capacity 128): 20 more fit.
    let ((), bytes) = bytes_of(|| b.update_buckets(&moves));
    assert_eq!(bytes, 0, "a 200-move updateBuckets allocated {bytes} bytes");
    assert_eq!(b.stats().identifiers_moved, 900);
    assert_eq!(b.stats().null_requests, 100);
    let mut extracted = 0;
    while let Some((_, ids)) = b.next_bucket() {
        extracted += ids.len();
    }
    assert_eq!(extracted, 900);
}
