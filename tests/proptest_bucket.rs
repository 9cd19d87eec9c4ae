//! Property tests: the parallel bucket structure must produce exactly the
//! same extraction sequence as the sequential reference (Section 3.2)
//! under arbitrary initial bucketings and random monotone update streams,
//! in both orders and at any number of open buckets. Around the histogram
//! block size, where `updateBuckets` switches from direct appends to the
//! blocked scatter, the comparison is exact: identifiers *and their order*.

mod common;

use julienne::bucket::{BucketDest, BucketStats, Bucketing, BucketsBuilder, Order, NULL_BKT};
use julienne_primitives::histogram::BLOCK_SIZE as B;
use julienne_primitives::rng::SplitMix64;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

/// Drives both implementations through the same workload and asserts
/// identical (bucket, sorted members) extraction sequences and extraction
/// counters. Returns the (parallel, sequential) operation counters.
fn drive(
    initial: Vec<u32>,
    order: Order,
    num_open: usize,
    update_seed: u64,
) -> (BucketStats, BucketStats) {
    let n = initial.len();
    let d_par: Vec<AtomicU32> = initial.iter().map(|&x| AtomicU32::new(x)).collect();
    let d_seq: Vec<AtomicU32> = initial.iter().map(|&x| AtomicU32::new(x)).collect();

    let mut par = BucketsBuilder::new(
        n,
        |i: u32| d_par[i as usize].load(AtomicOrdering::SeqCst),
        order,
    )
    .open_buckets(num_open)
    .build();
    let mut seq = BucketsBuilder::new(
        n,
        |i: u32| d_seq[i as usize].load(AtomicOrdering::SeqCst),
        order,
    )
    .build_seq();

    let mut rng = SplitMix64::new(update_seed);
    let mut extracted = vec![false; n];
    let mut safety = 0;
    loop {
        safety += 1;
        assert!(safety < 10_000, "extraction did not terminate");
        let p = par.next_bucket();
        let s = seq.next_bucket();
        match (p, s) {
            (None, None) => break,
            (Some((pb, mut pids)), Some((sb, mut sids))) => {
                pids.sort_unstable();
                sids.sort_unstable();
                assert_eq!(pb, sb, "bucket ids diverge");
                assert_eq!(pids, sids, "members diverge in bucket {pb}");
                for &i in &pids {
                    extracted[i as usize] = true;
                }

                // Random monotone updates: move some unextracted ids to a
                // bucket at-or-after the current one (toward cur for
                // Increasing, like k-core's clamping; away from the initial
                // max is forbidden for Decreasing).
                let cur = pb;
                let mut moves_par: Vec<(u32, BucketDest)> = Vec::new();
                let mut moves_seq: Vec<(u32, BucketDest)> = Vec::new();
                for i in 0..n as u32 {
                    if extracted[i as usize] || rng.next_range(4) != 0 {
                        continue;
                    }
                    let old = d_par[i as usize].load(AtomicOrdering::SeqCst);
                    if old == NULL_BKT {
                        continue;
                    }
                    let new = match order {
                        Order::Increasing => {
                            // Anywhere in [cur, old] (only meaningful if it
                            // moves toward cur), occasionally past old.
                            if old > cur {
                                cur + rng.next_range((old - cur + 1) as u64) as u32
                            } else {
                                continue;
                            }
                        }
                        Order::Decreasing => {
                            // Decreasing: buckets shrink; move into
                            // (cur is upper now) [?, cur] i.e. id ≤ cur.
                            if old == 0 || old > cur {
                                continue;
                            }
                            rng.next_range((old.min(cur) + 1) as u64) as u32
                        }
                    };
                    if new == old {
                        continue;
                    }
                    d_par[i as usize].store(new, AtomicOrdering::SeqCst);
                    d_seq[i as usize].store(new, AtomicOrdering::SeqCst);
                    moves_par.push((i, par.get_bucket(i, old, new)));
                    moves_seq.push((i, seq.get_bucket(i, old, new)));
                }
                par.update_buckets(&moves_par);
                seq.update_buckets(&moves_seq);
            }
            other => panic!("one structure drained early: {other:?}"),
        }
    }
    // Everything initially bucketed must have been extracted.
    for i in 0..n {
        if initial[i] != NULL_BKT {
            assert!(
                extracted[i],
                "id {i} (bucket {}) never extracted",
                initial[i]
            );
        }
    }
    let (p, s) = (par.stats(), seq.stats());
    assert_eq!(p.identifiers_extracted, s.identifiers_extracted);
    assert_eq!(p.buckets_extracted, s.buckets_extracted);
    (p, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn increasing_matches_sequential(
        initial in prop::collection::vec(
            prop_oneof![4 => 0u32..300, 1 => Just(NULL_BKT)], 1..120),
        num_open in 1usize..20,
        seed in any::<u64>(),
    ) {
        drive(initial, Order::Increasing, num_open, seed);
    }

    #[test]
    fn decreasing_matches_sequential(
        initial in prop::collection::vec(
            prop_oneof![4 => 0u32..300, 1 => Just(NULL_BKT)], 1..120),
        num_open in 1usize..20,
        seed in any::<u64>(),
    ) {
        drive(initial, Order::Decreasing, num_open, seed);
    }

    #[test]
    fn move_counters_match_sequential_inside_the_open_window(
        initial in prop::collection::vec(
            prop_oneof![4 => 0u32..96, 1 => Just(NULL_BKT)], 1..400),
        seed in any::<u64>(),
    ) {
        // Every bucket lies in the first window of 128 open buckets, so no
        // move starts and ends in the overflow bucket (the one case the
        // open-window structure answers with a null destination and the
        // exact one cannot): moved and null-request counts must agree too.
        let (p, s) = drive(initial, Order::Increasing, 128, seed);
        prop_assert_eq!(p.identifiers_moved, s.identifiers_moved);
        prop_assert_eq!(p.null_requests, s.null_requests);
    }

    #[test]
    fn static_drain_increasing(
        initial in prop::collection::vec(0u32..50_000, 1..200),
        num_open in 1usize..200,
    ) {
        // No updates at all: extraction must equal a stable sort by bucket.
        let n = initial.len();
        let d: Vec<AtomicU32> = initial.iter().map(|&x| AtomicU32::new(x)).collect();
        let mut b = BucketsBuilder::new(
            n, |i: u32| d[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing)
            .open_buckets(num_open)
            .build();
        let mut got: Vec<(u32, u32)> = Vec::new();
        while let Some((k, ids)) = b.next_bucket() {
            for i in ids {
                got.push((k, i));
            }
        }
        let mut want: Vec<(u32, u32)> =
            initial.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

/// One `updateBuckets` batch of exactly `len` moves, applied after each of
/// the first three extractions, mixing every kind of request: removals
/// (null requests), fresh insertions into the current bucket, the open
/// window and the overflow bucket, moves toward the current bucket, and
/// reinsertions of just-extracted identifiers into the current bucket. No
/// move starts and ends in the overflow bucket, so the two structures must
/// agree on every counter, and — both appending in request order — on the
/// order of every extraction.
fn exact_order_at_batch_len(len: usize) {
    const NUM_OPEN: usize = 16;
    const BATCHES: usize = 3;
    let n = (BATCHES + 1) * len + 64;
    let mut rng = SplitMix64::new(len as u64);
    let initial: Vec<u32> = (0..n)
        .map(|_| {
            if rng.next_range(2) == 0 {
                NULL_BKT
            } else {
                rng.next_range(300) as u32
            }
        })
        .collect();
    let d_par: Vec<AtomicU32> = initial.iter().map(|&x| AtomicU32::new(x)).collect();
    let d_seq: Vec<AtomicU32> = initial.iter().map(|&x| AtomicU32::new(x)).collect();
    let set = |i: u32, b: u32| {
        d_par[i as usize].store(b, AtomicOrdering::SeqCst);
        d_seq[i as usize].store(b, AtomicOrdering::SeqCst);
    };
    let mut par = BucketsBuilder::new(
        n,
        |i: u32| d_par[i as usize].load(AtomicOrdering::SeqCst),
        Order::Increasing,
    )
    .open_buckets(NUM_OPEN)
    .build();
    let mut seq = BucketsBuilder::new(
        n,
        |i: u32| d_seq[i as usize].load(AtomicOrdering::SeqCst),
        Order::Increasing,
    )
    .build_seq();

    // Each identifier is requested at most once, in a shuffled order, plus
    // at most one reinsertion after it has been extracted.
    let mut fresh: Vec<u32> = (0..n as u32).collect();
    for k in (1..n).rev() {
        fresh.swap(k, rng.next_range(k as u64 + 1) as usize);
    }
    let mut extracted = vec![false; n];
    let mut reinserted = vec![false; n];
    let mut batches = 0;
    loop {
        let (p, s) = (par.next_bucket(), seq.next_bucket());
        assert_eq!(p, s, "extraction (ids and order) diverges at len {len}");
        let Some((cur, ids)) = p else { break };
        for &i in &ids {
            extracted[i as usize] = true;
        }
        if batches == BATCHES {
            continue;
        }
        batches += 1;
        let window_end = (cur / NUM_OPEN as u32 + 1) * NUM_OPEN as u32;
        // (identifier, prev, next) requests; D is updated as they are made.
        let mut requests: Vec<(u32, u32, u32)> = Vec::with_capacity(len);
        for &i in ids.iter().take(len / 8) {
            if !std::mem::replace(&mut reinserted[i as usize], true) {
                requests.push((i, cur, cur));
            }
        }
        while requests.len() < len {
            let i = fresh.pop().expect("enough fresh identifiers");
            if extracted[i as usize] {
                continue;
            }
            let old = d_par[i as usize].load(AtomicOrdering::SeqCst);
            let new = if old == NULL_BKT {
                match rng.next_range(3) {
                    0 => cur,
                    1 => cur + rng.next_range((window_end - cur) as u64) as u32,
                    _ => window_end + rng.next_range(200) as u32,
                }
            } else if rng.next_range(3) == 0 {
                NULL_BKT
            } else {
                // Toward cur, landing inside the open window (old > cur:
                // everything at or before cur has been extracted).
                cur + rng.next_range((old.min(window_end) - cur) as u64) as u32
            };
            set(i, new);
            requests.push((i, old, new));
        }
        let moves = |b: &dyn Bucketing| -> Vec<(u32, BucketDest)> {
            requests
                .iter()
                .map(|&(i, prev, next)| (i, b.get_bucket(i, prev, next)))
                .collect()
        };
        let (moves_par, moves_seq) = (moves(&par), moves(&seq));
        assert_eq!(moves_par.len(), len);
        par.update_buckets(&moves_par);
        seq.update_buckets(&moves_seq);
    }
    assert_eq!(batches, BATCHES, "workload too short for len {len}");
    let (p, s) = (par.stats(), seq.stats());
    assert_eq!(p.identifiers_extracted, s.identifiers_extracted);
    assert_eq!(p.buckets_extracted, s.buckets_extracted);
    assert_eq!(p.identifiers_moved, s.identifiers_moved);
    assert_eq!(p.null_requests, s.null_requests);
    assert!(p.null_requests > 0 || len == 1);
    assert!(p.overflow_redistributions > 0);
}

#[test]
fn batches_straddling_the_block_size_keep_sequential_order() {
    // Under the ambient schedule; ci.sh runs this binary under two chaos
    // seeds (`JULIENNE_CHAOS_SEED`, read once per process) rather than this
    // test setting the process-global seed under its siblings.
    for threads in [1, 2] {
        for len in [1, B - 1, B, B + 1, 3 * B] {
            common::at(threads, || exact_order_at_batch_len(len));
        }
    }
}
