//! Ablation A1 (Section 3.3): the two `updateBuckets` strategies —
//! blocked-histogram direct writes (the paper's production choice) vs. the
//! semisort-based variant (Section 3.2) — and sensitivity to the number of
//! open buckets nB. The paper found the direct writes "much faster than a
//! semisort" for small nB.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use julienne_bench::micro::bucket_microbenchmark;

fn bench_update_strategy(c: &mut Criterion) {
    let n = 1usize << 15;
    let mut group = c.benchmark_group("ablation_update_buckets_strategy");
    group.sample_size(10);
    group.bench_function("histogram_direct_writes", |b| {
        b.iter(|| bucket_microbenchmark(n, 512, 128, 0xAB1, false))
    });
    group.bench_function("semisort_shuffle", |b| {
        b.iter(|| bucket_microbenchmark(n, 512, 128, 0xAB1, true))
    });
    group.finish();
}

fn bench_open_buckets(c: &mut Criterion) {
    let n = 1usize << 15;
    let mut group = c.benchmark_group("ablation_num_open_buckets");
    group.sample_size(10);
    for &nb in &[1usize, 16, 128, 1024] {
        group.bench_with_input(BenchmarkId::new("nB", nb), &nb, |b, &nb| {
            b.iter(|| bucket_microbenchmark(n, 1024, nb, 0xAB2, false))
        });
    }
    group.finish();
}

fn bench_semisort_impls(c: &mut Criterion) {
    use julienne_primitives::rng::SplitMix64;
    use julienne_primitives::semisort::{semisort_by_key, semisort_by_key_hashed};
    let mut rng = SplitMix64::new(0xAB3);
    let items: Vec<(u32, u64)> = (0..200_000).map(|i| (rng.next_u32() % 4096, i)).collect();
    let mut group = c.benchmark_group("ablation_semisort_impl");
    group.sample_size(10);
    group.bench_function("radix_semisort", |b| {
        b.iter(|| {
            let mut xs = items.clone();
            semisort_by_key(&mut xs, 4095, |p| p.0)
        })
    });
    group.bench_function("hash_bucket_semisort", |b| {
        b.iter(|| {
            let mut xs = items.clone();
            semisort_by_key_hashed(&mut xs, |p| p.0)
        })
    });
    group.finish();
}

/// A1b: the §3.3 interface claim — two-argument `getBucket(prev, next)` vs
/// the internal id→bucket map (which the paper measured ~30% slower due to
/// an extra random read+write per moved identifier).
fn bench_getbucket_interface(c: &mut Criterion) {
    use julienne::bucket::{BucketDest, Bucketing, BucketsBuilder, Order};
    use julienne_bench::mapped::{MappedBuckets, MappedDest};
    use julienne_primitives::rng::hash_range;
    use std::sync::atomic::{AtomicU32, Ordering};

    let n = 1usize << 15;
    let b = 512u32;
    let init: Vec<u32> = (0..n as u64)
        .map(|i| hash_range(0xA1B, i, b as u64) as u32)
        .collect();

    let mut group = c.benchmark_group("ablation_getbucket_interface");
    group.sample_size(10);
    group.bench_function("two_argument_getbucket", |bench| {
        bench.iter(|| {
            let d: Vec<AtomicU32> = init.iter().map(|&x| AtomicU32::new(x)).collect();
            let mut bk = BucketsBuilder::new(
                n,
                |i: u32| d[i as usize].load(Ordering::SeqCst),
                Order::Increasing,
            )
            .build();
            while let Some((cur, ids)) = bk.next_bucket() {
                let mut moves: Vec<(u32, BucketDest)> = Vec::with_capacity(ids.len());
                for &i in &ids {
                    // Halve the bucket of a pseudo-random other identifier.
                    let v = hash_range(0xFEED, i as u64, n as u64) as u32;
                    let dv = d[v as usize].load(Ordering::SeqCst);
                    if dv != u32::MAX && dv > cur {
                        let new = (dv / 2).max(cur);
                        d[v as usize].store(new, Ordering::SeqCst);
                        moves.push((v, bk.get_bucket(v, dv, new)));
                    }
                }
                bk.update_buckets(&moves);
            }
        })
    });
    group.bench_function("internal_map_getbucket", |bench| {
        bench.iter(|| {
            let d: Vec<AtomicU32> = init.iter().map(|&x| AtomicU32::new(x)).collect();
            let mut bk = MappedBuckets::new(
                n,
                |i: u32| d[i as usize].load(Ordering::SeqCst),
                Order::Increasing,
            );
            while let Some((cur, ids)) = bk.next_bucket() {
                let mut moves: Vec<(u32, MappedDest)> = Vec::with_capacity(ids.len());
                for &i in &ids {
                    let v = hash_range(0xFEED, i as u64, n as u64) as u32;
                    let dv = d[v as usize].load(Ordering::SeqCst);
                    if dv != u32::MAX && dv > cur {
                        let new = (dv / 2).max(cur);
                        d[v as usize].store(new, Ordering::SeqCst);
                        moves.push((v, bk.get_bucket(v, new)));
                    }
                }
                bk.update_buckets(&moves);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_update_strategy,
    bench_open_buckets,
    bench_semisort_impls,
    bench_getbucket_interface
);
criterion_main!(benches);
