//! Extension benchmarks: the bucketed peel beyond coreness — k-truss
//! (edge identifiers) and degeneracy/densest-subgraph, plus PageRank as
//! the general edgeMapReduce workload.

use criterion::{criterion_group, criterion_main, Criterion};
use julienne::query::QueryCtx;
use julienne_algorithms::degeneracy::{degeneracy_order, densest_subgraph};
use julienne_algorithms::ktruss::{ktruss, ktruss_seq, KtrussParams};
use julienne_algorithms::pagerank::pagerank;
use julienne_algorithms::triangles::triangle_count;
use julienne_graph::generators::{rmat, RmatParams};

fn bench_truss(c: &mut Criterion) {
    let g = rmat(11, 10, RmatParams::default(), 0x7455, true);
    let mut group = c.benchmark_group("ext_ktruss");
    group.sample_size(10);
    group.bench_function("bucketed_parallel_peel", |b| {
        b.iter(|| ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap())
    });
    group.bench_function("sequential_peel", |b| b.iter(|| ktruss_seq(&g)));
    group.bench_function("triangle_count_only", |b| {
        b.iter(|| triangle_count(&g).unwrap())
    });
    group.finish();
}

fn bench_degeneracy(c: &mut Criterion) {
    let g = rmat(12, 12, RmatParams::default(), 0xDE6E, true);
    let mut group = c.benchmark_group("ext_degeneracy");
    group.sample_size(10);
    group.bench_function("degeneracy_order", |b| b.iter(|| degeneracy_order(&g)));
    group.bench_function("densest_subgraph", |b| b.iter(|| densest_subgraph(&g)));
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let g = rmat(12, 12, RmatParams::default(), 0x9A6E, true);
    let mut group = c.benchmark_group("ext_pagerank");
    group.sample_size(10);
    group.bench_function("pagerank_20_iters", |b| {
        b.iter(|| pagerank(&g, 0.85, 0.0, 20))
    });
    group.finish();
}

criterion_group!(benches, bench_truss, bench_degeneracy, bench_pagerank);
criterion_main!(benches);
