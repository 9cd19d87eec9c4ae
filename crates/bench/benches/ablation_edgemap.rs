//! Ablation A3 (Section 2.1): edgeMap traversal strategies (sparse push /
//! dense pull / auto switching) on BFS, the two edgeMapSum implementations
//! (semisort aggregation vs. the histogram over a persistent counter array),
//! and the histogram kernel's cost on one and on two workers.

use criterion::{criterion_group, criterion_main, Criterion};
use julienne::query::QueryCtx;
use julienne_algorithms::bfs::bfs_with_mode;
use julienne_bench::sweep::with_threads;
use julienne_graph::generators::{rmat, RmatParams};
use julienne_ligra::edge_map::Mode;
use julienne_ligra::edge_map_reduce::{edge_map_sum, edge_map_sum_with_scratch, SumScratch};

fn bench_bfs_modes(c: &mut Criterion) {
    let g = rmat(13, 16, RmatParams::default(), 0xED6E, true);
    let mut group = c.benchmark_group("ablation_edgemap_direction");
    group.sample_size(10);
    for (name, mode) in [
        ("sparse_push", Mode::Sparse),
        ("dense_pull", Mode::Dense),
        ("auto_threshold", Mode::Auto),
    ] {
        group.bench_function(name, |b| b.iter(|| bfs_with_mode(&g, 0, mode)));
    }
    group.finish();
}

fn bench_edge_map_sum(c: &mut Criterion) {
    let g = rmat(13, 16, RmatParams::default(), 0xED6F, true);
    let frontier: Vec<u32> = (0..(g.num_vertices() as u32) / 4).collect();
    let scratch = SumScratch::new(g.num_vertices());
    let mut group = c.benchmark_group("ablation_edge_map_sum");
    group.sample_size(10);
    group.bench_function("semisort_aggregation", |b| {
        b.iter(|| edge_map_sum(&g, &frontier, |_, c| Some(c), |_| true))
    });
    group.bench_function("histogram_scratch", |b| {
        b.iter(|| edge_map_sum_with_scratch(&g, &frontier, |_, c| Some(c), |_| true, &scratch))
    });
    group.finish();
}

/// The kernel a k-core round runs, at its largest: every vertex of a
/// symmetric R-MAT 16 peeled at once, half the targets live. One worker is
/// what Table 3's Julienne column pays per edge; two says what the emit and
/// update phases gain around the sequential count.
fn bench_edge_map_sum_kernel(c: &mut Criterion) {
    let g = rmat(16, 16, RmatParams::default(), 0xED6F, true);
    let frontier: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let scratch = SumScratch::new(g.num_vertices());
    let mut group = c.benchmark_group("edge_map_sum_kernel");
    group.sample_size(10);
    for threads in [1, 2] {
        group.bench_function(format!("histogram_scratch/threads={threads}"), |b| {
            with_threads(threads, || {
                b.iter(|| {
                    edge_map_sum_with_scratch(
                        &g,
                        &frontier,
                        |_, c| Some(c),
                        |v| v % 2 == 0,
                        &scratch,
                    )
                })
            })
        });
    }
    group.finish();
}

fn bench_hub_sort_locality(c: &mut Criterion) {
    use julienne_algorithms::kcore::{coreness, KcoreParams};
    use julienne_graph::transform::hub_sort;
    let g = rmat(13, 16, RmatParams::default(), 0xED70, true);
    let (sorted, _) = hub_sort(&g);
    let mut group = c.benchmark_group("ablation_hub_sort_locality");
    group.sample_size(10);
    group.bench_function("kcore_original_labels", |b| {
        b.iter(|| coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap())
    });
    group.bench_function("kcore_hub_sorted", |b| {
        b.iter(|| coreness(&sorted, &KcoreParams::default(), &QueryCtx::default()).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs_modes,
    bench_edge_map_sum,
    bench_edge_map_sum_kernel,
    bench_hub_sort_locality
);
criterion_main!(benches);
