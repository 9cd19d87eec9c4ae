//! Paper-literal drivers: k-core (Algorithm 1), Δ-stepping / wBFS
//! (Algorithm 2) and a direction-optimised BFS, written only from the
//! framework's public calls — `Engine::buckets`, `Bucketing::{get_bucket,
//! next_bucket, update_buckets}`, `Engine::edge_map`, and the scratch-array
//! `edge_map_sum` the registry's k-core calls — with a span around each
//! call. They exist so the time inside an algorithm can be split by layer
//! from outside the crates; each driver's result must equal the registry
//! algorithm's, and `driver.vs_registry_x` says how representative its
//! timing is.

use julienne::prelude::{
    vertex_map_data, Bucketing, Counter, Engine, GraphRef, Order, OutEdges, VertexSubset, NULL_BKT,
};
use julienne_ligra::edge_map_reduce::{edge_map_sum_with_scratch, SumScratch};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Span names, in the order their totals are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole driver run; its self time is the round loop's own work.
    Driver = 0,
    NextBucket,
    UpdateBuckets,
    EdgeMapSparse,
    EdgeMapDense,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "algorithms.driver",
            Layer::NextBucket => "core.bucket.next_bucket",
            Layer::UpdateBuckets => "core.bucket.update_buckets",
            Layer::EdgeMapSparse => "ligra.edge_map.sparse",
            Layer::EdgeMapDense => "ligra.edge_map.dense",
        }
    }
}

/// One recorded span: which layer, when (µs since the recorder started),
/// the index of the span that caused it, and the op it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// Spans are kept in memory and handed to the caller at the end.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span and returns its index; close it with [`Recorder::close`].
    fn open(&mut self, layer: Layer, parent: Option<usize>, op: usize) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            layer,
            start_us,
            end_us: start_us,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, index: usize) {
        self.spans[index].end_us = self.now_us();
    }

    /// Runs `f` inside a child span of `parent`.
    fn child<R>(&mut self, layer: Layer, parent: usize, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent].op;
        let index = self.open(layer, Some(parent), op);
        let out = f();
        self.close(index);
        out
    }

    /// Total duration of `layer`'s spans under op `op`, in ms.
    pub fn total_ms(&self, layer: Layer, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(|s| (s.end_us - s.start_us) as f64)
            .sum::<f64>()
            / 1e3
    }

    /// Self time of op `op`'s driver span: its duration minus what its
    /// child spans cover.
    pub fn residual_ms(&self, op: usize) -> f64 {
        let children: f64 = [
            Layer::NextBucket,
            Layer::UpdateBuckets,
            Layer::EdgeMapSparse,
            Layer::EdgeMapDense,
        ]
        .into_iter()
        .map(|l| self.total_ms(l, op))
        .sum();
        self.total_ms(Layer::Driver, op) - children
    }
}

/// Algorithm 1: work-efficient coreness by bucketed peeling.
pub fn kcore<G: OutEdges>(g: &G, engine: &Engine, rec: &mut Recorder, op: usize) -> Vec<u32> {
    let root = rec.open(Layer::Driver, None, op);
    let n = g.num_vertices();
    let degree: Vec<AtomicU32> = (0..n)
        .map(|v| AtomicU32::new(g.out_degree(v as u32) as u32))
        .collect();
    let mut buckets = engine.buckets(
        n,
        |v: u32| degree[v as usize].load(Ordering::SeqCst),
        Order::Increasing,
    );
    let scratch = SumScratch::new(n);
    let mut finished = 0usize;
    while finished < n {
        let (k, peeled) = rec
            .child(Layer::NextBucket, root, || buckets.next_bucket())
            .expect("buckets hold every unfinished vertex");
        finished += peeled.len();
        let moved = rec.child(Layer::EdgeMapSparse, root, || {
            edge_map_sum_with_scratch(
                g,
                &peeled,
                |v, removed: u32| {
                    let induced = degree[v as usize].load(Ordering::SeqCst);
                    if induced <= k {
                        return None;
                    }
                    let lowered = induced.saturating_sub(removed).max(k);
                    degree[v as usize].store(lowered, Ordering::SeqCst);
                    let dest = buckets.get_bucket(v, induced, lowered);
                    (!dest.is_null()).then_some(dest)
                },
                |v| degree[v as usize].load(Ordering::SeqCst) > k,
                &scratch,
            )
        });
        rec.child(Layer::UpdateBuckets, root, || {
            buckets.update_buckets(moved.entries())
        });
    }
    drop(buckets);
    rec.close(root);
    degree.into_iter().map(AtomicU32::into_inner).collect()
}

const INF: u64 = u64::MAX;

/// Algorithm 2: Δ-stepping (wBFS when `delta` is 1). Relaxes from a
/// round-start snapshot of the frontier's distances, as the registry
/// algorithm does, so both settle the same rounds.
pub fn delta_stepping<G: OutEdges<W = u32>>(
    g: &G,
    src: u32,
    delta: u64,
    engine: &Engine,
    rec: &mut Recorder,
    op: usize,
) -> Vec<u64> {
    let root = rec.open(Layer::Driver, None, op);
    let n = g.num_vertices();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    let snapshot: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    let visited: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    dist[src as usize].store(0, Ordering::SeqCst);
    let annulus = |d: u64| (d / delta).min(u64::from(NULL_BKT) - 1) as u32;
    let bucket_of = |v: u32| match dist[v as usize].load(Ordering::SeqCst) {
        INF => NULL_BKT,
        d => annulus(d),
    };
    let mut buckets = engine.buckets(n, bucket_of, Order::Increasing);
    let edge_map = engine.edge_map(g);
    while let Some((_, frontier)) = rec.child(Layer::NextBucket, root, || buckets.next_bucket()) {
        for &v in &frontier {
            snapshot[v as usize].store(dist[v as usize].load(Ordering::SeqCst), Ordering::SeqCst);
        }
        let relaxed = rec.child(Layer::EdgeMapSparse, root, || {
            edge_map.run_sparse_data(
                &frontier,
                |u, v, w| {
                    let candidate = snapshot[u as usize].load(Ordering::SeqCst) + u64::from(w);
                    let before = dist[v as usize].load(Ordering::SeqCst);
                    if candidate >= before {
                        return None;
                    }
                    // The flag is taken before the distance is lowered, so
                    // the one relaxer that wins it read `before` while `v`
                    // still held its round-start distance.
                    let first = !visited[v as usize].swap(true, Ordering::SeqCst);
                    dist[v as usize].fetch_min(candidate, Ordering::SeqCst);
                    first.then_some(before)
                },
                |_| true,
            )
        });
        let moves = vertex_map_data(&relaxed, |v, before| {
            visited[v as usize].store(false, Ordering::SeqCst);
            let prev = if before == INF {
                NULL_BKT
            } else {
                annulus(before)
            };
            let next = annulus(dist[v as usize].load(Ordering::SeqCst));
            Some(buckets.get_bucket(v, prev, next))
        });
        rec.child(Layer::UpdateBuckets, root, || {
            buckets.update_buckets(moves.entries())
        });
    }
    drop(buckets);
    rec.close(root);
    dist.into_iter().map(AtomicU64::into_inner).collect()
}

/// Direction-optimised BFS over `EdgeMap::run`: the suite's only user of
/// the dense (pull) traversal — none of the bucketed algorithms ever
/// pulls. The engine must have telemetry on: the traversal counters are
/// how a call is attributed to sparse or dense.
pub fn bfs<G: GraphRef>(
    g: &G,
    src: u32,
    engine: &Engine,
    rec: &mut Recorder,
    op: usize,
) -> Vec<u32> {
    let root = rec.open(Layer::Driver, None, op);
    let n = g.num_vertices();
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    level[src as usize].store(0, Ordering::SeqCst);
    let edge_map = engine.edge_map(g);
    let mut frontier = VertexSubset::single(n, src);
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let dense_before = engine.telemetry().get(Counter::DenseTraversals);
        let index = rec.open(Layer::EdgeMapSparse, Some(root), op);
        frontier = edge_map.run(
            &frontier,
            |_, v, _| {
                level[v as usize]
                    .compare_exchange(u32::MAX, depth, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            },
            |v| level[v as usize].load(Ordering::SeqCst) == u32::MAX,
        );
        rec.close(index);
        if engine.telemetry().get(Counter::DenseTraversals) > dense_before {
            rec.spans[index].layer = Layer::EdgeMapDense;
        }
    }
    rec.close(root);
    level.into_iter().map(AtomicU32::into_inner).collect()
}
