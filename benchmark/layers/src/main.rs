//! `bench-layers`: the traced half of the repo benchmark. It links the
//! repo crates and times calls into each layer's public functions from
//! outside — graph open and decode, `edge_map`, the bucket structure, the
//! algorithm round loops — on the same input files and seeded sources the
//! end-to-end driver used. It prints one JSON document: `metrics` (names
//! from `bench_e2e::spec::PER_LAYER`) and `spans`.
//!
//! `bench-layers oracle-kcore <graph.jgr> <top>` instead prints what a
//! `kcore top=<top>` report must say, computed by the sequential
//! Batagelj–Zaversnik algorithm.

mod drivers;

use bench_e2e::json::Json;
use bench_e2e::stats::median;
use drivers::{Layer, Recorder};
use julienne::prelude::{Backend, Engine, GraphRef, OutEdges, QueryCtx, TelemetrySnapshot};
use julienne_algorithms::bfs::bfs_seq;
use julienne_algorithms::delta_stepping::{sssp, SsspParams};
use julienne_algorithms::dijkstra::dijkstra;
use julienne_algorithms::kcore::{coreness, coreness_bz_seq, KcoreParams};
use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_graph::MappedGraph;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Kcore,
    Sssp,
}

struct Args {
    algo: Algo,
    weighted: bool,
    graph: PathBuf,
    backend: Backend,
    delta: u64,
    sources: Vec<u32>,
    /// Also open the file's uncompressed sections and report the
    /// compressed-over-uncompressed ratios.
    uncompressed_twin: bool,
    /// Also run the direction-optimised BFS driver (the dense path).
    dense_bfs: bool,
    /// Seconds this run may take; repetitions shrink to fit.
    budget_s: f64,
    threads: usize,
}

fn parse_measure(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        algo: Algo::Kcore,
        weighted: false,
        graph: PathBuf::new(),
        backend: Backend::Csr,
        delta: 32_768,
        sources: vec![0],
        uncompressed_twin: false,
        dense_bfs: false,
        budget_s: 5.0,
        threads: 2,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--algo" => {
                a.algo = match value()?.as_str() {
                    "kcore" => Algo::Kcore,
                    "sssp" => Algo::Sssp,
                    other => return Err(format!("unknown --algo {other:?}")),
                }
            }
            "--weighted" => a.weighted = true,
            "--graph" => a.graph = value()?.into(),
            "--backend" => a.backend = Backend::parse(&value()?).map_err(|e| e.to_string())?,
            "--delta" => a.delta = value()?.parse().map_err(|_| "--delta: not a number")?,
            "--sources" => {
                a.sources = value()?
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .map_err(|_| format!("--sources: {s:?} is not a vertex id"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--uncompressed-twin" => a.uncompressed_twin = true,
            "--dense-bfs" => a.dense_bfs = true,
            "--budget-s" => {
                a.budget_s = value()?.parse().map_err(|_| "--budget-s: not a number")?
            }
            other => match other.strip_prefix("threads=") {
                Some(n) => a.threads = n.parse().map_err(|_| "threads=: not a number")?,
                None => return Err(format!("unknown argument {other:?}")),
            },
        }
    }
    if a.graph.as_os_str().is_empty() || a.sources.is_empty() || a.delta == 0 {
        return Err("measure needs --graph, a non-empty --sources and --delta >= 1".to_string());
    }
    Ok(a)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64() * 1e3, out)
}

/// Median wall time of `reps` runs of `f`, in ms, after one untimed run.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).0).collect();
    median(&samples)
}

/// Shrinks repetition counts once most of the time budget is spent.
struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    fn reps(&self, wanted: usize) -> usize {
        if self.started.elapsed().as_secs_f64() < 0.5 * self.seconds {
            wanted
        } else {
            1
        }
    }
}

struct Report {
    metrics: Vec<(String, Json)>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            bench_e2e::spec::PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), Json::Num(value)));
    }
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Single-threaded scan of every out-edge: the decode layer alone, with no
/// traversal machinery around it. Returns edges per second.
fn sweep<G: OutEdges>(g: &G) -> f64 {
    let pass = || {
        let mut acc = 0u64;
        let mut edges = 0u64;
        for u in 0..g.num_vertices() as u32 {
            g.for_each_out(u, |v, _| {
                acc = acc.wrapping_add(u64::from(v));
                edges += 1;
            });
        }
        std::hint::black_box(acc);
        edges
    };
    pass();
    let (ms, edges) = timed(pass);
    edges as f64 / (ms / 1e3)
}

fn set_threads(n: usize) {
    // The worker-thread count is process-wide; building an engine is the
    // public way to set it.
    let _ = Engine::builder().num_threads(n).build();
}

/// Counters and per-round records of one instrumented run, as metrics.
fn telemetry_metrics(r: &mut Report, snap: &TelemetrySnapshot, n: usize, m: usize) {
    let scanned = counter(snap, "edges_scanned");
    let moved = counter(snap, "identifiers_moved");
    let extracted = counter(snap, "identifiers_extracted");
    r.set("edge_map.edges_scanned", scanned);
    r.set("edge_map.edges_relaxed", counter(snap, "edges_relaxed"));
    r.set(
        "edge_map.sparse_traversals",
        counter(snap, "sparse_traversals"),
    );
    r.set(
        "edge_map.dense_traversals",
        counter(snap, "dense_traversals"),
    );
    r.set("bucket.identifiers_moved", moved);
    r.set("bucket.identifiers_extracted", extracted);
    r.set(
        "bucket.buckets_extracted",
        counter(snap, "buckets_extracted"),
    );
    r.set(
        "bucket.overflow_redistributions",
        counter(snap, "overflow_redistributions"),
    );
    r.set("bucket.moves_per_edge", moved / scanned.max(1.0));
    r.set("algo.rounds", counter(snap, "rounds"));
    let round_us: Vec<f64> = snap.rounds.iter().map(|rr| rr.elapsed_us as f64).collect();
    r.set("algo.round_p50_us", median(&round_us));
    // Table 1: total work over input size; O(m + n) algorithms hold this
    // to a small constant.
    r.set(
        "algo.work_per_elem",
        (scanned + moved + extracted) / (m + n) as f64,
    );
}

/// Span totals of the recorded driver run (op 0), as metrics.
fn span_metrics(r: &mut Report, rec: &Recorder, snap: &TelemetrySnapshot) {
    let next = rec.total_ms(Layer::NextBucket, 0);
    let update = rec.total_ms(Layer::UpdateBuckets, 0);
    let sparse = rec.total_ms(Layer::EdgeMapSparse, 0);
    r.set("bucket.next_bucket_ms", next);
    r.set("bucket.update_buckets_ms", update);
    r.set("edge_map.sparse_ms", sparse);
    r.set("algo.residual_ms", rec.residual_ms(0));
    let ids = counter(snap, "identifiers_moved") + counter(snap, "identifiers_extracted");
    r.set("bucket.ns_per_id", (next + update) * 1e6 / ids.max(1.0));
    r.set(
        "edge_map.ns_per_edge",
        sparse * 1e6 / counter(snap, "edges_scanned").max(1.0),
    );
}

/// Everything measured the same way for both algorithms, given closures
/// that run the registry algorithm's function, the driver, and the
/// sequential baseline on the workload's first source.
#[allow(clippy::too_many_arguments)]
fn algorithm_metrics<T: PartialEq>(
    r: &mut Report,
    rec: &mut Recorder,
    budget: &Budget,
    threads: usize,
    (n, m): (usize, usize),
    run: impl Fn(&QueryCtx) -> T,
    driver: impl Fn(&mut Recorder, usize) -> T,
    baseline: impl Fn() -> T,
) -> Result<(), String> {
    let plain = QueryCtx::from_engine(&Engine::default());
    let direct_ms = median_ms(budget.reps(3), || {
        std::hint::black_box(run(&plain));
    });

    let traced = QueryCtx::from_engine(&Engine::builder().telemetry(true).build());
    let (traced_ms, answer) = timed(|| run(&traced));
    let snap = traced.snapshot();
    telemetry_metrics(r, &snap, n, m);
    r.set("trace.overhead_pct", (traced_ms / direct_ms - 1.0) * 100.0);

    // The driver: op 0 is recorded (its spans are the trace); op 1.. only
    // feed the timing median.
    let driver_ms = median_ms(budget.reps(2), || {
        let mut scratch = Recorder::new();
        std::hint::black_box(driver(&mut scratch, 1));
    });
    if driver(rec, 0) != answer {
        return Err(
            "the paper-literal driver's result differs from the registry algorithm's".into(),
        );
    }
    span_metrics(r, rec, &snap);
    r.set("driver.vs_registry_x", driver_ms / direct_ms);

    let (baseline_ms, reference) = timed(&baseline);
    if reference != answer {
        return Err(
            "the sequential baseline's result differs from the registry algorithm's".into(),
        );
    }
    r.set("algo.baseline_x", baseline_ms / direct_ms);

    set_threads(1);
    let one_thread_ms = median_ms(budget.reps(2), || {
        std::hint::black_box(run(&plain));
    });
    set_threads(threads);
    r.set("algo.speedup_2t", one_thread_ms / direct_ms);
    Ok(())
}

fn registry_ms(
    budget: &Budget,
    id: &str,
    store: &GraphStore,
    params: &[ParamMap],
) -> Result<f64, String> {
    let ctx = QueryCtx::from_engine(&Engine::default());
    let registry = Registry::standard();
    registry
        .run(id, store, &params[0], &ctx)
        .map_err(|e| e.to_string())?;
    let samples: Vec<f64> = (0..budget.reps(3).max(params.len().min(3)))
        .map(|i| timed(|| registry.run(id, store, &params[i % params.len()], &ctx)).0)
        .collect();
    Ok(median(&samples))
}

fn measure_kcore<G: GraphRef>(
    g: &G,
    args: &Args,
    r: &mut Report,
    rec: &mut Recorder,
    budget: &Budget,
) -> Result<(), String> {
    algorithm_metrics(
        r,
        rec,
        budget,
        args.threads,
        (g.num_vertices(), g.num_edges()),
        |ctx| {
            coreness(g, &KcoreParams::default(), ctx)
                .expect("no deadline set")
                .coreness
        },
        |rec, op| drivers::kcore(g, &Engine::default(), rec, op),
        || coreness_bz_seq(g).coreness,
    )?;
    if args.dense_bfs {
        let engine = Engine::builder().telemetry(true).build();
        let levels = drivers::bfs(g, args.sources[0], &engine, rec, 2);
        if levels != bfs_seq(g, args.sources[0]) {
            return Err("the BFS driver's levels differ from sequential BFS".into());
        }
        r.set("edge_map.dense_ms", rec.total_ms(Layer::EdgeMapDense, 2));
        r.set(
            "edge_map.dense_traversals",
            counter(&engine.snapshot(), "dense_traversals"),
        );
    }
    Ok(())
}

fn measure_sssp<G: GraphRef<W = u32>>(
    g: &G,
    args: &Args,
    r: &mut Report,
    rec: &mut Recorder,
    budget: &Budget,
) -> Result<(), String> {
    let params = SsspParams {
        src: args.sources[0],
        delta: args.delta,
    };
    algorithm_metrics(
        r,
        rec,
        budget,
        args.threads,
        (g.num_vertices(), g.num_edges()),
        |ctx| sssp(g, &params, ctx).expect("no deadline set").dist,
        |rec, op| drivers::delta_stepping(g, params.src, params.delta, &Engine::default(), rec, op),
        || dijkstra(g, params.src),
    )
}

fn measure(args: &Args) -> Result<Json, String> {
    set_threads(args.threads);
    let budget = Budget {
        started: Instant::now(),
        seconds: args.budget_s,
    };
    let mut r = Report {
        metrics: Vec::new(),
    };
    let mut rec = Recorder::new();

    let open =
        |backend| GraphStore::open(&args.graph, args.weighted, backend).map_err(|e| e.to_string());
    let store = open(args.backend)?;
    let open_ms: Vec<f64> = (0..5).map(|_| timed(|| open(args.backend)).0).collect();
    r.set("graph.open_ms", median(&open_ms));

    let (id, params): (&str, Vec<ParamMap>) = match args.algo {
        Algo::Kcore => ("kcore", vec![ParamMap::from_pairs([("top", "3")])]),
        Algo::Sssp => (
            "sssp",
            args.sources
                .iter()
                .map(|src| {
                    ParamMap::from_pairs([
                        ("algo", "delta".to_string()),
                        ("delta", args.delta.to_string()),
                        ("src", src.to_string()),
                    ])
                })
                .collect(),
        ),
    };
    let run_ms = registry_ms(&budget, id, &store, &params)?;
    r.set("algo.run_ms", run_ms);

    let (footprint_bytes, sweep_rate) = match (&store, args.algo) {
        (GraphStore::Mapped(g), Algo::Kcore) => {
            measure_kcore(&**g, args, &mut r, &mut rec, &budget)?;
            (g.footprint_bytes(), sweep(&**g))
        }
        (GraphStore::Csr(g), Algo::Kcore) => {
            measure_kcore(&**g, args, &mut r, &mut rec, &budget)?;
            (g.footprint_bytes(), sweep(&**g))
        }
        (GraphStore::WMapped(g), Algo::Sssp) => {
            measure_sssp(&**g, args, &mut r, &mut rec, &budget)?;
            (g.footprint_bytes(), sweep(&**g))
        }
        (GraphStore::WCompressed(g), Algo::Sssp) => {
            measure_sssp(&**g, args, &mut r, &mut rec, &budget)?;
            (g.footprint_bytes(), sweep(&**g))
        }
        (other, _) => return Err(format!("no measurement defined for {other:?}")),
    };
    r.set(
        "graph.footprint_mb",
        footprint_bytes as f64 / (1024.0 * 1024.0),
    );
    r.set("graph.sweep_edges_per_s", sweep_rate);

    if args.uncompressed_twin {
        let twin = open(Backend::Mapped)?;
        let GraphStore::WMapped(g) = &twin else {
            return Err("--uncompressed-twin needs a weighted container".into());
        };
        // Time per edge, compressed over uncompressed.
        r.set("decode.vs_uncompressed_x", sweep(&**g) / sweep_rate);
        r.set(
            "algo.vs_uncompressed_x",
            run_ms / registry_ms(&budget, id, &twin, &params)?,
        );
    }

    let spans: Vec<Json> = rec
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.layer.name())),
                ("start_us", Json::Num(s.start_us as f64)),
                ("end_us", Json::Num(s.end_us as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("metrics", Json::Obj(r.metrics)),
        ("spans", Json::Arr(spans)),
    ]))
}

/// What `julienne kcore top=<top>` must print for this graph, peel
/// counters aside: `k_max=` and the top vertices, by (coreness, id)
/// descending.
fn oracle_kcore(graph: &Path, top: usize) -> Result<String, String> {
    let g = MappedGraph::<()>::open(graph).map_err(|e| e.to_string())?;
    let cores = coreness_bz_seq(&g).coreness;
    let mut ranked: Vec<(u32, u32)> = cores
        .iter()
        .enumerate()
        .map(|(v, &c)| (c, v as u32))
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = format!(
        "k_max={}\ntop vertices by coreness:\n",
        cores.iter().max().copied().unwrap_or(0)
    );
    for (c, v) in ranked.into_iter().take(top) {
        out.push_str(&format!("  v{v}: coreness {c}\n"));
    }
    Ok(out)
}

fn real_main() -> Result<String, String> {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("oracle-kcore") => {
            let graph = it.next().ok_or("oracle-kcore needs a graph path")?;
            let top = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("oracle-kcore needs a top count")?;
            oracle_kcore(Path::new(&graph), top)
        }
        Some("measure") => Ok(format!("{}\n", measure(&parse_measure(it)?)?.render())),
        _ => Err("usage: bench-layers oracle-kcore <graph.jgr> <top> | measure --algo kcore|sssp --graph <file> --backend <b> [--weighted] [--delta d] [--sources a,b] [--uncompressed-twin] [--dense-bfs] [--budget-s s] [threads=n]".into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench-layers: {msg}");
            ExitCode::FAILURE
        }
    }
}
