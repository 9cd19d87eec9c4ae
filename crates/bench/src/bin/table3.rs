//! Table 3: running times of every implementation on every suite input —
//! the paper's headline comparison. Reports 1-thread time, max-thread time
//! and self-relative speedup for each (application, implementation) pair.
//!
//! Usage: `cargo run -p julienne-bench --release --bin table3 [scale] [kcore|wbfs|delta|setcover|all]`

use julienne::prelude::Engine;
use julienne::query::QueryCtx;
use julienne_algorithms::delta_stepping::{self, SsspParams};
use julienne_algorithms::kcore::{self, KcoreParams};
use julienne_algorithms::setcover::{cover, verify_cover, SetCoverParams};
use julienne_algorithms::setcover_baselines::{set_cover_greedy_seq, set_cover_pbbs_style};
use julienne_algorithms::{bellman_ford, dial, dijkstra, gap_delta};
use julienne_bench::report::{footprint_table, MemoryFootprint, Table};
use julienne_bench::suite::{setcover_suite, symmetric_suite, weighted_suite, DEFAULT_SCALE};
use julienne_bench::sweep::with_threads;
use julienne_bench::timing::time;
use julienne_graph::compress::{CompressedGraph, CompressedWGraph};
use std::sync::Mutex;

// Collected rows for the CSV artifact written at exit.
static CSV: Mutex<Vec<(String, String, f64, f64)>> = Mutex::new(Vec::new());
// Per-run telemetry JSON objects (Julienne implementations, max threads).
static TRACES: Mutex<Vec<String>> = Mutex::new(Vec::new());
// Per-input backend memory footprints (bytes/edge artifact).
static FOOTPRINTS: Mutex<Vec<MemoryFootprint>> = Mutex::new(Vec::new());

fn footprint(graph: &str, csr_bytes: usize, compressed_bytes: usize, num_edges: usize) {
    FOOTPRINTS.lock().unwrap().push(MemoryFootprint {
        graph: graph.to_string(),
        csr_bytes,
        compressed_bytes,
        num_edges,
    });
}

fn trace(engine: &Engine, algorithm: &str, graph: &str) {
    TRACES
        .lock()
        .unwrap()
        .push(engine.snapshot().to_json(&format!("{algorithm}/{graph}")));
    engine.reset_telemetry();
}

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn row(app: &str, graph: &str, t1: f64, tp: f64) {
    println!(
        "{:<28} {:<14} {:>9.3} {:>9.3} {:>7.2}",
        app,
        graph,
        t1,
        tp,
        t1 / tp
    );
    CSV.lock()
        .unwrap()
        .push((app.to_string(), graph.to_string(), t1, tp));
}

fn header() {
    println!(
        "{:<28} {:<14} {:>9} {:>9} {:>7}",
        "application", "graph", "T(1)", "T(max)", "SU"
    );
}

fn run_kcore(scale: u32) {
    println!("\n## k-core (coreness)");
    header();
    let tmax = max_threads();
    for named in symmetric_suite(scale) {
        let g = &named.graph;
        let (_, j1) = with_threads(1, || {
            time(|| kcore::coreness(g, &KcoreParams::default(), &QueryCtx::default()).unwrap())
        });
        let engine = Engine::builder().telemetry(true).build();
        let (_, jp) = with_threads(tmax, || {
            time(|| {
                kcore::coreness(g, &KcoreParams::default(), &QueryCtx::from_engine(&engine))
                    .unwrap()
            })
        });
        trace(&engine, "kcore", named.name);
        row("k-core (Julienne)", named.name, j1, jp);
        // Same implementation over the byte-compressed backend: identical
        // coreness, different space/decode profile.
        let cg = CompressedGraph::from_csr(g);
        footprint(
            named.name,
            g.footprint_bytes(),
            cg.footprint_bytes(),
            g.num_edges(),
        );
        let (rc, c1) = with_threads(1, || {
            time(|| kcore::coreness(&cg, &KcoreParams::default(), &QueryCtx::default()).unwrap())
        });
        let (rr, cp) = with_threads(tmax, || {
            time(|| kcore::coreness(&cg, &KcoreParams::default(), &QueryCtx::default()).unwrap())
        });
        assert_eq!(rc.coreness, rr.coreness);
        row("k-core (Julienne, byte)", named.name, c1, cp);
        let (_, l1) = with_threads(1, || time(|| kcore::coreness_ligra(g)));
        let (_, lp) = with_threads(tmax, || time(|| kcore::coreness_ligra(g)));
        row("k-core (Ligra, work-ineff)", named.name, l1, lp);
        let (_, bz) = time(|| kcore::coreness_bz_seq(g));
        row("k-core (BZ, sequential)", named.name, bz, bz);
    }
}

fn run_sssp(scale: u32, heavy: bool) {
    let (title, delta) = if heavy {
        ("Δ-stepping (weights [1,1e5), Δ=32768)", 32768u64)
    } else {
        ("wBFS (weights [1,log n), Δ=1)", 1u64)
    };
    println!("\n## {title}");
    header();
    let tmax = max_threads();
    for (name, g) in weighted_suite(scale, heavy) {
        let oracle = dijkstra::dijkstra(&g, 0);
        let (rj, j1) = with_threads(1, || {
            time(|| {
                delta_stepping::sssp(&g, &SsspParams { src: 0, delta }, &QueryCtx::default())
                    .unwrap()
            })
        });
        assert_eq!(rj.dist, oracle);
        let engine = Engine::builder().telemetry(true).build();
        let (_, jp) = with_threads(tmax, || {
            time(|| {
                delta_stepping::sssp(
                    &g,
                    &SsspParams { src: 0, delta },
                    &QueryCtx::from_engine(&engine),
                )
                .unwrap()
            })
        });
        trace(&engine, if heavy { "delta" } else { "wbfs" }, name);
        row("SSSP (Julienne)", name, j1, jp);
        let cg = CompressedWGraph::from_csr(&g);
        footprint(
            &format!("{name}{}", if heavy { " (heavy-w)" } else { " (log-w)" }),
            g.footprint_bytes(),
            cg.footprint_bytes(),
            g.num_edges(),
        );
        let (rc, c1) = with_threads(1, || {
            time(|| {
                delta_stepping::sssp(&cg, &SsspParams { src: 0, delta }, &QueryCtx::default())
                    .unwrap()
            })
        });
        assert_eq!(rc.dist, oracle);
        let (_, cp) = with_threads(tmax, || {
            time(|| {
                delta_stepping::sssp(&cg, &SsspParams { src: 0, delta }, &QueryCtx::default())
                    .unwrap()
            })
        });
        row("SSSP (Julienne, byte)", name, c1, cp);
        let (rb, b1) = with_threads(1, || time(|| bellman_ford::bellman_ford(&g, 0)));
        assert_eq!(rb.dist, oracle);
        let (_, bp) = with_threads(tmax, || time(|| bellman_ford::bellman_ford(&g, 0)));
        row("Bellman-Ford (Ligra)", name, b1, bp);
        let (rg, g1) = with_threads(1, || time(|| gap_delta::gap_delta_stepping(&g, 0, delta)));
        assert_eq!(rg.dist, oracle);
        let (_, gp) = with_threads(tmax, || {
            time(|| gap_delta::gap_delta_stepping(&g, 0, delta))
        });
        row("SSSP (GAP-style bins)", name, g1, gp);
        let (_, d1) = time(|| dijkstra::dijkstra(&g, 0));
        row("Dijkstra (DIMACS, seq)", name, d1, d1);
        if !heavy {
            // Dial's bucket-queue solver (Alg. 360) — the sequential wBFS.
            let (rd, t) = time(|| dial::dial(&g, 0));
            assert_eq!(rd, oracle);
            row("Dial (seq bucket queue)", name, t, t);
        }
    }
}

fn run_setcover(scale: u32) {
    println!("\n## Approximate set cover (ε = 0.01)");
    header();
    let tmax = max_threads();
    for (name, inst) in setcover_suite(scale) {
        let default_engine = Engine::default();
        let (rj, j1) = with_threads(1, || {
            time(|| {
                cover(
                    &inst,
                    &SetCoverParams { eps: 0.01 },
                    &QueryCtx::from_engine(&default_engine),
                )
                .unwrap()
            })
        });
        assert!(verify_cover(&inst, &rj.cover));
        let engine = Engine::builder().telemetry(true).build();
        let (_, jp) = with_threads(tmax, || {
            time(|| {
                cover(
                    &inst,
                    &SetCoverParams { eps: 0.01 },
                    &QueryCtx::from_engine(&engine),
                )
                .unwrap()
            })
        });
        trace(&engine, "setcover", name);
        row("Set Cover (Julienne)", name, j1, jp);
        let (rp, p1) = with_threads(1, || time(|| set_cover_pbbs_style(&inst, 0.01)));
        assert!(verify_cover(&inst, &rp.cover));
        let (_, pp) = with_threads(tmax, || time(|| set_cover_pbbs_style(&inst, 0.01)));
        row("Set Cover (PBBS-style)", name, p1, pp);
        let (rg, g1) = time(|| set_cover_greedy_seq(&inst));
        row("Set Cover (greedy, seq)", name, g1, g1);
        println!(
            "   cover sizes: julienne={} pbbs={} greedy={}",
            rj.cover.len(),
            rp.cover.len(),
            rg.cover.len()
        );
    }
}

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    let which = std::env::args().nth(2).unwrap_or_else(|| "all".into());
    println!(
        "# Table 3 reproduction (scale = {scale}, max threads = {})",
        max_threads()
    );
    let csv_path = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(csv_path);
    match which.as_str() {
        "kcore" => run_kcore(scale),
        "wbfs" => run_sssp(scale, false),
        "delta" => run_sssp(scale, true),
        "setcover" => run_setcover(scale),
        _ => {
            run_kcore(scale);
            run_sssp(scale, false);
            run_sssp(scale, true);
            run_setcover(scale);
        }
    }
    // Machine-readable artifact.
    let mut table = Table::new(
        "table3",
        &["application", "graph", "t1_seconds", "tmax_seconds"],
    );
    for (app, graph, t1, tp) in CSV.lock().unwrap().iter() {
        table.rowf(&[app, graph, t1, tp]);
    }
    let out = csv_path.join("table3.csv");
    if table.write_csv(&out).is_ok() {
        println!("\n(wrote {})", out.display());
    }
    let json_out = csv_path.join("table3.json");
    if table.write_json(&json_out).is_ok() {
        println!("(wrote {})", json_out.display());
    }
    // Per-backend memory footprint of every input (bytes/edge, ratio).
    let footprints = FOOTPRINTS.lock().unwrap();
    if !footprints.is_empty() {
        let mem = footprint_table(&footprints);
        println!("\n{}", mem.render());
        let mem_csv = csv_path.join("memory.csv");
        if mem.write_csv(&mem_csv).is_ok() {
            println!("(wrote {})", mem_csv.display());
        }
        let mem_json = csv_path.join("memory.json");
        if mem.write_json(&mem_json).is_ok() {
            println!("(wrote {})", mem_json.display());
        }
    }
    // Per-round telemetry traces of every Julienne run, one object per run.
    let traces = TRACES.lock().unwrap();
    if !traces.is_empty() {
        let body = format!("[{}]", traces.join(","));
        let tr_out = csv_path.join("table3_traces.json");
        if std::fs::write(&tr_out, body).is_ok() {
            println!("(wrote {})", tr_out.display());
        }
    }
}
