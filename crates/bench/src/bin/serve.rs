//! Serve-mode throughput: one loaded graph behind `julienne serve`'s
//! engine, measured as completed queries per second. Three sections:
//!
//! 1. **Mixed sweep** — a sweep of concurrent client connections each
//!    pipelining the mixed query workload (k-core, Δ-stepping, wBFS, set
//!    cover) against the default (unbatched, uncached) pipeline.
//! 2. **Batched vs solo** — a homogeneous 8-connection wBFS burst served
//!    twice: once solo, once with a batch window so the scheduler fuses
//!    the burst into multi-source traversals. Every wire payload is
//!    checked byte-identical to the direct API, and the run asserts the
//!    batched configuration clears 2× solo throughput.
//! 3. **Cached** — the same burst against a result-cache-armed server
//!    after a warming pass, reporting the observed hit share.
//!
//! Every answer is checked bit-identical to the direct API, so the bench
//! doubles as an end-to-end session test.
//!
//! Usage: `cargo run -p julienne-bench --release --bin serve [scale]`
//!
//! Writes `results/serve.txt` and `results/serve.csv`.

use julienne::prelude::{Backend, Engine, QueryCtx};
use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_bench::report::Table;
use julienne_bench::timing::{scale_arg, time};
use julienne_graph::generators::{rmat, RmatParams};
use julienne_graph::transform::assign_weights;
use julienne_server::json::Json;
use julienne_server::{query_request, Client, SchedPolicy, SchedulerConfig, Server};
use std::collections::HashMap;
use std::thread;
use std::time::Duration;

/// The mixed workload; parameters sized so each query does real bucketing
/// work without dwarfing the protocol round-trips being measured.
const MIX: &[(&str, &[(&str, &str)])] = &[
    ("kcore", &[("top", "3")]),
    (
        "sssp",
        &[("algo", "delta"), ("src", "1"), ("delta", "4096")],
    ),
    ("sssp", &[("algo", "wbfs"), ("src", "2")]),
    (
        "setcover",
        &[
            ("sets", "256"),
            ("elements", "16384"),
            ("mult", "2"),
            ("seed", "3"),
        ],
    ),
];

/// Connection counts swept; each connection pipelines this many queries.
const CONNS: [usize; 4] = [1, 2, 4, 8];
const QUERIES_PER_CONN: usize = 16;

/// The homogeneous burst: 8 connections of wBFS queries over a small set
/// of popular sources — the shape the batch coalescer exists for.
const HOM_CONNS: usize = 8;
const HOM_SRCS: [u32; 4] = [1, 2, 3, 5];

fn store(scale: u32, backend: Backend) -> GraphStore {
    let g = assign_weights(&rmat(scale, 8, RmatParams::default(), 5, true), 1, 64, 9);
    GraphStore::from_weighted(g, backend)
}

fn direct_answers(scale: u32, backend: Backend) -> Vec<String> {
    let s = store(scale, backend);
    MIX.iter()
        .map(|(algo, params)| {
            let pm =
                ParamMap::from_pairs(params.iter().map(|(k, v)| (k.to_string(), v.to_string())));
            Registry::standard()
                .run(algo, &s, &pm, &QueryCtx::default())
                .expect("direct baseline run failed")
        })
        .collect()
}

fn wbfs_answers(scale: u32, backend: Backend) -> HashMap<u32, String> {
    let s = store(scale, backend);
    HOM_SRCS
        .iter()
        .map(|&src| {
            let pm = ParamMap::from_pairs([
                ("algo".to_string(), "wbfs".to_string()),
                ("src".to_string(), src.to_string()),
            ]);
            let out = Registry::standard()
                .run("sssp", &s, &pm, &QueryCtx::default())
                .expect("direct wbfs run failed");
            (src, out)
        })
        .collect()
}

/// Drives `conns` connections × `QUERIES_PER_CONN` pipelined mixed queries
/// and returns wall seconds; panics if any answer deviates from `expect`.
fn drive(addr: &str, conns: usize, expect: &[String]) -> f64 {
    let (_, secs) = time(|| {
        let mut clients = Vec::new();
        for c in 0..conns {
            let addr = addr.to_string();
            let expect = expect.to_vec();
            clients.push(thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for q in 0..QUERIES_PER_CONN {
                    let (algo, params) = MIX[(c + q) % MIX.len()];
                    client
                        .send(&query_request(
                            &format!("q{c}-{q}"),
                            algo,
                            params,
                            None,
                            false,
                        ))
                        .expect("send");
                }
                let mut got: HashMap<String, String> = HashMap::new();
                for _ in 0..QUERIES_PER_CONN {
                    let resp = client.recv().expect("recv");
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "query failed: {}",
                        resp.to_json()
                    );
                    got.insert(
                        resp.get("id").unwrap().as_str().unwrap().to_string(),
                        resp.get("output").unwrap().as_str().unwrap().to_string(),
                    );
                }
                for q in 0..QUERIES_PER_CONN {
                    let idx = (c + q) % MIX.len();
                    assert_eq!(
                        got[&format!("q{c}-{q}")],
                        expect[idx],
                        "served answer diverged from direct API ({})",
                        MIX[idx].0
                    );
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
    });
    secs
}

/// Drives the homogeneous wBFS burst and returns `(seconds, batched,
/// cached)` — the flag counts across all responses. Every `output`
/// payload is asserted byte-identical to the direct API answer for its
/// source, whatever pipeline configuration served it.
fn drive_homogeneous(addr: &str, expect: &HashMap<u32, String>) -> (f64, usize, usize) {
    let (counts, secs) = time(|| {
        let mut clients = Vec::new();
        for c in 0..HOM_CONNS {
            let addr = addr.to_string();
            let expect = expect.clone();
            clients.push(thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for q in 0..QUERIES_PER_CONN {
                    let src = HOM_SRCS[(c + q) % HOM_SRCS.len()];
                    client
                        .send(&query_request(
                            &format!("h{c}-{q}"),
                            "sssp",
                            &[("algo", "wbfs"), ("src", &src.to_string())],
                            None,
                            false,
                        ))
                        .expect("send");
                }
                let (mut batched, mut cached) = (0usize, 0usize);
                for _ in 0..QUERIES_PER_CONN {
                    let resp = client.recv().expect("recv");
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "query failed: {}",
                        resp.to_json()
                    );
                    let id = resp.get("id").unwrap().as_str().unwrap();
                    let q: usize = id.split('-').nth(1).unwrap().parse().unwrap();
                    let src = HOM_SRCS[(c + q) % HOM_SRCS.len()];
                    assert_eq!(
                        resp.get("output").unwrap().as_str().unwrap(),
                        expect[&src],
                        "served wBFS answer diverged from direct API (src={src})"
                    );
                    batched +=
                        usize::from(resp.get("batched").and_then(Json::as_bool) == Some(true));
                    cached += usize::from(resp.get("cached").and_then(Json::as_bool) == Some(true));
                }
                (batched, cached)
            }));
        }
        clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    });
    (secs, counts.0, counts.1)
}

fn start(scale: u32, backend: Backend, config: SchedulerConfig) -> (String, impl FnOnce()) {
    let server = Server::bind_with(
        "127.0.0.1:0",
        &Engine::default(),
        store(scale, backend),
        config,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.serve());
    (addr, move || {
        handle.stop();
        join.join().unwrap().expect("serve");
    })
}

fn batching(cache_bytes: usize) -> SchedulerConfig {
    SchedulerConfig {
        batch_window: Duration::from_millis(25),
        cache_bytes,
        policy: SchedPolicy::Fifo,
    }
}

fn main() {
    let scale = scale_arg(14);
    let mut table = Table::new(
        "serve",
        &[
            "mode",
            "backend",
            "connections",
            "queries",
            "seconds",
            "queries_per_sec",
            "speedup_vs_solo",
            "batched_share",
            "cached_share",
        ],
    );
    println!("# Serve-mode throughput (scale {scale}): one loaded graph, concurrent queries");
    println!(
        "{:<9} {:<12} {:>5} {:>8} {:>8} {:>12} {:>8} {:>9} {:>9}",
        "mode",
        "backend",
        "conns",
        "queries",
        "seconds",
        "queries/sec",
        "speedup",
        "batched",
        "cached"
    );
    for backend in [Backend::Csr, Backend::Compressed] {
        let name = backend.name();

        // Section 1: mixed sweep on the default pipeline.
        let expect = direct_answers(scale, backend);
        let (addr, stop) = start(scale, backend, SchedulerConfig::default());
        drive(&addr, 1, &expect); // warm-up: touch every algorithm once
        for conns in CONNS {
            let secs = drive(&addr, conns, &expect);
            let queries = conns * QUERIES_PER_CONN;
            let qps = queries as f64 / secs;
            println!(
                "{:<9} {name:<12} {conns:>5} {queries:>8} {secs:>8.3} {qps:>12.1} {:>8} {:>9} {:>9}",
                "mixed", "-", "0.00", "0.00"
            );
            table.rowf(&[
                &"mixed",
                &name,
                &conns,
                &queries,
                &format!("{secs:.4}"),
                &format!("{qps:.1}"),
                &"-",
                &"0.00",
                &"0.00",
            ]);
        }

        // Section 2: the homogeneous wBFS burst, solo vs batched.
        let hom = wbfs_answers(scale, backend);
        let queries = HOM_CONNS * QUERIES_PER_CONN;

        drive_homogeneous(&addr, &hom); // warm-up on the solo server
        let (solo_secs, b, c) = drive_homogeneous(&addr, &hom);
        assert_eq!((b, c), (0, 0), "unbatched server must not set flags");
        let solo_qps = queries as f64 / solo_secs;
        println!(
            "{:<9} {name:<12} {HOM_CONNS:>5} {queries:>8} {solo_secs:>8.3} {solo_qps:>12.1} {:>8} {:>9} {:>9}",
            "wbfs-solo", "1.00", "0.00", "0.00"
        );
        table.rowf(&[
            &"wbfs-solo",
            &name,
            &HOM_CONNS,
            &queries,
            &format!("{solo_secs:.4}"),
            &format!("{solo_qps:.1}"),
            &"1.00",
            &"0.00",
            &"0.00",
        ]);
        stop();

        let (addr, stop) = start(scale, backend, batching(0));
        drive_homogeneous(&addr, &hom); // warm-up
        let (bat_secs, batched, _) = drive_homogeneous(&addr, &hom);
        let bat_qps = queries as f64 / bat_secs;
        let speedup = bat_qps / solo_qps;
        let bshare = batched as f64 / queries as f64;
        println!(
            "{:<9} {name:<12} {HOM_CONNS:>5} {queries:>8} {bat_secs:>8.3} {bat_qps:>12.1} {speedup:>8.2} {bshare:>9.2} {:>9}",
            "wbfs-batch", "0.00"
        );
        table.rowf(&[
            &"wbfs-batch",
            &name,
            &HOM_CONNS,
            &queries,
            &format!("{bat_secs:.4}"),
            &format!("{bat_qps:.1}"),
            &format!("{speedup:.2}"),
            &format!("{bshare:.2}"),
            &"0.00",
        ]);
        assert!(
            speedup >= 2.0,
            "batched serving must clear 2x solo throughput on the homogeneous \
             burst (got {speedup:.2}x on {name})"
        );
        stop();

        // Section 3: cache-armed server, warmed then measured.
        let (addr, stop) = start(scale, backend, batching(64 << 20));
        drive_homogeneous(&addr, &hom); // warming pass populates the cache
        let (cache_secs, _, cached) = drive_homogeneous(&addr, &hom);
        let cache_qps = queries as f64 / cache_secs;
        let cshare = cached as f64 / queries as f64;
        println!(
            "{:<9} {name:<12} {HOM_CONNS:>5} {queries:>8} {cache_secs:>8.3} {cache_qps:>12.1} {:>8.2} {:>9} {cshare:>9.2}",
            "wbfs-cache",
            cache_qps / solo_qps,
            "0.00"
        );
        table.rowf(&[
            &"wbfs-cache",
            &name,
            &HOM_CONNS,
            &queries,
            &format!("{cache_secs:.4}"),
            &format!("{cache_qps:.1}"),
            &format!("{:.2}", cache_qps / solo_qps),
            &"0.00",
            &format!("{cshare:.2}"),
        ]);
        stop();
    }

    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let txt = dir.join("serve.txt");
    if std::fs::write(&txt, table.render()).is_ok() {
        println!("\n(wrote {})", txt.display());
    }
    let csv = dir.join("serve.csv");
    if table.write_csv(&csv).is_ok() {
        println!("(wrote {})", csv.display());
    }
}
