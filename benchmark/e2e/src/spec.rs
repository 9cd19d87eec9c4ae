//! What the benchmark runs: the six workloads, their sizes, the metric
//! names, and the seeded op lists (sources, update batches, arrival
//! times). `bench-layers` replays the same lists, so both binaries take
//! them from here.

use crate::rng::{Rng, Zipf};

/// Workload names, in the order the suite runs them. The first
/// [`GUARDED`] are the ones `BENCHMARK.json` lists, which a later change
/// is accepted or rejected on; the rest run with the suite and by name,
/// and are reported the same way, but nothing is held to them.
pub const WORKLOADS: [&str; 6] = [
    "kcore-rmat",
    "sssp-road",
    "sssp-rmat-z",
    "serve-mixed",
    "serve-hot",
    "serve-mutate",
];
pub const GUARDED: usize = 4;

/// The measuring window `BENCHMARK.json` asks for (`run_seconds`), and the
/// default of `--seconds`.
pub const RUN_SECONDS: f64 = 20.0;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. `BENCHMARK.json` carries the direction and bound of each.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p10_ms", "ms"),
    ("cpu_s_per_op", "s"),
    ("rss_mb", "MiB"),
];

/// Which percentile `lat.tail_ms` is on `workload`: the highest with at
/// least ten samples beyond it at the workload's sizing. The `serve-*`
/// workloads are sized for 200 or more ops per run, so p95; a batch
/// workload completes 40 or more CLI ops, so p75. Fixed per workload rather
/// than chosen from the sample count, so that a change which speeds ops up
/// cannot move the metric to another percentile.
pub fn tail_percentile(workload: &str) -> f64 {
    if workload.starts_with("serve-") {
        0.95
    } else {
        0.75
    }
}

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// tracing on. One that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("lat.p50_ms", "ms"),
    ("lat.tail_ms", "ms"),
    ("loadgen.ops_per_s", "1/s"),
    ("cli.spawn_ms", "ms"),
    ("graph.open_ms", "ms"),
    ("graph.footprint_mb", "MiB"),
    ("graph.sweep_edges_per_s", "1/s"),
    ("decode.vs_uncompressed_x", "x"),
    ("algo.vs_uncompressed_x", "x"),
    ("edge_map.sparse_ms", "ms"),
    ("edge_map.dense_ms", "ms"),
    ("edge_map.edges_scanned", "count"),
    ("edge_map.edges_relaxed", "count"),
    ("edge_map.sparse_traversals", "count"),
    ("edge_map.dense_traversals", "count"),
    ("edge_map.ns_per_edge", "ns"),
    ("bucket.next_bucket_ms", "ms"),
    ("bucket.update_buckets_ms", "ms"),
    ("bucket.identifiers_moved", "count"),
    ("bucket.identifiers_extracted", "count"),
    ("bucket.buckets_extracted", "count"),
    ("bucket.overflow_redistributions", "count"),
    ("bucket.ns_per_id", "ns"),
    ("bucket.moves_per_edge", "ratio"),
    ("algo.run_ms", "ms"),
    ("algo.rounds", "count"),
    ("algo.round_p50_us", "us"),
    ("algo.residual_ms", "ms"),
    ("algo.work_per_elem", "ratio"),
    ("algo.baseline_x", "x"),
    ("algo.speedup_2t", "x"),
    ("driver.vs_registry_x", "x"),
    ("registry.emit_ms", "ms"),
    ("wire.floor_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("sched.batched_share", "ratio"),
    ("sched.wait_ms", "ms"),
    ("lat.kcore_p50_ms", "ms"),
    ("lat.wbfs_p50_ms", "ms"),
    ("lat.delta_p50_ms", "ms"),
    ("lat.setcover_p50_ms", "ms"),
    ("server.cpu_util", "ratio"),
    ("cache.hit_share", "ratio"),
    ("mutate.write_p50_ms", "ms"),
    ("mutate.applied_per_s", "1/s"),
    ("mutate.epochs", "count"),
    ("mutate.edges_per_batch", "count"),
    ("read.kcore_p50_ms", "ms"),
    ("read.components_p50_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.lag_p95_ms", "ms"),
    ("mem.rss_mb", "MiB"),
    ("mem.peak_rss_mb", "MiB"),
    ("trace.overhead_pct", "%"),
];

/// Input sizes. `FULL` is what `BENCHMARK.json` runs; `SMOKE` checks in
/// seconds that every workload still works end to end.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `kcore-rmat`: symmetric R-MAT, 2^scale vertices, edge factor 16.
    pub kcore_scale: u32,
    /// `sssp-road`: square grid with 2^scale vertices.
    pub road_scale: u32,
    /// `sssp-rmat-z`: weighted R-MAT served from its compressed payload.
    pub rmat_z_scale: u32,
    /// The three `serve-*` workloads.
    pub serve_scale: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        kcore_scale: 18,
        road_scale: 20,
        rmat_z_scale: 16,
        serve_scale: 16,
        setup_reps: 3,
    };
    pub const SMOKE: Sizes = Sizes {
        kcore_scale: 12,
        road_scale: 12,
        rmat_z_scale: 12,
        serve_scale: 12,
        setup_reps: 1,
    };
}

/// Δ for every `algo=delta` op on the heavy-weight inputs.
pub const DELTA_HEAVY: u64 = 32_768;
/// Δ for served Δ-stepping on the log-weight serve graph (weights in
/// [1, 17)): small enough that annuli exist, unlike the default 32768,
/// which would put the whole graph in one bucket.
pub const DELTA_SERVE: u64 = 4;

/// `serve-hot`, frozen: arrival rate, result-cache budget, batch window,
/// and the shape of the popularity distribution. The rate was calibrated
/// once to about half of the server's capacity on the commit that added
/// the benchmark; the cache holds about a third of the hot set.
pub const HOT_RATE_PER_S: f64 = 60.0;
pub const HOT_CACHE_BYTES: usize = 2_048;
pub const HOT_BATCH_WINDOW_MS: u64 = 5;
pub const HOT_SOURCES: usize = 32;
pub const HOT_ZIPF_S: f64 = 1.1;
pub const HOT_COLD_SOURCES: usize = 8;
pub const HOT_COLD_SHARE: f64 = 0.10;

/// `serve-mutate`: one batch of this many updates every period.
pub const MUTATE_PERIOD_S: f64 = 0.25;
pub const MUTATE_BATCH: usize = 16;
pub const MUTATE_DELETES: usize = 4;

/// R-MAT vertex ids below this are hubs on every seed (expected degree
/// ≥ 25 at scale 16): a source drawn from them always reaches the giant
/// component, so op cost does not depend on whether the draw hit one of
/// the ~30 % isolated vertices.
pub const RMAT_HUBS: u32 = 64;

/// The hub ids `0..count` in seeded order. Every seed uses the same set —
/// only the order (and the graph around them) changes — because a query's
/// cost varies by a third between hubs, and a seeded *subset* would make
/// the median op a property of the draw instead of the program.
pub fn hub_sources(seed: u64, purpose: &str, count: usize) -> Vec<u32> {
    assert!(
        count <= RMAT_HUBS as usize,
        "only the first {RMAT_HUBS} ids are hubs"
    );
    let mut ids: Vec<u32> = (0..count as u32).collect();
    Rng::new(seed).fork(purpose).shuffle(&mut ids);
    ids
}

/// `sssp-road` sources: the 8 vertices in rows 0–1, columns 0–3 of the
/// grid, in seeded order. Δ-stepping's round count on a grid follows the
/// source's weighted eccentricity, which is twice as large from a corner
/// as from the centre; keeping sources at one corner keeps every op the
/// same ~6 k-round traversal.
pub fn road_sources(seed: u64, road_scale: u32) -> Vec<u32> {
    let side = 1u32 << (road_scale / 2);
    let mut ids: Vec<u32> = (0..2u32)
        .flat_map(|r| (0..4u32).map(move |c| r * side + c))
        .collect();
    Rng::new(seed).fork("road-sources").shuffle(&mut ids);
    ids
}

/// What `serve-mixed` cycles through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixedKind {
    Kcore,
    Wbfs,
    Delta,
    Setcover,
}

impl MixedKind {
    pub const CYCLE: [MixedKind; 4] = [
        MixedKind::Kcore,
        MixedKind::Wbfs,
        MixedKind::Delta,
        MixedKind::Setcover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MixedKind::Kcore => "kcore",
            MixedKind::Wbfs => "wbfs",
            MixedKind::Delta => "delta",
            MixedKind::Setcover => "setcover",
        }
    }
}

/// Op `i` of connection `conn` on `serve-mixed`: the kind cycle is offset
/// by two per connection so the two callers are never in lockstep on the
/// same algorithm; sssp kinds walk the seeded source list.
pub fn mixed_op(sources: &[u32], conn: usize, i: usize) -> (MixedKind, u32) {
    let kind = MixedKind::CYCLE[(i + 2 * conn) % 4];
    let src = sources[(i / 4 + conn) % sources.len()];
    (kind, src)
}

/// One scheduled `serve-hot` request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HotOp {
    /// Seconds after the window opens.
    pub due_s: f64,
    pub src: u32,
    pub conn: usize,
}

/// The `serve-hot` open-loop schedule: exactly `rate × seconds` Poisson
/// arrivals (their times are uniform order statistics — a Poisson process
/// conditioned on its count, so every seed sends the same number), each a
/// wBFS from a Zipf-popular hot source or, one time in ten, from one of a
/// few uniformly drawn cold sources. The *number* of requests per source
/// is the Zipf quota, not a draw; the seed decides which hub holds which
/// popularity rank, which cold vertices exist, and the order. Cache hits
/// and batching then depend on the seed through ordering only, not through
/// how many distinct sources a draw happened to produce. Requests
/// alternate connections.
pub fn hot_schedule(seed: u64, n_vertices: u32, seconds: f64) -> Vec<HotOp> {
    let root = Rng::new(seed);
    let hot = hub_sources(seed, "hot-sources", HOT_SOURCES);
    let mut cold_rng = root.fork("cold-sources");
    let cold: Vec<u32> = (0..HOT_COLD_SOURCES)
        .map(|_| cold_rng.below(u64::from(n_vertices)) as u32)
        .collect();
    let count = (HOT_RATE_PER_S * seconds).round() as usize;
    let cold_count = (count as f64 * HOT_COLD_SHARE).round() as usize;
    let mut sources: Vec<u32> = (0..cold_count).map(|i| cold[i % cold.len()]).collect();
    for (rank, quota) in Zipf::new(hot.len(), HOT_ZIPF_S)
        .quotas(count - cold_count)
        .into_iter()
        .enumerate()
    {
        sources.extend(std::iter::repeat_n(hot[rank], quota));
    }
    root.fork("popularity").shuffle(&mut sources);
    let mut times_rng = root.fork("arrivals");
    let mut times: Vec<f64> = (0..count).map(|_| times_rng.unit() * seconds).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("arrival times are finite"));
    times
        .into_iter()
        .zip(sources)
        .enumerate()
        .map(|(i, (due_s, src))| HotOp {
            due_s,
            src,
            conn: i % 2,
        })
        .collect()
}

/// One `mutate` request.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Batch {
    pub inserts: Vec<(u32, u32)>,
    pub deletes: Vec<(u32, u32)>,
}

/// The `serve-mutate` write stream: `count` batches of [`MUTATE_BATCH`]
/// updates. Inserts are fresh random pairs `u < v`; deletes remove pairs an
/// earlier batch inserted. No pair is inserted twice or deleted twice, so
/// applying the batches one by one and applying their concatenation as a
/// single offline `julienne update` give the same graph — which is what
/// lets the final answers be checked against an offline rebuild.
pub fn mutate_batches(seed: u64, n_vertices: u32, count: usize) -> Vec<Batch> {
    let mut rng = Rng::new(seed).fork("mutations");
    let mut seen = std::collections::HashSet::new();
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut batches = Vec::with_capacity(count);
    for _ in 0..count {
        let mut batch = Batch::default();
        for _ in 0..MUTATE_DELETES.min(live.len()) {
            let at = rng.below(live.len() as u64) as usize;
            batch.deletes.push(live.swap_remove(at));
        }
        let mut fresh = Vec::new();
        while batch.inserts.len() + batch.deletes.len() < MUTATE_BATCH {
            let a = rng.below(u64::from(n_vertices)) as u32;
            let b = rng.below(u64::from(n_vertices)) as u32;
            let pair = (a.min(b), a.max(b));
            if a != b && seen.insert(pair) {
                batch.inserts.push(pair);
                fresh.push(pair);
            }
        }
        // Only earlier batches' inserts are deletable: within one request
        // the server applies deletes after inserts, and a same-batch
        // insert+delete would test that rule instead of the write path.
        live.extend(fresh);
        batches.push(batch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the outside world reads; these tables are
    /// what the binaries print. They must name the same metrics, with the
    /// same units, in the same order, and the same workloads.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = crate::json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(crate::json::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(crate::json::Json::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let pairs = |table: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .unzip()
        };
        assert_eq!(
            (listed("end_to_end", "name"), listed("end_to_end", "unit")),
            pairs(&END_TO_END)
        );
        assert_eq!(
            (listed("per_layer", "name"), listed("per_layer", "unit")),
            pairs(&PER_LAYER)
        );
        assert_eq!(listed("workloads", "name"), WORKLOADS[..GUARDED]);
        assert_eq!(
            doc.get("run_seconds").and_then(crate::json::Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn tail_percentiles_have_ten_samples_beyond_them_at_the_sizing() {
        use crate::stats::samples_beyond;
        for workload in WORKLOADS {
            // The fewest ops a full-size run completes: 400 served, 80 CLI.
            let (floor, next_up) = if workload.starts_with("serve-") {
                (400, 0.99)
            } else {
                (80, 0.90)
            };
            let p = tail_percentile(workload);
            assert!(samples_beyond(floor, p) >= 10, "{workload}");
            assert!(
                samples_beyond(floor, next_up) < 10,
                "{workload}: a higher tail fits"
            );
        }
    }

    #[test]
    fn sources_follow_the_seed() {
        assert_eq!(hub_sources(1, "x", 16), hub_sources(1, "x", 16));
        assert_ne!(hub_sources(1, "x", 16), hub_sources(2, "x", 16));
        assert_ne!(hub_sources(1, "x", 16), hub_sources(1, "y", 16));
        let mut same_set = hub_sources(5, "x", 16);
        same_set.sort_unstable();
        assert_eq!(same_set, (0..16).collect::<Vec<u32>>());

        assert_eq!(road_sources(3, 20), road_sources(3, 20));
        assert_ne!(road_sources(3, 20), road_sources(4, 20));
        let mut road = road_sources(3, 20);
        road.sort_unstable();
        assert_eq!(road, vec![0, 1, 2, 3, 1024, 1025, 1026, 1027]);
    }

    #[test]
    fn mixed_ops_cycle_all_kinds_out_of_lockstep() {
        let sources = hub_sources(9, "mixed-sources", 4);
        for i in 0..32 {
            let (k0, _) = mixed_op(&sources, 0, i);
            let (k1, _) = mixed_op(&sources, 1, i);
            assert_ne!(k0, k1);
        }
        let kinds: Vec<MixedKind> = (0..4).map(|i| mixed_op(&sources, 0, i).0).collect();
        assert_eq!(kinds, MixedKind::CYCLE);
        // every source is used
        let mut used: Vec<u32> = (0..64).map(|i| mixed_op(&sources, 0, i).1).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), sources.len());
    }

    #[test]
    fn hot_schedule_is_seeded_sorted_and_sized() {
        let a = hot_schedule(11, 1 << 16, 10.0);
        assert_eq!(a, hot_schedule(11, 1 << 16, 10.0));
        assert_ne!(a, hot_schedule(12, 1 << 16, 10.0));
        assert_eq!(a.len(), (HOT_RATE_PER_S * 10.0) as usize);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|op| (0.0..10.0).contains(&op.due_s)));
        assert!(a.iter().all(|op| op.src < 1 << 16));
        assert_eq!(a.iter().filter(|op| op.conn == 0).count(), a.len() / 2);
        // How many requests each source gets follows the Zipf quotas exactly,
        // whatever the seed: only which hub holds which rank, which cold
        // vertices exist, and the order differ.
        let request_counts = |ops: &[HotOp]| {
            let mut counts = std::collections::HashMap::new();
            for op in ops {
                *counts.entry(op.src).or_insert(0usize) += 1;
            }
            let mut counts: Vec<usize> = counts.into_values().collect();
            counts.sort_unstable();
            counts
        };
        assert_eq!(
            request_counts(&a),
            request_counts(&hot_schedule(12, 1 << 16, 10.0))
        );
        assert_eq!(request_counts(&a).len(), HOT_SOURCES + HOT_COLD_SOURCES);
        let top = *request_counts(&a).last().unwrap();
        assert!(top * HOT_SOURCES > 3 * a.len(), "top source only {top}");
    }

    #[test]
    fn mutate_batches_are_seeded_and_merge_safe() {
        let a = mutate_batches(21, 1 << 16, 40);
        assert_eq!(a, mutate_batches(21, 1 << 16, 40));
        assert_ne!(a, mutate_batches(22, 1 << 16, 40));
        let mut inserted = std::collections::HashSet::new();
        let mut deleted = std::collections::HashSet::new();
        for (i, b) in a.iter().enumerate() {
            assert_eq!(b.inserts.len() + b.deletes.len(), MUTATE_BATCH);
            assert_eq!(b.deletes.len(), if i == 0 { 0 } else { MUTATE_DELETES });
            for d in &b.deletes {
                assert!(
                    inserted.contains(d),
                    "deletes only what an earlier batch inserted"
                );
                assert!(deleted.insert(*d), "no pair is deleted twice");
            }
            for &(u, v) in &b.inserts {
                assert!(u < v && v < 1 << 16);
                assert!(inserted.insert((u, v)), "no pair is inserted twice");
            }
        }
    }
}
