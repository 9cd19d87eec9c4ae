//! Decode microbenchmark: per-edge cost of walking byte-compressed
//! adjacency lists, by degree class, and of validating them at load.
//!
//! Unweighted rows, three variants over the same R-MAT input:
//!
//! * `reference` — the pre-table branch-per-byte varint loop
//!   ([`julienne_graph::decode::reference`]) over the legacy (unchunked)
//!   layout;
//! * `table` — the window decoder (`for_each_delta_sum`) over the same
//!   legacy layout (isolates the decoder win);
//! * `table+chunks` — the same decoder over the default chunked layout
//!   (adds the chunk-header skip the parallel path pays).
//!
//! Weighted rows come twice: `w` with weights in `[1, 64)` (1-byte weight
//! codewords, the layout the uniform-window tier was written for) and
//! `heavy` with weights in `[1, 100_000)` (what `gen weights=heavy` writes:
//! 3-byte weights, where every pair goes through the one-window pair
//! peel). Their `reference` column is the codeword-at-a-time cursor. The
//! `validate` column is the load-time cost of the same bytes: ns per edge
//! of `Compressed::try_from_raw_parts` on the chunked parts.
//!
//! Every cell is a single-shot best-of-`reps` (`time_best`): no spread is
//! reported, so compare passes taken in the same hour. All variants must
//! produce identical neighbor checksums; the run aborts otherwise. Usage:
//! `cargo run -p julienne-bench --release --bin decode [scale] [smoke]`

use julienne_bench::report::Table;
use julienne_bench::suite::DEFAULT_SCALE;
use julienne_bench::timing::{time, time_best};
use julienne_graph::compress::{Compressed, CompressedGraph, CompressedWGraph, DEFAULT_CHUNK_SIZE};
use julienne_graph::csr::Weight;
use julienne_graph::decode::{reference, zigzag_decode, BlockDecoder};
use julienne_graph::generators::{rmat, RmatParams};
use julienne_graph::transform::assign_weights;
use julienne_graph::VertexId;
use std::hint::black_box;

/// Degree classes reported separately: the 1-byte-codeword-dominated tail,
/// the mid range, and the multi-chunk hubs.
const CLASSES: [(&str, usize, usize); 4] = [
    ("all", 1, usize::MAX),
    ("deg [1,16)", 1, 16),
    ("deg [16,256)", 16, 256),
    ("deg [256,inf)", 256, usize::MAX),
];

struct Measurement {
    per_edge_ns: f64,
    checksum: u64,
    edges: u64,
}

/// Times `decode_all` over `reps` repetitions and normalizes to ns/edge.
fn measure(reps: usize, edges: u64, decode_all: impl FnMut() -> u64) -> Measurement {
    let mut decode_all = decode_all;
    let (checksum, secs) = time_best(reps, || black_box(decode_all()));
    Measurement {
        per_edge_ns: secs * 1e9 / edges.max(1) as f64,
        checksum,
        edges,
    }
}

/// Best-of-`reps` ns per edge of the load-time validation walk over `c`'s
/// own arrays (the copies `try_from_raw_parts` adopts are made untimed).
fn validate_ns_per_edge<W: Weight>(reps: usize, c: &Compressed<W>) -> f64 {
    let (o, d, b) = c.raw_parts();
    let (n, m) = (c.num_vertices(), c.num_edges());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let parts = (o.to_vec(), d.to_vec(), b.to_vec());
        let (back, secs) = time(|| {
            let (o, d, b) = black_box(parts);
            Compressed::<W>::try_from_raw_parts(n, m, o, d, b, true, c.chunk_size())
        });
        assert_eq!(back.expect("encoder output must validate").num_edges(), m);
        best = best.min(secs);
    }
    best * 1e9 / m.max(1) as f64
}

/// Prints and records one row; `validate` is blank except on `all` rows
/// (validation walks the whole graph: one number per weight class).
/// Returns the reference-over-table speedup.
fn emit_row(
    table: &mut Table,
    name: &str,
    [old, new, chk]: [&Measurement; 3],
    validate: &str,
) -> f64 {
    let speedup = old.per_edge_ns / new.per_edge_ns;
    let validate = if name.ends_with("all") { validate } else { "" };
    println!(
        "{:<20} {:>12} {:>12.2} {:>12.2} {:>14.2} {:>7.2}x {:>13}",
        name, old.edges, old.per_edge_ns, new.per_edge_ns, chk.per_edge_ns, speedup, validate
    );
    table.rowf(&[
        &name,
        &old.edges,
        &old.per_edge_ns,
        &new.per_edge_ns,
        &chk.per_edge_ns,
        &speedup,
        &validate,
    ]);
    speedup
}

fn class_vertices<W: Weight>(g: &Compressed<W>, lo: usize, hi: usize) -> (Vec<VertexId>, u64) {
    let vs: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| g.degree(v) >= lo && g.degree(v) < hi)
        .collect();
    let edges = vs.iter().map(|&v| g.degree(v) as u64).sum();
    (vs, edges)
}

fn main() {
    let mut scale = DEFAULT_SCALE;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "smoke" {
            smoke = true;
        } else if let Ok(s) = arg.parse() {
            scale = s;
        }
    }
    let reps = if smoke { 2 } else { 9 };
    println!("# Decode microbenchmark (scale = {scale}, reps = {reps})");

    let g = rmat(scale, 16, RmatParams::default(), 0xDEC0, true);
    let legacy = CompressedGraph::from_csr_with_chunk_size(&g, 0);
    let chunked = CompressedGraph::from_csr_with_chunk_size(&g, DEFAULT_CHUNK_SIZE);
    println!(
        "graph: n = {}, m = {}, chunked blocks carry {}-edge chunks",
        legacy.num_vertices(),
        legacy.num_edges(),
        DEFAULT_CHUNK_SIZE
    );

    let mut table = Table::new(
        "decode",
        &[
            "class",
            "edges",
            "reference_ns_per_edge",
            "table_ns_per_edge",
            "table_chunked_ns_per_edge",
            "speedup",
            "validate_ns_per_edge",
        ],
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>14} {:>8} {:>13}",
        "class", "edges", "ref ns/e", "table ns/e", "chunked ns/e", "speedup", "validate ns/e"
    );
    let validate = format!("{:.2}", validate_ns_per_edge(reps, &chunked));
    let mut overall_speedup = 0.0;
    for (name, lo, hi) in CLASSES {
        let (vs, edges) = class_vertices(&legacy, lo, hi);
        if edges == 0 {
            continue;
        }
        let (offsets, degrees, data) = legacy.raw_parts();
        let old = measure(reps, edges, || {
            let mut sum = 0u64;
            for &v in &vs {
                reference::for_each_neighbor_legacy(
                    v,
                    degrees[v as usize] as usize,
                    data,
                    offsets[v as usize] as usize,
                    |u| sum = sum.wrapping_add(u as u64),
                );
            }
            sum
        });
        let new = measure(reps, edges, || {
            let mut sum = 0u64;
            for &v in &vs {
                legacy.for_each_out(v, |u, ()| sum = sum.wrapping_add(u as u64));
            }
            sum
        });
        let chk = measure(reps, edges, || {
            let mut sum = 0u64;
            for &v in &vs {
                chunked.for_each_out(v, |u, ()| sum = sum.wrapping_add(u as u64));
            }
            sum
        });
        assert_eq!(old.checksum, new.checksum, "table decode diverged ({name})");
        assert_eq!(
            old.checksum, chk.checksum,
            "chunked decode diverged ({name})"
        );
        let speedup = emit_row(&mut table, name, [&old, &new, &chk], &validate);
        if name == "all" {
            overall_speedup = speedup;
        }
    }
    println!("\noverall table-decode speedup: {overall_speedup:.2}x");

    // Weighted rows: interleaved (gap, weight) blocks. The baseline is the
    // codeword-at-a-time cursor (`varint` twice per edge, what the
    // early-exit traversals run) against the paired `for_each_delta_weight`
    // kernel (column names keep the unweighted schema: reference = scalar
    // cursor, table = fused pairs, chunked = fused pairs over chunked
    // blocks).
    for (tag, weight_hi) in [("w", 64), ("heavy", 100_000)] {
        let wg = assign_weights(&g, 1, weight_hi, 0xDEC0);
        let wlegacy = CompressedWGraph::from_csr_with_chunk_size(&wg, 0);
        let wchunked = CompressedWGraph::from_csr_with_chunk_size(&wg, DEFAULT_CHUNK_SIZE);
        println!(
            "\n{:<20} {:>12} {:>12} {:>12} {:>14} {:>8} {:>13}",
            format!("class (weights < {weight_hi})"),
            "edges",
            "scalar ns/e",
            "pairs ns/e",
            "chunked ns/e",
            "speedup",
            "validate ns/e"
        );
        let validate = format!("{:.2}", validate_ns_per_edge(reps, &wchunked));
        for (name, lo, hi) in CLASSES {
            let (vs, edges) = class_vertices(&wlegacy, lo, hi);
            if edges == 0 {
                continue;
            }
            let (offsets, degrees, data) = wlegacy.raw_parts();
            let old = measure(reps, edges, || {
                let mut sum = 0u64;
                for &v in &vs {
                    let deg = degrees[v as usize] as usize;
                    let mut dec = BlockDecoder::new_at(data, offsets[v as usize] as usize);
                    let mut cur = (v as i64).wrapping_add(zigzag_decode(dec.varint())) as VertexId;
                    sum = sum.wrapping_add(cur as u64).wrapping_add(dec.varint());
                    for _ in 1..deg {
                        cur = cur.wrapping_add(dec.varint() as VertexId);
                        sum = sum.wrapping_add(cur as u64).wrapping_add(dec.varint());
                    }
                }
                sum
            });
            let new = measure(reps, edges, || {
                let mut sum = 0u64;
                for &v in &vs {
                    wlegacy.for_each_out(v, |u, w| {
                        sum = sum.wrapping_add(u as u64).wrapping_add(w as u64);
                    });
                }
                sum
            });
            let chk = measure(reps, edges, || {
                let mut sum = 0u64;
                for &v in &vs {
                    wchunked.for_each_out(v, |u, w| {
                        sum = sum.wrapping_add(u as u64).wrapping_add(w as u64);
                    });
                }
                sum
            });
            assert_eq!(old.checksum, new.checksum, "pair decode diverged ({name})");
            assert_eq!(
                old.checksum, chk.checksum,
                "chunked pair decode diverged ({name})"
            );
            emit_row(
                &mut table,
                &format!("{tag} {name}"),
                [&old, &new, &chk],
                &validate,
            );
        }
    }

    if smoke {
        // CI smoke: correctness (checksums) is the point; timings on a
        // loaded runner are noise, so don't gate or persist them.
        println!("(smoke run: skipping results/ artifacts)");
        return;
    }
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let txt = dir.join("decode.txt");
    if std::fs::write(&txt, table.render()).is_ok() {
        println!("(wrote {})", txt.display());
    }
    let csv = dir.join("decode.csv");
    if table.write_csv(&csv).is_ok() {
        println!("(wrote {})", csv.display());
    }
}
