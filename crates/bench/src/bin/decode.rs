//! Decode microbenchmark: per-edge cost of walking byte-compressed
//! adjacency lists, old decoder vs the table-driven one, by degree class.
//!
//! Three variants over the same R-MAT input:
//!
//! * `reference` — the pre-table branch-per-byte varint loop
//!   ([`julienne_graph::decode::reference`]) over the legacy (unchunked)
//!   layout;
//! * `table` — the table-driven decoder over the same legacy layout
//!   (isolates the decoder win);
//! * `table+chunks` — the table-driven decoder over the default chunked
//!   layout (adds the chunk-header skip the parallel path pays).
//!
//! All variants must produce identical neighbor checksums; the run aborts
//! otherwise. Usage:
//! `cargo run -p julienne-bench --release --bin decode [scale] [smoke]`

use julienne_bench::report::Table;
use julienne_bench::suite::DEFAULT_SCALE;
use julienne_bench::timing::time_best;
use julienne_graph::compress::{CompressedGraph, CompressedWGraph, DEFAULT_CHUNK_SIZE};
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

fn class_vertices(g: &CompressedGraph, lo: usize, hi: usize) -> (Vec<VertexId>, u64) {
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
        ],
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "class", "edges", "ref ns/e", "table ns/e", "chunked ns/e", "speedup"
    );
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
        let speedup = old.per_edge_ns / new.per_edge_ns;
        if name == "all" {
            overall_speedup = speedup;
        }
        println!(
            "{:<16} {:>12} {:>12.2} {:>12.2} {:>14.2} {:>7.2}x",
            name, old.edges, old.per_edge_ns, new.per_edge_ns, chk.per_edge_ns, speedup
        );
        table.rowf(&[
            &name,
            &old.edges,
            &old.per_edge_ns,
            &new.per_edge_ns,
            &chk.per_edge_ns,
            &speedup,
        ]);
    }
    println!("\noverall table-decode speedup: {overall_speedup:.2}x");

    // Weighted rows: interleaved (gap, weight) blocks. The baseline is the
    // pre-fusion path — the window scan fed through a closure-side
    // gap/weight parity toggle — against the paired `for_each_delta_weight`
    // cursor (column names keep the unweighted schema: reference = toggle,
    // table = fused pairs, chunked = fused pairs over chunked blocks).
    let wg = assign_weights(&g, 1, 64, 0xDEC0);
    let wlegacy = CompressedWGraph::from_csr_with_chunk_size(&wg, 0);
    let wchunked = CompressedWGraph::from_csr_with_chunk_size(&wg, DEFAULT_CHUNK_SIZE);
    println!(
        "\n{:<16} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "class (weighted)", "edges", "toggle ns/e", "pairs ns/e", "chunked ns/e", "speedup"
    );
    for (name, lo, hi) in CLASSES {
        let vs: Vec<VertexId> = (0..wlegacy.num_vertices() as VertexId)
            .filter(|&v| wlegacy.degree(v) >= lo && wlegacy.degree(v) < hi)
            .collect();
        let edges: u64 = vs.iter().map(|&v| wlegacy.degree(v) as u64).sum();
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
                let mut gap_next = true;
                dec.for_each_varint(2 * (deg - 1), |x| {
                    if gap_next {
                        cur = cur.wrapping_add(x as VertexId);
                        sum = sum.wrapping_add(cur as u64);
                    } else {
                        sum = sum.wrapping_add(x);
                    }
                    gap_next = !gap_next;
                });
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
        let speedup = old.per_edge_ns / new.per_edge_ns;
        let wname = format!("w {name}");
        println!(
            "{:<16} {:>12} {:>12.2} {:>12.2} {:>14.2} {:>7.2}x",
            wname, old.edges, old.per_edge_ns, new.per_edge_ns, chk.per_edge_ns, speedup
        );
        table.rowf(&[
            &wname,
            &old.edges,
            &old.per_edge_ns,
            &new.per_edge_ns,
            &chk.per_edge_ns,
            &speedup,
        ]);
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
