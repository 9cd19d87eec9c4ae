//! Graph-toolkit tour: generation, statistics, every I/O format, and
//! byte-code compression — the substrate layer of the reproduction.
//!
//! ```sh
//! cargo run --release --example graph_toolkit
//! ```

use julienne_repro::algorithms::stats::graph_stats;
use julienne_repro::graph::compress::CompressedGraph;
use julienne_repro::graph::container::MappedGraph;
use julienne_repro::graph::generators::{chung_lu, erdos_renyi, grid2d, rmat, RmatParams};
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::transform::assign_weights;
use julienne_repro::graph::{Csr, Graph};

fn main() {
    println!("# generator gallery");
    let graphs: Vec<(&str, Graph)> = vec![
        ("erdos-renyi", erdos_renyi(1 << 13, 1 << 16, 1, true)),
        (
            "rmat (heavy-tailed)",
            rmat(13, 8, RmatParams::default(), 2, true),
        ),
        (
            "chung-lu (power-law)",
            chung_lu(1 << 13, 1 << 16, 2.3, 3, true),
        ),
        ("grid (road-like)", grid2d(90, 90)),
    ];
    println!(
        "{:<22} {:>8} {:>9} {:>6} {:>7} {:>8} {:>5}",
        "family", "n", "m", "rho", "k_max", "max_deg", "ecc"
    );
    for (name, g) in &graphs {
        let s = graph_stats(g);
        println!(
            "{:<22} {:>8} {:>9} {:>6} {:>7} {:>8} {:>5}",
            name,
            s.num_vertices,
            s.num_edges,
            s.rho.unwrap_or(0),
            s.k_max.unwrap_or(0),
            s.max_degree,
            s.eccentricity_from_zero
        );
    }

    println!("\n# I/O round-trips through GraphIo (format from the extension)");
    let dir = std::env::temp_dir().join(format!("julienne-toolkit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = &graphs[1].1;
    let wg = assign_weights(g, 1, 1000, 9);
    let opts = IoOptions::default();

    let adj = dir.join("graph.adj");
    GraphIo::write(g, &adj, &opts).unwrap();
    let back: Graph = GraphIo::read(&adj, &opts).unwrap();
    assert_eq!(back.targets(), g.targets());
    println!(
        "  AdjacencyGraph: {} bytes",
        std::fs::metadata(&adj).unwrap().len()
    );

    let el = dir.join("graph.el");
    GraphIo::write(&wg, &el, &opts).unwrap();
    let back: Csr<u32> = GraphIo::read(&el, &opts).unwrap();
    assert_eq!(back.num_edges(), wg.num_edges());
    println!(
        "  edge list:      {} bytes",
        std::fs::metadata(&el).unwrap().len()
    );

    let gr = dir.join("graph.gr");
    GraphIo::write(&wg, &gr, &opts).unwrap();
    let back: Csr<u32> = GraphIo::read(&gr, &opts).unwrap();
    assert_eq!(back.weights(), wg.weights());
    println!(
        "  DIMACS .gr:     {} bytes",
        std::fs::metadata(&gr).unwrap().len()
    );

    let bin = dir.join("graph.bin");
    GraphIo::write(g, &bin, &opts).unwrap();
    let back: Graph = GraphIo::read(&bin, &opts).unwrap();
    assert_eq!(back.offsets(), g.offsets());
    println!(
        "  binary:         {} bytes",
        std::fs::metadata(&bin).unwrap().len()
    );

    println!("\n# .jgr container: write once, mmap forever");
    let jgr = dir.join("graph.jgr");
    GraphIo::write(g, &jgr, &opts).unwrap();
    let mapped: MappedGraph<()> = MappedGraph::open(&jgr).unwrap();
    mapped.verify(&jgr).unwrap();
    assert_eq!(mapped.num_edges(), g.num_edges());
    let mut deg0 = Vec::new();
    mapped.for_each_out(0, |u, ()| deg0.push(u));
    assert_eq!(deg0, g.neighbors(0));
    println!(
        "  container:      {} bytes, open() maps {} bytes with no per-edge work",
        std::fs::metadata(&jgr).unwrap().len(),
        mapped.footprint_bytes()
    );
    std::fs::remove_dir_all(&dir).ok();

    println!("\n# Ligra+-style byte-code compression");
    let cg = CompressedGraph::from_csr(g);
    let raw = g.num_edges() * 4;
    println!(
        "  targets: {} raw bytes -> {} compressed ({:.2}x), decode verified on all vertices",
        raw,
        cg.compressed_bytes(),
        raw as f64 / cg.compressed_bytes() as f64
    );
    for v in 0..g.num_vertices() as u32 {
        let mut want = g.neighbors(v).to_vec();
        want.sort_unstable();
        let mut got = Vec::new();
        cg.for_each_out(v, |u, ()| got.push(u));
        assert_eq!(got, want);
    }
    println!("  ok");
}
