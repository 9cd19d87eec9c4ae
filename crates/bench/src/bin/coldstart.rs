//! Cold-start benchmark for the `.jgr` container: how long from process
//! start to a queryable graph, per on-disk format.
//!
//! The text loaders and the legacy binary format pay O(m) parse/copy work
//! before the first query can run; `Csr::open` validates only the
//! 64-byte header and section table, so its cost is independent of graph
//! size. This harness times all three on the Table 3 stand-in suite and
//! writes `results/coldstart.{txt,csv}`.
//!
//! ```sh
//! cargo run -p julienne-bench --release --bin coldstart [scale]
//! ```

use julienne_bench::report::Table;
use julienne_bench::suite::symmetric_suite;
use julienne_bench::timing::{scale_arg, time_best};
use julienne_graph::io::{Format, GraphIo, IoOptions};
use julienne_graph::Graph;
use std::path::PathBuf;

const REPS: usize = 5;

fn tmp(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "julienne-coldstart-{}-{name}.{ext}",
        std::process::id()
    ))
}

fn main() {
    let scale = scale_arg(14);
    let mut table = Table::new(
        "coldstart",
        &[
            "graph",
            "n",
            "m",
            "adj_load_s",
            "bin_load_s",
            "jgr_open_s",
            "adj_over_jgr",
            "bin_over_jgr",
        ],
    );
    println!("# Cold start (scale {scale}): file -> first queryable edge, best of {REPS}");
    println!(
        "{:<16} {:>9} {:>10} {:>11} {:>11} {:>11} {:>13} {:>13}",
        "graph", "n", "m", "adj_load_s", "bin_load_s", "jgr_open_s", "adj/jgr", "bin/jgr"
    );
    for input in symmetric_suite(scale) {
        let g = input.graph;
        let (n, m) = (g.num_vertices(), g.num_edges());
        let adj = tmp(input.name, "adj");
        let bin = tmp(input.name, "bin");
        let jgr = tmp(input.name, "jgr");
        let opts = IoOptions::default();
        GraphIo::write(&g, &adj, &opts).unwrap();
        GraphIo::write(&g, &bin, &opts).unwrap();
        GraphIo::write(&g, &jgr, &opts).unwrap();

        // Each timed closure ends at the same milestone: vertex 0's first
        // out-edge is reachable, i.e. the graph can answer a query.
        let touch = |g: &Graph| g.neighbors(0).first().copied().unwrap_or(0);
        let (_, adj_s) = time_best(REPS, || {
            let opts = IoOptions {
                format: Some(Format::Adjacency),
                ..Default::default()
            };
            let g: Graph = GraphIo::read(&adj, &opts).unwrap();
            touch(&g)
        });
        let (_, bin_s) = time_best(REPS, || {
            let g: Graph = GraphIo::read(&bin, &opts).unwrap();
            touch(&g)
        });
        let (_, jgr_s) = time_best(REPS, || {
            let mg = Graph::open(&jgr).unwrap();
            mg.neighbors(0).first().copied().unwrap_or(0)
        });

        let adj_over = adj_s / jgr_s.max(1e-9);
        let bin_over = bin_s / jgr_s.max(1e-9);
        println!(
            "{:<16} {:>9} {:>10} {:>11.6} {:>11.6} {:>11.6} {:>12.1}x {:>12.1}x",
            input.name, n, m, adj_s, bin_s, jgr_s, adj_over, bin_over
        );
        table.rowf(&[
            &input.name,
            &n,
            &m,
            &format!("{adj_s:.6}"),
            &format!("{bin_s:.6}"),
            &format!("{jgr_s:.6}"),
            &format!("{adj_over:.1}"),
            &format!("{bin_over:.1}"),
        ]);
        for p in [adj, bin, jgr] {
            std::fs::remove_file(p).ok();
        }
    }

    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let txt = dir.join("coldstart.txt");
    if std::fs::write(&txt, table.render()).is_ok() {
        println!("\n(wrote {})", txt.display());
    }
    let csv = dir.join("coldstart.csv");
    if table.write_csv(&csv).is_ok() {
        println!("(wrote {})", csv.display());
    }
}
