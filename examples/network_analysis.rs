//! A network-analysis pass over one social graph: connectivity, ranking,
//! coreness and the densest region — the registered queries beyond the
//! paper's four bucketing algorithms, on the same substrate.
//!
//! ```sh
//! cargo run --release --example network_analysis [scale]
//! ```

use julienne_repro::algorithms::components::{connected_components, num_components};
use julienne_repro::algorithms::degeneracy::{degeneracy_order, densest_subgraph};
use julienne_repro::algorithms::kcore::{coreness, KcoreParams};
use julienne_repro::algorithms::pagerank::pagerank;
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::{rmat, RmatParams};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let g = rmat(scale, 10, RmatParams::default(), 0x4E37, true);
    println!("network: n = {}, m = {}", g.num_vertices(), g.num_edges());

    // Connectivity.
    let cc = connected_components(&g);
    println!(
        "components: {} ({} label-propagation rounds)",
        num_components(&cc.label),
        cc.rounds
    );

    // Influence: PageRank vs coreness.
    let pr = pagerank(&g, 0.85, 1e-9, 100);
    let core = coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
    let pr_top = (0..pr.rank.len())
        .max_by(|&a, &b| pr.rank[a].partial_cmp(&pr.rank[b]).unwrap())
        .unwrap();
    println!(
        "top pagerank vertex: v{pr_top} (rank {:.5}, coreness {})",
        pr.rank[pr_top], core.coreness[pr_top]
    );

    // Structure: degeneracy and the densest region it bounds.
    let degen = degeneracy_order(&g);
    let ds = densest_subgraph(&g);
    println!(
        "degeneracy: {} -> densest subgraph: {} vertices, density {:.3} (at least degeneracy / 2)",
        degen.degeneracy,
        ds.vertices.len(),
        ds.density
    );
}
