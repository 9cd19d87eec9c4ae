//! Cohesive-subgroup mining with k-truss — bucketing over **edge**
//! identifiers, the generalisation the paper sketches in §3.1 ("identifiers
//! represent other objects such as edges, triangles, or graph motifs").
//!
//! Counts triangles, runs the bucketed edge peel, prints the truss-level
//! distribution, and verifies the parallel result against the sequential
//! oracle.
//!
//! ```sh
//! cargo run --release --example truss_communities [scale]
//! ```

use julienne_repro::algorithms::ktruss::{ktruss, ktruss_seq, KtrussParams};
use julienne_repro::algorithms::triangles::{triangle_count, EdgeIndex};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::generators::{rmat, RmatParams};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let g = rmat(scale, 12, RmatParams::default(), 0x7455, true);
    let idx = EdgeIndex::new(&g).unwrap();
    println!(
        "graph: n = {}, undirected edges = {}, triangles = {}",
        g.num_vertices(),
        idx.num_edges(),
        triangle_count(&g).unwrap()
    );

    let par = ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
    let seq = ktruss_seq(&g);
    assert_eq!(
        par.trussness, seq.trussness,
        "parallel disagrees with oracle"
    );
    println!(
        "max trussness = {} ({} peeling rounds); verified against sequential peel",
        par.max_truss, par.rounds
    );

    // Truss-level histogram (how many edges survive to each level).
    let mut level_counts = std::collections::BTreeMap::<u32, usize>::new();
    for &t in &par.trussness {
        *level_counts.entry(t).or_default() += 1;
    }
    println!("\nedges per trussness level:");
    for (t, c) in level_counts.iter().rev().take(8) {
        println!("  {t:>4}-truss boundary: {c:>7} edges");
    }

    // The innermost truss: a tightly-knit community where every tie is
    // reinforced by at least max_truss − 2 mutual friends.
    let t = par.max_truss;
    let inner: Vec<(u32, u32)> = idx
        .endpoints
        .iter()
        .zip(&par.trussness)
        .filter(|&(_, &x)| x >= t)
        .map(|(&e, _)| e)
        .collect();
    let mut members: Vec<u32> = inner.iter().flat_map(|&(u, v)| [u, v]).collect();
    members.sort_unstable();
    members.dedup();
    println!(
        "\ninnermost ({t}-truss) community: {} edges over {} vertices",
        inner.len(),
        members.len()
    );
}
