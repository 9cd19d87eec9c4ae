//! Dynamic-graph update benchmarks, three sections:
//!
//! 1. **Batch apply** — throughput of [`DynamicGraph::apply_batch`] at
//!    several batch sizes. Every batch pays the full MVCC publication
//!    cost (one merge of the batch into the next snapshot's CSR), so small
//!    batches amortize worse per update: the numbers quantify that trade.
//!    Each timed repetition also clones the graph into a fresh epoch 0.
//! 2. **Snapshot-read overhead** — a degree-weighted full edge scan via
//!    the loaded CSR and a published
//!    [`SnapshotGraph`](julienne_graph::snapshot::SnapshotGraph); the
//!    snapshot scan must sit within ~10% of the loaded-CSR scan (it is a
//!    plain CSR underneath, so in practice it matches).
//! 3. **Incremental vs rebuild k-core** — time to answer coreness after a
//!    small batch via the maintained-state path
//!    ([`DynamicStore::apply_batch`]'s eager h-index repair, then a state
//!    hit) vs applying the batch and re-peeling from scratch. The repair
//!    must win on small batches — that is the point of maintaining state.
//!
//! Usage: `cargo run -p julienne-bench --release --bin updates [scale]`
//!
//! Writes `results/updates.txt` and `results/updates.csv`.

use julienne::prelude::QueryCtx;
use julienne_algorithms::dynamic::DynamicStore;
use julienne_algorithms::kcore::{coreness, KcoreParams};
use julienne_bench::report::Table;
use julienne_bench::timing::{scale_arg, time_best};
use julienne_graph::generators::{rmat, RmatParams};
use julienne_graph::snapshot::{DynamicGraph, EdgeUpdate};
use julienne_graph::Graph;
use rayon::prelude::*;

const APPLY_SIZES: [usize; 3] = [16, 256, 4096];
const KCORE_SIZES: [usize; 3] = [16, 64, 256];
const REPS: usize = 3;

/// Deterministic update stream: mixed inserts/deletes over random pairs.
fn updates(n: usize, count: usize, seed: u64) -> Vec<EdgeUpdate> {
    let mut x = seed;
    let mut lcg = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    (0..count)
        .map(|_| {
            let (u, v) = (lcg() % n as u32, lcg() % n as u32);
            if lcg() % 4 == 0 {
                EdgeUpdate::delete(u, v)
            } else {
                EdgeUpdate::insert(u, v)
            }
        })
        .collect()
}

/// Degree-weighted full scan: sum of neighbor ids over every vertex.
fn scan_csr(g: &Graph) -> u64 {
    (0..g.num_vertices() as u32)
        .into_par_iter()
        .map(|v| g.neighbors(v).iter().map(|&t| u64::from(t)).sum::<u64>())
        .sum()
}

fn main() {
    let scale = scale_arg(15);
    let g = rmat(scale, 8, RmatParams::default(), 5, true);
    let (n, m) = (g.num_vertices(), g.num_edges());
    println!("updates bench: rmat scale={scale} n={n} m={m}\n");

    let mut table = Table::new(
        &format!("dynamic updates (rmat scale={scale}, n={n}, m={m})"),
        &["section", "batch", "ms", "rate", "ratio"],
    );

    // ---- Section 1: batch-apply throughput -------------------------------
    println!(
        "{:<20} {:>7} {:>10} {:>14}",
        "apply", "batch", "ms", "upd/s"
    );
    for &size in &APPLY_SIZES {
        let (_, secs) = time_best(REPS, || {
            let dg = DynamicGraph::from_csr(g.clone());
            dg.apply_batch(&updates(n, size, 0x5EED ^ size as u64))
                .unwrap()
        });
        let ms = secs * 1e3;
        let rate = size as f64 / secs;
        println!("{:<20} {size:>7} {ms:>10.2} {rate:>14.0}", "apply");
        table.rowf(&[
            &"apply",
            &size,
            &format!("{ms:.3}"),
            &format!("{rate:.0}"),
            &"",
        ]);
    }

    // ---- Section 2: snapshot-read overhead -------------------------------
    let dg = DynamicGraph::from_csr(g.clone());
    dg.apply_batch(&updates(n, 64, 0xBEEF)).unwrap();
    let snap = dg.snapshot();
    let (_, csr_secs) = time_best(REPS, || scan_csr(&g));
    let (snap_sum, snap_secs) = time_best(REPS, || scan_csr(snap.csr()));
    // The snapshot holds a *mutated* graph, so its checksum differs from
    // the loaded CSR's; check it against a second scan of itself.
    assert_eq!(snap_sum, scan_csr(snap.csr()));
    let overhead = |secs: f64| (secs / csr_secs - 1.0) * 100.0;
    println!("\n{:<20} {:>10} {:>16}", "scan", "ms", "vs csr");
    for (name, secs) in [("scan-csr", csr_secs), ("scan-snapshot", snap_secs)] {
        let pct = overhead(secs);
        println!("{name:<20} {:>10.3} {pct:>+15.1}%", secs * 1e3);
        table.rowf(&[
            &name,
            &"",
            &format!("{:.3}", secs * 1e3),
            &"",
            &format!("{pct:+.1}%"),
        ]);
    }
    assert!(
        snap_secs <= csr_secs * 1.10,
        "snapshot scans must stay within ~10% of loaded-CSR scans \
         (snapshot {:.3}ms vs csr {:.3}ms)",
        snap_secs * 1e3,
        csr_secs * 1e3
    );

    // ---- Section 3: incremental vs rebuild k-core ------------------------
    println!(
        "\n{:<20} {:>7} {:>12} {:>12} {:>9}",
        "kcore", "batch", "incr ms", "rebuild ms", "speedup"
    );
    for &size in &KCORE_SIZES {
        let batch = updates(n, size, 0xACE ^ size as u64);
        // Incremental: maintained state (seeded before timing) repaired
        // eagerly inside apply_batch, then answered from the state hit.
        let incr = inner_time(REPS, || {
            let store = DynamicStore::from_graph(g.clone());
            store
                .coreness_for(&store.snapshot(), &QueryCtx::default())
                .unwrap();
            let t = std::time::Instant::now();
            store.apply_batch(&batch).unwrap();
            let snap = store.snapshot();
            assert!(store.has_kcore_state_for(snap.epoch()), "repair engaged");
            store.coreness_for(&snap, &QueryCtx::default()).unwrap();
            t.elapsed().as_secs_f64()
        });
        // Rebuild: same batch application, then a from-scratch peel.
        let rebuild = inner_time(REPS, || {
            let dg = DynamicGraph::from_csr(g.clone());
            let t = std::time::Instant::now();
            dg.apply_batch(&batch).unwrap();
            let snap = dg.snapshot();
            coreness(snap.csr(), &KcoreParams::default(), &QueryCtx::default()).unwrap();
            t.elapsed().as_secs_f64()
        });
        let speedup = rebuild / incr;
        println!(
            "{:<20} {size:>7} {:>12.2} {:>12.2} {speedup:>8.2}x",
            "kcore",
            incr * 1e3,
            rebuild * 1e3
        );
        table.rowf(&[
            &"kcore-incremental",
            &size,
            &format!("{:.3}", incr * 1e3),
            &"",
            &format!("{speedup:.2}x"),
        ]);
        table.rowf(&[
            &"kcore-rebuild",
            &size,
            &format!("{:.3}", rebuild * 1e3),
            &"",
            &"1.00x",
        ]);
        if size == KCORE_SIZES[0] {
            assert!(
                speedup > 1.0,
                "incremental k-core must beat a full rebuild on a {size}-update batch \
                 ({:.2}ms vs {:.2}ms)",
                incr * 1e3,
                rebuild * 1e3
            );
        }
    }

    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let txt = dir.join("updates.txt");
    if std::fs::write(&txt, table.render()).is_ok() {
        println!("\n(wrote {})", txt.display());
    }
    let csv = dir.join("updates.csv");
    if table.write_csv(&csv).is_ok() {
        println!("(wrote {})", csv.display());
    }
}

/// Best-of-`reps` of the closure's *inner* measurement (the closure does
/// its own setup and returns the seconds it wants counted).
fn inner_time(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}
