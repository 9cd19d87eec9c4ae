//! Mapped-backend equivalence: every algorithm produces identical output
//! on an owned CSR and on the zero-copy memory-mapped `.jgr` backend (a
//! `Csr` over the file's sections), at 1 and 4 worker threads.
//!
//! Each family is written to a `.jgr` container once and reopened via
//! `Csr::open` — the same no-per-edge-work path `julienne serve
//! backend=mapped` takes — so these tests pin that serving straight from
//! the file is invisible to results, and that the container round-trip
//! (CSR -> sections -> mmap) loses nothing.

use julienne_repro::algorithms::bellman_ford::bellman_ford;
use julienne_repro::algorithms::bfs::{bfs, bfs_seq};
use julienne_repro::algorithms::clustering::{local_clustering, transitivity};
use julienne_repro::algorithms::components::{connected_components, connected_components_seq};
use julienne_repro::algorithms::degeneracy::{degeneracy_order, densest_subgraph};
use julienne_repro::algorithms::delta_stepping::{sssp, wbfs, SsspParams};
use julienne_repro::algorithms::dial::dial;
use julienne_repro::algorithms::dijkstra::dijkstra;
use julienne_repro::algorithms::gap_delta::gap_delta_stepping;
use julienne_repro::algorithms::kcore::{coreness, coreness_ligra, KcoreParams};
use julienne_repro::algorithms::ktruss::{ktruss, KtrussParams};
use julienne_repro::algorithms::pagerank::pagerank;
use julienne_repro::algorithms::stats::graph_stats;
use julienne_repro::algorithms::triangles::triangle_count;
use julienne_repro::graph::container;
use julienne_repro::graph::csr::Weight;
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::Csr;

mod common;

use common::{at, graphs, small_graphs, weighted};
use julienne_repro::core::query::QueryCtx;

const THREADS: [usize; 2] = [1, 4];

/// A `.jgr` file that removes itself when the test is done with it.
struct TempJgr(std::path::PathBuf);

impl Drop for TempJgr {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Writes `g` to a container and reopens it memory-mapped.
fn mapped<W: Weight>(name: &str, g: &Csr<W>) -> (Csr<W>, TempJgr) {
    let path = std::env::temp_dir().join(format!(
        "julienne-mapped-it-{}-{name}.jgr",
        std::process::id()
    ));
    GraphIo::write(g, &path, &IoOptions::default()).unwrap();
    let m = Csr::open(&path).unwrap();
    (m, TempJgr(path))
}

/// Asserts `csr()` and `via_map()` agree at 1 and 4 threads.
fn eq_mapped<T: PartialEq + std::fmt::Debug + Send>(
    what: &str,
    csr: impl Fn() -> T + Send + Sync,
    via_map: impl Fn() -> T + Send + Sync,
) {
    for t in THREADS {
        let a = at(t, &csr);
        let b = at(t, &via_map);
        assert_eq!(a, b, "{what}: mapped backend diverged at {t} threads");
    }
}

#[test]
fn frontier_algorithms_match_on_mapped_backend() {
    for (name, g) in graphs() {
        let (mg, _file) = mapped(&format!("frontier-{name}"), &g);
        eq_mapped(
            &format!("bfs/{name}"),
            || bfs(&g, 0).level,
            || bfs(&mg, 0).level,
        );
        eq_mapped(
            &format!("bfs_seq/{name}"),
            || bfs_seq(&g, 0),
            || bfs_seq(&mg, 0),
        );
        eq_mapped(
            &format!("components/{name}"),
            || connected_components(&g).label,
            || connected_components(&mg).label,
        );
        eq_mapped(
            &format!("components_seq/{name}"),
            || connected_components_seq(&g),
            || connected_components_seq(&mg),
        );
        eq_mapped(
            &format!("pagerank/{name}"),
            || pagerank(&g, 0.85, 1e-9, 50).rank,
            || pagerank(&mg, 0.85, 1e-9, 50).rank,
        );
    }
}

#[test]
fn peeling_algorithms_match_on_mapped_backend() {
    for (name, g) in graphs() {
        let (mg, _file) = mapped(&format!("peel-{name}"), &g);
        eq_mapped(
            &format!("kcore_julienne/{name}"),
            || {
                let r = coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap();
                (r.coreness, r.rounds)
            },
            || {
                let r = coreness(&mg, &KcoreParams::default(), &QueryCtx::default()).unwrap();
                (r.coreness, r.rounds)
            },
        );
        eq_mapped(
            &format!("kcore_ligra/{name}"),
            || coreness_ligra(&g).coreness,
            || coreness_ligra(&mg).coreness,
        );
        eq_mapped(
            &format!("degeneracy_order/{name}"),
            || degeneracy_order(&g).order,
            || degeneracy_order(&mg).order,
        );
        eq_mapped(
            &format!("densest/{name}"),
            || densest_subgraph(&g).vertices,
            || densest_subgraph(&mg).vertices,
        );
    }
}

#[test]
fn triangle_family_matches_on_mapped_backend() {
    for (name, g) in small_graphs() {
        let (mg, _file) = mapped(&format!("tri-{name}"), &g);
        eq_mapped(
            &format!("triangles/{name}"),
            || triangle_count(&g),
            || triangle_count(&mg),
        );
        eq_mapped(
            &format!("ktruss/{name}"),
            || {
                let r = ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap();
                (r.trussness, r.max_truss)
            },
            || {
                let r = ktruss(&mg, &KtrussParams::default(), &QueryCtx::default()).unwrap();
                (r.trussness, r.max_truss)
            },
        );
        eq_mapped(
            &format!("clustering/{name}"),
            || (local_clustering(&g).unwrap(), transitivity(&g).to_bits()),
            || (local_clustering(&mg).unwrap(), transitivity(&mg).to_bits()),
        );
    }
}

#[test]
fn stats_match_on_mapped_backend() {
    for (name, g) in small_graphs() {
        let (mg, _file) = mapped(&format!("cent-{name}"), &g);
        eq_mapped(
            &format!("graph_stats/{name}"),
            || {
                let s = graph_stats(&g);
                (s.rho, s.k_max, s.max_degree, s.eccentricity_from_zero)
            },
            || {
                let s = graph_stats(&mg);
                (s.rho, s.k_max, s.max_degree, s.eccentricity_from_zero)
            },
        );
    }
}

#[test]
fn sssp_family_matches_on_mapped_backend() {
    for heavy in [false, true] {
        let delta = if heavy { 32_768 } else { 1 };
        for (name, g) in weighted(heavy) {
            let (mg, _file) = mapped(&format!("sssp-{name}-{heavy}"), &g);
            eq_mapped(
                &format!("delta_stepping/{name}/heavy={heavy}"),
                || {
                    let r = sssp(&g, &SsspParams { src: 0, delta }, &QueryCtx::default()).unwrap();
                    (r.dist, r.rounds)
                },
                || {
                    let r = sssp(&mg, &SsspParams { src: 0, delta }, &QueryCtx::default()).unwrap();
                    (r.dist, r.rounds)
                },
            );
            eq_mapped(
                &format!("dijkstra/{name}/heavy={heavy}"),
                || dijkstra(&g, 0),
                || dijkstra(&mg, 0),
            );
            eq_mapped(
                &format!("bellman_ford/{name}/heavy={heavy}"),
                || bellman_ford(&g, 0).dist,
                || bellman_ford(&mg, 0).dist,
            );
            eq_mapped(
                &format!("gap_delta/{name}/heavy={heavy}"),
                || gap_delta_stepping(&g, 0, delta.max(1024)).dist,
                || gap_delta_stepping(&mg, 0, delta.max(1024)).dist,
            );
            eq_mapped(
                &format!("dial/{name}/heavy={heavy}"),
                || dial(&g, 0),
                || dial(&mg, 0),
            );
            if !heavy {
                eq_mapped(
                    &format!("wbfs/{name}"),
                    || wbfs(&g, 0).dist,
                    || wbfs(&mg, 0).dist,
                );
            }
        }
    }
}

/// A container's embedded compressed payload and a freshly-compressed CSR
/// are the same graph: all three backends agree on the same file.
#[test]
fn all_three_backends_agree_from_one_container() {
    use julienne_repro::graph::container::read_compressed;
    let (name, g) = graphs().into_iter().next().unwrap();
    let path = std::env::temp_dir().join(format!(
        "julienne-mapped-it-{}-tri-{name}.jgr",
        std::process::id()
    ));
    let opts = IoOptions {
        compressed_payload: true,
        ..Default::default()
    };
    GraphIo::write(&g, &path, &opts).unwrap();
    let _file = TempJgr(path.clone());
    let mg: Csr<()> = Csr::open(&path).unwrap();
    let cg = read_compressed::<()>(&path).unwrap().expect("payload");
    let csr: julienne_repro::graph::Graph = GraphIo::read(&path, &IoOptions::default()).unwrap();

    let a = bfs(&csr, 0).level;
    assert_eq!(a, bfs(&mg, 0).level, "csr vs mapped");
    assert_eq!(a, bfs(&cg, 0).level, "csr vs compressed payload");
    let k = coreness(&csr, &KcoreParams::default(), &QueryCtx::default())
        .unwrap()
        .coreness;
    assert_eq!(
        k,
        coreness(&mg, &KcoreParams::default(), &QueryCtx::default())
            .unwrap()
            .coreness
    );
    assert_eq!(
        k,
        coreness(&cg, &KcoreParams::default(), &QueryCtx::default())
            .unwrap()
            .coreness
    );
}

/// `bytes` as an earlier build wrote a directed graph with a transpose:
/// header flag bit 2 set and, if `sections`, table entries of kinds 4–6
/// (in-offsets, in-targets, in-weights; here they alias the out-arrays,
/// a well-formed shape). Payloads then move 128 bytes down to make room
/// for the three entries, which keeps them 64-byte aligned.
fn with_retired_transpose(bytes: &[u8], sections: bool) -> Vec<u8> {
    use julienne_repro::graph::container::fnv1a64;
    let table_end = 64 + 32 * u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    let shift = if sections { 128 } else { 0 };
    let mut entries: Vec<Vec<u8>> = bytes[64..table_end]
        .chunks_exact(32)
        .map(|e| {
            let mut e = e.to_vec();
            let moved = u64::from_le_bytes(e[8..16].try_into().unwrap()) + shift;
            e[8..16].copy_from_slice(&moved.to_le_bytes());
            e
        })
        .collect();
    if sections {
        let aliases: Vec<Vec<u8>> = entries
            .iter()
            .filter(|e| (1..=3).contains(&e[0]))
            .map(|e| [&[e[0] + 3], &e[1..]].concat())
            .collect();
        entries.extend(aliases);
    }
    let mut out = bytes[..64].to_vec();
    let flags = u64::from_le_bytes(out[16..24].try_into().unwrap()) | 1 << 2;
    out[16..24].copy_from_slice(&flags.to_le_bytes());
    out[40..44].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    let sum = fnv1a64(&out[0..44]) as u32;
    out[44..48].copy_from_slice(&sum.to_le_bytes());
    out.extend(entries.concat());
    out.resize(table_end + shift as usize, 0);
    out.extend_from_slice(&bytes[table_end..]);
    out
}

/// A `.jgr` written by an earlier build for a directed graph with a
/// transpose still opens: flag bit 2 is accepted, its sections are
/// skipped, and BFS over it equals BFS over the file as written today.
#[test]
fn container_with_the_retired_transpose_still_opens() {
    use julienne_repro::graph::generators::{rmat, RmatParams};
    use julienne_repro::graph::transform::assign_weights;
    let g = rmat(9, 8, RmatParams::default(), 5, false);
    let (plain, plain_file) = mapped("old-plain", &g);
    let (wplain, wplain_file) = mapped("old-wplain", &assign_weights(&g, 1, 50, 3));
    let bytes = std::fs::read(&plain_file.0).unwrap();
    let wbytes = std::fs::read(&wplain_file.0).unwrap();
    for sections in [false, true] {
        let path = |w: &str| {
            std::env::temp_dir().join(format!(
                "julienne-mapped-it-{}-old{w}-{sections}.jgr",
                std::process::id()
            ))
        };
        let (p, wp) = (path(""), path("w"));
        std::fs::write(&p, with_retired_transpose(&bytes, sections)).unwrap();
        std::fs::write(&wp, with_retired_transpose(&wbytes, sections)).unwrap();
        let _files = (TempJgr(p.clone()), TempJgr(wp.clone()));
        let old: Csr<()> = Csr::open(&p).unwrap();
        let wold: Csr<u32> = Csr::open(&wp).unwrap();
        container::verify(&p).unwrap();
        container::verify(&wp).unwrap();
        assert!(!old.is_symmetric());
        assert_eq!(wold.weights(), wplain.weights());
        for src in [0, 7] {
            let (want, got) = (bfs(&plain, src), bfs(&old, src));
            assert_eq!(
                got.level, want.level,
                "levels from {src}, sections={sections}"
            );
            assert_eq!(
                got.parent, want.parent,
                "parents from {src}, sections={sections}"
            );
            assert_eq!(got.level, bfs_seq(&g, src), "oracle from {src}");
            assert_eq!(bfs(&wold, src).parent, want.parent, "weighted from {src}");
        }
    }
}
