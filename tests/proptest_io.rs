//! Property tests for the unified `GraphIo` surface: every format
//! round-trips arbitrary graphs losslessly (up to each format's documented
//! scope), and converting text through the `.jgr` container and back is the
//! byte-level identity. Plain tests pin the text loaders' vertex-count bound.

use julienne_repro::graph::container;
use julienne_repro::graph::csr::Weight;
use julienne_repro::graph::io::{
    Format, GraphIo, IoOptions, VERTEX_ALLOWANCE, VERTICES_PER_FILE_BYTE,
};
use julienne_repro::graph::{Csr, Graph, WGraph};
use julienne_repro::primitives::error::Error;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::{arb_any_graph, arb_weighted_graph};

/// A unique scratch path per call, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(ext: &str) -> Scratch {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        Scratch(std::env::temp_dir().join(format!(
            "julienne-prop-io-{}-{}.{ext}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn assert_same<W: Weight + PartialEq + std::fmt::Debug>(what: &str, a: &Csr<W>, b: &Csr<W>) {
    assert_eq!(a.offsets(), b.offsets(), "{what}: offsets");
    assert_eq!(a.targets(), b.targets(), "{what}: targets");
    assert_eq!(a.weights(), b.weights(), "{what}: weights");
}

/// Writes and re-reads `g` in `fmt`, pinning the vertex count for edge
/// lists (isolated vertices are not representable in the format itself).
fn roundtrip<W: Weight>(g: &Csr<W>, fmt: Format) -> Csr<W> {
    let file = Scratch::new(fmt.name());
    let write_opts = IoOptions {
        format: Some(fmt),
        ..Default::default()
    };
    GraphIo::write(g, &file.0, &write_opts).unwrap();
    let read_opts = IoOptions {
        format: Some(fmt),
        vertices: Some(g.num_vertices()),
        ..Default::default()
    };
    GraphIo::read(&file.0, &read_opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unweighted_formats_roundtrip(g in arb_any_graph()) {
        // Every format that can hold an unweighted graph. DIMACS is
        // weighted-only by definition and covered below.
        for fmt in [Format::Adjacency, Format::EdgeList, Format::Binary, Format::Container] {
            let back: Graph = roundtrip(&g, fmt);
            assert_same(fmt.name(), &g, &back);
        }
        // METIS is undirected-only; arb graphs are symmetric, so it applies.
        let back: Graph = roundtrip(&g, Format::Metis);
        assert_same("metis", &g, &back);
    }

    #[test]
    fn weighted_formats_roundtrip(g in arb_weighted_graph()) {
        for fmt in [
            Format::Adjacency,
            Format::EdgeList,
            Format::Dimacs,
            Format::Binary,
            Format::Container,
        ] {
            let back: Csr<u32> = roundtrip(&g, fmt);
            assert_same(fmt.name(), &g, &back);
        }
    }

    #[test]
    fn text_to_container_to_text_is_identity(g in arb_any_graph()) {
        // text -> .jgr -> text must reproduce the first file byte for byte.
        let first = Scratch::new("el");
        let jgr = Scratch::new("jgr");
        let second = Scratch::new("el");
        let opts = IoOptions::default();
        GraphIo::write(&g, &first.0, &opts).unwrap();
        let read_el = IoOptions { vertices: Some(g.num_vertices()), ..Default::default() };
        let loaded: Graph = GraphIo::read(&first.0, &read_el).unwrap();
        GraphIo::write(&loaded, &jgr.0, &opts).unwrap();
        let from_jgr: Graph = GraphIo::read(&jgr.0, &opts).unwrap();
        prop_assert_eq!(from_jgr.num_vertices(), g.num_vertices());
        GraphIo::write(&from_jgr, &second.0, &opts).unwrap();
        prop_assert_eq!(
            std::fs::read(&first.0).unwrap(),
            std::fs::read(&second.0).unwrap(),
            "text -> .jgr -> text changed the bytes"
        );
    }

    #[test]
    fn container_payload_and_verify_hold_for_random_graphs(g in arb_any_graph()) {
        let jgr = Scratch::new("jgr");
        let opts = IoOptions { compressed_payload: true, ..Default::default() };
        GraphIo::write(&g, &jgr.0, &opts).unwrap();
        container::verify(&jgr.0).unwrap();
        assert_same("mapped", &g, &Csr::<()>::open(&jgr.0).unwrap());
        let cg = julienne_repro::graph::container::read_compressed::<()>(&jgr.0).unwrap().expect("payload");
        prop_assert_eq!(cg.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            let mut want = g.neighbors(v).to_vec();
            want.sort_unstable();
            let mut got = Vec::new();
            cg.for_each_out(v, |u, ()| got.push(u));
            prop_assert_eq!(got, want, "compressed payload vertex {}", v);
        }
    }
}

// The vertex-count bound on text loaders: a DIMACS `p sp` line or an edge
// list's largest id may claim at most `VERTEX_ALLOWANCE +
// VERTICES_PER_FILE_BYTE · file length` vertices, so a short file cannot make
// the CSR build allocate tens of gigabytes. Files are written to a temp dir
// and loaded in-process, on either side of the bound.

/// The most vertices a file of `len` bytes may claim.
fn vertex_bound(len: usize) -> usize {
    (VERTEX_ALLOWANCE + VERTICES_PER_FILE_BYTE * len as u64) as usize
}

fn write_text(ext: &str, text: &str) -> Scratch {
    let file = Scratch::new(ext);
    std::fs::write(&file.0, text).unwrap();
    file
}

#[test]
fn dimacs_vertex_count_beyond_the_file_bound_is_a_parse_error() {
    let huge = write_text("gr", "p sp 4000000000 0\n");
    let err = GraphIo::read::<u32>(&huge.0, &IoOptions::default()).unwrap_err();
    assert!(matches!(err, Error::Parse { line: Some(1), .. }), "{err:?}");

    // At the bound the file loads; one vertex more is refused. Both counts
    // have seven digits, so both files are 15 bytes long.
    let at = vertex_bound("p sp 1048816 0\n".len());
    let ok: WGraph = GraphIo::read(
        &write_text("gr", &format!("p sp {at} 0\n")).0,
        &IoOptions::default(),
    )
    .unwrap();
    assert_eq!(ok.num_vertices(), at);
    let over = write_text("gr", &format!("p sp {} 0\n", at + 1));
    let err = GraphIo::read::<u32>(&over.0, &IoOptions::default()).unwrap_err();
    assert!(matches!(err, Error::Parse { line: Some(1), .. }), "{err:?}");
}

#[test]
fn edge_list_implied_vertex_count_beyond_the_file_bound_is_a_parse_error() {
    let huge = write_text("el", "0 4000000000\n");
    let err = GraphIo::read::<()>(&huge.0, &IoOptions::default()).unwrap_err();
    assert!(matches!(err, Error::Parse { .. }), "{err:?}");

    // The largest id implies `id + 1` vertices: at the bound the file loads,
    // one id more is refused (both lines are 10 bytes).
    let at = vertex_bound("0 1048735\n".len());
    let ok: Graph = GraphIo::read(
        &write_text("el", &format!("0 {}\n", at - 1)).0,
        &IoOptions::default(),
    )
    .unwrap();
    assert_eq!(ok.num_vertices(), at);
    let over = write_text("el", &format!("0 {at}\n"));
    let err = GraphIo::read::<()>(&over.0, &IoOptions::default()).unwrap_err();
    assert!(matches!(err, Error::Parse { .. }), "{err:?}");

    // A vertex count the caller gives is not limited by the file's length.
    let opts = IoOptions {
        vertices: Some(at + 1),
        ..Default::default()
    };
    let g: Graph = GraphIo::read(&over.0, &opts).unwrap();
    assert_eq!(g.num_vertices(), at + 1);
}

#[test]
fn every_fixture_loads_under_the_vertex_bound() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let loaded: Result<Graph, Error> = GraphIo::read(&path, &IoOptions::default());
        match loaded {
            Ok(g) => assert!(g.num_edges() > 0, "{}", path.display()),
            // An edgeless fixture names its vertex count in a comment, not
            // in an edge, so it loads only with an explicit count.
            Err(e) => {
                assert!(
                    e.to_string().contains("no edges"),
                    "{}: {e}",
                    path.display()
                );
                let opts = IoOptions {
                    vertices: Some(1),
                    ..Default::default()
                };
                let g: Graph = GraphIo::read(&path, &opts).unwrap();
                assert_eq!(g.num_edges(), 0, "{}", path.display());
            }
        }
    }
}

/// `g` written as `.bin` with byte `at` replaced by `set`, then read back.
fn read_bin_with<W: Weight>(g: &Csr<W>, at: usize, set: u8) -> Result<Csr<W>, Error> {
    let file = Scratch::new("bin");
    GraphIo::write(g, &file.0, &IoOptions::default()).unwrap();
    let mut bytes = std::fs::read(&file.0).unwrap();
    bytes[at] = set;
    std::fs::write(&file.0, &bytes).unwrap();
    GraphIo::read(&file.0, &IoOptions::default())
}

#[test]
fn a_bin_flagged_symmetric_must_return_every_list() {
    use julienne_repro::graph::generators::erdos_renyi;
    use julienne_repro::graph::transform::assign_weights;
    // `gen kind=er scale=6 edge_factor=2 symmetric=false` with its symmetric
    // byte (28) set: it used to load, and k-core ran on it.
    let directed = erdos_renyi(64, 128, 1, false);
    let err = read_bin_with(&directed, 28, 1).unwrap_err();
    assert!(matches!(err, Error::Parse { .. }), "{err:?}");
    assert!(err.to_string().contains("flagged symmetric"), "{err}");
    assert!(read_bin_with(&directed, 28, 0).is_ok());

    // The symmetric graph loads; with one weight changed it does not.
    let g = assign_weights(&erdos_renyi(64, 128, 1, true), 1, 100, 7);
    assert!(read_bin_with(&g, 28, 1).is_ok());
    let first_weight = 30 + 8 * (g.num_vertices() + 1) + 4 * g.num_edges();
    let err = read_bin_with(&g, first_weight, 200).unwrap_err();
    assert!(err.to_string().contains("does not list it alike"), "{err}");
}
