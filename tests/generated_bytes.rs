//! Pins the bytes of every generated input. Each `julienne gen` kind
//! (R-MAT, Erdős–Rényi, Chung–Lu, near-regular, grid), directed and
//! symmetric, unweighted and with `log` or `heavy` weights, is built the way
//! `gen` builds it and written as `.bin`, and the FNV-1a hash of the file
//! must equal the one recorded here; so must the hash of the arrays of the
//! set-cover instance `julienne setcover` solves by default. A change to a
//! generator, a transform or the CSR build that moves a single byte of a
//! benchmark or test input fails here.

use julienne_repro::graph::container::fnv1a64;
use julienne_repro::graph::generators::{
    chung_lu, erdos_renyi, grid2d, random_regular, rmat, set_cover_instance, RmatParams,
};
use julienne_repro::graph::io::{GraphIo, IoOptions};
use julienne_repro::graph::transform::{assign_weights, wbfs_weight_range};
use julienne_repro::graph::{Csr, Graph, Weight};

/// `gen`'s scale, edge factor and seed for every pinned file.
const SCALE: u32 = 10;
const EDGE_FACTOR: usize = 8;
const SEED: u64 = 1;

/// `(kind, symmetric, weights, fnv1a64 of the .bin)`, from the sort-based
/// build's `julienne gen kind=<kind> scale=10 edge_factor=8
/// symmetric=<symmetric> weights=<weights>`.
const PINS: [(&str, bool, &str, u64); 30] = [
    ("rmat", true, "none", 0x05206dff310a1eb5),
    ("rmat", true, "log", 0x2489a2509ecb2bf6),
    ("rmat", true, "heavy", 0x850efb04327cbdfa),
    ("rmat", false, "none", 0x68ada8413ac322de),
    ("rmat", false, "log", 0xe3a83c396d7e8249),
    ("rmat", false, "heavy", 0x18bae36f6278004f),
    ("er", true, "none", 0xcb24dec4515ed31a),
    ("er", true, "log", 0xe16a05fbc48b4a89),
    ("er", true, "heavy", 0xe3559f3467c671f9),
    ("er", false, "none", 0xf00d0c530e608645),
    ("er", false, "log", 0xd9e4fbe56dd89591),
    ("er", false, "heavy", 0x17066b62fe999254),
    ("chunglu", true, "none", 0x0329f85cd29d30b3),
    ("chunglu", true, "log", 0xbda9d4468c95c9e8),
    ("chunglu", true, "heavy", 0xbc1962c14ceed4c4),
    ("chunglu", false, "none", 0x5ef114c56d6d8db9),
    ("chunglu", false, "log", 0xc8de489219ea81df),
    ("chunglu", false, "heavy", 0x460d45f3e713e2a6),
    ("regular", true, "none", 0xa6ffa0399e768239),
    ("regular", true, "log", 0x595d28da423d3242),
    ("regular", true, "heavy", 0x74925494e234bd7a),
    ("regular", false, "none", 0x72d6eafb2b31c94e),
    ("regular", false, "log", 0x32bab1e35c625de3),
    ("regular", false, "heavy", 0xad9ed7a3d8c68ace),
    ("grid", true, "none", 0xe992997b03c9d287),
    ("grid", true, "log", 0xbca2083974418ab4),
    ("grid", true, "heavy", 0xd0adc7b4aaadbe8c),
    ("grid", false, "none", 0xe992997b03c9d287),
    ("grid", false, "log", 0xbca2083974418ab4),
    ("grid", false, "heavy", 0xd0adc7b4aaadbe8c),
];

/// The graph `julienne gen kind=<kind> symmetric=<symmetric>` builds.
fn generate(kind: &str, symmetric: bool) -> Graph {
    let n = 1usize << SCALE;
    match kind {
        "rmat" => rmat(SCALE, EDGE_FACTOR, RmatParams::default(), SEED, symmetric),
        "er" => erdos_renyi(n, EDGE_FACTOR * n, SEED, symmetric),
        "chunglu" => chung_lu(n, EDGE_FACTOR * n, 2.2, SEED, symmetric),
        "regular" => random_regular(n, EDGE_FACTOR, SEED, symmetric),
        "grid" => {
            let side = (n as f64).sqrt() as usize;
            grid2d(side, side)
        }
        other => panic!("unknown kind {other}"),
    }
}

/// The hash of `g` written as `.bin`.
fn bin_hash<W: Weight>(g: &Csr<W>, name: &str) -> u64 {
    let path = std::env::temp_dir().join(format!(
        "julienne-generated-bytes-{name}-{}.bin",
        std::process::id()
    ));
    GraphIo::write(g, &path, &IoOptions::default()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    fnv1a64(&bytes)
}

#[test]
fn every_generated_input_keeps_its_bytes() {
    let mut moved = Vec::new();
    for (kind, symmetric, weights, pinned) in PINS {
        let g = generate(kind, symmetric);
        let name = format!("{kind}-{symmetric}-{weights}");
        let got = match weights {
            "none" => bin_hash(&g, &name),
            "log" => {
                let (lo, hi) = wbfs_weight_range(g.num_vertices());
                bin_hash(&assign_weights(&g, lo, hi, SEED ^ 0xF00D), &name)
            }
            "heavy" => bin_hash(&assign_weights(&g, 1, 100_000, SEED ^ 0xF00D), &name),
            other => panic!("unknown weights mode {other}"),
        };
        if got != pinned {
            moved.push(format!(
                "    ({kind:?}, {symmetric}, {weights:?}, {got:#018x}),"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "generated bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn the_default_set_cover_instance_keeps_its_arrays() {
    let inst = set_cover_instance(256, 16384, 4, 1);
    let g = &inst.graph;
    let words =
        |xs: &mut dyn Iterator<Item = u64>| xs.flat_map(u64::to_le_bytes).collect::<Vec<_>>();
    let offsets = fnv1a64(&words(&mut g.offsets().iter().copied()));
    let targets = fnv1a64(&words(&mut g.targets().iter().map(|&t| t as u64)));
    assert_eq!(
        (g.num_vertices(), g.num_edges(), offsets, targets),
        (16640, 81314, 0x63a14fc5c778efbc, 0x4d24394ae9ea80a8),
        "set_cover_instance(256, 16384, 4, 1) moved"
    );
}
