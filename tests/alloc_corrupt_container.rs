//! Corruption differential for the `.jgr` container, header and section
//! table included: small graphs, weighted and unweighted, with and without
//! the compressed payload, are cut at every length, have every byte XORed
//! with each of a few masks, and get a byte inserted at every position.
//! For every such file, `GraphIo::read`, the `backend=mapped` open and
//! `container::verify` must not panic; the read must return a graph that
//! validates, or a `Parse` or `Io` error; a file that verifies must read,
//! and one that reads must open mapped. Then an R-MAT 14 container must
//! read without copying its arrays. Its own test binary, because it
//! replaces the global allocator to count bytes.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes_of;
use julienne_repro::algorithms::registry::GraphStore;
use julienne_repro::core::prelude::Backend;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::container::{self, ContainerWriteOptions};
use julienne_repro::graph::csr::Weight;
use julienne_repro::graph::generators::{rmat, RmatParams};
use julienne_repro::graph::io::{Format, GraphIo, IoOptions};
use julienne_repro::graph::transform::assign_weights;
use julienne_repro::graph::Csr;
use julienne_repro::primitives::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The masks every byte is XORed with: the low bits, the high bit, all.
const MASKS: [u8; 4] = [0x01, 0x02, 0x80, 0xFF];

/// What a `.jgr` read of the R-MAT 14 graph may allocate: the section
/// table and the mapping's handle, never the arrays (over a megabyte).
const READ_BYTES: usize = 64 << 10;

/// The path 0 - 1 - 2 plus the isolated vertex 3, symmetric, with weights 3
/// and 12 when `W` carries them.
fn fixture<W: Weight>() -> Csr<W> {
    let mut el = EdgeList::new(4);
    el.push_undirected(0, 1, W::from_u64(3));
    el.push_undirected(1, 2, W::from_u64(12));
    el.build(true)
}

/// How many reads ended in a graph and how many in a refusal.
#[derive(Default)]
struct Tally {
    loaded: usize,
    refused: usize,
}

/// Writes `bytes` to `path` and holds the three ways in to the contract.
fn open_one<W: Weight>(path: &Path, bytes: &[u8], case: &str, tally: &mut Tally) {
    std::fs::write(path, bytes).unwrap();
    let opts = IoOptions {
        format: Some(Format::Container),
        ..Default::default()
    };
    let read = catch_unwind(AssertUnwindSafe(|| GraphIo::read::<W>(path, &opts)))
        .unwrap_or_else(|_| panic!("{case}: the read panicked"));
    let mapped = catch_unwind(|| GraphStore::open(path, false, Backend::Mapped))
        .unwrap_or_else(|_| panic!("{case}: the mapped open panicked"));
    let verified = catch_unwind(|| container::verify(path))
        .unwrap_or_else(|_| panic!("{case}: verify panicked"));
    match read {
        Ok(g) => {
            g.validate()
                .unwrap_or_else(|e| panic!("{case}: read an invalid graph: {e}"));
            assert!(mapped.is_ok(), "{case}: read, but the mapped open refused");
            tally.loaded += 1;
        }
        Err(Error::Parse { .. } | Error::Io { .. }) => {
            assert!(verified.is_err(), "{case}: verified, but the read refused");
            tally.refused += 1;
        }
        Err(e) => panic!("{case}: refused with the wrong kind of error: {e:?}"),
    }
}

/// Every cut, XOR and insertion of the fixture's container.
fn corrupt<W: Weight>(dir: &Path, compressed_payload: bool, tally: &mut Tally) {
    let path = dir.join(format!("{}-{compressed_payload}.jgr", W::IS_UNIT));
    let opts = ContainerWriteOptions { compressed_payload };
    container::write(&fixture::<W>(), &path, &opts).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let name = format!("weighted={} payload={compressed_payload}", !W::IS_UNIT);
    open_one::<W>(&path, &pristine, &format!("{name} as written"), tally);
    for len in 0..pristine.len() {
        let case = format!("{name} cut to {len}");
        open_one::<W>(&path, &pristine[..len], &case, tally);
    }
    for at in 0..pristine.len() {
        for mask in MASKS {
            let mut bytes = pristine.clone();
            bytes[at] ^= mask;
            let case = format!("{name} byte {at} ^ {mask:#x}");
            open_one::<W>(&path, &bytes, &case, tally);
        }
    }
    for at in 0..=pristine.len() {
        let mut bytes = pristine.clone();
        bytes.insert(at, 0);
        let case = format!("{name} 0 put before {at}");
        open_one::<W>(&path, &bytes, &case, tally);
    }
}

/// Reads the R-MAT 14 graph `g` back from a container and returns the
/// bytes the read allocated.
fn read_bytes<W: Weight>(g: &Csr<W>, path: &Path) -> usize {
    container::write(g, path, &ContainerWriteOptions::default()).unwrap();
    let (read, bytes) = bytes_of(|| GraphIo::read::<W>(path, &IoOptions::default()));
    let read = read.unwrap();
    assert_eq!(read.offsets(), g.offsets());
    assert_eq!(read.targets(), g.targets());
    assert_eq!(read.weights(), g.weights());
    bytes
}

#[test]
fn corrupt_containers_read_valid_graphs_or_typed_errors_and_reads_do_not_copy() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("julienne-corrupt-jgr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut tally = Tally::default();
    for compressed_payload in [false, true] {
        corrupt::<()>(&dir, compressed_payload, &mut tally);
        corrupt::<u32>(&dir, compressed_payload, &mut tally);
    }
    // Both outcomes occur, so the reads above exercised the reader.
    assert!(
        tally.loaded > 0 && tally.refused > 0,
        "{} loaded, {} refused",
        tally.loaded,
        tally.refused
    );

    let g = rmat(14, 8, RmatParams::default(), 1, true);
    let path = dir.join("rmat14.jgr");
    let bytes = read_bytes(&g, &path);
    assert!(
        bytes < READ_BYTES,
        "unweighted read allocated {bytes} bytes"
    );
    let bytes = read_bytes(&assign_weights(&g, 1, 100, 2), &path);
    assert!(bytes < READ_BYTES, "weighted read allocated {bytes} bytes");
    std::fs::remove_dir_all(&dir).ok();
}
