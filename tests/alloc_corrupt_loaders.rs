//! Corruption differential for the text loaders and `.bin`: small symmetric
//! graphs, written by each format's own writer, are truncated at every
//! length, have every byte replaced by each of a few hostile bytes, and get
//! each of those bytes inserted at every position. Every read must return a
//! graph that validates, or a `Parse`, `Usage` or `Io` error: never a panic,
//! never another error, and never more memory than a constant times the
//! vertex bound the text loaders enforce on a file of that length. Its own
//! test binary, because it replaces the global allocator to count bytes.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes_of;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::csr::Weight;
use julienne_repro::graph::io::{
    Format, GraphIo, IoOptions, VERTEX_ALLOWANCE, VERTICES_PER_FILE_BYTE,
};
use julienne_repro::graph::Csr;
use julienne_repro::primitives::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The bytes written in place of, or inserted before, each byte: digits, the
/// separators, a sign, a letter, the comment leaders, and a byte that is not
/// UTF-8.
const HOSTILE: [u8; 9] = [b'0', b'9', b' ', b'\n', b'-', b'x', b'%', b'#', 0xFF];

/// Words a read may allocate per vertex of the loaders' bound.
const WORDS_PER_BOUND_VERTEX: u64 = 4;

/// The path 0 - 1 - 2 plus the isolated vertex 3, symmetric, with weights 3
/// and 12 when `W` carries them: every fixture stays within 120 bytes.
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

/// Reads `bytes` as `fmt` from `path` and holds the read to the contract.
fn read_one<W: Weight>(fmt: Format, path: &Path, bytes: &[u8], case: &str, tally: &mut Tally) {
    std::fs::write(path, bytes).unwrap();
    let opts = IoOptions {
        format: Some(fmt),
        ..Default::default()
    };
    let (outcome, allocated) =
        bytes_of(|| catch_unwind(AssertUnwindSafe(|| GraphIo::read::<W>(path, &opts))));
    let bound = 8
        * WORDS_PER_BOUND_VERTEX
        * (VERTEX_ALLOWANCE + VERTICES_PER_FILE_BYTE * bytes.len() as u64);
    assert!(
        allocated as u64 <= bound,
        "{fmt} {case}: {allocated} bytes allocated, above the {bound}-byte bound"
    );
    match outcome {
        Err(_) => panic!("{fmt} {case}: the read panicked on {bytes:?}"),
        Ok(Ok(g)) => {
            g.validate()
                .unwrap_or_else(|e| panic!("{fmt} {case}: loaded an invalid graph: {e}"));
            tally.loaded += 1;
        }
        Ok(Err(Error::Parse { .. } | Error::Usage(_) | Error::Io { .. })) => tally.refused += 1,
        Ok(Err(e)) => panic!("{fmt} {case}: refused with the wrong kind of error: {e:?}"),
    }
}

/// Every truncation, replacement and insertion of `fmt`'s rendering of the
/// fixture.
fn corrupt<W: Weight>(fmt: Format, dir: &Path, tally: &mut Tally) {
    let path = dir.join(format!("{fmt}-{}", W::IS_UNIT));
    let write_opts = IoOptions {
        format: Some(fmt),
        ..Default::default()
    };
    GraphIo::write(&fixture::<W>(), &path, &write_opts).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.len() <= 120, "{fmt}: {} bytes", pristine.len());
    read_one::<W>(fmt, &path, &pristine, "as written", tally);
    for len in 0..pristine.len() {
        read_one::<W>(
            fmt,
            &path,
            &pristine[..len],
            &format!("cut to {len}"),
            tally,
        );
    }
    for at in 0..=pristine.len() {
        for b in HOSTILE {
            if at < pristine.len() {
                let mut bytes = pristine.clone();
                bytes[at] = b;
                read_one::<W>(
                    fmt,
                    &path,
                    &bytes,
                    &format!("byte {at} set to {b:#x}"),
                    tally,
                );
            }
            let mut bytes = pristine.clone();
            bytes.insert(at, b);
            read_one::<W>(
                fmt,
                &path,
                &bytes,
                &format!("{b:#x} put before {at}"),
                tally,
            );
        }
    }
}

#[test]
fn corrupt_text_and_binary_files_load_valid_graphs_or_typed_errors() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("julienne-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Spawn the worker pool outside the measured reads.
    let _ = fixture::<()>();
    let mut tally = Tally::default();
    for fmt in [
        Format::Adjacency,
        Format::EdgeList,
        Format::Metis,
        Format::Binary,
    ] {
        corrupt::<()>(fmt, &dir, &mut tally);
    }
    for fmt in [
        Format::Adjacency,
        Format::EdgeList,
        Format::Dimacs,
        Format::Metis,
        Format::Binary,
    ] {
        corrupt::<u32>(fmt, &dir, &mut tally);
    }
    std::fs::remove_dir_all(&dir).ok();
    // Both outcomes occur, so the reads above exercised the loaders.
    assert!(
        tally.loaded > 0 && tally.refused > 0,
        "{} loaded, {} refused",
        tally.loaded,
        tally.refused
    );
}
