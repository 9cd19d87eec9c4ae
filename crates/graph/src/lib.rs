//! Graph substrate for the Julienne reproduction.
//!
//! Provides the Ligra/Ligra+-equivalent graph layer the paper builds on:
//!
//! * [`csr`] — compressed-sparse-row graphs, generic over edge weights
//!   (`()` for unweighted, `u32` for the paper's integral weights), whose
//!   arrays are owned or views of a mapped `.jgr` file,
//! * [`builder`] — edge-list ingestion (sort, dedup, self-loop removal),
//! * [`transform`] — symmetrisation, transposition, weight assignment,
//! * [`generators`] — the synthetic workloads standing in for the paper's
//!   real-world inputs (see DESIGN.md §3),
//! * [`io`] — the unified [`io::GraphIo`] loading surface: Ligra adjacency
//!   text, edge lists, DIMACS `.gr`, METIS, a legacy binary format, and the
//!   `.jgr` container, with format auto-detection,
//! * [`container`] — the versioned zero-copy `.jgr` container, which
//!   [`Csr::open`] serves straight from the mapped file,
//! * [`mmap`] — the read-only file mapping, and the [`mmap::Array`] a
//!   [`Csr`] keeps its arrays in,
//! * [`compress`] — Ligra+-style byte-code delta compression of adjacency
//!   lists,
//! * [`decode`] — the table-driven, fail-closed varint decoder under the
//!   compressed backend (first-byte code table + word-at-a-time
//!   continuation scan),
//! * [`packed`] — shrinkable-adjacency graphs supporting `edgeMapFilter`'s
//!   `Pack` option (needed by approximate set cover),
//! * [`snapshot`] — batch edge updates with MVCC snapshot isolation: each
//!   batch merges into the next epoch-stamped immutable CSR
//!   ([`snapshot::SnapshotGraph`]), which a serialized writer
//!   ([`snapshot::DynamicGraph`]) publishes with an atomic `Arc` swap.

pub mod builder;
pub mod compress;
pub mod container;
pub mod csr;
pub mod decode;
pub mod generators;
pub mod io;
pub mod mmap;
pub mod packed;
pub mod snapshot;
pub mod transform;

/// The name `benchmark/layers` imports; see [`container::MappedGraph`].
pub use container::MappedGraph;
pub use csr::{Csr, Graph, WGraph, Weight};

/// Vertex identifier. 32 bits suffice for all laptop-scale inputs and halve
/// the memory traffic of the hot loops relative to `usize`.
pub type VertexId = u32;
