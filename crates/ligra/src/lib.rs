//! Ligra-style frontier engine (Section 2.1).
//!
//! Reimplements the primitives of Shun & Blelloch's Ligra that Julienne
//! extends:
//!
//! * [`subset`] — `vertexSubset` with sparse/dense dual representation and
//!   the value-carrying `vertexSubsetData<T>`,
//! * [`vertex_ops`] — `vertexMap` / `vertexFilter`,
//! * [`traits`] — the graph-trait hierarchy ([`OutEdges`] / [`GraphRef`])
//!   shared by plain CSR, byte-compressed, mapped and packable graphs,
//! * [`edge_map`] — direction-optimized `edgeMap` (sparse push / dense pull
//!   with the |frontier| + outDegrees > m/20 switching rule),
//! * [`edge_map_reduce`] — `edgeMapReduce` / `edgeMapSum` (per-neighbor
//!   aggregation, used by k-core).
//!
//! `edgeMapFilter` with the `Pack` option, which approximate set cover
//! uses, is a visit of the sparse driver that calls
//! `PackedGraph::pack_list` on each list.

pub mod edge_map;
pub mod edge_map_reduce;
pub mod subset;
pub mod traits;
pub mod vertex_ops;

pub use edge_map::{EdgeMap, Mode};
pub use edge_map_reduce::{edge_map_sum, edge_map_sum_with_scratch, SumScratch};
pub use subset::{VertexSubset, VertexSubsetData};
pub use traits::{GraphRef, OutEdges};
pub use vertex_ops::{vertex_filter, vertex_map, vertex_map_data};
