//! # Julienne: work-efficient parallel bucketing
//!
//! This crate implements the primary contribution of *"Julienne: A Framework
//! for Parallel Graph Algorithms using Work-efficient Bucketing"* (Dhulipala,
//! Blelloch, Shun — SPAA 2017): a dynamic map from integer **identifiers** to
//! **bucket ids** with efficient inverse access, supporting
//!
//! * [`bucket::Bucketing::next_bucket`] — extract the next non-empty bucket
//!   in increasing or decreasing order,
//! * [`bucket::Bucketing::get_bucket`] — compute an opaque destination for
//!   an identifier moving between buckets (enabling the overflow-range
//!   optimization of Section 3.3 without an internal id→bucket map),
//! * [`bucket::Bucketing::update_buckets`] — move many identifiers at once,
//!   work-efficiently and in low depth.
//!
//! The parallel structure [`bucket::Buckets`] implements the Section 3.3
//! optimizations: only `nB` *open* buckets (default 128) are represented,
//! identifiers logically beyond the open range live in an overflow bucket
//! that is redistributed when the range is exhausted, and `updateBuckets`
//! uses the blocked-histogram scatter (M = 2048) rather than a semisort.
//! The semisort-based variant of Section 3.2 and a sequential reference
//! implementation are also provided, for the ablation benchmarks and as
//! property-test oracles.
//!
//! The `prelude` re-exports the framework surface (Ligra engine + buckets)
//! that the application crate builds on, mirroring how Julienne extends
//! Ligra.

pub mod bucket;
pub mod cache;
pub mod engine;
pub mod query;

/// Counters, spans, and per-round trace records shared by the whole stack
/// (re-exported from `julienne-primitives`; a zero-cost no-op when the
/// `telemetry` feature is off).
pub use julienne_primitives::telemetry;

/// The workspace-wide typed error enum (re-exported from
/// `julienne-primitives`): io / parse-with-line / usage / input plus the
/// query-lifecycle terminations (cancelled, deadline exceeded).
pub use julienne_primitives::error::Error;

pub mod prelude {
    //! Everything an application needs: graph types, the Ligra engine, and
    //! the bucket structure.
    //!
    //! The framework surface is the builder trio: [`Engine`] (bucket
    //! window, thread count and telemetry sink), [`EdgeMap`] (traversal),
    //! and [`BucketsBuilder`] (bucket structure). Traversals are generic over
    //! the [`OutEdges`] / [`GraphRef`] backend hierarchy.
    pub use crate::bucket::{
        BucketDest, BucketId, BucketStats, Bucketing, Buckets, BucketsBuilder, Identifier, Order,
        SeqBuckets, NULL_BKT,
    };
    pub use crate::cache::{CacheKey, CacheStats, ResultCache};
    pub use crate::engine::{Backend, Engine, EngineBuilder};
    pub use crate::query::{CancelToken, QueryCtx, Session};
    pub use crate::telemetry::{Counter, RoundRecord, Telemetry, TelemetrySnapshot, TraversalKind};
    pub use crate::Error;
    pub use julienne_graph::{Csr, Graph, VertexId, WGraph, Weight};
    pub use julienne_ligra::{
        edge_map_sum, vertex_filter, vertex_map, vertex_map_data, EdgeMap, GraphRef, Mode,
        OutEdges, VertexSubset, VertexSubsetData,
    };
}
