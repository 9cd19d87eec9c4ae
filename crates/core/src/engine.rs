//! The unified framework entry point.
//!
//! [`Engine`] holds what a caller sets once per run — the open-bucket
//! window size, the worker-thread count, and the telemetry sink — behind
//! one builder, and hands out [`EdgeMap`] and [`Buckets`] instances that
//! share the sink.
//!
//! ```
//! use julienne::prelude::*;
//!
//! let engine = Engine::builder()
//!     .open_buckets(64)
//!     .telemetry(true)
//!     .build();
//!
//! let g = julienne_graph::builder::from_pairs(3, &[(0, 1), (1, 2)]);
//! let frontier = VertexSubset::from_vertices(3, vec![0]);
//! let next = engine.edge_map(&g).run(&frontier, |_, _, _| true, |_| true);
//! assert_eq!(next.to_vertices(), vec![1]);
//!
//! let stats = engine.snapshot(); // counters + per-round records
//! assert!(stats.counters.iter().any(|&(name, _)| name == "edges_scanned"));
//! ```
//!
//! Telemetry is off by default and compiled out entirely when the crate's
//! `telemetry` feature is disabled (the sink becomes a ZST whose methods are
//! empty `#[inline(always)]` bodies).

use crate::bucket::{BucketId, Buckets, BucketsBuilder, Identifier, Order, DEFAULT_OPEN_BUCKETS};
use julienne_ligra::traits::OutEdges;
use julienne_ligra::EdgeMap;
use julienne_primitives::error::Error;
use julienne_primitives::telemetry::{Telemetry, TelemetrySnapshot};

/// Which physical graph representation the driver should run on.
///
/// Traversals themselves are generic over the
/// [`julienne_ligra::OutEdges`] / [`julienne_ligra::GraphRef`]
/// hierarchy; this enum is the
/// *selection* knob drivers (CLI, benches) thread from user input down to
/// the load path that picks a concrete backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Plain CSR adjacency arrays (`Csr<W>`).
    #[default]
    Csr,
    /// Ligra+-style byte-compressed adjacency (`Compressed<W>`): a `.jgr`
    /// container's embedded payload adopted verbatim, or any other input
    /// compressed from its CSR after load.
    Compressed,
    /// Zero-copy memory-mapped `.jgr` container (`MappedGraph<W>`): the
    /// graph is served straight from the mapped file, so opening does no
    /// per-edge work. Requires the input to be a `.jgr` container; graphs
    /// from other sources (generators, text files) fall back to CSR.
    Mapped,
}

impl Backend {
    /// Parses the CLI spelling (`csr`, `compressed`, or `mapped`).
    ///
    /// An unknown spelling is an [`Error::Usage`]: the request named a
    /// backend that does not exist, so the CLI exits 2 and the server
    /// answers with wire code `"usage"`.
    pub fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "csr" => Ok(Backend::Csr),
            "compressed" => Ok(Backend::Compressed),
            "mapped" => Ok(Backend::Mapped),
            other => Err(Error::usage(format!(
                "unknown backend '{other}' (expected csr, compressed, or mapped)"
            ))),
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Csr => "csr",
            Backend::Compressed => "compressed",
            Backend::Mapped => "mapped",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration + telemetry hub shared by the traversal engine and the
/// bucket structure. Construct with [`Engine::builder`].
#[derive(Clone)]
pub struct Engine {
    open_buckets: usize,
    telemetry: Telemetry,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts an [`EngineBuilder`] with the paper's defaults: a 128-bucket
    /// open window, the process-wide thread count, and telemetry disabled.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            open_buckets: DEFAULT_OPEN_BUCKETS,
            num_threads: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// An [`EdgeMap`] over `g` recording into this engine's telemetry sink.
    pub fn edge_map<'g, G: OutEdges>(&self, g: &'g G) -> EdgeMap<'g, G> {
        EdgeMap::new(g).telemetry(&self.telemetry)
    }

    /// The parallel bucket structure over `n` identifiers, pre-configured
    /// with this engine's open-bucket window and telemetry sink.
    pub fn buckets<D>(&self, n: usize, d: D, order: Order) -> Buckets<D>
    where
        D: Fn(Identifier) -> BucketId + Sync,
    {
        BucketsBuilder::new(n, d, order)
            .open_buckets(self.open_buckets)
            .telemetry(&self.telemetry)
            .build()
    }

    /// The engine's open-bucket window size.
    pub fn open_buckets(&self) -> usize {
        self.open_buckets
    }

    /// The shared telemetry sink (a no-op sink unless enabled via the
    /// builder and the `telemetry` feature).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshots accumulated counters and per-round records.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// A clone of this engine whose telemetry sink is a **fresh scope** —
    /// enabled iff `enabled`, sharing no counters or round records with
    /// this engine's sink.
    ///
    /// This is how [`Session::query`](crate::query::Session::query) gives
    /// each concurrent query its own round trace instead of interleaving
    /// everything into one engine-global snapshot.
    pub fn with_telemetry_scope(&self, enabled: bool) -> Engine {
        let mut scoped = self.clone();
        scoped.telemetry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        scoped
    }

    /// Clears accumulated counters and per-round records (e.g. between
    /// algorithms sharing one engine).
    pub fn reset_telemetry(&self) {
        self.telemetry.reset();
    }
}

/// Builder for [`Engine`]; see the module docs for an example.
pub struct EngineBuilder {
    open_buckets: usize,
    num_threads: Option<usize>,
    telemetry: Telemetry,
}

impl EngineBuilder {
    /// Sets the open-bucket window size `nB` (the paper's default is 128).
    pub fn open_buckets(mut self, num_open: usize) -> Self {
        self.open_buckets = num_open;
        self
    }

    /// Enables or disables telemetry collection. With the `telemetry`
    /// cargo feature off this is a no-op and the sink stays zero-cost.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        self
    }

    /// Sets the worker-thread count for all parallel primitives.
    ///
    /// This configures the *process-wide* runtime (the same knob as the
    /// `JULIENNE_NUM_THREADS` environment variable), applied when
    /// [`build`](Self::build) runs; it is not scoped to one engine. `0` is
    /// treated as 1. Outputs are bit-identical at every thread count — see
    /// the runtime's determinism contract — so this only affects speed.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n.max(1));
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> Engine {
        if let Some(n) = self.num_threads {
            rayon::set_num_threads(n);
        }
        Engine {
            open_buckets: self.open_buckets,
            telemetry: self.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{Bucketing, NULL_BKT};
    use julienne_ligra::VertexSubset;
    use julienne_primitives::telemetry::Counter;
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

    #[test]
    fn engine_hands_out_configured_components() {
        let engine = Engine::builder().open_buckets(4).build();
        assert_eq!(engine.open_buckets(), 4);

        let g = julienne_graph::builder::from_pairs(3, &[(0, 1), (0, 2)]);
        let frontier = VertexSubset::from_vertices(3, vec![0]);
        let next = engine.edge_map(&g).run(&frontier, |_, _, _| true, |_| true);
        assert_eq!(next.to_vertices(), vec![1, 2]);

        let d: Vec<AtomicU32> = [1u32, 0, NULL_BKT]
            .into_iter()
            .map(AtomicU32::new)
            .collect();
        let mut b = engine.buckets(
            3,
            |i| d[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing,
        );
        assert_eq!(b.next_bucket(), Some((0, vec![1])));
        assert_eq!(b.next_bucket(), Some((1, vec![0])));
        assert_eq!(b.next_bucket(), None);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn engine_telemetry_flows_through_components() {
        let engine = Engine::builder().telemetry(true).build();
        let g = julienne_graph::builder::from_pairs(3, &[(0, 1), (1, 2)]);
        let frontier = VertexSubset::from_vertices(3, vec![0]);
        let _ = engine.edge_map(&g).run(&frontier, |_, _, _| true, |_| true);

        let d: Vec<AtomicU32> = [0u32, 1].into_iter().map(AtomicU32::new).collect();
        let mut b = engine.buckets(
            2,
            |i| d[i as usize].load(AtomicOrdering::SeqCst),
            Order::Increasing,
        );
        while b.next_bucket().is_some() {}

        let t = engine.telemetry();
        assert!(t.get(Counter::EdgesScanned) >= 1);
        assert_eq!(t.get(Counter::BucketsExtracted), 2);
        assert_eq!(t.get(Counter::IdentifiersExtracted), 2);

        engine.reset_telemetry();
        assert_eq!(engine.telemetry().get(Counter::EdgesScanned), 0);
    }

    #[test]
    fn backend_spelling_round_trips() {
        assert_eq!(Backend::default(), Backend::Csr);
        assert_eq!(Backend::parse("csr").unwrap(), Backend::Csr);
        assert_eq!(Backend::parse("compressed").unwrap(), Backend::Compressed);
        assert_eq!(Backend::parse("mapped").unwrap(), Backend::Mapped);
        let err = Backend::parse("mmap").unwrap_err();
        assert!(err.is_usage(), "bad backend spelling is a usage error");
        assert!(err.to_string().contains("mmap"));
        assert_eq!(Backend::Compressed.to_string(), "compressed");
        assert_eq!(Backend::Mapped.to_string(), "mapped");
    }

    #[test]
    fn disabled_telemetry_reads_zero() {
        let engine = Engine::default();
        assert!(!engine.telemetry().is_enabled());
        assert_eq!(engine.telemetry().get(Counter::EdgesScanned), 0);
        assert!(engine.snapshot().rounds.is_empty());
    }
}
