//! The workspace algorithm registry: one table mapping algorithm ids to
//! typed entry points, shared by the CLI and the query server.
//!
//! Each [`AlgorithmSpec`] adapts string parameters (from a command line or
//! a wire request) into the module's typed params struct, runs the
//! algorithm against whichever [`GraphStore`] backend is loaded, and
//! renders the same human-readable report the CLI has always printed —
//! byte-for-byte, so a served query and a direct invocation are
//! interchangeable. Every run receives a [`QueryCtx`]; bucketed algorithms
//! poll it at round boundaries, the rest check it before starting.
//!
//! ```
//! use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
//! use julienne::prelude::{Backend, QueryCtx};
//! use std::sync::Arc;
//!
//! let g = julienne_graph::builder::from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let store = GraphStore::Csr(Arc::new(g));
//! let out = Registry::standard()
//!     .run("kcore", &store, &ParamMap::default(), &QueryCtx::default())
//!     .unwrap();
//! assert!(out.starts_with("k_max=2"));
//! ```

use crate::bellman_ford::bellman_ford;
use crate::clustering::{local_clustering, transitivity};
use crate::components::{connected_components, num_components};
use crate::degeneracy::densest_subgraph;
use crate::dijkstra::dijkstra;
use crate::dynamic::DynamicStore;
use crate::kcore::{coreness, KcoreParams};
use crate::ktruss::{ktruss, KtrussParams};
use crate::pagerank::pagerank;
use crate::setcover::{cover, verify_cover, SetCoverParams};
use crate::triangles::triangle_count;
use crate::{delta_stepping, delta_stepping::SsspParams};
use julienne::prelude::{Backend, QueryCtx};
use julienne::Error;
use julienne_graph::compress::{Compressed, CompressedGraph, CompressedWGraph};
use julienne_graph::container;
use julienne_graph::io::{stated_weighted, Format, GraphIo, IoOptions};
use julienne_graph::snapshot::SnapshotGraph;
use julienne_graph::{Graph, WGraph, Weight};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The loaded input a query runs against: a CSR, byte-compressed, or
/// memory-mapped graph, weighted or not, behind an [`Arc`] so many
/// concurrent queries can share one immutable copy. [`GraphStore::Empty`]
/// serves algorithms that build their own input (set cover generates its
/// instance from parameters).
#[derive(Clone)]
pub enum GraphStore {
    /// Unweighted CSR.
    Csr(Arc<Graph>),
    /// Weighted (`u32`) CSR.
    WCsr(Arc<WGraph>),
    /// Unweighted byte-compressed graph.
    Compressed(Arc<CompressedGraph>),
    /// Weighted byte-compressed graph.
    WCompressed(Arc<CompressedWGraph>),
    /// Unweighted graph served zero-copy from a mapped `.jgr` file: a CSR
    /// over the file's sections, apart from [`GraphStore::Csr`] only to
    /// name its backend.
    Mapped(Arc<Graph>),
    /// Weighted graph served zero-copy from a mapped `.jgr` file.
    WMapped(Arc<WGraph>),
    /// A mutable graph behind MVCC snapshot isolation. `pinned` is the
    /// snapshot a query was admitted against ([`GraphStore::pin`]); when
    /// `None`, reads go to the currently published epoch.
    Dynamic {
        /// The writer side: serialized batch application plus maintained
        /// algorithm state.
        store: Arc<DynamicStore>,
        /// The epoch-pinned snapshot this clone reads, if pinned.
        pinned: Option<Arc<SnapshotGraph>>,
    },
    /// No graph loaded.
    Empty,
}

/// Binds `$g` to whatever graph `$store` holds and evaluates `$body`, or
/// `$empty` when it holds none — the algorithms are generic over the graph
/// traits, so one body serves every representation (a dynamic store reads
/// its snapshot's CSR).
macro_rules! any_graph_or {
    ($store:expr, |$g:ident| $body:expr, $empty:expr) => {
        match $store {
            GraphStore::Csr(g) | GraphStore::Mapped(g) => {
                let $g = g.as_ref();
                $body
            }
            GraphStore::WCsr(g) | GraphStore::WMapped(g) => {
                let $g = g.as_ref();
                $body
            }
            GraphStore::Compressed(g) => {
                let $g = g.as_ref();
                $body
            }
            GraphStore::WCompressed(g) => {
                let $g = g.as_ref();
                $body
            }
            GraphStore::Dynamic { store, pinned } => {
                let snap = GraphStore::dynamic_snapshot(store, pinned);
                let $g = snap.csr();
                $body
            }
            GraphStore::Empty => $empty,
        }
    };
}

/// [`any_graph_or!`] for algorithm `$id`, which needs a graph: an empty
/// store is an input error.
macro_rules! any_graph {
    ($store:expr, $id:expr, |$g:ident| $body:expr) => {
        any_graph_or!(
            $store,
            |$g| $body,
            return Err(Error::input(format!("{} requires a graph input", $id)))
        )
    };
}

/// Like [`any_graph!`], restricted to the weighted representations.
macro_rules! weighted_graph {
    ($store:expr, $id:expr, |$g:ident| $body:expr) => {
        match $store {
            GraphStore::WCsr(g) | GraphStore::WMapped(g) => {
                let $g = g.as_ref();
                $body
            }
            GraphStore::WCompressed(g) => {
                let $g = g.as_ref();
                $body
            }
            _ => {
                return Err(Error::input(format!(
                    "{} requires a weighted graph input",
                    $id
                )))
            }
        }
    };
}

impl GraphStore {
    /// Builds a store from an unweighted CSR, compressing if requested.
    ///
    /// [`Backend::Mapped`] falls back to CSR here: an in-memory graph
    /// (generated, or parsed from text) has no backing file to map. File
    /// loads route through [`GraphStore::open`], which does map.
    pub fn from_graph(g: Graph, backend: Backend) -> GraphStore {
        match backend {
            Backend::Csr | Backend::Mapped => GraphStore::Csr(Arc::new(g)),
            Backend::Compressed => GraphStore::Compressed(Arc::new(CompressedGraph::from_csr(&g))),
        }
    }

    /// Builds a store from a weighted CSR, compressing if requested.
    /// [`Backend::Mapped`] falls back to CSR, as in
    /// [`GraphStore::from_graph`].
    pub fn from_weighted(g: WGraph, backend: Backend) -> GraphStore {
        match backend {
            Backend::Csr | Backend::Mapped => GraphStore::WCsr(Arc::new(g)),
            Backend::Compressed => {
                GraphStore::WCompressed(Arc::new(CompressedWGraph::from_csr(&g)))
            }
        }
    }

    /// Wraps a [`DynamicStore`] as an unpinned dynamic store (serve path,
    /// `mutable=true`).
    pub fn dynamic(store: Arc<DynamicStore>) -> GraphStore {
        GraphStore::Dynamic {
            store,
            pinned: None,
        }
    }

    /// Pins this store to the graph version it currently reads: for a
    /// dynamic store, clones it with the published snapshot captured, so
    /// later mutations cannot change what the holder sees; every immutable
    /// backend is its own pin. The scheduler pins each job at admission.
    pub fn pin(&self) -> GraphStore {
        match self {
            GraphStore::Dynamic { store, pinned } => GraphStore::Dynamic {
                store: Arc::clone(store),
                pinned: Some(pinned.as_ref().map_or_else(|| store.snapshot(), Arc::clone)),
            },
            other => other.clone(),
        }
    }

    /// The epoch of the graph version this store reads: the pinned or
    /// published snapshot's for a dynamic store, 0 for an immutable one.
    pub fn epoch(&self) -> u64 {
        match self {
            GraphStore::Dynamic { store, pinned } => {
                pinned.as_ref().map_or_else(|| store.epoch(), |s| s.epoch())
            }
            _ => 0,
        }
    }

    /// The snapshot a dynamic store reads: the pinned one, else the
    /// currently published one.
    fn dynamic_snapshot(
        store: &Arc<DynamicStore>,
        pinned: &Option<Arc<SnapshotGraph>>,
    ) -> Arc<SnapshotGraph> {
        pinned.as_ref().map_or_else(|| store.snapshot(), Arc::clone)
    }

    /// Loads a graph file into the representation `backend` asks for — the
    /// one load path the CLI and server share.
    ///
    /// * [`Backend::Csr`]: any supported format via [`GraphIo`].
    /// * [`Backend::Compressed`]: a `.jgr` container with an embedded
    ///   compressed payload loads the pre-encoded blocks verbatim; anything
    ///   else is read as CSR and byte-compressed in memory.
    /// * [`Backend::Mapped`]: the file **must** be a `.jgr` container —
    ///   mapping is meaningless for formats that need parsing — and is
    ///   served zero-copy with no per-edge work before the first query.
    ///
    /// `weighted = false` asks for topology only: a `.bin` or `.jgr` file
    /// whose header says it carries weights opens as its weighted variant,
    /// and the algorithms that need none ignore them.
    pub fn open(path: &Path, weighted: bool, backend: Backend) -> Result<GraphStore, Error> {
        let fmt = Format::detect(path)?;
        let weighted = weighted || stated_weighted(path, fmt)? == Some(true);
        match backend {
            Backend::Mapped => {
                if fmt != Format::Container {
                    return Err(Error::usage(format!(
                        "backend=mapped requires a .jgr container, but {} is {fmt}; \
                         run `julienne convert` first",
                        path.display()
                    )));
                }
                if weighted {
                    Ok(GraphStore::WMapped(Arc::new(WGraph::open(path)?)))
                } else {
                    Ok(GraphStore::Mapped(Arc::new(Graph::open(path)?)))
                }
            }
            Backend::Compressed => Ok(if weighted {
                GraphStore::WCompressed(Arc::new(open_compressed(path, fmt)?))
            } else {
                GraphStore::Compressed(Arc::new(open_compressed(path, fmt)?))
            }),
            Backend::Csr => {
                let opts = IoOptions {
                    format: Some(fmt),
                    ..Default::default()
                };
                Ok(if weighted {
                    GraphStore::WCsr(Arc::new(GraphIo::read(path, &opts)?))
                } else {
                    GraphStore::Csr(Arc::new(GraphIo::read(path, &opts)?))
                })
            }
        }
    }

    /// Which in-memory representation this store holds; `None` when it
    /// holds no graph.
    pub fn backend(&self) -> Option<Backend> {
        match self {
            GraphStore::Csr(_) | GraphStore::WCsr(_) => Some(Backend::Csr),
            GraphStore::Compressed(_) | GraphStore::WCompressed(_) => Some(Backend::Compressed),
            GraphStore::Mapped(_) | GraphStore::WMapped(_) => Some(Backend::Mapped),
            GraphStore::Dynamic { .. } => Some(Backend::Csr),
            GraphStore::Empty => None,
        }
    }

    /// Whether the store carries edge weights.
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            GraphStore::WCsr(_) | GraphStore::WCompressed(_) | GraphStore::WMapped(_)
        )
    }

    /// `(n, m, symmetric)` of the held graph — one dispatch over the
    /// graph traits, `(0, 0, false)` when empty.
    fn shape(&self) -> (usize, usize, bool) {
        any_graph_or!(
            self,
            |g| (g.num_vertices(), g.num_edges(), g.is_symmetric()),
            (0, 0, false)
        )
    }

    /// Vertex count (0 when empty).
    pub fn num_vertices(&self) -> usize {
        self.shape().0
    }

    /// Directed edge count (0 when empty).
    pub fn num_edges(&self) -> usize {
        self.shape().1
    }

    /// Whether the stored graph is symmetric (false when empty).
    pub fn is_symmetric(&self) -> bool {
        self.shape().2
    }

    fn require_nonempty(&self) -> Result<(), Error> {
        if self.num_vertices() == 0 {
            Err(Error::input(
                "graph is empty (0 vertices); nothing to compute",
            ))
        } else {
            Ok(())
        }
    }

    fn require_symmetric(&self, msg: &str) -> Result<(), Error> {
        if self.is_symmetric() {
            Ok(())
        } else {
            Err(Error::input(msg))
        }
    }
}

/// The compressed load: a `.jgr` container with an embedded payload hands
/// over its pre-encoded blocks verbatim; anything else is read as CSR and
/// byte-compressed in memory.
fn open_compressed<W: Weight>(path: &Path, fmt: Format) -> Result<Compressed<W>, Error> {
    if fmt == Format::Container {
        if let Some(c) = container::read_compressed(path)? {
            return Ok(c);
        }
    }
    let opts = IoOptions {
        format: Some(fmt),
        ..Default::default()
    };
    Ok(Compressed::from_csr(&GraphIo::read(path, &opts)?))
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Some(backend) = self.backend() else {
            return write!(f, "GraphStore(Empty)");
        };
        write!(
            f,
            "GraphStore({backend:?}, weighted={}, n={}, m={})",
            self.is_weighted(),
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// String-keyed parameters with typed getters and unknown-key rejection —
/// the bridge from a command line or wire request to each module's typed
/// params struct. Getters record which keys were read; [`ParamMap::finish`]
/// rejects the rest, so a typo is a usage error rather than a silently
/// ignored option.
#[derive(Debug, Default)]
pub struct ParamMap {
    map: BTreeMap<String, String>,
    used: RefCell<BTreeSet<String>>,
}

impl ParamMap {
    /// Builds a map from `(key, value)` pairs; later duplicates win.
    pub fn from_pairs<I, K, V>(pairs: I) -> ParamMap
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        ParamMap {
            map: pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
            used: RefCell::new(BTreeSet::new()),
        }
    }

    /// Inserts or replaces one parameter.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.map.insert(key.into(), value.into());
    }

    fn raw(&self, key: &str) -> Option<&str> {
        let v = self.map.get(key).map(String::as_str);
        if v.is_some() {
            self.used.borrow_mut().insert(key.to_string());
        }
        v
    }

    /// A required string parameter.
    pub fn require(&self, key: &str) -> Result<String, Error> {
        self.raw(key)
            .map(str::to_string)
            .ok_or_else(|| Error::usage(format!("missing required option {key}=")))
    }

    /// An optional string parameter with default.
    pub fn string_or(&self, key: &str, default: &str) -> String {
        self.raw(key).unwrap_or(default).to_string()
    }

    /// An optional typed parameter: `Ok(None)` when absent, so absence and
    /// an explicit value stay distinguishable (`timeout_ms=0` means "already
    /// expired", no `timeout_ms=` means "no deadline"). A value that fails
    /// to parse is a usage error naming the offending key and value.
    pub fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, Error> {
        self.raw(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| Error::usage(format!("option {key}={v:?} has the wrong type")))
            })
            .transpose()
    }

    /// An optional typed parameter with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Error> {
        Ok(self.optional(key)?.unwrap_or(default))
    }

    /// The pairs no getter has touched yet.
    fn untouched(&self) -> Vec<(&String, &String)> {
        let used = self.used.borrow();
        self.map
            .iter()
            .filter(|(k, _)| !used.contains(*k))
            .collect()
    }

    /// Hands over every parameter no getter touched, marking them used —
    /// how the CLI forwards what its own options left as an algorithm's
    /// parameters, whose unknown keys the registry then rejects.
    pub fn remaining(&self) -> Vec<(String, String)> {
        let rest: Vec<(String, String)> = self
            .untouched()
            .into_iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.used
            .borrow_mut()
            .extend(rest.iter().map(|(k, _)| k.clone()));
        rest
    }

    /// Canonical cache/coalesce rendering of the full map: `key=value`
    /// pairs joined by a single space, keys sorted (the map is a
    /// `BTreeMap`, so iteration order is already canonical). Keys named in
    /// `float_params` have their values parsed as `f64` and re-rendered via
    /// `Display` (the shortest round-trip form), so `damping=0.850` and
    /// `damping=0.85` produce one key. A float that parses to NaN is
    /// rejected with a typed input error — NaN never equals itself, so it
    /// can neither key a cache nor coalesce a batch. Unparsable float
    /// values pass through verbatim: they fail later, at parameter
    /// validation, with the usual usage error.
    ///
    /// Does not mark any key as used: canonicalization is an admission
    /// concern, not parameter consumption.
    pub fn canonical_key(&self, float_params: &[&str]) -> Result<String, Error> {
        let mut out = String::new();
        for (k, v) in &self.map {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            match v.parse::<f64>() {
                Ok(f) if float_params.contains(&k.as_str()) => {
                    if f.is_nan() {
                        return Err(Error::input(format!(
                            "option {k}=NaN is not a number; NaN parameters are rejected at \
                             admission"
                        )));
                    }
                    let _ = write!(out, "{f}");
                }
                _ => out.push_str(v),
            }
        }
        Ok(out)
    }

    /// Rejects any parameters no getter touched; `id` names the algorithm
    /// they were meant for (`None` for a CLI command's own options).
    pub fn finish(&self, id: Option<&str>) -> Result<(), Error> {
        let unknown: Vec<&str> = self
            .untouched()
            .into_iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        let scope = id.map(|id| format!(" for {id}")).unwrap_or_default();
        Err(Error::usage(format!(
            "unknown options{scope}: {}",
            unknown.join(", ")
        )))
    }
}

/// What input representation an algorithm consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphNeeds {
    /// Any loaded graph (weights, if present, are ignored).
    Unweighted,
    /// A weighted graph.
    Weighted,
    /// No graph — the algorithm generates its own input from parameters.
    None,
}

/// Relative cost class of an algorithm, declared per registry entry and
/// consumed by the serve scheduler's priority policy: cheaper classes are
/// admitted first so a burst of expensive queries cannot starve cheap ones.
/// The ordering is the admission order (`Cheap < Moderate < Expensive`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostClass {
    /// Near-linear single passes (components, PageRank iterations).
    Cheap,
    /// Bucketed traversals over the whole graph (k-core, SSSP).
    Moderate,
    /// Super-linear work (triangle counting, trussness, clustering).
    Expensive,
}

impl CostClass {
    /// Lower-case wire/CLI rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            CostClass::Cheap => "cheap",
            CostClass::Moderate => "moderate",
            CostClass::Expensive => "expensive",
        }
    }
}

/// How the serve-path coalescer may fuse compatible queued queries of one
/// algorithm (same canonical parameters modulo the batch axis, same graph
/// epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// Never fused; every query runs solo.
    None,
    /// The result depends only on (params, epoch): one run fans out to all
    /// waiters with identical pending queries.
    WholeGraph,
    /// `sssp` with `algo=delta|wbfs`: queries differing only in `src`
    /// fuse into one multi-source traversal with per-source frontier
    /// lanes ([`crate::delta_stepping::sssp_multi`]). The `bellman` and
    /// `dijkstra` variants are not lane-fusable and coalesce as
    /// [`BatchKind::WholeGraph`] does (identical params only).
    MultiSourceSssp,
}

type RunFn = fn(&GraphStore, &ParamMap, &QueryCtx) -> Result<String, Error>;

/// One registered algorithm: id, input contract, scheduling metadata, and
/// the adapter that runs it from string parameters.
pub struct AlgorithmSpec {
    /// Registry id (the CLI subcommand and the wire `algo` field).
    pub id: &'static str,
    /// Input contract.
    pub needs: GraphNeeds,
    /// One-line description.
    pub summary: &'static str,
    /// Admission cost class for the serve scheduler's priority policy.
    pub cost: CostClass,
    /// How the serve coalescer may fuse compatible queued queries.
    pub batch: BatchKind,
    /// Parameters holding floats, canonicalized (and NaN-checked) by
    /// [`ParamMap::canonical_key`] before they key a cache entry or a
    /// coalesce group.
    pub float_params: &'static [&'static str],
    run: RunFn,
}

impl AlgorithmSpec {
    /// Runs the algorithm. Parameters are validated first (usage errors),
    /// then input-shape checks (input errors), then the algorithm itself,
    /// which polls `ctx` at round boundaries.
    pub fn run(
        &self,
        store: &GraphStore,
        params: &ParamMap,
        ctx: &QueryCtx,
    ) -> Result<String, Error> {
        (self.run)(store, params, ctx)
    }

    /// Canonical rendering of `params` for cache keys and coalesce groups,
    /// with this spec's float parameters normalized and NaN rejected (a
    /// typed input error).
    pub fn canonical_params(&self, params: &ParamMap) -> Result<String, Error> {
        params.canonical_key(self.float_params)
    }
}

/// The algorithm table. [`Registry::standard`] is the process-wide
/// instance both the CLI and the server dispatch through.
pub struct Registry {
    by_id: BTreeMap<&'static str, AlgorithmSpec>,
}

impl Registry {
    /// The standard table of the nine query algorithms.
    pub fn standard() -> &'static Registry {
        static STANDARD: OnceLock<Registry> = OnceLock::new();
        STANDARD.get_or_init(|| {
            let specs = [
                AlgorithmSpec {
                    id: "kcore",
                    needs: GraphNeeds::Unweighted,
                    summary: "coreness of every vertex via work-efficient peeling",
                    cost: CostClass::Moderate,
                    batch: BatchKind::WholeGraph,
                    float_params: &[],
                    run: run_kcore,
                },
                AlgorithmSpec {
                    id: "sssp",
                    needs: GraphNeeds::Weighted,
                    summary: "single-source shortest paths (delta|wbfs|bellman|dijkstra)",
                    cost: CostClass::Moderate,
                    batch: BatchKind::MultiSourceSssp,
                    float_params: &[],
                    run: run_sssp,
                },
                AlgorithmSpec {
                    id: "components",
                    needs: GraphNeeds::Unweighted,
                    summary: "connected components by label propagation",
                    cost: CostClass::Cheap,
                    batch: BatchKind::WholeGraph,
                    float_params: &[],
                    run: run_components,
                },
                AlgorithmSpec {
                    id: "densest",
                    needs: GraphNeeds::Unweighted,
                    summary: "Charikar 2-approximate densest subgraph via peeling",
                    cost: CostClass::Cheap,
                    batch: BatchKind::WholeGraph,
                    float_params: &[],
                    run: run_densest,
                },
                AlgorithmSpec {
                    id: "triangles",
                    needs: GraphNeeds::Unweighted,
                    summary: "exact triangle count",
                    cost: CostClass::Expensive,
                    batch: BatchKind::WholeGraph,
                    float_params: &[],
                    run: run_triangles,
                },
                AlgorithmSpec {
                    id: "truss",
                    needs: GraphNeeds::Unweighted,
                    summary: "k-truss decomposition via edge peeling",
                    cost: CostClass::Expensive,
                    batch: BatchKind::WholeGraph,
                    float_params: &[],
                    run: run_truss,
                },
                AlgorithmSpec {
                    id: "clustering",
                    needs: GraphNeeds::Unweighted,
                    summary: "transitivity and average local clustering",
                    cost: CostClass::Expensive,
                    batch: BatchKind::WholeGraph,
                    float_params: &[],
                    run: run_clustering,
                },
                AlgorithmSpec {
                    id: "pagerank",
                    needs: GraphNeeds::Unweighted,
                    summary: "PageRank by power iteration",
                    cost: CostClass::Cheap,
                    batch: BatchKind::WholeGraph,
                    float_params: &["damping"],
                    run: run_pagerank,
                },
                AlgorithmSpec {
                    id: "setcover",
                    needs: GraphNeeds::None,
                    summary: "bucketed MaNIS set cover on a generated instance",
                    cost: CostClass::Moderate,
                    batch: BatchKind::WholeGraph,
                    float_params: &["eps"],
                    run: run_setcover,
                },
            ];
            Registry {
                by_id: specs.into_iter().map(|s| (s.id, s)).collect(),
            }
        })
    }

    /// Looks up a spec by id.
    pub fn get(&self, id: &str) -> Option<&AlgorithmSpec> {
        self.by_id.get(id)
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.by_id.keys().copied()
    }

    /// Dispatches `id` through the table. The context is checked before
    /// any work: a query cancelled while queued never starts.
    pub fn run(
        &self,
        id: &str,
        store: &GraphStore,
        params: &ParamMap,
        ctx: &QueryCtx,
    ) -> Result<String, Error> {
        let spec = self
            .get(id)
            .ok_or_else(|| Error::usage(format!("unknown algorithm {id:?}")))?;
        ctx.check()?;
        spec.run(store, params, ctx)
    }
}

/// The `kcore` report body: `k_max=` headline (with peel counters when the
/// values came from an actual peel) and the top-`top` coreness list.
fn render_kcore(coreness: &[u32], top: usize, counters: Option<(u64, u64)>) -> String {
    let k_max = coreness.iter().copied().max().unwrap_or(0);
    let mut by_core: Vec<(u32, u32)> = coreness
        .iter()
        .enumerate()
        .map(|(v, &c)| (c, v as u32))
        .collect();
    // Only `top` lines are printed: select them, then order just those. The
    // comparator is total on distinct `(coreness, id)` pairs, so the prefix
    // is the one a full sort would produce.
    let top = top.min(by_core.len());
    if top > 0 && top < by_core.len() {
        by_core.select_nth_unstable_by(top - 1, |a, b| b.cmp(a));
    }
    by_core.truncate(top);
    by_core.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = match counters {
        Some((rounds, moves)) => format!("k_max={k_max} rounds={rounds} moves={moves}\n"),
        None => format!("k_max={k_max}\n"),
    };
    let _ = writeln!(out, "top vertices by coreness:");
    for (c, v) in by_core {
        let _ = writeln!(out, "  v{v}: coreness {c}");
    }
    out
}

fn run_kcore(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    let top: usize = p.get_or("top", 10)?;
    p.finish(Some("kcore"))?;
    store.require_nonempty()?;
    store.require_symmetric("k-core requires a symmetric graph (use convert symmetrize=true)")?;
    // Dynamic stores answer from the maintained coreness vector when its
    // epoch matches the pinned snapshot (full peel of the snapshot
    // otherwise). Peel counters are meaningless for a repaired vector, so
    // the dynamic rendering omits `rounds=`/`moves=` — whichever path
    // produced the vector, the body is byte-identical. Stats queries want
    // the instrumented peel and take the generic path below.
    if !ctx.emit_stats() {
        if let GraphStore::Dynamic { store: ds, pinned } = store {
            let snap = GraphStore::dynamic_snapshot(ds, pinned);
            let cores = ds.coreness_for(&snap, ctx)?;
            return Ok(render_kcore(&cores, top, None));
        }
    }
    let r = any_graph!(store, "kcore", |g| coreness(
        g,
        &KcoreParams::default(),
        ctx
    ))?;
    let mut out = render_kcore(&r.coreness, top, Some((r.rounds, r.identifiers_moved)));
    if ctx.emit_stats() {
        let _ = writeln!(out, "{}", ctx.snapshot().to_json("kcore"));
    }
    Ok(out)
}

/// Parsed and validated `sssp` parameters, shared by the solo adapter and
/// the fused batch entry so both reject bad input with byte-identical
/// errors.
struct SsspRequest {
    src: u32,
    delta: u64,
    algo: String,
}

fn parse_sssp(store: &GraphStore, p: &ParamMap) -> Result<SsspRequest, Error> {
    let src: u32 = p.get_or("src", 0)?;
    let delta: u64 = p.get_or("delta", SsspParams::default().delta)?;
    if delta == 0 {
        return Err(Error::usage(
            "delta=0 is invalid; the bucket width must be >= 1",
        ));
    }
    let algo = p.string_or("algo", "delta");
    p.finish(Some("sssp"))?;
    store.require_nonempty()?;
    if src as usize >= store.num_vertices() {
        return Err(Error::input(format!(
            "src {src} out of range (n = {})",
            store.num_vertices()
        )));
    }
    Ok(SsspRequest { src, delta, algo })
}

/// The one `sssp` report renderer: solo runs, fused lanes, and cached
/// bodies all come out of this formatter, so they are byte-comparable.
fn render_sssp(algo: &str, src: u32, n: usize, dist: &[u64], rounds: u64) -> String {
    let reached = dist.iter().filter(|&&d| d != u64::MAX).count();
    let max = dist
        .iter()
        .filter(|&&d| d != u64::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    format!("algo={algo} src={src} reached={reached}/{n} max_dist={max} rounds={rounds}\n")
}

fn run_sssp(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    let SsspRequest { src, delta, algo } = parse_sssp(store, p)?;
    let (dist, rounds) = weighted_graph!(store, "sssp", |g| match algo.as_str() {
        "delta" => {
            let r = delta_stepping::sssp(g, &SsspParams { src, delta }, ctx)?;
            (r.dist, r.rounds)
        }
        "wbfs" => {
            let r = delta_stepping::sssp(g, &SsspParams { src, delta: 1 }, ctx)?;
            (r.dist, r.rounds)
        }
        "bellman" => {
            ctx.check()?;
            let r = bellman_ford(g, src);
            (r.dist, r.rounds)
        }
        "dijkstra" => {
            ctx.check()?;
            (dijkstra(g, src), 0)
        }
        other => return Err(Error::usage(format!("unknown algo {other:?}"))),
    });
    let mut out = render_sssp(&algo, src, store.num_vertices(), &dist, rounds);
    if ctx.emit_stats() {
        let _ = writeln!(out, "{}", ctx.snapshot().to_json(&format!("sssp_{algo}")));
    }
    Ok(out)
}

/// Runs a coalesced batch of `sssp` queries as **one fused multi-source
/// traversal** ([`crate::delta_stepping::sssp_multi`]), one frontier lane per
/// member. Every member must be an `algo=delta|wbfs` query with the same
/// effective Δ against the same store; members differ only in `src`.
///
/// Returns one slot per member, in order: `Ok(report)` rendered through the
/// same formatter as [`Registry::run`] (so bodies are byte-identical to
/// solo runs), or that member's own lifecycle/validation error. The outer
/// `Err` means the batch as a whole could not be fused — mixed Δ or algo
/// variants, a non-fusable variant, an unweighted store, or a lane count
/// that overflows the fused identifier space — and the caller should fall
/// back to running the members solo.
///
/// Members whose parameters fail validation (bad `src`, unknown option)
/// get their validation error in their slot and do not join the traversal;
/// they never poison sibling members.
pub fn run_sssp_batch(
    store: &GraphStore,
    members: &[(&ParamMap, &QueryCtx)],
) -> Result<Vec<Result<String, Error>>, Error> {
    use crate::delta_stepping::{sssp_multi, SsspLane};
    if members.is_empty() {
        return Ok(Vec::new());
    }
    let parsed: Vec<Result<SsspRequest, Error>> =
        members.iter().map(|(p, _)| parse_sssp(store, p)).collect();
    let mut fused_delta: Option<(String, u64)> = None;
    for req in parsed.iter().flatten() {
        let eff = match req.algo.as_str() {
            "delta" => req.delta,
            "wbfs" => 1,
            other => {
                return Err(Error::usage(format!(
                    "sssp algo={other:?} is not lane-fusable"
                )))
            }
        };
        match &fused_delta {
            None => fused_delta = Some((req.algo.clone(), eff)),
            Some((algo, delta)) if *algo == req.algo && *delta == eff => {}
            Some(_) => {
                return Err(Error::usage(
                    "sssp batch members disagree on algo/delta; cannot fuse",
                ))
            }
        }
    }
    let Some((algo, delta)) = fused_delta else {
        // Nothing valid to fuse; report the per-member validation errors.
        return Ok(parsed
            .into_iter()
            .map(|r| r.map(|_| String::new()))
            .collect());
    };
    let lanes_idx: Vec<usize> = (0..members.len()).filter(|&i| parsed[i].is_ok()).collect();
    let lane_results = weighted_graph!(store, "sssp", |g| {
        let lanes: Vec<SsspLane<'_>> = lanes_idx
            .iter()
            .map(|&i| SsspLane {
                src: parsed[i].as_ref().unwrap().src,
                ctx: members[i].1,
            })
            .collect();
        sssp_multi(g, delta, &lanes)?
    });
    let srcs: Vec<Option<u32>> = parsed
        .iter()
        .map(|r| r.as_ref().ok().map(|q| q.src))
        .collect();
    let mut out: Vec<Result<String, Error>> = parsed
        .into_iter()
        .map(|r| r.map(|_| String::new()))
        .collect();
    let n = store.num_vertices();
    for (&i, lane) in lanes_idx.iter().zip(lane_results) {
        let src = srcs[i].expect("lane index points at a validated member");
        out[i] = lane.map(|r| render_sssp(&algo, src, n, &r.dist, r.rounds));
    }
    Ok(out)
}

fn run_components(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    p.finish(Some("components"))?;
    store.require_nonempty()?;
    store.require_symmetric("components requires a symmetric graph")?;
    ctx.check()?;
    let r = any_graph!(store, "components", |g| connected_components(g));
    Ok(format!(
        "components={} rounds={}\n",
        num_components(&r.label),
        r.rounds
    ))
}

fn run_densest(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    p.finish(Some("densest"))?;
    store.require_nonempty()?;
    store.require_symmetric("densest requires a symmetric graph")?;
    ctx.check()?;
    let ds = any_graph!(store, "densest", |g| densest_subgraph(g));
    Ok(format!(
        "densest subgraph: {} vertices, density {:.3}\n",
        ds.vertices.len(),
        ds.density
    ))
}

fn run_triangles(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    p.finish(Some("triangles"))?;
    store.require_nonempty()?;
    store.require_symmetric("triangle counting requires a symmetric graph")?;
    ctx.check()?;
    let t = any_graph!(store, "triangles", |g| triangle_count(g));
    Ok(format!("triangles={t}\n"))
}

fn run_truss(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    let top: usize = p.get_or("top", 5)?;
    p.finish(Some("truss"))?;
    store.require_nonempty()?;
    store.require_symmetric("k-truss requires a symmetric graph")?;
    ctx.check()?;
    let r = any_graph!(store, "truss", |g| ktruss(g, &KtrussParams::default(), ctx))?;
    let mut out = format!(
        "edges={} max_truss={} rounds={}\n",
        r.trussness.len(),
        r.max_truss,
        r.rounds
    );
    let mut by_truss: Vec<(u32, usize)> = r
        .trussness
        .iter()
        .copied()
        .map(|t| (t, 1))
        .fold(BTreeMap::new(), |mut m: BTreeMap<u32, usize>, (t, c)| {
            *m.entry(t).or_default() += c;
            m
        })
        .into_iter()
        .collect();
    by_truss.reverse();
    let _ = writeln!(out, "edges per trussness (top {top} levels):");
    for (t, c) in by_truss.into_iter().take(top) {
        let _ = writeln!(out, "  trussness {t}: {c} edges");
    }
    if ctx.emit_stats() {
        let _ = writeln!(out, "{}", ctx.snapshot().to_json("truss"));
    }
    Ok(out)
}

fn run_clustering(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    p.finish(Some("clustering"))?;
    store.require_nonempty()?;
    store.require_symmetric("clustering requires a symmetric graph")?;
    ctx.check()?;
    let (local, trans) = any_graph!(store, "clustering", |g| (
        local_clustering(g)?,
        transitivity(g)
    ));
    let avg = local.iter().sum::<f64>() / local.len().max(1) as f64;
    Ok(format!(
        "transitivity={trans:.6} avg_local_clustering={avg:.6}\n"
    ))
}

fn run_pagerank(store: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    let damping: f64 = p.get_or("damping", 0.85)?;
    if !(0.0..=1.0).contains(&damping) {
        return Err(Error::usage(format!(
            "damping={damping} out of range (expected 0 <= damping <= 1)"
        )));
    }
    let iters: u32 = p.get_or("iters", 100)?;
    p.finish(Some("pagerank"))?;
    store.require_nonempty()?;
    ctx.check()?;
    let r = any_graph!(store, "pagerank", |g| pagerank(g, damping, 1e-9, iters));
    let mut top: Vec<(usize, f64)> = r.rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!("iterations={}\n", r.iterations);
    let _ = writeln!(out, "top vertices by rank:");
    for (v, score) in top.into_iter().take(5) {
        let _ = writeln!(out, "  v{v}: {score:.6}");
    }
    Ok(out)
}

fn run_setcover(_: &GraphStore, p: &ParamMap, ctx: &QueryCtx) -> Result<String, Error> {
    let sets: usize = p.get_or("sets", 256)?;
    let elements: usize = p.get_or("elements", 16_384)?;
    let mult: usize = p.get_or("mult", 4)?;
    let eps: f64 = p.get_or("eps", 0.01)?;
    let seed: u64 = p.get_or("seed", 1)?;
    p.finish(Some("setcover"))?;
    if sets == 0 || elements == 0 {
        return Err(Error::usage("setcover needs sets >= 1 and elements >= 1"));
    }
    let inst = julienne_graph::generators::set_cover_instance(sets, elements, mult, seed);
    let r = cover(&inst, &SetCoverParams { eps }, ctx)?;
    if !verify_cover(&inst, &r.cover) {
        return Err(Error::Internal("produced cover is invalid".into()));
    }
    let mut out = format!(
        "cover: {}/{sets} sets over {elements} elements, rounds={}, valid=yes\n",
        r.cover.len(),
        r.rounds
    );
    if ctx.emit_stats() {
        let _ = writeln!(out, "{}", ctx.snapshot().to_json("setcover"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne::prelude::{CancelToken, Engine};
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};
    use julienne_graph::transform::assign_weights;

    fn sym_store(backend: Backend) -> GraphStore {
        GraphStore::from_graph(rmat(9, 8, RmatParams::default(), 3, true), backend)
    }

    fn weighted_store(backend: Backend) -> GraphStore {
        let g = assign_weights(&erdos_renyi(400, 3200, 7, true), 1, 1000, 11);
        GraphStore::from_weighted(g, backend)
    }

    #[test]
    fn every_id_is_registered_and_described() {
        let reg = Registry::standard();
        let ids: Vec<&str> = reg.ids().collect();
        assert_eq!(
            ids,
            vec![
                "clustering",
                "components",
                "densest",
                "kcore",
                "pagerank",
                "setcover",
                "sssp",
                "triangles",
                "truss"
            ]
        );
        for id in ids {
            assert!(!reg.get(id).unwrap().summary.is_empty());
        }
    }

    #[test]
    fn unknown_algorithm_is_a_usage_error() {
        let err = Registry::standard()
            .run(
                "frobnicate",
                &GraphStore::Empty,
                &ParamMap::default(),
                &QueryCtx::default(),
            )
            .unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        assert!(err.to_string().contains("unknown algorithm"));
    }

    #[test]
    fn unknown_param_names_the_algorithm() {
        let p = ParamMap::from_pairs([("tpyo", "1")]);
        let err = Registry::standard()
            .run("kcore", &sym_store(Backend::Csr), &p, &QueryCtx::default())
            .unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        assert!(err.to_string().contains("kcore"), "{err}");
        assert!(err.to_string().contains("tpyo"), "{err}");
    }

    #[test]
    fn outputs_identical_across_backends() {
        let reg = Registry::standard();
        let ctx = QueryCtx::default();
        for (id, p) in [
            ("kcore", ParamMap::default()),
            ("components", ParamMap::default()),
            ("triangles", ParamMap::default()),
            ("pagerank", ParamMap::default()),
        ] {
            let csr = reg.run(id, &sym_store(Backend::Csr), &p, &ctx).unwrap();
            let comp = reg
                .run(id, &sym_store(Backend::Compressed), &p, &ctx)
                .unwrap();
            assert_eq!(csr, comp, "{id}");
        }
        let p = ParamMap::from_pairs([("algo", "delta")]);
        let csr = reg
            .run("sssp", &weighted_store(Backend::Csr), &p, &ctx)
            .unwrap();
        let comp = reg
            .run("sssp", &weighted_store(Backend::Compressed), &p, &ctx)
            .unwrap();
        assert_eq!(csr, comp);
    }

    #[test]
    fn sssp_on_unweighted_store_is_an_input_error() {
        let err = Registry::standard()
            .run(
                "sssp",
                &sym_store(Backend::Csr),
                &ParamMap::default(),
                &QueryCtx::default(),
            )
            .unwrap_err();
        assert!(!err.is_usage());
        assert!(err.to_string().contains("weighted"), "{err}");
    }

    #[test]
    fn truss_and_clustering_refuse_lists_that_are_not_mutual() {
        // Flagged symmetric, but 1 lists 0 and 0 lists nothing.
        let g = Graph::from_parts(vec![0, 0, 1], vec![0], vec![], true);
        for backend in [Backend::Csr, Backend::Compressed] {
            let store = GraphStore::from_graph(g.clone(), backend);
            for id in ["truss", "clustering"] {
                let err = Registry::standard()
                    .run(id, &store, &ParamMap::default(), &QueryCtx::default())
                    .unwrap_err();
                assert!(matches!(err, Error::Input(_)), "{id}: {err:?}");
                assert!(err.to_string().contains("edge (1, 0)"), "{id}: {err}");
            }
        }
    }

    #[test]
    fn cancelled_query_never_starts() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = QueryCtx::from_engine(&Engine::default()).with_cancel_token(token);
        let err = Registry::standard()
            .run(
                "kcore",
                &sym_store(Backend::Csr),
                &ParamMap::default(),
                &ctx,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled));
    }

    #[test]
    fn every_spec_declares_scheduler_metadata() {
        let reg = Registry::standard();
        let sssp = reg.get("sssp").unwrap();
        assert_eq!(sssp.batch, BatchKind::MultiSourceSssp);
        assert_eq!(sssp.cost, CostClass::Moderate);
        let pr = reg.get("pagerank").unwrap();
        assert_eq!(pr.batch, BatchKind::WholeGraph);
        assert!(pr.float_params.contains(&"damping"));
        assert!(reg.get("setcover").unwrap().float_params.contains(&"eps"));
        for id in reg.ids() {
            let spec = reg.get(id).unwrap();
            assert!(!spec.cost.as_str().is_empty(), "{id}");
        }
    }

    #[test]
    fn canonical_params_normalize_floats() {
        let reg = Registry::standard();
        let a = ParamMap::from_pairs([("damping", "0.850"), ("iters", "10")]);
        let b = ParamMap::from_pairs([("iters", "10"), ("damping", "0.85")]);
        let spec = reg.get("pagerank").unwrap();
        let ka = spec.canonical_params(&a).unwrap();
        let kb = spec.canonical_params(&b).unwrap();
        assert_eq!(ka, kb);
        assert_eq!(ka, "damping=0.85 iters=10");
        // Non-float params pass through verbatim even if they parse as f64.
        let k = reg
            .get("sssp")
            .unwrap()
            .canonical_params(&ParamMap::from_pairs([("src", "007")]))
            .unwrap();
        assert_eq!(k, "src=007");
    }

    #[test]
    fn nan_float_param_is_rejected_at_admission() {
        let p = ParamMap::from_pairs([("damping", "NaN")]);
        let err = Registry::standard()
            .get("pagerank")
            .unwrap()
            .canonical_params(&p)
            .unwrap_err();
        assert!(matches!(err, Error::Input(_)), "{err:?}");
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn sssp_batch_reports_are_byte_identical_to_solo() {
        let reg = Registry::standard();
        let ctx = QueryCtx::default();
        for backend in [Backend::Csr, Backend::Compressed] {
            let store = weighted_store(backend);
            let params: Vec<ParamMap> = vec![
                ParamMap::from_pairs([("algo", "wbfs"), ("src", "0")]),
                ParamMap::from_pairs([("algo", "wbfs"), ("src", "4000")]), // out of range
                ParamMap::from_pairs([("algo", "wbfs"), ("src", "7")]),
                ParamMap::from_pairs([("algo", "wbfs"), ("src", "399")]),
            ];
            let members: Vec<(&ParamMap, &QueryCtx)> = params.iter().map(|p| (p, &ctx)).collect();
            let batched = run_sssp_batch(&store, &members).unwrap();
            assert_eq!(batched.len(), params.len());
            for (p, got) in params.iter().zip(&batched) {
                let solo = reg.run("sssp", &store, p, &ctx);
                match (got, solo) {
                    (Ok(b), Ok(s)) => assert_eq!(*b, s),
                    (Err(b), Err(s)) => assert_eq!(b.to_string(), s.to_string()),
                    (b, s) => panic!("batched {b:?} vs solo {s:?}"),
                }
            }
        }
    }

    #[test]
    fn sssp_batch_refuses_to_fuse_mixed_deltas() {
        let store = weighted_store(Backend::Csr);
        let ctx = QueryCtx::default();
        let a = ParamMap::from_pairs([("algo", "delta"), ("delta", "64")]);
        let b = ParamMap::from_pairs([("algo", "delta"), ("delta", "128")]);
        let err = run_sssp_batch(&store, &[(&a, &ctx), (&b, &ctx)]).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        let c = ParamMap::from_pairs([("algo", "bellman")]);
        let err = run_sssp_batch(&store, &[(&c, &ctx)]).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
    }

    #[test]
    fn setcover_runs_without_a_graph() {
        let p = ParamMap::from_pairs([("sets", "32"), ("elements", "1000"), ("seed", "3")]);
        let out = Registry::standard()
            .run("setcover", &GraphStore::Empty, &p, &QueryCtx::default())
            .unwrap();
        assert!(out.contains("valid=yes"), "{out}");
    }

    #[test]
    fn setcover_refuses_an_empty_instance_as_usage() {
        let empty = GraphStore::Empty;
        for (sets, elements) in [("0", "1000"), ("32", "0")] {
            let p = ParamMap::from_pairs([("sets", sets), ("elements", elements)]);
            let err = Registry::standard()
                .run("setcover", &empty, &p, &QueryCtx::default())
                .unwrap_err();
            assert!(err.is_usage(), "sets={sets} elements={elements}: {err:?}");
        }
    }

    #[test]
    fn render_kcore_prints_what_a_full_sort_would() {
        // The report before top-k selection: sort every pair, print `top`.
        let full_sort = |coreness: &[u32], top: usize| {
            let mut all: Vec<(u32, u32)> = coreness.iter().copied().zip(0u32..).collect();
            all.sort_unstable_by(|a, b| b.cmp(a));
            let mut out = format!("k_max={}\ntop vertices by coreness:\n", all[0].0);
            for (c, v) in all.into_iter().take(top) {
                let _ = writeln!(out, "  v{v}: coreness {c}");
            }
            out
        };
        // Many ties: every cut below falls inside a run of equal coreness,
        // where only the id breaks the tie.
        let coreness: Vec<u32> = (0..200u32).map(|v| (v * 7919) % 5).collect();
        let n = coreness.len();
        for top in [0, 1, 3, 39, 40, 41, n - 1, n, n + 1, usize::MAX] {
            assert_eq!(
                render_kcore(&coreness, top, None),
                full_sort(&coreness, top),
                "top={top}"
            );
        }
        assert_eq!(
            render_kcore(&[], 3, Some((0, 0))),
            "k_max=0 rounds=0 moves=0\ntop vertices by coreness:\n"
        );
    }
}
