//! CLI subcommand implementations. Each returns its report as a `String`
//! so commands are unit-testable without capturing stdout.
//!
//! The algorithm subcommands all route through the workspace
//! [`Registry`]: the CLI's job is only to load the graph representation
//! the algorithm needs, translate leftover `key=value` options into a
//! typed [`ParamMap`], and map the typed [`Error`] classes onto exit
//! codes. `julienne serve` exposes the same table over a local socket and
//! `julienne query` is its line-protocol client, so a query answered
//! directly and one answered by a server are byte-identical.

use crate::args::Args;
use julienne::prelude::{Backend, Engine, QueryCtx};
use julienne::Error;
use julienne_algorithms::dynamic::DynamicStore;
use julienne_algorithms::registry::{GraphNeeds, GraphStore, ParamMap, Registry};
use julienne_algorithms::stats::graph_stats;
use julienne_graph::compress::{CompressedGraph, CompressedWGraph};
use julienne_graph::container;
use julienne_graph::generators::{chung_lu, erdos_renyi, grid2d, random_regular, rmat, RmatParams};
use julienne_graph::io::{stated_weighted, Format, GraphIo, IoOptions};
use julienne_graph::snapshot::EdgeUpdate;
use julienne_graph::transform::{assign_weights, symmetrize, wbfs_weight_range};
use julienne_graph::{Csr, Graph};
use julienne_server::json::Json;
use julienne_server::{query_request, Client, SchedPolicy, SchedulerConfig, Server};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Why a command failed — the class decides the exit code and whether the
/// usage text is appended. [`CmdError::Usage`] means the *invocation* was
/// wrong (bad option value, unknown command): exit 2. [`CmdError::Runtime`]
/// means the invocation was fine but the work failed (unreadable file,
/// empty graph, asymmetric input, expired deadline): exit 1. Both print
/// usage so a failing run always shows the correct invocation forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmdError {
    Usage(String),
    Runtime(String),
}

impl CmdError {
    /// Exit code for this error class (2 = usage, 1 = runtime).
    pub fn exit_code(&self) -> i32 {
        match self {
            CmdError::Usage(_) => 2,
            CmdError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Usage(m) | CmdError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl From<Error> for CmdError {
    /// The workspace error enum maps onto the CLI's two exit classes by
    /// its wire code: `usage` → exit 2, everything else (io, parse, input,
    /// cancelled, deadline, internal) → exit 1.
    fn from(e: Error) -> Self {
        if e.is_usage() {
            CmdError::Usage(e.to_string())
        } else {
            CmdError::Runtime(e.to_string())
        }
    }
}

fn usage_err(msg: impl Into<String>) -> CmdError {
    CmdError::Usage(msg.into())
}

fn runtime_err(msg: impl Into<String>) -> CmdError {
    CmdError::Runtime(msg.into())
}

pub type CmdResult = Result<String, CmdError>;

/// Reads the global `backend=<csr|compressed|mapped>` option. Validated
/// once in [`dispatch`]; the graph commands re-read it here to route their
/// loads through [`GraphStore::open`].
fn backend_opt(a: &ParamMap) -> Result<Backend, CmdError> {
    Ok(Backend::parse(&a.string_or("backend", "csr"))?)
}

/// Loads with format auto-detection (extension, then magic bytes).
fn load<W: julienne_graph::csr::Weight>(path: &Path) -> Result<Csr<W>, Error> {
    GraphIo::read(path, &IoOptions::default())
}

/// Saves in the extension-selected format.
fn save<W: julienne_graph::csr::Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    GraphIo::write(g, path, &IoOptions::default())
}

/// The `weighted=` option given, or, when absent, what a `.bin` or `.jgr`
/// header says (a text file is read unweighted).
fn weighted_or_stated(weighted: Option<bool>, input: &Path) -> Result<bool, CmdError> {
    match weighted {
        Some(w) => Ok(w),
        None => Ok(stated_weighted(input, Format::detect(input)?)? == Some(true)),
    }
}

/// Rejects 0-vertex graphs before computing statistics on them.
fn require_nonempty<W: julienne_graph::csr::Weight>(g: &Csr<W>) -> Result<(), CmdError> {
    if g.num_vertices() == 0 {
        Err(runtime_err(
            "graph is empty (0 vertices); nothing to compute",
        ))
    } else {
        Ok(())
    }
}

/// Builds the per-invocation [`QueryCtx`] from the global options:
/// `stats=<none|json>` selects the telemetry scope and JSON trace, and
/// `timeout_ms=<n>` arms a deadline (a run past it exits with a runtime
/// error, the same `deadline` class a served query reports).
fn query_ctx(a: &ParamMap) -> Result<QueryCtx, CmdError> {
    let stats = a.string_or("stats", "none");
    let mut ctx = match stats.as_str() {
        "none" => QueryCtx::default(),
        "json" => {
            QueryCtx::from_engine(&Engine::builder().telemetry(true).build()).with_stats(true)
        }
        other => {
            return Err(usage_err(format!(
                "unknown stats mode {other:?} (expected none|json)"
            )))
        }
    };
    if let Some(ms) = a.optional::<u64>("timeout_ms")? {
        ctx = ctx.with_deadline(Duration::from_millis(ms));
    }
    Ok(ctx)
}

/// Runs any registered algorithm: loads the representation its spec needs,
/// forwards every option the global getters didn't consume as typed
/// parameters, and dispatches through the same [`Registry`] table the
/// query server uses.
fn cmd_algo(id: &str, a: &ParamMap) -> CmdResult {
    let spec = Registry::standard()
        .get(id)
        .expect("dispatch routes only registered ids here");
    let backend = backend_opt(a)?;
    let ctx = query_ctx(a)?;
    let loaded: Result<GraphStore, Error> = match spec.needs {
        GraphNeeds::None => Ok(GraphStore::Empty),
        GraphNeeds::Unweighted => {
            let input = PathBuf::from(a.require("in")?);
            GraphStore::open(&input, false, backend)
        }
        GraphNeeds::Weighted => {
            let input = PathBuf::from(a.require("in")?);
            GraphStore::open(&input, true, backend)
        }
    };
    let params = ParamMap::from_pairs(a.remaining());
    let store = match loaded {
        Ok(s) => s,
        Err(load_err) => {
            // Parameter mistakes are knowable from argv alone; report them
            // ahead of filesystem failures by probing against an empty
            // store (the registry validates params before touching the
            // graph, so nothing actually runs).
            let probe = Registry::standard().run(id, &GraphStore::Empty, &params, &ctx);
            return match probe {
                Err(e) if e.is_usage() => Err(e.into()),
                _ => Err(load_err.into()),
            };
        }
    };
    Ok(Registry::standard().run(id, &store, &params, &ctx)?)
}

/// `julienne gen kind=<rmat|er|chunglu|grid|regular> out=<file> [scale=14]
/// [edge_factor=16] [seed=1] [symmetric=true] [weights=none|log|heavy]`
pub fn cmd_gen(a: &ParamMap) -> CmdResult {
    let kind = a.require("kind")?;
    let out = PathBuf::from(a.require("out")?);
    let scale: u32 = a.get_or("scale", 14)?;
    let ef: usize = a.get_or("edge_factor", 16)?;
    let seed: u64 = a.get_or("seed", 1)?;
    let symmetric: bool = a.get_or("symmetric", true)?;
    let weights = a.string_or("weights", "none");
    a.finish(None)?;

    if scale >= usize::BITS {
        return Err(usage_err(format!(
            "scale={scale} is too large (2^scale vertices must fit in usize; max scale is {})",
            usize::BITS - 1
        )));
    }
    let n = 1usize << scale;
    let g: Graph = match kind.as_str() {
        "rmat" => rmat(scale, ef, RmatParams::default(), seed, symmetric),
        "er" => erdos_renyi(n, ef * n, seed, symmetric),
        "chunglu" => chung_lu(n, ef * n, 2.2, seed, symmetric),
        "regular" => random_regular(n, ef, seed, symmetric),
        "grid" => {
            let side = (n as f64).sqrt() as usize;
            grid2d(side, side)
        }
        other => return Err(usage_err(format!("unknown generator {other:?}"))),
    };
    let mut report = format!(
        "generated {kind}: n={} m={} symmetric={}\n",
        g.num_vertices(),
        g.num_edges(),
        g.is_symmetric()
    );
    match weights.as_str() {
        "none" => save(&g, &out)?,
        "log" => {
            let (lo, hi) = wbfs_weight_range(g.num_vertices());
            save(&assign_weights(&g, lo, hi, seed ^ 0xF00D), &out)?;
            let _ = writeln!(report, "weights: uniform [{lo}, {hi})");
        }
        "heavy" => {
            save(&assign_weights(&g, 1, 100_000, seed ^ 0xF00D), &out)?;
            let _ = writeln!(report, "weights: uniform [1, 100000)");
        }
        other => return Err(usage_err(format!("unknown weights mode {other:?}"))),
    }
    let _ = writeln!(report, "wrote {}", out.display());
    Ok(report)
}

/// `julienne stats in=<file> [weighted=<what the header says>]`
///
/// Besides the Table 2 statistics, reports the memory footprint of both
/// backends: raw CSR bytes and byte-compressed bytes, each per edge, plus
/// the compression ratio.
pub fn cmd_stats(a: &ParamMap) -> CmdResult {
    let input = PathBuf::from(a.require("in")?);
    let weighted = a.optional("weighted")?;
    a.finish(None)?;
    let (s, csr_bytes, compressed_bytes) = if weighted_or_stated(weighted, &input)? {
        let g: Csr<u32> = load(&input)?;
        require_nonempty(&g)?;
        let c = CompressedWGraph::from_csr(&g);
        (graph_stats(&g), g.footprint_bytes(), c.footprint_bytes())
    } else {
        let g: Graph = load(&input)?;
        require_nonempty(&g)?;
        let c = CompressedGraph::from_csr(&g);
        (graph_stats(&g), g.footprint_bytes(), c.footprint_bytes())
    };
    let m = s.num_edges.max(1) as f64;
    let mut out = format!(
        "n={} m={} rho={} k_max={} max_degree={} ecc(0)={}\n",
        s.num_vertices,
        s.num_edges,
        s.rho.map(|x| x.to_string()).unwrap_or("-".into()),
        s.k_max.map(|x| x.to_string()).unwrap_or("-".into()),
        s.max_degree,
        s.eccentricity_from_zero
    );
    let _ = writeln!(
        out,
        "memory: csr={csr_bytes}B ({:.2} B/edge) compressed={compressed_bytes}B ({:.2} B/edge) ratio={:.2}x",
        csr_bytes as f64 / m,
        compressed_bytes as f64 / m,
        csr_bytes as f64 / compressed_bytes.max(1) as f64
    );
    Ok(out)
}

/// `julienne convert in=<file> out=<file> [weighted=<what the header says>]
/// [symmetrize=false] [compressed_payload=false] [verify=false]`
///
/// Converts between any two supported formats (the output format comes
/// from the output extension). Writing a `.jgr` container with
/// `compressed_payload=true` embeds the Ligra+-style byte-compressed
/// adjacency next to the CSR sections, so `backend=compressed` later loads
/// the pre-encoded blocks verbatim. `verify=true` re-reads the written
/// file — for containers this checks every section checksum and validates
/// offsets/targets, the O(file) counterpart of the O(1) open.
pub fn cmd_convert(a: &ParamMap) -> CmdResult {
    let input = PathBuf::from(a.require("in")?);
    let out = PathBuf::from(a.require("out")?);
    let weighted = a.optional("weighted")?;
    let make_sym: bool = a.get_or("symmetrize", false)?;
    let compressed_payload: bool = a.get_or("compressed_payload", false)?;
    let verify: bool = a.get_or("verify", false)?;
    a.finish(None)?;
    let out_fmt = Format::for_output(&out)?;
    if compressed_payload && out_fmt != Format::Container {
        return Err(usage_err(
            "compressed_payload=true only applies to .jgr container output",
        ));
    }
    let write_opts = IoOptions {
        format: Some(out_fmt),
        compressed_payload,
        ..Default::default()
    };
    let (m, kind) = if weighted_or_stated(weighted, &input)? {
        let mut g: Csr<u32> = load(&input)?;
        if make_sym {
            g = symmetrize(&g);
        }
        GraphIo::write(&g, &out, &write_opts)?;
        if verify {
            verify_written::<u32>(&out, out_fmt)?;
        }
        (g.num_edges(), "weighted, ")
    } else {
        let mut g: Graph = load(&input)?;
        if make_sym {
            g = symmetrize(&g);
        }
        GraphIo::write(&g, &out, &write_opts)?;
        if verify {
            verify_written::<()>(&out, out_fmt)?;
        }
        (g.num_edges(), "")
    };
    let mut report = format!(
        "converted {} -> {} ({kind}format={out_fmt}, m={m})\n",
        input.display(),
        out.display(),
    );
    if compressed_payload {
        let _ = writeln!(report, "embedded byte-compressed payload sections");
    }
    if verify {
        let _ = writeln!(report, "verified: output reads back clean");
    }
    Ok(report)
}

/// Re-reads a just-written file. Containers get the full checksum +
/// structure pass; other formats are simply parsed back.
fn verify_written<W: julienne_graph::csr::Weight>(
    out: &Path,
    out_fmt: Format,
) -> Result<(), Error> {
    if out_fmt == Format::Container {
        container::verify(out)
    } else {
        load::<W>(out).map(|_| ())
    }
}

/// `julienne serve in=<file> [weighted=true] [mutable=false]
/// [addr=127.0.0.1:0] [backend=csr|compressed|mapped]
/// [batch_window_ms=0] [cache_bytes=0] [scheduler=fifo|priority]`
///
/// Loads the graph once (`weighted` defaults to what a `.bin` or `.jgr` header
/// states), prints `listening on <addr>`, and answers
/// line-delimited JSON queries until a `{"shutdown": true}` request
/// arrives (see `julienne query`). All queries share the one immutable
/// in-memory graph; each carries its own deadline and cancellation token.
/// With `backend=mapped` and a `.jgr` input the graph is served straight
/// from the memory-mapped file — the server is listening within
/// milliseconds regardless of graph size.
///
/// `batch_window_ms` holds compatible queries for coalescing into one
/// fused run (responses gain `"batched": true`), `cache_bytes` arms the
/// result cache (hits answer with `"cached": true`), and `scheduler`
/// picks the dispatch order (`priority` runs cheap algorithms ahead of
/// expensive ones). The defaults keep all three features off.
pub fn cmd_serve(a: &ParamMap) -> CmdResult {
    let input = PathBuf::from(a.require("in")?);
    let mutable: bool = a.get_or("mutable", false)?;
    let weighted: Option<bool> = a.optional("weighted")?;
    let addr = a.string_or("addr", "127.0.0.1:0");
    let backend = backend_opt(a)?;
    if mutable && weighted == Some(true) {
        return Err(usage_err(
            "mutable=true serves the unweighted dynamic store; drop weighted=true",
        ));
    }
    if mutable && backend != Backend::Csr {
        return Err(usage_err(format!(
            "mutable=true requires backend=csr (got {})",
            backend.name()
        )));
    }
    let batch_window_ms: u64 = a.get_or("batch_window_ms", 0)?;
    let cache_bytes: usize = a.get_or("cache_bytes", 0)?;
    let policy_name = a.string_or("scheduler", "fifo");
    let Some(policy) = SchedPolicy::parse(&policy_name) else {
        return Err(usage_err(format!(
            "unknown scheduler {policy_name:?} (expected fifo|priority)"
        )));
    };
    a.finish(None)?;
    let config = SchedulerConfig {
        batch_window: Duration::from_millis(batch_window_ms),
        cache_bytes,
        policy,
    };
    // A mutable store is always the unweighted dynamic CSR, and a `.bin` or
    // `.jgr` opens as what its header says it is; the text formats cannot
    // say, and default to weighted.
    let weighted = match weighted {
        Some(w) => w,
        None => !mutable && stated_weighted(&input, Format::detect(&input)?)?.unwrap_or(true),
    };
    let store = if mutable {
        GraphStore::dynamic(std::sync::Arc::new(DynamicStore::from_graph(load(&input)?)))
    } else {
        GraphStore::open(&input, weighted, backend)?
    };
    if store.num_vertices() == 0 {
        return Err(runtime_err("graph is empty (0 vertices); nothing to serve"));
    }
    let engine = Engine::default();
    let (n, m, weighted) = (store.num_vertices(), store.num_edges(), store.is_weighted());
    let server = Server::bind_with(&addr, &engine, store, config)
        .map_err(|e| runtime_err(format!("cannot bind {addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| runtime_err(e.to_string()))?;
    // Printed (and flushed) before blocking so clients can scrape the
    // bound address even when addr=127.0.0.1:0 picked a free port.
    let kind = if mutable { "dynamic" } else { backend.name() };
    println!("listening on {local} (n={n} m={m} weighted={weighted} backend={kind})");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .serve()
        .map_err(|e| runtime_err(format!("serve: {e}")))?;
    Ok("server stopped\n".to_string())
}

/// Parses an `insert=`/`delete=` edge list of the form `u-v,u-v,...`.
fn parse_edge_list(field: &str, spec: &str) -> Result<Vec<(u32, u32)>, CmdError> {
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for pair in spec.split(',') {
        let err = || {
            usage_err(format!(
                "{field}= entries must be u-v vertex pairs (got {pair:?})"
            ))
        };
        let (u, v) = pair.split_once('-').ok_or_else(err)?;
        out.push((
            u.trim().parse::<u32>().map_err(|_| err())?,
            v.trim().parse::<u32>().map_err(|_| err())?,
        ));
    }
    Ok(out)
}

/// `julienne update addr=<host:port> [insert=u-v,...] [delete=u-v,...]
/// [id=m0]` — or `update in=<file> out=<file> [insert=...] [delete=...]`.
///
/// The wire form sends one `mutate` request to a `serve mutable=true`
/// server and prints its `epoch=... applied=...` report. The local form
/// applies the same batch semantics offline: load, mutate, write the
/// resulting snapshot to `out=`.
pub fn cmd_update(a: &ParamMap) -> CmdResult {
    let inserts = parse_edge_list("insert", &a.string_or("insert", ""))?;
    let deletes = parse_edge_list("delete", &a.string_or("delete", ""))?;
    if inserts.is_empty() && deletes.is_empty() {
        return Err(usage_err("update needs at least one insert= or delete="));
    }

    let addr = a.string_or("addr", "");
    if !addr.is_empty() {
        let id = a.string_or("id", "m0");
        a.finish(None)?;
        let to_json = |pairs: &[(u32, u32)]| {
            Json::Arr(
                pairs
                    .iter()
                    .map(|&(u, v)| {
                        Json::Arr(vec![Json::Num(f64::from(u)), Json::Num(f64::from(v))])
                    })
                    .collect(),
            )
        };
        let mut spec = Vec::new();
        if !inserts.is_empty() {
            spec.push(("insert".to_string(), to_json(&inserts)));
        }
        if !deletes.is_empty() {
            spec.push(("delete".to_string(), to_json(&deletes)));
        }
        let request = Json::Obj(vec![
            ("id".to_string(), Json::Str(id)),
            ("mutate".to_string(), Json::Obj(spec)),
        ]);
        let resp = Client::connect(&addr)
            .map_err(|e| runtime_err(format!("connect {addr}: {e}")))?
            .roundtrip(&request)
            .map_err(|e| runtime_err(format!("update {addr}: {e}")))?;
        return wire_reply(&resp);
    }

    // Local form: load → apply one batch (inserts before deletes, the wire
    // semantics) → write the epoch-1 snapshot.
    let input = PathBuf::from(a.require("in")?);
    let out = PathBuf::from(a.require("out")?);
    a.finish(None)?;
    let store = DynamicStore::from_graph(load(&input)?);
    let batch: Vec<EdgeUpdate> = inserts
        .iter()
        .map(|&(u, v)| EdgeUpdate::insert(u, v))
        .chain(deletes.iter().map(|&(u, v)| EdgeUpdate::delete(u, v)))
        .collect();
    let applied = store.apply_batch(&batch)?;
    let snap = store.snapshot();
    save(snap.csr(), &out)?;
    Ok(format!(
        "epoch={} applied={} n={} m={} -> {}\n",
        applied.epoch,
        applied.applied(),
        applied.n,
        applied.m,
        out.display()
    ))
}

/// `julienne query addr=<host:port> algo=<id> [id=q0] [timeout_ms=<n>]
/// [stats=false] [algorithm params...]`, or `query addr=... cancel=<id>`,
/// or `query addr=... shutdown=true`.
///
/// One-shot client for `julienne serve`: sends a single request line and
/// prints the response. Server-side errors keep their class — a usage
/// error on the server is a usage error (exit 2) here.
pub fn cmd_query(a: &ParamMap) -> CmdResult {
    let addr = a.require("addr")?;
    let connect =
        |addr: &str| Client::connect(addr).map_err(|e| runtime_err(format!("connect {addr}: {e}")));
    let wire = |e: std::io::Error| runtime_err(format!("query {addr}: {e}"));

    if a.get_or("shutdown", false)? {
        a.finish(None)?;
        let resp = connect(&addr)?
            .roundtrip(&Json::Obj(vec![("shutdown".into(), Json::Bool(true))]))
            .map_err(wire)?;
        return if resp.get("shutdown").and_then(Json::as_bool) == Some(true) {
            Ok("server acknowledged shutdown\n".to_string())
        } else {
            Err(runtime_err(format!(
                "unexpected shutdown response: {}",
                resp.to_json()
            )))
        };
    }

    let cancel = a.string_or("cancel", "");
    if !cancel.is_empty() {
        a.finish(None)?;
        let resp = connect(&addr)?
            .roundtrip(&Json::Obj(vec![(
                "cancel".into(),
                Json::Str(cancel.clone()),
            )]))
            .map_err(wire)?;
        return if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(format!("cancel acknowledged for {cancel}\n"))
        } else {
            Err(runtime_err(format!(
                "unexpected cancel response: {}",
                resp.to_json()
            )))
        };
    }

    let algo = a.require("algo")?;
    let id = a.string_or("id", "q0");
    let timeout: Option<u64> = a.optional("timeout_ms")?;
    let stats: bool = a.get_or("stats", false)?;
    // An algorithm parameter whose name collides with one of this
    // subcommand's own options (sssp's `algo=`, say) can be spelled with a
    // `param.` prefix; the prefix is stripped before the pair goes on the
    // wire.
    let params: Vec<(String, String)> = a
        .remaining()
        .into_iter()
        .map(|(k, v)| match k.strip_prefix("param.") {
            Some(stripped) => (stripped.to_string(), v),
            None => (k, v),
        })
        .collect();
    let param_refs: Vec<(&str, &str)> = params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let request = query_request(&id, &algo, &param_refs, timeout, stats);

    let resp = connect(&addr)?.roundtrip(&request).map_err(wire)?;
    wire_reply(&resp)
}

/// A served query's or update's reply as this command's result: its
/// `output` when `ok`, else a `server error (<code>): <message>` that keeps
/// the error's class — `usage` on the server is a usage error (exit 2) here.
fn wire_reply(resp: &Json) -> CmdResult {
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        let output = resp.get("output").and_then(Json::as_str);
        return Ok(output.unwrap_or_default().to_string());
    }
    let error = |key| {
        resp.get("error")
            .and_then(|e| e.get(key))
            .and_then(Json::as_str)
    };
    let code = error("code").unwrap_or("unknown");
    let message = error("message").unwrap_or("unrecognized server response");
    let text = format!("server error ({code}): {message}");
    Err(if code == "usage" {
        usage_err(text)
    } else {
        runtime_err(text)
    })
}

/// Usage text.
pub fn usage() -> String {
    "julienne — work-efficient bucketing for parallel graph algorithms (SPAA'17 reproduction)

USAGE: julienne <command> [key=value ...]

COMMANDS:
  gen         kind=<rmat|er|chunglu|grid|regular> out=<file.{adj,el,gr,bin,jgr}>
              [scale=14] [edge_factor=16] [seed=1] [symmetric=true] [weights=none|log|heavy]
  stats       in=<file> [weighted=false]
  convert     in=<file> out=<file> [weighted=false] [symmetrize=false]
              [compressed_payload=false] [verify=false]
              weighted (stats, convert) defaults to what a .bin or .jgr
              header states; output format follows the output extension; out=<file.jgr>
              writes the mmap-ready container (compressed_payload=true
              embeds the byte-compressed adjacency; verify=true re-reads
              the output and checks every section checksum)
  kcore       in=<file> [top=10] [stats=none|json]
  sssp        in=<weighted file> [src=0] [delta=32768] [algo=delta|wbfs|bellman|dijkstra]
              [stats=none|json]
  components  in=<file>
  densest     in=<file>
  triangles   in=<file>
  truss       in=<file> [top=5] [stats=none|json]
  clustering  in=<file>
  pagerank    in=<file> [damping=0.85] [iters=100]
  setcover    [sets=256] [elements=16384] [mult=4] [eps=0.01] [seed=1] [stats=none|json]
  serve       in=<file> [weighted=true] [mutable=false] [addr=127.0.0.1:0]
              [batch_window_ms=0] [cache_bytes=0] [scheduler=fifo|priority]
              loads the graph once and answers concurrent queries over a local
              socket (line-delimited JSON; see `query`); weighted defaults to
              what a .bin or .jgr header states; batch_window_ms>0
              coalesces compatible queries into one fused run (multi-source
              sssp lanes, whole-graph fan-out; responses gain \"batched\":true),
              cache_bytes>0 arms an LRU result cache (hits answer with
              \"cached\":true), scheduler=priority dispatches cheap algorithms
              ahead of expensive ones; mutable=true (unweighted, backend=csr)
              serves an updatable graph: `update` batches publish new MVCC
              snapshots while in-flight queries keep reading the epoch they
              started on
  query       addr=<host:port> algo=<id> [id=q0] [timeout_ms=<n>] [stats=false]
              [params...] — or addr=... cancel=<id>, or addr=... shutdown=true
              (prefix a param with `param.` if its name collides with an
              option above, e.g. algo=sssp param.algo=wbfs)
  update      addr=<host:port> [insert=u-v,u-v,...] [delete=u-v,...] [id=m0]
              sends one edge-update batch to a `serve mutable=true` server
              and prints its epoch=... applied=... report; within one batch
              deletes apply after inserts. Or offline:
              update in=<file> out=<file> [insert=...] [delete=...]
  help

Options may be written key=value, --key=value, or --key value.
threads=<n> (any command) sets the process-wide worker-thread count, like
the JULIENNE_NUM_THREADS environment variable; outputs are identical at
every thread count.
backend=<csr|compressed|mapped> (graph commands) selects the graph
representation: raw CSR arrays (default), the Ligra+-style byte-coded form
(loaded verbatim from a .jgr compressed payload when present, else built
after loading), or zero-copy memory-mapping (requires a .jgr input; opening
does no per-edge work). Outputs are identical for every backend.
Graph files are detected by extension (.adj/.el/.txt/.gr/.metis/.graph/
.bin/.jgr), falling back to magic-byte sniffing for unknown extensions.
stats=json appends one JSON object per run: accumulated counters plus a
per-round trace (round, bucket, frontier, edges scanned/relaxed,
sparse-vs-dense choice, elapsed microseconds).
timeout_ms=<n> (algorithm commands) arms a deadline; a run that passes it
stops at the next round boundary with a `deadline` error (exit 1).
"
    .to_string()
}

/// Dispatches a parsed command.
///
/// Two options are global. `threads=` is consumed here (before the
/// subcommand runs) and sets the process-wide worker-thread count, the same
/// knob as `JULIENNE_NUM_THREADS`. `backend=` is validated here and
/// re-read by the graph commands to pick the graph representation (raw
/// CSR, byte-compressed, or mmap'd container). Neither affects any
/// output, only speed and space. Algorithm ids resolve through
/// [`Registry::standard`], the same table `julienne serve` dispatches from.
pub fn dispatch(args: &Args) -> CmdResult {
    let a = &args.opts;
    let threads: usize = a.get_or("threads", 0)?;
    if threads > 0 {
        rayon::set_num_threads(threads);
    }
    backend_opt(a)?;
    match args.command.as_str() {
        "gen" => cmd_gen(a),
        "stats" => cmd_stats(a),
        "convert" => cmd_convert(a),
        "serve" => cmd_serve(a),
        "query" => cmd_query(a),
        "update" => cmd_update(a),
        "help" | "--help" | "-h" => Ok(usage()),
        id if Registry::standard().get(id).is_some() => cmd_algo(id, a),
        other => Err(usage_err(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_classed(line: &str) -> CmdResult {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let a = Args::parse(argv)?;
        dispatch(&a)
    }

    fn run(line: &str) -> Result<String, String> {
        run_classed(line).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("julienne-cli-{}-{name}", std::process::id()))
            .display()
            .to_string()
    }

    #[test]
    fn gen_stats_kcore_pipeline() {
        let f = tmp("a.bin");
        let r = run(&format!("gen kind=rmat scale=10 out={f}")).unwrap();
        assert!(r.contains("generated rmat"));
        let s = run(&format!("stats in={f}")).unwrap();
        assert!(s.contains("n=1024"));
        let k = run(&format!("kcore in={f} top=3")).unwrap();
        assert!(k.contains("k_max="));
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn weighted_sssp_pipeline() {
        let f = tmp("w.bin");
        run(&format!(
            "gen kind=er scale=9 edge_factor=8 weights=log out={f}"
        ))
        .unwrap();
        for algo in ["delta", "wbfs", "bellman", "dijkstra"] {
            let out = run(&format!("sssp in={f} algo={algo} weighted=x"));
            // weighted=x is an unknown option: must be rejected.
            assert!(out.is_err(), "{algo}");
            let out = run(&format!("sssp in={f} algo={algo}")).unwrap();
            assert!(out.contains("reached="), "{algo}");
        }
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn components_and_densest() {
        let f = tmp("c.bin");
        run(&format!("gen kind=grid scale=10 out={f}")).unwrap();
        let c = run(&format!("components in={f}")).unwrap();
        assert!(c.contains("components=1"));
        let d = run(&format!("densest in={f}")).unwrap();
        assert!(d.contains("density"));
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn setcover_runs_standalone() {
        let out = run("setcover sets=32 elements=1000 seed=3").unwrap();
        assert!(out.contains("valid=yes"));
    }

    #[test]
    fn stats_json_traces_for_all_bucketed_algorithms() {
        let f = tmp("j.bin");
        let fw = tmp("jw.bin");
        run(&format!("gen kind=rmat scale=9 out={f}")).unwrap();
        run(&format!("gen kind=rmat scale=9 weights=log out={fw}")).unwrap();
        let k = run(&format!("kcore in={f} --stats json")).unwrap();
        assert!(k.contains("\"algorithm\":\"kcore\""), "{k}");
        assert!(k.contains("\"rounds\":["), "{k}");
        let s = run(&format!("sssp in={fw} algo=delta --stats=json")).unwrap();
        assert!(s.contains("\"algorithm\":\"sssp_delta\""), "{s}");
        let c = run("setcover sets=32 elements=1000 seed=3 stats=json").unwrap();
        assert!(c.contains("\"algorithm\":\"setcover\""), "{c}");
        // Per-round trace contents exist only when telemetry is compiled in;
        // a no-default-features build still emits the (empty) JSON envelope.
        #[cfg(feature = "telemetry")]
        {
            assert!(k.contains("\"edges_scanned\""), "{k}");
            assert!(s.contains("\"mode\":\"sparse\""), "{s}");
            assert!(c.contains("\"elapsed_us\""), "{c}");
        }
        // stats=none (default) emits no JSON.
        let plain = run(&format!("kcore in={f}")).unwrap();
        assert!(!plain.contains("\"algorithm\""));
        std::fs::remove_file(f).ok();
        std::fs::remove_file(fw).ok();
    }

    #[test]
    fn truss_stats_json_traces_every_round() {
        let f = tmp("tj.bin");
        run(&format!("gen kind=rmat scale=9 edge_factor=12 out={f}")).unwrap();
        let out = run(&format!("truss in={f} stats=json")).unwrap();
        let rounds: usize = out
            .split("rounds=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| panic!("no rounds= in {out}"));
        let trace = Json::parse(out.lines().last().unwrap()).unwrap();
        assert_eq!(trace.get("algorithm").and_then(Json::as_str), Some("truss"));
        // Round records exist only when telemetry is compiled in.
        #[cfg(feature = "telemetry")]
        {
            let Some(Json::Arr(records)) = trace.get("rounds") else {
                panic!("no round records in {out}");
            };
            assert_eq!(records.len(), rounds, "{out}");
            assert!(records.iter().all(|r| r.get("phase_ns").is_some()), "{out}");
        }
        #[cfg(not(feature = "telemetry"))]
        assert!(rounds > 0);
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn convert_symmetrize() {
        let f1 = tmp("d.bin");
        let f2 = tmp("d.adj");
        run(&format!("gen kind=rmat scale=8 symmetric=false out={f1}")).unwrap();
        let out = run(&format!("convert in={f1} out={f2} symmetrize=true")).unwrap();
        assert!(out.contains("converted"));
        std::fs::remove_file(f1).ok();
        std::fs::remove_file(f2).ok();
    }

    #[test]
    fn triangles_truss_pagerank_pipeline() {
        let f = tmp("t.bin");
        run(&format!("gen kind=rmat scale=9 edge_factor=12 out={f}")).unwrap();
        let t = run(&format!("triangles in={f}")).unwrap();
        assert!(t.contains("triangles="));
        let k = run(&format!("truss in={f}")).unwrap();
        assert!(k.contains("max_truss="));
        let p = run(&format!("pagerank in={f}")).unwrap();
        assert!(p.contains("iterations="));
        let c = run(&format!("clustering in={f}")).unwrap();
        assert!(c.contains("transitivity="));
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn removed_fusion_options_are_unknown_options() {
        // `fusion=` / `fusion_threshold=` were deleted with the fusion
        // wrapper; a script still passing them must be told (exit 2), not
        // silently ignored.
        let f = tmp("nofusion.bin");
        run(&format!("gen kind=rmat scale=8 out={f}")).unwrap();
        for line in [
            format!("kcore in={f} fusion=on"),
            format!("kcore in={f} fusion_threshold=0.5"),
            format!("serve in={f} fusion=on"),
        ] {
            let e = run_classed(&line).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{line}: {e:?}");
            assert!(e.to_string().contains("unknown options"), "{line}: {e}");
        }
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let e = run_classed("frobnicate").unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn error_classes_pick_the_right_exit_code() {
        // Invocation mistakes are usage errors (exit 2): bad option values
        // are knowable from argv alone — even when the input file is also
        // missing, the parameter mistake is reported first.
        for bad in [
            "components in=x.bin backend=zip",
            "components in=x.bin threads=zzz",
            "sssp in=x.gr delta=0",
            "gen kind=nope out=x.bin",
        ] {
            let e = run_classed(bad).unwrap_err();
            assert!(matches!(e, CmdError::Usage(_)), "{bad}: {e:?}");
        }
        // Failures that depend on the filesystem or file contents are
        // runtime errors (exit 1).
        let e = run_classed("components in=/nonexistent/julienne-no-such.bin").unwrap_err();
        assert!(matches!(e, CmdError::Runtime(_)), "{e:?}");
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn empty_graph_is_a_runtime_error() {
        let f = tmp("empty0.bin");
        let fw = tmp("empty0w.bin");
        let g = julienne_graph::builder::from_pairs(0, &[]);
        save(&g, Path::new(&f)).unwrap();
        let gw: Csr<u32> = julienne_graph::builder::EdgeList::new(0).build(false);
        save(&gw, Path::new(&fw)).unwrap();
        // With telemetry requested (the ISSUE's `--stats json` case) and
        // without: the guard fires before any algorithm runs.
        for line in [
            format!("kcore in={f} --stats json"),
            format!("sssp in={fw} --stats json"),
            format!("components in={f}"),
            format!("pagerank in={f}"),
        ] {
            let e = run_classed(&line).unwrap_err();
            assert!(matches!(e, CmdError::Runtime(_)), "{line}: {e:?}");
            assert!(e.to_string().contains("empty"), "{line}: {e}");
        }
        let e = run_classed(&format!("stats in={f}")).unwrap_err();
        assert!(matches!(e, CmdError::Runtime(_)), "{e:?}");
        std::fs::remove_file(f).ok();
        std::fs::remove_file(fw).ok();
    }

    #[test]
    fn help_works() {
        assert!(run("help").unwrap().contains("COMMANDS"));
    }

    #[test]
    fn oversized_scale_is_a_usage_error_not_a_panic() {
        let f = tmp("huge.bin");
        let e = run(&format!("gen kind=rmat scale=99 out={f}")).unwrap_err();
        assert!(e.contains("scale=99"), "{e}");
        assert!(e.contains("too large"), "{e}");
    }

    #[test]
    fn zero_delta_is_a_usage_error_not_a_panic() {
        let f = tmp("zd.bin");
        run(&format!("gen kind=rmat scale=8 weights=log out={f}")).unwrap();
        let e = run(&format!("sssp in={f} delta=0")).unwrap_err();
        assert!(e.contains("delta=0"), "{e}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn bad_damping_is_a_usage_error_not_a_panic() {
        let f = tmp("bd.bin");
        run(&format!("gen kind=rmat scale=8 out={f}")).unwrap();
        for bad in ["damping=1.5", "damping=-0.1", "damping=NaN"] {
            let e = run(&format!("pagerank in={f} {bad}")).unwrap_err();
            assert!(e.contains("damping"), "{bad}: {e}");
        }
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn non_numeric_value_names_the_offending_token() {
        let e = run("gen kind=rmat scale=abc out=x.bin").unwrap_err();
        assert!(e.contains("scale"), "{e}");
        assert!(e.contains("abc"), "{e}");
    }

    #[test]
    fn unknown_algorithm_param_names_the_algorithm() {
        let f = tmp("up.bin");
        run(&format!("gen kind=rmat scale=8 out={f}")).unwrap();
        let e = run_classed(&format!("kcore in={f} bogus=1")).unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        assert!(e.to_string().contains("kcore"), "{e}");
        assert!(e.to_string().contains("bogus"), "{e}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn expired_cli_deadline_is_a_runtime_error() {
        let f = tmp("ddl.bin");
        run(&format!("gen kind=rmat scale=9 out={f}")).unwrap();
        // timeout_ms=0 is an already-expired deadline: deterministic.
        let e = run_classed(&format!("kcore in={f} timeout_ms=0")).unwrap_err();
        assert!(matches!(e, CmdError::Runtime(_)), "{e:?}");
        assert!(e.to_string().contains("deadline"), "{e}");
        // Without the option the same invocation succeeds.
        run(&format!("kcore in={f}")).unwrap();
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn compressed_backend_output_is_byte_identical() {
        let f = tmp("be.bin");
        let fw = tmp("bew.bin");
        run(&format!("gen kind=rmat scale=9 out={f}")).unwrap();
        run(&format!("gen kind=rmat scale=9 weights=log out={fw}")).unwrap();
        // The four paper applications, at 1 and 4 threads: identical output
        // on both representations.
        for threads in [1usize, 4] {
            for cmd in [
                format!("kcore in={f}"),
                format!("sssp in={fw} algo=wbfs"),
                format!("sssp in={fw} algo=delta"),
                "setcover sets=64 elements=2000 seed=5".to_string(),
            ] {
                let csr = run(&format!("{cmd} threads={threads}")).unwrap();
                let comp = run(&format!("{cmd} threads={threads} backend=compressed")).unwrap();
                assert_eq!(csr, comp, "{cmd} threads={threads}");
            }
        }
        // The remaining graph commands accept the option too.
        for cmd in [
            format!("components in={f}"),
            format!("triangles in={f}"),
            format!("pagerank in={f}"),
        ] {
            let csr = run(&cmd).unwrap();
            let comp = run(&format!("{cmd} backend=compressed")).unwrap();
            assert_eq!(csr, comp, "{cmd}");
        }
        // A typo is rejected by every command, even ones that ignore it.
        let e = run(&format!("stats in={f} backend=zip")).unwrap_err();
        assert!(e.contains("backend"), "{e}");
        std::fs::remove_file(f).ok();
        std::fs::remove_file(fw).ok();
    }

    #[test]
    fn convert_text_to_container_and_back_is_identity() {
        let f = tmp("cc.el");
        let j = tmp("cc.jgr");
        let back = tmp("cc-back.el");
        run(&format!("gen kind=rmat scale=8 out={f}")).unwrap();
        let r = run(&format!("convert in={f} out={j} verify=true")).unwrap();
        assert!(r.contains("format=jgr"), "{r}");
        assert!(r.contains("verified"), "{r}");
        run(&format!("convert in={j} out={back}")).unwrap();
        assert_eq!(
            std::fs::read_to_string(&f).unwrap(),
            std::fs::read_to_string(&back).unwrap(),
            "text -> .jgr -> text must be the identity"
        );
        for p in [f, j, back] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn convert_options_are_validated() {
        let f = tmp("cv.el");
        run(&format!("gen kind=rmat scale=7 out={f}")).unwrap();
        // compressed_payload only makes sense for container output.
        let e = run(&format!(
            "convert in={f} out=/tmp/x.bin compressed_payload=true"
        ))
        .unwrap_err();
        assert!(e.contains("compressed_payload"), "{e}");
        // Unknown output extension is a usage error naming the options.
        let e = run_classed(&format!("convert in={f} out=/tmp/x.xyz")).unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        assert!(e.to_string().contains(".jgr"), "{e}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn mapped_backend_requires_a_container() {
        let f = tmp("mpreq.bin");
        run(&format!("gen kind=rmat scale=7 out={f}")).unwrap();
        let e = run_classed(&format!("kcore in={f} backend=mapped")).unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        assert!(e.to_string().contains("convert"), "{e}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn mapped_backend_output_is_byte_identical() {
        let f = tmp("mb.bin");
        let j = tmp("mb.jgr");
        let fw = tmp("mbw.bin");
        let jw = tmp("mbw.jgr");
        run(&format!("gen kind=rmat scale=9 out={f}")).unwrap();
        run(&format!("gen kind=rmat scale=9 weights=log out={fw}")).unwrap();
        run(&format!("convert in={f} out={j} compressed_payload=true")).unwrap();
        run(&format!(
            "convert in={fw} out={jw} weighted=true compressed_payload=true"
        ))
        .unwrap();
        for (csr_cmd, jgr_cmd) in [
            (format!("kcore in={f}"), format!("kcore in={j}")),
            (format!("components in={f}"), format!("components in={j}")),
            (format!("pagerank in={f}"), format!("pagerank in={j}")),
            (
                format!("sssp in={fw} algo=delta"),
                format!("sssp in={jw} algo=delta"),
            ),
        ] {
            let base = run(&csr_cmd).unwrap();
            // The same container answers all three backends identically:
            // CSR (materialized), compressed (payload loaded verbatim),
            // and mapped (zero-copy).
            for backend in ["csr", "compressed", "mapped"] {
                let got = run(&format!("{jgr_cmd} backend={backend}")).unwrap();
                assert_eq!(base, got, "{jgr_cmd} backend={backend}");
            }
        }
        for p in [f, j, fw, jw] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn stats_reports_memory_footprint() {
        let f = tmp("mf.bin");
        run(&format!("gen kind=rmat scale=9 out={f}")).unwrap();
        let s = run(&format!("stats in={f}")).unwrap();
        assert!(s.contains("memory: csr="), "{s}");
        assert!(s.contains("B/edge"), "{s}");
        assert!(s.contains("ratio="), "{s}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn global_threads_option_is_accepted_by_any_command() {
        let f = tmp("th.bin");
        run(&format!("gen kind=rmat scale=8 out={f} threads=2")).unwrap();
        let out = run(&format!("components in={f} threads=1")).unwrap();
        assert!(out.contains("components="), "{out}");
        let e = run(&format!("components in={f} threads=zzz")).unwrap_err();
        assert!(e.contains("threads"), "{e}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn serve_requires_an_existing_input() {
        let e = run_classed("serve in=/nonexistent/julienne-no-such.bin").unwrap_err();
        assert!(matches!(e, CmdError::Runtime(_)), "{e:?}");
    }

    #[test]
    fn query_subcommand_talks_to_a_live_server() {
        use julienne_graph::generators::rmat;
        use julienne_graph::transform::assign_weights;
        let g = assign_weights(&rmat(7, 8, RmatParams::default(), 5, true), 1, 64, 9);
        let store = GraphStore::from_weighted(g, Backend::Csr);
        let server = Server::bind("127.0.0.1:0", &Engine::default(), store).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || server.serve().unwrap());

        // A served answer is byte-identical to the direct command's report
        // body (same registry entry on both paths).
        let out = run(&format!("query addr={addr} algo=kcore top=2")).unwrap();
        assert!(out.contains("k_max="), "{out}");

        // `param.` prefix escapes collisions with the subcommand's own
        // options: sssp's variant selector is also spelled `algo=`.
        let out = run(&format!(
            "query addr={addr} algo=sssp param.algo=wbfs src=2"
        ))
        .unwrap();
        assert!(out.contains("reached="), "{out}");

        // Server-side error classes survive the wire: usage stays exit 2...
        let e = run_classed(&format!("query addr={addr} algo=frobnicate")).unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        assert_eq!(e.exit_code(), 2);

        // ...and an expired deadline is a runtime error naming the class.
        let e = run_classed(&format!("query addr={addr} algo=kcore timeout_ms=0")).unwrap_err();
        assert!(matches!(e, CmdError::Runtime(_)), "{e:?}");
        assert!(e.to_string().contains("deadline"), "{e}");

        let ack = run(&format!("query addr={addr} cancel=q7")).unwrap();
        assert!(ack.contains("q7"), "{ack}");

        let bye = run(&format!("query addr={addr} shutdown=true")).unwrap();
        assert!(bye.contains("shutdown"), "{bye}");
        join.join().unwrap();

        // With the server gone, queries are runtime (connection) errors.
        let e = run_classed(&format!("query addr={addr} algo=kcore")).unwrap_err();
        assert!(matches!(e, CmdError::Runtime(_)), "{e:?}");
    }

    #[test]
    fn update_subcommand_rewrites_offline() {
        use julienne_graph::builder::from_pairs_symmetric;
        let f = tmp("upd-in.bin");
        let f2 = tmp("upd-out.bin");
        let g = from_pairs_symmetric(4, &[(0, 1), (1, 2)]);
        save(&g, Path::new(&f)).unwrap();
        // Self-loop 0-0 is dropped; the other ops all take effect, mirrored.
        let out = run(&format!("update in={f} out={f2} insert=2-3,0-0 delete=0-1")).unwrap();
        assert!(out.contains("epoch=1 applied=4 n=4 m=4"), "{out}");
        let after: Graph = load(Path::new(&f2)).unwrap();
        assert_eq!(after.neighbors(0), &[] as &[u32]);
        assert_eq!(after.neighbors(1), &[2]);
        assert_eq!(after.neighbors(2), &[1, 3]);
        assert_eq!(after.neighbors(3), &[2]);
        std::fs::remove_file(f).ok();
        std::fs::remove_file(f2).ok();
    }

    #[test]
    fn update_subcommand_validates_its_arguments() {
        let e = run_classed("update addr=127.0.0.1:1").unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        let e = run_classed("update addr=127.0.0.1:1 insert=0:1").unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        let e = run_classed("serve in=x mutable=true weighted=true").unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
        let e = run_classed("serve in=x mutable=true backend=compressed").unwrap_err();
        assert!(matches!(e, CmdError::Usage(_)), "{e:?}");
    }

    #[test]
    fn update_subcommand_mutates_a_live_server() {
        use julienne_graph::builder::from_pairs_symmetric;
        // Path 0-1-2-3-4 has k_max=1; closing the cycle raises it to 2.
        let g = from_pairs_symmetric(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let store = GraphStore::dynamic(std::sync::Arc::new(DynamicStore::from_graph(g)));
        let server = Server::bind("127.0.0.1:0", &Engine::default(), store).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || server.serve().unwrap());

        let before = run(&format!("query addr={addr} algo=kcore")).unwrap();
        assert!(before.contains("k_max=1"), "{before}");
        let rep = run(&format!("update addr={addr} insert=4-0")).unwrap();
        assert!(rep.contains("epoch=1 applied=2"), "{rep}");
        let after = run(&format!("query addr={addr} algo=kcore")).unwrap();
        assert!(after.contains("k_max=2"), "{after}");

        run(&format!("query addr={addr} shutdown=true")).unwrap();
        join.join().unwrap();

        // An immutable server refuses mutations with an input error.
        let static_store = GraphStore::from_graph(from_pairs_symmetric(3, &[(0, 1)]), Backend::Csr);
        let server = Server::bind("127.0.0.1:0", &Engine::default(), static_store).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || server.serve().unwrap());
        let e = run_classed(&format!("update addr={addr} insert=0-2")).unwrap_err();
        assert!(e.to_string().contains("not mutable"), "{e}");
        run(&format!("query addr={addr} shutdown=true")).unwrap();
        join.join().unwrap();
    }
}
