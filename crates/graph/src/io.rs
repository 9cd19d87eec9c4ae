//! Graph I/O behind one surface: [`GraphIo::read`] / [`GraphIo::write`]
//! with a [`Format`] enum and auto-detection.
//!
//! The supported formats are Ligra adjacency text, whitespace edge lists,
//! DIMACS `.gr`, METIS, a legacy length-prefixed binary format, and the
//! zero-copy [`crate::container`] (`.jgr`). Format selection is explicit
//! via [`IoOptions::format`] or automatic: extension first, then magic
//! bytes for extensionless/unknown paths (reads only — a write with an
//! unrecognized extension is a usage error, since there is nothing to
//! sniff).
//!
//! Every reader and writer returns the workspace [`Error`] enum: OS-level
//! failures surface as [`Error::Io`] with the path attached, malformed
//! content as [`Error::Parse`] with the path and (for line-oriented
//! formats) the 1-based line of the offending record. Callers — the CLI,
//! the query server — render or classify these without re-parsing strings.
//!
//! Until PR 6 this module exported ten loose `read_*`/`write_*` free
//! functions; they survive as private helpers behind [`GraphIo`], which is
//! the only public entry point.

use crate::builder::EdgeList;
use crate::csr::{Csr, Weight};
use crate::VertexId;
use bytes::{Buf, BufMut};
use julienne_primitives::error::Error;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write as _};
use std::path::Path;

/// On-disk graph formats [`GraphIo`] can read and write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Ligra `AdjacencyGraph` / `WeightedAdjacencyGraph` text (`.adj`).
    Adjacency,
    /// Whitespace edge list, `u v [w]` per line (`.el`, `.txt`).
    EdgeList,
    /// DIMACS shortest-path challenge (`.gr`) — weighted only.
    Dimacs,
    /// METIS adjacency (`.metis`, `.graph`) — undirected only.
    Metis,
    /// Legacy length-prefixed binary (`.bin`).
    Binary,
    /// Zero-copy mmap container (`.jgr`); see [`crate::container`].
    Container,
}

impl Format {
    /// The canonical CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Format::Adjacency => "adj",
            Format::EdgeList => "el",
            Format::Dimacs => "dimacs",
            Format::Metis => "metis",
            Format::Binary => "bin",
            Format::Container => "jgr",
        }
    }

    /// Parses a user-supplied format name (CLI `format=` values).
    pub fn parse(s: &str) -> Result<Format, Error> {
        match s {
            "adj" | "adjacency" => Ok(Format::Adjacency),
            "el" | "edgelist" | "txt" => Ok(Format::EdgeList),
            "gr" | "dimacs" => Ok(Format::Dimacs),
            "metis" | "graph" => Ok(Format::Metis),
            "bin" | "binary" => Ok(Format::Binary),
            "jgr" | "container" => Ok(Format::Container),
            other => Err(Error::usage(format!(
                "unknown graph format {other:?} (expected adj, el, dimacs, metis, bin, or jgr)"
            ))),
        }
    }

    /// Maps a file extension to a format, if recognized.
    pub fn from_extension(path: &Path) -> Option<Format> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("adj") => Some(Format::Adjacency),
            Some("el") | Some("txt") => Some(Format::EdgeList),
            Some("gr") => Some(Format::Dimacs),
            Some("metis") | Some("graph") => Some(Format::Metis),
            Some("bin") => Some(Format::Binary),
            Some("jgr") => Some(Format::Container),
            _ => None,
        }
    }

    /// Identifies an existing file by its leading bytes: the `.jgr` and
    /// binary magics, the Ligra adjacency headers, and the DIMACS `p sp`
    /// problem line (scanning past any leading `c` comment lines, since
    /// plain text starting with a word in 'c' is not DIMACS). Returns
    /// `Ok(None)` when nothing matches (edge lists and METIS have no
    /// reliable signature).
    pub fn sniff(path: &Path) -> Result<Option<Format>, Error> {
        let mut head = [0u8; 24];
        let mut f = File::open(path).map_err(|e| Error::io_at(path, e))?;
        let got = {
            let mut filled = 0;
            loop {
                match f.read(&mut head[filled..]) {
                    Ok(0) => break filled,
                    Ok(k) => filled += k,
                    Err(e) => return Err(Error::io_at(path, e)),
                }
            }
        };
        let head = &head[..got];
        if head.starts_with(&crate::container::MAGIC) {
            return Ok(Some(Format::Container));
        }
        if head.len() >= 8 && head[0..8] == BINARY_MAGIC.to_le_bytes() {
            return Ok(Some(Format::Binary));
        }
        if head.starts_with(b"AdjacencyGraph") || head.starts_with(b"WeightedAdjacencyGraph") {
            return Ok(Some(Format::Adjacency));
        }
        if head.starts_with(b"p sp ") {
            return Ok(Some(Format::Dimacs));
        }
        if head.starts_with(b"c ") || head.starts_with(b"c\n") || head.starts_with(b"c\r\n") {
            return Ok(Self::sniff_dimacs_past_comments(f));
        }
        Ok(None)
    }

    /// The file opens like a DIMACS comment; it only *is* DIMACS if a
    /// `p sp` problem line follows the comment block. The scan is bounded
    /// so a large non-DIMACS text file stays cheap to reject.
    fn sniff_dimacs_past_comments(mut f: File) -> Option<Format> {
        use std::io::Seek as _;
        if f.rewind().is_err() {
            return None;
        }
        let mut lines = BufReader::new(f).lines();
        for _ in 0..1024 {
            // Read errors (including non-UTF-8 bytes) mean "not DIMACS",
            // not a hard failure — detect() falls through to its usage
            // error.
            let Some(Ok(line)) = lines.next() else {
                return None;
            };
            let line = line.trim_start();
            if line.is_empty() || line == "c" || line.starts_with("c ") {
                continue;
            }
            return line.starts_with("p sp ").then_some(Format::Dimacs);
        }
        None
    }

    /// Detects the format of an existing file: extension first, then magic
    /// bytes. A usage error when neither recognizes the file.
    pub fn detect(path: &Path) -> Result<Format, Error> {
        if let Some(fmt) = Format::from_extension(path) {
            return Ok(fmt);
        }
        if let Some(fmt) = Format::sniff(path)? {
            return Ok(fmt);
        }
        Err(Error::usage(format!(
            "cannot determine the graph format of {} (use a .adj/.el/.gr/.metis/.bin/.jgr \
             extension or pass format= explicitly)",
            path.display()
        )))
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Options for [`GraphIo`] — a params struct in the registry style, so new
/// knobs don't churn every call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoOptions {
    /// Explicit format; `None` auto-detects (extension, then magic bytes).
    pub format: Option<Format>,
    /// Edge lists: explicit vertex count (otherwise inferred as
    /// `1 + max id`, and an empty file is a parse error).
    pub vertices: Option<usize>,
    /// Edge lists: symmetrize while building (add both directions).
    pub symmetric: bool,
    /// Container writes: also embed the Ligra+ byte-compressed payload so
    /// `backend=compressed` loads skip re-encoding.
    pub compressed_payload: bool,
}

/// The unified graph I/O surface. Stateless — the methods are associated
/// functions; all knobs live in [`IoOptions`].
pub struct GraphIo;

impl GraphIo {
    /// Reads a graph with weight type `W` from `path`, auto-detecting the
    /// format unless [`IoOptions::format`] is set. Weightedness must match
    /// `W` for formats that record it; DIMACS is inherently weighted and
    /// rejects `W = ()` as a usage error.
    pub fn read<W: Weight>(path: &Path, opts: &IoOptions) -> Result<Csr<W>, Error> {
        let fmt = match opts.format {
            Some(f) => f,
            None => Format::detect(path)?,
        };
        match fmt {
            Format::Adjacency => read_adjacency_graph(path),
            Format::EdgeList => read_edge_list(path, opts.vertices, opts.symmetric),
            Format::Metis => read_metis(path),
            Format::Binary => read_binary(path),
            Format::Container => {
                let mg: crate::container::MappedGraph<W> =
                    crate::container::MappedGraph::open(path)?;
                mg.to_csr().map_err(|e| e.with_path(path))
            }
            Format::Dimacs => {
                if W::IS_UNIT {
                    return Err(Error::usage(
                        "DIMACS files are weighted; use a weighted command",
                    ));
                }
                // Round-trip through u64 encoding to reuse the typed reader.
                read_dimacs(path).map(|g| {
                    Csr::from_parts(
                        g.offsets().to_vec(),
                        g.targets().to_vec(),
                        g.weights().iter().map(|&w| W::from_u64(w as u64)).collect(),
                        g.is_symmetric(),
                    )
                })
            }
        }
    }

    /// Writes `g` to `path`. The format comes from [`IoOptions::format`] or
    /// the extension; sniffing does not apply to writes, so an unknown
    /// extension without an explicit format is a usage error.
    pub fn write<W: Weight>(g: &Csr<W>, path: &Path, opts: &IoOptions) -> Result<(), Error> {
        let fmt = match opts.format.or_else(|| Format::from_extension(path)) {
            Some(f) => f,
            None => {
                return Err(Error::usage(format!(
                    "cannot determine the output format of {} (use a .adj/.el/.gr/.metis/.bin/\
                     .jgr extension or pass format= explicitly)",
                    path.display()
                )))
            }
        };
        match fmt {
            Format::Adjacency => write_adjacency_graph(g, path),
            Format::EdgeList => write_edge_list(g, path),
            Format::Metis => write_metis(g, path),
            Format::Binary => write_binary(g, path),
            Format::Container => crate::container::write(
                g,
                path,
                &crate::container::ContainerWriteOptions {
                    compressed_payload: opts.compressed_payload,
                },
            ),
            Format::Dimacs => {
                if W::IS_UNIT {
                    return Err(Error::usage("DIMACS output requires a weighted graph"));
                }
                let wg: Csr<u32> = Csr::from_parts(
                    g.offsets().to_vec(),
                    g.targets().to_vec(),
                    g.weights().iter().map(|w| w.to_u64() as u32).collect(),
                    g.is_symmetric(),
                );
                write_dimacs(&wg, path)
            }
        }
    }
}

/// Vertices a text file may declare (DIMACS `p sp n m`) or imply (an edge
/// list's largest id + 1) regardless of its length.
pub const VERTEX_ALLOWANCE: u64 = 1 << 20;

/// Vertices a text file may declare or imply per byte of its length, on
/// top of [`VERTEX_ALLOWANCE`].
///
/// A vertex costs the CSR build a few machine words even when no edge names
/// it, so a count the file never pays for in bytes (`p sp 4000000000 0` is
/// 18 bytes) would allocate tens of gigabytes. With this bound a file of `L`
/// bytes loads into at most a constant times
/// `VERTEX_ALLOWANCE + VERTICES_PER_FILE_BYTE · L` words. Isolated vertices
/// beyond the ids the edges name are allowed up to the bound. A vertex count
/// the caller gives explicitly ([`IoOptions::vertices`]) is not limited.
pub const VERTICES_PER_FILE_BYTE: u64 = 16;

/// Refuses a vertex count `n` that a file of `file_len` bytes declares or
/// implies beyond `VERTEX_ALLOWANCE + VERTICES_PER_FILE_BYTE · file_len`.
fn check_vertex_count(n: usize, file_len: u64) -> Result<(), String> {
    let bound = VERTEX_ALLOWANCE.saturating_add(VERTICES_PER_FILE_BYTE.saturating_mul(file_len));
    if n as u64 > bound {
        return Err(format!(
            "{n} vertices is more than a {file_len}-byte file may claim ({bound}); \
             pass an explicit vertex count to load it"
        ));
    }
    Ok(())
}

fn file_len(path: &Path) -> Result<u64, Error> {
    Ok(std::fs::metadata(path)
        .map_err(|e| Error::io_at(path, e))?
        .len())
}

/// A line source that tracks the 1-based line number for error positioning.
struct Lines<'p> {
    inner: io::Lines<BufReader<File>>,
    path: &'p Path,
    lineno: usize,
    /// Bytes of the lines read so far, counting one terminator each.
    bytes: u64,
}

impl<'p> Lines<'p> {
    fn open(path: &'p Path) -> Result<Self, Error> {
        let file = File::open(path).map_err(|e| Error::io_at(path, e))?;
        Ok(Lines {
            inner: BufReader::new(file).lines(),
            path,
            lineno: 0,
            bytes: 0,
        })
    }

    /// The next line, or a positioned parse error naming `what` was missing.
    fn next(&mut self, what: &str) -> Result<String, Error> {
        self.lineno += 1;
        match self.inner.next() {
            None => Err(Error::parse_at(
                self.path,
                self.lineno,
                format!("unexpected end of file (expected {what})"),
            )),
            Some(Err(e)) => Err(Error::io_at(self.path, e)),
            Some(Ok(s)) => {
                self.bytes += s.len() as u64 + 1;
                Ok(s)
            }
        }
    }

    /// A parse error positioned at the line most recently read.
    fn bad(&self, msg: impl Into<String>) -> Error {
        Error::parse_at(self.path, self.lineno, msg)
    }
}

/// Writes `g` in Ligra's `AdjacencyGraph` / `WeightedAdjacencyGraph` text
/// format.
fn write_adjacency_graph<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    let write = || -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        if W::IS_UNIT {
            writeln!(out, "AdjacencyGraph")?;
        } else {
            writeln!(out, "WeightedAdjacencyGraph")?;
        }
        writeln!(out, "{}", g.num_vertices())?;
        writeln!(out, "{}", g.num_edges())?;
        for v in 0..g.num_vertices() {
            writeln!(out, "{}", g.offsets()[v])?;
        }
        for &t in g.targets() {
            writeln!(out, "{t}")?;
        }
        if !W::IS_UNIT {
            for &w in g.weights() {
                writeln!(out, "{}", w.to_u64())?;
            }
        }
        out.flush()
    };
    write().map_err(|e| Error::io_at(path, e))
}

/// Reads a Ligra `AdjacencyGraph` / `WeightedAdjacencyGraph` text file.
fn read_adjacency_graph<W: Weight>(path: &Path) -> Result<Csr<W>, Error> {
    let mut src = Lines::open(path)?;
    let header = src.next("header")?;
    let weighted = match header.trim() {
        "AdjacencyGraph" => false,
        "WeightedAdjacencyGraph" => true,
        other => return Err(src.bad(format!("unknown header {other:?}"))),
    };
    if weighted == W::IS_UNIT {
        return Err(src.bad("weightedness of file does not match requested graph type"));
    }
    let n: usize = {
        let s = src.next("vertex count")?;
        s.trim()
            .parse()
            .map_err(|e| src.bad(format!("vertex count: {e}")))?
    };
    let m: usize = {
        let s = src.next("edge count")?;
        s.trim()
            .parse()
            .map_err(|e| src.bad(format!("edge count: {e}")))?
    };
    // Bound both counts by the bytes left before allocating for them: each
    // offset, target and weight is a line of its own, so at least a digit
    // and a newline (which the last line may go without).
    let left = file_len(path)?.saturating_sub(src.bytes);
    let per_edge = if weighted { 2 } else { 1 };
    let need = m
        .checked_mul(per_edge)
        .and_then(|v| v.checked_add(n))
        .and_then(|v| v.checked_mul(2));
    if need.is_none_or(|need| need as u64 > left + 1) {
        return Err(src.bad(format!(
            "header claims {n} vertices and {m} edges, but only {left} bytes follow it"
        )));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..n {
        let s = src.next("offset")?;
        offsets.push(
            s.trim()
                .parse::<u64>()
                .map_err(|e| src.bad(format!("offset: {e}")))?,
        );
    }
    offsets.push(m as u64);
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        let s = src.next("edge")?;
        targets.push(
            s.trim()
                .parse::<VertexId>()
                .map_err(|e| src.bad(format!("edge target: {e}")))?,
        );
    }
    let mut weights = Vec::with_capacity(if weighted { m } else { 0 });
    if weighted {
        for _ in 0..m {
            let s = src.next("weight")?;
            let w: u64 = s
                .trim()
                .parse()
                .map_err(|e| src.bad(format!("weight: {e}")))?;
            weights.push(W::from_u64(w));
        }
    }
    Csr::try_from_parts(offsets, targets, weights, false)
        .map_err(|msg| Error::parse(format!("inconsistent adjacency data: {msg}")).with_path(path))
}

/// Writes a whitespace edge list (`u v` or `u v w` per line).
fn write_edge_list<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    let write = || -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for u in 0..g.num_vertices() as VertexId {
            for (v, w) in g.edges_of(u) {
                if W::IS_UNIT {
                    writeln!(out, "{u} {v}")?;
                } else {
                    writeln!(out, "{u} {v} {}", w.to_u64())?;
                }
            }
        }
        out.flush()
    };
    write().map_err(|e| Error::io_at(path, e))
}

/// Reads a whitespace edge list; lines starting with `#` or `%` are
/// comments. `n` is inferred as `1 + max id` unless given.
///
/// Errors with [`Error::Parse`] if the file contains no edges and `n` was
/// not supplied (there is no defensible vertex count to infer — the old
/// behaviour silently produced a bogus 1-vertex graph), or if any endpoint
/// is `>= n` for a user-supplied `n` (those edges previously survived until
/// an out-of-bounds index deep inside CSR construction).
fn read_edge_list<W: Weight>(
    path: &Path,
    n: Option<usize>,
    symmetric: bool,
) -> Result<Csr<W>, Error> {
    let reader = BufReader::new(File::open(path).map_err(|e| Error::io_at(path, e))?);
    let mut edges: Vec<(VertexId, VertexId, W)> = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::io_at(path, e))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let bad = || Error::parse_at(path, lineno + 1, format!("bad edge line: {line:?}"));
        let u: VertexId = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let v: VertexId = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let w = if W::IS_UNIT {
            W::default()
        } else {
            let raw: u64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            W::from_u64(raw)
        };
        if let Some(n) = n {
            if u as usize >= n || v as usize >= n {
                return Err(Error::parse_at(
                    path,
                    lineno + 1,
                    format!("edge ({u}, {v}) references a vertex >= n = {n}"),
                ));
            }
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    if edges.is_empty() && n.is_none() {
        return Err(Error::Parse {
            path: Some(path.to_path_buf()),
            line: None,
            msg: "file contains no edges; pass an explicit vertex count to load an \
                  edgeless graph"
                .to_string(),
        });
    }
    let n = match n {
        Some(n) => n,
        None => {
            let implied = max_id as usize + 1;
            check_vertex_count(implied, file_len(path)?)
                .map_err(|msg| Error::parse(msg).with_path(path))?;
            implied
        }
    };
    let mut el = EdgeList::new(n);
    el.edges = edges;
    Ok(if symmetric {
        el.build_symmetric()
    } else {
        el.build(false)
    })
}

/// Writes a DIMACS shortest-path challenge `.gr` file (1-indexed, weighted).
fn write_dimacs(g: &Csr<u32>, path: &Path) -> Result<(), Error> {
    let write = || -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "c generated by julienne-graph")?;
        writeln!(out, "p sp {} {}", g.num_vertices(), g.num_edges())?;
        for u in 0..g.num_vertices() as VertexId {
            for (v, w) in g.edges_of(u) {
                writeln!(out, "a {} {} {w}", u + 1, v + 1)?;
            }
        }
        out.flush()
    };
    write().map_err(|e| Error::io_at(path, e))
}

/// Reads a DIMACS `.gr` file.
fn read_dimacs(path: &Path) -> Result<Csr<u32>, Error> {
    let reader = BufReader::new(File::open(path).map_err(|e| Error::io_at(path, e))?);
    let mut n = 0usize;
    // The `p` line's arc count and its line number.
    let mut header = (0usize, 0usize);
    let mut edges: Vec<(VertexId, VertexId, u32)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::io_at(path, e))?;
        let bad = |msg: &str| Error::parse_at(path, lineno + 1, msg);
        let mut it = line.split_whitespace();
        match it.next() {
            Some("c") | None => {}
            Some("p") => {
                let _sp = it.next();
                n = it
                    .next()
                    .ok_or_else(|| bad("p line is missing the vertex count"))?
                    .parse()
                    .map_err(|_| bad("p line has a non-numeric vertex count"))?;
                if n > VertexId::MAX as usize {
                    return Err(bad("vertex count exceeds the 32-bit id space"));
                }
                check_vertex_count(n, file_len(path)?).map_err(|msg| bad(&msg))?;
                let m = it
                    .next()
                    .ok_or_else(|| bad("p line is missing the arc count"))?
                    .parse()
                    .map_err(|_| bad("p line has a non-numeric arc count"))?;
                header = (m, lineno + 1);
            }
            Some("a") => {
                let u: u32 = it
                    .next()
                    .ok_or_else(|| bad("arc line is missing its tail"))?
                    .parse()
                    .map_err(|_| bad("arc tail is not a number"))?;
                let v: u32 = it
                    .next()
                    .ok_or_else(|| bad("arc line is missing its head"))?
                    .parse()
                    .map_err(|_| bad("arc head is not a number"))?;
                let w: u32 = it
                    .next()
                    .ok_or_else(|| bad("arc line is missing its weight"))?
                    .parse()
                    .map_err(|_| bad("arc weight is not a number"))?;
                if u == 0 || v == 0 || u as usize > n || v as usize > n {
                    return Err(bad("DIMACS ids are 1-indexed and ≤ n"));
                }
                if edges.len() == header.0 {
                    return Err(bad("more arcs than the p line promised"));
                }
                edges.push((u - 1, v - 1, w));
            }
            Some(_) => {}
        }
    }
    let (m, p_line) = header;
    if edges.len() != m {
        let msg = format!(
            "the p line promised {m} arcs but the file has {}",
            edges.len()
        );
        return Err(Error::parse_at(path, p_line, msg));
    }
    let mut el = EdgeList::new(n);
    el.edges = edges;
    Ok(el.build(false))
}

/// Writes a METIS graph file (1-indexed adjacency lines; header
/// `n m [fmt]`, where undirected edges are listed from both endpoints).
/// Requires a symmetric graph; weighted graphs use fmt `001` (edge
/// weights).
fn write_metis<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    if !g.is_symmetric() {
        return Err(Error::input(
            "METIS files describe undirected graphs; symmetrize first",
        ));
    }
    let write = || -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let m_und = g.num_edges() / 2;
        if W::IS_UNIT {
            writeln!(out, "{} {}", g.num_vertices(), m_und)?;
        } else {
            writeln!(out, "{} {} 001", g.num_vertices(), m_und)?;
        }
        for v in 0..g.num_vertices() as VertexId {
            let mut first = true;
            for (u, w) in g.edges_of(v) {
                if !first {
                    write!(out, " ")?;
                }
                first = false;
                if W::IS_UNIT {
                    write!(out, "{}", u + 1)?;
                } else {
                    write!(out, "{} {}", u + 1, w.to_u64())?;
                }
            }
            writeln!(out)?;
        }
        out.flush()
    };
    write().map_err(|e| Error::io_at(path, e))
}

/// Reads a METIS graph file (plain or `001` edge-weighted).
fn read_metis<W: Weight>(path: &Path) -> Result<Csr<W>, Error> {
    let reader = BufReader::new(File::open(path).map_err(|e| Error::io_at(path, e))?);
    let mut header: Option<(usize, usize, bool)> = None;
    let mut header_line = 0usize;
    let mut el = EdgeList::new(0);
    let mut v = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::io_at(path, e))?;
        if line.trim_start().starts_with('%') {
            continue; // Comment lines start with '%'.
        }
        let bad = |msg: &str| Error::parse_at(path, lineno + 1, msg);
        let Some((n, _m_und, weighted)) = header else {
            let mut hp = line.split_whitespace();
            let n: usize = hp
                .next()
                .ok_or_else(|| bad("header is missing the vertex count"))?
                .parse()
                .map_err(|_| bad("header vertex count is not a number"))?;
            if n > VertexId::MAX as usize {
                return Err(bad("vertex count exceeds the 32-bit id space"));
            }
            let m_und: usize = hp
                .next()
                .ok_or_else(|| bad("header is missing the edge count"))?
                .parse()
                .map_err(|_| bad("header edge count is not a number"))?;
            let fmt = hp.next().unwrap_or("0");
            let weighted = fmt.ends_with('1');
            if weighted == W::IS_UNIT {
                return Err(bad("weightedness of METIS file does not match graph type"));
            }
            header = Some((n, m_und, weighted));
            header_line = lineno + 1;
            el = EdgeList::new(n);
            continue;
        };
        if v >= n {
            break;
        }
        let mut it = line.split_whitespace();
        while let Some(tok) = it.next() {
            let u: usize = tok
                .parse()
                .map_err(|_| bad("neighbor id is not a number"))?;
            if u == 0 || u > n {
                return Err(bad("METIS ids are 1-indexed and ≤ n"));
            }
            let w = if weighted {
                let raw: u64 = it
                    .next()
                    .ok_or_else(|| bad("missing edge weight"))?
                    .parse()
                    .map_err(|_| bad("edge weight is not a number"))?;
                W::from_u64(raw)
            } else {
                W::default()
            };
            el.push(v as VertexId, (u - 1) as VertexId, w);
        }
        v += 1;
    }
    let Some((n, m_und, _)) = header else {
        return Err(Error::Parse {
            path: Some(path.to_path_buf()),
            line: None,
            msg: "empty file".to_string(),
        });
    };
    if v < n {
        let msg = format!("the header promised {n} vertices but the file has {v} adjacency lines");
        return Err(Error::parse_at(path, header_line, msg));
    }
    let g = el.build(true);
    // Tolerate duplicate/self-loop cleanup shrinking the count.
    if g.num_edges() > 2 * m_und {
        return Err(Error::parse("more edges than the header promised").with_path(path));
    }
    Ok(g)
}

const BINARY_MAGIC: u64 = 0x4A55_4C49_454E_4E45; // "JULIENNE"
/// Legacy binary format version. Version 1 files (pre-PR 6) carried no
/// version field at all; the u32 that now follows the magic lands on the
/// low half of what was the vertex count, so old files surface as an
/// "unsupported version" parse error instead of a garbage graph.
const BINARY_VERSION: u32 = 2;

/// Writes the fast binary format (little-endian, length-prefixed arrays).
fn write_binary<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    let mut buf: Vec<u8> = Vec::with_capacity(32 + 8 * g.num_vertices() + 4 * g.num_edges());
    buf.put_u64_le(BINARY_MAGIC);
    buf.put_u32_le(BINARY_VERSION);
    buf.put_u64_le(g.num_vertices() as u64);
    buf.put_u64_le(g.num_edges() as u64);
    buf.put_u8(u8::from(g.is_symmetric()));
    buf.put_u8(u8::from(!W::IS_UNIT));
    for &o in g.offsets() {
        buf.put_u64_le(o);
    }
    for &t in g.targets() {
        buf.put_u32_le(t);
    }
    if !W::IS_UNIT {
        for &w in g.weights() {
            buf.put_u64_le(w.to_u64());
        }
    }
    let write = || -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&buf)?;
        out.flush()
    };
    write().map_err(|e| Error::io_at(path, e))
}

/// Reads the fast binary format.
fn read_binary<W: Weight>(path: &Path) -> Result<Csr<W>, Error> {
    let mut raw = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| Error::io_at(path, e))?;
    let mut buf: &[u8] = &raw;
    let bad = |msg: String| Error::parse(msg).with_path(path);
    if buf.remaining() < 8 || buf.get_u64_le() != BINARY_MAGIC {
        return Err(bad("not a julienne binary graph (bad magic)".into()));
    }
    if buf.remaining() < 4 {
        return Err(bad("truncated file (no version field)".into()));
    }
    let version = buf.get_u32_le();
    if version != BINARY_VERSION {
        return Err(bad(format!(
            "unsupported binary version {version} (this build reads version {BINARY_VERSION}; \
             re-export pre-PR-6 files with `julienne convert`)"
        )));
    }
    if buf.remaining() < 18 {
        return Err(bad("truncated file (header cut short)".into()));
    }
    let n = buf.get_u64_le() as usize;
    let m = buf.get_u64_le() as usize;
    let symmetric = buf.get_u8() != 0;
    let weighted = buf.get_u8() != 0;
    if weighted == W::IS_UNIT {
        return Err(bad(
            "weightedness of file does not match requested graph type".into(),
        ));
    }
    let need = n
        .checked_add(1)
        .and_then(|o| o.checked_mul(8))
        .and_then(|o| o.checked_add(m.checked_mul(if weighted { 12 } else { 4 })?))
        .ok_or_else(|| bad("header sizes overflow".into()))?;
    if buf.remaining() < need {
        return Err(bad("truncated file".into()));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(buf.get_u64_le());
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        targets.push(buf.get_u32_le());
    }
    let mut weights = Vec::with_capacity(if weighted { m } else { 0 });
    if weighted {
        for _ in 0..m {
            weights.push(W::from_u64(buf.get_u64_le()));
        }
    }
    // Corrupt bodies (non-monotone offsets, out-of-range targets) must be
    // typed parse errors, not asserts or silently-garbage graphs.
    Csr::try_from_parts(offsets, targets, weights, symmetric)
        .map_err(|msg| bad(format!("corrupt graph body: {msg}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::transform::assign_weights;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("julienne-io-test-{name}-{}", std::process::id()));
        p
    }

    fn same_graph<W: Weight>(a: &Csr<W>, b: &Csr<W>) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn adjacency_roundtrip_unweighted() {
        let g = erdos_renyi(200, 1000, 1, false);
        let p = tmp("adj");
        write_adjacency_graph(&g, &p).unwrap();
        let h: Csr<()> = read_adjacency_graph(&p).unwrap();
        same_graph(&g, &h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn adjacency_roundtrip_weighted() {
        let g = assign_weights(&erdos_renyi(100, 500, 2, false), 1, 50, 3);
        let p = tmp("wadj");
        write_adjacency_graph(&g, &p).unwrap();
        let h: Csr<u32> = read_adjacency_graph(&p).unwrap();
        same_graph(&g, &h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = erdos_renyi(150, 700, 4, false);
        let p = tmp("el");
        write_edge_list(&g, &p).unwrap();
        let h: Csr<()> = read_edge_list(&p, Some(150), false).unwrap();
        same_graph(&g, &h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = assign_weights(&erdos_renyi(80, 400, 5, false), 1, 1000, 6);
        let p = tmp("gr");
        write_dimacs(&g, &p).unwrap();
        let h = read_dimacs(&p).unwrap();
        same_graph(&g, &h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn metis_roundtrip_unweighted_and_weighted() {
        let g = erdos_renyi(150, 900, 3, true);
        let p = tmp("metis");
        write_metis(&g, &p).unwrap();
        let h: Csr<()> = read_metis(&p).unwrap();
        same_graph(&g, &h);
        std::fs::remove_file(&p).ok();

        let wg = assign_weights(&g, 1, 50, 4);
        let pw = tmp("wmetis");
        write_metis(&wg, &pw).unwrap();
        let hw: Csr<u32> = read_metis(&pw).unwrap();
        same_graph(&wg, &hw);
        std::fs::remove_file(pw).ok();
    }

    #[test]
    fn metis_rejects_directed_and_mismatch() {
        let directed = erdos_renyi(20, 60, 1, false);
        let err = write_metis(&directed, &tmp("md")).unwrap_err();
        assert!(matches!(err, Error::Input(_)), "{err:?}");
        let g = erdos_renyi(20, 60, 1, true);
        let p = tmp("mm");
        write_metis(&g, &p).unwrap();
        // Weighted read of a plain file is a positioned parse error.
        let err = read_metis::<u32>(&p).unwrap_err();
        assert!(matches!(err, Error::Parse { line: Some(1), .. }), "{err:?}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_roundtrip_both() {
        let g = erdos_renyi(300, 2000, 7, true);
        let p = tmp("bin");
        write_binary(&g, &p).unwrap();
        let h: Csr<()> = read_binary(&p).unwrap();
        same_graph(&g, &h);
        assert!(h.is_symmetric());
        std::fs::remove_file(&p).ok();

        let gw = assign_weights(&erdos_renyi(300, 2000, 8, false), 1, 9, 9);
        let pw = tmp("binw");
        write_binary(&gw, &pw).unwrap();
        let hw: Csr<u32> = read_binary(&pw).unwrap();
        same_graph(&gw, &hw);
        std::fs::remove_file(pw).ok();
    }

    #[test]
    fn weightedness_mismatch_rejected() {
        let g = erdos_renyi(10, 20, 1, false);
        let p = tmp("mismatch");
        write_binary(&g, &p).unwrap();
        assert!(read_binary::<u32>(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_with_the_path() {
        let p = tmp("does-not-exist");
        let err = read_adjacency_graph::<()>(&p).unwrap_err();
        assert!(matches!(err, Error::Io { path: Some(_), .. }), "{err:?}");
        assert!(err.to_string().contains("does-not-exist"), "{err}");
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panicked() {
        let cases: Vec<(&str, &str)> = vec![
            ("bad-header", "NotAGraph\n3\n0\n"),
            ("truncated-adj", "AdjacencyGraph\n3\n5\n0\n1\n"),
            ("garbage-counts", "AdjacencyGraph\nxyz\n0\n"),
            // Header counts far beyond the file: refused before any
            // allocation (2^60 would abort it, 2^64 - 1 overflows `n + 1`).
            ("huge-n", "AdjacencyGraph\n1152921504606846976\n0\n"),
            ("max-n", "AdjacencyGraph\n18446744073709551615\n0\n"),
            ("huge-m", "AdjacencyGraph\n0\n1152921504606846976\n"),
            ("max-m", "AdjacencyGraph\n0\n18446744073709551615\n"),
        ];
        for (name, body) in cases {
            let p = tmp(name);
            std::fs::write(&p, body).unwrap();
            let err = read_adjacency_graph::<()>(&p).unwrap_err();
            assert!(
                matches!(err, Error::Parse { line: Some(_), .. }),
                "{name} should fail with a positioned parse error, got {err:?}"
            );
            std::fs::remove_file(p).ok();
        }
        // DIMACS ids outside `1..=n` and vertex counts beyond the id space
        // must error on their own line.
        let dimacs = [
            ("dimacs-zero", "p sp 2 1\na 0 1 5\n", 2),
            ("dimacs-oob", "p sp 3 1\na 1 9 5\n", 2),
            ("dimacs-before-p", "a 1 2 5\np sp 3 1\n", 1),
            ("dimacs-huge-n", "p sp 1152921504606846976 0\n", 1),
        ];
        for (name, body, line) in dimacs {
            let p = tmp(name);
            std::fs::write(&p, body).unwrap();
            let err = read_dimacs(&p).unwrap_err();
            assert!(
                matches!(err, Error::Parse { line: Some(l), .. } if l == line),
                "{name}: {err:?}"
            );
            std::fs::remove_file(p).ok();
        }
        // Header counts the lines that follow do not bear out: refused at
        // the header, before `build` allocates for them.
        let dimacs_counts = [
            ("dimacs-few-arcs", "c x\np sp 4000000000 5\na 1 2 5\n", 2),
            ("dimacs-many-arcs", "p sp 3 1\na 1 2 5\na 2 3 5\n", 3),
            ("dimacs-no-m", "p sp 3\n", 1),
        ];
        for (name, body, line) in dimacs_counts {
            let p = tmp(name);
            std::fs::write(&p, body).unwrap();
            let err = read_dimacs(&p).unwrap_err();
            assert!(
                matches!(err, Error::Parse { line: Some(l), .. } if l == line),
                "{name}: {err:?}"
            );
            std::fs::remove_file(p).ok();
        }
        for (name, body) in [
            ("metis-huge-n", "1152921504606846976 0\n"),
            ("metis-few-lines", "4000000000 1\n2\n1\n"),
        ] {
            let p = tmp(name);
            std::fs::write(&p, body).unwrap();
            let err = read_metis::<()>(&p).unwrap_err();
            assert!(
                matches!(err, Error::Parse { line: Some(1), .. }),
                "{name}: {err:?}"
            );
            std::fs::remove_file(p).ok();
        }
        // Edge list with a non-numeric token.
        let p = tmp("el-bad");
        std::fs::write(&p, "0 1\nfoo bar\n").unwrap();
        let err = read_edge_list::<()>(&p, None, false).unwrap_err();
        assert!(matches!(err, Error::Parse { line: Some(2), .. }), "{err:?}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_detects_truncation() {
        let g = erdos_renyi(50, 200, 2, false);
        let p = tmp("trunc");
        write_binary(&g, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_binary::<()>(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn comments_skipped_in_edge_list() {
        let p = tmp("comments");
        std::fs::write(&p, "# header\n0 1\n% other\n1 2\n").unwrap();
        let g: Csr<()> = read_edge_list(&p, None, false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn empty_edge_list_without_n_is_rejected() {
        // An empty (or comment-only) file used to infer n = 1 and produce a
        // bogus 1-vertex graph; it must be an error unless n is explicit.
        let p = tmp("empty");
        std::fs::write(&p, "").unwrap();
        let err = read_edge_list::<()>(&p, None, false).unwrap_err();
        assert_eq!(err.code(), "parse");
        assert!(err.to_string().contains("no edges"), "{err}");
        std::fs::remove_file(&p).ok();

        let p = tmp("comment-only");
        std::fs::write(&p, "# nothing here\n% nor here\n\n").unwrap();
        let err = read_edge_list::<()>(&p, None, false).unwrap_err();
        assert_eq!(err.code(), "parse");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_edge_list_with_explicit_n_is_allowed() {
        let p = tmp("empty-n");
        std::fs::write(&p, "# edgeless\n").unwrap();
        let g: Csr<()> = read_edge_list(&p, Some(4), false).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn graphio_roundtrips_every_extension() {
        let dir = std::env::temp_dir().join(format!("julienne-graphio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = erdos_renyi(120, 600, 12, false);
        for name in ["g.adj", "g.el", "g.bin", "g.jgr"] {
            let p = dir.join(name);
            GraphIo::write(&g, &p, &IoOptions::default()).unwrap();
            let h: Csr<()> = GraphIo::read(&p, &IoOptions::default()).unwrap();
            assert_eq!(h.num_vertices(), g.num_vertices(), "{name}");
            assert_eq!(h.num_edges(), g.num_edges(), "{name}");
        }
        let sym = erdos_renyi(100, 500, 13, true);
        let p = dir.join("g.metis");
        GraphIo::write(&sym, &p, &IoOptions::default()).unwrap();
        let h: Csr<()> = GraphIo::read(&p, &IoOptions::default()).unwrap();
        assert_eq!(h.num_edges(), sym.num_edges());
        let wg = assign_weights(&g, 1, 9, 14);
        let p = dir.join("g.gr");
        GraphIo::write(&wg, &p, &IoOptions::default()).unwrap();
        let h: Csr<u32> = GraphIo::read(&p, &IoOptions::default()).unwrap();
        assert_eq!(h.weights(), wg.weights());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn magic_sniffing_handles_unknown_extensions() {
        let dir = std::env::temp_dir().join(format!("julienne-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = erdos_renyi(60, 300, 21, false);
        // Write each self-identifying format under a nonsense extension and
        // read it back with no format hint at all.
        for fmt in [Format::Adjacency, Format::Binary, Format::Container] {
            let p = dir.join(format!("mystery-{fmt}.dat"));
            GraphIo::write(
                &g,
                &p,
                &IoOptions {
                    format: Some(fmt),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(Format::sniff(&p).unwrap(), Some(fmt));
            let h: Csr<()> = GraphIo::read(&p, &IoOptions::default()).unwrap();
            assert_eq!(h.num_edges(), g.num_edges(), "{fmt}");
        }
        // DIMACS sniffs via its comment/problem lines.
        let wg = assign_weights(&g, 1, 5, 2);
        let p = dir.join("mystery-gr.dat");
        GraphIo::write(
            &wg,
            &p,
            &IoOptions {
                format: Some(Format::Dimacs),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(Format::sniff(&p).unwrap(), Some(Format::Dimacs));
        // A file with no signature and no known extension is a usage error.
        let p = dir.join("mystery-none.dat");
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        let err = GraphIo::read::<()>(&p, &IoOptions::default()).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        // ...but an explicit format reads it fine.
        let h: Csr<()> = GraphIo::read(
            &p,
            &IoOptions {
                format: Some(Format::EdgeList),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(h.num_edges(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sniff_requires_a_problem_line_for_dimacs() {
        // A plain-text file that merely starts with a word in 'c' must not
        // misdetect as DIMACS — it falls through to the usage error.
        let p = tmp("notadimacs");
        std::fs::write(
            &p,
            "c looks like a DIMACS comment\nbut this is prose, not a problem line\n",
        )
        .unwrap();
        assert_eq!(Format::sniff(&p).unwrap(), None);
        let err = GraphIo::read::<u32>(&p, &IoOptions::default()).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        std::fs::remove_file(&p).ok();

        // Real DIMACS behind several comment lines still sniffs.
        let p = tmp("realdimacs");
        std::fs::write(&p, "c one\nc two\n\np sp 2 1\na 1 2 5\n").unwrap();
        assert_eq!(Format::sniff(&p).unwrap(), Some(Format::Dimacs));
        let g: Csr<u32> = GraphIo::read(&p, &IoOptions::default()).unwrap();
        assert_eq!(g.num_edges(), 1);
        std::fs::remove_file(&p).ok();

        // Non-UTF-8 bytes after a 'c ' opener are "not DIMACS", not a hard
        // error.
        let p = tmp("bindimacs");
        std::fs::write(&p, b"c \xFF\xFE\x00garbage").unwrap();
        assert_eq!(Format::sniff(&p).unwrap(), None);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn format_parse_names_round_trip() {
        for fmt in [
            Format::Adjacency,
            Format::EdgeList,
            Format::Dimacs,
            Format::Metis,
            Format::Binary,
            Format::Container,
        ] {
            assert_eq!(Format::parse(fmt.name()).unwrap(), fmt);
        }
        assert!(Format::parse("zip").unwrap_err().is_usage());
    }

    #[test]
    fn graphio_write_unknown_extension_is_usage_error() {
        let g = erdos_renyi(10, 30, 1, false);
        let err = GraphIo::write(&g, Path::new("/tmp/x.zip"), &IoOptions::default()).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
    }

    #[test]
    fn binary_rejects_wrong_magic_version_and_corrupt_body() {
        let g = erdos_renyi(40, 150, 3, false);
        let p = tmp("bin-corrupt");
        write_binary(&g, &p).unwrap();
        let pristine = std::fs::read(&p).unwrap();

        // Wrong magic.
        let mut bytes = pristine.clone();
        bytes[0] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_binary::<()>(&p).unwrap_err();
        assert_eq!(err.code(), "parse");
        assert!(err.to_string().contains("magic"), "{err}");

        // Wrong version (also the shape a pre-PR-6 version-less file takes).
        let mut bytes = pristine.clone();
        bytes[8] = 77;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_binary::<()>(&p).unwrap_err();
        assert!(err.to_string().contains("version 77"), "{err}");

        // Truncation inside the header.
        std::fs::write(&p, &pristine[..14]).unwrap();
        let err = read_binary::<()>(&p).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // Corrupt body: scribble over the offsets so they are not monotone.
        let mut bytes = pristine.clone();
        for b in &mut bytes[30..54] {
            *b = 0xEE;
        }
        std::fs::write(&p, &bytes).unwrap();
        let err = read_binary::<()>(&p).unwrap_err();
        assert_eq!(err.code(), "parse");
        assert!(err.to_string().contains("corrupt graph body"), "{err}");

        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_endpoint_beyond_supplied_n_is_rejected() {
        // Endpoints >= a user-supplied n used to be accepted and later
        // indexed out of bounds during CSR construction.
        let p = tmp("oob");
        std::fs::write(&p, "0 1\n2 7\n").unwrap();
        let err = read_edge_list::<()>(&p, Some(3), false).unwrap_err();
        assert!(matches!(err, Error::Parse { line: Some(2), .. }), "{err:?}");
        assert!(err.to_string().contains("(2, 7)"), "{err}");
        std::fs::remove_file(&p).ok();
    }
}
