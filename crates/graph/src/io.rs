//! Graph I/O behind one surface: [`GraphIo::read`] / [`GraphIo::write`]
//! with a [`Format`] enum and auto-detection.
//!
//! The supported formats are Ligra adjacency text, whitespace edge lists,
//! DIMACS `.gr`, METIS, a legacy length-prefixed binary format, and the
//! zero-copy [`crate::container`] (`.jgr`). One table holds each format's
//! names, extensions and magic bytes. Format selection is explicit via
//! [`IoOptions::format`] or automatic: extension first, then magic bytes
//! (reads only — a write with an unrecognized extension is a usage error).
//!
//! The four text formats are each one loop over one line reader. Every
//! failure is a workspace [`Error`]: an OS-level one (bytes that are not
//! UTF-8 among them) an [`Error::Io`] with the path, malformed content an
//! [`Error::Parse`] with the path and, for text, the 1-based line. A weight
//! that does not fit `W` is refused, never truncated; so is a METIS list
//! that its neighbour's list does not return.

use crate::builder::EdgeList;
use crate::csr::{Csr, Weight};
use crate::VertexId;
use bytes::{Buf, BufMut};
use julienne_primitives::error::Error;
use std::cell::Cell;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write as _};
use std::path::Path;
use std::str::FromStr;

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

/// Each format's facts, in [`Format`] order: its names (the canonical one
/// first; `format=` takes these and the extensions), the extensions that
/// select it, and the leading bytes that identify a file of it.
type Facts = (Format, Names, Names, &'static [&'static [u8]]);
type Names = &'static [&'static str];

const FORMATS: [Facts; 6] = [
    (
        Format::Adjacency,
        &["adj", "adjacency"],
        &["adj"],
        &[b"AdjacencyGraph", b"WeightedAdjacencyGraph"],
    ),
    (Format::EdgeList, &["el", "edgelist"], &["el", "txt"], &[]),
    (Format::Dimacs, &["dimacs"], &["gr"], &[b"p sp "]),
    (Format::Metis, &["metis"], &["metis", "graph"], &[]),
    (
        Format::Binary,
        &["bin", "binary"],
        &["bin"],
        &[&BINARY_MAGIC.to_le_bytes()],
    ),
    (
        Format::Container,
        &["jgr", "container"],
        &["jgr"],
        &[&crate::container::MAGIC],
    ),
];

impl Format {
    /// The canonical CLI spelling.
    pub fn name(&self) -> &'static str {
        FORMATS[*self as usize].1[0]
    }

    /// Parses a user-supplied format name (CLI `format=` values): a
    /// canonical name, an alias, or an extension.
    pub fn parse(s: &str) -> Result<Format, Error> {
        let named = |f: &&Facts| f.1.contains(&s) || f.2.contains(&s);
        FORMATS.iter().find(named).map(|f| f.0).ok_or_else(|| {
            let names = FORMATS.map(|f| f.1[0]).join(", ");
            Error::usage(format!(
                "unknown graph format {s:?} (expected one of {names})"
            ))
        })
    }

    /// Maps a file extension to a format, if recognized.
    pub fn from_extension(path: &Path) -> Option<Format> {
        let ext = path.extension()?.to_str()?;
        FORMATS.iter().find(|f| f.2.contains(&ext)).map(|f| f.0)
    }

    /// The format a write to `path` takes from its extension; a usage error
    /// when the extension names none, since there is nothing to sniff.
    pub fn for_output(path: &Path) -> Result<Format, Error> {
        Format::from_extension(path).ok_or_else(|| undetermined("output", path))
    }

    /// Identifies an existing file by its leading bytes: the `.jgr` and
    /// binary magics, the Ligra adjacency headers, and the DIMACS `p sp`
    /// problem line (scanning past any leading `c` comment lines, since
    /// plain text starting with a word in 'c' is not DIMACS). Returns
    /// `Ok(None)` when nothing matches (edge lists and METIS have no
    /// reliable signature).
    pub fn sniff(path: &Path) -> Result<Option<Format>, Error> {
        let at = |e| Error::io_at(path, e);
        let mut f = File::open(path).map_err(at)?;
        let mut head = Vec::with_capacity(24);
        (&mut f).take(24).read_to_end(&mut head).map_err(at)?;
        if let Some(fmt) = Format::by_magic(&head) {
            return Ok(Some(fmt));
        }
        if head.starts_with(b"c ") || head.starts_with(b"c\n") || head.starts_with(b"c\r\n") {
            return Ok(Self::sniff_dimacs_past_comments(f));
        }
        Ok(None)
    }

    /// The format whose magic `head` starts with.
    fn by_magic(head: &[u8]) -> Option<Format> {
        let opens = |f: &&Facts| f.3.iter().any(|magic| head.starts_with(magic));
        FORMATS.iter().find(opens).map(|f| f.0)
    }

    /// The file opens like a DIMACS comment; it only *is* DIMACS if a
    /// `p sp` problem line follows the comment block. The scan is bounded
    /// so a large non-DIMACS text file stays cheap to reject.
    fn sniff_dimacs_past_comments(mut f: File) -> Option<Format> {
        use std::io::Seek as _;
        f.rewind().ok()?;
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
        match Format::from_extension(path) {
            Some(fmt) => Ok(fmt),
            None => Format::sniff(path)?.ok_or_else(|| undetermined("graph", path)),
        }
    }
}

/// The usage error for a path whose `what` format cannot be determined.
fn undetermined(what: &str, path: &Path) -> Error {
    let exts = FORMATS.map(|f| f.2.join("/.")).join("/.");
    Error::usage(format!(
        "cannot determine the {what} format of {} (use a .{exts} extension or pass format= \
         explicitly)",
        path.display()
    ))
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
        match opts.format.map_or_else(|| Format::detect(path), Ok)? {
            Format::Adjacency => read_adjacency_graph(path),
            Format::EdgeList => read_edge_list(path, opts.vertices, opts.symmetric),
            Format::Dimacs => read_dimacs(path),
            Format::Metis => read_metis(path),
            Format::Binary => read_binary(path),
            Format::Container => crate::container::MappedGraph::<W>::open(path)?
                .to_csr()
                .map_err(|e| e.with_path(path)),
        }
    }

    /// Writes `g` to `path`. The format comes from [`IoOptions::format`] or
    /// the extension; sniffing does not apply to writes, so an unknown
    /// extension without an explicit format is a usage error.
    pub fn write<W: Weight>(g: &Csr<W>, path: &Path, opts: &IoOptions) -> Result<(), Error> {
        match opts.format.map_or_else(|| Format::for_output(path), Ok)? {
            Format::Adjacency => write_adjacency_graph(g, path),
            Format::EdgeList => write_edge_list(g, path),
            Format::Dimacs => write_dimacs(g, path),
            Format::Metis => write_metis(g, path),
            Format::Binary => write_binary(g, path),
            Format::Container => crate::container::write(
                g,
                path,
                &crate::container::ContainerWriteOptions {
                    compressed_payload: opts.compressed_payload,
                },
            ),
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
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| Error::io_at(path, e))
}

/// `raw` as a weight of type `W`, or why it is not one.
fn fit<W: Weight>(raw: u64) -> Result<W, String> {
    let (w, name) = (W::from_u64(raw), std::any::type_name::<W>());
    if w.to_u64() == raw {
        return Ok(w);
    }
    Err(format!("weight {raw} does not fit in {name}"))
}

/// The one line reader of the text formats. It moves through the lines its
/// format does not skip, numbering every line from 1, and parses the
/// current line's whitespace-separated tokens. Every refusal it makes is an
/// [`Error::Parse`] at the current line; a failed read, bytes that are not
/// UTF-8 included, is an [`Error::Io`].
struct LineReader<'p> {
    input: BufReader<File>,
    path: &'p Path,
    /// Whether the format skips a line, given the line trimmed.
    skip: fn(&str) -> bool,
    /// The current line, without its terminator.
    line: String,
    /// Where the current line's next token starts.
    at: Cell<usize>,
    /// The current line's 1-based number; one past the last line at the end.
    lineno: usize,
    /// Bytes of the lines read so far, counting one terminator each.
    bytes: u64,
}

impl<'p> LineReader<'p> {
    fn open(path: &'p Path, skip: fn(&str) -> bool) -> Result<Self, Error> {
        let file = File::open(path).map_err(|e| Error::io_at(path, e))?;
        Ok(LineReader {
            input: BufReader::new(file),
            path,
            skip,
            line: String::new(),
            at: Cell::new(0),
            lineno: 0,
            bytes: 0,
        })
    }

    /// Moves to the next line the format does not skip; `false` at the end
    /// of the file.
    fn next(&mut self) -> Result<bool, Error> {
        loop {
            self.line.clear();
            self.at.set(0);
            self.lineno += 1;
            let read = self.input.read_line(&mut self.line);
            if read.map_err(|e| Error::io_at(self.path, e))? == 0 {
                return Ok(false);
            }
            // The terminator is "\n" or "\r\n", as `BufRead::lines` has it.
            if self.line.ends_with('\n') {
                self.line.pop();
                if self.line.ends_with('\r') {
                    self.line.pop();
                }
            }
            self.bytes += self.line.len() as u64 + 1;
            if !(self.skip)(self.line.trim()) {
                return Ok(true);
            }
        }
    }

    /// The current line's next token, if any is left.
    fn token(&self) -> Option<&str> {
        let rest = self.line[self.at.get()..].trim_start();
        let tok = &rest[..rest.find(char::is_whitespace).unwrap_or(rest.len())];
        self.at.set(self.line.len() - rest.len() + tok.len());
        (!tok.is_empty()).then_some(tok)
    }

    /// `tok` parsed as `T`, the `what` of the current line.
    fn parse<T: FromStr<Err: Display>>(&self, tok: &str, what: &str) -> Result<T, Error> {
        tok.parse()
            .map_err(|e| self.bad(format!("{what} {tok:?}: {e}")))
    }

    /// The current line's next token parsed as `T`, which must be there.
    fn num<T: FromStr<Err: Display>>(&self, what: &str) -> Result<T, Error> {
        match self.token() {
            Some(tok) => self.parse(tok, what),
            None => Err(self.bad(format!("missing {what}"))),
        }
    }

    /// The current line's next token as an edge weight, which must fit `W`;
    /// an unweighted `W` takes none.
    fn weight<W: Weight>(&self) -> Result<W, Error> {
        if W::IS_UNIT {
            return Ok(W::default());
        }
        fit(self.num("edge weight")?).map_err(|msg| self.bad(msg))
    }

    /// The next line, which must hold exactly one `T`: Ligra's adjacency
    /// format puts its header and every count, offset, target and weight on
    /// a line of its own.
    fn sole<T: FromStr<Err: Display>>(&mut self, what: &str) -> Result<T, Error> {
        if !self.next()? {
            return Err(self.bad(format!("unexpected end of file (expected {what})")));
        }
        self.parse(self.line.trim(), what)
    }

    /// A parse error positioned at the current line.
    fn bad(&self, msg: impl Into<String>) -> Error {
        Error::parse_at(self.path, self.lineno, msg)
    }
}

/// Creates `path` and writes it through a buffer; a failure is an
/// [`Error::Io`] naming the path.
fn write_file(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), Error> {
    let write = || {
        let mut out = BufWriter::new(File::create(path)?);
        body(&mut out)?;
        out.flush()
    };
    write().map_err(|e| Error::io_at(path, e))
}

/// Writes `g` in Ligra's `AdjacencyGraph` / `WeightedAdjacencyGraph` text
/// format.
fn write_adjacency_graph<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    write_file(path, |out| {
        let weighted = if W::IS_UNIT { "" } else { "Weighted" };
        writeln!(out, "{weighted}AdjacencyGraph")?;
        writeln!(out, "{}\n{}", g.num_vertices(), g.num_edges())?;
        for o in &g.offsets()[..g.num_vertices()] {
            writeln!(out, "{o}")?;
        }
        for t in g.targets() {
            writeln!(out, "{t}")?;
        }
        for w in g.weights().iter().filter(|_| !W::IS_UNIT) {
            writeln!(out, "{}", w.to_u64())?;
        }
        Ok(())
    })
}

/// Reads a Ligra `AdjacencyGraph` / `WeightedAdjacencyGraph` text file.
fn read_adjacency_graph<W: Weight>(path: &Path) -> Result<Csr<W>, Error> {
    let mut src = LineReader::open(path, |_| false)?;
    let weighted = match src.sole::<String>("header")?.as_str() {
        "AdjacencyGraph" => false,
        "WeightedAdjacencyGraph" => true,
        other => return Err(src.bad(format!("unknown header {other:?}"))),
    };
    if weighted == W::IS_UNIT {
        return Err(src.bad("weightedness of file does not match requested graph type"));
    }
    let n: usize = src.sole("vertex count")?;
    let m: usize = src.sole("edge count")?;
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
        offsets.push(src.sole("offset")?);
    }
    offsets.push(m as u64);
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        targets.push(src.sole("edge target")?);
    }
    let weight_lines = if weighted { m } else { 0 };
    let mut weights = Vec::with_capacity(weight_lines);
    for _ in 0..weight_lines {
        weights.push(fit(src.sole("edge weight")?).map_err(|msg| src.bad(msg))?);
    }
    Csr::try_from_parts(offsets, targets, weights, false)
        .map_err(|msg| Error::parse(format!("inconsistent adjacency data: {msg}")).with_path(path))
}

/// Writes a whitespace edge list (`u v` or `u v w` per line).
fn write_edge_list<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    write_file(path, |out| {
        for u in 0..g.num_vertices() as VertexId {
            for (v, w) in g.edges_of(u) {
                if W::IS_UNIT {
                    writeln!(out, "{u} {v}")?;
                } else {
                    writeln!(out, "{u} {v} {}", w.to_u64())?;
                }
            }
        }
        Ok(())
    })
}

/// Reads a whitespace edge list; lines starting with `#` or `%` are
/// comments. `n` is inferred as `1 + max id` unless given.
///
/// Errors with [`Error::Parse`] if the file contains no edges and `n` was
/// not supplied (there is no defensible vertex count to infer), or if any
/// endpoint is `>= n` for a user-supplied `n`.
fn read_edge_list<W: Weight>(
    path: &Path,
    n: Option<usize>,
    symmetric: bool,
) -> Result<Csr<W>, Error> {
    let mut src = LineReader::open(path, |l| l.is_empty() || l.starts_with(['#', '%']))?;
    let mut edges: Vec<(VertexId, VertexId, W)> = Vec::new();
    let mut max_id = 0u32;
    while src.next()? {
        let (u, v): (VertexId, VertexId) = (src.num("source")?, src.num("target")?);
        let w = src.weight()?;
        if let Some(n) = n.filter(|&n| u.max(v) as usize >= n) {
            return Err(src.bad(format!("edge ({u}, {v}) references a vertex >= n = {n}")));
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    if edges.is_empty() && n.is_none() {
        return Err(Error::parse(
            "file contains no edges; pass an explicit vertex count to load an edgeless graph",
        )
        .with_path(path));
    }
    let implied = max_id as usize + 1;
    if n.is_none() {
        check_vertex_count(implied, file_len(path)?)
            .map_err(|msg| Error::parse(msg).with_path(path))?;
    }
    let mut el = EdgeList::new(n.unwrap_or(implied));
    el.edges = edges;
    Ok(if symmetric {
        el.build_symmetric()
    } else {
        el.build(false)
    })
}

/// Writes a DIMACS shortest-path challenge `.gr` file (1-indexed, weighted).
fn write_dimacs<W: Weight>(g: &Csr<W>, path: &Path) -> Result<(), Error> {
    if W::IS_UNIT {
        return Err(Error::usage("DIMACS output requires a weighted graph"));
    }
    write_file(path, |out| {
        let (n, m) = (g.num_vertices(), g.num_edges());
        writeln!(out, "c generated by julienne-graph\np sp {n} {m}")?;
        for u in 0..g.num_vertices() as VertexId {
            for (v, w) in g.edges_of(u) {
                writeln!(out, "a {} {} {}", u + 1, v + 1, w.to_u64())?;
            }
        }
        Ok(())
    })
}

/// Reads a DIMACS `.gr` file; lines other than the `p` line and `a` arcs
/// (comments among them) are skipped.
fn read_dimacs<W: Weight>(path: &Path) -> Result<Csr<W>, Error> {
    if W::IS_UNIT {
        return Err(Error::usage(
            "DIMACS files are weighted; use a weighted command",
        ));
    }
    let mut src = LineReader::open(path, str::is_empty)?;
    let mut n = 0usize;
    // The `p` line's arc count and its line number.
    let mut header = (0usize, 0usize);
    // The largest 1-based id an arc has named, so a later `p` line that
    // strands it is refused in O(1).
    let mut max_id = 0usize;
    let mut edges: Vec<(VertexId, VertexId, W)> = Vec::new();
    while src.next()? {
        match src.token() {
            Some("p") => {
                src.token(); // The problem kind, `sp`.
                n = src.num("vertex count")?;
                if n > VertexId::MAX as usize {
                    return Err(src.bad("vertex count exceeds the 32-bit id space"));
                }
                check_vertex_count(n, file_len(path)?).map_err(|msg| src.bad(msg))?;
                if max_id > n {
                    return Err(src.bad("p line leaves arcs read before it out of range"));
                }
                header = (src.num("arc count")?, src.lineno);
            }
            Some("a") => {
                let (u, v): (u32, u32) = (src.num("arc tail")?, src.num("arc head")?);
                let w = src.weight()?;
                if u == 0 || v == 0 || u as usize > n || v as usize > n {
                    return Err(src.bad("DIMACS ids are 1-indexed and ≤ n"));
                }
                if edges.len() == header.0 {
                    return Err(src.bad("more arcs than the p line promised"));
                }
                max_id = max_id.max(u.max(v) as usize);
                edges.push((u - 1, v - 1, w));
            }
            _ => {}
        }
    }
    let ((m, p_line), got) = (header, edges.len());
    if got != m {
        let msg = format!("the p line promised {m} arcs but the file has {got}");
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
    write_file(path, |out| {
        let fmt = if W::IS_UNIT { "" } else { " 001" };
        writeln!(out, "{} {}{fmt}", g.num_vertices(), g.num_edges() / 2)?;
        for v in 0..g.num_vertices() as VertexId {
            for (i, (u, w)) in g.edges_of(v).enumerate() {
                write!(out, "{}{}", if i == 0 { "" } else { " " }, u + 1)?;
                if !W::IS_UNIT {
                    write!(out, " {}", w.to_u64())?;
                }
            }
            writeln!(out)?;
        }
        Ok(())
    })
}

/// Reads a METIS graph file, plain or with edge weights (fmt `001`); lines
/// starting with `%` are comments. A fmt that declares vertex sizes or
/// weights is refused, and so is a list that names a neighbour whose own
/// list does not name it back with the same weight.
fn read_metis<W: Weight>(path: &Path) -> Result<Csr<W>, Error> {
    let mut src = LineReader::open(path, |l| l.starts_with('%'))?;
    if !src.next()? {
        return Err(Error::parse("empty file").with_path(path));
    }
    let n: usize = src.num("vertex count")?;
    if n > VertexId::MAX as usize {
        return Err(src.bad("vertex count exceeds the 32-bit id space"));
    }
    let m_und: usize = src.num("edge count")?;
    let weighted = match src.token().unwrap_or("0") {
        "0" | "00" | "000" => false,
        "1" | "01" | "001" => true,
        fmt => return Err(src.bad(format!("fmt {fmt:?} declares vertex sizes or weights"))),
    };
    if weighted == W::IS_UNIT {
        return Err(src.bad("weightedness of METIS file does not match graph type"));
    }
    let header_line = src.lineno;
    let mut el = EdgeList::new(n);
    // The line of each vertex's list, to place a refusal of the list.
    let mut list_line = Vec::new();
    while src.next()? {
        if list_line.len() >= n {
            break;
        }
        let v = list_line.len() as VertexId;
        while let Some(tok) = src.token() {
            let u: usize = src.parse(tok, "neighbor id")?;
            if u == 0 || u > n {
                return Err(src.bad("METIS ids are 1-indexed and ≤ n"));
            }
            el.push(v, (u - 1) as VertexId, src.weight()?);
        }
        list_line.push(src.lineno);
    }
    let got = list_line.len();
    if got < n {
        let msg = format!("the header promised {n} vertices but the file has {got} lists");
        return Err(Error::parse_at(path, header_line, msg));
    }
    let g = el.build(true);
    // Tolerate duplicate/self-loop cleanup shrinking the count.
    if g.num_edges().div_ceil(2) > m_und {
        return Err(Error::parse("more edges than the header promised").with_path(path));
    }
    for v in 0..n as VertexId {
        for (u, w) in g.edges_of(v) {
            let back = g.neighbors(u).binary_search(&v).map(|i| g.weights_of(u)[i]);
            if back != Ok(w) {
                let (v1, u1) = (v + 1, u + 1);
                let msg = format!("vertex {v1} lists {u1}, which does not list it alike");
                return Err(Error::parse_at(path, list_line[v as usize], msg));
            }
        }
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
    write_file(path, |out| out.write_all(&buf))
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
            weights.push(fit(buf.get_u64_le()).map_err(&bad)?);
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

    /// Writes `body` to a scratch file and reads it with `read`, which must
    /// refuse it as a parse error at `line`.
    fn refused_at<T: std::fmt::Debug>(
        name: &str,
        body: &str,
        line: Option<usize>,
        read: impl Fn(&Path) -> Result<T, Error>,
    ) {
        let p = tmp(name);
        std::fs::write(&p, body).unwrap();
        let got = read(&p);
        std::fs::remove_file(&p).ok();
        assert!(
            matches!(&got, Err(Error::Parse { line: l, .. }) if *l == line),
            "{name}: {got:?}"
        );
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
        // must error on their own line. Header counts the lines that follow
        // do not bear out are refused at the header, before `build`
        // allocates for them.
        for (name, body, line) in [
            ("dimacs-zero", "p sp 2 1\na 0 1 5\n", 2),
            ("dimacs-oob", "p sp 3 1\na 1 9 5\n", 2),
            ("dimacs-before-p", "a 1 2 5\np sp 3 1\n", 1),
            ("dimacs-huge-n", "p sp 1152921504606846976 0\n", 1),
            ("dimacs-few-arcs", "c x\np sp 4000000000 5\na 1 2 5\n", 2),
            ("dimacs-many-arcs", "p sp 3 1\na 1 2 5\na 2 3 5\n", 3),
            ("dimacs-no-m", "p sp 3\n", 1),
            ("dimacs-second-p", "p sp 5 1\na 1 5 3\np sp 2 1\n", 3),
        ] {
            refused_at(name, body, Some(line), read_dimacs::<u32>);
        }
        for (name, body) in [
            ("metis-huge-n", "1152921504606846976 0\n"),
            ("metis-few-lines", "4000000000 1\n2\n1\n"),
        ] {
            refused_at(name, body, Some(1), read_metis::<()>);
        }
        // Edge list with a non-numeric token.
        refused_at("el-bad", "0 1\nfoo bar\n", Some(2), |p| {
            read_edge_list::<()>(p, None, false)
        });
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
        // The message names every extension `from_extension` takes.
        for ext in [
            ".adj", ".el", ".txt", ".gr", ".metis", ".graph", ".bin", ".jgr",
        ] {
            assert!(err.to_string().contains(ext), "{ext}: {err}");
        }
    }

    #[test]
    fn weights_that_do_not_fit_w_are_refused_at_their_line() {
        // 2^32 + 5 used to load into a u32 graph as 5.
        let big = (1u64 << 32) + 5;
        refused_at("fit-el", &format!("0 1 {big}\n1 2 3\n"), Some(1), |p| {
            read_edge_list::<u32>(p, None, false)
        });
        let adj = format!("WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n{big}\n");
        refused_at("fit-adj", &adj, Some(7), read_adjacency_graph::<u32>);
        let metis = format!("2 1 001\n2 {big}\n1 {big}\n");
        refused_at("fit-metis", &metis, Some(2), read_metis::<u32>);
        refused_at(
            "fit-gr",
            &format!("p sp 2 1\na 1 2 {big}\n"),
            Some(2),
            read_dimacs::<u32>,
        );

        // The binary format stores u64 weights: a u64 graph loads as u64,
        // and as u32 only when every weight fits.
        let wide: Csr<u64> = Csr::from_parts(vec![0, 1, 1], vec![1], vec![big], false);
        let p = tmp("fit-bin");
        write_binary(&wide, &p).unwrap();
        same_graph(&wide, &read_binary::<u64>(&p).unwrap());
        let err = read_binary::<u32>(&p).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "{err:?}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dimacs_is_generic_over_the_weight() {
        // A u64 weight past u32 survives a DIMACS round trip; it used to be
        // truncated on the way out.
        let wide: Csr<u64> = Csr::from_parts(vec![0, 1, 2], vec![1, 0], vec![1 << 40, 7], false);
        let p = tmp("wide-gr");
        let opts = IoOptions {
            format: Some(Format::Dimacs),
            ..Default::default()
        };
        GraphIo::write(&wide, &p, &opts).unwrap();
        same_graph(&wide, &GraphIo::read::<u64>(&p, &opts).unwrap());
        assert!(GraphIo::read::<()>(&p, &opts).unwrap_err().is_usage());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metis_fmt_with_vertex_sizes_or_weights_is_refused_at_the_header() {
        // fmt digits are (vertex sizes, vertex weights, edge weights); the
        // first two used to be read as neighbour ids.
        for fmt in ["10", "100", "110", "x"] {
            let body = format!("2 1 {fmt}\n1 2\n1 1\n");
            refused_at("metis-fmt", &body, Some(1), read_metis::<()>);
        }
        for fmt in ["11", "011", "101", "111"] {
            let body = format!("2 1 {fmt}\n1 2 7\n1 1 7\n");
            refused_at("metis-wfmt", &body, Some(1), read_metis::<u32>);
        }
    }

    #[test]
    fn metis_lists_that_are_not_mutual_are_refused() {
        // Vertex 1 names 2 and 3, neither of which names it back; this used
        // to load flagged symmetric with only 0->1 and 0->2.
        refused_at("metis-oneway", "3 2\n2 3\n\n\n", Some(2), read_metis::<()>);
        refused_at(
            "metis-late",
            "% c\n3 2\n2\n1\n1\n",
            Some(5),
            read_metis::<()>,
        );
        // Mutual ids but w(1,2) = 3 while w(2,1) = 9.
        let unalike = "2 1 001\n2 3\n1 9\n";
        refused_at("metis-unalike", unalike, Some(2), read_metis::<u32>);
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
