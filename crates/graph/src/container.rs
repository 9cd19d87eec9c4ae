//! The `.jgr` zero-copy graph container and its memory-mapped reader.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  = "JGR!\r\n\x1a\n"   (PNG-style: detects text-mode mangling)
//! 8       4     version = 1
//! 12      4     endian check = 0x0A0B0C0D
//! 16      8     flags   (bit 0 WEIGHTED, bit 1 SYMMETRIC, bit 2 reserved,
//!                        bit 3 HAS_COMPRESSED, bit 4 COMP_CHUNKED)
//! 24      8     n  (vertices)
//! 32      8     m  (directed edges)
//! 40      4     section count
//! 44      4     header checksum (FNV-1a 64 of bytes 0..44, truncated)
//! 48      16    reserved (zero)
//! 64      32×k  section table: kind u32, pad u32, offset u64, len u64,
//!               checksum u64 (FNV-1a 64 of the section payload)
//! ...           section payloads, each starting on a 64-byte boundary,
//!               zero-padded between
//! ```
//!
//! Sections are raw copies of the in-memory arrays — offsets as `u64`,
//! targets and weights as `u32` — so a page-aligned map plus the 64-byte
//! section alignment lets [`MappedGraph`] reinterpret the mapped bytes as
//! typed slices directly: **no parse, no copy, no per-edge work at open**.
//! An optional set of sections carries the Ligra+ byte-compressed payload,
//! so `backend=compressed` loads skip re-encoding too. A graph is stored in
//! one direction only: dense (pull) traversals read a symmetric graph's
//! out-lists, and a directed graph is only ever pushed.
//!
//! # Compressed-payload versioning
//!
//! Payloads written before decode chunking carry no `COMP_META` section and
//! no `COMP_CHUNKED` flag: they load as the legacy unchunked block layout
//! (`chunk_size == 0`), so old files keep working unchanged. Files written
//! with a chunked payload set the flag — old readers, which validate flags
//! strictly, fail closed on them rather than mis-decoding the chunk
//! headers as edges. Compressed payloads are fully validated at load
//! (structure plus a parallel decode walk of every block), so a corrupt
//! file surfaces a typed parse error, never a traversal-time panic.
//!
//! # Integrity and forward compatibility
//!
//! Opening validates the header, the endianness marker, the header
//! checksum, and every section-table entry (alignment, bounds, expected
//! lengths) — O(sections), independent of graph size. Per-section payload
//! checksums are *stored* at write time but verified only on demand
//! ([`MappedGraph::verify`]), keeping the open path free of per-edge work;
//! `julienne convert verify=true` and the test suites run the full check.
//! Readers reject `version != 1` and unknown *flags*, but skip unknown
//! section kinds, so future writers can add sections without breaking old
//! readers.

use crate::compress::Compressed;
use crate::csr::{Csr, Weight};
use crate::mmap::MmapBuf;
use crate::VertexId;
use julienne_primitives::error::Error;
use std::borrow::Cow;
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::Path;

/// File magic: "JGR!" plus the PNG-style CRLF/EOF/LF tail that catches
/// line-ending translation and truncation-at-EOF corruption.
pub const MAGIC: [u8; 8] = *b"JGR!\r\n\x1a\n";
/// Container format version this build reads and writes.
pub const VERSION: u32 = 1;
const ENDIAN_CHECK: u32 = 0x0A0B_0C0D;
const HEADER_LEN: usize = 64;
const SECTION_ENTRY_LEN: usize = 32;
const SECTION_ALIGN: usize = 64;

const FLAG_WEIGHTED: u64 = 1 << 0;
const FLAG_SYMMETRIC: u64 = 1 << 1;
/// Earlier builds set this on directed graphs stored with a transpose
/// (section kinds 4–6, 10–12 and 14). It is still accepted so those files
/// open; their transpose sections are skipped like any unknown kind.
const FLAG_HAS_IN: u64 = 1 << 2;
const FLAG_HAS_COMPRESSED: u64 = 1 << 3;
/// The compressed payload uses the chunked block layout (a `COMP_META`
/// section carries the chunk size). Deliberately a *flag*, not just a new
/// section kind: readers that predate chunking skip unknown kinds but
/// reject unknown flags, so they fail closed instead of decoding chunk
/// headers as edge data.
const FLAG_COMP_CHUNKED: u64 = 1 << 4;
const KNOWN_FLAGS: u64 =
    FLAG_WEIGHTED | FLAG_SYMMETRIC | FLAG_HAS_IN | FLAG_HAS_COMPRESSED | FLAG_COMP_CHUNKED;

/// Section kinds. Unknown kinds are skipped by readers (forward compat).
/// Kinds 4–6, 10–12 and 14 are reserved: earlier builds wrote a directed
/// graph's transpose under them.
mod kind {
    pub const OFFSETS: u32 = 1;
    pub const TARGETS: u32 = 2;
    pub const WEIGHTS: u32 = 3;
    pub const COMP_OFFSETS: u32 = 7;
    pub const COMP_DEGREES: u32 = 8;
    pub const COMP_DATA: u32 = 9;
    /// Chunked-payload metadata: chunk size (u32 LE) plus 4 reserved zero
    /// bytes. Absent for legacy unchunked payloads.
    pub const COMP_META: u32 = 13;
}

/// FNV-1a 64 — the per-section checksum. Cheap, dependency-free, and good
/// enough to catch torn writes and bit rot (not an integrity MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy, Debug)]
struct Section {
    kind: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Parsed header summary — what [`peek`] returns without mapping the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Format version (always 1 for files this build accepts).
    pub version: u32,
    /// Whether the file carries a weights section.
    pub weighted: bool,
    /// Whether the stored graph is symmetric.
    pub symmetric: bool,
    /// Whether a byte-compressed payload is present.
    pub has_compressed: bool,
    /// Whether the compressed payload uses the chunked block layout
    /// (`COMP_META` sections carry the chunk sizes).
    pub comp_chunked: bool,
    /// Vertex count.
    pub n: u64,
    /// Directed edge count.
    pub m: u64,
}

fn bad(path: &Path, msg: impl Into<String>) -> Error {
    Error::parse(msg).with_path(path)
}

fn parse_header(path: &Path, head: &[u8]) -> Result<(ContainerInfo, u32), Error> {
    if head.len() < HEADER_LEN {
        return Err(bad(path, "truncated container (shorter than the header)"));
    }
    if head[0..8] != MAGIC {
        return Err(bad(path, "not a .jgr container (bad magic)"));
    }
    let u32_at = |o: usize| u32::from_le_bytes(head[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(head[o..o + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != VERSION {
        return Err(bad(
            path,
            format!("unsupported container version {version} (this build reads version {VERSION})"),
        ));
    }
    if u32_at(12) != ENDIAN_CHECK {
        return Err(bad(path, "endianness marker mismatch (byte-swapped file?)"));
    }
    let stored = u32_at(44);
    let computed = fnv1a64(&head[0..44]) as u32;
    if stored != computed {
        return Err(bad(path, "header checksum mismatch (corrupt file)"));
    }
    let flags = u64_at(16);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(bad(
            path,
            format!("unknown container flags {:#x}", flags & !KNOWN_FLAGS),
        ));
    }
    Ok((
        ContainerInfo {
            version,
            weighted: flags & FLAG_WEIGHTED != 0,
            symmetric: flags & FLAG_SYMMETRIC != 0,
            has_compressed: flags & FLAG_HAS_COMPRESSED != 0,
            comp_chunked: flags & FLAG_COMP_CHUNKED != 0,
            n: u64_at(24),
            m: u64_at(32),
        },
        u32_at(40),
    ))
}

/// Reads and validates just the 64-byte header — format dispatch and
/// backend routing use this without touching any section.
pub fn peek(path: &Path) -> Result<ContainerInfo, Error> {
    use std::io::Read as _;
    let mut head = [0u8; HEADER_LEN];
    let mut f = std::fs::File::open(path).map_err(|e| Error::io_at(path, e))?;
    f.read_exact(&mut head)
        .map_err(|_| bad(path, "truncated container (shorter than the header)"))?;
    parse_header(path, &head).map(|(info, _)| info)
}

/// Parses a whole container's header and section table — the one copy both
/// loaders use. Bounds everything later arithmetic leans on: `n` fits the
/// 32-bit id space (so `(n + 1) * 8` cannot overflow), `n` and `m` fit
/// `usize`, and every section is 64-byte aligned and lies inside `bytes`.
fn parse_table(
    path: &Path,
    bytes: &[u8],
) -> Result<(ContainerInfo, usize, usize, Vec<Section>), Error> {
    let (info, count) = parse_header(path, bytes)?;
    let n = usize::try_from(info.n).map_err(|_| bad(path, "vertex count overflows usize"))?;
    let m = usize::try_from(info.m).map_err(|_| bad(path, "edge count overflows usize"))?;
    if n > VertexId::MAX as usize {
        return Err(bad(path, "vertex count exceeds the 32-bit id space"));
    }
    let table_end = HEADER_LEN.saturating_add((count as usize).saturating_mul(SECTION_ENTRY_LEN));
    if table_end > bytes.len() {
        return Err(bad(path, "truncated container (section table cut short)"));
    }
    let mut sections = Vec::with_capacity(count as usize);
    for e in bytes[HEADER_LEN..table_end].chunks_exact(SECTION_ENTRY_LEN) {
        let s = Section {
            kind: u32::from_le_bytes(e[0..4].try_into().unwrap()),
            offset: u64::from_le_bytes(e[8..16].try_into().unwrap()),
            len: u64::from_le_bytes(e[16..24].try_into().unwrap()),
            checksum: u64::from_le_bytes(e[24..32].try_into().unwrap()),
        };
        if !s.offset.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(bad(path, format!("section {} is misaligned", s.kind)));
        }
        if s.offset
            .checked_add(s.len)
            .is_none_or(|end| end > bytes.len() as u64)
        {
            return Err(bad(
                path,
                format!("truncated container (section {} cut short)", s.kind),
            ));
        }
        sections.push(s);
    }
    Ok((info, n, m, sections))
}

/// The payload of the section of kind `k`, which must be exactly
/// `want_len` bytes when a length is given.
fn section_payload<'a>(
    path: &Path,
    bytes: &'a [u8],
    sections: &[Section],
    k: u32,
    want_len: Option<u64>,
    what: &str,
) -> Result<&'a [u8], Error> {
    let s = sections
        .iter()
        .find(|s| s.kind == k)
        .ok_or_else(|| bad(path, format!("missing {what} section")))?;
    if let Some(want) = want_len.filter(|&l| l != s.len) {
        return Err(bad(
            path,
            format!(
                "{what} section has {} bytes, expected {want} (corrupt header?)",
                s.len
            ),
        ));
    }
    // `parse_table` checked offset + len against the file.
    Ok(&bytes[s.offset as usize..(s.offset + s.len) as usize])
}

// --------------------------------------------------------------------------
// Writing
// --------------------------------------------------------------------------

/// Options for [`write()`] — params-struct style, like the registry's option
/// types.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContainerWriteOptions {
    /// Also embed the Ligra+ byte-compressed payload, so
    /// `backend=compressed` loads skip re-encoding. Costs encode time at
    /// convert and ~30–50% extra file size.
    pub compressed_payload: bool,
}

#[cfg(target_endian = "little")]
fn le_u64_bytes(xs: &[u64]) -> Cow<'_, [u8]> {
    // SAFETY: u64 has no padding; on a little-endian host the in-memory
    // byte order is the on-disk order.
    Cow::Borrowed(unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const u8, xs.len() * 8) })
}

#[cfg(target_endian = "big")]
fn le_u64_bytes(xs: &[u64]) -> Cow<'_, [u8]> {
    Cow::Owned(xs.iter().flat_map(|x| x.to_le_bytes()).collect())
}

#[cfg(target_endian = "little")]
fn le_u32_bytes(xs: &[u32]) -> Cow<'_, [u8]> {
    // SAFETY: as above, for u32.
    Cow::Borrowed(unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const u8, xs.len() * 4) })
}

#[cfg(target_endian = "big")]
fn le_u32_bytes(xs: &[u32]) -> Cow<'_, [u8]> {
    Cow::Owned(xs.iter().flat_map(|x| x.to_le_bytes()).collect())
}

fn align_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Checked conversion to the container's on-disk u32 weights. Wider
/// weights that don't fit are a caller error we surface up front.
fn weights_to_u32<W: Weight>(ws: &[W]) -> Result<Vec<u32>, Error> {
    ws.iter()
        .map(|w| {
            let x = w.to_u64();
            u32::try_from(x).map_err(|_| {
                Error::input(format!(
                    "weight {x} does not fit the container's u32 weights"
                ))
            })
        })
        .collect()
}

/// Writes `g` as a `.jgr` container. Sections always include the CSR
/// arrays, and the byte-compressed payload when
/// [`ContainerWriteOptions::compressed_payload`] is set.
pub fn write<W: Weight>(
    g: &Csr<W>,
    path: &Path,
    opts: &ContainerWriteOptions,
) -> Result<(), Error> {
    // Weights are stored as u32 (the paper's integral weights).
    let weights_u32: Vec<u32> = if W::IS_UNIT {
        Vec::new()
    } else {
        weights_to_u32(g.weights())?
    };
    // Optional compressed payload: encode now so the sections can borrow.
    let comp = opts
        .compressed_payload
        .then(|| Compressed::<W>::from_csr(g));

    let mut sections: Vec<(u32, Cow<'_, [u8]>)> = vec![
        (kind::OFFSETS, le_u64_bytes(g.offsets())),
        (kind::TARGETS, le_u32_bytes(g.targets())),
    ];
    if !W::IS_UNIT {
        sections.push((kind::WEIGHTS, le_u32_bytes(&weights_u32)));
    }
    // Chunked payloads advertise their chunk size in a META section (and
    // the COMP_CHUNKED flag below); chunk_size 0 writes the legacy layout
    // with no META, which pre-chunking readers accept.
    let mut comp_chunked = false;
    if let Some(c) = &comp {
        let (offsets, degrees, data) = c.raw_parts();
        sections.push((kind::COMP_OFFSETS, le_u64_bytes(offsets)));
        sections.push((kind::COMP_DEGREES, le_u32_bytes(degrees)));
        sections.push((kind::COMP_DATA, Cow::Borrowed(data)));
        if c.chunk_size() != 0 {
            let mut payload = [0u8; 8];
            payload[..4].copy_from_slice(&c.chunk_size().to_le_bytes());
            sections.push((kind::COMP_META, Cow::Owned(payload.to_vec())));
            comp_chunked = true;
        }
    }

    // Lay out the table and compute checksums.
    let table_end = HEADER_LEN + SECTION_ENTRY_LEN * sections.len();
    let mut entries: Vec<Section> = Vec::with_capacity(sections.len());
    let mut cursor = table_end;
    for (k, bytes) in &sections {
        cursor = align_up(cursor, SECTION_ALIGN);
        entries.push(Section {
            kind: *k,
            offset: cursor as u64,
            len: bytes.len() as u64,
            checksum: fnv1a64(bytes),
        });
        cursor += bytes.len();
    }

    let mut flags = 0u64;
    if !W::IS_UNIT {
        flags |= FLAG_WEIGHTED;
    }
    if g.is_symmetric() {
        flags |= FLAG_SYMMETRIC;
    }
    if comp.is_some() {
        flags |= FLAG_HAS_COMPRESSED;
    }
    if comp_chunked {
        flags |= FLAG_COMP_CHUNKED;
    }

    let mut head = [0u8; HEADER_LEN];
    head[0..8].copy_from_slice(&MAGIC);
    head[8..12].copy_from_slice(&VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&ENDIAN_CHECK.to_le_bytes());
    head[16..24].copy_from_slice(&flags.to_le_bytes());
    head[24..32].copy_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    head[32..40].copy_from_slice(&(g.num_edges() as u64).to_le_bytes());
    head[40..44].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    let hsum = fnv1a64(&head[0..44]) as u32;
    head[44..48].copy_from_slice(&hsum.to_le_bytes());

    let write_all = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(&head)?;
        for e in &entries {
            out.write_all(&e.kind.to_le_bytes())?;
            out.write_all(&0u32.to_le_bytes())?;
            out.write_all(&e.offset.to_le_bytes())?;
            out.write_all(&e.len.to_le_bytes())?;
            out.write_all(&e.checksum.to_le_bytes())?;
        }
        let mut pos = table_end;
        const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
        for (e, (_, bytes)) in entries.iter().zip(&sections) {
            let pad = e.offset as usize - pos;
            out.write_all(&ZEROS[..pad])?;
            out.write_all(bytes)?;
            pos = e.offset as usize + bytes.len();
        }
        out.flush()
    };
    write_all().map_err(|e| Error::io_at(path, e))
}

// --------------------------------------------------------------------------
// MappedGraph
// --------------------------------------------------------------------------

/// A graph served directly from a memory-mapped `.jgr` file.
///
/// Implements the same access surface as [`Csr`] — degrees, neighbor
/// slices, weights — by reinterpreting the mapped sections in place, so
/// `open` does no per-edge work: a multi-GB graph opens in milliseconds and
/// pages fault in on first touch, which also makes graphs larger than RAM
/// usable via demand paging.
///
/// `W` must match the file: opening a weighted file as `MappedGraph<()>`
/// (or vice versa) is rejected, mirroring the text loaders' contract.
pub struct MappedGraph<W: Weight> {
    buf: MmapBuf,
    n: usize,
    m: usize,
    symmetric: bool,
    offsets: *const u64,
    targets: *const VertexId,
    /// Null when the file is unweighted.
    weights: *const u32,
    sections: Vec<Section>,
    _weight: PhantomData<W>,
}

// SAFETY: all pointers target the immutable `buf` owned by the struct.
unsafe impl<W: Weight> Send for MappedGraph<W> {}
unsafe impl<W: Weight> Sync for MappedGraph<W> {}

impl<W: Weight> MappedGraph<W> {
    /// Maps `path` and validates the header and section table — O(sections),
    /// no per-edge work. See [`MappedGraph::verify`] for the full payload
    /// check.
    pub fn open(path: &Path) -> Result<Self, Error> {
        #[cfg(target_endian = "big")]
        {
            return Err(bad(
                path,
                "zero-copy containers are little-endian; this host is big-endian \
                 (convert to a text format instead)",
            ));
        }
        #[cfg(target_endian = "little")]
        {
            let buf = MmapBuf::open(path)?;
            Self::from_buf(buf, path)
        }
    }

    #[cfg(target_endian = "little")]
    fn from_buf(buf: MmapBuf, path: &Path) -> Result<Self, Error> {
        let bytes = buf.bytes();
        let (info, n, m, sections) = parse_table(path, bytes)?;
        if info.weighted == W::IS_UNIT {
            return Err(bad(
                path,
                "weightedness of container does not match requested graph type",
            ));
        }
        let expect = |k: u32, want_len: u64, what: &str| {
            section_payload(path, bytes, &sections, k, Some(want_len), what).map(<[u8]>::as_ptr)
        };
        let targets_len = (m as u64)
            .checked_mul(4)
            .ok_or_else(|| bad(path, "edge count overflows the section lengths"))?;
        let offsets = expect(kind::OFFSETS, (n as u64 + 1) * 8, "offsets")? as *const u64;
        let targets = expect(kind::TARGETS, targets_len, "targets")? as *const VertexId;
        let weights = if info.weighted {
            expect(kind::WEIGHTS, targets_len, "weights")? as *const u32
        } else {
            std::ptr::null()
        };
        Ok(MappedGraph {
            buf,
            n,
            m,
            symmetric: info.symmetric,
            offsets,
            targets,
            weights,
            sections,
            _weight: PhantomData,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Whether the stored graph is symmetric.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Bytes of the mapping — the whole file. This is *address space*, not
    /// resident memory: untouched pages cost nothing.
    pub fn footprint_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The mapped offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        // SAFETY: the section was validated to exactly (n+1)*8 bytes at
        // open; buf is owned by self and immutable.
        unsafe { std::slice::from_raw_parts(self.offsets, self.n + 1) }
    }

    /// The mapped flat targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        // SAFETY: the section was validated to exactly m*4 bytes at open.
        unsafe { std::slice::from_raw_parts(self.targets, self.m) }
    }

    /// The mapped flat weights array as stored (`u32`); empty when
    /// unweighted.
    #[inline]
    pub fn weights_u32(&self) -> &[u32] {
        if self.weights.is_null() {
            &[]
        } else {
            // SAFETY: as for `offsets`.
            unsafe { std::slice::from_raw_parts(self.weights, self.m) }
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let o = self.offsets();
        (o[v as usize + 1] - o[v as usize]) as usize
    }

    /// Out-neighbors of `v`, as a borrowed slice of the mapping.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let o = self.offsets();
        &self.targets()[o[v as usize] as usize..o[v as usize + 1] as usize]
    }

    /// Weights for the edge range `lo..hi`. Callers must have established
    /// `lo <= hi <= m` first (every traversal path does, by slicing the
    /// targets section with safe bounds-checked indexing before this).
    #[inline]
    fn weights_in(&self, lo: usize, hi: usize) -> &[u32] {
        if self.weights.is_null() {
            &[]
        } else {
            debug_assert!(lo <= hi && hi <= self.m);
            // SAFETY: the weights section was validated to m entries at
            // open, and lo..hi lies within 0..m per the contract above.
            unsafe { std::slice::from_raw_parts(self.weights.add(lo), hi - lo) }
        }
    }

    /// Visits each out-edge `(target, weight)` of `v`.
    #[inline]
    pub fn for_each_out<F: FnMut(VertexId, W)>(&self, v: VertexId, mut f: F) {
        let o = self.offsets();
        let (lo, hi) = (o[v as usize] as usize, o[v as usize + 1] as usize);
        let ts = &self.targets()[lo..hi];
        if W::IS_UNIT {
            for &t in ts {
                f(t, W::default());
            }
        } else {
            let ws = self.weights_in(lo, hi);
            for (&t, &w) in ts.iter().zip(ws) {
                f(t, W::from_u64(w as u64));
            }
        }
    }

    /// Visits out-edges of `v` until `f` returns `false`.
    #[inline]
    pub fn for_each_out_until<F: FnMut(VertexId, W) -> bool>(&self, v: VertexId, mut f: F) {
        let o = self.offsets();
        let (lo, hi) = (o[v as usize] as usize, o[v as usize + 1] as usize);
        let ts = &self.targets()[lo..hi];
        if W::IS_UNIT {
            for &t in ts {
                if !f(t, W::default()) {
                    return;
                }
            }
        } else {
            let ws = self.weights_in(lo, hi);
            for (&t, &w) in ts.iter().zip(ws) {
                if !f(t, W::from_u64(w as u64)) {
                    return;
                }
            }
        }
    }

    /// Visits out-edges of `v` in the **local** edge range `lo..hi`
    /// (clamped to the degree) — the ranged access edgeMap uses to split a
    /// giant adjacency list across parallel chunk tasks.
    #[inline]
    pub fn for_each_out_range<F: FnMut(VertexId, W)>(
        &self,
        v: VertexId,
        lo_local: usize,
        hi_local: usize,
        mut f: F,
    ) {
        let o = self.offsets();
        let (base, end) = (o[v as usize] as usize, o[v as usize + 1] as usize);
        let lo = base.saturating_add(lo_local).min(end);
        let hi = base.saturating_add(hi_local).min(end).max(lo);
        let ts = &self.targets()[lo..hi];
        if W::IS_UNIT {
            for &t in ts {
                f(t, W::default());
            }
        } else {
            let ws = self.weights_in(lo, hi);
            for (&t, &w) in ts.iter().zip(ws) {
                f(t, W::from_u64(w as u64));
            }
        }
    }

    /// Full payload validation: every section's stored FNV-1a checksum,
    /// offsets monotonicity, and target ranges. O(file size) — this is the
    /// deliberate opposite of [`MappedGraph::open`]'s no-per-edge-work
    /// contract, for `convert verify=true` and tests.
    pub fn verify(&self, path: &Path) -> Result<(), Error> {
        let bytes = self.buf.bytes();
        for s in &self.sections {
            let payload = &bytes[s.offset as usize..(s.offset + s.len) as usize];
            if fnv1a64(payload) != s.checksum {
                return Err(bad(
                    path,
                    format!("section {} checksum mismatch (corrupt file)", s.kind),
                ));
            }
        }
        let offsets = self.offsets();
        if offsets[0] != 0 || offsets[self.n] != self.m as u64 {
            return Err(bad(path, "out offsets do not span the edges"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad(path, "out offsets are not monotone"));
        }
        if let Some(&t) = self.targets().iter().find(|&&t| t as usize >= self.n) {
            return Err(bad(path, format!("out target {t} out of range")));
        }
        Ok(())
    }

    /// Materializes a heap [`Csr`] copy (used by `convert` when the
    /// destination is another format).
    ///
    /// The payload is re-validated while materializing (checksums are only
    /// checked by [`MappedGraph::verify`]), so a corrupt body surfaces as a
    /// typed parse error here, never a garbage graph.
    pub fn to_csr(&self) -> Result<Csr<W>, Error> {
        let weights: Vec<W> = if W::IS_UNIT {
            Vec::new()
        } else {
            self.weights_u32()
                .iter()
                .map(|&w| W::from_u64(w as u64))
                .collect()
        };
        Csr::try_from_parts(
            self.offsets().to_vec(),
            self.targets().to_vec(),
            weights,
            self.symmetric,
        )
        .map_err(|msg| Error::parse(format!("corrupt container payload: {msg}")))
    }
}

impl<W: Weight> std::fmt::Debug for MappedGraph<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedGraph(n={}, m={}, symmetric={}, weighted={}, mapped={}B)",
            self.n,
            self.m,
            self.symmetric,
            !W::IS_UNIT,
            self.buf.len()
        )
    }
}

// --------------------------------------------------------------------------
// Compressed payload loading
// --------------------------------------------------------------------------

/// Loads the byte-compressed payload of a container whose weightedness
/// matches `W`, skipping the CSR re-encode entirely: the blocks were
/// encoded at convert time and are adopted verbatim, after a full
/// validation walk ([`Compressed::try_from_raw_parts`]). A container that
/// embeds no payload is `Ok(None)`, so a caller with a fallback (compress
/// the CSR sections in memory) opens and parses the file once.
pub fn read_compressed<W: Weight>(path: &Path) -> Result<Option<Compressed<W>>, Error> {
    let buf = MmapBuf::open(path)?;
    let bytes = buf.bytes();
    let (info, n, m, sections) = parse_table(path, bytes)?;
    if !info.has_compressed {
        return Ok(None);
    }
    if info.weighted == W::IS_UNIT {
        return Err(bad(
            path,
            "weightedness of container does not match requested graph type",
        ));
    }
    let part = |k, want_len, name: &str| {
        section_payload(
            path,
            bytes,
            &sections,
            k,
            want_len,
            &format!("compressed payload {name}"),
        )
    };
    let offsets = part(kind::COMP_OFFSETS, Some((n as u64 + 1) * 8), "offsets")?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let degrees = part(kind::COMP_DEGREES, Some(n as u64 * 4), "degrees")?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let data = part(kind::COMP_DATA, None, "data")?.to_vec();
    // The chunk size comes from the META section; absent = 0, the legacy
    // unchunked layout.
    let chunk_size = if sections.iter().any(|s| s.kind == kind::COMP_META) {
        let meta = part(kind::COMP_META, Some(8), "meta")?;
        u32::from_le_bytes(meta[..4].try_into().unwrap())
    } else {
        0
    };
    Compressed::try_from_raw_parts(n, m, offsets, degrees, data, info.symmetric, chunk_size)
        .map(Some)
        .map_err(|e| bad(path, format!("corrupt compressed payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, rmat, RmatParams};
    use crate::transform::assign_weights;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("julienne-jgr-{name}-{}.jgr", std::process::id()))
    }

    fn same_as_csr<W: Weight>(g: &Csr<W>, mg: &MappedGraph<W>) {
        assert_eq!(g.num_vertices(), mg.num_vertices());
        assert_eq!(g.num_edges(), mg.num_edges());
        assert_eq!(g.is_symmetric(), mg.is_symmetric());
        assert_eq!(g.offsets(), mg.offsets());
        assert_eq!(g.targets(), mg.targets());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(g.neighbors(v), mg.neighbors(v));
            let mut want = Vec::new();
            for (u, w) in g.edges_of(v) {
                want.push((u, w));
            }
            let mut got = Vec::new();
            mg.for_each_out(v, |u, w| got.push((u, w)));
            assert_eq!(want, got, "edges of {v}");
        }
    }

    #[test]
    fn roundtrip_unweighted_symmetric() {
        let g = erdos_renyi(300, 2_000, 7, true);
        let p = tmp("sym");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let mg: MappedGraph<()> = MappedGraph::open(&p).unwrap();
        mg.verify(&p).unwrap();
        same_as_csr(&g, &mg);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn roundtrip_weighted_directed() {
        let g = assign_weights(&rmat(8, 8, RmatParams::default(), 3, false), 1, 50, 5);
        let p = tmp("wdir");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let mg: MappedGraph<u32> = MappedGraph::open(&p).unwrap();
        mg.verify(&p).unwrap();
        same_as_csr(&g, &mg);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn materialize_round_trips() {
        let g = assign_weights(&erdos_renyi(200, 1_500, 2, true), 1, 9, 3);
        let p = tmp("mat");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let mg: MappedGraph<u32> = MappedGraph::open(&p).unwrap();
        let h = mg.to_csr().unwrap();
        assert_eq!(g.offsets(), h.offsets());
        assert_eq!(g.targets(), h.targets());
        assert_eq!(g.weights(), h.weights());
        assert_eq!(g.is_symmetric(), h.is_symmetric());
        std::fs::remove_file(&p).ok();
    }

    const WITH_PAYLOAD: ContainerWriteOptions = ContainerWriteOptions {
        compressed_payload: true,
    };

    /// The embedded payload is the encoder's output verbatim; asserted
    /// once, run at both weights.
    fn check_compressed_payload_round_trips<W: Weight>(g: &Csr<W>, name: &str) {
        let p = tmp(name);
        write(g, &p, &WITH_PAYLOAD).unwrap();
        assert!(peek(&p).unwrap().has_compressed);
        let c = read_compressed::<W>(&p).unwrap().expect("payload");
        let direct = Compressed::from_csr(g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.chunk_size(), direct.chunk_size());
        assert_eq!(c.raw_parts(), direct.raw_parts());
        assert_eq!(c.is_symmetric(), g.is_symmetric());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn compressed_payload_round_trips() {
        let g = erdos_renyi(250, 1_800, 11, true);
        check_compressed_payload_round_trips(&g, "comp");
        check_compressed_payload_round_trips(&assign_weights(&g, 1, 60, 7), "wcomp");
        let d = rmat(8, 8, RmatParams::default(), 3, false);
        check_compressed_payload_round_trips(&d, "dcomp");
        check_compressed_payload_round_trips(&assign_weights(&d, 1, 60, 7), "dwcomp");
    }

    #[test]
    fn hostile_header_counts_are_parse_errors() {
        // A vertex or edge count no file could hold must be refused by the
        // table parser, before any section-length arithmetic on it (which
        // overflowed under debug assertions in the compressed loader).
        let g = erdos_renyi(60, 300, 5, true);
        let wg = assign_weights(&g, 1, 9, 2);
        let (pu, pw) = (tmp("hostile-u"), tmp("hostile-w"));
        write(&g, &pu, &WITH_PAYLOAD).unwrap();
        write(&wg, &pw, &WITH_PAYLOAD).unwrap();
        let pristine = [&pu, &pw].map(|p| std::fs::read(p).unwrap());
        for (at, count) in [(24, u64::MAX), (24, 1 << 61), (32, u64::MAX)] {
            for (p, bytes) in [&pu, &pw].into_iter().zip(&pristine) {
                let mut bytes = bytes.clone();
                bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
                let sum = fnv1a64(&bytes[0..44]) as u32;
                bytes[44..48].copy_from_slice(&sum.to_le_bytes());
                std::fs::write(p, &bytes).unwrap();
            }
            let errs = [
                read_compressed::<()>(&pu).err(),
                read_compressed::<u32>(&pw).err(),
                MappedGraph::<()>::open(&pu).err(),
                MappedGraph::<u32>::open(&pw).err(),
            ];
            for e in errs {
                let e = e.unwrap_or_else(|| panic!("count {count:#x} at byte {at} was accepted"));
                assert_eq!(e.code(), "parse", "{e}");
            }
        }
        std::fs::remove_file(&pu).ok();
        std::fs::remove_file(&pw).ok();
    }

    #[test]
    fn empty_and_tiny_graphs() {
        for (name, n, edges) in [
            ("empty", 0usize, vec![]),
            ("single", 1, vec![]),
            ("one-edge", 2, vec![(0u32, 1u32)]),
        ] {
            let g = crate::builder::from_pairs(n, &edges);
            let p = tmp(name);
            write(&g, &p, &ContainerWriteOptions::default()).unwrap();
            let mg: MappedGraph<()> = MappedGraph::open(&p).unwrap();
            mg.verify(&p).unwrap();
            same_as_csr(&g, &mg);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn weightedness_mismatch_rejected_both_ways() {
        let g = erdos_renyi(50, 300, 1, true);
        let p = tmp("mismatch");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let err = MappedGraph::<u32>::open(&p).unwrap_err();
        assert_eq!(err.code(), "parse");
        assert!(err.to_string().contains("weightedness"), "{err}");
        let wg = assign_weights(&g, 1, 5, 2);
        write(&wg, &p, &ContainerWriteOptions::default()).unwrap();
        let err = MappedGraph::<()>::open(&p).unwrap_err();
        assert!(err.to_string().contains("weightedness"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_files_are_typed_parse_errors() {
        let g = erdos_renyi(100, 600, 9, true);
        let p = tmp("corrupt");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let pristine = std::fs::read(&p).unwrap();

        // Bad magic.
        let mut bytes = pristine.clone();
        bytes[0] = b'X';
        std::fs::write(&p, &bytes).unwrap();
        let err = MappedGraph::<()>::open(&p).unwrap_err();
        assert_eq!(err.code(), "parse");
        assert!(err.to_string().contains("magic"), "{err}");

        // Wrong version.
        let mut bytes = pristine.clone();
        bytes[8] = 99;
        // Header checksum covers the version, so recompute it to isolate
        // the version check.
        let sum = fnv1a64(&bytes[0..44]) as u32;
        bytes[44..48].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = MappedGraph::<()>::open(&p).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Flipped header byte without fixing the checksum.
        let mut bytes = pristine.clone();
        bytes[25] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let err = MappedGraph::<()>::open(&p).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation mid-section.
        std::fs::write(&p, &pristine[..pristine.len() / 2]).unwrap();
        let err = MappedGraph::<()>::open(&p).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // A flipped payload byte opens fine (open is O(sections)) but fails
        // verify() via the section checksum.
        let mut bytes = pristine.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let mg = MappedGraph::<()>::open(&p).unwrap();
        let err = mg.verify(&p).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        std::fs::remove_file(&p).ok();
    }

    /// Byte range of a section's payload within a serialized container.
    fn section_range(bytes: &[u8], want_kind: u32) -> std::ops::Range<usize> {
        let count = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let kind = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if kind == want_kind {
                let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
                return off..off + len;
            }
        }
        panic!("section {want_kind} not found");
    }

    #[test]
    fn corrupt_payload_makes_to_csr_a_parse_error() {
        let g = erdos_renyi(120, 800, 21, true);
        let p = tmp("badcsr");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let r = section_range(&bytes, kind::OFFSETS);
        for b in &mut bytes[r] {
            *b = 0xEE;
        }
        std::fs::write(&p, &bytes).unwrap();
        // Header is intact, so open (O(sections)) succeeds; materializing
        // must surface a typed error, not a garbage graph or debug-only
        // assert.
        let mg: MappedGraph<()> = MappedGraph::open(&p).unwrap();
        let err = mg.to_csr().unwrap_err();
        assert_eq!(err.code(), "parse");
        assert!(
            err.to_string().contains("corrupt container payload"),
            "{err}"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn peek_reads_header_only() {
        let g = assign_weights(&erdos_renyi(64, 400, 3, true), 1, 7, 1);
        let p = tmp("peek");
        write(&g, &p, &ContainerWriteOptions::default()).unwrap();
        let info = peek(&p).unwrap();
        assert_eq!(info.version, VERSION);
        assert!(info.weighted);
        assert!(info.symmetric);
        assert!(!info.has_compressed);
        assert_eq!(info.n, 64);
        assert_eq!(info.m, g.num_edges() as u64);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sections_are_64_byte_aligned() {
        let g = erdos_renyi(100, 700, 5, true);
        let p = tmp("align");
        write(&g, &p, &WITH_PAYLOAD).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let count = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            assert_eq!(offset % 64, 0, "section {i}");
        }
        std::fs::remove_file(&p).ok();
    }
}
