//! Ligra+-style byte-code compression of adjacency lists.
//!
//! Each vertex's sorted neighbor list is difference-encoded: the first
//! neighbor as a zig-zag signed delta from the vertex id, the rest as
//! unsigned gaps from the previous neighbor, all written as LEB128-style
//! variable-length byte codes. The paper relies on this (via Ligra+) to fit
//! the 225B-edge Hyperlink graph in 1TB; here it demonstrates the same
//! neighbor-iteration abstraction on compressed storage.
//!
//! The edge weight is a type parameter, as for [`Csr`]: [`Compressed<()>`]
//! stores gaps only, any other [`Weight`] interleaves one weight codeword
//! after each gap (Ligra+'s weighted byte codes). That is the *only*
//! difference between the two, and it is decided by [`Weight::IS_UNIT`] at
//! monomorphisation — one encoder, one validator, one traversal method set.
//!
//! Decoding runs on the table-driven cursor in [`crate::decode`] — a
//! first-byte code table plus a word-at-a-time continuation scan — with the
//! gap accumulation fused into the traversal loops, so the hot path is one
//! table lookup per edge for the common 1-byte codeword.
//!
//! # Chunked blocks
//!
//! A block whose degree exceeds the graph's *chunk size* is split into
//! fixed-size decode chunks, mirroring how CSR splits giant adjacency
//! ranges across `num_chunks` sub-tasks: the block begins with the byte
//! lengths of all-but-the-last chunk body (varints; the last length is
//! implied by the block end), followed by the bodies, each re-anchored on
//! its own first edge (zig-zag delta from the vertex id). Chunk `c` covers
//! local edges `[c·cs, min((c+1)·cs, deg))`, so edgeMap can decode the
//! chunks of one high-degree vertex in parallel instead of serializing on
//! the whole block. `chunk_size == 0` is the legacy unchunked layout —
//! byte-identical to what pre-chunking builds (and `.jgr` payloads) encode.

use crate::csr::{Csr, Weight};
use crate::decode::{put_varint, zigzag_decode, zigzag_encode, BlockDecoder};
use crate::VertexId;
use julienne_primitives::scan::prefix_sums;
use julienne_primitives::unsafe_write::DisjointWriter;
use rayon::prelude::*;
use std::marker::PhantomData;

/// Default edges-per-chunk for freshly encoded graphs. Small enough that a
/// hub vertex yields many parallel decode tasks, large enough that the
/// per-chunk header byte and re-anchor cost is noise (<1% size overhead on
/// power-law graphs).
pub const DEFAULT_CHUNK_SIZE: u32 = 256;

/// A byte-compressed graph: per-vertex blocks of gap codewords, each
/// followed by a weight codeword unless `W` is the unit weight. Weight
/// codewords are 32-bit (the fused pair kernel decodes them into a `u32`
/// lane), so a wider `W` must hold values that fit.
#[derive(Clone, Debug)]
pub struct Compressed<W: Weight> {
    n: usize,
    m: usize,
    /// Byte offset of each vertex's block (length n+1).
    offsets: Vec<u64>,
    /// Out-degree of each vertex (needed to know where to stop decoding).
    degrees: Vec<u32>,
    /// Concatenated byte-coded blocks.
    data: Vec<u8>,
    /// Edges per decode chunk; 0 = legacy unchunked blocks.
    chunk_size: u32,
    symmetric: bool,
    _weight: PhantomData<W>,
}

/// Unweighted compressed graph.
pub type CompressedGraph = Compressed<()>;
/// Integer-weighted compressed graph.
pub type CompressedWGraph = Compressed<u32>;

/// Encodes one run of edges sorted by target: zig-zag first delta, then
/// gaps, each followed by its weight codeword when `W` carries one.
fn encode_run<W: Weight>(v: VertexId, edges: &[(VertexId, W)], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for (i, &(u, w)) in edges.iter().enumerate() {
        if i == 0 {
            put_varint(out, zigzag_encode(u as i64 - v as i64));
        } else {
            put_varint(out, (u - prev) as u64);
        }
        if !W::IS_UNIT {
            let w = w.to_u64();
            assert!(w <= u64::from(u32::MAX), "weight {w} overflows u32");
            put_varint(out, w);
        }
        prev = u;
    }
}

/// Lays out one block, splitting into decode chunks when the degree
/// exceeds `chunk_size` (see the module docs for the layout).
fn encode_block<W: Weight>(
    v: VertexId,
    edges: &[(VertexId, W)],
    chunk_size: usize,
    out: &mut Vec<u8>,
) {
    if chunk_size == 0 || edges.len() <= chunk_size {
        encode_run(v, edges, out);
        return;
    }
    let mut bodies = Vec::with_capacity(edges.len() * 2);
    let mut lens = Vec::with_capacity(edges.len().div_ceil(chunk_size));
    for chunk in edges.chunks(chunk_size) {
        let start = bodies.len();
        encode_run(v, chunk, &mut bodies);
        lens.push(bodies.len() - start);
    }
    for &l in &lens[..lens.len() - 1] {
        put_varint(out, l as u64);
    }
    out.extend_from_slice(&bodies);
}

/// The weight codeword after a gap — nothing to read for the unit weight.
#[inline(always)]
fn decode_weight<W: Weight>(dec: &mut BlockDecoder<'_>) -> W {
    if W::IS_UNIT {
        W::default()
    } else {
        W::from_u64(dec.varint())
    }
}

/// Decodes one run with the gap accumulation fused in, stopping when `f`
/// returns `false`. Wrapping adds keep debug and release behavior identical
/// on (unvalidated, in-memory) corrupt input; validated graphs never wrap.
#[inline]
fn decode_run<W: Weight, F: FnMut(VertexId, W) -> bool>(
    v: VertexId,
    dec: &mut BlockDecoder<'_>,
    cnt: usize,
    f: &mut F,
) -> bool {
    let mut cur = (v as i64).wrapping_add(zigzag_decode(dec.varint())) as VertexId;
    if !f(cur, decode_weight(dec)) {
        return false;
    }
    for _ in 1..cnt {
        cur = cur.wrapping_add(dec.varint() as VertexId);
        if !f(cur, decode_weight(dec)) {
            return false;
        }
    }
    true
}

/// [`decode_run`] without the early-exit plumbing: the whole run is
/// decoded unconditionally, keeping the per-edge loop free of the bool
/// check for the (dominant) full-scan traversals.
#[inline(always)]
fn decode_run_all<W: Weight, F: FnMut(VertexId, W)>(
    v: VertexId,
    dec: &mut BlockDecoder<'_>,
    cnt: usize,
    f: &mut F,
) {
    let cur = (v as i64).wrapping_add(zigzag_decode(dec.varint())) as VertexId;
    f(cur, decode_weight(dec));
    // Fused bulk decode: the window scan peels several codewords per 8-byte
    // load *and* carries the gap accumulation (and, weighted, the gap/weight
    // interleave), so uniform windows produce neighbor ids through a
    // log-depth prefix tree instead of a serial per-edge add chain.
    if W::IS_UNIT {
        dec.for_each_delta_sum(cur, cnt - 1, |u| f(u, W::default()));
    } else {
        dec.for_each_delta_weight(cur, cnt - 1, |u, w| f(u, W::from_u64(u64::from(w))));
    }
}

/// Structural checks: array lengths, monotone offsets covering `data`
/// exactly, and degrees summing to `m`.
fn validate_parts(
    n: usize,
    m: usize,
    offsets: &[u64],
    degrees: &[u32],
    data_len: usize,
) -> Result<(), String> {
    if offsets.len() != n + 1 {
        return Err(format!(
            "offsets length {} != n+1 = {}",
            offsets.len(),
            n + 1
        ));
    }
    if degrees.len() != n {
        return Err(format!("degrees length {} != n = {n}", degrees.len()));
    }
    if offsets[0] != 0 {
        return Err(format!("offsets[0] = {} != 0", offsets[0]));
    }
    if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
        return Err(format!("offsets not monotone ({} > {})", w[0], w[1]));
    }
    if offsets[n] != data_len as u64 {
        return Err(format!(
            "offsets[n] = {} != data length {data_len}",
            offsets[n]
        ));
    }
    let sum: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
    if sum != m as u64 {
        return Err(format!("degree sum {sum} != m = {m}"));
    }
    Ok(())
}

/// Edges per independently decodable chunk for a stored chunk size: the
/// size itself, or `usize::MAX` for the legacy layout (`0`), whose blocks
/// are one run each.
#[inline]
fn chunk_edges(chunk_size: u32) -> usize {
    match chunk_size {
        0 => usize::MAX,
        cs => cs as usize,
    }
}

/// Walks one block with the fallible decoder, proving it decodes to exactly
/// its degree within its byte span and agrees with its chunk header.
fn validate_block<W: Weight>(
    n: usize,
    v: VertexId,
    deg: usize,
    block: &[u8],
    chunk_size: u32,
) -> Result<(), String> {
    let cs = chunk_edges(chunk_size);
    let nc = deg.div_ceil(cs);
    let mut dec = BlockDecoder::new(block);
    let mut lens = Vec::with_capacity(nc.saturating_sub(1));
    for _ in 1..nc {
        lens.push(dec.try_varint().map_err(String::from)?);
    }
    for ci in 0..nc {
        let start = dec.pos();
        validate_run::<W>(n, v, &mut dec, cs.min(deg - ci * cs))?;
        let len = (dec.pos() - start) as u64;
        if lens.get(ci).is_some_and(|&want| want != len) {
            return Err(format!(
                "chunk {ci} body is {len} bytes, header says {}",
                lens[ci]
            ));
        }
    }
    if dec.pos() != block.len() {
        return Err(format!(
            "{} trailing bytes in block",
            block.len() - dec.pos()
        ));
    }
    Ok(())
}

/// Validates one chunk body: in-range first delta, gaps that stay inside
/// `[0, n)`, and (weighted) a weight codeword after each that fits `u32`.
///
/// After the first (zig-zag) edge, a pair the decoder's window primitive
/// takes — both codewords at most 4 bytes, 8 bytes still left in the block
/// — is read by that primitive, exactly as the traversal will read it; such
/// a gap and weight are below 2^28, so only the range check is left to
/// make. Everything else goes through `try_varint`.
fn validate_run<W: Weight>(
    n: usize,
    v: VertexId,
    dec: &mut BlockDecoder<'_>,
    cnt: usize,
) -> Result<(), String> {
    let mut cur = 0u64;
    for i in 0..cnt {
        let pair = if i > 0 && !W::IS_UNIT {
            dec.try_window_pair()
        } else {
            None
        };
        let x = match pair {
            Some((gap, _)) => u64::from(gap),
            None => dec.try_varint().map_err(String::from)?,
        };
        cur = if i == 0 {
            let first = zigzag_decode(x);
            (v as i64)
                .checked_add(first)
                .filter(|&u| 0 <= u && u < n as i64)
                .ok_or_else(|| format!("first neighbor delta {first} leaves vertex range"))?
                as u64
        } else {
            cur.checked_add(x)
                .filter(|&u| u < n as u64)
                .ok_or_else(|| format!("neighbor gap {x} leaves vertex range"))?
        };
        if !W::IS_UNIT && pair.is_none() {
            let w = dec.try_varint().map_err(String::from)?;
            if w > u64::from(u32::MAX) {
                return Err(format!("weight {w} overflows u32"));
            }
        }
    }
    Ok(())
}

impl<W: Weight> Compressed<W> {
    /// Compresses `g` with the default chunked layout (edge lists are
    /// sorted by target first if needed).
    pub fn from_csr(g: &Csr<W>) -> Self {
        Self::from_csr_with_chunk_size(g, DEFAULT_CHUNK_SIZE)
    }

    /// Compresses `g` with an explicit decode-chunk size (`0` = legacy
    /// unchunked blocks, byte-identical to pre-chunking encodes).
    pub fn from_csr_with_chunk_size(g: &Csr<W>, chunk_size: u32) -> Self {
        let n = g.num_vertices();
        // Encode every vertex block in parallel into per-vertex buffers.
        let blocks: Vec<Vec<u8>> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| {
                let mut edges: Vec<(VertexId, W)> = g.edges_of(v).collect();
                edges.sort_unstable_by_key(|&(u, w)| (u, w.to_u64()));
                let mut buf = Vec::with_capacity(edges.len() * if W::IS_UNIT { 2 } else { 3 });
                encode_block(v, &edges, chunk_size as usize, &mut buf);
                buf
            })
            .collect();
        let mut counts: Vec<usize> = blocks.iter().map(Vec::len).collect();
        counts.push(0);
        let total = prefix_sums(&mut counts);
        let offsets: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
        let mut data = vec![0u8; total];
        for (v, block) in blocks.iter().enumerate() {
            data[offsets[v] as usize..offsets[v] as usize + block.len()].copy_from_slice(block);
        }
        Compressed {
            n,
            m: g.num_edges(),
            offsets,
            degrees: g.degrees(),
            data,
            chunk_size,
            symmetric: g.is_symmetric(),
            _weight: PhantomData,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Whether the source graph was symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Edges per decode chunk (`0` = legacy unchunked blocks).
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Edges per independently decodable chunk as a split granularity:
    /// [`chunk_size`](Self::chunk_size), or `usize::MAX` for the legacy
    /// layout, whose blocks cannot be split.
    #[inline]
    pub fn chunk_edges(&self) -> usize {
        chunk_edges(self.chunk_size)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Number of independently decodable chunks of `v`'s block (1 for any
    /// block at or under the chunk size, and for legacy layouts).
    #[inline]
    pub fn num_chunks_of(&self, v: VertexId) -> usize {
        self.degree(v).div_ceil(self.chunk_edges()).max(1)
    }

    /// Total compressed adjacency bytes (for reporting compression ratios).
    pub fn compressed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Total in-memory footprint in bytes: byte-coded blocks plus the
    /// offset/degree arrays.
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() + self.offsets.len() * 8 + self.degrees.len() * 4
    }

    /// The one chunk-header walk behind the whole-block traversals: skips
    /// `v`'s chunk-length header and hands `run` a cursor on each chunk
    /// body in turn with that chunk's edge count, until it returns `false`.
    /// An unchunked block is a single run of `deg` edges.
    #[inline(always)]
    fn for_each_run(&self, v: VertexId, mut run: impl FnMut(&mut BlockDecoder<'_>, usize) -> bool) {
        let deg = self.degree(v);
        let cs = self.chunk_edges();
        let mut dec = BlockDecoder::new_at(&self.data, self.offsets[v as usize] as usize);
        if deg > cs {
            dec.skip_varints(deg.div_ceil(cs) - 1);
        }
        let mut done = 0;
        while done < deg {
            let cnt = cs.min(deg - done);
            if !run(&mut dec, cnt) {
                return;
            }
            done += cnt;
        }
    }

    /// Decodes and visits each out-edge `(target, weight)` of `v` in
    /// increasing target order. Fused full-run decode: no early-exit check
    /// per edge.
    #[inline]
    pub fn for_each_out<F: FnMut(VertexId, W)>(&self, v: VertexId, mut f: F) {
        self.for_each_run(v, |dec, cnt| {
            decode_run_all(v, dec, cnt, &mut f);
            true
        });
    }

    /// Decodes out-edges of `v` in increasing target order until `f`
    /// returns `false` — the decode stops mid-block, so a pull traversal's
    /// early exit skips the remaining varints entirely.
    #[inline]
    pub fn for_each_out_until<F: FnMut(VertexId, W) -> bool>(&self, v: VertexId, mut f: F) {
        self.for_each_run(v, |dec, cnt| decode_run(v, dec, cnt, &mut f));
    }

    /// Decodes only chunk `c` of `v`'s block — local edge range
    /// `[c·cs, min((c+1)·cs, deg))` — jumping straight to its body via the
    /// block header. Chunks of one vertex may be decoded concurrently.
    #[inline]
    pub fn for_each_out_chunk<F: FnMut(VertexId, W)>(&self, v: VertexId, c: usize, mut f: F) {
        let deg = self.degree(v);
        if deg == 0 {
            debug_assert_eq!(c, 0, "chunk {c} of empty block");
            return;
        }
        let cs = self.chunk_edges();
        let mut dec = BlockDecoder::new_at(&self.data, self.offsets[v as usize] as usize);
        if deg <= cs {
            assert_eq!(c, 0, "unchunked block has a single chunk");
            decode_run_all(v, &mut dec, deg, &mut f);
            return;
        }
        let nc = deg.div_ceil(cs);
        assert!(c < nc, "chunk {c} out of range ({nc} chunks)");
        let mut skip = 0u64;
        for i in 0..nc - 1 {
            let l = dec.varint();
            if i < c {
                skip += l;
            }
        }
        dec.advance(skip as usize);
        let cnt = cs.min(deg - c * cs);
        decode_run_all(v, &mut dec, cnt, &mut f);
    }

    /// The raw storage arrays `(offsets, degrees, data)` — what the `.jgr`
    /// container embeds verbatim as its compressed-payload sections.
    pub fn raw_parts(&self) -> (&[u64], &[u32], &[u8]) {
        (&self.offsets, &self.degrees, &self.data)
    }

    /// Rebuilds a graph from storage arrays produced by
    /// [`raw_parts`](Self::raw_parts) (the `.jgr` load path — the byte
    /// blocks are adopted verbatim, never re-encoded), failing closed on
    /// corrupt input: structural checks on offsets/degrees, then a full
    /// parallel decode walk proving every block is well-formed, in-range,
    /// and consistent with its chunk header. After this, traversals cannot
    /// read out of bounds or decode garbage.
    pub fn try_from_raw_parts(
        n: usize,
        m: usize,
        offsets: Vec<u64>,
        degrees: Vec<u32>,
        data: Vec<u8>,
        symmetric: bool,
        chunk_size: u32,
    ) -> Result<Self, String> {
        validate_parts(n, m, &offsets, &degrees, data.len())?;
        let check = |v: usize| {
            let block = &data[offsets[v] as usize..offsets[v + 1] as usize];
            validate_block::<W>(n, v as VertexId, degrees[v] as usize, block, chunk_size)
        };
        // Report the lowest corrupt vertex, whatever the schedule: find it,
        // then walk that one block again for the message.
        let lowest = (0..n).into_par_iter().filter(|&v| check(v).is_err());
        if let Some(v) = lowest.min() {
            return Err(format!("vertex {v}: {}", check(v).unwrap_err()));
        }
        Ok(Compressed {
            n,
            m,
            offsets,
            degrees,
            data,
            chunk_size,
            symmetric,
            _weight: PhantomData,
        })
    }

    /// Decompresses back into a CSR.
    pub fn to_csr(&self) -> Csr<W> {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &d in &self.degrees {
            acc += d as u64;
            offsets.push(acc);
        }
        let mut targets = vec![0 as VertexId; self.m];
        let mut weights = vec![W::default(); self.m];
        {
            let wt = DisjointWriter::new(&mut targets);
            let ww = DisjointWriter::new(&mut weights);
            (0..self.n as VertexId).into_par_iter().for_each(|v| {
                let mut k = offsets[v as usize] as usize;
                self.for_each_out(v, |u, w| {
                    // SAFETY: each vertex owns a disjoint target range.
                    unsafe {
                        wt.write(k, u);
                        ww.write(k, w);
                    }
                    k += 1;
                });
            });
        }
        Csr::from_parts(offsets, targets, weights, self.symmetric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_pairs;
    use crate::generators::{erdos_renyi, rmat, RmatParams};
    use crate::transform::assign_weights;

    /// Every behaviour below is asserted once, in a helper generic over the
    /// weight, and run at `()` and `u32` over the same edge structure.
    fn weighted(g: &Csr<()>) -> Csr<u32> {
        assign_weights(g, 1, 1000, 7)
    }

    fn out<W: Weight>(c: &Compressed<W>, v: VertexId) -> Vec<(VertexId, W)> {
        let mut edges = Vec::with_capacity(c.degree(v));
        c.for_each_out(v, |u, w| edges.push((u, w)));
        edges
    }

    fn sorted_edges<W: Weight>(g: &Csr<W>, v: VertexId) -> Vec<(VertexId, W)> {
        let mut want: Vec<(VertexId, W)> = g.edges_of(v).collect();
        want.sort_unstable_by_key(|&(u, w)| (u, w.to_u64()));
        want
    }

    fn vertices<W: Weight>(g: &Csr<W>) -> std::ops::Range<VertexId> {
        0..g.num_vertices() as VertexId
    }

    fn check_roundtrip<W: Weight>(g: &Csr<W>) {
        let c = Compressed::from_csr(g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.is_symmetric(), g.is_symmetric());
        let back = c.to_csr();
        for v in vertices(g) {
            let want = sorted_edges(g, v);
            assert_eq!(out(&c, v), want, "decoded edges of {v}");
            assert_eq!(back.edges_of(v).collect::<Vec<_>>(), want, "to_csr {v}");
            assert_eq!(c.degree(v), g.degree(v));
        }
        // Gaps (and interleaved weights) compress below the raw arrays.
        let raw = g.num_edges() * (4 + std::mem::size_of::<W>());
        assert!(
            c.compressed_bytes() < raw,
            "{} >= raw {raw}",
            c.compressed_bytes()
        );
    }

    #[test]
    fn compress_roundtrip() {
        let g = erdos_renyi(2000, 20_000, 42, false);
        check_roundtrip(&g);
        check_roundtrip(&weighted(&g));
        let g = rmat(12, 8, RmatParams::default(), 1, true);
        check_roundtrip(&g);
        check_roundtrip(&weighted(&g));
    }

    /// Every chunk size — including pathological 1 — decodes to the same
    /// edge lists as the legacy unchunked layout, and concatenating the
    /// per-chunk decodes reproduces the whole block chunk by chunk.
    fn check_chunks<W: Weight>(g: &Csr<W>) {
        let legacy = Compressed::from_csr_with_chunk_size(g, 0);
        for cs in [1u32, 3, 6, 64, DEFAULT_CHUNK_SIZE] {
            let c = Compressed::from_csr_with_chunk_size(g, cs);
            assert_eq!(c.chunk_size(), cs);
            for v in vertices(g) {
                let whole = out(&legacy, v);
                assert_eq!(out(&c, v), whole, "cs={cs} v={v}");
                assert_eq!(legacy.num_chunks_of(v), 1);
                let deg = c.degree(v);
                assert_eq!(c.num_chunks_of(v), deg.div_ceil(cs as usize).max(1));
                let mut got = Vec::new();
                for ch in 0..c.num_chunks_of(v) {
                    let before = got.len();
                    c.for_each_out_chunk(v, ch, |u, w| got.push((u, w)));
                    let want = (cs as usize).min(deg - ch * cs as usize);
                    assert_eq!(got.len() - before, want, "cs={cs} v={v} chunk {ch}");
                }
                assert_eq!(got, whole, "chunk concat cs={cs} v={v}");
            }
        }
    }

    #[test]
    fn chunk_decode_matches_whole_block() {
        // A star hub: 20 edges / 6 per chunk = chunks of 6, 6, 6, 2.
        let hub = from_pairs(21, &(1..=20).map(|u| (0, u)).collect::<Vec<_>>());
        check_chunks(&hub);
        check_chunks(&weighted(&hub));
        let g = erdos_renyi(600, 24_000, 11, true);
        check_chunks(&g);
        check_chunks(&weighted(&g));
    }

    #[test]
    fn compression_shrinks_rmat() {
        let g = rmat(14, 8, RmatParams::default(), 1, true);
        let c = CompressedGraph::from_csr(&g);
        let raw_bytes = g.num_edges() * 4;
        assert!(
            c.compressed_bytes() < raw_bytes,
            "compressed {} >= raw {}",
            c.compressed_bytes(),
            raw_bytes
        );
        // And it still decodes correctly on a sample.
        for v in vertices(&g).step_by(97) {
            assert_eq!(out(&c, v), sorted_edges(&g, v));
        }
    }

    fn check_until_stops_early<W: Weight>(g: &Csr<W>) {
        for cs in [0u32, 2] {
            let c = Compressed::from_csr_with_chunk_size(g, cs);
            for stop in 1..=c.degree(0) {
                let mut seen = Vec::new();
                c.for_each_out_until(0, |u, w| {
                    seen.push((u, w));
                    seen.len() < stop
                });
                assert_eq!(seen, out(&c, 0)[..stop], "cs={cs} stop={stop}");
            }
        }
    }

    #[test]
    fn out_until_stops_early() {
        let g = from_pairs(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        check_until_stops_early(&g);
        check_until_stops_early(&weighted(&g));
    }

    #[test]
    fn empty_and_isolated() {
        let g = from_pairs(5, &[(0, 4)]);
        let c = CompressedGraph::from_csr(&g);
        assert_eq!(out(&c, 0), vec![(4, ())]);
        for v in 1..4 {
            assert!(out(&c, v).is_empty());
            assert_eq!(c.degree(v), 0);
        }
    }

    /// The on-disk encoding, pinned: 6 vertices at chunk size 3. Vertex 0
    /// (5 edges) splits into two chunks behind a one-length header; vertex 2
    /// holds a multi-edge to 4 whose two weights arrive out of order;
    /// vertex 3 is a self-loop (delta 0); vertex 5 points backwards
    /// (negative zig-zag delta) with a 3-byte weight.
    #[test]
    fn golden_bytes() {
        let offsets = vec![0u64, 5, 5, 7, 8, 8, 10];
        let targets = vec![1u32, 2, 3, 4, 5, 4, 4, 3, 0, 5];
        let weights = vec![1u32, 2, 130, 4, 5, 300, 7, 9, 16384, 1];
        let gu: Csr<()> = Csr::from_parts(offsets.clone(), targets.clone(), vec![], false);
        let gw: Csr<u32> = Csr::from_parts(offsets, targets, weights, false);
        let degrees: &[u32] = &[5, 0, 2, 1, 0, 2];

        let cu = CompressedGraph::from_csr_with_chunk_size(&gu, 3);
        let (o, d, b) = cu.raw_parts();
        assert_eq!(o, [0, 6, 6, 8, 9, 9, 11]);
        assert_eq!(d, degrees);
        assert_eq!(b, [3, 2, 1, 1, 8, 1, 4, 0, 0, 9, 5]);

        let cw = CompressedWGraph::from_csr_with_chunk_size(&gw, 3);
        let (o, d, b) = cw.raw_parts();
        assert_eq!(o, [0, 12, 12, 17, 19, 19, 25]);
        assert_eq!(d, degrees);
        assert_eq!(
            b,
            [
                7, 2, 1, 1, 2, 1, 130, 1, 8, 4, 1, 5, // vertex 0: header, two chunks
                4, 7, 0, 172, 2, // vertex 2: (4, 7) then (4, 300)
                0, 9, // vertex 3
                9, 128, 128, 1, 5, 1, // vertex 5: (0, 16384), (5, 1)
            ]
        );
    }

    /// `try_from_raw_parts` on `c`'s own arrays with one of them replaced.
    fn rebuild<W: Weight>(
        c: &Compressed<W>,
        offsets: Option<Vec<u64>>,
        degrees: Option<Vec<u32>>,
        data: Option<Vec<u8>>,
    ) -> Result<Compressed<W>, String> {
        let (o, d, b) = c.raw_parts();
        Compressed::try_from_raw_parts(
            c.num_vertices(),
            c.num_edges(),
            offsets.unwrap_or_else(|| o.to_vec()),
            degrees.unwrap_or_else(|| d.to_vec()),
            data.unwrap_or_else(|| b.to_vec()),
            c.is_symmetric(),
            c.chunk_size(),
        )
    }

    fn check_corrupt_structure_rejected<W: Weight>(g: &Csr<W>) {
        let c = Compressed::from_csr(g);
        let (o, d, b) = c.raw_parts();
        // The pristine parts reconstruct fine.
        assert!(rebuild(&c, None, None, None).is_ok());
        // Truncated data (by a byte, and by half): offsets no longer cover
        // it — a typed error, not a traversal panic.
        for keep in [b.len() - 1, b.len() / 2] {
            let err = rebuild(&c, None, None, Some(b[..keep].to_vec())).unwrap_err();
            assert!(err.contains("data length"), "{err}");
        }
        // Non-monotone offsets.
        let mut bad_o = o.to_vec();
        bad_o[1] = bad_o[2] + 1;
        let err = rebuild(&c, Some(bad_o), None, None).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        // Degree sum disagrees with m.
        let mut bad_d = d.to_vec();
        bad_d[0] += 1;
        let err = rebuild(&c, None, Some(bad_d), None).unwrap_err();
        assert!(err.contains("degree sum"), "{err}");
        // Wrong offsets length.
        let err = rebuild(&c, Some(o[..o.len() - 1].to_vec()), None, None).unwrap_err();
        assert!(err.contains("offsets length"), "{err}");
    }

    #[test]
    fn corrupt_structural_payload_rejected() {
        let g = erdos_renyi(200, 2_000, 3, true);
        check_corrupt_structure_rejected(&g);
        check_corrupt_structure_rejected(&weighted(&g));
    }

    /// A graph on `n` vertices whose first vertices own `blocks` (degree,
    /// bytes) verbatim in the unchunked layout.
    fn from_blocks<W: Weight>(
        n: usize,
        blocks: &[(u32, Vec<u8>)],
    ) -> Result<Compressed<W>, String> {
        let mut offsets = vec![0u64];
        let mut degrees = vec![0u32; n];
        let mut data = Vec::new();
        for (v, (deg, bytes)) in blocks.iter().enumerate() {
            degrees[v] = *deg;
            data.extend_from_slice(bytes);
            offsets.push(data.len() as u64);
        }
        offsets.resize(n + 1, data.len() as u64);
        let m = blocks.iter().map(|b| b.0 as usize).sum();
        Compressed::try_from_raw_parts(n, m, offsets, degrees, data, false, 0)
    }

    /// A two-vertex graph whose vertex 0 has `deg` edges coded as `data`.
    fn one_block<W: Weight>(data: Vec<u8>, deg: u32) -> Result<Compressed<W>, String> {
        from_blocks(2, &[(deg, data)])
    }

    fn check_corrupt_block_bytes_rejected<W: Weight>() {
        // Single-byte gap codewords, each followed by a weight of 1 when
        // the byte code carries weights.
        let edges = |gaps: &[u8]| -> Vec<u8> {
            gaps.iter()
                .flat_map(|&g| [g, 1].into_iter().take(if W::IS_UNIT { 1 } else { 2 }))
                .collect()
        };
        // An overlong codeword (the old decoder's unbounded-shift hole), a
        // truncated codeword, an out-of-range neighbor, and trailing
        // garbage — all typed errors.
        let err = one_block::<W>(vec![0x80; 11], 1).unwrap_err();
        assert!(err.contains("overlong"), "{err}");
        let err = one_block::<W>(vec![0x80, 0x80], 1).unwrap_err();
        assert!(err.contains("mid-codeword"), "{err}");
        // zigzag(+5) from vertex 0 = neighbor 5 ≥ n = 2.
        let err = one_block::<W>(edges(&[0x0A]), 1).unwrap_err();
        assert!(err.contains("vertex range"), "{err}");
        // Valid neighbor followed by trailing garbage.
        let mut data = edges(&[0x02]);
        assert!(one_block::<W>(data.clone(), 1).is_ok());
        data.push(0x00);
        let err = one_block::<W>(data, 1).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        // Gap that runs past n.
        let err = one_block::<W>(edges(&[0x02, 0x7F]), 2).unwrap_err();
        assert!(err.contains("vertex range"), "{err}");
    }

    #[test]
    fn corrupt_block_bytes_rejected() {
        check_corrupt_block_bytes_rejected::<()>();
        check_corrupt_block_bytes_rejected::<u32>();
    }

    #[test]
    fn corrupt_weight_codeword_rejected() {
        // A weight codeword too large for u32 fails closed.
        let mut data = Vec::new();
        put_varint(&mut data, zigzag_encode(1)); // neighbor 1
        put_varint(&mut data, u64::from(u32::MAX) + 1); // weight overflow
        let err = one_block::<u32>(data, 1).unwrap_err();
        assert!(err.contains("overflows u32"), "{err}");
        // A gap with no weight after it: the unweighted reading of the
        // same bytes is fine, the weighted one is truncated.
        assert!(one_block::<()>(vec![0x02], 1).is_ok());
        let err = one_block::<u32>(vec![0x02], 1).unwrap_err();
        assert!(err.contains("mid-codeword"), "{err}");
    }

    /// The validator as it stood before the window primitive, byte at a
    /// time through `try_varint`: the oracle for what the loader accepts.
    fn validate_run_scalar<W: Weight>(
        n: usize,
        v: VertexId,
        dec: &mut BlockDecoder<'_>,
        cnt: usize,
    ) -> Result<(), String> {
        let mut cur = 0u64;
        for i in 0..cnt {
            let x = dec.try_varint().map_err(String::from)?;
            cur = if i == 0 {
                let first = zigzag_decode(x);
                (v as i64)
                    .checked_add(first)
                    .filter(|&u| 0 <= u && u < n as i64)
                    .ok_or_else(|| format!("first neighbor delta {first} leaves vertex range"))?
                    as u64
            } else {
                cur.checked_add(x)
                    .filter(|&u| u < n as u64)
                    .ok_or_else(|| format!("neighbor gap {x} leaves vertex range"))?
            };
            if !W::IS_UNIT {
                let w = dec.try_varint().map_err(String::from)?;
                if w > u64::from(u32::MAX) {
                    return Err(format!("weight {w} overflows u32"));
                }
            }
        }
        Ok(())
    }

    /// Both validators over `run` as a `cnt`-edge run of vertex `v`, from
    /// cursor offsets 0..3: same verdict, same error text, same bytes
    /// consumed (which is all `validate_block` sees of a run).
    fn assert_validators_agree<W: Weight>(n: usize, v: VertexId, run: &[u8], cnt: usize) {
        for lead in 0..3 {
            let mut buf = vec![0x80; lead];
            buf.extend_from_slice(run);
            let windowed = {
                let mut dec = BlockDecoder::new_at(&buf, lead);
                validate_run::<W>(n, v, &mut dec, cnt).map(|()| dec.pos())
            };
            let scalar = {
                let mut dec = BlockDecoder::new_at(&buf, lead);
                validate_run_scalar::<W>(n, v, &mut dec, cnt).map(|()| dec.pos())
            };
            assert_eq!(windowed, scalar, "v={v} cnt={cnt} lead={lead} run={run:?}");
        }
    }

    /// Every block of `g` (one run each: unchunked layout), pristine and
    /// under every single-bit flip, every truncation and a byte inserted at
    /// every position.
    fn check_validators_agree_under_mutation<W: Weight>(g: &Csr<W>) {
        let c = Compressed::from_csr_with_chunk_size(g, 0);
        let (o, d, b) = c.raw_parts();
        let n = c.num_vertices();
        for v in vertices(g) {
            let run = &b[o[v as usize] as usize..o[v as usize + 1] as usize];
            let cnt = d[v as usize] as usize;
            assert_validators_agree::<W>(n, v, run, cnt);
            assert_validators_agree::<W>(n, v, run, cnt + 1);
            for at in 0..run.len() {
                assert_validators_agree::<W>(n, v, &run[..at], cnt);
                for bit in 0..8 {
                    let mut m = run.to_vec();
                    m[at] ^= 1 << bit;
                    assert_validators_agree::<W>(n, v, &m, cnt);
                }
                for byte in [0x00, 0x7F, 0x80, 0xFF] {
                    let mut m = run.to_vec();
                    m.insert(at, byte);
                    assert_validators_agree::<W>(n, v, &m, cnt);
                }
            }
        }
    }

    #[test]
    fn windowed_validator_matches_scalar_oracle() {
        // Sparse ids (2–3-byte gaps) under `gen weights=heavy` weights
        // (3-byte codewords), and a hub whose block is mostly 1-byte gaps.
        let g = erdos_renyi(3000, 9_000, 5, false);
        check_validators_agree_under_mutation(&g);
        check_validators_agree_under_mutation(&assign_weights(&g, 1, 100_000, 7));
        let hub = from_pairs(400, &(1..300).map(|u| (0, u)).collect::<Vec<_>>());
        check_validators_agree_under_mutation(&hub);
        check_validators_agree_under_mutation(&assign_weights(&hub, 1, u32::MAX, 7));
    }

    /// A weighted block of vertex 0: a first edge to `first` with weight
    /// 1, then the `(gap, weight)` pairs.
    fn pairs_block(first: u32, pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut b = Vec::new();
        put_varint(&mut b, zigzag_encode(i64::from(first)));
        put_varint(&mut b, 1);
        for &(gap, weight) in pairs {
            put_varint(&mut b, gap);
            put_varint(&mut b, weight);
        }
        b
    }

    #[test]
    fn window_edge_cases_validate_like_the_oracle() {
        const N: usize = 100_000;
        let verdict = |deg: u32, block: Vec<u8>| {
            assert_validators_agree::<u32>(N, 0, &block, deg as usize);
            from_blocks::<u32>(N, &[(deg, block)]).map(|_| ())
        };
        // A 5-byte weight above u32::MAX with a full window in front of
        // it: the primitive declines, the scalar pair refuses it.
        let over = u64::from(u32::MAX) + 1;
        let err = verdict(4, pairs_block(1, &[(300, over), (1, 1), (1, 1)])).unwrap_err();
        assert_eq!(err, format!("vertex 0: weight {over} overflows u32"));
        // A windowed gap landing exactly on n, and one short of it.
        let to_n = N as u64 - 1;
        let body = |gap| pairs_block(1, &[(gap, 70_000), (0, 1)]);
        let err = verdict(3, body(to_n)).unwrap_err();
        assert_eq!(
            err,
            format!("vertex 0: neighbor gap {to_n} leaves vertex range")
        );
        assert_eq!(verdict(3, body(to_n - 1)), Ok(()));
        // A (4-byte, 4-byte) pair whose second stop byte is the block's
        // last byte: the window is exactly the rest of the block. (The gap
        // is 5 padded to 4 bytes, to keep n small.)
        let mut wide = pairs_block(1, &[]);
        wide.extend_from_slice(&[0x85, 0x80, 0x80, 0x00]);
        put_varint(&mut wide, 1 << 27);
        assert_eq!(wide.len(), 2 + 8);
        assert_eq!(verdict(2, wide), Ok(()));
        // A 7-byte block never holds a window.
        let short = pairs_block(1, &[(200, 5), (1, 1)]);
        assert_eq!(short.len(), 7);
        assert_eq!(verdict(3, short), Ok(()));
        // The last pair's weight stops only in the next vertex's block:
        // truncated here, trailing bytes there — never read across.
        let mut cut = pairs_block(1, &[(300, 70_000), (300, 70_000)]);
        let spill = cut.pop().unwrap();
        assert_validators_agree::<u32>(N, 0, &cut, 3);
        let next = [vec![spill], pairs_block(5, &[])].concat();
        let err = from_blocks::<u32>(N, &[(3, cut), (1, next)]).unwrap_err();
        assert_eq!(err, "vertex 0: block ends mid-codeword");
    }

    fn check_corrupt_chunk_header_rejected<W: Weight>(g: &Csr<W>) {
        // Chunked block whose header length disagrees with the body.
        let c = Compressed::from_csr_with_chunk_size(g, 4);
        assert_eq!(c.num_chunks_of(0), 3);
        // Vertex 0's block starts with two chunk-body lengths; bump the
        // first so the walk detects the mismatch.
        let mut b = c.raw_parts().2.to_vec();
        b[0] += 1;
        let err = rebuild(&c, None, None, Some(b)).unwrap_err();
        assert!(
            err.contains("header says") || err.contains("trailing"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_chunk_header_rejected() {
        let g = from_pairs(10, &(1..=9).map(|u| (0, u)).collect::<Vec<_>>());
        check_corrupt_chunk_header_rejected(&g);
        check_corrupt_chunk_header_rejected(&weighted(&g));
    }
}
