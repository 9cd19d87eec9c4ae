//! Branch-reduced LEB128 varint decoding for the byte-compressed backend.
//!
//! The hot loop of every compressed traversal is "decode the next gap
//! codeword" — and, weighted, the weight codeword behind it. Everything
//! here reads an unaligned little-endian window at the cursor, finds the
//! stop bytes with one continuation-bit scan and `trailing_zeros`, and
//! splices the 7-bit groups with a masked shift-collapse (`WINDOW_KEEP`),
//! so a codeword's length never becomes a branch:
//!
//! * [`window_pair`] — the pure primitive: one whole (gap, weight) pair out
//!   of 8 bytes, with a single "not that shape" exit (a 5+-byte codeword).
//!   It is what a pair *is*: [`BlockDecoder::for_each_delta_weight`]
//!   traverses with it and the `.jgr` load-time validator in
//!   [`compress`](crate::compress) checks with it, so the loader accepts
//!   exactly what the traversal decodes.
//! * [`BlockDecoder::for_each_delta_sum`] / `for_each_delta_weight` — the
//!   fused adjacency loops. In front of the general path each keeps the one
//!   uniform-window tier the `bench --bin decode` trial showed to pay: a
//!   window of eight 1-byte gaps (four (1, 1)-byte pairs, plus a masked
//!   short remainder of them) decodes by shifts alone, with the gap sums
//!   from a log-depth prefix tree. The general unweighted path peels
//!   mixed-length codewords out of the register; the general weighted path
//!   is `window_pair`.
//! * [`BlockDecoder::varint`] — the codeword-at-a-time cursor (first edge
//!   of a run, chunk headers, early-exit traversals), branchless from a
//!   4-byte window.
//! * [`BlockDecoder::try_varint`] — the `Result` form, byte at a time
//!   through the 256-entry [`FIRST_BYTE`] table with an explicit 10-byte
//!   length cap, so corrupt input can never overflow the shift or read past
//!   the slice. It is the only code that validates: the validator uses it
//!   for whatever the window primitive declines, and the traversal loops
//!   fall back to it (panicking with a clear message, since they only ever
//!   run over blocks that were encoded in-process or validated at load).

/// Longest legal LEB128 codeword for a `u64`: nine full 7-bit groups plus a
/// tenth byte that may only carry the final (63rd) bit.
pub const MAX_VARINT_LEN: usize = 10;

/// Corrupt-input reason: a block (or chunk) ended in the middle of a
/// codeword.
pub const ERR_TRUNCATED: &str = "block ends mid-codeword";

/// Corrupt-input reason: a codeword ran past [`MAX_VARINT_LEN`] bytes or set
/// payload bits beyond a `u64`.
pub const ERR_OVERLONG: &str = "codeword overflows u64 (overlong varint)";

/// One entry of the 256-way first-byte code table.
#[derive(Clone, Copy, Debug)]
pub struct FirstByte {
    /// The fully decoded value when `len == 1`; the byte's 7 payload bits
    /// when the codeword continues.
    pub value: u8,
    /// Codeword length resolved by this byte alone: 1 for terminal bytes,
    /// 0 when the continuation bit says more bytes follow.
    pub len: u8,
}

/// The first-byte code table: indexing with any byte value classifies the
/// codeword (terminal vs continued) and yields its payload bits without
/// shifts or masks in the hot loop.
pub static FIRST_BYTE: [FirstByte; 256] = build_first_byte_table();

const fn build_first_byte_table() -> [FirstByte; 256] {
    let mut t = [FirstByte { value: 0, len: 0 }; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = FirstByte {
            value: (b & 0x7F) as u8,
            len: if b < 0x80 { 1 } else { 0 },
        };
        b += 1;
    }
    t
}

/// Continuation bits of 8 packed codeword bytes.
const CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// Keep-masks for a 1..=4-byte codeword inside a little-endian 4-byte
/// window, indexed by codeword length. Masking with `WINDOW_KEEP[len]`
/// drops the bytes of the *next* codeword so the branchless collapse in
/// [`BlockDecoder::varint`] sees only this codeword's bytes.
static WINDOW_KEEP: [u32; 5] = [0, 0xFF, 0xFFFF, 0x00FF_FFFF, 0xFFFF_FFFF];

/// Splices the 7-bit payload groups of a 1..=4-byte codeword, already
/// masked down to its own bytes, in each 32-bit half of `x` at once.
#[inline(always)]
fn collapse(x: u64) -> u64 {
    const G: u64 = 0x0000_007F_0000_007F;
    (x & G) | ((x >> 1) & (G << 7)) | ((x >> 2) & (G << 14)) | ((x >> 3) & (G << 21))
}

/// The (gap, weight) pair at the low end of the little-endian window `w`,
/// as `(gap, weight, bytes)`, when both codewords are at most 4 bytes long
/// — such a pair lies wholly inside the 8 bytes, so one load decodes it.
/// This is what a pair *is*, for the traversal and the load-time validator
/// alike. `None` is the one "not that shape" exit, and the caller decodes
/// the pair on the scalar path: with no second stop byte in the window
/// `trailing_zeros` is 64, so a length comes out above 4 then too. The two
/// codewords are collapsed side by side, gap in the low half.
#[inline(always)]
pub fn window_pair(w: u64) -> Option<(u32, u32, usize)> {
    let stops = !w & CONT_BITS;
    let glen = (stops.trailing_zeros() >> 3) as usize + 1;
    let len = ((stops & stops.wrapping_sub(1)).trailing_zeros() >> 3) as usize + 1;
    let wlen = len - glen;
    if glen > 4 || wlen > 4 {
        return None;
    }
    let gap = w & u64::from(WINDOW_KEEP[glen]);
    let weight = (w >> (8 * glen)) & u64::from(WINDOW_KEEP[wlen]);
    let both = collapse(gap | (weight << 32));
    Some((both as u32, (both >> 32) as u32, len))
}

#[cold]
#[inline(never)]
fn corrupt(why: &str) -> ! {
    panic!("corrupt compressed block: {why}");
}

/// A decoding cursor over one vertex's byte-coded block (or a slice of the
/// concatenated block array).
pub struct BlockDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BlockDecoder<'a> {
    /// Starts a cursor at the beginning of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        BlockDecoder { buf, pos: 0 }
    }

    /// Starts a cursor at byte `pos` of `buf`. Traversals pass the *whole*
    /// concatenated block array here rather than slicing out one vertex's
    /// block: runs are count-bounded, so decoding never walks past the
    /// block's own codewords, and keeping the following blocks' bytes in
    /// range means the 4/8-byte lookahead windows stay on the fast path
    /// even for tiny blocks (a sliced 12-byte block would push most of its
    /// codewords onto the slow end-of-buffer fallback).
    #[inline]
    pub fn new_at(buf: &'a [u8], pos: usize) -> Self {
        BlockDecoder { buf, pos }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Skips `by` bytes (used to jump over chunk bodies via the block
    /// header's byte lengths). Saturates rather than wrapping so a corrupt
    /// length turns into a truncation error at the next read, never an
    /// out-of-bounds position.
    #[inline]
    pub fn advance(&mut self, by: usize) {
        self.pos = self.pos.saturating_add(by);
    }

    /// Decodes and discards `k` codewords (chunked-block headers).
    #[inline]
    pub fn skip_varints(&mut self, k: usize) {
        for _ in 0..k {
            let _ = self.varint();
        }
    }

    /// Decodes the next codeword, panicking with a clear message on corrupt
    /// input. Traversal paths use this: they only ever run over blocks that
    /// were either encoded in-process or validated at `.jgr` load time.
    ///
    /// Gap codewords on sorted adjacency are 1–3 bytes at any realistic
    /// scale, with the length varying codeword to codeword — exactly the
    /// pattern that makes a branch-per-byte loop mispredict. The inline
    /// fast path therefore decodes **branchlessly** from a 4-byte window:
    /// one unaligned load, the continuation-bit scan picks the stop byte
    /// via `trailing_zeros`, and a masked shift-collapse (using the
    /// precomputed `WINDOW_KEEP` code table) splices the payload bits —
    /// no data-dependent branches at all. Codewords of 5+ bytes and
    /// end-of-block windows fall back to the outlined `varint_multi`.
    #[inline(always)]
    pub fn varint(&mut self) -> u64 {
        let rest = self.buf.get(self.pos..).unwrap_or(&[]);
        if rest.len() >= 4 {
            let w = u32::from_le_bytes(rest[..4].try_into().unwrap());
            // Dedicated 1-byte exit: dense adjacency runs decode long
            // streaks of sub-128 gaps, so this branch predicts near
            // perfectly and skips the collapse entirely.
            if w & 0x80 == 0 {
                self.pos += 1;
                return (w & 0x7F) as u64;
            }
            let stops = !w & 0x8080_8080;
            if stops != 0 {
                let len = (stops.trailing_zeros() >> 3) as usize + 1;
                self.pos += len;
                return collapse(u64::from(w & WINDOW_KEEP[len]));
            }
        }
        // By-value in/out (not `&mut self`): the cursor's address must not
        // escape into the outlined call, or the whole decoder gets pinned
        // to the stack and every codeword pays a store-to-load round trip
        // on `pos`.
        let (x, pos) = varint_multi(self.buf, self.pos);
        self.pos = pos;
        x
    }

    /// Decodes `n` gap codewords and calls `f` with the running neighbor
    /// sum: `base + g1`, `base + g1 + g2`, … — the fused form of the
    /// unweighted adjacency inner loop.
    ///
    /// It loads an 8-byte window **once**, finds every stop byte in it with
    /// a single continuation-bit scan, then peels the codewords out of the
    /// register with `s &= s - 1` — so the serial dependency per codeword is
    /// a 1-cycle bit-clear instead of the load→scan→advance chain a
    /// codeword-at-a-time loop carries. A window typically yields 4–8
    /// codewords (gaps on sorted adjacency are 1–3 bytes). Codewords of 5+
    /// bytes, windows that end mid-codeword, and the last few bytes of the
    /// array fall back to the scalar path, which is also the only path that
    /// validates; like [`varint`](Self::varint), corrupt input panics.
    ///
    /// Fusing the accumulation here instead of in a caller closure matters
    /// for throughput: a closure-side `cur += gap` is an 8-deep serial add
    /// chain across a uniform window, while in here the eight sums come
    /// from a log-depth prefix tree and the dependency carried from one
    /// window to the next is a single add. Partial sums of in-window gaps
    /// use plain `+` (each gap is < 2^7, so the tree cannot overflow);
    /// only the add onto `cur` wraps, keeping debug and release behavior
    /// identical on unvalidated corrupt input.
    #[inline(always)]
    pub fn for_each_delta_sum<F: FnMut(u32)>(&mut self, base: u32, n: usize, mut f: F) {
        let buf = self.buf;
        let mut pos = self.pos;
        let mut left = n;
        let mut cur = base;
        // Hoisted window bound: one compare per window entry instead of an
        // Option subslice plus a length test.
        let last8 = buf.len().wrapping_sub(8);
        let has_windows = buf.len() >= 8;
        'next_window: while left > 0 {
            if has_windows && pos <= last8 {
                let w = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                let c = w & CONT_BITS;
                // The uniform window first: most edges sit in hub lists,
                // whose gaps are runs of 1-byte codewords, and a whole
                // window of those decodes with shifts alone — no
                // per-codeword scan at all.
                if c == 0 && left >= 8 {
                    // Eight 1-byte gaps: prefix-sum tree.
                    let g0 = (w & 0x7F) as u32;
                    let g1 = ((w >> 8) & 0x7F) as u32;
                    let g2 = ((w >> 16) & 0x7F) as u32;
                    let g3 = ((w >> 24) & 0x7F) as u32;
                    let g4 = ((w >> 32) & 0x7F) as u32;
                    let g5 = ((w >> 40) & 0x7F) as u32;
                    let g6 = ((w >> 48) & 0x7F) as u32;
                    let g7 = (w >> 56) as u32;
                    let p01 = g0 + g1;
                    let p23 = g2 + g3;
                    let p45 = g4 + g5;
                    let p03 = p01 + p23;
                    let b = cur;
                    f(b.wrapping_add(g0));
                    f(b.wrapping_add(p01));
                    f(b.wrapping_add(p01 + g2));
                    f(b.wrapping_add(p03));
                    f(b.wrapping_add(p03 + g4));
                    f(b.wrapping_add(p03 + p45));
                    f(b.wrapping_add(p03 + p45 + g6));
                    cur = b.wrapping_add(p03 + p45 + (g6 + g7));
                    f(cur);
                    pos += 8;
                    left -= 8;
                    continue 'next_window;
                }
                let mut s = c ^ CONT_BITS;
                if s != 0 {
                    // Mixed-length window: peel codewords out of the
                    // register by walking the stop bits. No upfront count —
                    // `count_ones` is a ~15-op SWAR on baseline x86-64 and
                    // would be paid at every run tail.
                    let mut start = 0usize;
                    let mut long = false;
                    while left > 0 && s != 0 {
                        let stop = (s.trailing_zeros() >> 3) as usize;
                        let len = stop - start + 1;
                        if len > 4 {
                            // Rare huge gap: commit the short codewords
                            // already decoded, scalar-decode the long one.
                            long = true;
                            break;
                        }
                        let m = (w >> (8 * start)) & u64::from(WINDOW_KEEP[len]);
                        cur = cur.wrapping_add(collapse(m) as u32);
                        f(cur);
                        start = stop + 1;
                        left -= 1;
                        s &= s - 1;
                    }
                    pos += start;
                    if !long {
                        continue 'next_window;
                    }
                }
            }
            // Window empty, ends mid-codeword, or a 5+-byte codeword is
            // next: one scalar (validating) decode, then re-window.
            let (x, np) = varint_multi(buf, pos);
            cur = cur.wrapping_add(x as u32);
            f(cur);
            pos = np;
            left -= 1;
        }
        self.pos = pos;
    }

    /// Decodes `n` interleaved (gap, weight) codeword pairs and calls
    /// `f(neighbor, weight)` with the running neighbor sum — the weighted
    /// twin of [`for_each_delta_sum`](Self::for_each_delta_sum), fusing the
    /// gap accumulation *and* the pair interleave into the window scan.
    ///
    /// Hub lists under light weights (`gen weights=log`) decode as whole
    /// windows — four (1-byte gap, 1-byte weight) pairs per 8-byte load
    /// with a log-depth prefix tree over the gaps, and a run's last one to
    /// three such pairs under a mask. Every other pair — any gap or weight
    /// of two or more bytes, which is every pair of `gen weights=heavy` —
    /// costs one window load and one [`window_pair`]: load at the cursor,
    /// peel, advance. The scalar (validating) pair is the only fallback: a
    /// codeword of 5+ bytes, or fewer than 8 bytes left in the array.
    #[inline(always)]
    pub fn for_each_delta_weight<F: FnMut(u32, u32)>(&mut self, base: u32, n: usize, mut f: F) {
        let buf = self.buf;
        let mut pos = self.pos;
        let mut left = n;
        let mut cur = base;
        let last8 = buf.len().wrapping_sub(8);
        let has_windows = buf.len() >= 8;
        'next_window: while left > 0 {
            if has_windows && pos <= last8 {
                let w = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                let c = w & CONT_BITS;
                if c == 0 && left >= 4 {
                    // Four (1-byte gap, 1-byte weight) pairs: gaps on even
                    // bytes, weights on odd; prefix-sum tree over the gaps.
                    let g0 = (w & 0x7F) as u32;
                    let g1 = ((w >> 16) & 0x7F) as u32;
                    let g2 = ((w >> 32) & 0x7F) as u32;
                    let g3 = ((w >> 48) & 0x7F) as u32;
                    let p01 = g0 + g1;
                    let b = cur;
                    f(b.wrapping_add(g0), ((w >> 8) & 0x7F) as u32);
                    f(b.wrapping_add(p01), ((w >> 24) & 0x7F) as u32);
                    f(b.wrapping_add(p01 + g2), ((w >> 40) & 0x7F) as u32);
                    cur = b.wrapping_add(p01 + g2 + g3);
                    f(cur, (w >> 56) as u32);
                    pos += 8;
                    left -= 4;
                    continue 'next_window;
                }
                if left < 4 {
                    // Short remainder of all-1-byte pairs: only the first
                    // `left` pairs matter, so test their continuation bits
                    // under a mask instead of demanding a uniform window —
                    // the lookahead bytes past the run can be anything.
                    let lm = (1u64 << (16 * left)) - 1;
                    if c & lm == 0 {
                        let mut t = w;
                        for _ in 0..left {
                            cur = cur.wrapping_add((t & 0x7F) as u32);
                            f(cur, ((t >> 8) & 0x7F) as u32);
                            t >>= 16;
                        }
                        self.pos = pos + 2 * left;
                        return;
                    }
                }
                if let Some((g, wt, len)) = window_pair(w) {
                    cur = cur.wrapping_add(g);
                    f(cur, wt);
                    pos += len;
                    left -= 1;
                    continue 'next_window;
                }
            }
            // Fewer than 8 bytes left in the array, or a 5+-byte codeword in
            // the pair: one scalar (validating) pair, then re-window.
            let (g, np) = varint_multi(buf, pos);
            cur = cur.wrapping_add(g as u32);
            let (wt, np2) = varint_multi(buf, np);
            f(cur, wt as u32);
            pos = np2;
            left -= 1;
        }
        self.pos = pos;
    }

    /// Decodes the next (gap, weight) pair by [`window_pair`] and advances
    /// past it; `None` (cursor unmoved) when fewer than 8 bytes remain or a
    /// codeword is longer than 4 bytes — [`try_varint`](Self::try_varint)
    /// then decides what the bytes are.
    #[inline(always)]
    pub fn try_window_pair(&mut self) -> Option<(u32, u32)> {
        let window = self.buf.get(self.pos..self.pos.checked_add(8)?)?;
        let (gap, weight, len) = window_pair(u64::from_le_bytes(window.try_into().unwrap()))?;
        self.pos += len;
        Some((gap, weight))
    }

    /// Decodes the next codeword, failing closed on truncated or overlong
    /// input. This is the load-time validation entry point.
    #[inline]
    pub fn try_varint(&mut self) -> Result<u64, &'static str> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(ERR_TRUNCATED);
        };
        let e = FIRST_BYTE[b as usize];
        self.pos += 1;
        if e.len == 1 {
            return Ok(e.value as u64);
        }
        self.try_varint_cont(e.value as u64)
    }

    /// Multi-byte continuation: scan the next 8 bytes as one word for the
    /// stop byte. A stop within the word means the codeword is ≤ 9 bytes
    /// total (shifts capped at 56+7 = 63), so this path cannot overflow.
    #[inline]
    fn try_varint_cont(&mut self, first: u64) -> Result<u64, &'static str> {
        let rest = &self.buf[self.pos..];
        if rest.len() >= 8 {
            let word = u64::from_le_bytes(rest[..8].try_into().unwrap());
            let stops = !word & CONT_BITS;
            if stops != 0 {
                let tail = (stops.trailing_zeros() >> 3) as usize + 1;
                let mut x = first;
                let mut shift = 7u32;
                for i in 0..tail {
                    x |= ((word >> (8 * i)) & 0x7F) << shift;
                    shift += 7;
                }
                self.pos += tail;
                return Ok(x);
            }
        }
        self.try_varint_tail(first)
    }

    /// Byte-at-a-time tail: blocks too short for a word load, plus the
    /// 10-byte boundary check that makes overlong codewords an error
    /// instead of an unbounded shift.
    fn try_varint_tail(&mut self, first: u64) -> Result<u64, &'static str> {
        let mut x = first;
        let mut shift = 7u32;
        loop {
            let Some(&b) = self.buf.get(self.pos) else {
                return Err(ERR_TRUNCATED);
            };
            self.pos += 1;
            if shift == 63 {
                // 10th byte: only the low bit may carry payload and the
                // continuation bit must be clear.
                if b > 1 {
                    return Err(ERR_OVERLONG);
                }
                return Ok(x | ((b as u64) << 63));
            }
            x |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }
}

/// Long-codeword / end-of-buffer continuation of [`BlockDecoder::varint`],
/// outlined to keep the fast path small. Panics on corrupt input.
#[inline(never)]
fn varint_multi(buf: &[u8], pos: usize) -> (u64, usize) {
    let mut dec = BlockDecoder { buf, pos };
    match dec.try_varint() {
        Ok(x) => (x, dec.pos),
        Err(why) => corrupt(why),
    }
}

/// Zig-zag encodes a signed delta (first-neighbor-minus-vertex) so small
/// magnitudes of either sign get short codewords.
#[inline]
pub fn zigzag_encode(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Appends the LEB128 codeword for `x` to `buf`.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// The pre-table decoder, kept verbatim as the microbench baseline
/// (`bench --bin decode` times it against [`BlockDecoder`]) and as the
/// proptest oracle for decode equivalence. Inherits the original
/// semantics: one branch per byte, slice-indexing bounds checks only.
pub mod reference {
    /// The original branch-per-byte varint loop this PR replaced.
    #[inline]
    pub fn get_varint(data: &[u8], pos: &mut usize) -> u64 {
        let mut x = 0u64;
        let mut shift = 0;
        loop {
            let byte = data[*pos];
            *pos += 1;
            x |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return x;
            }
            shift += 7;
        }
    }

    /// Decodes one unchunked neighbor run exactly the way the pre-table
    /// `for_each_neighbor` did.
    #[inline]
    pub fn for_each_neighbor_legacy<F: FnMut(crate::VertexId)>(
        v: crate::VertexId,
        deg: usize,
        data: &[u8],
        start: usize,
        mut f: F,
    ) {
        if deg == 0 {
            return;
        }
        let mut pos = start;
        let first = super::zigzag_decode(get_varint(data, &mut pos));
        let mut cur = (v as i64 + first) as u32;
        f(cur);
        for _ in 1..deg {
            cur += get_varint(data, &mut pos) as u32;
            f(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_definition() {
        for b in 0..=255u8 {
            let e = FIRST_BYTE[b as usize];
            assert_eq!(e.value, b & 0x7F);
            assert_eq!(e.len, u8::from(b & 0x80 == 0));
        }
    }

    #[test]
    fn varint_roundtrip_all_lengths() {
        let mut buf = Vec::new();
        let mut values = vec![0u64, 1, 127, 128, 300, (1 << 20) - 3, u32::MAX as u64];
        for k in 0..64 {
            values.push(1u64 << k);
            values.push((1u64 << k).wrapping_sub(1));
        }
        values.push(u64::MAX);
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut dec = BlockDecoder::new(&buf);
        for &v in &values {
            assert_eq!(dec.varint(), v);
        }
        assert_eq!(dec.pos(), buf.len());
        // The reference decoder agrees on valid input.
        let mut pos = 0;
        for &v in &values {
            assert_eq!(reference::get_varint(&buf, &mut pos), v);
        }
    }

    #[test]
    fn tail_path_matches_word_path() {
        // Decode the same multi-byte codeword with and without 8 bytes of
        // lookahead: pad vs no pad must agree.
        for &v in &[128u64, 1 << 14, 1 << 21, 1 << 42, u64::MAX] {
            let mut exact = Vec::new();
            put_varint(&mut exact, v);
            let mut padded = exact.clone();
            padded.extend_from_slice(&[0u8; 8]);
            assert_eq!(BlockDecoder::new(&exact).varint(), v);
            assert_eq!(BlockDecoder::new(&padded).varint(), v);
        }
    }

    #[test]
    fn corrupt_truncated_codeword_is_error() {
        // Continuation bit set on the final byte: every prefix of a
        // multi-byte codeword must fail closed.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 1..buf.len() {
            let mut dec = BlockDecoder::new(&buf[..cut]);
            assert_eq!(dec.try_varint(), Err(ERR_TRUNCATED), "cut at {cut}");
        }
        assert_eq!(BlockDecoder::new(&[]).try_varint(), Err(ERR_TRUNCATED));
    }

    #[test]
    fn corrupt_overlong_codeword_is_error() {
        // 10 continuation bytes (11-byte codeword): bounded, not a shift
        // overflow.
        let buf = [0x80u8; 16];
        assert_eq!(BlockDecoder::new(&buf).try_varint(), Err(ERR_OVERLONG));
        // 10th byte with payload beyond bit 63.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x02);
        assert_eq!(BlockDecoder::new(&buf).try_varint(), Err(ERR_OVERLONG));
        // 10th byte carrying exactly bit 63 is the legal u64::MAX encoding.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x01);
        assert_eq!(BlockDecoder::new(&buf).try_varint(), Ok(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "corrupt compressed block")]
    fn corrupt_traversal_panics_cleanly() {
        let buf = [0x80u8, 0x80];
        BlockDecoder::new(&buf).varint();
    }

    #[test]
    fn zigzag_roundtrip() {
        for x in [-5i64, -1, 0, 1, 5, i64::MAX / 2, i64::MIN / 2, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(x)), x);
        }
    }

    #[test]
    fn advance_saturates() {
        let buf = [0x01u8];
        let mut dec = BlockDecoder::new(&buf);
        dec.advance(usize::MAX);
        assert_eq!(dec.try_varint(), Err(ERR_TRUNCATED));
    }

    #[test]
    fn delta_weight_matches_serial_on_every_path() {
        // Pair streams picked to route through each path: whole
        // (1,1)-byte windows, masked short remainders of them, the
        // one-window pair peel (runs of (2,1)-byte pairs, weights wider
        // than gaps, (4,4)-byte pairs filling the window), and 5+-byte
        // scalar fallbacks on either half of a pair.
        let streams: Vec<Vec<(u64, u64)>> = vec![
            (0..16)
                .map(|i| (i as u64 * 7 % 128, i as u64 % 64))
                .collect(),
            (0..8)
                .map(|i| (200 + i as u64 * 13, i as u64 % 100))
                .collect(),
            (0..3).map(|i| (i as u64 + 1, 2 * i as u64 + 1)).collect(),
            vec![(1, 1)],
            vec![(5, 300), (300, 5), (1, 70000), (70000, 1)],
            vec![(1 << 21, 1 << 27), ((1 << 28) - 1, 1 << 21), (1 << 28, 1)],
            vec![(3, u64::MAX), (u64::MAX, 3), (1, 1), (2, 2), (130, 130)],
            (0..9)
                .map(|i| (1u64 << (3 * i % 20), 1u64 << (2 * i % 18)))
                .collect(),
            vec![],
        ];
        for pairs in &streams {
            let mut buf = Vec::new();
            for &(g, w) in pairs {
                put_varint(&mut buf, g);
                put_varint(&mut buf, w);
            }
            let base = 11u32;
            let mut acc = base;
            let want: Vec<(u32, u32)> = pairs
                .iter()
                .map(|&(g, w)| {
                    acc = acc.wrapping_add(g as u32);
                    (acc, w as u32)
                })
                .collect();
            let mut dec = BlockDecoder::new(&buf);
            let mut got = Vec::new();
            dec.for_each_delta_weight(base, pairs.len(), |u, w| got.push((u, w)));
            assert_eq!(got, want, "stream {pairs:?}");
            assert_eq!(dec.pos(), buf.len(), "cursor for stream {pairs:?}");
        }
    }

    #[test]
    fn delta_sum_matches_serial_on_every_path() {
        // Streams picked to route through each path: whole 1-byte windows
        // (prefix tree), the in-register peel (uniform 2-byte windows,
        // short runs, mixed lengths), and the long (5+-byte) scalar
        // fallback.
        let streams: Vec<Vec<u64>> = vec![
            (0..16).map(|i| i as u64 * 7 % 128).collect(),
            (0..8).map(|i| 128 + i as u64 * 1000).collect(),
            (0..3).map(|i| i as u64 + 1).collect(),
            (0..2).map(|i| 200 + i as u64).collect(),
            vec![1, 300, 2, 70000, 3, u64::MAX, 4, 5, 6, 7, 8, 9, 10, 11],
            vec![u32::MAX as u64],
            vec![],
        ];
        for vals in &streams {
            let mut buf = Vec::new();
            for &v in vals {
                put_varint(&mut buf, v);
            }
            let base = 3u32;
            let mut acc = base;
            let want: Vec<u32> = vals
                .iter()
                .map(|&v| {
                    acc = acc.wrapping_add(v as u32);
                    acc
                })
                .collect();
            let mut dec = BlockDecoder::new(&buf);
            let mut got = Vec::new();
            dec.for_each_delta_sum(base, vals.len(), |u| got.push(u));
            assert_eq!(got, want, "stream {vals:?}");
            assert_eq!(dec.pos(), buf.len(), "cursor for stream {vals:?}");
        }
    }
}
