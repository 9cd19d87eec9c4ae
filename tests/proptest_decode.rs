//! Property tests for the table-driven decode path: the branch-reduced
//! decoder ([`BlockDecoder`]) must be observation-identical to the
//! pre-table reference decoder on every input the encoder can produce, the
//! chunked block layout must decode to the same adjacency as the legacy
//! (unchunked) layout, and corrupt (truncated) streams must fail closed.

use julienne_repro::graph::compress::{CompressedGraph, CompressedWGraph, DEFAULT_CHUNK_SIZE};
use julienne_repro::graph::decode::{put_varint, reference, BlockDecoder, ERR_TRUNCATED};
use proptest::prelude::*;

mod common;
use common::{arb_graph, arb_weighted_graph_of};

fn neighbors(cg: &CompressedGraph, v: u32) -> Vec<u32> {
    let mut out = Vec::new();
    cg.for_each_out(v, |u, ()| out.push(u));
    out
}

/// Varint values spanning all codeword lengths: uniform `u64` alone almost
/// never draws short codewords, so shift by a random amount to spread the
/// draws across 1..=10-byte encodings.
fn arb_varints() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((any::<u64>(), 0u32..64).prop_map(|(x, s)| x >> s), 1..120)
}

/// Decodes `vals.len()` codewords from `buf` three ways — scalar window
/// path, validating path, fused gap-accumulating path — and checks each
/// against the expected values and final cursor position.
fn assert_decodes_back(buf: &[u8], vals: &[u64]) {
    let mut scalar = BlockDecoder::new(buf);
    for (i, &v) in vals.iter().enumerate() {
        assert_eq!(scalar.varint(), v, "scalar decode diverged at {i}");
    }
    assert_eq!(scalar.pos(), buf.len(), "scalar cursor off the end");

    let mut checked = BlockDecoder::new(buf);
    for (i, &v) in vals.iter().enumerate() {
        assert_eq!(checked.try_varint(), Ok(v), "try_varint diverged at {i}");
    }

    // The fused gap-accumulating path must produce the running (wrapping)
    // sums of the same codewords, through whichever mix of prefix-tree
    // blocks, masked partial windows, and scalar fallbacks it takes.
    let base = 7u32;
    let mut want_sums = Vec::with_capacity(vals.len());
    let mut acc = base;
    for &v in vals {
        acc = acc.wrapping_add(v as u32);
        want_sums.push(acc);
    }
    let mut fused = BlockDecoder::new(buf);
    let mut sums = Vec::with_capacity(vals.len());
    fused.for_each_delta_sum(base, vals.len(), |u| sums.push(u));
    assert_eq!(sums, want_sums, "fused delta-sum decode diverged");
    assert_eq!(fused.pos(), buf.len(), "fused cursor off the end");
}

/// A value whose LEB128 codeword length is uniform over 1..=5 bytes, up to
/// `u32::MAX` — uniform `u32` alone is a 5-byte codeword 15 times in 16.
fn arb_codeword() -> impl Strategy<Value = u64> {
    (1u32..6, any::<u32>()).prop_map(|(len, x)| {
        let lo = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
        let hi = (1u64 << (7 * len)).min(1 << 32);
        lo + u64::from(x) % (hi - lo)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The layout the benchmark runs: (gap, weight) pairs of every length
    /// mix, decoded by the fused weighted kernel from every placement —
    /// 0..=9 bytes of arbitrary lookahead after the run cover the window
    /// path, the end-of-array tail, and the hand-over between them.
    #[test]
    fn pair_kernel_matches_reference_at_every_placement(
        pairs in prop::collection::vec((arb_codeword(), arb_codeword()), 0..40),
        lead in prop::collection::vec(any::<u8>(), 0..4),
        pad in prop::collection::vec(any::<u8>(), 9..10),
        base in any::<u32>(),
    ) {
        let mut run = lead.clone();
        for &(g, w) in &pairs {
            put_varint(&mut run, g);
            put_varint(&mut run, w);
        }
        for after in 0..=9 {
            let mut buf = run.clone();
            buf.extend_from_slice(&pad[..after]);
            let mut pos = lead.len();
            let mut cur = base;
            let mut want = Vec::with_capacity(pairs.len());
            for _ in &pairs {
                cur = cur.wrapping_add(reference::get_varint(&buf, &mut pos) as u32);
                want.push((cur, reference::get_varint(&buf, &mut pos) as u32));
            }
            let mut dec = BlockDecoder::new_at(&buf, lead.len());
            let mut got = Vec::with_capacity(pairs.len());
            dec.for_each_delta_weight(base, pairs.len(), |u, w| got.push((u, w)));
            prop_assert_eq!(&got, &want, "{} bytes after the run", after);
            prop_assert_eq!(dec.pos(), pos, "cursor with {} bytes after the run", after);
        }
    }

    #[test]
    fn varint_stream_roundtrips_on_all_paths(vals in arb_varints()) {
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        assert_decodes_back(&buf, &vals);
        // The retired decoder agrees byte for byte on valid input.
        let mut pos = 0usize;
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(reference::get_varint(&buf, &mut pos), v, "reference diverged at {}", i);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_stream_fails_closed(vals in arb_varints(), frac in 0u32..1000) {
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let cut = (buf.len() as u64 * frac as u64 / 1000) as usize;
        let mut dec = BlockDecoder::new(&buf[..cut]);
        // Every value decoded before the cut must be a prefix of the full
        // stream; the decoder must stop with a typed error, never read
        // past the slice or fabricate a value.
        let mut i = 0usize;
        loop {
            match dec.try_varint() {
                Ok(x) => {
                    prop_assert!(i < vals.len(), "decoded more values than encoded");
                    prop_assert_eq!(x, vals[i], "prefix diverged at {}", i);
                    i += 1;
                    if dec.pos() == cut {
                        break; // cut landed on a codeword boundary
                    }
                }
                Err(e) => {
                    prop_assert_eq!(e, ERR_TRUNCATED);
                    break;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_decode_matches_reference_on_graphs(g in arb_graph()) {
        let cg = CompressedGraph::from_csr_with_chunk_size(&g, 0);
        let (offsets, degrees, data) = cg.raw_parts();
        for v in 0..g.num_vertices() as u32 {
            let mut table = Vec::new();
            cg.for_each_out(v, |u, ()| table.push(u));
            let mut want = Vec::new();
            reference::for_each_neighbor_legacy(
                v,
                degrees[v as usize] as usize,
                data,
                offsets[v as usize] as usize,
                |u| want.push(u),
            );
            prop_assert_eq!(&table, &want, "vertex {} table vs reference", v);
        }
    }

    #[test]
    fn chunked_layouts_decode_identically(g in arb_graph(), cs in 1u32..9) {
        // Tiny chunk sizes force multi-chunk blocks even on small random
        // graphs; DEFAULT_CHUNK_SIZE covers the shipped configuration.
        let legacy = CompressedGraph::from_csr_with_chunk_size(&g, 0);
        for chunk_size in [cs, DEFAULT_CHUNK_SIZE] {
            let chunked = CompressedGraph::from_csr_with_chunk_size(&g, chunk_size);
            for v in 0..g.num_vertices() as u32 {
                prop_assert_eq!(
                    neighbors(&chunked, v),
                    neighbors(&legacy, v),
                    "vertex {} cs={}", v, chunk_size
                );
                // Chunk-wise traversal concatenates to the whole list.
                let mut cat = Vec::new();
                for c in 0..chunked.num_chunks_of(v) {
                    chunked.for_each_out_chunk(v, c, |u, ()| cat.push(u));
                }
                prop_assert_eq!(cat, neighbors(&legacy, v), "chunk concat vertex {} cs={}", v, chunk_size);
            }
        }
    }

    #[test]
    fn early_exit_sees_a_prefix(g in arb_graph(), k in 0usize..12) {
        let cg = CompressedGraph::from_csr_with_chunk_size(&g, 4);
        for v in 0..g.num_vertices() as u32 {
            let full = neighbors(&cg, v);
            let mut seen = Vec::new();
            cg.for_each_out_until(v, |u, ()| {
                seen.push(u);
                seen.len() < k
            });
            let want = &full[..full.len().min(k.max(usize::from(!full.is_empty())))];
            prop_assert_eq!(&seen[..], want, "vertex {} k={}", v, k);
        }
    }

    #[test]
    fn weighted_decode_matches_csr(g in arb_weighted_graph_of(any::<u32>()), cs in 0u32..6) {
        let cg = CompressedWGraph::from_csr_with_chunk_size(&g, cs);
        for v in 0..g.num_vertices() as u32 {
            let mut got = Vec::new();
            cg.for_each_out(v, |u, w| got.push((u, w)));
            got.sort_unstable();
            let mut want: Vec<(u32, u32)> = g
                .neighbors(v)
                .iter()
                .copied()
                .zip(g.weights_of(v).iter().copied())
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "vertex {} cs={}", v, cs);
        }
    }
}
