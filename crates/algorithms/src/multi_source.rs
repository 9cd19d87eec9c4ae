//! Fused multi-source Δ-stepping / wBFS: one bucketed traversal that runs
//! many sources at once, each in its own **frontier lane**.
//!
//! The batch coalescer in the serve path groups compatible `sssp` queries
//! (same Δ, same graph epoch) and dispatches them here as one traversal.
//! Lane `l` of a batch of `L` sources owns the identifier stripe
//! `id = v·L + l`: a single [`Buckets`] structure over `L·n` identifiers
//! orders *all* lanes' annuli together, and each extraction relaxes the
//! union frontier. Because identifiers are vertex-major, sorting an
//! extracted frontier groups the lanes of one vertex adjacently, so a
//! vertex's adjacency list is decoded **once per round** no matter how many
//! lanes are visiting it — that sharing is the batching win on the
//! compressed backends.
//!
//! Lanes never interact: lane `l` only reads and writes `sp[v·L + l]`, so
//! per-lane dynamics are exactly the solo [`sssp`] dynamics and every lane's
//! `dist`, `rounds`, and `relaxations` are **bit-identical** to a solo run
//! from the same source (the scheduler-equivalence proptests pin this).
//! A lane's `rounds` counts only the extractions in which it had a
//! non-empty sub-frontier — the extraction sequence restricted to one lane
//! is precisely that lane's solo extraction sequence, because annuli come
//! out in increasing order and relaxation targets never move to a smaller
//! annulus than the current one.
//!
//! Cancellation is per-lane: every round polls each live lane's
//! [`QueryCtx`]; a cancelled or deadline-expired lane **detaches** — its
//! pending identifiers are dropped from subsequent frontiers and it reports
//! its lifecycle error — while sibling lanes run to completion untouched.
//! `identifiers_moved` is the one solo counter a fused run cannot
//! reproduce: the bucket structure is shared, so the per-lane value here
//! counts the lane's bucket-move requests instead (it is not part of the
//! wire report).
//!
//! [`Buckets`]: julienne::bucket::Buckets
//! [`sssp`]: crate::delta_stepping::sssp

use crate::delta_stepping::{check_input, DeltaResult, Dists};
use julienne::bucket::{BucketDest, Bucketing, Order};
use julienne::query::QueryCtx;
use julienne::Error;
use julienne_graph::VertexId;
use julienne_ligra::traits::OutEdges;
use rayon::prelude::*;

/// One source in a fused batch: where it starts and the per-query context
/// that cancels or expires it independently of its siblings.
pub struct SsspLane<'a> {
    /// Source vertex (must be `< n`).
    pub src: VertexId,
    /// This lane's lifecycle context, polled at every round boundary.
    pub ctx: &'a QueryCtx,
}

/// Largest identifier count the fused structure can address: identifiers
/// are `u32` and `NULL_BKT` (= `u32::MAX`) is reserved.
const MAX_IDS: usize = u32::MAX as usize;

/// Runs Δ-stepping from every lane's source in one fused bucketed
/// traversal. Returns one result per lane, in lane order: `Ok` with a
/// [`DeltaResult`] bit-identical (dist / rounds / relaxations) to a solo
/// [`sssp`] run from that source, or the lane's own lifecycle `Err` if its
/// context tripped mid-run.
///
/// The outer `Err` is structural misuse — `delta == 0`, a source out of
/// range, more than 2^31 vertices, or `lanes.len() · n` overflowing the
/// `u32` identifier space (the caller is expected to fall back to solo runs
/// in that case).
///
/// The bucket window and parallel substrate come from the **first** lane's
/// engine; batches are formed within one session, so all lanes share it.
///
/// [`sssp`]: crate::delta_stepping::sssp
pub fn sssp_multi<G: OutEdges<W = u32>>(
    g: &G,
    delta: u64,
    lanes: &[SsspLane<'_>],
) -> Result<Vec<Result<DeltaResult, Error>>, Error> {
    let n = g.num_vertices();
    check_input(n, delta)?;
    let lcount = lanes.len();
    if lcount == 0 {
        return Ok(Vec::new());
    }
    let total = lcount
        .checked_mul(n)
        .filter(|&t| t <= MAX_IDS)
        .ok_or_else(|| {
            Error::input(format!(
                "fused batch of {lcount} lanes over n = {n} exceeds the u32 identifier space"
            ))
        })?;
    for lane in lanes {
        if lane.src as usize >= n {
            return Err(Error::input(format!(
                "src {} out of range (n = {n})",
                lane.src
            )));
        }
    }

    let mut sp = Dists::new(total, delta);
    for (l, lane) in lanes.iter().enumerate() {
        sp.start(lane.src as usize * lcount + l);
    }
    let engine = lanes[0].ctx.engine();
    let mut buckets = engine.buckets(total, |id| sp.bucket(id as usize), Order::Increasing);

    let mut dead: Vec<Option<Error>> = (0..lcount).map(|_| None).collect();
    let mut live = lcount;
    let mut rounds = vec![0u64; lcount];
    let mut relaxations = vec![0u64; lcount];
    let mut moves = vec![0u64; lcount];
    let mut lane_hit = vec![false; lcount];

    loop {
        // Round boundary: poll every live lane. A tripped lane detaches —
        // recorded here, filtered out of every later frontier — without
        // touching its siblings' stripes.
        for (l, lane) in lanes.iter().enumerate() {
            if dead[l].is_none() {
                if let Err(e) = lane.ctx.check() {
                    dead[l] = Some(e);
                    live -= 1;
                }
            }
        }
        if live == 0 {
            break;
        }
        let Some((_bkt, mut ids)) = buckets.next_bucket() else {
            break;
        };
        if live < lcount {
            ids.retain(|&id| dead[id as usize % lcount].is_none());
        }
        if ids.is_empty() {
            continue;
        }
        // Vertex-major ids: sorting groups each vertex's lanes into one
        // contiguous run, decoded below with a single adjacency walk.
        ids.par_sort_unstable();
        // Round-start distances by sorted position, mirroring the solo
        // kernel: every relaxation uses the frontier's distance as of
        // extraction, so a round's outcome is a pure function of the
        // frontier set — independent of the order lanes are interleaved
        // in, which is what makes per-lane results bit-identical to solo
        // runs.
        let starts: Vec<u64> = ids.par_iter().map(|&id| sp.dist(id as usize)).collect();
        lane_hit.iter_mut().for_each(|h| *h = false);
        for &id in &ids {
            let l = id as usize % lcount;
            lane_hit[l] = true;
            relaxations[l] += g.out_degree(id / lcount as u32) as u64;
        }
        for (l, &hit) in lane_hit.iter().enumerate() {
            rounds[l] += u64::from(hit);
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut s = 0;
        while s < ids.len() {
            let v = ids[s] / lcount as u32;
            let mut e = s + 1;
            while e < ids.len() && ids[e] / lcount as u32 == v {
                e += 1;
            }
            runs.push((s, e));
            s = e;
        }

        // Update: the solo visit protocol per (edge, lane) — the CAS that
        // first lowers a target this round captures its round-start
        // distance — against each lane's own stripe.
        let moved: Vec<(u32, u64)> = runs
            .par_iter()
            .flat_map_iter(|&(s, e)| {
                let run = &ids[s..e];
                let v = run[0] / lcount as u32;
                let mut local: Vec<(u32, u64)> = Vec::new();
                g.for_each_out(v, |t, w| {
                    let t_base = t as usize * lcount;
                    for (&id, &start) in run.iter().zip(&starts[s..e]) {
                        let tid = t_base + id as usize % lcount;
                        if let Some(od) = sp.relax(tid, start + w as u64) {
                            local.push((tid as u32, od));
                        }
                    }
                });
                local
            })
            .collect();

        // Reset: clear the visited bits and move each touched identifier
        // from its round-start annulus to the new one.
        let entries: Vec<(u32, BucketDest)> = moved
            .par_iter()
            .map(|&(tid, od)| {
                let (prev, next) = sp.settle(tid as usize, od);
                (tid, buckets.get_bucket(tid, prev, next))
            })
            .collect();
        for &(tid, _) in &entries {
            moves[tid as usize % lcount] += 1;
        }
        buckets.update_buckets(&entries);
    }

    drop(buckets); // releases the D closure's borrow of `sp`
    let dist = sp.into_dists();
    Ok((0..lcount)
        .map(|l| match dead[l].take() {
            Some(e) => Err(e),
            None => Ok(DeltaResult {
                dist: (0..n).map(|v| dist[v * lcount + l]).collect(),
                rounds: rounds[l],
                relaxations: relaxations[l],
                identifiers_moved: moves[l],
            }),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_stepping::{sssp, SsspParams};
    use julienne::prelude::{CancelToken, Engine};
    use julienne_graph::csr::Csr;
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};
    use julienne_graph::transform::{assign_weights, wbfs_weight_range};

    fn weighted(seed: u64, lo: u32, hi: u32) -> Csr<u32> {
        assign_weights(&erdos_renyi(400, 3200, seed, true), lo, hi, seed + 100)
    }

    fn solo<G: OutEdges<W = u32>>(g: &G, src: VertexId, delta: u64) -> DeltaResult {
        sssp(g, &SsspParams { src, delta }, &QueryCtx::default()).unwrap()
    }

    fn assert_lane_identical(fused: &DeltaResult, solo: &DeltaResult, tag: &str) {
        assert_eq!(fused.dist, solo.dist, "{tag}: dist");
        assert_eq!(fused.rounds, solo.rounds, "{tag}: rounds");
        assert_eq!(fused.relaxations, solo.relaxations, "{tag}: relaxations");
    }

    #[test]
    fn fused_lanes_match_solo_runs() {
        let g = weighted(3, 1, 1000);
        let ctx = QueryCtx::default();
        for delta in [1u64, 64, 32768] {
            let srcs = [0u32, 7, 7, 399];
            let lanes: Vec<SsspLane> = srcs
                .iter()
                .map(|&src| SsspLane { src, ctx: &ctx })
                .collect();
            let fused = sssp_multi(&g, delta, &lanes).unwrap();
            for (i, &src) in srcs.iter().enumerate() {
                let lane = fused[i].as_ref().unwrap();
                assert_lane_identical(
                    lane,
                    &solo(&g, src, delta),
                    &format!("delta {delta} src {src}"),
                );
            }
        }
    }

    #[test]
    fn fused_wbfs_on_compressed_backend_matches_solo() {
        use julienne_graph::compress::CompressedWGraph;
        let (lo, hi) = wbfs_weight_range(1 << 10);
        let g = assign_weights(&rmat(10, 8, RmatParams::default(), 2, true), lo, hi, 3);
        let cg = CompressedWGraph::from_csr(&g);
        let ctx = QueryCtx::default();
        let srcs = [0u32, 3, 11];
        let lanes: Vec<SsspLane> = srcs
            .iter()
            .map(|&src| SsspLane { src, ctx: &ctx })
            .collect();
        let fused = sssp_multi(&cg, 1, &lanes).unwrap();
        for (i, &src) in srcs.iter().enumerate() {
            let lane = fused[i].as_ref().unwrap();
            assert_lane_identical(lane, &solo(&g, src, 1), &format!("src {src}"));
        }
    }

    #[test]
    fn single_lane_batch_matches_solo() {
        let g = weighted(5, 1, 100_000);
        let ctx = QueryCtx::default();
        let fused = sssp_multi(&g, 1024, &[SsspLane { src: 13, ctx: &ctx }]).unwrap();
        assert_lane_identical(
            fused[0].as_ref().unwrap(),
            &solo(&g, 13, 1024),
            "single lane",
        );
    }

    #[test]
    fn cancelled_lane_detaches_without_poisoning_siblings() {
        let g = weighted(7, 1, 1000);
        let live_ctx = QueryCtx::default();
        // Trip after a few round-boundary polls so the doomed lane has
        // in-flight bucket entries when it detaches.
        let engine = Engine::default();
        let doomed_ctx =
            QueryCtx::from_engine(&engine).with_cancel_token(CancelToken::cancel_after_polls(3));
        let lanes = [
            SsspLane {
                src: 0,
                ctx: &live_ctx,
            },
            SsspLane {
                src: 5,
                ctx: &doomed_ctx,
            },
            SsspLane {
                src: 42,
                ctx: &live_ctx,
            },
        ];
        let fused = sssp_multi(&g, 64, &lanes).unwrap();
        assert!(
            matches!(fused[1], Err(Error::Cancelled)),
            "{:?}",
            fused[1].as_ref().err()
        );
        assert_lane_identical(fused[0].as_ref().unwrap(), &solo(&g, 0, 64), "sibling 0");
        assert_lane_identical(fused[2].as_ref().unwrap(), &solo(&g, 42, 64), "sibling 2");
    }

    #[test]
    fn all_lanes_cancelled_returns_all_errors() {
        let g = weighted(9, 1, 100);
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::default();
        let ctx = QueryCtx::from_engine(&engine).with_cancel_token(token);
        let lanes = [
            SsspLane { src: 0, ctx: &ctx },
            SsspLane { src: 1, ctx: &ctx },
        ];
        let fused = sssp_multi(&g, 16, &lanes).unwrap();
        for r in &fused {
            assert!(matches!(r, Err(Error::Cancelled)));
        }
    }

    #[test]
    fn structural_misuse_is_an_outer_error() {
        let g = weighted(1, 1, 10);
        let ctx = QueryCtx::default();
        assert!(sssp_multi(&g, 0, &[SsspLane { src: 0, ctx: &ctx }]).is_err());
        assert!(sssp_multi(
            &g,
            1,
            &[SsspLane {
                src: 400,
                ctx: &ctx
            }]
        )
        .is_err());
        assert!(sssp_multi::<Csr<u32>>(&g, 1, &[]).unwrap().is_empty());
    }
}
