//! Triangle counting and per-edge support — the substrate for k-truss
//! (the bucketing-over-edges application the paper envisions in §3.1).
//!
//! One walk finds every triangle, over an [`EdgeIndex`]: each undirected
//! edge is oriented from lower to higher (degree, id) rank, and each
//! oriented arc `(u, v)` merges `u`'s and `v`'s oriented lists, so every
//! triangle is found exactly once, at its lowest-rank vertex, with its
//! three edge ids. O(m^{3/2}) work on arbitrary graphs. The count, the
//! per-edge support and the clustering coefficients all come from it.

use julienne::Error;
use julienne_graph::{Csr, VertexId};
use julienne_ligra::traits::GraphRef;
use julienne_primitives::scan::scan_exclusive_in_place;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// The undirected edge set of a symmetric graph, as `(u, v)` with `u < v`,
/// plus the graph's arcs as a CSR whose weights are their undirected edge
/// ids — the identifier space k-truss buckets over.
pub struct EdgeIndex {
    /// Endpoints of undirected edge `e` (`endpoints[e].0 < endpoints[e].1`),
    /// in CSR order of the lower endpoint.
    pub endpoints: Vec<(VertexId, VertexId)>,
    /// The graph's arcs, each list sorted; an arc's weight is the id of its
    /// undirected edge, so both arcs of an edge carry the same id.
    pub arcs: Csr<u32>,
}

impl EdgeIndex {
    /// Builds the index of a symmetric graph whose neighbor lists need not
    /// be sorted. Ids are handed out by one pass over the vertices in
    /// order: `u`'s arc to each higher neighbor `v` takes the next id, and
    /// so does the arc at `v`'s cursor, which must be `v`'s arc back to
    /// `u`. A list that is not mutual, or lists its own vertex, is an
    /// [`Error::Input`] naming the pair.
    pub fn new<G: GraphRef>(g: &G) -> Result<EdgeIndex, Error> {
        assert!(g.is_symmetric());
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.num_edges());
        offsets.push(0u64);
        for v in 0..n as VertexId {
            let start = targets.len();
            g.for_each_out(v, |u, _| targets.push(u));
            targets[start..].sort_unstable();
            offsets.push(targets.len() as u64);
        }
        // `cursor[v]`: `v`'s first arc to a lower vertex not yet given an id.
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&o| o as usize).collect();
        let mut ids = vec![0u32; targets.len()];
        let mut endpoints = Vec::with_capacity(targets.len() / 2);
        let one_sided = |a: VertexId, b: VertexId| {
            let why = if a == b {
                "lists itself"
            } else {
                "is not listed back"
            };
            Error::input(format!(
                "edge ({a}, {b}) {why}: a graph flagged symmetric needs mutual, loop-free lists"
            ))
        };
        for u in 0..n as VertexId {
            let (c, end) = (cursor[u as usize], offsets[u as usize + 1] as usize);
            // Every lower neighbor listing `u` back has taken its id by now.
            if c < end && targets[c] <= u {
                return Err(one_sided(u, targets[c]));
            }
            for p in c..end {
                let v = targets[p];
                let back = cursor[v as usize];
                match targets[back..offsets[v as usize + 1] as usize].first() {
                    Some(&w) if w == u => {}
                    Some(&w) if w < u => return Err(one_sided(v, w)),
                    _ => return Err(one_sided(u, v)),
                }
                let id = endpoints.len() as u32;
                (ids[p], ids[back]) = (id, id);
                cursor[v as usize] += 1;
                endpoints.push((u, v));
            }
        }
        Ok(EdgeIndex {
            endpoints,
            arcs: Csr::from_parts(offsets, targets, ids, true),
        })
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }
}

/// Counts the triangles of a symmetric graph exactly once each. Lists that
/// are not mutual are an [`Error::Input`] naming the pair.
pub fn triangle_count<G: GraphRef>(g: &G) -> Result<u64, Error> {
    // The count reads no endpoints: they go before the walk allocates.
    let EdgeIndex { arcs, .. } = EdgeIndex::new(g)?;
    Ok(for_each_triangle(&arcs, |_| {}))
}

/// Per-edge triangle support: `support[e]` = number of triangles through
/// undirected edge `e`. The sum over edges equals 3 × triangle count.
pub fn edge_support(idx: &EdgeIndex) -> Vec<u32> {
    let support: Vec<AtomicU32> = (0..idx.num_edges()).map(|_| AtomicU32::new(0)).collect();
    for_each_triangle(&idx.arcs, |ids| {
        for e in ids {
            // ORDERING: Relaxed; a credit needs atomicity only, and the
            // walk's join publishes it to the caller.
            support[e as usize].fetch_add(1, Ordering::Relaxed);
        }
    });
    support.into_iter().map(AtomicU32::into_inner).collect()
}

/// Calls `f` with the three edge ids of every triangle of an
/// [`EdgeIndex`]'s `arcs`, once each, and returns the number of triangles.
fn for_each_triangle<F: Fn([u32; 3]) + Sync>(arcs: &Csr<u32>, f: F) -> u64 {
    // Each vertex's arcs to neighbors of higher (degree, id) rank, still
    // sorted by target: each edge keeps one of its two arcs.
    let n = arcs.num_vertices() as VertexId;
    let rank = |v: VertexId| (arcs.degree(v), v);
    let above = |u| arcs.edges_of(u).filter(move |&(v, _)| rank(u) < rank(v));
    let mut offsets: Vec<u64> = (0..n)
        .into_par_iter()
        .map(|u| above(u).count() as u64)
        .collect();
    offsets.push(0);
    scan_exclusive_in_place(&mut offsets, 0, |a, b| a + b);
    let pick = |f: fn((VertexId, u32)) -> u32| {
        (0..n)
            .into_par_iter()
            .flat_map_iter(move |u| above(u).map(f))
            .collect()
    };
    let up = Csr::from_parts(offsets, pick(|(v, _)| v), pick(|(_, e)| e), false);
    (0..n)
        .into_par_iter()
        .map(|u| {
            let (vs, uv) = (up.neighbors(u), up.weights_of(u));
            let mut found = 0;
            for (&v, &e) in vs.iter().zip(uv) {
                let (ws, vw) = (up.neighbors(v), up.weights_of(v));
                let (mut i, mut j) = (0, 0);
                while i < vs.len() && j < ws.len() {
                    match vs[i].cmp(&ws[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            f([e, uv[i], vw[j]]);
                            (i, j, found) = (i + 1, j + 1, found + 1);
                        }
                    }
                }
            }
            found
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::csr::Csr;
    use julienne_graph::generators::{erdos_renyi, rmat, RmatParams};

    fn triangle_count_brute(g: &Csr<()>) -> u64 {
        let n = g.num_vertices() as u32;
        let mut count = 0u64;
        for u in 0..n {
            for &v in g.neighbors(u) {
                if v <= u {
                    continue;
                }
                for &w in g.neighbors(v) {
                    if w <= v {
                        continue;
                    }
                    if g.neighbors(u).contains(&w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn counts_known_graphs() {
        // Triangle.
        let g = from_pairs_symmetric(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&g).unwrap(), 1);
        // K4 has 4 triangles.
        let k4 = from_pairs_symmetric(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(&k4).unwrap(), 4);
        // A square has none.
        let c4 = from_pairs_symmetric(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(triangle_count(&c4).unwrap(), 0);
    }

    #[test]
    fn matches_brute_force_random() {
        for seed in 0..3 {
            let g = erdos_renyi(120, 1_200, seed, true);
            assert_eq!(
                triangle_count(&g).unwrap(),
                triangle_count_brute(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn support_sums_to_three_times_triangles() {
        let g = rmat(9, 8, RmatParams::default(), 4, true);
        let idx = EdgeIndex::new(&g).unwrap();
        let support = edge_support(&idx);
        let sum: u64 = support.iter().map(|&s| s as u64).sum();
        assert_eq!(sum, 3 * triangle_count(&g).unwrap());
        assert_eq!(idx.num_edges(), g.num_edges() / 2);
    }

    #[test]
    fn edge_index_lookup_consistent() {
        let g = erdos_renyi(200, 1_600, 7, true);
        let idx = EdgeIndex::new(&g).unwrap();
        let edge_id = |a: VertexId, b: VertexId| {
            let (nbrs, eids) = (idx.arcs.neighbors(a), idx.arcs.weights_of(a));
            nbrs.binary_search(&b).ok().map(|i| eids[i])
        };
        for (e, &(u, v)) in idx.endpoints.iter().enumerate() {
            assert!(u < v);
            assert_eq!(edge_id(u, v), Some(e as u32));
            assert_eq!(edge_id(v, u), Some(e as u32));
        }
        // Non-edges return None.
        let mut non_edge = None;
        'outer: for a in 0..200u32 {
            for b in (a + 1)..200 {
                if !g.neighbors(a).contains(&b) {
                    non_edge = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = non_edge.unwrap();
        assert_eq!(edge_id(a, b), None);
    }

    #[test]
    fn k4_edge_support_all_two() {
        let k4 = from_pairs_symmetric(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let idx = EdgeIndex::new(&k4).unwrap();
        let support = edge_support(&idx);
        assert_eq!(support, vec![2; 6]);
    }

    #[test]
    fn lists_that_are_not_mutual_are_refused_by_pair() {
        let refusal = |offsets: Vec<u64>, targets: Vec<VertexId>| match EdgeIndex::new(
            &Csr::<()>::from_parts(offsets, targets, vec![], true),
        ) {
            Err(Error::Input(msg)) => msg,
            Err(e) => panic!("expected an input error, got {e:?}"),
            Ok(_) => panic!("a one-sided list was indexed"),
        };
        // 1 lists 0, 0 lists nothing; then the other way round.
        assert!(refusal(vec![0, 0, 1], vec![0]).contains("edge (1, 0) is not listed back"));
        assert!(refusal(vec![0, 1, 1], vec![1]).contains("edge (0, 1) is not listed back"));
        // 2 lists 0 and 1, which list only each other: 2's lowest arc is
        // the one found one-sided.
        let m = refusal(vec![0, 1, 2, 4], vec![1, 0, 0, 1]);
        assert!(m.contains("edge (2, 0) is not listed back"), "{m}");
        // A self-loop has no second arc to share its id with.
        assert!(refusal(vec![0, 1], vec![0]).contains("edge (0, 0) lists itself"));
    }
}
