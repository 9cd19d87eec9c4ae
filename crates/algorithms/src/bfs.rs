//! Breadth-first search — the one-bucket special case of bucketing (the
//! paper's canonical frontier-based algorithm), used by examples and the
//! edgeMap ablation.

use julienne_graph::VertexId;
use julienne_ligra::edge_map::{EdgeMap, Mode};
use julienne_ligra::subset::VertexSubset;
use julienne_ligra::traits::{GraphRef, OutEdges};
use julienne_primitives::atomics::cas_u32;
use std::sync::atomic::{AtomicU32, Ordering};

/// Parent of unreached vertices.
pub const NO_PARENT: u32 = u32::MAX;

/// BFS result: parent pointers and hop distances.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Parent of each vertex in the BFS tree (`NO_PARENT` if unreached;
    /// the source is its own parent).
    pub parent: Vec<u32>,
    /// Hop distance from the source (`u32::MAX` if unreached).
    pub level: Vec<u32>,
    /// Number of frontier rounds (= eccentricity of the source + 1).
    pub rounds: u64,
}

/// Direction-optimized BFS from `src`, over any [`GraphRef`] backend.
pub fn bfs<G: GraphRef>(g: &G, src: VertexId) -> BfsResult {
    bfs_with_mode(g, src, Mode::Auto)
}

/// BFS with a forced traversal mode (for the A3 ablation).
pub fn bfs_with_mode<G: GraphRef>(g: &G, src: VertexId, mode: Mode) -> BfsResult {
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect();
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    // ORDERING: Relaxed here and below; every round is an `EdgeMap::run`
    // whose join publishes its writes to the next round and to the caller.
    parent[src as usize].store(src, Ordering::Relaxed);
    level[src as usize].store(0, Ordering::Relaxed);

    let mut frontier = VertexSubset::single(n, src);
    let mut rounds = 0u64;
    let mut depth = 0u32;
    while !frontier.is_empty() {
        rounds += 1;
        depth += 1;
        frontier = EdgeMap::new(g).mode(mode).run(
            &frontier,
            |u, v, _| {
                if cas_u32(&parent[v as usize], NO_PARENT, u) {
                    // ORDERING: Relaxed; the CAS alone elects the writer,
                    // and only the caller reads `level`, after the join.
                    level[v as usize].store(depth, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            },
            // ORDERING: Relaxed; a stale NO_PARENT only offers `v` to the
            // CAS, which refuses it.
            |v| parent[v as usize].load(Ordering::Relaxed) == NO_PARENT,
        );
    }

    BfsResult {
        parent: parent.into_iter().map(AtomicU32::into_inner).collect(),
        level: level.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
    }
}

/// Sequential reference BFS (queue-based), used as the test oracle.
pub fn bfs_seq<G: OutEdges>(g: &G, src: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut level = vec![u32::MAX; n];
    level[src as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let next = level[u as usize] + 1;
        g.for_each_out(u, |v, _| {
            if level[v as usize] == u32::MAX {
                level[v as usize] = next;
                queue.push_back(v);
            }
        });
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::generators::{erdos_renyi, grid2d};

    #[test]
    fn levels_match_sequential_on_grid() {
        let g = grid2d(20, 30);
        let par = bfs(&g, 0);
        let seq = bfs_seq(&g, 0);
        assert_eq!(par.level, seq);
        // Eccentricity of corner = rows+cols-2 = 48; rounds = 49.
        assert_eq!(par.rounds, 49);
    }

    #[test]
    fn all_modes_agree() {
        let g = erdos_renyi(500, 4000, 7, true);
        let seq = bfs_seq(&g, 3);
        for mode in [Mode::Sparse, Mode::Dense, Mode::Auto] {
            let r = bfs_with_mode(&g, 3, mode);
            assert_eq!(r.level, seq, "{mode:?}");
        }
    }

    #[test]
    fn parents_form_a_valid_tree() {
        let g = erdos_renyi(300, 2000, 5, true);
        let r = bfs(&g, 0);
        for v in 0..300u32 {
            let p = r.parent[v as usize];
            if p == NO_PARENT {
                assert_eq!(r.level[v as usize], u32::MAX);
            } else if v == 0 {
                assert_eq!(p, 0);
            } else {
                // Parent is one level closer and adjacent.
                assert_eq!(r.level[p as usize] + 1, r.level[v as usize]);
                assert!(g.neighbors(p).contains(&v));
            }
        }
    }

    #[test]
    fn disconnected_component_unreached() {
        let g = from_pairs_symmetric(4, &[(0, 1), (2, 3)]);
        let r = bfs(&g, 0);
        assert_eq!(r.level, vec![0, 1, u32::MAX, u32::MAX]);
    }
}
