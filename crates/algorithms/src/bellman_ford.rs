//! Frontier-based Bellman–Ford — the Ligra SSSP comparator of Table 3.
//!
//! Work-inefficient for nonnegative weights (a vertex can be relaxed and
//! re-expanded once per distance improvement, O(d·m) worst case where d is
//! the longest shortest-path hop count), but trivially parallel: each round
//! relaxes all out-edges of the vertices whose distance changed, from
//! their round-start distances (as Δ-stepping does), so the rounds and
//! relaxations do not depend on the thread count.

use crate::INF;
use julienne_graph::VertexId;
use julienne_ligra::edge_map::EdgeMap;
use julienne_ligra::subset::VertexSubset;
use julienne_ligra::traits::GraphRef;
use julienne_primitives::atomics::write_min_u64;
use julienne_primitives::bitset::AtomicBitSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// SSSP result with round/relaxation counters.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Shortest distance from the source (INF if unreachable).
    pub dist: Vec<u64>,
    /// Number of frontier rounds.
    pub rounds: u64,
    /// Total edge relaxations attempted.
    pub relaxations: u64,
}

/// Parallel Bellman–Ford from `src` (nonnegative integer weights), over
/// any [`GraphRef`] backend with `u32` weights.
pub fn bellman_ford<G: GraphRef<W = u32>>(g: &G, src: VertexId) -> SsspResult {
    let n = g.num_vertices();
    let mut dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    *dist[src as usize].get_mut() = 0;
    // Round-start distances, written for the frontier's members only.
    let mut start = vec![INF; n];
    let flags = AtomicBitSet::new(n);

    let mut frontier = VertexSubset::single(n, src);
    let mut rounds = 0u64;
    let mut relaxations = 0u64;

    while !frontier.is_empty() {
        rounds += 1;
        assert!(
            rounds <= n as u64,
            "negative cycle or bug: more rounds than vertices"
        );
        relaxations += frontier.iter().map(|v| g.out_degree(v) as u64).sum::<u64>();
        for v in &frontier {
            // ORDERING: Relaxed; the caller copies between edgeMaps, whose
            // joins order the copy and the rounds' writes.
            start[v as usize] = dist[v as usize].load(Ordering::Relaxed);
        }
        let next = EdgeMap::new(g).run(
            &frontier,
            |u, v, w| {
                let nd = start[u as usize] + w as u64;
                if write_min_u64(&dist[v as usize], nd) {
                    // First improver this round claims v for the frontier.
                    return flags.set(v as usize);
                }
                false
            },
            |_| true,
        );
        // Reset flags of the new frontier for the next round.
        for v in &next {
            flags.clear(v as usize);
        }
        frontier = next;
    }

    SsspResult {
        dist: dist.into_iter().map(AtomicU64::into_inner).collect(),
        rounds,
        relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use julienne_graph::generators::{erdos_renyi, grid2d};
    use julienne_graph::transform::assign_weights;

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..3 {
            let g = assign_weights(&erdos_renyi(400, 3000, seed, false), 1, 50, seed + 10);
            let bf = bellman_ford(&g, 0);
            assert_eq!(bf.dist, dijkstra(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = assign_weights(&grid2d(15, 15), 1, 20, 3);
        let bf = bellman_ford(&g, 7);
        assert_eq!(bf.dist, dijkstra(&g, 7));
        // High-diameter graph: many rounds (≥ hop diameter from corner).
        assert!(bf.rounds >= 14);
    }

    #[test]
    fn unreachable_vertices_inf() {
        use julienne_graph::builder::EdgeList;
        let mut el: EdgeList<u32> = EdgeList::new(4);
        el.push(0, 1, 3);
        let g = el.build(false);
        let bf = bellman_ford(&g, 0);
        assert_eq!(bf.dist, vec![0, 3, INF, INF]);
        assert_eq!(bf.rounds, 2); // {0} then {1} then empty
    }
}
