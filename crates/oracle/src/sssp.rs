//! Shortest-path oracles: textbook binary-heap Dijkstra over `u64`
//! distances.

use crate::INF;
use julienne_graph::{Csr, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Single-source shortest paths from `src` with the graph's `u32` edge
/// weights, by Dijkstra on a `std` binary heap (lazy deletion). `INF` for
/// unreachable vertices.
pub fn dijkstra_binheap(g: &Csr<u32>, src: VertexId) -> Vec<u64> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::new();
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale heap entry
        }
        for (v, w) in g.edges_of(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}
