//! Connected components via label propagation — the frontier-based
//! algorithm the paper's introduction uses to motivate Ligra (each round's
//! frontier is the set of vertices whose label changed), plus a sequential
//! union-find oracle.

use julienne_ligra::edge_map::EdgeMap;
use julienne_ligra::subset::VertexSubset;
use julienne_ligra::traits::{GraphRef, OutEdges};
use julienne_ligra::vertex_ops::vertex_for_each;
use julienne_primitives::atomics::write_min_u32;
use julienne_primitives::bitset::AtomicBitSet;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a connected-components computation.
#[derive(Clone, Debug)]
pub struct ComponentsResult {
    /// Component label of each vertex (the minimum vertex id in its
    /// component).
    pub label: Vec<u32>,
    /// Number of label-propagation rounds.
    pub rounds: u64,
}

/// Label propagation on a symmetric graph: every vertex starts with its own
/// id; each round, frontier vertices push their label to neighbors via
/// `writeMin`. Converges in O(component diameter) rounds.
///
/// A frontier vertex pushes the label it held when the round began, not
/// its live one: a live read would let a label lowered mid-round travel
/// two hops in one round on some schedules, making `rounds` depend on the
/// thread count. With the round-start snapshot each round's outcome is a
/// pure function of the frontier set (as in `delta_stepping::sssp`).
pub fn connected_components<G: GraphRef>(g: &G) -> ComponentsResult {
    assert!(
        g.is_symmetric(),
        "label propagation requires a symmetric graph"
    );
    let n = g.num_vertices();
    let label: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let snap: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let flags = AtomicBitSet::new(n);

    let mut frontier = VertexSubset::all(n);
    let mut rounds = 0u64;
    while !frontier.is_empty() {
        rounds += 1;
        let next = EdgeMap::new(g).run(
            &frontier,
            |u, v, _| {
                // ORDERING: Relaxed; `snap` was written by the previous
                // round's `vertex_for_each`, whose join published it.
                let lu = snap[u as usize].load(Ordering::Relaxed);
                if write_min_u32(&label[v as usize], lu) {
                    return flags.set(v as usize);
                }
                false
            },
            |_| true,
        );
        vertex_for_each(&next, |v| {
            flags.clear(v as usize);
            // ORDERING: Relaxed; the `EdgeMap::run` join published every
            // label, and this round's join publishes the snapshot.
            snap[v as usize].store(label[v as usize].load(Ordering::Relaxed), Ordering::Relaxed);
        });
        frontier = next;
    }

    ComponentsResult {
        label: label.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
    }
}

/// Sequential union-find oracle (path halving + union by index).
pub fn connected_components_seq<G: OutEdges>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for u in 0..n as u32 {
        let mut targets = Vec::new();
        g.for_each_out(u, |v, _| targets.push(v));
        for v in targets {
            let ru = find(&mut parent, u);
            let rv = find(&mut parent, v);
            if ru != rv {
                // Attach the larger root under the smaller so labels end up
                // as component minima.
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Number of distinct components given a label array.
pub fn num_components(labels: &[u32]) -> usize {
    labels
        .iter()
        .enumerate()
        .filter(|&(i, &l)| i as u32 == l)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use julienne_graph::builder::from_pairs_symmetric;
    use julienne_graph::generators::{erdos_renyi, grid2d};

    #[test]
    fn two_components() {
        let g = from_pairs_symmetric(6, &[(0, 1), (1, 2), (3, 4)]);
        let r = connected_components(&g);
        assert_eq!(r.label, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(num_components(&r.label), 3);
    }

    #[test]
    fn matches_union_find_on_random() {
        for seed in 0..3 {
            let g = erdos_renyi(1_000, 1_500, seed, true); // sparse: many comps
            let par = connected_components(&g);
            let seq = connected_components_seq(&g);
            assert_eq!(par.label, seq, "seed {seed}");
        }
    }

    #[test]
    fn grid_is_one_component_with_diameter_rounds() {
        let g = grid2d(20, 20);
        let r = connected_components(&g);
        assert_eq!(num_components(&r.label), 1);
        assert!(r.label.iter().all(|&l| l == 0));
        // Rounds bounded by diameter + 2.
        assert!(r.rounds <= 40);
    }

    #[test]
    fn isolated_vertices_self_labeled() {
        let g = from_pairs_symmetric(4, &[]);
        let r = connected_components(&g);
        assert_eq!(r.label, vec![0, 1, 2, 3]);
        assert_eq!(num_components(&r.label), 4);
    }
}
