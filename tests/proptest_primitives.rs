//! Property tests over the substrate: sorting/scan/filter against std
//! oracles, semisort grouping, histogram-vs-count equivalence, graph
//! builder invariants, and compression round-trips.

use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::compress::CompressedGraph;
use julienne_repro::primitives::filter::{filter, pack_index};
use julienne_repro::primitives::histogram::histogram_dense;
use julienne_repro::primitives::scan::{prefix_sums, scan_exclusive};
use julienne_repro::primitives::semisort::{count_by_key, semisort_by_key};
use julienne_repro::primitives::sort::radix_sort_u32;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix_sort_matches_std(mut xs in prop::collection::vec(any::<u32>(), 0..3_000)) {
        let mut want = xs.clone();
        want.sort_unstable();
        radix_sort_u32(&mut xs);
        prop_assert_eq!(xs, want);
    }

    #[test]
    fn scan_is_running_sum(xs in prop::collection::vec(0u64..1_000_000, 0..3_000)) {
        let (scanned, total) = scan_exclusive(&xs, 0u64, |a, b| a + b);
        let mut acc = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(scanned[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn prefix_sums_total_is_sum(mut xs in prop::collection::vec(0usize..1_000, 0..2_000)) {
        let want: usize = xs.iter().sum();
        prop_assert_eq!(prefix_sums(&mut xs), want);
    }

    #[test]
    fn filter_equals_std_filter(xs in prop::collection::vec(any::<u32>(), 0..3_000)) {
        let got = filter(&xs, |&x| x % 3 == 1);
        let want: Vec<u32> = xs.iter().copied().filter(|&x| x % 3 == 1).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn pack_index_sorted_and_complete(n in 0usize..5_000, m in 1usize..17) {
        let got = pack_index(n, |i| i % m == 0);
        let want: Vec<u32> = (0..n).filter(|i| i % m == 0).map(|i| i as u32).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn histogram_equals_count_by_key(keys in prop::collection::vec(0u32..97, 0..3_000)) {
        let dense = histogram_dense(&keys, 97);
        let sparse = count_by_key(keys.clone(), 96);
        for (k, c) in sparse {
            prop_assert_eq!(dense[k as usize], c);
        }
        prop_assert_eq!(dense.iter().sum::<usize>(), keys.len());
    }

    #[test]
    fn semisort_is_a_permutation(xs in prop::collection::vec((0u32..50, any::<u32>()), 0..2_000)) {
        let mut sorted = xs.clone();
        let groups = semisort_by_key(&mut sorted, 49, |p| p.0);
        // Same multiset.
        let mut a = xs.clone();
        let mut b = sorted.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // Groups tile the array with uniform keys.
        let mut pos = 0;
        for g in groups {
            prop_assert_eq!(g.start, pos);
            for t in &sorted[g.start..g.start + g.len] {
                prop_assert_eq!(t.0, g.key);
            }
            pos += g.len;
        }
        prop_assert_eq!(pos, sorted.len());
    }

    #[test]
    fn builder_output_is_sorted_dedup_no_self_loops(
        n in 2usize..200,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..2_000),
    ) {
        let mut el: EdgeList<()> = EdgeList::new(n);
        for (a, b) in raw {
            el.push(a % n as u32, b % n as u32, ());
        }
        let g = el.build(false);
        prop_assert!(g.validate().is_ok());
        for v in 0..n as u32 {
            let nbrs = g.neighbors(v);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1], "not sorted/dedup at {v}");
            }
            prop_assert!(!nbrs.contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn compression_roundtrip(
        n in 2usize..300,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..3_000),
    ) {
        let mut el: EdgeList<()> = EdgeList::new(n);
        for (a, b) in raw {
            el.push(a % n as u32, b % n as u32, ());
        }
        let g = el.build(false);
        let c = CompressedGraph::from_csr(&g);
        for v in 0..n as u32 {
            let mut want = g.neighbors(v).to_vec();
            want.sort_unstable();
            let mut got = Vec::new();
            c.for_each_out(v, |u, ()| got.push(u));
            prop_assert_eq!(got, want);
        }
        let back = c.to_csr();
        prop_assert_eq!(back.num_edges(), g.num_edges());
    }

    #[test]
    fn symmetrize_makes_symmetric(
        n in 2usize..100,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..600),
    ) {
        let mut el: EdgeList<()> = EdgeList::new(n);
        for (a, b) in raw {
            el.push(a % n as u32, b % n as u32, ());
        }
        let g = el.build_symmetric();
        prop_assert!(g.validate().is_ok());
        for v in 0..n as u32 {
            for &u in g.neighbors(v) {
                prop_assert!(g.neighbors(u).contains(&v), "({v},{u}) one-sided");
            }
        }
    }
}
