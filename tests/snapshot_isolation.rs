//! Snapshot-isolation chaos suite: a writer applies update batches while
//! many concurrent readers pin snapshots and run registry queries. The
//! MVCC contract under test:
//!
//! * every query's output is bit-identical to a **solo** run against the
//!   epoch it was pinned at — a mutation published mid-query changes
//!   nothing the query sees;
//! * results cached under `(algo, params, epoch)` never leak across
//!   epochs — a hit always equals the keyed epoch's solo output;
//! * all of it holds under schedule chaos (`JULIENNE_CHAOS_SEED`), which
//!   permutes worker claim order and injects stalls.
//!
//! Epoch-`e` ground truth is reconstructed solo by replaying the first `e`
//! batches into a fresh store — batch application itself is deterministic,
//! so the replayed snapshots equal the writer's.

mod common;

use julienne_repro::algorithms::dynamic::DynamicStore;
use julienne_repro::algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_repro::core::cache::{CacheKey, ResultCache};
use julienne_repro::core::query::QueryCtx;
use julienne_repro::graph::builder::EdgeList;
use julienne_repro::graph::generators::erdos_renyi;
use julienne_repro::graph::snapshot::EdgeUpdate;
use julienne_repro::graph::Graph;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Chaos mode is process-global; every chaos window takes this lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

const N: usize = 300;
/// Universe size: vertices `N..` start isolated; each batch attaches one,
/// so the component structure observably changes at every epoch.
const N_TOTAL: usize = 320;
const BATCHES: usize = 8;
const READERS: usize = 8;
const ALGOS: [&str; 4] = ["components", "kcore", "densest", "pagerank"];

fn base_graph() -> Graph {
    let g = erdos_renyi(N, 900, 42, true);
    let mut el: EdgeList<()> = EdgeList::new(N_TOTAL);
    for u in 0..N as u32 {
        for &v in g.neighbors(u) {
            el.push(u, v, ());
        }
    }
    el.build_symmetric()
}

/// The deterministic batch sequence: seeded LCG, mixed inserts/deletes,
/// always including a fresh long-range insert so consecutive epochs have
/// observably different answers.
fn batches() -> Vec<Vec<EdgeUpdate>> {
    let mut x: u64 = 0xC0FFEE;
    let mut lcg = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    (0..BATCHES)
        .map(|i| {
            let mut b: Vec<EdgeUpdate> = (0..10)
                .map(|_| {
                    let (u, v) = (lcg() % N as u32, lcg() % N as u32);
                    if lcg() % 3 == 0 {
                        EdgeUpdate::delete(u, v)
                    } else {
                        EdgeUpdate::insert(u, v)
                    }
                })
                .collect();
            // Attach one previously isolated vertex per epoch: a
            // guaranteed, component-visible change no random delete can
            // mask (random ops never touch vertices ≥ N).
            b.push(EdgeUpdate::insert((N + i) as u32, i as u32));
            b
        })
        .collect()
}

fn run_solo(algo: &str, store: &GraphStore) -> String {
    Registry::standard()
        .run(algo, store, &ParamMap::default(), &QueryCtx::default())
        .unwrap_or_else(|e| panic!("{algo}: {e}"))
}

/// Solo ground truth: `(algo, epoch) → output`, via replay into a fresh
/// store with no concurrency.
fn solo_outputs(g: &Graph, batches: &[Vec<EdgeUpdate>]) -> HashMap<(String, u64), String> {
    let store = Arc::new(DynamicStore::from_graph(g.clone()));
    let mut out = HashMap::new();
    for epoch in 0..=batches.len() as u64 {
        if epoch > 0 {
            let applied = store.apply_batch(&batches[epoch as usize - 1]).unwrap();
            assert_eq!(applied.epoch, epoch);
        }
        let pinned = GraphStore::dynamic(Arc::clone(&store)).pin();
        assert_eq!(pinned.epoch(), epoch);
        for algo in ALGOS {
            out.insert((algo.to_string(), epoch), run_solo(algo, &pinned));
        }
    }
    out
}

/// One observed query: `(algo, pinned epoch, output, was_cache_hit)`.
type Observation = (String, u64, String, bool);

/// One chaos scenario: writer vs `READERS` concurrent reader threads, all
/// sharing one epoch-keyed result cache. Returns every observation.
fn run_scenario(g: &Graph, batches: &[Vec<EdgeUpdate>]) -> Vec<Observation> {
    let store = Arc::new(DynamicStore::from_graph(g.clone()));
    let cache = Arc::new(ResultCache::new(1 << 20));
    let observations: Arc<Mutex<Vec<Observation>>> = Arc::new(Mutex::new(Vec::new()));
    thread::scope(|scope| {
        let writer_store = Arc::clone(&store);
        let writer = scope.spawn(move || {
            for b in batches {
                writer_store.apply_batch(b).unwrap();
                thread::sleep(Duration::from_millis(2));
            }
        });
        for r in 0..READERS {
            let store = Arc::clone(&store);
            let cache = Arc::clone(&cache);
            let observations = Arc::clone(&observations);
            scope.spawn(move || {
                let mut i = r; // stagger which algorithm each reader starts on

                // Run one query before looking at the epoch, so a reader
                // that starts after the last batch still records one.
                loop {
                    let algo = ALGOS[i % ALGOS.len()];
                    i += 1;
                    // Pin first, exactly like scheduler admission: the
                    // epoch in the cache key is the pinned snapshot's.
                    let pinned = GraphStore::dynamic(Arc::clone(&store)).pin();
                    let epoch = pinned.epoch();
                    let key = CacheKey::new(algo, "", epoch);
                    let (output, hit) = match cache.get(&key) {
                        Some(cached) => ((*cached).clone(), true),
                        None => {
                            let out = run_solo(algo, &pinned);
                            cache.put(key, out.clone());
                            (out, false)
                        }
                    };
                    observations
                        .lock()
                        .unwrap()
                        .push((algo.to_string(), epoch, output, hit));
                    if store.epoch() >= BATCHES as u64 {
                        break;
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    Arc::try_unwrap(observations).unwrap().into_inner().unwrap()
}

fn check_scenario(g: &Graph, expected: &HashMap<(String, u64), String>) {
    let obs = run_scenario(g, &batches());
    assert!(
        obs.len() >= READERS,
        "every reader should complete at least one query"
    );
    let mut hits = 0usize;
    for (algo, epoch, output, hit) in obs {
        let want = &expected[&(algo.clone(), epoch)];
        assert_eq!(
            &output, want,
            "{algo} pinned at epoch {epoch} (cache hit: {hit}) diverged from its solo run"
        );
        hits += hit as usize;
    }
    let _ = hits; // hit count is timing-dependent; correctness is above
}

#[test]
fn concurrent_queries_match_solo_runs_per_epoch() {
    let g = base_graph();
    let expected = solo_outputs(&g, &batches());
    // The suite must have teeth: epochs genuinely answer differently.
    assert_ne!(
        expected[&("components".to_string(), 0)],
        expected[&("components".to_string(), BATCHES as u64)],
        "batches were supposed to change the component structure"
    );
    check_scenario(&g, &expected);
}

#[test]
fn concurrent_queries_match_solo_runs_under_chaos() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let g = base_graph();
    rayon::set_chaos_seed(None);
    let expected = solo_outputs(&g, &batches());
    for seed in [1u64, 0xDEAD_BEEF] {
        rayon::set_chaos_seed(Some(seed));
        check_scenario(&g, &expected);
        rayon::set_chaos_seed(None);
    }
}

/// The deterministic interleaving: pin, mutate, query the stale pin. No
/// timing dependence — the pinned snapshot MUST answer with its epoch's
/// values, and the post-mutation pin must answer with the new ones.
#[test]
fn pinned_queries_ignore_later_mutations() {
    let g = base_graph();
    let store = Arc::new(DynamicStore::from_graph(g));
    let before = GraphStore::dynamic(Arc::clone(&store)).pin();
    let solo_before: Vec<String> = ALGOS.iter().map(|a| run_solo(a, &before)).collect();

    for b in batches() {
        store.apply_batch(&b).unwrap();
    }
    let after = GraphStore::dynamic(Arc::clone(&store)).pin();
    assert_eq!(before.epoch(), 0);
    assert_eq!(after.epoch(), BATCHES as u64);

    for (algo, want) in ALGOS.iter().zip(&solo_before) {
        // The stale pin still answers exactly as it did before the writes…
        assert_eq!(&run_solo(algo, &before), want, "{algo}: stale pin moved");
    }
    // …and the fresh pin does not (the batches are built to change every
    // algorithm-visible property at least once across the run).
    assert_ne!(run_solo("components", &after), solo_before[0]);
}

/// Cache entries are epoch-scoped: the same (algo, params) under two
/// epochs are two entries, and neither ever answers for the other.
#[test]
fn cache_entries_never_cross_epochs() {
    let g = base_graph();
    let store = Arc::new(DynamicStore::from_graph(g));
    let cache = ResultCache::new(1 << 20);

    let pin0 = GraphStore::dynamic(Arc::clone(&store)).pin();
    let out0 = run_solo("components", &pin0);
    cache.put(CacheKey::new("components", "", 0), out0.clone());

    for b in batches() {
        store.apply_batch(&b).unwrap();
    }
    let e = store.epoch();
    let pin1 = GraphStore::dynamic(Arc::clone(&store)).pin();
    let out1 = run_solo("components", &pin1);
    assert_ne!(out0, out1, "the batches change the answer");

    // The new epoch misses (no leak forward)…
    assert!(cache.get(&CacheKey::new("components", "", e)).is_none());
    cache.put(CacheKey::new("components", "", e), out1.clone());
    // …and after both are cached, each epoch still gets exactly its own.
    assert_eq!(
        *cache.get(&CacheKey::new("components", "", 0)).unwrap(),
        out0
    );
    assert_eq!(
        *cache.get(&CacheKey::new("components", "", e)).unwrap(),
        out1
    );
}
