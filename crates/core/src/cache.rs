//! The serve-path result cache: completed query outputs keyed by
//! `(algorithm, canonical params, graph epoch)` with LRU eviction under a
//! byte budget.
//!
//! The scheduler consults the cache **before admission** — a hit answers
//! the query without queueing a traversal — and populates it when a query
//! (or a fused batch member) completes successfully. Three properties make
//! that sound:
//!
//! * **Canonical keys.** The params component is the canonical rendering
//!   produced by the registry (floats parsed and re-rendered, keys sorted),
//!   so `damping=0.85` and `damping=0.850` share one entry.
//! * **Epoch stamping.** Every key embeds the epoch of the graph version
//!   the query was pinned to at admission (always 0 for an immutable
//!   graph). Mutating a dynamic graph publishes a new epoch, which makes
//!   every cached entry of the old one unreachable without a stop-the-world
//!   flush; stale entries age out of the LRU under insert pressure.
//! * **Determinism.** Outputs are bit-identical across runs (the workspace
//!   determinism contract), so serving a cached body is indistinguishable
//!   from re-running the traversal — modulo the wire-visible `cached` flag.
//!
//! Only successful, stats-free outputs are cached: error responses are
//! cheap to recompute and per-query stats traces embed timings that are not
//! reproducible.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Free-slot / list-end sentinel for the intrusive LRU links.
const NIL: usize = usize::MAX;

/// Fixed per-entry accounting overhead (slab slot, map entry, and the two
/// `String` headers), charged on top of the key and value bytes.
const ENTRY_OVERHEAD: usize = 96;

/// A cache key: algorithm id, canonical parameter rendering, and the graph
/// epoch the result was computed against.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry algorithm id (`"kcore"`, `"sssp"`, …).
    pub algo: String,
    /// Canonical `key=value` rendering of the full parameter map (sorted
    /// keys, floats re-rendered), as produced by the registry.
    pub params: String,
    /// The epoch of the graph version the query was pinned to at admission.
    pub epoch: u64,
}

impl CacheKey {
    /// Builds a key.
    pub fn new(algo: &str, params: &str, epoch: u64) -> Self {
        CacheKey {
            algo: algo.to_string(),
            params: params.to_string(),
            epoch,
        }
    }

    fn cost(&self) -> usize {
        self.algo.len() + self.params.len()
    }
}

struct Slot {
    key: CacheKey,
    value: Arc<String>,
    bytes: usize,
    prev: usize,
    next: usize,
}

struct Inner {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (eviction end).
    tail: usize,
    bytes: usize,
}

/// Point-in-time cache counters (monotonic except `entries`/`bytes`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Accounted bytes of the live entries.
    pub bytes: usize,
    /// The configured byte budget.
    pub capacity_bytes: usize,
}

/// A thread-safe LRU result cache under a byte budget. See the module docs
/// for the keying and epoch contract.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity_bytes` of accounted entry bytes
    /// (key + value + fixed per-entry overhead).
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                bytes: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The LRU state, recovered if poisoned: no code outside this module
    /// runs under the lock, and a body is only ever stored beside its own
    /// key, so a panic under it cannot make the cache serve a wrong body.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Looks `key` up, refreshing its recency on a hit. The value comes
    /// back behind an `Arc` so serving it never copies the body under the
    /// lock.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<String>> {
        let mut inner = self.lock();
        let Some(&slot) = inner.map.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        inner.unlink(slot);
        inner.push_front(slot);
        Some(Arc::clone(&inner.slots[slot].value))
    }

    /// Inserts (or refreshes) `key → value`, evicting least-recently-used
    /// entries until the budget holds. A single entry larger than the whole
    /// budget is not cached at all.
    pub fn put(&self, key: CacheKey, value: String) {
        let bytes = key.cost() + value.len() + ENTRY_OVERHEAD;
        if bytes > self.capacity_bytes {
            return;
        }
        let value = Arc::new(value);
        let mut inner = self.lock();
        if let Some(&slot) = inner.map.get(&key) {
            // Refresh: replace the body and re-front the entry.
            inner.bytes = inner.bytes - inner.slots[slot].bytes + bytes;
            inner.slots[slot].value = value;
            inner.slots[slot].bytes = bytes;
            inner.unlink(slot);
            inner.push_front(slot);
        } else {
            let slot = inner.alloc(key.clone(), value, bytes);
            inner.map.insert(key, slot);
            inner.push_front(slot);
            inner.bytes += bytes;
        }
        while inner.bytes > self.capacity_bytes {
            let victim = inner.tail;
            debug_assert_ne!(victim, NIL, "over budget with no entries");
            inner.unlink(victim);
            let Slot { key, bytes, .. } = inner.release(victim);
            inner.map.remove(&key);
            inner.bytes -= bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

impl Inner {
    fn alloc(&mut self, key: CacheKey, value: Arc<String>, bytes: usize) -> usize {
        let slot = Slot {
            key,
            value,
            bytes,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    fn release(&mut self, slot: usize) -> Slot {
        self.free.push(slot);
        std::mem::replace(
            &mut self.slots[slot],
            Slot {
                key: CacheKey::new("", "", 0),
                value: Arc::new(String::new()),
                bytes: 0,
                prev: NIL,
                next: NIL,
            },
        )
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            if self.head == slot {
                self.head = next;
            }
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            if self.tail == slot {
                self.tail = prev;
            }
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: usize, epoch: u64) -> CacheKey {
        CacheKey::new("algo", &format!("k={i}"), epoch)
    }

    #[test]
    fn hit_returns_the_stored_body_and_counts() {
        let c = ResultCache::new(1 << 20);
        assert!(c.get(&key(1, 0)).is_none());
        c.put(key(1, 0), "one".into());
        assert_eq!(c.get(&key(1, 0)).unwrap().as_str(), "one");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let c = ResultCache::new(1 << 20);
        c.put(key(1, 0), "old".into());
        assert!(c.get(&key(1, 1)).is_none(), "bumped epoch must miss");
        c.put(key(1, 1), "new".into());
        assert_eq!(c.get(&key(1, 0)).unwrap().as_str(), "old");
        assert_eq!(c.get(&key(1, 1)).unwrap().as_str(), "new");
    }

    #[test]
    fn lru_evicts_the_coldest_under_byte_pressure() {
        // Three entries fit, the fourth evicts the least recently touched.
        let per = key(0, 0).cost() + 3 + ENTRY_OVERHEAD;
        let c = ResultCache::new(3 * per);
        for i in 0..3 {
            c.put(key(i, 0), format!("v{i:02}"));
        }
        // Touch 0 so 1 is the coldest.
        assert!(c.get(&key(0, 0)).is_some());
        c.put(key(3, 0), "v03".into());
        assert!(c.get(&key(1, 0)).is_none(), "coldest entry must be evicted");
        for i in [0usize, 2, 3] {
            assert!(c.get(&key(i, 0)).is_some(), "entry {i} must survive");
        }
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 3);
        assert_eq!(s.bytes, 3 * per);
    }

    #[test]
    fn refresh_replaces_the_body_and_reaccounts() {
        let c = ResultCache::new(1 << 20);
        c.put(key(1, 0), "short".into());
        let before = c.stats().bytes;
        c.put(key(1, 0), "a considerably longer body".into());
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(
            s.bytes,
            before - "short".len() + "a considerably longer body".len()
        );
        assert_eq!(
            c.get(&key(1, 0)).unwrap().as_str(),
            "a considerably longer body"
        );
    }

    #[test]
    fn oversize_entries_are_not_cached() {
        let c = ResultCache::new(64);
        c.put(key(1, 0), "x".repeat(1024));
        assert!(c.get(&key(1, 0)).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn eviction_churn_keeps_the_list_consistent() {
        let per = key(0, 0).cost() + 4 + ENTRY_OVERHEAD;
        let c = ResultCache::new(4 * per);
        for round in 0..200usize {
            c.put(key(round % 13, 0), format!("v{round:03}"));
            let _ = c.get(&key((round * 7) % 13, 0));
        }
        let s = c.stats();
        assert!(s.entries <= 4);
        assert!(s.bytes <= 4 * per);
    }
}
