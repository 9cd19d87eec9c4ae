//! Atomic primitives of Section 2: `CAS` and `writeMin`.
//!
//! The paper assumes `CAS` and `writeMin` take O(1) work; on modern hardware
//! both compile to a (possibly retried) `lock cmpxchg`. `writeMin` is the
//! priority-update primitive of Shun et al. (SPAA 2013): it only issues a
//! write when it would actually lower the stored value, which keeps
//! contention low when many threads race toward the same minimum.
//!
//! All operations use `SeqCst` ordering: the Δ-stepping visit protocol of
//! Algorithm 2 (flag CAS before `writeMin`) is only correct when the flag
//! winner is guaranteed to have read a pre-round distance, which needs a
//! single total order over the flag and distance operations. On x86-64 the
//! RMW instructions are full fences anyway, so this costs nothing on the
//! paper's (and our) hardware.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically sets `*loc = min(*loc, value)`. Returns `true` iff this call
/// strictly lowered the stored value (i.e. this thread's write "won").
#[inline]
pub fn write_min_u32(loc: &AtomicU32, value: u32) -> bool {
    let mut cur = loc.load(Ordering::SeqCst);
    while value < cur {
        match loc.compare_exchange_weak(cur, value, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// Atomically sets `*loc = min(*loc, value)` for 64-bit values.
#[inline]
pub fn write_min_u64(loc: &AtomicU64, value: u64) -> bool {
    let mut cur = loc.load(Ordering::SeqCst);
    while value < cur {
        match loc.compare_exchange_weak(cur, value, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// One-shot compare-and-swap, the paper's `CAS(loc, oldV, newV)`.
#[inline]
pub fn cas_u32(loc: &AtomicU32, old: u32, new: u32) -> bool {
    loc.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn write_min_sequential_semantics() {
        let a = AtomicU32::new(10);
        assert!(write_min_u32(&a, 5));
        assert!(!write_min_u32(&a, 5)); // equal: no write
        assert!(!write_min_u32(&a, 7)); // larger: no write
        assert_eq!(a.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn write_min_parallel_exactly_one_winner_per_level() {
        // Many threads race; final value must be the global minimum and the
        // number of "won" returns for the winning value must be exactly 1.
        let a = AtomicU32::new(u32::MAX);
        let wins: usize = (0..10_000u32)
            .into_par_iter()
            .map(|i| usize::from(write_min_u32(&a, i % 97)))
            .sum();
        assert_eq!(a.load(Ordering::SeqCst), 0);
        // At least one win (the one that stored 0), and wins are bounded by
        // the number of distinct descending records, <= 97.
        assert!((1..=97).contains(&wins));
    }

    #[test]
    fn cas_succeeds_once() {
        let a = AtomicU32::new(0);
        let successes: usize = (0..1000u32)
            .into_par_iter()
            .map(|_| usize::from(cas_u32(&a, 0, 1)))
            .sum();
        assert_eq!(successes, 1);
        assert_eq!(a.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn write_min_u64_works() {
        let a = AtomicU64::new(u64::MAX);
        assert!(write_min_u64(&a, 42));
        assert!(!write_min_u64(&a, 43));
        assert_eq!(a.load(Ordering::SeqCst), 42);
    }
}
