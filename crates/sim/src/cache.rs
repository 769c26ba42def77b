//! Memoized hardware-cost cache.
//!
//! Experiment sweeps re-simulate identical (network, optimizer, config)
//! combinations across ablation axes: the 6-net × format × block-size
//! grids of the evaluation run the same per-layer timing/energy model
//! many times with byte-identical inputs. Each whole-iteration simulation
//! is a *pure function* of its inputs — the DDR model is stateful within
//! a run (open rows, refresh, bus turnaround) but constructed fresh per
//! call — so its result can be memoized without changing any report.
//!
//! # Keying
//!
//! A [`HwCostKey`] is a `domain` tag (which simulator produced the entry)
//! plus a `spec` string that must capture *every* input the simulation
//! depends on — by convention the `Debug` rendering of the full config,
//! optimizer and network description. Debug-format keying is deliberately
//! conservative: any field change, even one that would not affect the
//! result, changes the key and forces a fresh computation.
//!
//! # Storage
//!
//! One mutex guards one map, and nothing is evicted: entries live for
//! the process lifetime. The callers ask for bounded key sets — the
//! experiment sweeps run fixed grids, and the `cq-serve` daemon admits
//! only its preset cells (7 networks × 5 configs × 4 optimizers) — so
//! the map stops growing once a sweep has visited its grid; a
//! design-space search adds one entry per distinct point it simulates.
//! The lock is held only for a lookup or an insert, never while
//! simulating. [`HwCostCache::clear`] exists for benchmarks that need
//! repeatable cold-start timings.
//!
//! # Determinism
//!
//! `get_or_compute` runs the compute closure *outside* the lock, so
//! parallel sweeps still fan out on misses; when two threads race on the
//! same key the first inserted value wins and both callers observe it
//! (values are returned behind `Arc`, so "the" result is shared, not
//! duplicated). The `hwcache_invariant` integration test asserts that
//! cached and uncached sweeps produce byte-identical reports.
//!
//! # Gating
//!
//! [`set_hwcache_enabled`] turns memoization off and on for A/B timing
//! (`bench_perf`, the repository benchmark) and for the invariant test.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key: a simulator domain tag plus the full input specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HwCostKey {
    /// Which simulator produced the entry (e.g. `"cambricon-q"`).
    pub domain: &'static str,
    /// Everything the simulation depends on, rendered to a string
    /// (conventionally via `Debug` on the config/optimizer/network).
    pub spec: String,
}

impl HwCostKey {
    /// Creates a key.
    pub fn new(domain: &'static str, spec: impl Into<String>) -> Self {
        HwCostKey {
            domain,
            spec: spec.into(),
        }
    }
}

/// Canonical spec fragment for an `f32` key field: the IEEE-754 bit
/// pattern in fixed-width hex. Text renderings of floats alias values
/// the simulator distinguishes — every NaN payload formats as `NaN`,
/// and a formatter (or a future `Display`-based spec) may collapse
/// `-0.0` into `0.0` — so float fields of a [`HwCostKey`] spec must go
/// through this encoding: two floats produce the same fragment iff
/// they are bit-identical.
pub fn key_f32(v: f32) -> String {
    format!("f32:{:08x}", v.to_bits())
}

/// Canonical spec fragment for an `f64` key field (see [`key_f32`]).
pub fn key_f64(v: f64) -> String {
    format!("f64:{:016x}", v.to_bits())
}

/// Hit/miss/size statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the compute closure.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Always 0: the cache never evicts. Kept so reports that carry an
    /// eviction count keep their schema.
    pub evictions: u64,
}

/// A memoizing map from [`HwCostKey`] to simulation results.
///
/// Values are stored behind [`Arc`], so a hit costs one clone of the
/// pointer, not of the result.
pub struct HwCostCache<V> {
    map: Mutex<HashMap<HwCostKey, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> std::fmt::Debug for HwCostCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwCostCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> HwCostCache<V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        HwCostCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, computing and inserting it with
    /// `compute` on a miss. When memoization is disabled (see
    /// [`hwcache_enabled`]) every call computes and nothing is stored.
    ///
    /// `compute` runs outside the lock: concurrent misses proceed in
    /// parallel, and a race on the *same* key resolves to
    /// first-insert-wins (the loser's computation is discarded — safe
    /// because simulations are pure).
    pub fn get_or_compute(&self, key: HwCostKey, compute: impl FnOnce() -> V) -> Arc<V> {
        if !hwcache_enabled() {
            return Arc::new(compute());
        }
        let hit = self.lock().get(&key).cloned();
        if let Some(value) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cq_obs::counter!("sim.hwcost.hit").incr();
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        cq_obs::counter!("sim.hwcost.miss").incr();
        let value = Arc::new(compute());
        // Lost a race on the same key: the first insert wins.
        Arc::clone(self.lock().entry(key).or_insert(value))
    }

    /// Drops every entry (hit/miss counters are preserved). Benchmarks
    /// use this to reproduce cold-start behaviour.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Snapshot of hit/miss/entry counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len(),
            evictions: 0,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<HwCostKey, Arc<V>>> {
        // A panicked compute closure never runs under the lock, so poison
        // can only come from a panicking hasher — recover rather than
        // cascade.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V> Default for HwCostCache<V> {
    fn default() -> Self {
        HwCostCache::new()
    }
}

/// Whether memoization is on (see [`set_hwcache_enabled`]).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether memoization is active: on unless [`set_hwcache_enabled`]
/// turned it off.
pub fn hwcache_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns memoization on or off process-wide (e.g. `bench_perf`'s A/B
/// sweep timing).
pub fn set_hwcache_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_hwcache_enabled` mutates process-global state; serialize the
    /// tests that toggle it so parallel test threads don't observe each
    /// other's modes.
    fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn computes_once_then_hits() {
        let _guard = mode_lock();
        let cache: HwCostCache<u64> = HwCostCache::new();
        set_hwcache_enabled(true);
        let mut calls = 0;
        let a = cache.get_or_compute(HwCostKey::new("test", "alpha"), || {
            calls += 1;
            41
        });
        let b = cache.get_or_compute(HwCostKey::new("test", "alpha"), || {
            calls += 1;
            999
        });
        assert_eq!((*a, *b, calls), (41, 41, 1));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let _guard = mode_lock();
        let cache: HwCostCache<String> = HwCostCache::new();
        set_hwcache_enabled(true);
        let a = cache.get_or_compute(HwCostKey::new("test", "a"), || "a".to_string());
        let b = cache.get_or_compute(HwCostKey::new("other", "a"), || "b".to_string());
        assert_ne!(*a, *b, "domain must participate in the key");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn disabled_cache_always_computes_and_stores_nothing() {
        let _guard = mode_lock();
        let cache: HwCostCache<u64> = HwCostCache::new();
        set_hwcache_enabled(false);
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_compute(HwCostKey::new("test", "k"), || {
                calls += 1;
                7
            });
            assert_eq!(*v, 7);
        }
        assert_eq!(calls, 3);
        assert_eq!(cache.stats().entries, 0);
        set_hwcache_enabled(true);
    }

    #[test]
    fn clear_preserves_counters() {
        let _guard = mode_lock();
        let cache: HwCostCache<u8> = HwCostCache::new();
        set_hwcache_enabled(true);
        let _ = cache.get_or_compute(HwCostKey::new("test", "x"), || 1);
        let _ = cache.get_or_compute(HwCostKey::new("test", "x"), || 2);
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!((s.hits, s.misses), (1, 1));
        // Recompute after clear: a fresh miss.
        let v = cache.get_or_compute(HwCostKey::new("test", "x"), || 9);
        assert_eq!(*v, 9);
    }

    #[test]
    fn key_float_fragments_are_bit_exact() {
        // Signed zeros are distinct cache inputs.
        assert_ne!(key_f32(0.0), key_f32(-0.0));
        assert_ne!(key_f64(0.0), key_f64(-0.0));
        // NaN payloads must not collapse: Debug renders both as "NaN".
        let quiet = f32::NAN;
        let payload = f32::from_bits(quiet.to_bits() ^ 0x1);
        assert_eq!(format!("{quiet:?}"), format!("{payload:?}"));
        assert_ne!(key_f32(quiet), key_f32(payload));
        // Bit-identical values agree; fragments are fixed width.
        assert_eq!(key_f32(1.5), key_f32(1.5));
        assert_eq!(key_f32(1.0), "f32:3f800000");
        assert_eq!(key_f64(1.0), "f64:3ff0000000000000");
    }

    #[test]
    fn racing_threads_share_one_value() {
        let _guard = mode_lock();
        let cache: HwCostCache<u64> = HwCostCache::new();
        set_hwcache_enabled(true);
        let out: Vec<Arc<u64>> = std::thread::scope(|s| {
            let cache = &cache;
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || cache.get_or_compute(HwCostKey::new("test", "race"), || 5))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // First insert wins: everyone observes the same Arc value.
        assert!(out.iter().all(|v| **v == 5));
        let first = Arc::as_ptr(&out[0]);
        let from_map = cache.get_or_compute(HwCostKey::new("test", "race"), || 6);
        assert_eq!(Arc::as_ptr(&from_map), first);
        assert_eq!(cache.stats().entries, 1);
    }
}
