//! Memoized hardware-cost cache: hash-sharded, size-bounded.
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
//! # Sharding
//!
//! The map is split into [`DEFAULT_SHARDS`] hash-selected shards, each
//! behind its own mutex, so parallel sweep workers hitting the cache
//! contend only when their keys land on the same shard — a 4-thread
//! hit storm on the old single mutex serialized completely. The unit
//! tests check that 1 and 16 shards give the same results.
//!
//! # Bounding and eviction
//!
//! By default entries live for the process lifetime. Setting
//! `CQ_HWCACHE_CAP` (a positive integer; anything else aborts rather
//! than silently defaulting) bounds the cache to that many entries,
//! distributed across shards. A full shard evicts its least-recently-used
//! entry (LRU-ish: recency is tracked with one global atomic tick, and
//! eviction is shard-local). Eviction is *safe* because simulations are
//! deterministic pure functions of the key — an evicted entry is simply
//! recomputed, and the `hwcache_invariant` integration test asserts
//! cached and uncached sweeps produce byte-identical reports.
//! [`HwCostCache::clear`] exists for benchmarks that need repeatable
//! cold-start timings.
//!
//! # Determinism
//!
//! `get_or_compute` runs the compute closure *outside* any lock, so
//! parallel sweeps still fan out on misses; when two threads race on the
//! same key the first inserted value wins and both callers observe it
//! (values are returned behind `Arc`, so "the" result is shared, not
//! duplicated).
//!
//! # Gating
//!
//! The `CQ_HWCACHE` environment variable turns memoization off for A/B
//! runs (`off`/`0`/`false`; anything unrecognized aborts rather than
//! silently picking a mode). [`set_hwcache_enabled`] is the programmatic
//! override used by `bench_perf`.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Default shard count of [`HwCostCache::new`].
pub const DEFAULT_SHARDS: usize = 16;

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
    /// Entries currently stored (summed over shards).
    pub entries: usize,
    /// Entries displaced to stay under the capacity bound.
    pub evictions: u64,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

/// A memoizing map from [`HwCostKey`] to simulation results.
///
/// Values are stored behind [`Arc`], so a hit costs one clone of the
/// pointer, not of the result.
pub struct HwCostCache<V> {
    /// One mutex per shard; `shard_caps[i]` bounds shard `i`'s entries.
    shards: Vec<Mutex<HashMap<HwCostKey, Entry<V>>>>,
    shard_caps: Vec<usize>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> std::fmt::Debug for HwCostCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwCostCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> HwCostCache<V> {
    /// Creates a cache with [`DEFAULT_SHARDS`] shards, bounded by the
    /// validated `CQ_HWCACHE_CAP` environment setting (unbounded when
    /// unset).
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS, hwcache_cap())
    }

    /// Creates a cache with up to `shards` shards (clamped to ≥ 1) and an
    /// optional total entry capacity.
    ///
    /// When `capacity` is `Some(cap)`, at most `min(shards, cap)` shards
    /// are used and their per-shard caps sum to exactly `cap`, so the
    /// cache never holds more than `cap` entries in total.
    pub fn with_shards(shards: usize, capacity: Option<usize>) -> Self {
        let shards = shards.max(1);
        let (used, caps) = match capacity {
            Some(cap) => {
                let cap = cap.max(1);
                let used = shards.min(cap);
                let (q, rem) = (cap / used, cap % used);
                (used, (0..used).map(|i| q + usize::from(i < rem)).collect())
            }
            None => (shards, vec![usize::MAX; shards]),
        };
        HwCostCache {
            shards: (0..used).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_caps: caps,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        if self.shard_caps.contains(&usize::MAX) {
            None
        } else {
            Some(self.shard_caps.iter().sum())
        }
    }

    /// Number of shards (independent lock domains).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Returns the cached value for `key`, computing and inserting it with
    /// `compute` on a miss. When memoization is disabled (see
    /// [`hwcache_enabled`]) every call computes and nothing is stored.
    ///
    /// `compute` runs outside any lock: concurrent misses on different
    /// keys proceed in parallel, and a race on the *same* key resolves to
    /// first-insert-wins (the loser's computation is discarded — safe
    /// because simulations are pure).
    pub fn get_or_compute(&self, key: HwCostKey, compute: impl FnOnce() -> V) -> Arc<V> {
        if !hwcache_enabled() {
            return Arc::new(compute());
        }
        let shard_idx = self.shard_of(&key);
        if let Some(entry) = self.lock_shard(shard_idx).get_mut(&key) {
            entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            cq_obs::counter!("sim.hwcost.hit").incr();
            return Arc::clone(&entry.value);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        cq_obs::counter!("sim.hwcost.miss").incr();
        let value = Arc::new(compute());
        let mut shard = self.lock_shard(shard_idx);
        if let Some(existing) = shard.get_mut(&key) {
            // Lost the race: first insert wins.
            existing.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&existing.value);
        }
        let cap = self.shard_caps[shard_idx];
        if shard.len() >= cap {
            // LRU-ish: displace this shard's least-recently-used entry.
            if let Some(victim) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                cq_obs::counter!("sim.hwcost.evict").incr();
            }
        }
        let entry = Entry {
            value: Arc::clone(&value),
            last_used: self.tick.fetch_add(1, Ordering::Relaxed),
        };
        shard.insert(key, entry);
        value
    }

    /// Drops every entry (hit/miss/eviction counters are preserved).
    /// Benchmarks use this to reproduce cold-start behaviour.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.lock_shard(i).clear();
        }
    }

    /// Snapshot of hit/miss/entry/eviction counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: (0..self.shards.len())
                .map(|i| self.lock_shard(i).len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn shard_of(&self, key: &HwCostKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock_shard(&self, i: usize) -> MutexGuard<'_, HashMap<HwCostKey, Entry<V>>> {
        // A panicked compute closure never runs under the lock, so poison
        // can only come from a panicking hasher — recover rather than
        // cascade.
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V> Default for HwCostCache<V> {
    fn default() -> Self {
        HwCostCache::new()
    }
}

/// Runtime override state: 0 = follow `CQ_HWCACHE`, 1 = on, 2 = off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Whether memoization is active: a [`set_hwcache_enabled`] override wins,
/// else the validated `CQ_HWCACHE` environment setting (default on).
pub fn hwcache_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Programmatic on/off override (e.g. `bench_perf`'s A/B sweep timing).
pub fn set_hwcache_enabled(enabled: bool) {
    OVERRIDE.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
}

fn env_default() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let raw = std::env::var("CQ_HWCACHE").ok();
        match resolve_env_hwcache(raw.as_deref()) {
            Ok(on) => on,
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// The validated `CQ_HWCACHE_CAP` entry bound (cached for the process
/// lifetime): `None` when unset, the cap otherwise. An unparsable value
/// aborts the run rather than silently leaving the cache unbounded.
pub fn hwcache_cap() -> Option<usize> {
    static CACHED: OnceLock<Option<usize>> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let raw = std::env::var("CQ_HWCACHE_CAP").ok();
        match resolve_env_cap(raw.as_deref()) {
            Ok(cap) => cap,
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// Resolves a raw `CQ_HWCACHE` value. `None`/empty means "unset" (cache
/// on). Anything else must be a recognized on/off spelling, or the run
/// aborts: a typo like `CQ_HWCACHE=offf` silently leaving the cache on
/// would invalidate any sweep-timing comparison.
fn resolve_env_hwcache(raw: Option<&str>) -> Result<bool, String> {
    let Some(v) = raw else { return Ok(true) };
    let t = v.trim();
    if t.is_empty() {
        return Ok(true);
    }
    match t.to_ascii_lowercase().as_str() {
        "on" | "1" | "true" => Ok(true),
        "off" | "0" | "false" => Ok(false),
        _ => Err(format!(
            "invalid CQ_HWCACHE value {v:?}: expected on/off/1/0/true/false"
        )),
    }
}

/// Resolves a raw `CQ_HWCACHE_CAP` value. `None`/empty means "unset"
/// (unbounded). Anything else must be a positive integer, or the run
/// aborts: a typo like `CQ_HWCACHE_CAP=1e6` silently leaving the cache
/// unbounded would defeat the memory bound it was set to enforce.
fn resolve_env_cap(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = raw else { return Ok(None) };
    if v.trim().is_empty() {
        return Ok(None);
    }
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!(
            "invalid CQ_HWCACHE_CAP value {v:?}: expected a positive integer"
        )),
    }
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
    fn env_resolution_rejects_garbage() {
        assert_eq!(resolve_env_hwcache(None), Ok(true));
        assert_eq!(resolve_env_hwcache(Some("")), Ok(true));
        assert_eq!(resolve_env_hwcache(Some("  ")), Ok(true));
        for on in ["on", "1", "true", " ON ", "True"] {
            assert_eq!(resolve_env_hwcache(Some(on)), Ok(true), "{on}");
        }
        for off in ["off", "0", "false", " OFF "] {
            assert_eq!(resolve_env_hwcache(Some(off)), Ok(false), "{off}");
        }
        for bad in ["offf", "yes", "no", "2", "disable"] {
            let err = resolve_env_hwcache(Some(bad)).unwrap_err();
            assert!(err.contains("invalid CQ_HWCACHE"), "{err}");
        }
    }

    #[test]
    fn cap_env_resolution_rejects_garbage() {
        assert_eq!(resolve_env_cap(None), Ok(None));
        assert_eq!(resolve_env_cap(Some("")), Ok(None));
        assert_eq!(resolve_env_cap(Some("  ")), Ok(None));
        assert_eq!(resolve_env_cap(Some("64")), Ok(Some(64)));
        assert_eq!(resolve_env_cap(Some(" 1024 ")), Ok(Some(1024)));
        for bad in ["0", "-1", "1e6", "big", "64 entries", "3.5"] {
            let err = resolve_env_cap(Some(bad)).unwrap_err();
            assert!(err.contains("invalid CQ_HWCACHE_CAP"), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
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

    #[test]
    fn capacity_bound_is_never_exceeded() {
        let _guard = mode_lock();
        set_hwcache_enabled(true);
        for shards in [1, 3, 16] {
            let cache: HwCostCache<usize> = HwCostCache::with_shards(shards, Some(4));
            assert_eq!(cache.capacity(), Some(4), "shards={shards}");
            for i in 0..50 {
                let _ = cache.get_or_compute(HwCostKey::new("test", format!("k{i}")), || i);
                assert!(
                    cache.stats().entries <= 4,
                    "shards={shards}: {} entries exceed cap",
                    cache.stats().entries
                );
            }
            let s = cache.stats();
            assert!(
                s.evictions >= 46 - 4,
                "shards={shards}: {} evictions",
                s.evictions
            );
        }
    }

    #[test]
    fn evicted_entries_recompute_correctly() {
        let _guard = mode_lock();
        set_hwcache_enabled(true);
        let cache: HwCostCache<usize> = HwCostCache::with_shards(1, Some(2));
        // Fill beyond cap, then re-request everything: values stay correct
        // (pure function of the key) even though some were evicted.
        for round in 0..3 {
            for i in 0..5usize {
                let v = cache.get_or_compute(HwCostKey::new("test", format!("k{i}")), || i * 11);
                assert_eq!(*v, i * 11, "round {round}, key {i}");
            }
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn lru_keeps_the_hot_entry() {
        let _guard = mode_lock();
        set_hwcache_enabled(true);
        // Single shard, cap 2: keep touching "hot"; the churn of cold keys
        // must evict around it.
        let cache: HwCostCache<u32> = HwCostCache::with_shards(1, Some(2));
        let mut hot_computes = 0;
        let _ = cache.get_or_compute(HwCostKey::new("test", "hot"), || {
            hot_computes += 1;
            1
        });
        for i in 0..10 {
            let _ = cache.get_or_compute(HwCostKey::new("test", format!("cold{i}")), || 0);
            let _ = cache.get_or_compute(HwCostKey::new("test", "hot"), || {
                hot_computes += 1;
                1
            });
        }
        assert_eq!(hot_computes, 1, "hot entry must never be evicted");
    }

    #[test]
    fn small_cap_uses_fewer_shards_summing_exactly() {
        let cache: HwCostCache<u8> = HwCostCache::with_shards(16, Some(5));
        assert_eq!(cache.shard_count(), 5);
        assert_eq!(cache.capacity(), Some(5));
        let cache: HwCostCache<u8> = HwCostCache::with_shards(16, Some(21));
        assert_eq!(cache.shard_count(), 16);
        assert_eq!(cache.capacity(), Some(21));
        let cache: HwCostCache<u8> = HwCostCache::with_shards(16, None);
        assert_eq!(cache.shard_count(), 16);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn sharded_and_single_shard_agree() {
        let _guard = mode_lock();
        set_hwcache_enabled(true);
        let sharded: HwCostCache<String> = HwCostCache::with_shards(16, None);
        let single: HwCostCache<String> = HwCostCache::with_shards(1, None);
        for i in 0..40 {
            let k = HwCostKey::new("test", format!("spec-{i}"));
            let a = sharded.get_or_compute(k.clone(), || format!("v{i}"));
            let b = single.get_or_compute(k, || format!("v{i}"));
            assert_eq!(*a, *b);
        }
        assert_eq!(sharded.stats().entries, 40);
        assert_eq!(single.stats().entries, 40);
    }
}
