//! The in-memory caches: the bounded LRU map behind every typed session
//! cache, and the unbounded [`MemoryTier`], an in-memory
//! [`ArtifactTier`] for the [tier stack](crate::tier).
//!
//! The [`Explorer`](crate::Explorer) session memoizes each pipeline
//! stage and the derived work its stages share; for the
//! twelve-benchmark registry the maps stay tiny, but a long-lived
//! session behind a service would otherwise grow without bound as
//! sweeps visit ever more `(benchmark, configuration)` keys.
//! [`LruCache`] bounds each map to a configurable number of entries: an
//! insert over capacity evicts the least-recently-*used* entry (a cache
//! hit refreshes recency), and every eviction is reported back so the
//! session's [`CacheStats`](crate::CacheStats) can account for it. The
//! map itself is synchronous and unsynchronized — the session's
//! single-flighted memo (`StageCache`, see [`crate::tier`]) wraps each
//! one in a `Mutex`.
//!
//! [`MemoryTier`] is an [`ArtifactTier`] holding *encoded payload
//! bytes* keyed by `(Stage, u64)` in a plain map. The session never
//! mounts one itself (its prefetch decodes straight into the typed
//! caches); tests, fault harnesses and the serve daemon's panic probe
//! mount it with [`Explorer::with_tier`](crate::Explorer::with_tier) as
//! a tier that lives only as long as the process.
//!
//! ```
//! use asip_explorer::cache::LruCache;
//!
//! let mut cache = LruCache::default(); // unbounded until told otherwise
//! cache.set_capacity(Some(2));
//! cache.insert("fir", 1);
//! cache.insert("sewha", 2);
//! assert_eq!(cache.get(&"fir"), Some(&1)); // refreshes "fir"
//! let evicted = cache.insert("dft", 3);    // over capacity…
//! assert_eq!(evicted, 1);                  // …evicts LRU "sewha"
//! assert_eq!(cache.get(&"sewha"), None);
//! assert_eq!(cache.len(), 2);
//! ```

use crate::artifact::Stage;
use crate::tier::{lock, ArtifactTier, TierCounters, TierRead, TierStats};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// A hash map with an optional entry-count bound and least-recently-used
/// eviction.
///
/// Recency is tracked with a monotonic tick stamped on every `get` and
/// `insert`; eviction scans for the minimum stamp. The scan is `O(len)`,
/// which is the right trade for stage caches: capacities are small, the
/// values behind them cost milliseconds to recompute, and the map lives
/// under a `Mutex` where a linked-list LRU would buy nothing.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: Option<usize>,
    tick: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K, V> Default for LruCache<K, V> {
    fn default() -> Self {
        LruCache {
            map: HashMap::new(),
            capacity: None,
            tick: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Insert (or replace) an entry, evicting least-recently-used
    /// entries as needed to respect the capacity. Returns how many
    /// entries were evicted (0 when unbounded or under capacity).
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        let mut evicted = 0;
        if let Some(cap) = self.capacity {
            if !self.map.contains_key(&key) {
                while self.map.len() >= cap.max(1) && self.evict_one() {
                    evicted += 1;
                }
            }
        }
        self.tick += 1;
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Set or clear the entry bound (`None` = unbounded; a bound of 0 is
    /// treated as 1 so the cache always holds the newest entry).
    /// Shrinking below the current size evicts immediately; returns the
    /// eviction count.
    pub fn set_capacity(&mut self, capacity: Option<usize>) -> u64 {
        self.capacity = capacity;
        let mut evicted = 0;
        if let Some(cap) = capacity {
            while self.map.len() > cap.max(1) && self.evict_one() {
                evicted += 1;
            }
        }
        evicted
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is present, without refreshing its recency.
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Drop every entry (the bound survives).
    pub fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
    }

    /// Visit every cached value without touching recency, in no
    /// particular order. Used by the session to aggregate per-engine
    /// counters (e.g. run-state pool stats) into its [`CacheStats`]
    /// snapshot.
    ///
    /// [`CacheStats`]: crate::CacheStats
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|e| &e.value)
    }

    fn evict_one(&mut self) -> bool {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        oldest.is_some_and(|k| self.map.remove(&k).is_some())
    }
}

// -- the in-memory tier ------------------------------------------------

/// The in-memory byte tier: a thread-safe, unbounded map of encoded
/// artifact payloads implementing [`ArtifactTier`].
///
/// It is not [`persistent`](ArtifactTier::persistent): computed
/// artifacts are not written through to it — they already live, decoded,
/// in the session's typed stage caches. Its entries are the ones its
/// owner `put`s; a session that mounts it reads them like any tier's.
///
/// ```
/// use asip_explorer::artifact::Stage;
/// use asip_explorer::cache::MemoryTier;
/// use asip_explorer::tier::{ArtifactTier, TierRead};
///
/// let tier = MemoryTier::new();
/// assert!(tier.put(Stage::Compile, 7, b"payload"));
/// assert!(tier.contains(Stage::Compile, 7));
/// assert!(matches!(tier.get(Stage::Compile, 7), TierRead::Hit(p) if p == b"payload"));
/// assert!(matches!(tier.get(Stage::Compile, 8), TierRead::Miss));
/// assert_eq!(tier.totals().bytes, 7);
/// assert!(!tier.persistent(), "filled by its owner, not written through");
/// ```
#[derive(Debug, Default)]
pub struct MemoryTier {
    entries: Mutex<HashMap<(Stage, u64), Vec<u8>>>,
    counters: TierCounters,
}

impl MemoryTier {
    /// An empty memory tier.
    pub fn new() -> Self {
        MemoryTier::default()
    }
}

impl ArtifactTier for MemoryTier {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        match lock(&self.entries).get(&(stage, key)) {
            Some(payload) => {
                self.counters.count_hit(stage);
                TierRead::Hit(payload.clone())
            }
            None => {
                self.counters.count_miss(stage);
                TierRead::Miss
            }
        }
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        lock(&self.entries).insert((stage, key), payload.to_vec());
        self.counters.count_write(stage);
        true
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        lock(&self.entries).contains_key(&(stage, key))
    }

    fn stats(&self, stage: Stage) -> TierStats {
        let (entries, bytes) = lock(&self.entries)
            .iter()
            .filter(|((s, _), _)| *s == stage)
            .fold((0, 0), |(n, b), (_, p)| (n + 1, b + p.len() as u64));
        TierStats {
            entries,
            bytes,
            ..self.counters.snapshot(stage)
        }
    }

    fn persistent(&self) -> bool {
        false
    }

    fn mark_corrupt(&self, stage: Stage, key: u64) {
        lock(&self.entries).remove(&(stage, key));
        self.counters.demote_hit(stage);
    }

    fn reset_counters(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_by_default() {
        let mut c = LruCache::default();
        for i in 0..100 {
            assert_eq!(c.insert(i, i * 10), 0);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.get(&42), Some(&420));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::default();
        c.set_capacity(Some(2));
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a: b is now LRU
        assert_eq!(c.insert("c", 3), 1);
        assert_eq!(c.get(&"b"), None, "b was evicted, not a");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn replacing_an_entry_never_evicts() {
        let mut c = LruCache::default();
        c.set_capacity(Some(2));
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.insert("a", 10), 0, "replacement is not growth");
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut c = LruCache::default();
        for i in 0..5 {
            c.insert(i, i);
        }
        assert_eq!(c.set_capacity(Some(2)), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&3), Some(&3), "newest entries survive the shrink");
        assert_eq!(c.get(&4), Some(&4));
    }

    #[test]
    fn capacity_zero_keeps_the_newest_entry() {
        let mut c = LruCache::default();
        c.set_capacity(Some(0));
        c.insert("a", 1);
        assert_eq!(c.insert("b", 2), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn clear_keeps_the_bound() {
        let mut c = LruCache::default();
        c.set_capacity(Some(1));
        c.insert("a", 1);
        c.clear();
        assert_eq!(c.len(), 0);
        c.insert("b", 2);
        assert_eq!(c.insert("c", 3), 1, "the bound survived the clear");
    }

    #[test]
    fn memory_tier_replacement_keeps_accounting_exact() {
        let tier = MemoryTier::new();
        tier.put(Stage::Compile, 1, b"xxxxxxxx");
        tier.put(Stage::Compile, 1, b"yy");
        assert_eq!(tier.totals().bytes, 2, "old size released on replace");
        assert_eq!(tier.totals().entries, 1);
        // mark_corrupt always follows a hit in the stack's flow
        assert!(matches!(tier.get(Stage::Compile, 1), TierRead::Hit(_)));
        tier.mark_corrupt(Stage::Compile, 1);
        assert_eq!(tier.totals().hits, 0, "the hit was demoted");
        assert_eq!(tier.totals().bytes, 0);
        assert_eq!(tier.totals().entries, 0);
        assert_eq!(tier.totals().corrupt, 1);
        // occupancy is counted per stage
        tier.put(Stage::Compile, 1, b"a");
        tier.put(Stage::Profile, 2, b"bbb");
        tier.put(Stage::Profile, 3, b"cc");
        assert_eq!(tier.stats(Stage::Compile).entries, 1);
        assert_eq!(tier.stats(Stage::Compile).bytes, 1);
        assert_eq!(tier.stats(Stage::Profile).entries, 2);
        assert_eq!(tier.stats(Stage::Profile).bytes, 5);
        assert_eq!(tier.stats(Stage::Schedule), TierStats::default());
    }
}
