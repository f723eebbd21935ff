//! The in-memory caches: the bounded LRU map behind every typed session
//! stage cache, and the byte-budgeted [`MemoryTier`] staging tier of the
//! [tier stack](crate::tier).
//!
//! The [`Explorer`](crate::Explorer) session memoizes each pipeline
//! stage; for the twelve-benchmark registry the maps stay tiny, but a
//! long-lived session behind a service would otherwise grow without
//! bound as sweeps visit ever more `(benchmark, configuration)` keys.
//! [`LruCache`] bounds each stage map to a configurable number of
//! entries: an insert over capacity evicts the least-recently-*used*
//! entry (a cache hit refreshes recency), and every eviction is
//! reported back so the session's [`CacheStats`](crate::CacheStats) can
//! account for it. The map itself is synchronous and unsynchronized —
//! the session wraps one per stage in a `Mutex`.
//!
//! [`MemoryTier`] reuses the same LRU as an [`ArtifactTier`]: a
//! thread-safe map of
//! *encoded payload bytes* keyed by `(Stage, u64)`, bounded by a byte
//! budget instead of an entry count. The session's suite prefetcher
//! stages warm disk payloads here in parallel so stage requests decode
//! from memory; nothing is written through on the compute path (decoded
//! values live in the typed LRUs above).
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

use crate::artifact::{Stage, STAGE_COUNT};
use crate::tier::{ArtifactTier, TierCounters, TierRead, TierStats};
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

    /// Remove one entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|e| e.value)
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

    /// Remove and return the least-recently-used entry, or `None` when
    /// empty. This is the primitive byte-budgeted callers
    /// ([`MemoryTier`]) build on: they need the evicted *value* back to
    /// keep their size accounting exact.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())?;
        let value = self.map.remove(&oldest)?.value;
        Some((oldest, value))
    }

    fn evict_one(&mut self) -> bool {
        self.pop_lru().is_some()
    }
}

// -- the in-memory staging tier ----------------------------------------

/// Default byte budget of a [`MemoryTier`]: generous next to a full
/// warm-suite prefetch (a complete twelve-benchmark pipeline is a few
/// MiB of payloads) while bounding a pathological sweep.
pub const DEFAULT_STAGING_BUDGET: u64 = 64 << 20;

#[derive(Debug, Default)]
struct MemoryState {
    lru: LruCache<(Stage, u64), Vec<u8>>,
    bytes: u64,
    stage_entries: [u64; STAGE_COUNT],
    stage_bytes: [u64; STAGE_COUNT],
}

impl MemoryState {
    fn insert(&mut self, stage: Stage, key: u64, payload: &[u8], budget: u64) {
        self.remove(stage, key);
        self.lru.insert((stage, key), payload.to_vec());
        self.bytes += payload.len() as u64;
        self.stage_entries[stage as usize] += 1;
        self.stage_bytes[stage as usize] += payload.len() as u64;
        while self.bytes > budget {
            let Some(((s, _), evicted)) = self.lru.pop_lru() else {
                break;
            };
            self.forget(s, evicted.len() as u64);
        }
    }

    fn remove(&mut self, stage: Stage, key: u64) {
        if let Some(old) = self.lru.remove(&(stage, key)) {
            self.forget(stage, old.len() as u64);
        }
    }

    fn forget(&mut self, stage: Stage, bytes: u64) {
        self.bytes -= bytes;
        self.stage_entries[stage as usize] -= 1;
        self.stage_bytes[stage as usize] -= bytes;
    }
}

/// The in-memory byte tier: a thread-safe, byte-budgeted LRU of encoded
/// artifact payloads implementing [`ArtifactTier`].
///
/// This is the stack's *staging* tier
/// ([`persistent`](ArtifactTier::persistent)` == false`): computed
/// artifacts are not written through to it — they already live, decoded,
/// in the session's typed stage caches. Its entries come from the
/// parallel suite prefetcher
/// ([`Explorer::prefetch`](crate::Explorer::prefetch)), which batch-reads
/// warm disk payloads into it so the subsequent stage requests decode
/// from memory instead of performing serial disk reads; every request it
/// serves is counted as a `prefetch_hit` in
/// [`CacheStats`](crate::CacheStats).
///
/// ```
/// use asip_explorer::artifact::Stage;
/// use asip_explorer::cache::MemoryTier;
/// use asip_explorer::tier::{ArtifactTier, TierRead};
///
/// let tier = MemoryTier::with_budget(1024);
/// assert!(tier.put(Stage::Compile, 7, b"payload"));
/// assert!(tier.contains(Stage::Compile, 7));
/// assert!(matches!(tier.get(Stage::Compile, 7), TierRead::Hit(p) if p == b"payload"));
/// assert!(matches!(tier.get(Stage::Compile, 8), TierRead::Miss));
/// assert_eq!(tier.totals().bytes, 7);
/// assert!(!tier.persistent(), "a staging buffer, not a store");
/// ```
#[derive(Debug)]
pub struct MemoryTier {
    state: Mutex<MemoryState>,
    counters: TierCounters,
    budget: u64,
}

impl Default for MemoryTier {
    fn default() -> Self {
        MemoryTier::new()
    }
}

impl MemoryTier {
    /// A staging tier with the [default byte
    /// budget](DEFAULT_STAGING_BUDGET).
    pub fn new() -> Self {
        MemoryTier::with_budget(DEFAULT_STAGING_BUDGET)
    }

    /// A staging tier bounded to at most `budget` payload bytes;
    /// least-recently-used entries are evicted first when an insert
    /// overflows the budget. A payload larger than the whole budget is
    /// refused (`put` returns `false`), so a budget of 0 keeps only
    /// empty payloads.
    pub fn with_budget(budget: u64) -> Self {
        MemoryTier {
            state: Mutex::new(MemoryState::default()),
            counters: TierCounters::default(),
            budget,
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Drop every staged payload (counters are untouched; use
    /// [`ArtifactTier::reset_counters`] for those).
    pub fn clear(&self) {
        let mut state = crate::tier::lock(&self.state);
        *state = MemoryState::default();
    }
}

impl ArtifactTier for MemoryTier {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        let mut state = crate::tier::lock(&self.state);
        match state.lru.get(&(stage, key)) {
            Some(payload) => {
                let payload = payload.clone();
                self.counters.count_hit(stage);
                TierRead::Hit(payload)
            }
            None => {
                self.counters.count_miss(stage);
                TierRead::Miss
            }
        }
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        let mut state = crate::tier::lock(&self.state);
        // inserting it would evict every entry, then the payload itself;
        // a refused put still replaces the key's older copy, which must
        // not go on being served
        if payload.len() as u64 > self.budget {
            state.remove(stage, key);
            return false;
        }
        state.insert(stage, key, payload, self.budget);
        self.counters.count_write(stage);
        true
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        crate::tier::lock(&self.state)
            .lru
            .contains_key(&(stage, key))
    }

    fn stats(&self, stage: Stage) -> TierStats {
        let occupancy = {
            let state = crate::tier::lock(&self.state);
            (
                state.stage_entries[stage as usize],
                state.stage_bytes[stage as usize],
            )
        };
        TierStats {
            entries: occupancy.0,
            bytes: occupancy.1,
            ..self.counters.snapshot(stage)
        }
    }

    fn persistent(&self) -> bool {
        false
    }

    fn mark_corrupt(&self, stage: Stage, key: u64) {
        crate::tier::lock(&self.state).remove(stage, key);
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
    fn pop_lru_returns_oldest_first() {
        let mut c = LruCache::default();
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a: b is now LRU
        assert_eq!(c.pop_lru(), Some(("b", 2)));
        assert_eq!(c.pop_lru(), Some(("a", 1)));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn memory_tier_respects_its_byte_budget_lru_first() {
        let tier = MemoryTier::with_budget(10);
        tier.put(Stage::Compile, 1, b"aaaa"); // 4 bytes
        tier.put(Stage::Profile, 2, b"bbbb"); // 8 bytes
                                              // refresh entry 1, then overflow: entry 2 is LRU and must go
        assert!(matches!(tier.get(Stage::Compile, 1), TierRead::Hit(_)));
        tier.put(Stage::Schedule, 3, b"cccc"); // 12 > 10 → evict
        assert!(tier.contains(Stage::Compile, 1));
        assert!(!tier.contains(Stage::Profile, 2), "LRU entry evicted");
        assert!(tier.contains(Stage::Schedule, 3));
        let totals = tier.totals();
        assert_eq!(totals.bytes, 8);
        assert_eq!(totals.entries, 2);
        // per-stage occupancy adds up
        assert_eq!(tier.stats(Stage::Compile).bytes, 4);
        assert_eq!(tier.stats(Stage::Profile).entries, 0);
    }

    #[test]
    fn memory_tier_replacement_keeps_accounting_exact() {
        let tier = MemoryTier::with_budget(100);
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
        tier.clear();
        let tier = MemoryTier::with_budget(0);
        tier.put(Stage::Compile, 1, b"z");
        assert_eq!(tier.totals().entries, 0, "zero budget keeps nothing");
    }

    #[test]
    fn memory_tier_refuses_a_payload_larger_than_its_budget() {
        let tier = MemoryTier::with_budget(8);
        assert!(tier.put(Stage::Compile, 1, b"aaaa"));
        assert!(
            !tier.put(Stage::Profile, 2, &[0; 16]),
            "oversize is refused"
        );
        assert!(tier.contains(Stage::Compile, 1), "nothing was evicted");
        assert!(!tier.contains(Stage::Profile, 2));
        let totals = tier.totals();
        assert_eq!((totals.entries, totals.bytes, totals.writes), (1, 4, 1));
    }

    #[test]
    fn a_refused_put_stops_serving_the_keys_older_copy() {
        let tier = MemoryTier::with_budget(8);
        assert!(tier.put(Stage::Compile, 1, b"old"));
        assert!(!tier.put(Stage::Compile, 1, &[0; 9]), "oversize is refused");
        assert!(matches!(tier.get(Stage::Compile, 1), TierRead::Miss));
        let totals = tier.totals();
        assert_eq!((totals.entries, totals.bytes), (0, 0));
    }
}
