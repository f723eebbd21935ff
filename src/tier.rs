//! The artifact tier stack: pluggable cache tiers under the typed
//! session caches.
//!
//! PR 3 wired the on-disk [`ArtifactStore`](crate::store::ArtifactStore)
//! under the in-memory stage caches with hand-written memory-then-disk
//! branches inside the session. This module replaces that wiring with an
//! explicit, pluggable architecture:
//!
//! - [`ArtifactTier`] is the contract every cache tier implements —
//!   `get`/`put`/`contains` over *encoded payload bytes* keyed by
//!   `(Stage, u64)`, plus per-stage [`TierStats`]. The in-memory staging
//!   tier ([`MemoryTier`](crate::cache::MemoryTier)) and the disk store
//!   both implement it; a future remote tier (HTTP, object store) is a
//!   one-struct addition behind the same interface.
//! - [`TierStack`] is an ordered list of tiers with read-through,
//!   write-through and prefetch-staging semantics, and the one generic
//!   `get_or_compute` every session stage goes through.
//!
//! # The tier contract
//!
//! Tier bytes are always a complete [`ArtifactCodec`] payload — the
//! value's encoding with *no* file header; framing (magic, version,
//! checksum) is each persistent tier's private concern. A tier never
//! fails a request: `get` answers [`TierRead::Miss`] for absent entries
//! and [`TierRead::Corrupt`] for entries it rejected itself; `put` may
//! silently drop the write (full disk, over budget). When payload bytes
//! pass a tier's own validation but fail *typed* decoding upstream, the
//! stack reports that back through [`ArtifactTier::mark_corrupt`] so the
//! tier can count it and discard the entry.
//!
//! # Lookup order
//!
//! A stage request resolves in this order, stopping at the first hit:
//!
//! 1. the session's typed per-stage LRU (artifacts shared by `Arc` — the
//!    only tier that never re-decodes);
//! 2. each stack tier top-down (staging memory first, then disk, then
//!    any custom tier) — a hit decodes the payload and promotes the
//!    value into the typed LRU;
//! 3. the stage computation, whose result is written through to every
//!    [persistent](ArtifactTier::persistent) tier.
//!
//! Single-flighting wraps the whole sequence: concurrent requests for
//! one missing key perform one tier walk and at most one computation.

use crate::artifact::{ArtifactCodec, Stage, STAGE_COUNT};
use crate::cache::LruCache;
use crate::error::ExplorerError;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Counters and occupancy for one pipeline stage of one tier.
///
/// `hits`/`misses`/`corrupt` count [`ArtifactTier::get`] outcomes,
/// `writes` counts landed [`ArtifactTier::put`]s, and
/// `entries`/`bytes` describe what the tier currently holds for the
/// stage. `bytes` is the tier's *own* footprint accounting — encoded
/// payload bytes for the in-memory tier, whole live records (framing
/// included) for the disk store — so compare byte totals within one
/// tier, not across tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Probes served with a validated payload.
    pub hits: u64,
    /// Probes that found no entry.
    pub misses: u64,
    /// Entries written (or replaced).
    pub writes: u64,
    /// Entries the tier rejected (its own validation) or was told to
    /// discard ([`ArtifactTier::mark_corrupt`]).
    pub corrupt: u64,
    /// Entries currently resident for this stage.
    pub entries: u64,
    /// Payload bytes currently resident for this stage.
    pub bytes: u64,
}

impl TierStats {
    /// Component-wise sum.
    pub fn merge(self, other: TierStats) -> TierStats {
        TierStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            writes: self.writes + other.writes,
            corrupt: self.corrupt + other.corrupt,
            entries: self.entries + other.entries,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// One mounted tier's [`TierStats`] for every stage, as
/// [`CacheStats::tiers`](crate::CacheStats::tiers) reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierReport {
    /// The tier's [`ArtifactTier::name`].
    pub name: &'static str,
    /// Counters and occupancy per stage, indexed by `Stage as usize`.
    pub stages: [TierStats; STAGE_COUNT],
}

impl TierReport {
    /// One stage's counters.
    pub fn stage(&self, stage: Stage) -> TierStats {
        self.stages[stage as usize]
    }

    /// Counters and occupancy summed over every stage.
    pub fn total(&self) -> TierStats {
        self.stages
            .iter()
            .fold(TierStats::default(), |a, s| a.merge(*s))
    }
}

/// The outcome of probing one tier for one entry.
#[derive(Debug)]
pub enum TierRead {
    /// The entry was present and passed the tier's own validation; the
    /// payload is the complete [`ArtifactCodec`] encoding.
    Hit(Vec<u8>),
    /// No entry under this key.
    Miss,
    /// An entry existed but the tier rejected it (bad framing, checksum
    /// mismatch, version skew). The tier has already counted it; the
    /// stack continues to the next tier.
    Corrupt,
}

/// One pluggable cache tier holding encoded artifact payloads keyed by
/// `(Stage, u64)`.
///
/// Implemented by the in-memory staging tier
/// ([`MemoryTier`](crate::cache::MemoryTier)) and the persistent disk
/// store ([`ArtifactStore`](crate::store::ArtifactStore)); a shared
/// remote tier implements the same five methods and plugs into
/// [`Explorer::with_tier`](crate::Explorer::with_tier) unchanged.
///
/// Tiers are infallible by contract: absence is a [`TierRead::Miss`],
/// damage is a counted [`TierRead::Corrupt`], and a failed `put` returns
/// `false` — never an error. See the [module docs](self) for the byte
/// contract.
pub trait ArtifactTier: Send + Sync + fmt::Debug {
    /// Short stable tier name ("memory", "disk", …) for stats displays.
    fn name(&self) -> &'static str;

    /// Probe for the payload stored under `(stage, key)`, counting
    /// exactly one of hit/miss/corrupt.
    fn get(&self, stage: Stage, key: u64) -> TierRead;

    /// Probe many entries at once, returning one [`TierRead`] per key
    /// in order. The default loops [`ArtifactTier::get`]; tiers with a
    /// cheaper bulk path (one network round trip for the whole
    /// prefetch set) override it and report
    /// [`batched`](ArtifactTier::batched).
    fn get_batch(&self, keys: &[(Stage, u64)]) -> Vec<TierRead> {
        keys.iter()
            .map(|&(stage, key)| self.get(stage, key))
            .collect()
    }

    /// Whether [`get_batch`](ArtifactTier::get_batch) is genuinely
    /// cheaper than per-key [`get`](ArtifactTier::get)s (e.g. it
    /// collapses a prefetch sweep into one network round trip). The
    /// stack uses this to pick between the parallel per-key staging
    /// path and [`TierStack::stage_in_batch`].
    fn batched(&self) -> bool {
        false
    }

    /// Store a payload under `(stage, key)`, replacing any previous
    /// entry. Returns whether the write landed; failures are swallowed
    /// (a tier is an optimization, never a correctness requirement).
    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool;

    /// Whether an entry exists under `(stage, key)`, without touching
    /// hit/miss counters or recency.
    fn contains(&self, stage: Stage, key: u64) -> bool;

    /// Snapshot one stage's counters and occupancy.
    fn stats(&self, stage: Stage) -> TierStats;

    /// Counters and occupancy summed over every stage.
    fn totals(&self) -> TierStats {
        Stage::all()
            .into_iter()
            .fold(TierStats::default(), |acc, s| acc.merge(self.stats(s)))
    }

    /// Whether computed artifacts should be written through to this
    /// tier. `true` for tiers that outlive the request path (disk,
    /// remote); `false` for staging buffers that are only populated by
    /// prefetch/promotion (the in-memory byte tier).
    fn persistent(&self) -> bool {
        true
    }

    /// Callback from the stack: this entry's payload passed the tier's
    /// own validation but failed typed decoding. The tier should count
    /// it as corrupt and discard the entry so the healed rewrite is not
    /// shadowed.
    fn mark_corrupt(&self, stage: Stage, key: u64) {
        let _ = (stage, key);
    }

    /// Zero the tier's counters (occupancy is state, not a counter, and
    /// is unaffected).
    fn reset_counters(&self);
}

/// A fixed-size bundle of per-stage hit/miss/write/corrupt counters,
/// shared by tier implementations.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    hits: [AtomicU64; STAGE_COUNT],
    misses: [AtomicU64; STAGE_COUNT],
    writes: [AtomicU64; STAGE_COUNT],
    corrupt: [AtomicU64; STAGE_COUNT],
}

impl TierCounters {
    pub(crate) fn count_hit(&self, stage: Stage) {
        self.hits[stage as usize].fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_miss(&self, stage: Stage) {
        self.misses[stage as usize].fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_write(&self, stage: Stage) {
        self.writes[stage as usize].fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_corrupt(&self, stage: Stage) {
        self.corrupt[stage as usize].fetch_add(1, Ordering::Relaxed);
    }
    /// Reclassify an already-counted hit as corrupt (typed decode failed
    /// after the tier's own validation passed).
    pub(crate) fn demote_hit(&self, stage: Stage) {
        self.hits[stage as usize].fetch_sub(1, Ordering::Relaxed);
        self.corrupt[stage as usize].fetch_add(1, Ordering::Relaxed);
    }
    /// Snapshot one stage's counters into a [`TierStats`] (occupancy
    /// fields zero; the tier fills them in).
    pub(crate) fn snapshot(&self, stage: Stage) -> TierStats {
        let i = stage as usize;
        TierStats {
            hits: self.hits[i].load(Ordering::Relaxed),
            misses: self.misses[i].load(Ordering::Relaxed),
            writes: self.writes[i].load(Ordering::Relaxed),
            corrupt: self.corrupt[i].load(Ordering::Relaxed),
            entries: 0,
            bytes: 0,
        }
    }
    pub(crate) fn reset(&self) {
        for i in 0..STAGE_COUNT {
            self.hits[i].store(0, Ordering::Relaxed);
            self.misses[i].store(0, Ordering::Relaxed);
            self.writes[i].store(0, Ordering::Relaxed);
            self.corrupt[i].store(0, Ordering::Relaxed);
        }
    }
}

// -- the typed front cache ---------------------------------------------

/// One stage's typed front cache: a bounded LRU map of finished
/// artifacts, the set of keys currently being computed (single-flight),
/// and the stage's memory-tier counters. Sits *above* the byte-level
/// tier stack — it is the only layer that shares decoded values by
/// `Arc` instead of re-decoding payload bytes. Entries are addressed by
/// the artifact's recipe key, the same `u64` every tier files it under.
#[derive(Debug)]
pub(crate) struct StageCache<V> {
    state: Mutex<CacheState<V>>,
    ready: Condvar,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) prefetch_hits: AtomicU64,
}

impl<V> Default for StageCache<V> {
    fn default() -> Self {
        StageCache {
            state: Mutex::new(CacheState {
                lru: LruCache::default(),
                inflight: HashSet::new(),
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct CacheState<V> {
    lru: LruCache<u64, Arc<V>>,
    inflight: HashSet<u64>,
}

impl<V> StageCache<V> {
    /// Bound (or unbound) the LRU, returning immediate evictions.
    pub(crate) fn set_capacity(&self, capacity: Option<usize>) -> u64 {
        let evicted = lock(&self.state).lru.set_capacity(capacity);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        lock(&self.state).lru.len()
    }

    /// Whether a finished artifact is resident under `key`, without
    /// refreshing recency (used by the prefetcher to skip disk reads
    /// for entries the typed cache will serve anyway).
    pub(crate) fn contains_key(&self, key: u64) -> bool {
        lock(&self.state).lru.contains_key(&key)
    }

    /// Drop every entry and zero the counters.
    pub(crate) fn reset(&self) {
        lock(&self.state).lru.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
    }

    fn insert(&self, key: u64, value: Arc<V>) {
        let evicted = lock(&self.state).lru.insert(key, value);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// Releases a single-flight claim on drop (success, error, or panic)
/// and wakes every thread waiting for the key.
struct InflightClaim<'a, V> {
    cache: &'a StageCache<V>,
    key: u64,
}

impl<V> Drop for InflightClaim<'_, V> {
    fn drop(&mut self) {
        lock(&self.cache.state).inflight.remove(&self.key);
        self.cache.ready.notify_all();
    }
}

/// Lock a tier mutex, recovering from poisoning: maps are only mutated
/// by whole-entry insertion/removal, so a panicking worker cannot leave
/// an entry half-written.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// -- the stack ---------------------------------------------------------

/// An ordered stack of [`ArtifactTier`]s with read-through,
/// write-through and prefetch-staging semantics.
///
/// The stack itself is cheap to clone (tiers are shared by `Arc`) and
/// may be empty — an empty stack degenerates every request to
/// compute-and-memoize, which is exactly the storeless session of PR 1.
#[derive(Debug, Clone, Default)]
pub struct TierStack {
    tiers: Vec<Arc<dyn ArtifactTier>>,
}

impl TierStack {
    /// An empty stack (typed caches only).
    pub fn new() -> Self {
        TierStack::default()
    }

    /// Append a tier at the bottom of the stack (probed after every
    /// tier already present).
    pub fn push(&mut self, tier: Arc<dyn ArtifactTier>) {
        self.tiers.push(tier);
    }

    /// The tiers, top (probed first) to bottom.
    pub fn tiers(&self) -> &[Arc<dyn ArtifactTier>] {
        &self.tiers
    }

    /// True when the stack holds no tiers at all.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Whether any tier accepts computed-artifact write-through.
    pub fn has_persistent(&self) -> bool {
        self.tiers.iter().any(|t| t.persistent())
    }

    /// Whether the stack can stage prefetched payloads (has a
    /// non-persistent tier above at least one persistent tier).
    pub fn can_stage(&self) -> bool {
        let first_staging = self.tiers.iter().position(|t| !t.persistent());
        match first_staging {
            Some(i) => self.tiers[i + 1..].iter().any(|t| t.persistent()),
            None => false,
        }
    }

    /// Zero every tier's counters.
    pub fn reset_counters(&self) {
        for t in &self.tiers {
            t.reset_counters();
        }
    }

    /// Probe tiers `start..` top-down for `(stage, key)`. Returns the
    /// index of the serving tier and the payload, or `None` when every
    /// tier missed. Corrupt entries are skipped (each tier counts its
    /// own).
    fn read_from(&self, start: usize, stage: Stage, key: u64) -> Option<(usize, Vec<u8>)> {
        for (i, tier) in self.tiers.iter().enumerate().skip(start) {
            match tier.get(stage, key) {
                TierRead::Hit(payload) => return Some((i, payload)),
                TierRead::Miss | TierRead::Corrupt => continue,
            }
        }
        None
    }

    /// Write a computed artifact's payload through to every persistent
    /// tier.
    fn write_through(&self, stage: Stage, key: u64, payload: &[u8]) {
        for tier in &self.tiers {
            if tier.persistent() {
                tier.put(stage, key, payload);
            }
        }
    }

    /// Prefetch one entry: read it from the persistent tiers and stage
    /// the payload in the topmost non-persistent tier, so a later
    /// request finds it in memory instead of performing its own disk
    /// read. Returns whether a payload was staged (false when the stack
    /// cannot stage, the entry is already staged, or no persistent tier
    /// holds it).
    pub fn stage_in(&self, stage: Stage, key: u64) -> bool {
        let Some(staging_idx) = self.tiers.iter().position(|t| !t.persistent()) else {
            return false;
        };
        let staging = &self.tiers[staging_idx];
        if staging.contains(stage, key) {
            return false;
        }
        match self.read_from(staging_idx + 1, stage, key) {
            Some((_, payload)) => staging.put(stage, key, &payload),
            None => false,
        }
    }

    /// Whether any tier offers a genuine bulk read
    /// ([`ArtifactTier::batched`]), making
    /// [`TierStack::stage_in_batch`] worthwhile.
    pub fn has_batched(&self) -> bool {
        self.tiers.iter().any(|t| t.batched())
    }

    /// Prefetch a whole key set: probe the persistent tiers top-down
    /// with one [`ArtifactTier::get_batch`] per tier (keys a higher
    /// tier already served are not probed again below) and stage every
    /// payload found in the topmost non-persistent tier. The batched
    /// sibling of [`TierStack::stage_in`], used when a tier offers a
    /// bulk path — one network round trip covers the whole warm-suite
    /// prefetch instead of one request per artifact. Returns how many
    /// entries were staged.
    pub fn stage_in_batch(&self, keys: &[(Stage, u64)]) -> usize {
        let Some(staging_idx) = self.tiers.iter().position(|t| !t.persistent()) else {
            return 0;
        };
        let staging = &self.tiers[staging_idx];
        let mut pending: Vec<(Stage, u64)> = keys
            .iter()
            .copied()
            .filter(|&(stage, key)| !staging.contains(stage, key))
            .collect();
        let mut staged = 0;
        for tier in &self.tiers[staging_idx + 1..] {
            if pending.is_empty() {
                break;
            }
            if !tier.persistent() {
                continue;
            }
            let reads = tier.get_batch(&pending);
            let mut rest = Vec::new();
            for ((stage, key), read) in pending.into_iter().zip(reads) {
                match read {
                    TierRead::Hit(payload) => {
                        if staging.put(stage, key, &payload) {
                            staged += 1;
                        }
                    }
                    TierRead::Miss | TierRead::Corrupt => rest.push((stage, key)),
                }
            }
            pending = rest;
        }
        staged
    }

    /// Memoize one stage computation through the full tier hierarchy
    /// with single-flight semantics: typed LRU → each tier top-down →
    /// `compute`, writing computed results through to every persistent
    /// tier.
    ///
    /// `key` is the artifact's recipe key: the typed cache and every
    /// tier address the artifact by it, so a request hashes its recipe
    /// once, hit or miss. A tier hit decodes the payload and is **not**
    /// a miss — `cache.misses` counts exactly the times `compute` ran.
    /// Hits served from a non-persistent (staging) tier additionally
    /// count as `prefetch_hits`. If the computation fails or panics,
    /// the in-flight claim is released so a waiter can retry.
    pub(crate) fn get_or_compute<V, F>(
        &self,
        stage: Stage,
        cache: &StageCache<V>,
        key: u64,
        compute: F,
    ) -> Result<Arc<V>, ExplorerError>
    where
        V: ArtifactCodec,
        F: FnOnce() -> Result<V, ExplorerError>,
    {
        {
            let mut state = lock(&cache.state);
            loop {
                if let Some(v) = state.lru.get(&key) {
                    cache.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(v));
                }
                if !state.inflight.contains(&key) {
                    break;
                }
                state = cache
                    .ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            state.inflight.insert(key);
        }
        // This thread owns the computation for `key`; the claim is
        // released (and waiters woken) on every exit path, panics
        // included, via the guard.
        let claim = InflightClaim { cache, key };
        let mut start = 0;
        while let Some((i, payload)) = self.read_from(start, stage, key) {
            match V::from_bytes(&payload) {
                Ok(v) => {
                    if !self.tiers[i].persistent() {
                        cache.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    let value = Arc::new(v);
                    cache.insert(key, Arc::clone(&value));
                    drop(claim);
                    return Ok(value);
                }
                Err(_) => {
                    // The tier's own framing validated but the typed
                    // decode rejected the payload (e.g. stage semantics
                    // changed under one FORMAT_VERSION). Tell the tier,
                    // then keep probing lower tiers.
                    self.tiers[i].mark_corrupt(stage, key);
                    start = i + 1;
                }
            }
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute()?);
        if self.has_persistent() {
            self.write_through(stage, key, &value.to_bytes());
        }
        cache.insert(key, Arc::clone(&value));
        drop(claim);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryTier;
    use crate::store::ArtifactStore;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("asip-tier-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ArtifactStore::open(dir)
    }

    fn stack(tag: &str) -> (TierStack, Arc<MemoryTier>, Arc<ArtifactStore>) {
        let staging = Arc::new(MemoryTier::new());
        let disk = Arc::new(temp_store(tag));
        let mut stack = TierStack::new();
        stack.push(staging.clone());
        stack.push(disk.clone());
        (stack, staging, disk)
    }

    #[test]
    fn empty_stack_computes_and_memoizes() {
        let stack = TierStack::new();
        assert!(!stack.has_persistent());
        assert!(!stack.can_stage());
        let cache: StageCache<u64> = StageCache::default();
        let v = stack
            .get_or_compute(Stage::Compile, &cache, 1, || Ok(7u64))
            .expect("computes");
        assert_eq!(*v, 7);
        let again = stack
            .get_or_compute(Stage::Compile, &cache, 1, || panic!("cached"))
            .expect("hits");
        assert!(Arc::ptr_eq(&v, &again));
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn write_through_skips_staging_and_lands_on_disk() {
        let (stack, staging, disk) = stack("write-through");
        assert!(stack.has_persistent());
        assert!(stack.can_stage());
        let cache: StageCache<u64> = StageCache::default();
        stack
            .get_or_compute(Stage::Compile, &cache, 42, || Ok(9u64))
            .expect("computes");
        assert_eq!(staging.totals().writes, 0, "staging is not written through");
        assert_eq!(disk.totals().writes, 1);
        assert!(disk.contains(Stage::Compile, 42));
        std::fs::remove_dir_all(disk.dir()).ok();
    }

    #[test]
    fn staged_entries_serve_and_count_prefetch_hits() {
        let (stack, staging, disk) = stack("staged");
        let cache: StageCache<u64> = StageCache::default();
        stack
            .get_or_compute(Stage::Profile, &cache, 5, || Ok(11u64))
            .expect("computes");

        // a fresh front cache (new "session") with the same stack:
        // prefetch stages the payload, the request decodes from memory
        let cold: StageCache<u64> = StageCache::default();
        assert!(stack.stage_in(Stage::Profile, 5), "staged from disk");
        assert!(!stack.stage_in(Stage::Profile, 5), "already staged");
        assert!(staging.contains(Stage::Profile, 5));
        let v = stack
            .get_or_compute(Stage::Profile, &cold, 5, || Err(ExplorerError::EmptySuite))
            .expect("served from staging");
        assert_eq!(*v, 11);
        assert_eq!(cold.prefetch_hits.load(Ordering::Relaxed), 1);
        assert_eq!(cold.misses.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(disk.dir()).ok();
    }

    #[test]
    fn undecodable_payload_demotes_to_corrupt_and_recomputes() {
        let (stack, staging, disk) = stack("demote");
        // stage bytes that validate as framing but are not a u64 payload
        staging.put(Stage::Compile, 3, b"junk");
        let cache: StageCache<u64> = StageCache::default();
        let v = stack
            .get_or_compute(Stage::Compile, &cache, 3, || Ok(8u64))
            .expect("recomputes");
        assert_eq!(*v, 8);
        assert_eq!(staging.totals().corrupt, 1, "demoted after typed decode");
        assert_eq!(staging.totals().entries, 0, "bad entry discarded");
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(disk.dir()).ok();
    }

    #[test]
    fn failed_compute_releases_the_inflight_claim() {
        let stack = TierStack::new();
        let cache: StageCache<u32> = StageCache::default();
        let err =
            stack.get_or_compute(Stage::Compile, &cache, 7, || Err(ExplorerError::EmptySuite));
        assert!(err.is_err());
        // the claim is gone: a retry computes (it would deadlock or
        // panic otherwise) and succeeds
        let v = stack
            .get_or_compute(Stage::Compile, &cache, 7, || Ok(99))
            .expect("retry succeeds");
        assert_eq!(*v, 99);
        assert!(lock(&cache.state).inflight.is_empty());
    }
}
