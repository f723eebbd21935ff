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
//!   `(Stage, u64)`, plus per-stage [`TierStats`]. The disk store, the
//!   remote tier and the in-memory [`MemoryTier`](crate::cache::MemoryTier)
//!   all implement it; a further shared cache (HTTP, object store) is a
//!   one-struct addition behind the same interface.
//! - [`TierStack`] is an ordered list of tiers with read-through and
//!   write-through semantics. It has one read, a batched walk that the
//!   request path, the session's prefetch and the serve daemon share,
//!   and the one generic `get_or_compute` every session stage goes
//!   through.
//! - `StageCache` is the typed, single-flighted in-memory memo above
//!   the stack: one per stage, and one per kind of derived work the
//!   session shares between stages (which never reaches a tier).
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
//!    only tier that never re-decodes; the session's prefetch decodes
//!    warm artifacts straight into it);
//! 2. each stack tier top-down (remote, then disk, then any custom
//!    tier) — a hit decodes the payload and promotes the value into the
//!    typed LRU. A key the prefetch already found on no tier skips this
//!    step once, so a cold key is probed once, not twice;
//! 3. the stage computation, whose result is written through to every
//!    [persistent](ArtifactTier::persistent) tier.
//!
//! Single-flighting wraps the whole sequence: steps 2 and 3 are the
//! `fill` of the typed cache's `get_or_insert_with`, so concurrent
//! requests for one missing key perform one tier walk and at most one
//! computation. The session's derived-work memos go through the same
//! `get_or_insert_with`.

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
/// Implemented by the persistent disk store
/// ([`ArtifactStore`](crate::store::ArtifactStore)), the remote tier
/// ([`RemoteTier`](crate::remote::RemoteTier)) and the in-memory
/// [`MemoryTier`](crate::cache::MemoryTier); any other shared cache
/// implements the same five methods and plugs into
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
    /// cheaper bulk path (the remote tier: one network round trip for
    /// the whole prefetch set) override it. The stack reads every tier
    /// through this method, a request's single key included.
    fn get_batch(&self, keys: &[(Stage, u64)]) -> Vec<TierRead> {
        keys.iter()
            .map(|&(stage, key)| self.get(stage, key))
            .collect()
    }

    /// Whether [`get_batch`](ArtifactTier::get_batch) is genuinely
    /// cheaper than per-key [`get`](ArtifactTier::get)s. A hint for
    /// wrappers and callers only: the stack does not read it, since
    /// every stack read calls `get_batch`.
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
    /// remote); `false` for a tier that is read but filled only by its
    /// owner (the in-memory [`MemoryTier`](crate::cache::MemoryTier)).
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

/// The session's one in-memory memo: a bounded LRU map of finished
/// values, the set of keys currently being filled (single-flight, see
/// [`get_or_insert_with`](StageCache::get_or_insert_with)), and
/// hit/miss/eviction counters. As a stage's typed front cache it sits
/// *above* the byte-level tier stack — the only layer that shares
/// decoded values by `Arc` instead of re-decoding payload bytes — and
/// its entries are addressed by the artifact's recipe key, the same
/// `u64` every tier files it under. The session's derived work
/// (engines, baseline images, coverage studies, prepared designs and
/// their measurements) lives in `StageCache`s too, filled through
/// [`memo`](StageCache::memo) and never written to a tier.
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
                absent: HashSet::new(),
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
    /// Keys the prefetch found on no tier, each consumed by its first
    /// fill (see [`StageCache::note_absent`]).
    absent: HashSet<u64>,
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
    /// refreshing recency (used by the prefetch to skip tier reads for
    /// entries the typed cache will serve anyway).
    pub(crate) fn contains_key(&self, key: u64) -> bool {
        lock(&self.state).lru.contains_key(&key)
    }

    /// Drop every entry and absence record and zero the counters.
    pub(crate) fn reset(&self) {
        let mut state = lock(&self.state);
        state.lru.clear();
        state.absent.clear();
        drop(state);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
    }

    /// Insert a value computed outside [`get_or_insert_with`]
    /// (the profile stage files the baseline image its run captured).
    ///
    /// [`get_or_insert_with`]: StageCache::get_or_insert_with
    pub(crate) fn insert(&self, key: u64, value: Arc<V>) {
        let evicted = lock(&self.state).lru.insert(key, value);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Every resident value, without refreshing recency.
    pub(crate) fn values(&self) -> Vec<Arc<V>> {
        lock(&self.state).lru.values().cloned().collect()
    }

    /// The value resident under `key`, counted as a hit, or else the
    /// value `fill` produces, inserted under `key`. Single-flight:
    /// concurrent callers for one missing key run one `fill`, and the
    /// others wait for it and count as hits. If `fill` fails or panics,
    /// its claim is released and a waiter runs its own `fill`. No miss
    /// is counted here: a `fill` counts its own (see
    /// [`memo`](StageCache::memo)).
    ///
    /// A `fill` must never request its own key, directly or through
    /// other caches: it would wait on its own claim forever. The
    /// session's caches request each other acyclically (a measurement
    /// needs its prepared design, profile and baseline; those need the
    /// engine, which needs the compile stage; a coverage study needs
    /// the schedule, which needs the profile), so no wait can close a
    /// cycle.
    pub(crate) fn get_or_insert_with<F>(&self, key: u64, fill: F) -> Result<Arc<V>, ExplorerError>
    where
        F: FnOnce() -> Result<V, ExplorerError>,
    {
        {
            let mut state = lock(&self.state);
            loop {
                if let Some(v) = state.lru.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(v));
                }
                if !state.inflight.contains(&key) {
                    break;
                }
                state = self
                    .ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            state.inflight.insert(key);
        }
        // This thread owns the fill for `key`; the claim is released
        // (and waiters woken) on every exit path, panics included, via
        // the guard.
        let _claim = InflightClaim { cache: self, key };
        let value = Arc::new(fill()?);
        self.insert(key, Arc::clone(&value));
        Ok(value)
    }

    /// Memoize derived work under `key`: [`get_or_insert_with`] with
    /// one miss counted per run of `compute`.
    ///
    /// [`get_or_insert_with`]: StageCache::get_or_insert_with
    pub(crate) fn memo<F>(&self, key: u64, compute: F) -> Result<Arc<V>, ExplorerError>
    where
        F: FnOnce() -> Result<V, ExplorerError>,
    {
        self.get_or_insert_with(key, || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            compute()
        })
    }

    /// Decode a prefetched payload into the cache, counting it as a
    /// `prefetch_hit`. Returns whether it was admitted: a payload that
    /// fails typed decoding is left for the request path, which
    /// re-reads it and counts it corrupt on the tier that served it,
    /// and a key already resident keeps its value.
    pub(crate) fn admit(&self, key: u64, payload: &[u8]) -> bool
    where
        V: ArtifactCodec,
    {
        let Ok(value) = V::from_bytes(payload) else {
            return false;
        };
        let evicted = {
            let mut state = lock(&self.state);
            if state.lru.contains_key(&key) {
                return false;
            }
            state.lru.insert(key, Arc::new(value))
        };
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Record that the prefetch found `key` on no tier, so the first
    /// fill of `key` computes without reading the tiers again. Skipped
    /// when a value is resident or being filled: a request got there
    /// first, and its value would make the record stale.
    pub(crate) fn note_absent(&self, key: u64) {
        let mut state = lock(&self.state);
        if !state.lru.contains_key(&key) && !state.inflight.contains(&key) {
            state.absent.insert(key);
        }
    }

    /// Consume `key`'s absence record, returning whether there was one.
    fn take_absent(&self, key: u64) -> bool {
        lock(&self.state).absent.remove(&key)
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

/// An ordered stack of [`ArtifactTier`]s with read-through and
/// write-through semantics.
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

    /// Zero every tier's counters.
    pub fn reset_counters(&self) {
        for t in &self.tiers {
            t.reset_counters();
        }
    }

    /// Write a payload through to every persistent tier, returning
    /// whether any write landed. Computed artifacts and the serve
    /// daemon's `put`s go through here.
    pub(crate) fn write_through(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        let mut landed = false;
        for tier in &self.tiers {
            if tier.persistent() {
                landed |= tier.put(stage, key, payload);
            }
        }
        landed
    }

    /// Read a key set from tiers `start..` top-down with one
    /// [`ArtifactTier::get_batch`] per tier; keys a higher tier served
    /// are not probed again below, so a remote tier answers the whole
    /// set in one round trip. Returns, per key in order, the index of
    /// the serving tier and the payload, or `None` where every tier
    /// missed. Corrupt entries are skipped (each tier counts its own).
    /// The request path, the session's prefetch and the serve daemon
    /// all read through here.
    pub(crate) fn read_batch(
        &self,
        start: usize,
        keys: &[(Stage, u64)],
    ) -> Vec<Option<(usize, Vec<u8>)>> {
        let mut found = vec![None; keys.len()];
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        for (t, tier) in self.tiers.iter().enumerate().skip(start) {
            if pending.is_empty() {
                break;
            }
            let probe: Vec<(Stage, u64)> = pending.iter().map(|&i| keys[i]).collect();
            let reads = tier.get_batch(&probe);
            pending = pending
                .into_iter()
                .zip(reads)
                .filter_map(|(i, read)| match read {
                    TierRead::Hit(payload) => {
                        found[i] = Some((t, payload));
                        None
                    }
                    TierRead::Miss | TierRead::Corrupt => Some(i),
                })
                .collect();
        }
        found
    }

    /// Memoize one stage computation through the full tier hierarchy:
    /// typed LRU → each tier top-down → `compute`, writing computed
    /// results through to every persistent tier. The tier walk and the
    /// computation are the `fill` of [`StageCache::get_or_insert_with`],
    /// so concurrent requests for one missing key perform one walk and
    /// at most one computation. A key the prefetch found on no tier
    /// ([`StageCache::note_absent`]) skips the walk and computes.
    ///
    /// `key` is the artifact's recipe key: the typed cache and every
    /// tier address the artifact by it, so a request hashes its recipe
    /// once, hit or miss. A tier hit decodes the payload and is **not**
    /// a miss — `cache.misses` counts exactly the times `compute` ran.
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
        cache.get_or_insert_with(key, || {
            // a key the prefetch found on no tier is not probed again
            let mut start = if cache.take_absent(key) {
                self.tiers.len()
            } else {
                0
            };
            while let Some((i, payload)) = self.read_batch(start, &[(stage, key)]).pop().flatten() {
                match V::from_bytes(&payload) {
                    Ok(v) => return Ok(v),
                    Err(_) => {
                        // The tier's own framing validated but the typed
                        // decode rejected the payload (e.g. stage
                        // semantics changed under one FORMAT_VERSION).
                        // Tell the tier, then keep probing lower tiers.
                        self.tiers[i].mark_corrupt(stage, key);
                        start = i + 1;
                    }
                }
            }
            cache.misses.fetch_add(1, Ordering::Relaxed);
            let value = compute()?;
            if self.has_persistent() {
                self.write_through(stage, key, &value.to_bytes());
            }
            Ok(value)
        })
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

    /// A non-persistent memory tier above a disk store.
    fn stack(tag: &str) -> (TierStack, Arc<MemoryTier>, Arc<ArtifactStore>) {
        let memory = Arc::new(MemoryTier::new());
        let disk = Arc::new(temp_store(tag));
        let mut stack = TierStack::new();
        stack.push(memory.clone());
        stack.push(disk.clone());
        (stack, memory, disk)
    }

    #[test]
    fn empty_stack_computes_and_memoizes() {
        let stack = TierStack::new();
        assert!(!stack.has_persistent());
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
    fn write_through_skips_a_non_persistent_tier_and_lands_on_disk() {
        let (stack, memory, disk) = stack("write-through");
        assert!(stack.has_persistent());
        let cache: StageCache<u64> = StageCache::default();
        stack
            .get_or_compute(Stage::Compile, &cache, 42, || Ok(9u64))
            .expect("computes");
        assert_eq!(memory.totals().writes, 0, "memory is not written through");
        assert_eq!(disk.totals().writes, 1);
        assert!(disk.contains(Stage::Compile, 42));
        std::fs::remove_dir_all(disk.dir()).ok();
    }

    #[test]
    fn prefetch_admits_into_the_typed_cache_and_the_request_reads_no_tier() {
        let (stack, memory, disk) = stack("prefetch");
        let cache: StageCache<u64> = StageCache::default();
        stack
            .get_or_compute(Stage::Profile, &cache, 5, || Ok(11u64))
            .expect("computes");
        memory.put(Stage::Profile, 6, b"junk");
        stack.reset_counters();

        // a fresh front cache (new "session") with the same stack: one
        // batch read per tier, top-down, then admission
        let cold: StageCache<u64> = StageCache::default();
        let keys = [
            (Stage::Profile, 5),
            (Stage::Profile, 6),
            (Stage::Profile, 7),
        ];
        let [five, six, seven] = &stack.read_batch(0, &keys)[..] else {
            panic!("one read per key")
        };
        assert!(
            matches!(six, Some((0, p)) if p == b"junk"),
            "served by memory"
        );
        assert!(seven.is_none(), "no tier holds it");
        let probed = disk.totals();
        assert_eq!(
            (probed.hits, probed.misses),
            (1, 1),
            "key 6 is not probed below memory"
        );
        let Some((1, five)) = five else {
            panic!("served by disk")
        };
        assert!(cold.admit(5, five), "decoded into the cache");
        assert!(!cold.admit(5, five), "already resident");
        assert!(!cold.admit(6, b"junk"), "undecodable bytes are left alone");
        assert_eq!(cold.prefetch_hits.load(Ordering::Relaxed), 1);

        let (memory_reads, disk_reads) = (memory.totals(), disk.totals());
        let v = stack
            .get_or_compute(Stage::Profile, &cold, 5, || Err(ExplorerError::EmptySuite))
            .expect("served from the typed cache");
        assert_eq!(*v, 11);
        assert_eq!(cold.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cold.misses.load(Ordering::Relaxed), 0);
        assert_eq!(memory.totals(), memory_reads, "the request read no tier");
        assert_eq!(disk.totals(), disk_reads, "the request read no tier");
        std::fs::remove_dir_all(disk.dir()).ok();
    }

    #[test]
    fn undecodable_payload_demotes_to_corrupt_and_recomputes() {
        let (stack, memory, disk) = stack("demote");
        // bytes that pass the tier's own checks but are not a u64 payload
        memory.put(Stage::Compile, 3, b"junk");
        let cache: StageCache<u64> = StageCache::default();
        let v = stack
            .get_or_compute(Stage::Compile, &cache, 3, || Ok(8u64))
            .expect("recomputes");
        assert_eq!(*v, 8);
        assert_eq!(memory.totals().corrupt, 1, "demoted after typed decode");
        assert_eq!(memory.totals().entries, 0, "bad entry discarded");
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(disk.dir()).ok();
    }

    #[test]
    fn a_key_noted_absent_computes_without_a_tier_read_once() {
        let (stack, memory, disk) = stack("absent");
        let cache: StageCache<u64> = StageCache::default();
        cache.note_absent(4);
        memory.put(Stage::Design, 4, &5u64.to_bytes());
        let v = stack
            .get_or_compute(Stage::Design, &cache, 4, || Ok(6u64))
            .expect("computes");
        assert_eq!(*v, 6, "the record skips the tiers");
        assert_eq!((memory.totals().hits, disk.totals().misses), (0, 0));
        assert!(lock(&cache.state).absent.is_empty(), "the fill consumed it");

        // a consumed or reset record no longer skips the tiers
        cache.note_absent(5);
        cache.note_absent(4);
        assert_eq!(lock(&cache.state).absent.len(), 1, "4 is resident");
        cache.reset();
        assert!(lock(&cache.state).absent.is_empty());
        let v = stack
            .get_or_compute(Stage::Design, &cache, 4, || Ok(7u64))
            .expect("reads");
        assert_eq!(*v, 5, "served by memory");
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
