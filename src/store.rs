//! The on-disk artifact store: the persistent tier of the
//! [tier stack](crate::tier) under the [`Explorer`](crate::Explorer)
//! session caches.
//!
//! The in-memory stage caches die with the process, so each of the
//! paper-reproduction binaries would otherwise recompile, re-profile
//! and re-schedule the same twelve benchmarks from scratch.
//! [`ArtifactStore`] serializes stage artifacts to disk keyed by a
//! stable content hash, turning a full reproduction run (many binaries,
//! one pipeline) from N× pipeline cost into ~1×: the first binary
//! populates the store, every later one reads it.
//!
//! # Layout
//!
//! One file per artifact, addressed entirely by content identity, plus
//! a manifest index at the root:
//!
//! ```text
//! <dir>/manifest.tsv
//! <dir>/<stage-name>/<16-hex-digit key>.art
//! ```
//!
//! The key is a [`StableHasher`] (FNV-1a 64) digest of everything the
//! artifact is a pure function of — the benchmark source's XXH64 digest
//! (not just the name), data spec, seed, stage name, every relevant
//! configuration and [`FORMAT_VERSION`]. Each file carries a
//! self-describing header (magic, version, stage, payload length, and an
//! XXH64 checksum over the header fields and the payload) ahead of an
//! [`ArtifactCodec`] payload. The manifest is an *index cache*
//! over the entry files (per-stage byte/entry accounting and precise
//! write times); the directory is always the authority, and a missing or
//! damaged manifest is rebuilt by scan. The full specification lives in
//! `docs/persistence.md`.
//!
//! # Garbage collection
//!
//! Config sweeps accrete entries forever without a bound, so the store
//! garbage-collects on request: [`ArtifactStore::gc`] takes a
//! [`StoreGcConfig`] byte and/or age budget and evicts
//! least-recently-*written* entries first (LRU by mtime) until the
//! store fits. GC is safe against concurrent readers — an entry deleted
//! mid-read degrades to a miss or a checksum rejection, never a wrong
//! hit — and a post-GC run simply recomputes and heals whatever it
//! needs. The `asip-bench` `store` binary (`store gc|stats|verify`)
//! exposes this as a maintenance CLI.
//!
//! # Fallback semantics
//!
//! The store **never fails a session request**. A missing entry is a
//! miss; a truncated, corrupted or version-skewed entry is counted as
//! `corrupt` and treated as a miss; an unwritable directory silently
//! disables write-back. The worst possible outcome of deleting or
//! damaging store files is recomputation — `rm -rf` of the store
//! directory is always safe, including while sessions are running.
//!
//! ```
//! use asip_explorer::artifact::Stage;
//! use asip_explorer::store::{ArtifactStore, StableHasher, StoreGcConfig};
//! use asip_explorer::tier::ArtifactTier;
//! use asip_explorer::synth::Evaluation;
//!
//! let dir = std::env::temp_dir().join(format!("asip-store-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&dir);
//!
//! // derive a stable key from the inputs the value depends on
//! let mut hasher = StableHasher::new();
//! hasher.write_str("sewha");
//! hasher.write_u64(1995);
//! let key = hasher.finish();
//!
//! // write-through, then read back
//! let value = Evaluation {
//!     base_cycles: 200, asip_cycles: 100, speedup: 2.0,
//!     fused_chains: 3, extension_area: 512.0,
//! };
//! assert!(store.save(Stage::Evaluate, key, &value));
//! assert_eq!(store.load::<Evaluation>(Stage::Evaluate, key), Some(value));
//! assert_eq!(store.stats(Stage::Evaluate).hits, 1);
//!
//! // a missing key is a counted miss, not an error
//! assert_eq!(store.load::<Evaluation>(Stage::Evaluate, key ^ 1), None);
//! assert_eq!(store.stats(Stage::Evaluate).misses, 1);
//!
//! // a zero byte budget evicts everything; the next run recomputes
//! let report = store.gc(&StoreGcConfig::default().with_max_bytes(0));
//! assert_eq!(report.evicted_entries, 1);
//! assert_eq!(store.snapshot().total_bytes(), 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::artifact::{ArtifactCodec, Stage, STAGE_COUNT};
use crate::fault::{FaultPlan, FaultSite};
use crate::tier::{ArtifactTier, TierCounters, TierRead, TierStats};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Version of the on-disk artifact format. Bump on **any** change to the
/// codec encodings, the file header, the key derivation, *or the
/// semantics of a pipeline stage* (optimizer heuristics, simulator
/// costs, detector rules, …) — cached artifacts are functions of the
/// stage algorithms, not just their inputs, and a warm store must never
/// replay an old algorithm's output as current. On a bump, old entries
/// fail the header check (and new keys diverge, since the version and
/// the crate version are both hashed into every key), so stale artifacts
/// degrade to recomputes instead of decoding wrongly.
///
/// The manifest is *not* covered by this version: it is an index cache,
/// rebuilt by scan whenever unreadable (it carries its own header line).
///
/// History: v2 — design-stage semantics changed (occurrence-aware
/// coverage reports; selection may improve on the greedy pick via the
/// frontier search) and the design-space stage was added.
/// v3 — key derivation changed: the benchmark's suite tag
/// ([`asip_benchmarks::Suite`]) is folded into every benchmark-keyed
/// hash, so generated-corpus artifacts can never collide with Table-1
/// names.
/// v4 — the header's payload checksum changed from FNV-1a 64 to XXH64
/// (seed 0), which checks replayed bytes at memory speed. Payloads,
/// the codec and key recipes are unchanged; v3 entries miss under the
/// new keys and recompute, and `verify` reports them as stale.
/// v5 — the payload codec became untagged: integers, lengths and
/// variants are LEB128 varints, op codes and op classes are indices
/// into the IR's `all()` tables, and a `Program` is written field by
/// field instead of as textual IR. Payloads shrink about 5×; v4 entries
/// miss under the new keys and recompute, and `verify` reports them as
/// stale.
/// v6 — key derivation changed: benchmark identity hashes the source's
/// XXH64 digest ([`checksum`]) instead of the source bytes, so a key
/// costs a few dozen bytes of FNV-1a instead of the whole source. The
/// entry checksum now also covers the header's version, stage name and
/// payload length, so a damaged header field fails the checksum. Payloads
/// and the codec are unchanged; v5 entries miss under the new keys and
/// recompute, and `verify` reports them as stale.
pub const FORMAT_VERSION: u32 = 6;

/// Magic bytes opening every artifact file.
const MAGIC: [u8; 8] = *b"ASIPART\n";

/// Header line opening every manifest file.
const MANIFEST_HEADER: &str = "asip-manifest v1";

/// Temp files older than this are assumed orphaned by a crashed writer
/// and are swept by [`ArtifactStore::gc`]. Generous: a live writer holds
/// its temp file for the instant between `write` and `rename`, never an
/// hour, so the sweep can never race a healthy put.
const STALE_TMP_MAX_AGE: Duration = Duration::from_secs(3600);

/// A stable (cross-process, cross-platform) FNV-1a 64-bit hasher for
/// deriving store keys.
///
/// `std::hash` is explicitly not guaranteed stable across releases or
/// processes, so store keys are built on this fixed algorithm instead.
/// Variable-length fields are length-prefixed (`write_str`) so adjacent
/// fields can never alias under concatenation.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Feed raw bytes (no length prefix — compose with `write_u64` or
    /// use [`StableHasher::write_str`] for variable-length fields).
    ///
    /// FNV-1a folds each byte into the running state sequentially —
    /// the per-byte loop here is the algorithm itself, not a buffer
    /// copy (the buffer-building paths in [`crate::artifact::Encoder`]
    /// and [`ArtifactStore::save`] all use bulk `extend_from_slice`).
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feed an unsigned integer (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feed a `usize` (widened to 64 bits).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feed a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }

    /// Feed a float by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feed a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

// -- the manifest ------------------------------------------------------

/// One store entry as recorded in the [`Manifest`]: its address, its
/// on-disk file size, and its write time (nanoseconds since the Unix
/// epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The pipeline stage the entry belongs to.
    pub stage: Stage,
    /// The content-hash key (the file name without extension).
    pub key: u64,
    /// Whole-file size in bytes (header + payload).
    pub bytes: u64,
    /// Write time in nanoseconds since the Unix epoch. GC evicts
    /// entries in ascending `mtime_ns` order (LRU by write time).
    pub mtime_ns: u128,
}

impl ManifestEntry {
    fn render(&self) -> String {
        format!(
            "{}\t{:016x}\t{}\t{}\n",
            self.stage.name(),
            self.key,
            self.bytes,
            self.mtime_ns
        )
    }

    fn parse(line: &str) -> Option<ManifestEntry> {
        let mut fields = line.split('\t');
        let stage = Stage::from_name(fields.next()?)?;
        let key = u64::from_str_radix(fields.next()?, 16).ok()?;
        let bytes = fields.next()?.parse().ok()?;
        let mtime_ns = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        Some(ManifestEntry {
            stage,
            key,
            bytes,
            mtime_ns,
        })
    }
}

/// An index of every entry in a store directory: per-stage byte and
/// entry accounting plus an mtime-ordered view for GC.
///
/// A manifest is obtained from [`ArtifactStore::snapshot`] (directory
/// scan reconciled with the persisted index — see the [module
/// docs](self)) and persisted at `<dir>/manifest.tsv` by GC. It is an
/// index *cache*: the entry files are authoritative, and a missing,
/// stale or corrupted manifest file is silently rebuilt by scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Every entry, sorted oldest-write-first (then by stage name and
    /// key, so ordering is total and deterministic under mtime ties).
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Sort entries into the canonical eviction order.
    fn canonicalize(&mut self) {
        self.entries.sort_by(|a, b| {
            (a.mtime_ns, a.stage.name(), a.key).cmp(&(b.mtime_ns, b.stage.name(), b.key))
        });
    }

    /// Total on-disk bytes across every entry.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(entry count, byte total)` for one stage.
    pub fn stage_usage(&self, stage: Stage) -> (u64, u64) {
        self.entries
            .iter()
            .filter(|e| e.stage == stage)
            .fold((0, 0), |(n, b), e| (n + 1, b + e.bytes))
    }

    /// Serialize to the manifest file format.
    fn render(&self) -> String {
        let mut out = String::with_capacity(32 + self.entries.len() * 48);
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        for e in &self.entries {
            out.push_str(&e.render());
        }
        out
    }

    /// Parse a manifest file. Any anomaly — wrong header, malformed
    /// line, trailing fields — rejects the whole manifest (`None`), and
    /// the caller rebuilds by scan.
    fn parse(text: &str) -> Option<Manifest> {
        let mut lines = text.lines();
        if lines.next()? != MANIFEST_HEADER {
            return None;
        }
        let mut entries = Vec::new();
        for line in lines {
            entries.push(ManifestEntry::parse(line)?);
        }
        let mut m = Manifest { entries };
        m.canonicalize();
        Some(m)
    }
}

// -- GC ----------------------------------------------------------------

/// Budgets for [`ArtifactStore::gc`]. Unset fields don't constrain;
/// the default config evicts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreGcConfig {
    /// Keep at most this many on-disk bytes (whole files, headers
    /// included), evicting least-recently-written entries first.
    pub max_bytes: Option<u64>,
    /// Evict every entry written longer than this ago.
    pub max_age: Option<Duration>,
}

impl StoreGcConfig {
    /// Set the byte budget.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Set the age budget.
    pub fn with_max_age(mut self, max_age: Duration) -> Self {
        self.max_age = Some(max_age);
        self
    }
}

/// What one [`ArtifactStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries found by the pre-GC snapshot.
    pub scanned_entries: u64,
    /// Their total on-disk bytes.
    pub scanned_bytes: u64,
    /// Entries evicted (files removed).
    pub evicted_entries: u64,
    /// Bytes those entries occupied.
    pub evicted_bytes: u64,
    /// Entries surviving the pass.
    pub retained_entries: u64,
    /// Bytes they occupy.
    pub retained_bytes: u64,
    /// Evicted-entry counts per stage, indexed by `Stage as usize`.
    pub evicted_per_stage: [u64; STAGE_COUNT],
    /// Orphaned temp files (crashed writers) swept by this pass.
    pub swept_tmp_files: u64,
}

/// What an [`ArtifactStore::verify`] walk found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries whose header, checksum and typed payload all validated.
    pub ok: u64,
    /// Entries rejected at any validation step, stale ones aside.
    pub corrupt: u64,
    /// Intact entries from an older format: the version field is in
    /// `1..FORMAT_VERSION` and the entry frames under that version's
    /// checksum rule, whether or not its payload decodes today. A
    /// version bump leaves these behind under keys no current recipe
    /// derives; they are dead weight for `gc`, not damage. (A current
    /// entry whose version field took a bit flip fails the checksum,
    /// which covers the version, so it counts as `corrupt`, whichever
    /// older version the flip lands on.)
    pub stale: u64,
    /// Bytes across every inspected entry.
    pub bytes: u64,
    /// Per-stage ok counts, indexed by `Stage as usize`.
    pub ok_per_stage: [u64; STAGE_COUNT],
    /// Per-stage corrupt counts, indexed by `Stage as usize`.
    pub corrupt_per_stage: [u64; STAGE_COUNT],
}

/// Session-local knowledge of one on-disk entry (size and precise write
/// time), backing the cheap per-stage occupancy stats.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    bytes: u64,
    mtime_ns: u128,
}

/// A persistent, content-addressed artifact store rooted at one
/// directory. See the [module docs](self) for layout, GC and fallback
/// semantics, and [`Explorer::with_store`](crate::Explorer::with_store)
/// for the session integration. In the [tier stack](crate::tier) it is
/// the canonical persistent [`ArtifactTier`] (`name() == "disk"`).
///
/// Multiple stores (in one process or many) may share a directory:
/// writes are atomic (temp file + rename), and since keys are content
/// hashes, concurrent writers of the same key write identical bytes.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    counters: TierCounters,
    gc_evicted: AtomicU64,
    /// Lazy session-local index of the directory (sizes + precise write
    /// times), populated by the first occupancy query and kept in sync
    /// by this session's saves and GC passes. Other processes' writes
    /// only appear after the next [`ArtifactStore::snapshot`].
    index: Mutex<Option<HashMap<(Stage, u64), EntryMeta>>>,
    /// Fast-path guard for the fault-injection seam: checked with one
    /// relaxed load before touching the plan mutex, so an unarmed store
    /// pays a single predictable branch per operation.
    faults_armed: AtomicBool,
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl ArtifactStore {
    /// A store rooted at `dir`. No I/O happens here: the directory is
    /// created lazily on first write, and a missing directory simply
    /// means every load misses.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            dir: dir.into(),
            counters: TierCounters::default(),
            gc_evicted: AtomicU64::new(0),
            index: Mutex::new(None),
            faults_armed: AtomicBool::new(false),
            faults: Mutex::new(None),
        }
    }

    /// Arm a [`FaultPlan`]: subsequent reads, writes and manifest
    /// flushes consult the plan and may fail deliberately (see
    /// [`crate::fault`]). Chaos-testing seam — never armed in
    /// production.
    pub fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *crate::tier::lock(&self.faults) = Some(plan);
        self.faults_armed.store(true, Ordering::Release);
    }

    /// Remove any armed [`FaultPlan`]; the store returns to normal
    /// operation.
    pub fn disarm_faults(&self) {
        self.faults_armed.store(false, Ordering::Release);
        *crate::tier::lock(&self.faults) = None;
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        crate::tier::lock(&self.faults).clone()
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest index file (`<dir>/manifest.tsv`).
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.tsv")
    }

    /// The file an artifact lives in: `<dir>/<stage>/<key as 16 hex
    /// digits>.art`. Exposed for inspection and tests; entries may be
    /// deleted (or the whole directory removed) at any time.
    pub fn entry_path(&self, stage: Stage, key: u64) -> PathBuf {
        self.dir.join(stage.name()).join(format!("{key:016x}.art"))
    }

    /// Read and decode the artifact stored under `(stage, key)`.
    ///
    /// Returns `None` — counting a miss — when no entry file exists, and
    /// `None` — counting `corrupt` — when a file exists but fails any
    /// validation step (magic, version, stage, length, checksum, codec
    /// decode). Never errors and never panics on hostile bytes.
    pub fn load<V: ArtifactCodec>(&self, stage: Stage, key: u64) -> Option<V> {
        match self.get(stage, key) {
            TierRead::Hit(payload) => match V::from_bytes(&payload) {
                Ok(v) => Some(v),
                Err(_) => {
                    self.mark_corrupt(stage, key);
                    None
                }
            },
            TierRead::Miss | TierRead::Corrupt => None,
        }
    }

    /// Encode `value` and write it under `(stage, key)`, atomically
    /// (temp file + rename, so readers never observe a partial entry).
    ///
    /// Returns whether the write landed; failures (unwritable directory,
    /// disk full) are swallowed — persistence is an optimization, never
    /// a correctness requirement.
    pub fn save<V: ArtifactCodec>(&self, stage: Stage, key: u64, value: &V) -> bool {
        self.put(stage, key, &value.to_bytes())
    }

    /// Entries this session's GC passes evicted, over every stage
    /// (the per-stage split of one pass is in its [`GcReport`]).
    pub fn gc_evictions(&self) -> u64 {
        self.gc_evicted.load(Ordering::Relaxed)
    }

    // -- manifest, GC, verify ------------------------------------------

    /// Index the store: scan the stage directories (the authority on
    /// which entries exist and how big they are), then reconcile write
    /// times against the persisted manifest and this session's own
    /// writes, which both record sub-filesystem-granularity timestamps.
    /// A missing or corrupted manifest file degrades to the pure scan.
    pub fn snapshot(&self) -> Manifest {
        let mut scan = self.scan();
        let persisted: HashMap<(Stage, u64), ManifestEntry> =
            fs::read_to_string(self.manifest_path())
                .ok()
                .and_then(|text| Manifest::parse(&text))
                .map(|m| {
                    m.entries
                        .into_iter()
                        .map(|e| ((e.stage, e.key), e))
                        .collect()
                })
                .unwrap_or_default();
        {
            let index = crate::tier::lock(&self.index);
            for e in &mut scan.entries {
                // Prefer this session's own record, then the manifest —
                // but only while the file size still matches (a size
                // change means another process rewrote the entry).
                if let Some(meta) = index
                    .as_ref()
                    .and_then(|ix| ix.get(&(e.stage, e.key)))
                    .filter(|m| m.bytes == e.bytes)
                {
                    e.mtime_ns = meta.mtime_ns;
                } else if let Some(p) = persisted
                    .get(&(e.stage, e.key))
                    .filter(|p| p.bytes == e.bytes)
                {
                    e.mtime_ns = p.mtime_ns;
                }
            }
        }
        scan.canonicalize();
        scan
    }

    /// Rebuild the index purely from the directory (file sizes and
    /// filesystem mtimes). Unknown files are ignored.
    fn scan(&self) -> Manifest {
        let mut entries = Vec::new();
        for stage in Stage::all() {
            let Ok(dir) = fs::read_dir(self.dir.join(stage.name())) else {
                continue;
            };
            for file in dir.flatten() {
                let path = file.path();
                if path.extension().is_none_or(|e| e != "art") {
                    continue;
                }
                let Some(key) = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                else {
                    continue;
                };
                let Ok(meta) = file.metadata() else {
                    continue;
                };
                entries.push(ManifestEntry {
                    stage,
                    key,
                    bytes: meta.len(),
                    mtime_ns: meta
                        .modified()
                        .ok()
                        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                        .map(|d| d.as_nanos())
                        .unwrap_or(0),
                });
            }
        }
        let mut m = Manifest { entries };
        m.canonicalize();
        m
    }

    /// Persist a manifest atomically (temp file + rename). Failures are
    /// swallowed: the manifest is an index cache, and the next reader
    /// rebuilds by scan.
    fn write_manifest(&self, manifest: &Manifest) -> bool {
        let path = self.manifest_path();
        if fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        if let Some(plan) = self.fault_plan() {
            // An injected manifest corruption writes a torn + scribbled
            // rendering; the next reader must reject it wholesale and
            // rebuild by scan.
            if plan.roll(FaultSite::ManifestCorrupt) {
                let mut text = manifest.render().into_bytes();
                let cut = plan.draw(FaultSite::ManifestCorrupt, text.len() as u64 + 1) as usize;
                text.truncate(cut);
                text.extend_from_slice(b"\xff\xfegarbage\tnot a manifest line");
                let tmp = unique_tmp(&path);
                if fs::write(&tmp, &text).is_err() || fs::rename(&tmp, &path).is_err() {
                    fs::remove_file(&tmp).ok();
                }
                return false;
            }
        }
        let tmp = unique_tmp(&path);
        if fs::write(&tmp, manifest.render()).is_err() {
            fs::remove_file(&tmp).ok();
            return false;
        }
        if fs::rename(&tmp, &path).is_err() {
            fs::remove_file(&tmp).ok();
            return false;
        }
        true
    }

    /// Garbage-collect the store against `config`: evict every entry
    /// older than `max_age`, then least-recently-written entries until
    /// at most `max_bytes` remain, and atomically rewrite the manifest
    /// to the retained set.
    ///
    /// GC never blocks or corrupts concurrent readers — a removed entry
    /// degrades to a miss (or a checksum rejection) and is recomputed —
    /// and like every store operation it cannot fail: undeletable files
    /// are simply retained.
    pub fn gc(&self, config: &StoreGcConfig) -> GcReport {
        let manifest = self.snapshot();
        let mut report = GcReport {
            scanned_entries: manifest.len() as u64,
            scanned_bytes: manifest.total_bytes(),
            ..GcReport::default()
        };
        let now_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let cutoff_ns = config
            .max_age
            .map(|age| now_ns.saturating_sub(age.as_nanos()));

        let mut remaining_bytes = report.scanned_bytes;
        let mut retained = Vec::with_capacity(manifest.len());
        // entries are canonically sorted oldest-first: walk them in
        // order, evicting while a budget is still exceeded — the oldest
        // entries go first, and eviction stops the moment the remainder
        // fits
        for e in &manifest.entries {
            let too_old = cutoff_ns.is_some_and(|cut| e.mtime_ns < cut);
            let over_budget = config.max_bytes.is_some_and(|max| remaining_bytes > max);
            if (too_old || over_budget) && self.evict_entry(e) {
                remaining_bytes -= e.bytes;
                report.evicted_entries += 1;
                report.evicted_bytes += e.bytes;
                report.evicted_per_stage[e.stage as usize] += 1;
                self.gc_evicted.fetch_add(1, Ordering::Relaxed);
            } else {
                retained.push(*e);
            }
        }
        let mut retained = Manifest { entries: retained };
        retained.canonicalize();
        report.retained_entries = retained.len() as u64;
        report.retained_bytes = retained.total_bytes();
        report.swept_tmp_files = self.sweep_stale_tmp_files(now_ns);
        self.write_manifest(&retained);
        // Reconcile the session-local index by *removing* the evicted
        // keys rather than replacing it wholesale — a save landing on
        // another thread between our snapshot and here must keep its
        // (newer) record.
        {
            let mut index = crate::tier::lock(&self.index);
            if let Some(ix) = index.as_mut() {
                ix.retain(|&(stage, key), _| self.entry_path(stage, key).is_file());
                for e in &retained.entries {
                    ix.entry((e.stage, e.key)).or_insert(EntryMeta {
                        bytes: e.bytes,
                        mtime_ns: e.mtime_ns,
                    });
                }
            }
        }
        report
    }

    /// Remove temp files orphaned by crashed writers. Live writers hold
    /// their temp file only for the instant between write and rename, so
    /// anything older than [`STALE_TMP_MAX_AGE`] is a leftover from a
    /// process that died mid-put; without this sweep a crash-looping
    /// writer leaks unreferenced files forever (they are invisible to
    /// [`ArtifactStore::snapshot`], which only indexes `.art` files).
    fn sweep_stale_tmp_files(&self, now_ns: u128) -> u64 {
        let mut swept = 0;
        let mut dirs: Vec<PathBuf> = Stage::all()
            .into_iter()
            .map(|s| self.dir.join(s.name()))
            .collect();
        dirs.push(self.dir.clone());
        for dir in dirs {
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for file in entries.flatten() {
                let path = file.path();
                let is_tmp = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.contains(".tmp."));
                if !is_tmp {
                    continue;
                }
                let age_ns = file
                    .metadata()
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                    .map(|d| now_ns.saturating_sub(d.as_nanos()))
                    .unwrap_or(0);
                if age_ns > STALE_TMP_MAX_AGE.as_nanos() && fs::remove_file(&path).is_ok() {
                    swept += 1;
                }
            }
        }
        swept
    }

    fn evict_entry(&self, e: &ManifestEntry) -> bool {
        match fs::remove_file(self.entry_path(e.stage, e.key)) {
            Ok(()) => true,
            // Already gone (another GC raced us): the bytes are freed
            // either way, so treat it as evicted.
            Err(err) => err.kind() == std::io::ErrorKind::NotFound,
        }
    }

    /// Walk every entry and validate it end to end: header, checksum,
    /// and a full typed decode of the payload against its stage's
    /// artifact type. Entries written under an older
    /// [`FORMAT_VERSION`] are reported as [`VerifyReport::stale`], not
    /// as corrupt. Counters are untouched — this is a maintenance
    /// walk, not the request path — and nothing is deleted; pair with
    /// [`ArtifactStore::gc`] or plain `rm` to act on the report.
    ///
    /// An entry that disappears between the snapshot and its read was
    /// deleted by a concurrent session (GC, healing) — that is normal
    /// operation, not corruption, and is skipped entirely.
    pub fn verify(&self) -> VerifyReport {
        let manifest = self.snapshot();
        let mut report = VerifyReport::default();
        for e in &manifest.entries {
            let bytes = match fs::read(self.entry_path(e.stage, e.key)) {
                Ok(bytes) => bytes,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => continue,
                Err(_) => {
                    report.corrupt += 1;
                    report.corrupt_per_stage[e.stage as usize] += 1;
                    report.bytes += e.bytes;
                    continue;
                }
            };
            report.bytes += bytes.len() as u64;
            let valid = validate_entry(&bytes, e.stage)
                .is_some_and(|payload| decode_stage_payload(e.stage, payload));
            if valid {
                report.ok += 1;
                report.ok_per_stage[e.stage as usize] += 1;
            } else if is_stale_entry(&bytes, e.stage) {
                report.stale += 1;
            } else {
                report.corrupt += 1;
                report.corrupt_per_stage[e.stage as usize] += 1;
            }
        }
        report
    }

    fn index_insert(&self, stage: Stage, key: u64, bytes: u64) {
        let mut index = crate::tier::lock(&self.index);
        if let Some(ix) = index.as_mut() {
            let mtime_ns = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            ix.insert((stage, key), EntryMeta { bytes, mtime_ns });
        }
    }

    fn index_remove(&self, stage: Stage, key: u64) {
        let mut index = crate::tier::lock(&self.index);
        if let Some(ix) = index.as_mut() {
            ix.remove(&(stage, key));
        }
    }

    /// Per-stage `(entries, bytes)` from the session-local index,
    /// populating it by snapshot on first use. The snapshot happens
    /// outside the index lock (snapshot itself consults the index for
    /// mtime overlay), so a racing initializer just discards its scan.
    fn stage_usage(&self, stage: Stage) -> (u64, u64) {
        if crate::tier::lock(&self.index).is_none() {
            let snapshot = self.snapshot();
            let fresh: HashMap<(Stage, u64), EntryMeta> = snapshot
                .entries
                .iter()
                .map(|e| {
                    (
                        (e.stage, e.key),
                        EntryMeta {
                            bytes: e.bytes,
                            mtime_ns: e.mtime_ns,
                        },
                    )
                })
                .collect();
            crate::tier::lock(&self.index).get_or_insert(fresh);
        }
        crate::tier::lock(&self.index)
            .as_ref()
            .map(|ix| {
                ix.iter()
                    .filter(|((s, _), _)| *s == stage)
                    .fold((0, 0), |(n, b), (_, m)| (n + 1, b + m.bytes))
            })
            .unwrap_or((0, 0))
    }
}

impl ArtifactTier for ArtifactStore {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        if let Some(plan) = self.fault_plan() {
            // An injected read I/O error degrades exactly like a real
            // one below: a counted miss.
            if plan.roll(FaultSite::DiskRead) {
                self.counters.count_miss(stage);
                return TierRead::Miss;
            }
        }
        let bytes = match fs::read(self.entry_path(stage, key)) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.counters.count_miss(stage);
                return TierRead::Miss;
            }
        };
        match validate_entry(&bytes, stage) {
            Some(payload) => {
                self.counters.count_hit(stage);
                TierRead::Hit(payload.to_vec())
            }
            None => {
                self.counters.count_corrupt(stage);
                TierRead::Corrupt
            }
        }
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        let path = self.entry_path(stage, key);
        let Some(parent) = path.parent() else {
            return false;
        };
        if fs::create_dir_all(parent).is_err() {
            return false;
        }
        let bytes = frame_entry(FORMAT_VERSION, stage, payload);

        if let Some(plan) = self.fault_plan() {
            // An injected write error fails before any byte lands.
            if plan.roll(FaultSite::DiskWrite) {
                return false;
            }
            // A torn write lands a truncated prefix of the entry at the
            // final path — the on-disk state a crash mid-write leaves
            // behind. Readers must reject it (checksum/length) and heal.
            if plan.roll(FaultSite::TornWrite) {
                let cut = plan.draw(FaultSite::TornWrite, bytes.len() as u64) as usize;
                let tmp = unique_tmp(&path);
                if fs::write(&tmp, &bytes[..cut]).is_err() || fs::rename(&tmp, &path).is_err() {
                    fs::remove_file(&tmp).ok();
                }
                return false;
            }
        }

        let tmp = unique_tmp(&path);
        if fs::write(&tmp, &bytes).is_err() {
            fs::remove_file(&tmp).ok();
            return false;
        }
        if fs::rename(&tmp, &path).is_err() {
            fs::remove_file(&tmp).ok();
            return false;
        }
        self.counters.count_write(stage);
        self.index_insert(stage, key, bytes.len() as u64);
        true
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        self.entry_path(stage, key).is_file()
    }

    fn stats(&self, stage: Stage) -> TierStats {
        let (entries, bytes) = self.stage_usage(stage);
        TierStats {
            entries,
            bytes,
            ..self.counters.snapshot(stage)
        }
    }

    fn persistent(&self) -> bool {
        true
    }

    fn mark_corrupt(&self, stage: Stage, key: u64) {
        self.counters.demote_hit(stage);
        fs::remove_file(self.entry_path(stage, key)).ok();
        self.index_remove(stage, key);
    }

    fn reset_counters(&self) {
        self.counters.reset();
        self.gc_evicted.store(0, Ordering::Relaxed);
    }
}

/// A process-unique temp path next to `path`. The pid alone is not
/// enough, because two sessions (or threads) in one process may race on
/// the same key — a shared tmp path would let one writer rename the
/// other's half-written file into place.
fn unique_tmp(path: &Path) -> PathBuf {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// XXH64 (seed 0): the integrity checksum of every store entry and
/// every wire frame, and the digest a benchmark's source enters its
/// store keys as.
///
/// Deliberately a different algorithm from [`StableHasher`]: keys want
/// a fixed, field-by-field digest, while the checksum runs over every
/// replayed byte at every hop and must keep up with memory. XXH64 folds
/// 32-byte stripes through four independent multiply lanes instead of
/// FNV-1a's one serial multiply per byte. All reads are little-endian,
/// so a checksum written on one host validates on any other.
///
/// ```
/// use asip_explorer::store::checksum;
///
/// assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
/// ```
pub fn checksum(payload: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(h: u64, acc: u64) -> u64 {
        (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
    }
    let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));

    let mut stripes = payload.chunks_exact(32);
    let mut h = if payload.len() >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, u64_at(word));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(payload.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, u64_at(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &byte in tail {
        h = (h ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A complete entry file: the header (magic, `version`, stage name,
/// payload length, checksum) followed by the payload, checksummed by
/// `version`'s rule ([`entry_checksum`]).
fn frame_entry(version: u32, stage: Stage, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 64);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&version.to_le_bytes());
    let stage_name = stage.name().as_bytes();
    bytes.push(stage_name.len() as u8);
    bytes.extend_from_slice(stage_name);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = entry_checksum(version, &bytes[MAGIC.len()..], payload)
        .expect("entries are framed under a known version");
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The checksum an entry of `version` carries, given its header fields
/// between the magic and the checksum (version, stage-name length and
/// name, payload length) and its payload. From v6 it covers both: XXH64
/// over the fields followed by the payload's XXH64. v4 and v5 summed
/// the payload alone with XXH64, and v1–v3 with FNV-1a 64. `None` for a
/// version no build has written.
fn entry_checksum(version: u32, fields: &[u8], payload: &[u8]) -> Option<u64> {
    match version {
        1..=3 => {
            let mut fnv = StableHasher::new();
            fnv.write(payload);
            Some(fnv.finish())
        }
        4 | 5 => Some(checksum(payload)),
        FORMAT_VERSION => {
            // the fields take at most 4 + 1 + 255 + 8 bytes (the name
            // length is one byte), so they and the payload's sum fit
            // on the stack
            let mut covered = [0u8; 276];
            let (head, sum) = covered.split_at_mut(fields.len());
            head.copy_from_slice(fields);
            sum[..8].copy_from_slice(&checksum(payload).to_le_bytes());
            Some(checksum(&covered[..fields.len() + 8]))
        }
        _ => None,
    }
}

/// Validate a complete entry file's framing — magic, version, stage
/// name, payload length, checksum — and return the payload slice. Any
/// failure returns `None`; the caller counts it as `corrupt`. Typed
/// payload decoding is the next layer up (the tier stack or
/// [`ArtifactStore::load`]).
fn validate_entry(bytes: &[u8], stage: Stage) -> Option<&[u8]> {
    match parse_entry(bytes, stage)? {
        (FORMAT_VERSION, payload) => Some(payload),
        _ => None,
    }
}

/// [`validate_entry`] without the version check: the version field and
/// the payload, checksum-validated under that version's rule.
fn parse_entry(bytes: &[u8], stage: Stage) -> Option<(u32, &[u8])> {
    let header = bytes.strip_prefix(&MAGIC)?;
    let (version, rest) = split_u32(header)?;
    let (&name_len, rest) = rest.split_first()?;
    let name_len = usize::from(name_len);
    if rest.len() < name_len {
        return None;
    }
    let (name, rest) = rest.split_at(name_len);
    if name != stage.name().as_bytes() {
        return None;
    }
    let (payload_len, rest) = split_u64(rest)?;
    let fields = &header[..header.len() - rest.len()];
    let (expected_sum, payload) = split_u64(rest)?;
    if payload.len() as u64 != payload_len
        || entry_checksum(version, fields, payload) != Some(expected_sum)
    {
        return None;
    }
    Some((version, payload))
}

/// Whether a file that failed [`validate_entry`] is an entry from an
/// older format version rather than a damaged one: it frames under its
/// own older version's checksum rule, whether or not its payload would
/// decode today. A current entry whose version field took a bit flip
/// fails that rule (its checksum covers the version), so it stays
/// corrupt.
fn is_stale_entry(bytes: &[u8], stage: Stage) -> bool {
    parse_entry(bytes, stage).is_some_and(|(version, _)| version < FORMAT_VERSION)
}

/// Typed-decode one validated payload against the artifact type of
/// `stage` (decoded and dropped immediately — verification never holds
/// more than one payload's decode in memory).
fn decode_stage_payload(stage: Stage, payload: &[u8]) -> bool {
    match stage {
        Stage::Compile => asip_ir::Program::from_bytes(payload).is_ok(),
        Stage::Profile => asip_sim::Profile::from_bytes(payload).is_ok(),
        Stage::Schedule => asip_opt::ScheduleGraph::from_bytes(payload).is_ok(),
        Stage::Analyze => asip_chains::SequenceReport::from_bytes(payload).is_ok(),
        Stage::Design | Stage::DesignSuite => asip_synth::AsipDesign::from_bytes(payload).is_ok(),
        Stage::Evaluate => asip_synth::Evaluation::from_bytes(payload).is_ok(),
        Stage::EvaluateSuite => {
            Vec::<(String, asip_synth::Evaluation)>::from_bytes(payload).is_ok()
        }
        Stage::DesignSpace => asip_synth::DesignSpace::from_bytes(payload).is_ok(),
    }
}

fn split_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

fn split_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*head), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("asip-store-unit-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        ArtifactStore::open(dir)
    }

    #[test]
    fn checksum_matches_published_xxh64_vectors() {
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one stripe, then a word, the 4-byte and 1-byte tails
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn checksum_sees_every_bit_at_every_length() {
        let base: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=base.len() {
            let mut bytes = base[..len].to_vec();
            let sum = checksum(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bytes), sum, "len {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn stable_hasher_is_deterministic_and_length_prefixed() {
        let digest = |f: &dyn Fn(&mut StableHasher)| {
            let mut h = StableHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(
            digest(&|h| h.write_str("abc")),
            digest(&|h| h.write_str("abc"))
        );
        // "ab" + "c" must not alias "a" + "bc"
        assert_ne!(
            digest(&|h| {
                h.write_str("ab");
                h.write_str("c");
            }),
            digest(&|h| {
                h.write_str("a");
                h.write_str("bc");
            })
        );
        // the canonical FNV-1a 64 test vector
        let mut h = StableHasher::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn save_load_round_trip_with_counters() {
        let store = temp_store("roundtrip");
        assert_eq!(store.load::<u64>(Stage::Compile, 1), None);
        assert_eq!(store.stats(Stage::Compile).misses, 1);

        assert!(store.save(Stage::Compile, 1, &42u64));
        assert_eq!(store.load::<u64>(Stage::Compile, 1), Some(42));
        let stats = store.stats(Stage::Compile);
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        // other stages are unaffected; totals sum
        assert_eq!(store.stats(Stage::Profile), TierStats::default());
        assert_eq!(store.totals().hits, 1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn keys_and_stages_address_distinct_entries() {
        let store = temp_store("address");
        store.save(Stage::Compile, 7, &1u64);
        store.save(Stage::Compile, 8, &2u64);
        store.save(Stage::Profile, 7, &3u64);
        assert_eq!(store.load::<u64>(Stage::Compile, 7), Some(1));
        assert_eq!(store.load::<u64>(Stage::Compile, 8), Some(2));
        assert_eq!(store.load::<u64>(Stage::Profile, 7), Some(3));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupted_entries_count_corrupt_and_miss_to_none() {
        let store = temp_store("corrupt");
        store.save(Stage::Analyze, 5, &String::from("report"));
        let path = store.entry_path(Stage::Analyze, 5);

        // flip a payload byte: checksum rejects
        let mut bytes = fs::read(&path).expect("entry exists");
        *bytes.last_mut().expect("nonempty") ^= 0xFF;
        fs::write(&path, &bytes).expect("writable");
        assert_eq!(store.load::<String>(Stage::Analyze, 5), None);
        assert_eq!(store.stats(Stage::Analyze).corrupt, 1);

        // truncate mid-header
        fs::write(&path, &bytes[..10]).expect("writable");
        assert_eq!(store.load::<String>(Stage::Analyze, 5), None);

        // version skew (bytes 8..12) rejects even with a valid payload
        store.save(Stage::Analyze, 5, &String::from("report"));
        let mut bytes = fs::read(&path).expect("entry exists");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).expect("writable");
        assert_eq!(store.load::<String>(Stage::Analyze, 5), None);
        assert_eq!(store.stats(Stage::Analyze).corrupt, 3);

        // a wrong-stage read of a valid entry is also rejected
        store.save(Stage::Analyze, 5, &String::from("report"));
        let copy = store.entry_path(Stage::Design, 5);
        fs::create_dir_all(copy.parent().expect("has parent")).expect("mkdir");
        fs::copy(&path, &copy).expect("copies");
        assert_eq!(store.load::<String>(Stage::Design, 5), None);
        assert_eq!(store.stats(Stage::Design).corrupt, 1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn typed_decode_failure_demotes_the_hit_and_heals() {
        let store = temp_store("demote");
        store.save(Stage::Compile, 9, &String::from("not a u64"));
        // framing is valid, the typed decode is not
        assert_eq!(store.load::<u64>(Stage::Compile, 9), None);
        let stats = store.stats(Stage::Compile);
        assert_eq!((stats.hits, stats.corrupt), (0, 1), "hit was demoted");
        assert!(
            !store.contains(Stage::Compile, 9),
            "undecodable entry removed so the rewrite is not shadowed"
        );
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn unwritable_directory_degrades_to_no_store() {
        // a path under a *file* can never be created
        let blocker =
            std::env::temp_dir().join(format!("asip-store-blocker-{}", std::process::id()));
        fs::write(&blocker, b"file, not dir").expect("temp writable");
        let store = ArtifactStore::open(blocker.join("store"));
        assert!(!store.save(Stage::Compile, 1, &1u64));
        assert_eq!(store.totals().writes, 0);
        assert_eq!(store.load::<u64>(Stage::Compile, 1), None);
        // maintenance ops are equally unbothered
        assert_eq!(store.snapshot(), Manifest::default());
        assert_eq!(store.gc(&StoreGcConfig::default()).scanned_entries, 0);
        fs::remove_file(&blocker).ok();
    }

    #[test]
    fn reset_counters_keeps_entries() {
        let store = temp_store("reset");
        store.save(Stage::Compile, 3, &9u64);
        store.load::<u64>(Stage::Compile, 3);
        // an undecodable entry counts one corrupt read and is removed
        store.save(Stage::Compile, 4, &String::from("not a u64"));
        assert_eq!(store.load::<u64>(Stage::Compile, 4), None);
        assert_eq!(store.totals().corrupt, 1);
        store.reset_counters();
        let totals = store.totals();
        assert_eq!(
            (totals.hits, totals.misses, totals.writes, totals.corrupt),
            (0, 0, 0, 0)
        );
        assert_eq!(totals.entries, 1, "occupancy is not a counter");
        assert_eq!(store.load::<u64>(Stage::Compile, 3), Some(9));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let m = Manifest {
            entries: vec![
                ManifestEntry {
                    stage: Stage::Profile,
                    key: 0xdead_beef,
                    bytes: 128,
                    mtime_ns: 1_000,
                },
                ManifestEntry {
                    stage: Stage::Compile,
                    key: 1,
                    bytes: 64,
                    mtime_ns: 500,
                },
            ],
        };
        let parsed = Manifest::parse(&m.render()).expect("round-trips");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed.entries[0].stage,
            Stage::Compile,
            "parse canonicalizes oldest-first"
        );
        assert_eq!(parsed.total_bytes(), 192);
        assert_eq!(parsed.stage_usage(Stage::Profile), (1, 128));

        assert!(Manifest::parse("wrong header\n").is_none());
        assert!(
            Manifest::parse("asip-manifest v1\ncompile\tzz\t1\t2\n").is_none(),
            "malformed key rejects the manifest"
        );
        assert!(
            Manifest::parse("asip-manifest v1\nnot-a-stage\t0\t1\t2\n").is_none(),
            "unknown stage rejects the manifest"
        );
    }

    #[test]
    fn snapshot_scans_and_gc_respects_byte_budget_oldest_first() {
        let store = temp_store("gc-bytes");
        store.save(Stage::Compile, 1, &1u64);
        std::thread::sleep(std::time::Duration::from_millis(30));
        store.save(Stage::Profile, 2, &2u64);
        std::thread::sleep(std::time::Duration::from_millis(30));
        store.save(Stage::Schedule, 3, &3u64);

        let m = store.snapshot();
        assert_eq!(m.len(), 3);
        assert_eq!(m.entries[0].key, 1, "snapshot is mtime-ordered");
        // budget for exactly the newest entry: the two oldest go
        let entry_bytes = m.entries[2].bytes;
        assert!(entry_bytes > 0);
        let report = store.gc(&StoreGcConfig::default().with_max_bytes(entry_bytes));
        assert_eq!(report.scanned_entries, 3);
        assert_eq!(report.evicted_entries, 2);
        assert_eq!(report.retained_entries, 1);
        assert!(report.retained_bytes <= entry_bytes);
        assert_eq!(report.evicted_per_stage[Stage::Compile as usize], 1);
        assert_eq!(report.evicted_per_stage[Stage::Profile as usize], 1);
        assert!(!store.contains(Stage::Compile, 1));
        assert!(!store.contains(Stage::Profile, 2));
        assert!(store.contains(Stage::Schedule, 3), "newest survives");
        assert_eq!(store.gc_evictions(), 2);

        // the manifest was rewritten to the retained set
        let m = store.snapshot();
        assert_eq!(m.len(), 1);
        assert_eq!(m.entries[0].key, 3);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_age_budget_and_unbounded_config_are_honored() {
        let store = temp_store("gc-age");
        store.save(Stage::Compile, 1, &1u64);
        let unbounded = store.gc(&StoreGcConfig::default());
        assert_eq!(unbounded.evicted_entries, 0, "no budgets, no evictions");

        // everything is older than a zero age budget
        std::thread::sleep(std::time::Duration::from_millis(5));
        let report = store.gc(&StoreGcConfig::default().with_max_age(Duration::ZERO));
        assert_eq!(report.evicted_entries, 1);
        assert_eq!(store.snapshot().len(), 0);

        // a generous age budget keeps fresh entries
        store.save(Stage::Compile, 2, &2u64);
        let report = store.gc(&StoreGcConfig::default().with_max_age(Duration::from_secs(3600)));
        assert_eq!(report.evicted_entries, 0);
        assert_eq!(report.retained_entries, 1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn manifest_loss_or_damage_rebuilds_by_scan() {
        let store = temp_store("manifest-loss");
        store.save(Stage::Compile, 1, &1u64);
        store.save(Stage::Profile, 2, &2u64);
        store.gc(&StoreGcConfig::default()); // writes the manifest
        assert!(store.manifest_path().is_file());

        // delete the manifest: snapshot still sees both entries
        fs::remove_file(store.manifest_path()).expect("removable");
        assert_eq!(store.snapshot().len(), 2);

        // corrupt the manifest: ignored, rebuilt by scan
        fs::write(store.manifest_path(), b"garbage\nmore garbage").expect("writable");
        assert_eq!(store.snapshot().len(), 2);
        let report = store.gc(&StoreGcConfig::default().with_max_bytes(0));
        assert_eq!(report.evicted_entries, 2);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn verify_reports_valid_and_corrupt_entries() {
        let store = temp_store("verify");
        let reg = asip_benchmarks::registry();
        let program = reg
            .find("fir")
            .expect("built-in")
            .compile()
            .expect("compiles");
        store.save(Stage::Compile, 1, &program);
        store.save(
            Stage::Evaluate,
            2,
            &asip_synth::Evaluation {
                base_cycles: 2,
                asip_cycles: 1,
                speedup: 2.0,
                fused_chains: 0,
                extension_area: 0.0,
            },
        );
        let clean = store.verify();
        assert_eq!((clean.ok, clean.corrupt), (2, 0));
        assert_eq!(clean.ok_per_stage[Stage::Compile as usize], 1);
        assert!(clean.bytes > 0);

        // payload damage and type confusion are both caught
        let path = store.entry_path(Stage::Compile, 1);
        let mut bytes = fs::read(&path).expect("readable");
        *bytes.last_mut().expect("nonempty") ^= 0xFF;
        fs::write(&path, &bytes).expect("writable");
        // a structurally valid file holding the wrong payload type
        store.save(Stage::Profile, 3, &String::from("not a profile"));
        let dirty = store.verify();
        assert_eq!((dirty.ok, dirty.corrupt), (1, 2));
        assert_eq!(dirty.corrupt_per_stage[Stage::Profile as usize], 1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn older_entries_are_stale_and_version_bit_flips_are_corrupt() {
        let store = temp_store("stale-rule");
        let evaluation = asip_synth::Evaluation {
            base_cycles: 200,
            asip_cycles: 100,
            speedup: 2.0,
            fused_chains: 3,
            extension_area: 512.0,
        };
        // the same evaluation as format v4 wrote it: the same header
        // and checksum, over the tagged fixed-width payload encoding
        let mut v4_payload = Vec::new();
        for (tag, bits) in [
            (0x01u8, 200u64),
            (0x01, 100),
            (0x03, 2.0f64.to_bits()),
            (0x01, 3),
            (0x03, 512.0f64.to_bits()),
        ] {
            v4_payload.push(tag);
            v4_payload.extend_from_slice(&bits.to_le_bytes());
        }
        store.save(Stage::Evaluate, 1, &evaluation);
        fs::write(
            store.entry_path(Stage::Evaluate, 1),
            frame_entry(4, Stage::Evaluate, &v4_payload),
        )
        .expect("writable");
        let report = store.verify();
        assert_eq!((report.ok, report.stale, report.corrupt), (0, 1, 0));

        // a current entry stays corrupt under every single-bit flip of
        // its version field, including flips onto an older version
        store.save(Stage::Evaluate, 1, &evaluation);
        let path = store.entry_path(Stage::Evaluate, 1);
        let current = fs::read(&path).expect("readable");
        for bit in 0..32 {
            let mut bytes = current.clone();
            bytes[8 + bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).expect("writable");
            let report = store.verify();
            assert_eq!(
                (report.ok, report.stale, report.corrupt),
                (0, 0, 1),
                "version bit {bit}"
            );
        }
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn a_previous_version_entry_with_a_current_payload_is_stale() {
        // v5 and v6 share the codec, so a genuine v5 entry's payload
        // decodes today: only its framing tells it apart
        let store = temp_store("stale-same-codec");
        let evaluation = asip_synth::Evaluation {
            base_cycles: 200,
            asip_cycles: 100,
            speedup: 2.0,
            fused_chains: 3,
            extension_area: 512.0,
        };
        store.save(Stage::Evaluate, 1, &evaluation);
        let path = store.entry_path(Stage::Evaluate, 1);
        let current = fs::read(&path).expect("readable");
        let payload = evaluation.to_bytes();
        assert!(current.ends_with(&payload));
        fs::write(&path, frame_entry(5, Stage::Evaluate, &payload)).expect("writable");
        let report = store.verify();
        assert_eq!((report.ok, report.stale, report.corrupt), (0, 1, 0));
        assert_eq!(
            store.load::<asip_synth::Evaluation>(Stage::Evaluate, 1),
            None,
            "a stale entry is never served"
        );
        fs::remove_dir_all(store.dir()).ok();
    }
}
