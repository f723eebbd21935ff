//! The on-disk artifact store: the persistent tier of the
//! [tier stack](crate::tier) under the [`Explorer`](crate::Explorer)
//! session caches.
//!
//! [`ArtifactStore`] serializes stage artifacts to disk keyed by a
//! stable content hash, so a full reproduction run (many binaries, one
//! pipeline) costs one pipeline: the first binary populates the store,
//! every later one reads it.
//!
//! # Layout
//!
//! An append-only log of segment files
//! (`<dir>/<16-hex-digit creation time>-<8-hex-digit pid>.seg`), one per
//! writing store handle, created by its first put. Each put appends one
//! record: magic, version, stage, key, payload length, and an XXH64
//! checksum over those fields and the payload, ahead of an
//! [`ArtifactCodec`] payload. The key is a [`StableHasher`] (FNV-1a 64)
//! digest of everything the artifact is a pure function of, including
//! [`FORMAT_VERSION`]. Each handle indexes the records by a sequential
//! scan of their headers, and a miss catches up with what other handles
//! wrote since. The latest record of a key, in segment-name then offset
//! order, is live. Files that are not segments (a v7 store's stage
//! directories) are ignored. `docs/persistence.md` has the full format.
//!
//! # Garbage collection and fallback
//!
//! [`ArtifactStore::gc`] takes a [`StoreGcConfig`] byte and/or age
//! budget, copies the newest live records that fit into a new segment
//! and unlinks the old segments; the `asip-bench` `store` binary
//! (`store gc|stats|verify`) is its maintenance CLI. The store **never
//! fails a session request**: a missing record is a miss; a torn,
//! corrupted or version-skewed record is counted as `corrupt` and
//! treated as a miss; an unwritable directory silently disables
//! write-back. The worst outcome of deleting or damaging store files —
//! `rm -rf` of the store while sessions run, or a GC under a reader —
//! is recomputation.
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
//! assert!(store.snapshot().is_empty());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::artifact::{ArtifactCodec, Stage, STAGE_COUNT};
use crate::fault::{FaultPlan, FaultSite};
use crate::tier::{lock, ArtifactTier, TierCounters, TierRead, TierStats};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Version of the on-disk artifact format. Bump on **any** change to the
/// codec encodings, the record header, the key derivation, *or the
/// semantics of a pipeline stage* (optimizer heuristics, simulator
/// costs, detector rules, …) — cached artifacts are functions of the
/// stage algorithms, not just their inputs, and a warm store must never
/// replay an old algorithm's output as current. On a bump, old records
/// fail the header check (and new keys diverge, since the version and
/// the crate version are both hashed into every key), so stale artifacts
/// degrade to recomputes instead of decoding wrongly.
///
/// History: v2 — design-stage semantics changed (occurrence-aware
/// coverage reports, frontier-search selection) and the design-space
/// stage was added. v3 — the benchmark's suite tag
/// ([`asip_benchmarks::Suite`]) is folded into every benchmark-keyed
/// hash. v4 — the payload checksum changed from FNV-1a 64 to XXH64.
/// v5 — the payload codec became untagged (LEB128 varints, op codes as
/// table indices, a `Program` field by field); payloads shrink about 5×.
/// v6 — benchmark identity hashes the source's XXH64 digest
/// ([`checksum`]), and the checksum also covers the header fields.
/// v7 — a schedule-graph payload is the graph's flat arrays, without
/// predecessor lists.
/// v8 — the store is a log of append-only segment files instead of one
/// `<stage>/<key>.art` file per entry, and each record carries its key,
/// covered by the checksum, so a damaged key can never serve another
/// key's payload. Payloads and the codec are unchanged. A v7 store's
/// stage directories are not segments: they read as absent.
pub const FORMAT_VERSION: u32 = 8;

/// Magic bytes opening every record.
const MAGIC: [u8; 8] = *b"ASIPART\n";

/// The extension that marks a file of the store directory as a segment.
const SEGMENT_EXT: &str = "seg";

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

// -- the listing -------------------------------------------------------

/// One live record as listed by [`ArtifactStore::snapshot`]: its
/// address, its size and where it lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The pipeline stage the entry belongs to.
    pub stage: Stage,
    /// The content-hash key.
    pub key: u64,
    /// Whole-record size in bytes (header + payload).
    pub bytes: u64,
    /// The segment file holding the record.
    pub segment: PathBuf,
    /// The byte offset of the record in its segment.
    pub offset: u64,
}

/// Every live record of a store directory as [`ArtifactStore::snapshot`]
/// lists them, oldest-written first: by segment (whose name leads with
/// its creation time), then by offset.
pub type Manifest = Vec<ManifestEntry>;

// -- GC ----------------------------------------------------------------

/// Budgets for [`ArtifactStore::gc`]. Unset fields don't constrain;
/// the default config evicts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreGcConfig {
    /// Keep at most this many bytes of records (headers included),
    /// evicting the oldest-written first.
    pub max_bytes: Option<u64>,
    /// Evict every record whose segment was last written longer than
    /// this ago.
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
    /// Live records found by the pre-GC scan.
    pub scanned_entries: u64,
    /// Their total bytes.
    pub scanned_bytes: u64,
    /// Records evicted: over a budget, or failing validation.
    pub evicted_entries: u64,
    /// Bytes those records occupied.
    pub evicted_bytes: u64,
    /// Records copied into the new segment.
    pub retained_entries: u64,
    /// Bytes they occupy.
    pub retained_bytes: u64,
    /// Evicted-entry counts per stage, indexed by `Stage as usize`.
    pub evicted_per_stage: [u64; STAGE_COUNT],
}

/// What an [`ArtifactStore::verify`] walk found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries whose header, checksum and typed payload all validated.
    pub ok: u64,
    /// Entries rejected at any validation step, stale ones aside.
    pub corrupt: u64,
    /// Intact records from an older format: the version field is in
    /// `1..FORMAT_VERSION` and the checksum holds. A version bump leaves
    /// them under keys no current recipe derives: dead weight for `gc`,
    /// not damage. (A bit flip in a current record's version field fails
    /// the checksum, which covers it, so it counts as `corrupt`.)
    pub stale: u64,
    /// Bytes across every inspected entry.
    pub bytes: u64,
    /// Per-stage ok counts, indexed by `Stage as usize`.
    pub ok_per_stage: [u64; STAGE_COUNT],
    /// Per-stage corrupt counts, indexed by `Stage as usize`.
    pub corrupt_per_stage: [u64; STAGE_COUNT],
}

// -- segments and the index --------------------------------------------

/// One segment file, open for reading (and for appending, in the handle
/// that created it).
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    file: File,
}

/// Where one record lives: `len` bytes at `offset` of `seg`. A torn
/// record's `len` stops at the end of its segment.
#[derive(Debug, Clone)]
struct Loc {
    seg: Arc<Segment>,
    offset: u64,
    len: u64,
}

impl Loc {
    fn new(seg: &Arc<Segment>, offset: u64, len: u64) -> Loc {
        let seg = Arc::clone(seg);
        Loc { seg, offset, len }
    }

    /// Write order: a later segment, or later in the same segment.
    fn order(&self) -> (&Path, u64) {
        (&self.seg.path, self.offset)
    }
}

/// How far one handle has indexed one segment: `next` is where the next
/// scan starts (past the last whole record), `seen` the segment's
/// length at the last scan.
#[derive(Debug)]
struct Scanned {
    seg: Arc<Segment>,
    next: u64,
    seen: u64,
}

impl Scanned {
    /// `seg`, indexed up to `end`.
    fn upto(seg: &Arc<Segment>, end: u64) -> Scanned {
        let (seg, next, seen) = (Arc::clone(seg), end, end);
        Scanned { seg, next, seen }
    }
}

/// A handle's index: the segments it has scanned, the live record of
/// every key it has seen, and the segment it appends to, created by its
/// first put. No record bytes are held.
#[derive(Debug, Default)]
struct Index {
    segments: BTreeMap<PathBuf, Scanned>,
    live: HashMap<(Stage, u64), Loc>,
    own: Option<Arc<Segment>>,
}

impl Index {
    /// Catch up with the directory: forget segments that are gone,
    /// index new segments and the bytes appended past each scan. A
    /// segment is read only from where its last scan stopped.
    fn refresh(&mut self, dir: &Path) {
        // an unlistable directory stays as indexed; a missing one is empty
        let entries = match fs::read_dir(dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return,
            entries => entries.into_iter().flatten(),
        };
        let mut listed: Vec<(PathBuf, u64)> = entries
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                if path.extension()? != SEGMENT_EXT {
                    return None;
                }
                Some((path, entry.metadata().ok()?.len()))
            })
            .collect();
        listed.sort_unstable();
        let Index { segments, live, .. } = self;
        let known = segments.len();
        segments.retain(|path, _| listed.binary_search_by(|(p, _)| p.cmp(path)).is_ok());
        if segments.len() < known {
            live.retain(|_, loc| segments.contains_key(&loc.seg.path));
        }
        for (path, len) in listed {
            let scan = match segments.entry(path) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let Ok(file) = File::open(e.key()) else {
                        continue;
                    };
                    let path = e.key().clone();
                    e.insert(Scanned::upto(&Arc::new(Segment { file, path }), 0))
                }
            };
            if len != scan.seen {
                scan.seen = len;
                scan.next = scan_segment(&scan.seg, scan.next, len, live);
            }
        }
    }

    /// Index the record at `loc` for `(stage, key)` unless a later
    /// record of the key is already indexed.
    fn offer(live: &mut HashMap<(Stage, u64), Loc>, stage: Stage, key: u64, loc: Loc) {
        let slot = live.entry((stage, key)).or_insert_with(|| loc.clone());
        if slot.order() < loc.order() {
            *slot = loc;
        }
    }

    /// Every live record, oldest-written first.
    fn records(&self) -> Vec<((Stage, u64), Loc)> {
        let mut records: Vec<_> = self
            .live
            .iter()
            .map(|(&id, loc)| (id, loc.clone()))
            .collect();
        records.sort_by(|(_, a), (_, b)| a.order().cmp(&b.order()));
        records
    }
}

/// Offer the records of `seg` between `from` and `len` to `live`, by a
/// buffered sequential read of their headers (payloads are skipped, not
/// read). Returns where the next scan starts: the end of the last whole
/// record. The scan stops at a damaged header, and at a torn record —
/// one cut off by the end of the segment. A torn record whose key is
/// readable is offered for its remaining bytes, so reading it fails
/// validation and counts as corrupt; one cut inside its key cannot be
/// attributed and reads as absent.
fn scan_segment(
    seg: &Arc<Segment>,
    from: u64,
    len: u64,
    live: &mut HashMap<(Stage, u64), Loc>,
) -> u64 {
    let mut reader = BufReader::new(&seg.file);
    if reader.seek(SeekFrom::Start(from)).is_err() {
        return from;
    }
    let mut at = from;
    // magic, version, stage-name length; the name, key, payload length
    // and checksum
    let (mut fixed, mut rest) = ([0u8; 13], [0u8; 255 + 24]);
    while at + fixed.len() as u64 <= len {
        if reader.read_exact(&mut fixed).is_err() || fixed[..8] != MAGIC {
            break;
        }
        let name_len = usize::from(fixed[12]);
        let available = (len - at - 13).min(name_len as u64 + 24) as usize;
        if available < name_len + 8 || reader.read_exact(&mut rest[..available]).is_err() {
            break;
        }
        let name = &rest[..name_len];
        let stage = Stage::all()
            .into_iter()
            .find(|s| s.name().as_bytes() == name);
        let key = u64::from_le_bytes(rest[name_len..name_len + 8].try_into().expect("8 bytes"));
        let payload_len = split_u64(&rest[name_len + 8..available]).map(|(n, _)| n);
        let record_len = payload_len
            .filter(|_| available == name_len + 24)
            .and_then(|n| n.checked_add(13 + available as u64))
            .filter(|&n| n <= len - at);
        if let Some(stage) = stage {
            let len = record_len.unwrap_or(len - at);
            let loc = Loc::new(seg, at, len);
            Index::offer(live, stage, key, loc);
        }
        let Some(record_len) = record_len else {
            break;
        };
        at += record_len;
        let skip = record_len - 13 - available as u64;
        if reader.seek_relative(skip as i64).is_err() {
            break;
        }
    }
    at
}

/// A new segment's path: the creation time in nanoseconds, strictly
/// increasing within the process so two handles never share a name,
/// then the process id. Names sort in creation order.
fn new_segment_path(dir: &Path) -> PathBuf {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut stamp = now;
    let _ = LAST.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
        stamp = (last + 1).max(now);
        Some(stamp)
    });
    dir.join(format!(
        "{stamp:016x}-{:08x}.{SEGMENT_EXT}",
        std::process::id()
    ))
}

/// Create a new segment in `dir`, open for reading and appending.
fn create_segment(dir: &Path) -> Option<Arc<Segment>> {
    fs::create_dir_all(dir).ok()?;
    let path = new_segment_path(dir);
    let mut options = File::options();
    let file = options.read(true).append(true).create_new(true);
    Some(Arc::new(Segment {
        file: file.open(&path).ok()?,
        path,
    }))
}

/// A persistent, content-addressed artifact store rooted at one
/// directory. See the [module docs](self) for layout, GC and fallback
/// semantics, and [`Explorer::with_store`](crate::Explorer::with_store)
/// for the session integration. In the [tier stack](crate::tier) it is
/// the canonical persistent [`ArtifactTier`] (`name() == "disk"`).
///
/// Multiple stores (in one process or many) may share a directory:
/// each appends only to a segment of its own, and sees the others'
/// records after a miss.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    counters: TierCounters,
    gc_evicted: AtomicU64,
    index: Mutex<Index>,
    /// Fast-path guard for the fault-injection seam: checked with one
    /// relaxed load before touching the plan mutex, so an unarmed store
    /// pays a single predictable branch per operation.
    faults_armed: AtomicBool,
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl ArtifactStore {
    /// A store rooted at `dir`. No I/O happens here: the directory and
    /// this handle's segment are created lazily on the first write, and
    /// a missing directory simply means every load misses.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            dir: dir.into(),
            counters: TierCounters::default(),
            gc_evicted: AtomicU64::new(0),
            index: Mutex::new(Index::default()),
            faults_armed: AtomicBool::new(false),
            faults: Mutex::new(None),
        }
    }

    /// Arm a [`FaultPlan`]: subsequent reads and writes consult the
    /// plan and may fail deliberately (see [`crate::fault`]).
    /// Chaos-testing seam — never armed in production.
    pub fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *lock(&self.faults) = Some(plan);
        self.faults_armed.store(true, Ordering::Release);
    }

    /// Remove any armed [`FaultPlan`]; the store returns to normal
    /// operation.
    pub fn disarm_faults(&self) {
        self.faults_armed.store(false, Ordering::Release);
        *lock(&self.faults) = None;
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        lock(&self.faults).clone()
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read and decode the artifact stored under `(stage, key)`.
    ///
    /// Returns `None` — counting a miss — when no record exists, and
    /// `None` — counting `corrupt` — when the live record fails any
    /// validation step (magic, version, stage, key, length, checksum,
    /// codec decode). Never errors and never panics on hostile bytes.
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

    /// Encode `value` and append it under `(stage, key)` to this
    /// handle's segment.
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

    // -- snapshot, GC, verify ------------------------------------------

    /// Every live record, after catching up with the directory, in the
    /// canonical order of a [`Manifest`].
    fn records(&self) -> Vec<((Stage, u64), Loc)> {
        let mut index = lock(&self.index);
        index.refresh(&self.dir);
        index.records()
    }

    /// List the store's live records.
    pub fn snapshot(&self) -> Manifest {
        let entry = |((stage, key), loc): ((Stage, u64), Loc)| ManifestEntry {
            stage,
            key,
            bytes: loc.len,
            segment: loc.seg.path.clone(),
            offset: loc.offset,
        };
        self.records().into_iter().map(entry).collect()
    }

    /// Garbage-collect the store against `config`: walk the live
    /// records oldest-written first, evicting every one in a segment
    /// last written before `max_age` and every one while more than
    /// `max_bytes` remain; copy the rest, if they validate, into a new
    /// segment that keeps the latest write time of its sources, and
    /// unlink every old segment.
    ///
    /// A reader of an unlinked record still reads it whole, or misses
    /// and recomputes; a record another handle appends to an old segment
    /// during GC goes with it. GC cannot fail: if the new segment cannot
    /// be written, nothing is evicted and the report is empty.
    pub fn gc(&self, config: &StoreGcConfig) -> GcReport {
        let mut index = lock(&self.index);
        index.refresh(&self.dir);
        let records = index.records();
        let mut report = GcReport {
            scanned_entries: records.len() as u64,
            scanned_bytes: records.iter().map(|(_, loc)| loc.len).sum(),
            ..GcReport::default()
        };
        let cutoff = config
            .max_age
            .map(|age| SystemTime::now().checked_sub(age).unwrap_or(UNIX_EPOCH));
        let mut out: Option<Arc<Segment>> = None;
        let (mut kept, mut buf, mut newest) = (Vec::new(), Vec::new(), UNIX_EPOCH);
        for ((stage, key), loc) in records {
            let written = loc.seg.file.metadata().and_then(|m| m.modified());
            let too_old = cutoff.is_some_and(|cut| written.as_ref().map_or(true, |t| *t < cut));
            let remaining = report.scanned_bytes - report.evicted_bytes;
            let over_budget = config.max_bytes.is_some_and(|max| remaining > max);
            buf.resize(loc.len as usize, 0);
            let keep = !too_old
                && !over_budget
                && loc.seg.file.read_exact_at(&mut buf, loc.offset).is_ok()
                && validate_record(&buf, stage, key).is_some();
            if !keep {
                report.evicted_entries += 1;
                report.evicted_bytes += loc.len;
                report.evicted_per_stage[stage as usize] += 1;
                continue;
            }
            if out.is_none() {
                out = create_segment(&self.dir);
            }
            let Some(seg) = out
                .as_ref()
                .filter(|seg| (&seg.file).write_all(&buf).is_ok())
            else {
                if let Some(seg) = out {
                    fs::remove_file(&seg.path).ok();
                }
                return GcReport::default();
            };
            kept.push(((stage, key), Loc::new(seg, report.retained_bytes, loc.len)));
            report.retained_entries += 1;
            report.retained_bytes += loc.len;
            newest = newest.max(written.unwrap_or(UNIX_EPOCH));
        }

        for path in index.segments.keys() {
            fs::remove_file(path).ok();
        }
        *index = Index::default();
        if let Some(seg) = out {
            seg.file.set_modified(newest).ok();
            let scan = Scanned::upto(&seg, report.retained_bytes);
            index.segments.insert(seg.path.clone(), scan);
            index.live.extend(kept);
        }
        self.gc_evicted
            .fetch_add(report.evicted_entries, Ordering::Relaxed);
        report
    }

    /// Walk every live record and validate it end to end: header,
    /// checksum, and a full typed decode of the payload against its
    /// stage's artifact type. Records written under an older
    /// [`FORMAT_VERSION`] are reported as [`VerifyReport::stale`], not
    /// as corrupt; a torn record is corrupt. Counters are untouched —
    /// this is a maintenance walk, not the request path — and nothing
    /// is deleted; pair with [`ArtifactStore::gc`] or plain `rm` to act
    /// on the report.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        let mut buf = Vec::new();
        for ((stage, key), loc) in self.records() {
            buf.resize(loc.len as usize, 0);
            report.bytes += loc.len;
            let read = loc.seg.file.read_exact_at(&mut buf, loc.offset).is_ok();
            let valid = read
                && validate_record(&buf, stage, key)
                    .is_some_and(|payload| decode_stage_payload(stage, payload));
            if valid {
                report.ok += 1;
                report.ok_per_stage[stage as usize] += 1;
            } else if read
                && parse_record(&buf, stage, key).is_some_and(|(v, _)| v < FORMAT_VERSION && v > 0)
            {
                report.stale += 1;
            } else {
                report.corrupt += 1;
                report.corrupt_per_stage[stage as usize] += 1;
            }
        }
        report
    }

    /// The live record of `(stage, key)`, catching up with the
    /// directory first when this handle has none.
    fn locate(&self, stage: Stage, key: u64) -> Option<Loc> {
        let mut index = lock(&self.index);
        if !index.live.contains_key(&(stage, key)) {
            index.refresh(&self.dir);
        }
        index.live.get(&(stage, key)).cloned()
    }
}

impl ArtifactTier for ArtifactStore {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        if let Some(plan) = self.fault_plan() {
            // An injected read I/O error degrades like a missing
            // record: a counted miss.
            if plan.roll(FaultSite::DiskRead) {
                self.counters.count_miss(stage);
                return TierRead::Miss;
            }
        }
        let Some(loc) = self.locate(stage, key) else {
            self.counters.count_miss(stage);
            return TierRead::Miss;
        };
        let mut bytes = vec![0; loc.len as usize];
        let payload_len = match loc.seg.file.read_exact_at(&mut bytes, loc.offset) {
            Ok(()) => validate_record(&bytes, stage, key).map(<[u8]>::len),
            Err(_) => None,
        };
        match payload_len {
            Some(n) => {
                self.counters.count_hit(stage);
                bytes.drain(..bytes.len() - n);
                TierRead::Hit(bytes)
            }
            None => {
                // a rejected record is not read again (unless the index
                // has since moved on), and the healing put replaces it
                self.counters.count_corrupt(stage);
                let mut index = lock(&self.index);
                if index.live.get(&(stage, key)).map(Loc::order) == Some(loc.order()) {
                    index.live.remove(&(stage, key));
                }
                TierRead::Corrupt
            }
        }
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        let record = frame_record(FORMAT_VERSION, stage, key, payload);
        let mut landed = record.len();
        if let Some(plan) = self.fault_plan() {
            // An injected write error fails before any byte lands.
            if plan.roll(FaultSite::DiskWrite) {
                return false;
            }
            // A torn write appends a prefix of the record — the tail a
            // crash mid-append leaves — and the writer, like a
            // restarted process, moves on to a new segment.
            if plan.roll(FaultSite::TornWrite) {
                landed = plan.draw(FaultSite::TornWrite, record.len() as u64) as usize;
                if landed < MAGIC.len() + 4 + 1 + stage.name().len() + 8 {
                    plan.note_unattributable_tear();
                }
            }
        }
        let mut index = lock(&self.index);
        // a segment whose file is gone (`rm -rf`, another handle's GC)
        // is replaced, so a put never lands in an unlinked file
        let own = (index.own.take())
            .filter(|seg| seg.path.exists() && index.segments.contains_key(&seg.path));
        let Some(seg) = own.or_else(|| create_segment(&self.dir)) else {
            return false;
        };
        let scan = (index.segments.entry(seg.path.clone())).or_insert(Scanned::upto(&seg, 0));
        let offset = scan.next;
        if (&seg.file).write_all(&record[..landed]).is_err() || landed < record.len() {
            // later records must not follow a torn tail: leave `own` unset
            return false;
        }
        (scan.next, scan.seen) = (offset + landed as u64, offset + landed as u64);
        let loc = Loc::new(&seg, offset, landed as u64);
        index.live.insert((stage, key), loc);
        index.own = Some(seg);
        self.counters.count_write(stage);
        true
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        self.locate(stage, key).is_some()
    }

    fn stats(&self, stage: Stage) -> TierStats {
        let mut index = lock(&self.index);
        index.refresh(&self.dir);
        let (entries, bytes) = (index.live.iter().filter(|((s, _), _)| *s == stage))
            .fold((0, 0), |(n, b), (_, loc)| (n + 1, b + loc.len));
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
        lock(&self.index).live.remove(&(stage, key));
    }

    fn reset_counters(&self) {
        self.counters.reset();
        self.gc_evicted.store(0, Ordering::Relaxed);
    }
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

/// A complete record: the header (magic, `version`, stage name, key,
/// payload length, checksum) followed by the payload.
fn frame_record(version: u32, stage: Stage, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 64);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&version.to_le_bytes());
    let stage_name = stage.name().as_bytes();
    bytes.push(stage_name.len() as u8);
    bytes.extend_from_slice(stage_name);
    bytes.extend_from_slice(&key.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = record_checksum(&bytes[MAGIC.len()..], payload);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The checksum a record carries, given its header fields between the
/// magic and the checksum (version, stage-name length and name, key,
/// payload length) and its payload: XXH64 over the fields followed by
/// the payload's XXH64.
fn record_checksum(fields: &[u8], payload: &[u8]) -> u64 {
    // the fields take at most 4 + 1 + 255 + 8 + 8 bytes (the name
    // length is one byte), so they and the payload's sum fit on the
    // stack
    let mut covered = [0u8; 284];
    let (head, sum) = covered.split_at_mut(fields.len());
    head.copy_from_slice(fields);
    sum[..8].copy_from_slice(&checksum(payload).to_le_bytes());
    checksum(&covered[..fields.len() + 8])
}

/// Validate a whole record's framing — magic, version, stage name, key,
/// payload length, checksum — and return the payload slice. Any failure
/// returns `None`; the caller counts it as `corrupt`. Typed payload
/// decoding is the next layer up (the tier stack or
/// [`ArtifactStore::load`]).
fn validate_record(bytes: &[u8], stage: Stage, key: u64) -> Option<&[u8]> {
    match parse_record(bytes, stage, key)? {
        (FORMAT_VERSION, payload) => Some(payload),
        _ => None,
    }
}

/// [`validate_record`] without the version check: the version field and
/// the payload, checksum-validated. A record of an older version that
/// passes is stale, not damaged: a bit flip in a current record's
/// version field fails the checksum, which covers it.
fn parse_record(bytes: &[u8], stage: Stage, key: u64) -> Option<(u32, &[u8])> {
    let header = bytes.strip_prefix(&MAGIC)?;
    let (version, rest) = split_u32(header)?;
    let (&name_len, rest) = rest.split_first()?;
    let (name, rest) = rest.split_at_checked(usize::from(name_len))?;
    let (record_key, rest) = split_u64(rest)?;
    let (payload_len, rest) = split_u64(rest)?;
    let fields = &header[..header.len() - rest.len()];
    let (expected_sum, payload) = split_u64(rest)?;
    let valid = name == stage.name().as_bytes()
        && record_key == key
        && payload.len() as u64 == payload_len
        && record_checksum(fields, payload) == expected_sum;
    valid.then_some((version, payload))
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

    /// The live record of `(stage, key)`.
    fn record_of(store: &ArtifactStore, stage: Stage, key: u64) -> ManifestEntry {
        let mut entries = store.snapshot().into_iter();
        let found = entries.find(|e| (e.stage, e.key) == (stage, key));
        found.expect("a live record")
    }

    /// Overwrite bytes of a segment in place.
    fn patch(path: &Path, at: u64, bytes: &[u8]) {
        let file = File::options().write(true).open(path).expect("segment");
        file.write_all_at(bytes, at).expect("writable");
    }

    /// Replace every segment of the store by one holding `records`.
    fn rewrite_store(store: &ArtifactStore, records: &[Vec<u8>]) {
        for entry in fs::read_dir(store.dir()).expect("store dir").flatten() {
            fs::remove_file(entry.path()).expect("removable");
        }
        fs::write(new_segment_path(store.dir()), records.concat()).expect("writable");
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
        // the latest record of a key wins
        store.save(Stage::Compile, 7, &4u64);
        assert_eq!(store.load::<u64>(Stage::Compile, 7), Some(4));
        let fresh = ArtifactStore::open(store.dir());
        assert_eq!(fresh.load::<u64>(Stage::Compile, 7), Some(4));
        assert_eq!(fresh.snapshot().len(), 3);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupted_entries_count_corrupt_and_miss_to_none() {
        let store = temp_store("corrupt");
        let report = String::from("report");

        // flip a payload byte: checksum rejects
        store.save(Stage::Analyze, 5, &report);
        let e = record_of(&store, Stage::Analyze, 5);
        patch(&e.segment, e.offset + e.bytes - 1, b"\0");
        assert_eq!(store.load::<String>(Stage::Analyze, 5), None);
        assert_eq!(store.stats(Stage::Analyze).corrupt, 1);

        // truncate mid-header
        store.save(Stage::Analyze, 5, &report);
        let e = record_of(&store, Stage::Analyze, 5);
        let file = File::options()
            .write(true)
            .open(&e.segment)
            .expect("segment");
        file.set_len(e.offset + 10).expect("truncates");
        assert_eq!(store.load::<String>(Stage::Analyze, 5), None);

        // version skew (bytes 8..12) rejects even with a valid payload
        store.save(Stage::Analyze, 5, &report);
        let e = record_of(&store, Stage::Analyze, 5);
        patch(&e.segment, e.offset + 8, &u32::MAX.to_le_bytes());
        assert_eq!(store.load::<String>(Stage::Analyze, 5), None);
        assert_eq!(store.stats(Stage::Analyze).corrupt, 3);

        // a valid record read as another stage or key is rejected
        let record = frame_record(FORMAT_VERSION, Stage::Analyze, 5, &report.to_bytes());
        assert!(validate_record(&record, Stage::Analyze, 5).is_some());
        assert!(validate_record(&record, Stage::Design, 5).is_none());
        assert!(validate_record(&record, Stage::Analyze, 4).is_none());

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
            "undecodable entry dropped so the rewrite is not shadowed"
        );
        store.save(Stage::Compile, 9, &9u64);
        assert_eq!(store.load::<u64>(Stage::Compile, 9), Some(9));
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
        // an undecodable entry counts one corrupt read and is dropped
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
    fn snapshot_scans_and_gc_respects_byte_budget_oldest_first() {
        let store = temp_store("gc-bytes");
        store.save(Stage::Compile, 1, &1u64);
        store.save(Stage::Profile, 2, &2u64);
        store.save(Stage::Schedule, 3, &3u64);

        let m = store.snapshot();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].key, 1, "snapshot is write-ordered");
        // budget for exactly the newest entry: the two oldest go
        let entry_bytes = m[2].bytes;
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

        // a fresh scan lists the retained set, all in one segment
        let m = ArtifactStore::open(store.dir()).snapshot();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].key, 3);
        assert_eq!(fs::read_dir(store.dir()).expect("dir").count(), 1);
        // and the handle appends on to a new segment
        assert!(store.save(Stage::Compile, 1, &1u64));
        assert_eq!(store.load::<u64>(Stage::Schedule, 3), Some(3));
        assert_eq!(ArtifactStore::open(store.dir()).snapshot().len(), 2);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_age_budget_and_unbounded_config_are_honored() {
        let store = temp_store("gc-age");
        store.save(Stage::Compile, 1, &1u64);
        let unbounded = store.gc(&StoreGcConfig::default());
        assert_eq!(unbounded.evicted_entries, 0, "no budgets, no evictions");

        // everything is older than a zero age budget, copies included
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
        // a manifest.tsv left at the root by an older build is not a
        // segment: snapshot, gc and verify all ignore it
        let leftover = store.dir().join("manifest.tsv");
        let old_index = b"asip-manifest v1\ncompile\t1\t1\t1\n";
        fs::write(&leftover, old_index).expect("writable");
        assert_eq!(store.snapshot().len(), 2);
        assert_eq!(store.gc(&StoreGcConfig::default()).retained_entries, 2);
        assert_eq!(fs::read(&leftover).expect("left in place"), old_index);
        let clean = store.verify();
        assert_eq!((clean.ok, clean.corrupt), (2, 0));
        assert_eq!(clean.ok_per_stage[Stage::Compile as usize], 1);
        assert!(clean.bytes > 0);

        // payload damage and type confusion are both caught
        let e = record_of(&store, Stage::Compile, 1);
        patch(&e.segment, e.offset + e.bytes - 1, b"\xff");
        // a structurally valid record holding the wrong payload type
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
        // the same evaluation as format v4 encoded it: the tagged
        // fixed-width payload, in a record of version 4
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
        rewrite_store(&store, &[frame_record(4, Stage::Evaluate, 1, &v4_payload)]);
        let report = store.verify();
        assert_eq!((report.ok, report.stale, report.corrupt), (0, 1, 0));

        // a current record stays corrupt under every single-bit flip of
        // its version field, including flips onto an older version
        let current = frame_record(FORMAT_VERSION, Stage::Evaluate, 1, &evaluation.to_bytes());
        for bit in 0..32 {
            let mut bytes = current.clone();
            bytes[8 + bit / 8] ^= 1 << (bit % 8);
            rewrite_store(&store, &[bytes]);
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
        // consecutive versions may share the codec, so a genuine older
        // record's payload decodes today: only its framing tells it apart
        let store = temp_store("stale-same-codec");
        let evaluation = asip_synth::Evaluation {
            base_cycles: 200,
            asip_cycles: 100,
            speedup: 2.0,
            fused_chains: 3,
            extension_area: 512.0,
        };
        store.save(Stage::Evaluate, 1, &evaluation);
        let payload = evaluation.to_bytes();
        let previous = frame_record(FORMAT_VERSION - 1, Stage::Evaluate, 1, &payload);
        rewrite_store(&store, &[previous]);
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
