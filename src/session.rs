//! The [`Explorer`] session: staged, cached, parallel design-space
//! exploration.
//!
//! An `Explorer` is a long-lived session object in the style of a
//! compiler driver: *permanent* state (the benchmark registry and the
//! stage configurations, fixed by the builder) and *ephemeral* state
//! (per-stage artifact caches plus hit/miss/eviction counters, dropped
//! by [`Explorer::reset`]). Every stage method is memoized on its
//! artifact's recipe key — a stable hash of the benchmark's content
//! identity and every stage parameter, the same `u64` that files the
//! artifact in every cache tier — so a sweep that revisits a
//! benchmark under many detector or optimizer configurations compiles
//! and simulates it exactly once — the expensive early stages are
//! shared across the whole sweep, and [`Explorer::cache_stats`] proves
//! it.
//!
//! Five properties make the session safe to park behind a long-lived
//! service:
//!
//! - **Feedback coherence.** The design stage selects extensions from
//!   the *same* cached [`ScheduleGraph`] the analyze stage reported
//!   (the session's [`OptConfig`] included), instead of silently
//!   re-running the optimizer under default knobs — so a
//!   [`Explorer::design`] after an [`Explorer::analyze`] performs zero
//!   additional optimizer runs.
//! - **Single-flight computes.** Concurrent requests for the same
//!   missing key block on the one in-flight computation instead of
//!   duplicating it; each stage value is computed (and counted) once.
//! - **Bounded caches.** [`Explorer::with_cache_capacity`] puts an LRU
//!   bound on every stage cache and derived-work memo; evictions and
//!   live entry counts are surfaced through [`CacheStats`].
//! - **Derived work done once.** Beside the stage caches the session
//!   memoizes what several stages share: decoded engines, baseline
//!   output images, coverage studies per `(benchmark, level)`, one
//!   rewritten engine per `(benchmark, design)` and its measurement per
//!   seed. These memos are single-flighted stage caches too, keyed by
//!   `u64` recipe keys, so sweeps whose configs — or concurrent
//!   requests — reach the same studies or the same designs run each
//!   once (`coverage_*` and `measurements*` in [`CacheStats`]).
//! - **Pluggable persistence.** [`Explorer::with_store`] attaches an
//!   on-disk, content-addressed artifact store under the memory caches
//!   so separate processes share work. Every stage request flows
//!   through one generic [`TierStack`] (see [`crate::tier`]): typed
//!   memory cache → remote → disk → custom tiers → compute, with
//!   write-through of computed artifacts; [`Explorer::with_tier`] plugs
//!   in additional tiers (any shared cache) behind the same
//!   [`ArtifactTier`] interface. Corrupted or stale entries fall
//!   back to recompute, and every mounted tier's
//!   hit/miss/write/corrupt/byte counters are part of [`CacheStats`]
//!   ([`CacheStats::tiers`], by name through [`CacheStats::tier`]).
//! - **Batched warm starts.** [`Explorer::explore_all`] and the suite
//!   stages [`prefetch`](Explorer::prefetch) their persisted artifacts
//!   before fan-out: one batch read per tier (one round trip to a
//!   remote tier), decoded on the session thread pool straight into the
//!   typed caches, so the requests that follow read no tier at all
//!   (`prefetch_hits` in [`CacheStats`] shows the effect). A key the
//!   prefetch found on no tier is computed by its request without a
//!   second probe, so a cold pass reads each artifact's tiers once.
//!
//! ```
//! use asip_explorer::Explorer;
//!
//! # fn main() -> Result<(), asip_explorer::ExplorerError> {
//! let session = Explorer::new();
//! let a = session.analyze("sewha", asip_explorer::opt::OptLevel::Pipelined)?;
//! assert!(!a.report.is_empty());
//! // a second request is served from cache — same Arc, no recompute
//! let b = session.analyze("sewha", asip_explorer::opt::OptLevel::Pipelined)?;
//! assert!(std::sync::Arc::ptr_eq(&a.report, &b.report));
//! assert_eq!(session.cache_stats().analyze.hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::artifact::{
    Analyzed, ArtifactCodec, Compiled, DesignSpaced, Designed, DesignedSuite, Evaluated,
    EvaluatedSuite, Exploration, Profiled, Scheduled, Stage, STAGE_COUNT,
};
use crate::error::ExplorerError;
use crate::remote::{Endpoint, RemoteTier, RemoteTotals, RetryPolicy};
use crate::store::{ArtifactStore, StableHasher};
use crate::tier::{lock, ArtifactTier, StageCache, TierReport, TierStack};
use asip_benchmarks::{Benchmark, DataSpec, Registry, DEFAULT_SEED};
use asip_chains::{DetectorConfig, SequenceDetector, SequenceReport};
use asip_ir::{OpClass, Program};
use asip_opt::{OptConfig, OptLevel, Optimizer, ScheduleGraph};
use asip_sim::{Engine, OutputImage, Profile, RunStateStats};
use asip_synth::{
    AsipDesign, AsipDesigner, DesignConstraints, DesignSpace, EvalError, Evaluation, LevelFeedback,
    PreparedDesign,
};
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters (and the live entry count) for one
/// stage's typed front cache.
///
/// A request is either a memory `hit` (whether the value was computed,
/// read by an earlier request or admitted by the prefetch), a hit in a
/// tier (counted by that tier, see [`CacheStats::tiers`]) or a `miss`
/// (the stage actually ran). `misses` therefore always equals the
/// number of times the stage's computation executed in this session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Requests served from the in-memory session cache.
    pub hits: u64,
    /// Requests that ran the stage (no cache tier could serve).
    pub misses: u64,
    /// Entries dropped by the LRU bound (see
    /// [`Explorer::with_cache_capacity`]).
    pub evictions: u64,
    /// Entries currently resident in the in-memory cache.
    pub entries: u64,
    /// Artifacts the prefetch ([`Explorer::prefetch`]) read from a tier
    /// and decoded into the in-memory cache, so the requests for them
    /// recompute nothing and read no tier.
    pub prefetch_hits: u64,
}

/// A snapshot of the session's per-stage cache counters and of every
/// mounted tier's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compile-stage counters.
    pub compile: StageStats,
    /// Profile-stage counters.
    pub profile: StageStats,
    /// Schedule-stage counters.
    pub schedule: StageStats,
    /// Analyze-stage counters.
    pub analyze: StageStats,
    /// Design-stage counters.
    pub design: StageStats,
    /// Evaluate-stage counters.
    pub evaluate: StageStats,
    /// Suite-design-stage counters.
    pub design_suite: StageStats,
    /// Suite-evaluate-stage counters.
    pub evaluate_suite: StageStats,
    /// Design-space-stage counters.
    pub design_space: StageStats,
    /// Every tier of the session's [`TierStack`], top (probed first)
    /// to bottom — the remote tier, the disk store and any tier mounted
    /// with [`Explorer::with_tier`]. Empty for a session with none of
    /// them.
    pub tiers: Vec<TierReport>,
    /// Store entries evicted by this session's [`ArtifactStore::gc`]
    /// passes (run one through [`Explorer::store`]).
    pub gc_evictions: u64,
    /// Wire-level counters of the remote tier
    /// ([`Explorer::with_remote`]): requests, errors, retries,
    /// unhealthy-skips and bytes over the wire. All zero for a session
    /// without a remote tier.
    pub remote: RemoteTotals,
    /// Aggregated run-state pool counters of every live engine the
    /// session holds (baseline engines and rewritten-design engines):
    /// `checkouts` counts simulator runs served through the pools,
    /// `creates` counts actual bank allocations. A store-warm sweep
    /// should show `creates` frozen while `checkouts` grows — zero
    /// per-run bank allocations.
    pub run_state: RunStateStats,
    /// Coverage studies the session ran (the design stages' feedback,
    /// memoized per analyze key).
    pub coverage_studies: u64,
    /// Coverage-study requests served from the session's memo,
    /// concurrent requests that waited for a running study included.
    pub coverage_reused: u64,
    /// Rewritten-program measurements the session ran (one simulation
    /// each, memoized per `(benchmark, design, seed)`).
    pub measurements: u64,
    /// Measurement requests served from the session's memo: a design
    /// reached again under a seed it was measured on — by another
    /// config, another stage or a session re-seeded back — is not
    /// simulated again.
    pub measurements_reused: u64,
}

impl CacheStats {
    /// Counters for one stage.
    pub fn stage(&self, stage: Stage) -> StageStats {
        match stage {
            Stage::Compile => self.compile,
            Stage::Profile => self.profile,
            Stage::Schedule => self.schedule,
            Stage::Analyze => self.analyze,
            Stage::Design => self.design,
            Stage::Evaluate => self.evaluate,
            Stage::DesignSuite => self.design_suite,
            Stage::EvaluateSuite => self.evaluate_suite,
            Stage::DesignSpace => self.design_space,
        }
    }

    /// The counters of every mounted tier named `name` (`"memory"`,
    /// `"remote"`, `"disk"`, or a custom tier's name), summed; all zero
    /// when no such tier is mounted.
    pub fn tier(&self, name: &'static str) -> TierReport {
        let mut sum = TierReport {
            name,
            ..TierReport::default()
        };
        for tier in self.tiers.iter().filter(|t| t.name == name) {
            for (a, b) in sum.stages.iter_mut().zip(tier.stages) {
                *a = a.merge(b);
            }
        }
        sum
    }

    fn sum(&self, field: impl Fn(StageStats) -> u64) -> u64 {
        Stage::all().into_iter().map(|s| field(self.stage(s))).sum()
    }

    /// Total cache hits across stages.
    pub fn total_hits(&self) -> u64 {
        self.sum(|s| s.hits)
    }

    /// Total stage executions across stages.
    pub fn total_misses(&self) -> u64 {
        self.sum(|s| s.misses)
    }

    /// Total LRU evictions across stages.
    pub fn total_evictions(&self) -> u64 {
        self.sum(|s| s.evictions)
    }

    /// Total entries currently resident across stage caches.
    pub fn total_entries(&self) -> u64 {
        self.sum(|s| s.entries)
    }

    /// Total artifacts the prefetch decoded into the caches, across
    /// stages.
    pub fn total_prefetch_hits(&self) -> u64 {
        self.sum(|s| s.prefetch_hits)
    }

    /// Store entries rejected as corrupted or version-skewed:
    /// `tier("disk").total().corrupt`.
    pub fn total_disk_corrupt(&self) -> u64 {
        self.tier("disk").total().corrupt
    }

    /// Remote payloads rejected by typed decoding:
    /// `tier("remote").total().corrupt`.
    pub fn total_remote_corrupt(&self) -> u64 {
        self.tier("remote").total().corrupt
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, stage) in Stage::all().into_iter().enumerate() {
            let st = self.stage(stage);
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{stage}: {}h/{}m", st.hits, st.misses)?;
            if st.evictions > 0 {
                write!(f, "/{}ev", st.evictions)?;
            }
        }
        for tier in &self.tiers {
            let (name, t) = (tier.name, tier.total());
            let r = match name {
                "remote" => self.remote,
                _ => RemoteTotals::default(),
            };
            if t.hits + t.misses + t.writes + t.corrupt == 0 && r == RemoteTotals::default() {
                continue;
            }
            write!(f, "  {name}: {}h/{}m/{}w", t.hits, t.misses, t.writes)?;
            if t.corrupt > 0 {
                write!(f, "/{}corrupt", t.corrupt)?;
            }
            if r.errors + r.retries + r.skipped > 0 {
                write!(f, " ({}err/{}retry/{}skip)", r.errors, r.retries, r.skipped)?;
            }
            if r.overloaded > 0 {
                write!(f, " ({}shed)", r.overloaded)?;
            }
        }
        let pf = self.total_prefetch_hits();
        if pf > 0 {
            write!(f, "  prefetch: {pf}h")?;
        }
        if self.gc_evictions > 0 {
            write!(f, "  gc: {}ev", self.gc_evictions)?;
        }
        if self.run_state != RunStateStats::default() {
            write!(
                f,
                "  run-state: {}co/{}alloc",
                self.run_state.checkouts, self.run_state.creates
            )?;
        }
        if self.coverage_studies + self.coverage_reused > 0 {
            write!(
                f,
                "  coverage: {}run/{}reused",
                self.coverage_studies, self.coverage_reused
            )?;
        }
        if self.measurements + self.measurements_reused > 0 {
            write!(
                f,
                "  measure: {}run/{}reused",
                self.measurements, self.measurements_reused
            )?;
        }
        Ok(())
    }
}

/// Stable digest of an [`AsipDesign`]'s full identity — every field
/// that affects the rewrite (extension ids, signatures, areas,
/// benefits, total area), in order. Two designs with the same digest
/// rewrite a program identically, so the digest is part of the
/// prepared-design key.
fn design_digest(design: &AsipDesign) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(design.extensions.len());
    for ext in &design.extensions {
        h.write_u64(ext.id as u64);
        h.write_str(&ext.signature.to_string());
        h.write_f64(ext.area);
        h.write_f64(ext.expected_benefit);
    }
    h.write_f64(design.extension_area);
    h.finish()
}

// -- the session -------------------------------------------------------

/// The typed front caches: one single-flighted, counter-carrying
/// [`StageCache`] per pipeline stage (see [`crate::tier`]). The
/// byte-level tiers below them live in the session's [`TierStack`].
#[derive(Debug, Default)]
struct Caches {
    compile: StageCache<Program>,
    profile: StageCache<Profile>,
    schedule: StageCache<ScheduleGraph>,
    analyze: StageCache<SequenceReport>,
    design: StageCache<AsipDesign>,
    evaluate: StageCache<Evaluation>,
    design_suite: StageCache<AsipDesign>,
    evaluate_suite: StageCache<Vec<(String, Evaluation)>>,
    design_space: StageCache<DesignSpace>,
}

impl Caches {
    /// One stage's cache, type-erased. The typed caches have nine
    /// distinct types, so uniform access goes through this accessor
    /// instead of an array.
    fn stage(&self, stage: Stage) -> &dyn StageCacheOps {
        match stage {
            Stage::Compile => &self.compile,
            Stage::Profile => &self.profile,
            Stage::Schedule => &self.schedule,
            Stage::Analyze => &self.analyze,
            Stage::Design => &self.design,
            Stage::Evaluate => &self.evaluate,
            Stage::DesignSuite => &self.design_suite,
            Stage::EvaluateSuite => &self.evaluate_suite,
            Stage::DesignSpace => &self.design_space,
        }
    }
}

/// The type-erased slice of [`StageCache`] the session needs for
/// uniform bookkeeping (capacity, reset, counter snapshots) and for
/// the prefetch's admissions.
trait StageCacheOps {
    fn set_capacity(&self, capacity: Option<usize>) -> u64;
    fn reset(&self);
    fn stats(&self) -> StageStats;
    fn contains_key(&self, key: u64) -> bool;
    fn admit(&self, key: u64, payload: &[u8]) -> bool;
    fn note_absent(&self, key: u64);
}

impl<V: ArtifactCodec> StageCacheOps for StageCache<V> {
    fn set_capacity(&self, capacity: Option<usize>) -> u64 {
        StageCache::set_capacity(self, capacity)
    }
    fn reset(&self) {
        StageCache::reset(self)
    }
    fn contains_key(&self, key: u64) -> bool {
        StageCache::contains_key(self, key)
    }
    fn admit(&self, key: u64, payload: &[u8]) -> bool {
        StageCache::admit(self, key, payload)
    }
    fn note_absent(&self, key: u64) {
        StageCache::note_absent(self, key)
    }
    fn stats(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// A staged, cached, parallel design-space exploration session over the
/// benchmark registry. See the [module docs](self) for the state model
/// and a usage example.
#[derive(Debug)]
pub struct Explorer {
    registry: Registry,
    levels: Vec<OptLevel>,
    detector: DetectorConfig,
    opt_config: OptConfig,
    constraints: DesignConstraints,
    seed: u64,
    threads: usize,
    cache_capacity: Option<usize>,
    store: Option<Arc<ArtifactStore>>,
    remote: Option<Arc<RemoteTier>>,
    extra_tiers: Vec<Arc<dyn ArtifactTier>>,
    tiers: TierStack,
    caches: Caches,
    /// Decoded simulator engines, keyed by the compile key. Derived
    /// work, never persisted: the profile and evaluate stages share
    /// them so one session decodes each program exactly once.
    engines: StageCache<Engine>,
    /// Baseline output images, keyed by the profile key. The profile
    /// stage's own run captures each one (when the profile came from a
    /// tier instead, the first evaluation runs the baseline once), so
    /// an evaluation simulates only the rewritten program. Derived
    /// state, like `engines`.
    baselines: StageCache<OutputImage>,
    /// Coverage studies ([`asip_synth::coverage_report`]), keyed by the
    /// analyze key. Every design stage reads its feedback here, so a
    /// sweep runs each `(benchmark, level)` study once however many
    /// configs, suite designs and design spaces reach it. Derived
    /// state, like `engines`.
    coverage: StageCache<SequenceReport>,
    /// Rewritten-and-decoded designs, keyed by a hash of the compile
    /// key and the [`design_digest`]. Configs whose designs coincide —
    /// common in a constraint sweep — and the per-benchmark and suite
    /// evaluate stages share one entry, so each `(program, design)`
    /// pair is rewritten and decoded once per session. Derived state,
    /// like `engines`.
    prepared: StageCache<PreparedDesign>,
    /// Measurements of prepared designs on the seeded data, keyed by a
    /// hash of the prepared key and the seed: each `(program, design)`
    /// pair is simulated once per seed. Failures are not kept. Derived
    /// state, like `engines`.
    measurements: StageCache<Evaluation>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            registry: asip_benchmarks::registry(),
            levels: OptLevel::all().to_vec(),
            detector: DetectorConfig::default(),
            opt_config: OptConfig::default(),
            constraints: DesignConstraints::default(),
            seed: DEFAULT_SEED,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: None,
            store: None,
            remote: None,
            extra_tiers: Vec::new(),
            tiers: TierStack::new(),
            caches: Caches::default(),
            engines: StageCache::default(),
            baselines: StageCache::default(),
            coverage: StageCache::default(),
            prepared: StageCache::default(),
            measurements: StageCache::default(),
        }
    }
}

impl Explorer {
    /// A session over the Table-1 registry with default configuration:
    /// all three optimization levels, default detector and constraints,
    /// the paper seed, unbounded caches, and one worker per available
    /// core.
    pub fn new() -> Self {
        Explorer::default()
    }

    // -- builder (permanent state) -------------------------------------

    /// Replace the benchmark registry. Drops any cached artifacts, since
    /// a name may now resolve to a different program.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self.reset();
        self
    }

    /// Add one benchmark (e.g. a user kernel) to the session registry.
    /// A benchmark with the same name replaces the existing entry, and
    /// any cached artifacts are dropped so the name cannot serve stale
    /// results.
    pub fn with_benchmark(mut self, bench: Benchmark) -> Self {
        self.registry.push(bench);
        self.reset();
        self
    }

    /// Restrict which optimization levels [`Explorer::explore`] visits.
    pub fn with_levels(mut self, levels: impl IntoIterator<Item = OptLevel>) -> Self {
        self.levels = levels.into_iter().collect();
        self
    }

    /// Set the default sequence-detector configuration.
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// Set the default optimizer configuration. Cached artifacts stay
    /// valid — every stage key downstream of the optimizer includes the
    /// config, so old and new schedules (and the designs selected from
    /// them) coexist in the cache without cross-talk.
    pub fn with_opt_config(mut self, config: OptConfig) -> Self {
        self.opt_config = config;
        self
    }

    /// Set the default hardware constraints for the design stage.
    pub fn with_constraints(mut self, constraints: DesignConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Set the input-data seed (default: the paper seed, 1995).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the worker-thread count for [`Explorer::explore_all`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Bound every stage cache and derived-work memo to at most
    /// `capacity` entries (least recently used entries are evicted
    /// first; a capacity of 0 is treated as 1). The default is
    /// unbounded, which is fine for the twelve-benchmark registry but
    /// not for a session serving an open stream of sweeps — evictions
    /// are counted per stage in [`CacheStats`].
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        let cap = Some(capacity.max(1));
        self.cache_capacity = cap;
        for stage in Stage::all() {
            self.caches.stage(stage).set_capacity(cap);
        }
        self.engines.set_capacity(cap);
        self.baselines.set_capacity(cap);
        self.coverage.set_capacity(cap);
        self.prepared.set_capacity(cap);
        self.measurements.set_capacity(cap);
        self
    }

    /// Attach a persistent [`ArtifactStore`] rooted at `dir` as a
    /// read-through/write-through tier under the in-memory caches, so
    /// stage artifacts survive the process and separate binaries share
    /// work (see the [`store`](crate::store) module docs for the disk
    /// layout).
    ///
    /// Lookup order per stage request: typed memory cache → remote tier
    /// (if any) → disk store → compute (then write through to every
    /// persistent tier) — one [`TierStack`] walk, see [`crate::tier`].
    /// Store keys hash a digest of the benchmark *source*, the data spec, the
    /// seed and every configuration the stage depends on, so a store
    /// directory can be shared by sessions with different
    /// configurations — they simply address different entries. Missing,
    /// corrupted or version-skewed entries silently fall back to
    /// recompute; the `"disk"` tier's counters in [`CacheStats`] make
    /// hits, misses and corruption observable.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(Arc::new(ArtifactStore::open(dir)));
        self.rebuild_tiers();
        self
    }

    /// Attach a [`RemoteTier`] speaking to a running `serve` daemon at
    /// `addr` (`host:port` or `unix:/path` — see [`Endpoint::parse`]),
    /// inserted *above* the disk store: a warm server answers before
    /// any local disk read, and a storeless client (`[remote]`) runs
    /// entirely off the fleet-shared stack. Computed artifacts are written through, so every client
    /// populates the server for the others.
    ///
    /// Server failures are never session errors: each one degrades to
    /// a counted miss under `policy`'s retry/timeout/backoff bounds,
    /// and an unhealthy server is skipped (one probe per second) until
    /// it answers again. The `"remote"` tier's counters and the
    /// wire-level [`CacheStats::remote`] totals make every degradation
    /// observable.
    ///
    /// # Errors
    ///
    /// [`ExplorerError::InvalidEndpoint`] when `addr` does not parse —
    /// a malformed address is a configuration bug worth failing
    /// loudly, unlike runtime server failures.
    pub fn with_remote(mut self, addr: &str, policy: RetryPolicy) -> Result<Self, ExplorerError> {
        let endpoint = Endpoint::parse(addr).map_err(|detail| ExplorerError::InvalidEndpoint {
            addr: addr.into(),
            detail,
        })?;
        self.remote = Some(Arc::new(RemoteTier::new(endpoint, policy)));
        self.rebuild_tiers();
        Ok(self)
    }

    /// Plug an additional [`ArtifactTier`] into the bottom of the tier
    /// stack (probed after the remote tier and the disk store, written
    /// through if it is [persistent](ArtifactTier::persistent)). This is
    /// the extension point for custom shared caches — anything beyond
    /// the built-in disk store and [`Explorer::with_remote`] daemon —
    /// which need nothing beyond the trait's five methods. Its counters
    /// appear in [`CacheStats::tiers`] under its
    /// [`name`](ArtifactTier::name).
    pub fn with_tier(mut self, tier: Arc<dyn ArtifactTier>) -> Self {
        self.extra_tiers.push(tier);
        self.rebuild_tiers();
        self
    }

    /// Reassemble the tier stack from its parts: the remote tier, then
    /// the disk store, then any custom tiers in registration order.
    fn rebuild_tiers(&mut self) {
        let mut stack = TierStack::new();
        if let Some(remote) = &self.remote {
            stack.push(Arc::clone(remote) as Arc<dyn ArtifactTier>);
        }
        if let Some(store) = &self.store {
            stack.push(Arc::clone(store) as Arc<dyn ArtifactTier>);
        }
        for tier in &self.extra_tiers {
            stack.push(Arc::clone(tier));
        }
        self.tiers = stack;
    }

    // -- accessors -----------------------------------------------------

    /// The session's benchmark registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The levels [`Explorer::explore`] visits.
    pub fn levels(&self) -> &[OptLevel] {
        &self.levels
    }

    /// The session detector configuration.
    pub fn detector(&self) -> DetectorConfig {
        self.detector
    }

    /// The session optimizer configuration.
    pub fn opt_config(&self) -> OptConfig {
        self.opt_config
    }

    /// The session design constraints.
    pub fn constraints(&self) -> DesignConstraints {
        self.constraints
    }

    /// The session input-data seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-stage cache entry bound, if one was set.
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache_capacity
    }

    /// The attached artifact store, if [`Explorer::with_store`] was
    /// called.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_deref()
    }

    /// The attached remote tier, if [`Explorer::with_remote`] was
    /// called — for wire-level totals ([`RemoteTier::remote_totals`]),
    /// health probes ([`RemoteTier::ping`]) and server statistics
    /// ([`RemoteTier::server_stats`]).
    pub fn remote(&self) -> Option<&RemoteTier> {
        self.remote.as_deref()
    }

    /// The session's tier stack (empty for a storeless session). Its
    /// counters are reported per tier in [`CacheStats::tiers`].
    pub fn tier_stack(&self) -> &TierStack {
        &self.tiers
    }

    // -- ephemeral-state management ------------------------------------

    /// Drop every cached in-memory artifact and zero the counters
    /// (every tier's counters included).
    /// Configuration (registry, levels, stage parameters, cache bounds)
    /// is permanent and survives — as do the *entries* of an attached
    /// store: they are persistent state, shared with other processes,
    /// and stay valid because their keys hash artifact content identity
    /// rather than session history.
    pub fn reset(&self) {
        for stage in Stage::all() {
            self.caches.stage(stage).reset();
        }
        self.engines.reset();
        self.baselines.reset();
        self.coverage.reset();
        self.prepared.reset();
        self.measurements.reset();
        self.tiers.reset_counters();
    }

    /// Snapshot the per-stage cache hit/miss/eviction counters and live
    /// entry counts, and the counters of every mounted tier.
    pub fn cache_stats(&self) -> CacheStats {
        let c = &self.caches;
        CacheStats {
            compile: c.compile.stats(),
            profile: c.profile.stats(),
            schedule: c.schedule.stats(),
            analyze: c.analyze.stats(),
            design: c.design.stats(),
            evaluate: c.evaluate.stats(),
            design_suite: c.design_suite.stats(),
            evaluate_suite: c.evaluate_suite.stats(),
            design_space: c.design_space.stats(),
            tiers: self
                .tiers
                .tiers()
                .iter()
                .map(|t| TierReport {
                    name: t.name(),
                    stages: Stage::all().map(|s| t.stats(s)),
                })
                .collect(),
            gc_evictions: self.store.as_ref().map_or(0, |s| s.gc_evictions()),
            remote: self
                .remote
                .as_ref()
                .map(|tier| tier.remote_totals())
                .unwrap_or_default(),
            run_state: self.run_state_stats(),
            coverage_studies: self.coverage.misses.load(Ordering::Relaxed),
            coverage_reused: self.coverage.hits.load(Ordering::Relaxed),
            measurements: self.measurements.misses.load(Ordering::Relaxed),
            measurements_reused: self.measurements.hits.load(Ordering::Relaxed),
        }
    }

    /// Aggregated run-state pool counters across every live engine the
    /// session holds — the baseline engines plus the rewritten-design
    /// engines. The counters live on the engines themselves, so
    /// [`Explorer::reset`] (which drops the engines) zeroes them along
    /// with everything else ephemeral.
    fn run_state_stats(&self) -> RunStateStats {
        let mut stats = RunStateStats::default();
        for engine in self.engines.values() {
            stats.absorb(engine.run_state_stats());
        }
        for prepared in self.prepared.values() {
            stats.absorb(prepared.engine().run_state_stats());
        }
        stats
    }

    // -- stage methods -------------------------------------------------

    /// Resolve a benchmark by name.
    ///
    /// # Errors
    ///
    /// [`ExplorerError::UnknownBenchmark`] if `name` is not registered.
    pub fn benchmark(&self, name: &str) -> Result<Benchmark, ExplorerError> {
        self.registry
            .find(name)
            .copied()
            .ok_or_else(|| ExplorerError::UnknownBenchmark { name: name.into() })
    }

    /// Compile stage: mini-C source → validated 3-address code.
    ///
    /// # Errors
    ///
    /// Unknown benchmarks and front-end failures.
    pub fn compile(&self, name: &str) -> Result<Compiled, ExplorerError> {
        let benchmark = self.benchmark(name)?;
        let key = self.key_compile(&benchmark);
        let program =
            self.tiers
                .get_or_compute(Stage::Compile, &self.caches.compile, key, || {
                    Ok(benchmark.compile()?)
                })?;
        Ok(Compiled { benchmark, program })
    }

    /// The session's decoded simulator [`Engine`] for a benchmark:
    /// the compiled program lowered once into the pre-decoded execution
    /// form (see [`asip_sim::decode`]) and cached, so every simulation
    /// the session performs for this program — the profile stage's
    /// run and, for a profile served by a tier, the one lazy baseline
    /// run of the evaluate stage — shares one decode. The cache is
    /// dropped by [`Explorer::reset`] and bounded by
    /// [`Explorer::with_cache_capacity`] like the stage caches.
    ///
    /// # Errors
    ///
    /// Compile-stage errors.
    pub fn engine(&self, name: &str) -> Result<Arc<Engine>, ExplorerError> {
        let key = self.key_compile(&self.benchmark(name)?);
        self.engines
            .memo(key, || Ok(Engine::new(self.compile(name)?.program)))
    }

    /// The session's rewritten-and-decoded engine for a `(benchmark,
    /// design)` pair (see [`asip_synth::prepare`]), memoized under a
    /// hash of the compile key and a stable digest of the design, so
    /// sweeps that reach the same design again rewrite and decode it
    /// once, and concurrent requests for one pair share one `Arc`. Like
    /// the baseline engine cache, this is derived state: dropped by
    /// [`Explorer::reset`], bounded by [`Explorer::with_cache_capacity`].
    ///
    /// # Errors
    ///
    /// Compile-stage errors.
    pub fn prepared(
        &self,
        name: &str,
        design: &AsipDesign,
    ) -> Result<Arc<PreparedDesign>, ExplorerError> {
        let key = self.key_prepared(&self.benchmark(name)?, design);
        self.prepared.memo(key, || {
            Ok(asip_synth::prepare(&self.compile(name)?.program, design))
        })
    }

    /// The coverage study of `name`'s schedule at `level` under `opt`
    /// and `detector` — the feedback every design stage selects from —
    /// run once per key and then served from the session's memo.
    fn coverage(
        &self,
        name: &str,
        level: OptLevel,
        opt: OptConfig,
        detector: DetectorConfig,
    ) -> Result<Arc<SequenceReport>, ExplorerError> {
        let key = self.key_analyze(&self.benchmark(name)?, level, opt, detector);
        self.coverage.memo(key, || {
            let scheduled = self.schedule_with(name, level, opt)?;
            Ok(asip_synth::coverage_report(&scheduled.graph, detector))
        })
    }

    /// The baseline output image of `name` on the session's seeded
    /// data: captured by the profile stage's run, or — when the profile
    /// came from a tier — computed here by one baseline run and cached.
    fn baseline(&self, name: &str) -> Result<Arc<OutputImage>, ExplorerError> {
        let benchmark = self.benchmark(name)?;
        self.baselines.memo(self.key_profile(&benchmark), || {
            let data = benchmark.dataset_with_seed(self.seed);
            let (_, image) = self
                .engine(name)?
                .run_output(&data)
                .map_err(ExplorerError::Eval)?;
            Ok(image)
        })
    }

    /// Measure `design` on `name`: only the rewritten program runs. The
    /// baseline cycle count is the cached profile's `total_ops`, and
    /// the rewritten outputs are checked against the cached baseline
    /// image. A successful measurement is memoized per design and
    /// seed, so a design reached again under a seed it was measured on
    /// is not simulated again; a failure is not kept.
    fn measure(&self, name: &str, design: &AsipDesign) -> Result<Evaluation, ExplorerError> {
        let mut h = StableHasher::new();
        h.write_u64(self.key_prepared(&self.benchmark(name)?, design));
        h.write_u64(self.seed);
        let evaluation = self.measurements.memo(h.finish(), || {
            let prepared = self.prepared(name, design)?;
            let profiled = self.profile(name)?;
            let data = profiled.benchmark.dataset_with_seed(self.seed);
            let baseline = self.baseline(name)?;
            asip_synth::measure(&prepared, &data, profiled.profile.total_ops(), &baseline).map_err(
                |e| match e {
                    EvalError::Sim(e) => ExplorerError::Eval(e),
                    EvalError::OutputMismatch => ExplorerError::OutputMismatch {
                        benchmark: name.to_string(),
                    },
                },
            )
        })?;
        Ok((*evaluation).clone())
    }

    /// Profile stage: run the benchmark on its seeded Table-1 input
    /// data and collect per-instruction dynamic counts.
    ///
    /// # Errors
    ///
    /// Compile-stage errors plus simulator failures.
    pub fn profile(&self, name: &str) -> Result<Profiled, ExplorerError> {
        let compiled = self.compile(name)?;
        let seed = self.seed;
        let key = self.key_profile(&compiled.benchmark);
        let profile =
            self.tiers
                .get_or_compute(Stage::Profile, &self.caches.profile, key, || {
                    let data = compiled.benchmark.dataset_with_seed(seed);
                    // one pooled run yields the profile and the typed
                    // baseline output image every evaluation checks against
                    let (outcome, image) = self.engine(name)?.run_output(&data)?;
                    self.baselines.insert(key, Arc::new(image));
                    Ok(outcome.profile)
                })?;
        Ok(Profiled {
            benchmark: compiled.benchmark,
            seed,
            profile,
        })
    }

    /// Schedule stage at `level` with the session optimizer config.
    ///
    /// # Errors
    ///
    /// Propagates compile/profile-stage errors.
    pub fn schedule(&self, name: &str, level: OptLevel) -> Result<Scheduled, ExplorerError> {
        self.schedule_with(name, level, self.opt_config)
    }

    /// Schedule stage with an explicit optimizer config (sweeps share
    /// the cached compile and profile artifacts across configs).
    ///
    /// # Errors
    ///
    /// Propagates compile/profile-stage errors.
    pub fn schedule_with(
        &self,
        name: &str,
        level: OptLevel,
        config: OptConfig,
    ) -> Result<Scheduled, ExplorerError> {
        let profiled = self.profile(name)?;
        let compiled = self.compile(name)?;
        let key = self.key_schedule(&compiled.benchmark, level, config);
        let graph =
            self.tiers
                .get_or_compute(Stage::Schedule, &self.caches.schedule, key, || {
                    Ok(Optimizer::new(level)
                        .with_config(config)
                        .run(&compiled.program, &profiled.profile))
                })?;
        Ok(Scheduled {
            benchmark: compiled.benchmark,
            level,
            graph,
        })
    }

    /// Analyze stage at `level` with the session detector config.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors.
    pub fn analyze(&self, name: &str, level: OptLevel) -> Result<Analyzed, ExplorerError> {
        self.analyze_with(name, level, self.opt_config, self.detector)
    }

    /// Analyze stage with explicit optimizer and detector configs.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors.
    pub fn analyze_with(
        &self,
        name: &str,
        level: OptLevel,
        opt: OptConfig,
        detector: DetectorConfig,
    ) -> Result<Analyzed, ExplorerError> {
        let scheduled = self.schedule_with(name, level, opt)?;
        let key = self.key_analyze(&scheduled.benchmark, level, opt, detector);
        let report =
            self.tiers
                .get_or_compute(Stage::Analyze, &self.caches.analyze, key, || {
                    Ok(SequenceDetector::new(detector).analyze(&scheduled.graph))
                })?;
        Ok(Analyzed {
            benchmark: scheduled.benchmark,
            level,
            report,
        })
    }

    /// Design stage: select ISA extensions under the session constraints
    /// from the *cached* schedule at the constraints' feedback level —
    /// the same graph [`Explorer::analyze`] reports, session
    /// [`OptConfig`] included. After an `analyze` at that level, this
    /// performs zero optimizer runs.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors.
    pub fn design(&self, name: &str) -> Result<Designed, ExplorerError> {
        self.design_with(name, self.constraints, self.detector)
    }

    /// Design stage with explicit constraints and detector config. The
    /// schedule feeding selection still honors the session
    /// [`OptConfig`], and the cache key includes it, so sessions (or
    /// sweeps) differing only in optimizer knobs never share design
    /// entries.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors.
    pub fn design_with(
        &self,
        name: &str,
        constraints: DesignConstraints,
        detector: DetectorConfig,
    ) -> Result<Designed, ExplorerError> {
        let compiled = self.compile(name)?;
        let key = self.key_design(Stage::Design, &compiled.benchmark, constraints, detector);
        let design = self
            .tiers
            .get_or_compute(Stage::Design, &self.caches.design, key, || {
                let report =
                    self.coverage(name, constraints.opt_level, self.opt_config, detector)?;
                Ok(AsipDesigner::new(constraints)
                    .design_from_reports(&[(&report, &compiled.program)]))
            })?;
        Ok(Designed {
            benchmark: compiled.benchmark,
            design,
        })
    }

    /// Evaluate stage: rewrite the program with the selected design and
    /// measure the cycle-count effect on the profiling simulator.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors; simulator failures of the
    /// rewritten run surface as [`ExplorerError::Eval`], and a
    /// rewritten program whose outputs differ from the baseline's as
    /// [`ExplorerError::OutputMismatch`].
    pub fn evaluate(&self, name: &str) -> Result<Evaluated, ExplorerError> {
        self.evaluate_with(name, self.constraints, self.detector)
    }

    /// Evaluate stage with explicit constraints and detector config
    /// (budget/clock sweeps share every earlier stage).
    ///
    /// # Errors
    ///
    /// As [`Explorer::evaluate`].
    pub fn evaluate_with(
        &self,
        name: &str,
        constraints: DesignConstraints,
        detector: DetectorConfig,
    ) -> Result<Evaluated, ExplorerError> {
        let designed = self.design_with(name, constraints, detector)?;
        let compiled = self.compile(name)?;
        let key = self.key_design(Stage::Evaluate, &compiled.benchmark, constraints, detector);
        let evaluation =
            self.tiers
                .get_or_compute(Stage::Evaluate, &self.caches.evaluate, key, || {
                    self.measure(name, &designed.design)
                })?;
        Ok(Evaluated {
            benchmark: compiled.benchmark,
            design: designed.design,
            evaluation,
        })
    }

    // -- suite stages --------------------------------------------------

    /// Suite-design stage over the whole registry: one shared extension
    /// set tuned to every registered benchmark (the paper's "an ASIP …
    /// tuned to a suite of applications"), under the session
    /// constraints and detector.
    ///
    /// # Errors
    ///
    /// [`ExplorerError::EmptySuite`] for an empty registry, plus
    /// earlier-stage errors for any member.
    pub fn design_suite(&self) -> Result<DesignedSuite, ExplorerError> {
        let names: Vec<&str> = self.registry.iter().map(|b| b.name).collect();
        self.design_suite_with(&names, self.constraints, self.detector)
    }

    /// Suite-design stage for an explicit member set with explicit
    /// constraints and detector config. The members are deduplicated
    /// and sorted, so any ordering of the same set is the same cache
    /// key; the key also carries the seed and every configuration that
    /// feeds selection. Member schedules are computed in parallel on
    /// the session thread pool (each a cache hit if already present).
    ///
    /// # Errors
    ///
    /// [`ExplorerError::EmptySuite`] when `names` is empty,
    /// [`ExplorerError::UnknownBenchmark`] for an unregistered member,
    /// plus earlier-stage errors.
    pub fn design_suite_with(
        &self,
        names: &[&str],
        constraints: DesignConstraints,
        detector: DetectorConfig,
    ) -> Result<DesignedSuite, ExplorerError> {
        let members = self.suite_members(names)?;
        let key = self.key_suite(Stage::DesignSuite, &members, constraints, detector);
        let opt = self.opt_config;
        let design = self.tiers.get_or_compute(
            Stage::DesignSuite,
            &self.caches.design_suite,
            key,
            || {
                // a warm-but-not-memoized suite reads its members'
                // compile/profile/schedule artifacts from disk: stage
                // them in parallel first (no-op without a store)
                self.prefetch_members(&members, &[constraints.opt_level], opt);
                let staged = self.map_slice(&members, |name| {
                    let report = self.coverage(name, constraints.opt_level, opt, detector)?;
                    Ok((report, self.compile(name)?))
                })?;
                let suite: Vec<(&SequenceReport, &Program)> = staged
                    .iter()
                    .map(|(r, c)| (r.as_ref(), c.program.as_ref()))
                    .collect();
                Ok(AsipDesigner::new(constraints).design_from_reports(&suite))
            },
        )?;
        Ok(DesignedSuite {
            benchmarks: members,
            design,
        })
    }

    /// Suite-evaluate stage over the whole registry: design one shared
    /// extension set ([`Explorer::design_suite`]) and measure it on
    /// every member.
    ///
    /// # Errors
    ///
    /// As [`Explorer::evaluate_suite_with`].
    pub fn evaluate_suite(&self) -> Result<EvaluatedSuite, ExplorerError> {
        let names: Vec<&str> = self.registry.iter().map(|b| b.name).collect();
        self.evaluate_suite_with(&names, self.constraints, self.detector)
    }

    /// Suite-evaluate stage for an explicit member set: the shared
    /// design is applied to each member program and measured on the
    /// profiling simulator, in parallel over the session thread pool.
    /// Results are keyed and ordered by the sorted member set.
    ///
    /// # Errors
    ///
    /// Everything [`Explorer::design_suite_with`] raises; measurement
    /// failures surface as [`ExplorerError::Eval`] or
    /// [`ExplorerError::OutputMismatch`].
    pub fn evaluate_suite_with(
        &self,
        names: &[&str],
        constraints: DesignConstraints,
        detector: DetectorConfig,
    ) -> Result<EvaluatedSuite, ExplorerError> {
        let designed = self.design_suite_with(names, constraints, detector)?;
        let key = self.key_suite(
            Stage::EvaluateSuite,
            &designed.benchmarks,
            constraints,
            detector,
        );
        let design = Arc::clone(&designed.design);
        let evaluations = self.tiers.get_or_compute(
            Stage::EvaluateSuite,
            &self.caches.evaluate_suite,
            key,
            || {
                // each member measurement starts from its compiled
                // program and its profile: stage the not-yet-memoized
                // reads in parallel
                self.prefetch_members(&designed.benchmarks, &[], self.opt_config);
                self.map_slice(&designed.benchmarks, |name| {
                    Ok((name.clone(), self.measure(name, &design)?))
                })
            },
        )?;
        Ok(EvaluatedSuite {
            benchmarks: designed.benchmarks,
            design: designed.design,
            evaluations,
        })
    }

    /// Design-space stage over the whole registry: explore every config
    /// of `configs` against the full suite in one incremental frontier
    /// search (see [`AsipDesigner::explore_design_space`]), under the
    /// session detector.
    ///
    /// # Errors
    ///
    /// As [`Explorer::design_space_with`].
    pub fn design_space(
        &self,
        configs: &[DesignConstraints],
    ) -> Result<DesignSpaced, ExplorerError> {
        let names: Vec<&str> = self.registry.iter().map(|b| b.name).collect();
        self.design_space_with(&names, configs, self.detector)
    }

    /// Design-space stage for an explicit member set and constraint
    /// grid. The whole grid is one cached artifact: the configs are
    /// canonicalized (sorted, deduplicated) so any ordering of the same
    /// grid is the same cache key, and the search shares coverage
    /// reports, unit-cost evaluations and static-match tests across
    /// configs through one memo table. Member schedules are computed
    /// once per *distinct feedback level in the grid* (each a cache hit
    /// if already present), in parallel on the session pool — a
    /// 256-config sweep performs no optimizer run beyond those, and a
    /// warm store serves the whole artifact with zero recomputes.
    ///
    /// # Errors
    ///
    /// [`ExplorerError::EmptySuite`] when `names` or `configs` is
    /// empty, [`ExplorerError::UnknownBenchmark`] for an unregistered
    /// member, plus earlier-stage errors.
    pub fn design_space_with(
        &self,
        names: &[&str],
        configs: &[DesignConstraints],
        detector: DetectorConfig,
    ) -> Result<DesignSpaced, ExplorerError> {
        let members = self.suite_members(names)?;
        if configs.is_empty() {
            return Err(ExplorerError::EmptySuite);
        }
        let configs = asip_synth::frontier::canonicalize_configs(configs);
        let opt = self.opt_config;
        let key = self.key_design_space(&members, &configs, detector);
        let space = self.tiers.get_or_compute(
            Stage::DesignSpace,
            &self.caches.design_space,
            key,
            || {
                // the grid needs one schedule per (member, distinct
                // feedback level); stage the persisted ones in parallel
                let mut levels: Vec<OptLevel> = configs.iter().map(|c| c.opt_level).collect();
                levels.sort_by_key(|l| l.number());
                levels.dedup();
                self.prefetch_members(&members, &levels, opt);
                let work: Vec<(OptLevel, String)> = levels
                    .iter()
                    .flat_map(|&level| members.iter().map(move |m| (level, m.clone())))
                    .collect();
                let staged = self.map_slice(&work, |(level, name)| {
                    let report = self.coverage(name, *level, opt, detector)?;
                    Ok((*level, report, self.compile(name)?))
                })?;
                let feedback: Vec<LevelFeedback<'_>> = levels
                    .iter()
                    .map(|&level| LevelFeedback {
                        level,
                        suite: staged
                            .iter()
                            .filter(|(l, _, _)| *l == level)
                            .map(|(_, r, c)| (r.as_ref(), c.program.as_ref()))
                            .collect(),
                    })
                    .collect();
                // the designer's own constraints are not consulted by
                // explore_design_space; any config seeds it
                Ok(AsipDesigner::new(configs[0]).explore_design_space(&feedback, &configs))
            },
        )?;
        Ok(DesignSpaced {
            benchmarks: members,
            space,
        })
    }

    /// Validate and canonicalize a suite member set: every name must
    /// resolve, duplicates collapse, and the result is sorted so member
    /// order never changes the cache key (or the combine order).
    fn suite_members(&self, names: &[&str]) -> Result<Vec<String>, ExplorerError> {
        if names.is_empty() {
            return Err(ExplorerError::EmptySuite);
        }
        let mut members = BTreeSet::new();
        for name in names {
            self.benchmark(name)?;
            members.insert((*name).to_string());
        }
        Ok(members.into_iter().collect())
    }

    /// Run the complete pipeline for one benchmark: every configured
    /// level's schedule and analysis, plus the design and its measured
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Propagates the first stage error encountered.
    pub fn explore(&self, name: &str) -> Result<Exploration, ExplorerError> {
        let compiled = self.compile(name)?;
        let profiled = self.profile(name)?;
        let mut levels = Vec::with_capacity(self.levels.len());
        for &level in &self.levels {
            let scheduled = self.schedule(name, level)?;
            let analyzed = self.analyze(name, level)?;
            levels.push((scheduled, analyzed));
        }
        let designed = self.design(name)?;
        let evaluated = self.evaluate(name)?;
        Ok(Exploration {
            benchmark: compiled.benchmark,
            compiled,
            profiled,
            levels,
            designed,
            evaluated,
        })
    }

    /// Explore every benchmark in the registry, fanning the work out
    /// over the session's worker threads. Results come back in registry
    /// order regardless of scheduling.
    ///
    /// When a tier is mounted, the suite's persisted artifacts are
    /// [prefetched](Explorer::prefetch) before the fan-out: one batch
    /// read per tier, decoded on the same thread pool, so a warm run's
    /// stage requests read no tier.
    ///
    /// # Errors
    ///
    /// The first stage error encountered (work in flight completes).
    pub fn explore_all(&self) -> Result<Vec<Exploration>, ExplorerError> {
        let names: Vec<&str> = self.registry.iter().map(|b| b.name).collect();
        self.prefetch(&names)?;
        self.map_all(|b| self.explore(b.name))
    }

    /// Run `f` for every registry benchmark on the session thread pool,
    /// preserving registry order. `f` typically composes stage methods,
    /// so all workers share the session caches.
    ///
    /// # Errors
    ///
    /// The first error any worker produced (in registry order).
    pub fn map_all<T, F>(&self, f: F) -> Result<Vec<T>, ExplorerError>
    where
        T: Send,
        F: Fn(&Benchmark) -> Result<T, ExplorerError> + Sync,
    {
        let benches: Vec<Benchmark> = self.registry.iter().copied().collect();
        self.map_slice(&benches, f)
    }

    /// The worker pool behind [`Explorer::map_all`]: a shared atomic
    /// work index over `items`, one result slot per item. With one
    /// worker the items run in order on the calling thread: a spawned
    /// thread would buy no parallelism and cost a spawn per call.
    fn map_slice<I, T, F>(&self, items: &[I], f: F) -> Result<Vec<T>, ExplorerError>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> Result<T, ExplorerError> + Sync,
    {
        if self.threads.min(items.len()) <= 1 {
            // every item runs, as on the pool, before the first error wins
            let results: Vec<Result<T, ExplorerError>> = items.iter().map(f).collect();
            return results.into_iter().collect();
        }
        let slots: Vec<Mutex<Option<Result<T, ExplorerError>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    *lock(&slots[i]) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                lock(&slot)
                    .take()
                    .expect("every slot is filled before scope exit")
            })
            .collect()
    }

    // -- recipe keys ---------------------------------------------------

    /// Derive one stage request's recipe key: the one identity of an
    /// artifact, under which the typed cache, the derived memos and
    /// every tier file it. The closure feeds every input the artifact is
    /// a pure function of; the common prefix (format version + stage
    /// name) is folded in here so no two stages can collide.
    fn disk_key(&self, stage: Stage, feed: impl FnOnce(&mut StableHasher)) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(u64::from(crate::store::FORMAT_VERSION));
        // The crate version is part of every key: stage artifacts are
        // functions of the stage *algorithms*, not just their inputs, so
        // a new release must never be served a previous release's
        // artifacts. (Unreleased algorithm changes still require a
        // FORMAT_VERSION bump — see its docs.)
        h.write_str(env!("CARGO_PKG_VERSION"));
        h.write_str(stage.name());
        feed(&mut h);
        h.finish()
    }

    // -- per-stage key recipes -----------------------------------------
    //
    // One function per stage, shared by the stage methods, the memos and
    // the prefetcher — so none can disagree on what identifies an
    // artifact.

    fn key_compile(&self, b: &Benchmark) -> u64 {
        self.disk_key(Stage::Compile, |h| hash_benchmark(h, b))
    }

    /// The key of a prepared design: the compile key and the
    /// [`design_digest`] (the rewrite depends on nothing else).
    fn key_prepared(&self, b: &Benchmark, design: &AsipDesign) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.key_compile(b));
        h.write_u64(design_digest(design));
        h.finish()
    }

    fn key_profile(&self, b: &Benchmark) -> u64 {
        self.disk_key(Stage::Profile, |h| {
            hash_benchmark(h, b);
            h.write_u64(self.seed);
        })
    }

    fn key_schedule(&self, b: &Benchmark, level: OptLevel, config: OptConfig) -> u64 {
        self.disk_key(Stage::Schedule, |h| {
            hash_benchmark(h, b);
            h.write_u64(self.seed);
            hash_level(h, level);
            hash_opt_config(h, config);
        })
    }

    fn key_analyze(
        &self,
        b: &Benchmark,
        level: OptLevel,
        opt: OptConfig,
        detector: DetectorConfig,
    ) -> u64 {
        self.disk_key(Stage::Analyze, |h| {
            hash_benchmark(h, b);
            h.write_u64(self.seed);
            hash_level(h, level);
            hash_opt_config(h, opt);
            hash_detector(h, detector);
        })
    }

    fn key_design(
        &self,
        stage: Stage,
        b: &Benchmark,
        constraints: DesignConstraints,
        detector: DetectorConfig,
    ) -> u64 {
        debug_assert!(matches!(stage, Stage::Design | Stage::Evaluate));
        self.disk_key(stage, |h| {
            hash_benchmark(h, b);
            h.write_u64(self.seed);
            hash_constraints(h, constraints);
            hash_detector(h, detector);
            hash_opt_config(h, self.opt_config);
        })
    }

    /// The key of a suite stage over (already validated, sorted)
    /// `members`: every member's content identity, the seed and every
    /// configuration that feeds suite selection.
    fn key_suite(
        &self,
        stage: Stage,
        members: &[String],
        constraints: DesignConstraints,
        detector: DetectorConfig,
    ) -> u64 {
        debug_assert!(matches!(stage, Stage::DesignSuite | Stage::EvaluateSuite));
        self.disk_key(stage, |h| {
            self.hash_members(h, members);
            h.write_u64(self.seed);
            hash_constraints(h, constraints);
            hash_detector(h, detector);
            hash_opt_config(h, self.opt_config);
        })
    }

    /// The key of the design-space stage: the suite-stage inputs, with
    /// the canonicalized constraint grid in place of one constraint set.
    fn key_design_space(
        &self,
        members: &[String],
        configs: &[DesignConstraints],
        detector: DetectorConfig,
    ) -> u64 {
        self.disk_key(Stage::DesignSpace, |h| {
            self.hash_members(h, members);
            h.write_u64(self.seed);
            h.write_usize(configs.len());
            for &c in configs {
                hash_constraints(h, c);
            }
            hash_detector(h, detector);
            hash_opt_config(h, self.opt_config);
        })
    }

    /// Feed the member count and every member's content identity.
    fn hash_members(&self, h: &mut StableHasher, members: &[String]) {
        h.write_usize(members.len());
        for name in members {
            let bench = self
                .registry
                .find(name)
                .expect("suite members are validated against the registry");
            hash_benchmark(h, bench);
        }
    }

    // -- suite prefetch ------------------------------------------------

    /// Read the persisted artifacts of `names` from the tier stack in
    /// one batch per tier and decode them, on the session thread pool,
    /// straight into the typed caches. For each benchmark this covers
    /// every stage the session's configuration would request (compile,
    /// profile, the configured levels' schedules and analyses, the
    /// design-feedback schedule, design and evaluate). The stage
    /// requests that follow are typed-cache hits that read no tier; each
    /// admitted artifact counts as a `prefetch_hit` in [`CacheStats`].
    ///
    /// A no-op (returning 0, after validating the names) when no tier is
    /// mounted. Returns the number of artifacts admitted; entries absent
    /// from every tier, already resident in the typed caches (a
    /// memory-warm session re-reads nothing) or failing typed decoding
    /// contribute nothing. An entry absent from every tier is recorded
    /// as such: its first request computes without probing the tiers a
    /// second time. A payload that fails decoding is not absent; it is
    /// left to the request path, which reads it again and counts it
    /// corrupt on the tier that served it. Under a
    /// [cache bound](Explorer::with_cache_capacity), a stage with more
    /// missing entries than the bound is not prefetched: its requests
    /// read each entry once instead. [`Explorer::explore_all`] and the
    /// suite stages call this automatically; call it directly when
    /// warming a custom request pattern.
    ///
    /// # Errors
    ///
    /// [`ExplorerError::UnknownBenchmark`] for an unregistered name.
    pub fn prefetch(&self, names: &[&str]) -> Result<usize, ExplorerError> {
        let benches: Vec<Benchmark> = names
            .iter()
            .map(|name| self.benchmark(name))
            .collect::<Result<_, _>>()?;
        if self.tiers.is_empty() {
            return Ok(0);
        }
        // every configured level, plus the design stage's feedback level
        // (which may not be in the configured list)
        let mut levels: BTreeSet<OptLevel> = self.levels.iter().copied().collect();
        levels.insert(self.constraints.opt_level);
        let levels: Vec<OptLevel> = levels.into_iter().collect();
        let (opt, det) = (self.opt_config, self.detector);
        let mut keys = Vec::new();
        for bench in &benches {
            self.upstream_keys(bench, &levels, opt, &mut keys);
            for &level in &self.levels {
                keys.push((Stage::Analyze, self.key_analyze(bench, level, opt, det)));
            }
            let key = self.key_design(Stage::Design, bench, self.constraints, det);
            keys.push((Stage::Design, key));
            let key = self.key_design(Stage::Evaluate, bench, self.constraints, det);
            keys.push((Stage::Evaluate, key));
        }
        Ok(self.prefetch_keys(keys))
    }

    /// Prefetch what a suite stage's computation will request of its
    /// (already validated) `members`: compile, profile and the
    /// schedules at `levels`.
    fn prefetch_members(&self, members: &[String], levels: &[OptLevel], opt: OptConfig) {
        if self.tiers.is_empty() {
            return;
        }
        let mut keys = Vec::new();
        for bench in members.iter().filter_map(|name| self.registry.find(name)) {
            self.upstream_keys(bench, levels, opt, &mut keys);
        }
        self.prefetch_keys(keys);
    }

    /// Push the keys of `bench`'s compile and profile artifacts and of
    /// its schedules at `levels` under `opt`.
    fn upstream_keys(
        &self,
        bench: &Benchmark,
        levels: &[OptLevel],
        opt: OptConfig,
        keys: &mut Vec<(Stage, u64)>,
    ) {
        keys.push((Stage::Compile, self.key_compile(bench)));
        keys.push((Stage::Profile, self.key_profile(bench)));
        for &level in levels {
            keys.push((Stage::Schedule, self.key_schedule(bench, level, opt)));
        }
    }

    /// Read the keys the typed caches do not hold with one batch per
    /// tier and admit every decodable payload, returning how many were
    /// admitted. A key no tier holds is noted absent, so its request
    /// computes without reading the tiers again. Infallible: a key that
    /// cannot be admitted is skipped.
    ///
    /// A stage whose missing keys outnumber the
    /// [cache bound](Explorer::with_cache_capacity) is left to its
    /// requests: admitting them would evict all but the last few, and
    /// each evicted artifact would then be read and decoded again.
    fn prefetch_keys(&self, mut keys: Vec<(Stage, u64)>) -> usize {
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|&(stage, key)| !self.caches.stage(stage).contains_key(key));
        if let Some(capacity) = self.cache_capacity {
            let mut missing = [0; STAGE_COUNT];
            for &(stage, _) in &keys {
                missing[stage as usize] += 1;
            }
            keys.retain(|&(stage, _)| missing[stage as usize] <= capacity);
        }
        let reads = self.tiers.read_batch(0, &keys);
        let mut hits = Vec::new();
        for ((stage, key), read) in keys.into_iter().zip(reads) {
            match read {
                Some((_, payload)) => hits.push(((stage, key), payload)),
                None => self.caches.stage(stage).note_absent(key),
            }
        }
        let admitted = self.map_slice(&hits, |((stage, key), payload)| {
            Ok(self.caches.stage(*stage).admit(*key, payload))
        });
        admitted.map_or(0, |a| a.into_iter().filter(|&ok| ok).count())
    }
}

/// Feed a benchmark's content identity: the suite tag (so a generated
/// program can never collide with a Table-1 artifact even under a reused
/// name), the name, the XXH64 digest of the *source bytes* (so a replaced
/// registry entry can never serve the old program, while a key hashes
/// eight bytes of source instead of all of it) and the input-data
/// specification.
fn hash_benchmark(h: &mut StableHasher, b: &Benchmark) {
    h.write(&[b.suite.tag()]);
    h.write_str(b.name);
    h.write_u64(crate::store::checksum(b.source.as_bytes()));
    hash_data_spec(h, b.data);
}

fn hash_data_spec(h: &mut StableHasher, spec: DataSpec) {
    match spec {
        DataSpec::Floats { name, n } => {
            h.write_str("floats");
            h.write_str(name);
            h.write_usize(n);
        }
        DataSpec::Ints { name, n } => {
            h.write_str("ints");
            h.write_str(name);
            h.write_usize(n);
        }
        DataSpec::Image { name, w, h: height } => {
            h.write_str("image");
            h.write_str(name);
            h.write_usize(w);
            h.write_usize(height);
        }
        DataSpec::Multi { specs } => {
            h.write_str("multi");
            h.write_usize(specs.len());
            for &inner in specs {
                hash_data_spec(h, inner);
            }
        }
    }
}

fn hash_level(h: &mut StableHasher, level: OptLevel) {
    h.write_usize(level as usize);
}

fn hash_opt_config(h: &mut StableHasher, c: OptConfig) {
    h.write_usize(c.unroll);
    h.write_bool(c.merge_blocks);
    h.write_usize(c.width);
    h.write_usize(c.hoist_passes);
    h.write_usize(c.if_convert_max_ops);
}

/// Feed a detector configuration. The chainable-class policy is a
/// function pointer, whose address is useless across processes (ASLR);
/// its observable behavior — the truth table over every [`OpClass`] —
/// is hashed instead, so two processes with the same policy share
/// entries and different policies never collide.
fn hash_detector(h: &mut StableHasher, c: DetectorConfig) {
    h.write_usize(c.min_len);
    h.write_usize(c.max_len);
    h.write_usize(c.window);
    h.write_f64(c.prune_floor);
    for &class in OpClass::all() {
        h.write_bool((c.chainable)(class));
    }
}

fn hash_constraints(h: &mut StableHasher, c: DesignConstraints) {
    h.write_f64(c.area_budget);
    h.write_f64(c.clock_ns);
    h.write_usize(c.max_extensions);
    hash_level(h, c.opt_level);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_counter_layout() {
        // `Stage as usize` indexes the counter arrays; pin the layout.
        for (i, s) in Stage::all().into_iter().enumerate() {
            assert_eq!(s as usize, i);
        }
        assert_eq!(Stage::all().len(), 9);
    }

    #[test]
    fn unknown_benchmark_is_an_error_not_a_panic() {
        let session = Explorer::new();
        let err = session.compile("not-a-benchmark").unwrap_err();
        assert!(matches!(err, ExplorerError::UnknownBenchmark { .. }));
    }

    #[test]
    fn one_thread_sessions_run_stage_closures_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let session = Explorer::new().with_threads(1);
        let ran_on = session
            .map_all(|_| Ok(std::thread::current().id()))
            .expect("maps");
        assert_eq!(ran_on.len(), session.registry().len());
        assert!(ran_on.iter().all(|&id| id == caller));

        // a wider pool still spreads the work over spawned workers
        let pooled = Explorer::new().with_threads(2);
        let ran_on = pooled
            .map_all(|_| Ok(std::thread::current().id()))
            .expect("maps");
        assert!(ran_on.iter().all(|&id| id != caller));
    }

    #[test]
    fn one_thread_sessions_run_every_item_and_return_the_first_error() {
        let session = Explorer::new().with_threads(1);
        let ran = AtomicUsize::new(0);
        let err = session
            .map_all(|b| {
                ran.fetch_add(1, Ordering::Relaxed);
                session.compile(if b.name == "fir" { "no-such" } else { b.name })
            })
            .unwrap_err();
        assert!(matches!(err, ExplorerError::UnknownBenchmark { .. }));
        assert_eq!(ran.load(Ordering::Relaxed), session.registry().len());
    }

    #[test]
    fn reset_clears_ephemeral_state_only() {
        let session = Explorer::new().with_levels([OptLevel::Pipelined]);
        session.profile("sewha").expect("profiles");
        assert_eq!(session.cache_stats().compile.misses, 1);
        session.reset();
        assert_eq!(session.cache_stats(), CacheStats::default());
        // permanent state survives: same configuration, fresh caches
        assert_eq!(session.levels(), &[OptLevel::Pipelined]);
        session.profile("sewha").expect("profiles again");
        assert_eq!(session.cache_stats().profile.misses, 1);
    }

    #[test]
    fn warm_sweeps_reuse_pooled_run_states_and_prepared_designs() {
        let session = Explorer::new().with_levels([OptLevel::Pipelined]);
        session.evaluate("sewha").expect("evaluates");
        let warm = session.cache_stats().run_state;
        assert!(warm.checkouts >= warm.creates);
        assert!(warm.creates > 0, "the first runs had to allocate");

        // the same design on fresh data: the prepared engine is served
        // from the rewritten cache, no re-prepare
        let design = session.evaluate("sewha").expect("cached").design;
        let a = session.prepared("sewha", &design).expect("prepares");
        let b = session.prepared("sewha", &design).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "same design digest, same engine");

        // store-warm sweep: more pooled runs, zero new bank allocations
        let data = session
            .benchmark("sewha")
            .expect("registered")
            .dataset_with_seed(7);
        for _ in 0..4 {
            a.engine().run_profile(&data).expect("runs");
            session
                .engine("sewha")
                .expect("cached")
                .run_profile(&data)
                .expect("runs");
        }
        let after = session.cache_stats().run_state;
        assert_eq!(after.creates, warm.creates, "warm sweeps allocate nothing");
        assert_eq!(after.checkouts, warm.checkouts + 8);
    }

    #[test]
    fn measurements_follow_the_session_seed() {
        // one design measured on `edge` under two seeds: the data moves
        // its cycle count, and the re-seeded session must report the
        // new seed's measurement, not the stored one
        let session = Explorer::new().with_seed(1995);
        let design = session.evaluate("edge").expect("evaluates").design;
        let first = session.measure("edge", &design).expect("measures");
        let session = session.with_seed(7);
        let second = session.measure("edge", &design).expect("measures");
        let fresh = Explorer::new()
            .with_seed(7)
            .measure("edge", &design)
            .expect("measures");
        assert_ne!(
            first.base_cycles, second.base_cycles,
            "edge is data-dependent"
        );
        assert_eq!(second, fresh);
        // the same seed again is served from the entry
        let reused = session.cache_stats().measurements_reused;
        assert_eq!(session.measure("edge", &design).expect("cached"), fresh);
        assert_eq!(session.cache_stats().measurements_reused, reused + 1);
    }

    #[test]
    fn suite_members_sort_dedup_and_validate() {
        let session = Explorer::new();
        let members = session
            .suite_members(&["fir", "sewha", "fir", "bspline"])
            .expect("all registered");
        assert_eq!(members, ["bspline", "fir", "sewha"]);
        assert!(matches!(
            session.suite_members(&[]).unwrap_err(),
            ExplorerError::EmptySuite
        ));
        assert!(matches!(
            session.suite_members(&["fir", "nope"]).unwrap_err(),
            ExplorerError::UnknownBenchmark { .. }
        ));
    }

    #[test]
    fn storeless_sessions_have_an_empty_tier_stack() {
        let session = Explorer::new();
        assert!(session.tier_stack().is_empty());
        assert!(session.cache_stats().tiers.is_empty());
    }

    #[test]
    fn with_store_builds_a_disk_only_stack_and_remote_goes_above_it() {
        let dir = std::env::temp_dir().join(format!("asip-session-stack-{}", std::process::id()));
        let names = |session: &Explorer| -> Vec<&'static str> {
            let stack = session.tier_stack().tiers();
            stack.iter().map(|t| t.name()).collect()
        };
        let session = Explorer::new().with_store(&dir);
        assert_eq!(names(&session), ["disk"]);
        let reported: Vec<&str> = session.cache_stats().tiers.iter().map(|t| t.name).collect();
        assert_eq!(reported, names(&session), "one report per tier, in order");
        // mounting a remote tier dials nothing
        let client = session
            .with_remote("127.0.0.1:1", RetryPolicy::default())
            .expect("endpoint parses");
        assert_eq!(names(&client), ["remote", "disk"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tier_reports_by_name_sum_same_named_tiers_and_default_to_empty() {
        use crate::cache::MemoryTier;
        let (a, b) = (Arc::new(MemoryTier::new()), Arc::new(MemoryTier::new()));
        a.put(Stage::Compile, 1, b"x");
        b.put(Stage::Compile, 2, b"y");
        b.put(Stage::Profile, 3, b"z");
        let stats = Explorer::new().with_tier(a).with_tier(b).cache_stats();
        let memory = stats.tier("memory");
        assert_eq!(stats.tiers.len(), 2);
        assert_eq!(memory.stage(Stage::Compile).writes, 2);
        assert_eq!(memory.stage(Stage::Profile).entries, 1);
        assert_eq!(memory.total().writes, 3);
        let absent = stats.tier("disk");
        assert_eq!((absent.name, absent.stages), ("disk", Default::default()));
    }
}
