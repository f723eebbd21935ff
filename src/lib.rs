//! # asip-explorer
//!
//! A compiler-in-the-loop ASIP design exploration framework reproducing
//! *"Incorporating Compiler Feedback Into the Design of ASIPs"*
//! (Onion, Nicolau, Dutt — DATE 1995).
//!
//! The public API is the [`Explorer`] session: a builder-configured
//! facade over the paper's Figure 1/2 pipeline with typed stage
//! artifacts ([`Compiled`] → [`Profiled`] → [`Scheduled`] →
//! [`Analyzed`] → [`Designed`] → [`Evaluated`], plus the suite-level
//! [`DesignedSuite`] → [`EvaluatedSuite`] pair), per-stage memoization
//! keyed by each artifact's recipe key (a stable hash of the benchmark
//! and every configuration it depends on) with single-flight computes
//! and optional LRU bounds ([`Explorer::with_cache_capacity`]), a
//! thread-pooled [`Explorer::explore_all`] over the whole Table-1
//! registry, and one unified [`ExplorerError`].
//!
//! The design stage consumes the *same* cached schedule the analyze
//! stage reports — session optimizer configuration included — so
//! compiler feedback and extension selection can never silently
//! diverge, and a design after an analyze costs zero optimizer runs.
//!
//! Beyond single configurations, [`Explorer::design_space`] runs an
//! incremental pareto-frontier search over a whole grid of
//! [`DesignConstraints`](synth::DesignConstraints) at once: candidate
//! costs, coverage reports and rewrite-benefit estimates are shared
//! across configs through a per-search memo table, so a 256-point
//! sweep performs exactly one optimizer run per distinct
//! `(benchmark, optimization level)` pair — and the whole grid is one
//! cached [`DesignSpaced`] artifact that persists through the tier
//! stack like any other stage (see `docs/design-space.md`).
//!
//! Sessions can also persist their artifacts *across* processes:
//! [`Explorer::with_store`] layers a content-addressed on-disk
//! [`ArtifactStore`] under the in-memory caches, so the eleven
//! paper-reproduction binaries share one pipeline run instead of each
//! recompiling, re-profiling and re-scheduling the suite (see the
//! [`store`] module and `docs/persistence.md`). Caching is organised as
//! an explicit [tier stack](tier): every cache layer implements the
//! pluggable [`ArtifactTier`] interface — the disk store, the remote
//! tier, and any custom tier added via [`Explorer::with_tier`] — with
//! read-through, write-through, a batched warm-suite prefetch that
//! decodes straight into the typed caches ([`Explorer::prefetch`]) and
//! size/age-budgeted store GC ([`ArtifactStore::gc`], surfaced as the
//! `asip-bench` `store` maintenance binary).
//!
//! Finally, artifacts can cross *machine* boundaries: the [`remote`]
//! module provides a `serve` daemon (the `asip-bench` `serve` binary)
//! that keeps one warm session resident behind a TCP or Unix socket,
//! and a [`RemoteTier`] clients mount above their disk store via
//! [`Explorer::with_remote`] — with explicit retry/timeout/backoff
//! ([`RetryPolicy`]) and graceful degradation: any server failure is a
//! counted miss that falls back to local compute, never an error (see
//! `docs/serve.md`).
//!
//! The workspace is organised as this facade over seven member crates:
//!
//! - [`ir`] — the three-address intermediate representation and CFG.
//! - [`frontend`] — the mini-C compiler front end (paper step 1).
//! - [`sim`] — the profiling simulator (paper step 2).
//! - [`opt`] — percolation scheduling / loop pipelining / renaming
//!   (paper step 3, the "UCI VLIW compiler" substrate).
//! - [`chains`] — the chainable-sequence detection analyzer
//!   (paper step 4, the core contribution).
//! - [`synth`] — the ASIP design stage: chained-instruction synthesis,
//!   code rewriting and speedup estimation (paper Figure 1).
//! - [`benchmarks`] — the twelve Table-1 DSP benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use asip_explorer::prelude::*;
//!
//! # fn main() -> Result<(), ExplorerError> {
//! // one session for the whole exploration; every stage is memoized,
//! // and the caches can be bounded for long-lived (service) sessions
//! let session = Explorer::new()
//!     .with_levels([OptLevel::None, OptLevel::Pipelined])
//!     .with_detector(DetectorConfig::default())
//!     .with_constraints(DesignConstraints::default())
//!     .with_cache_capacity(256);
//!
//! // staged access: compile → profile → analyze, each cached
//! let compiled = session.compile("fir")?;
//! println!("fir: {} instructions", compiled.program.inst_count());
//!
//! let analyzed = session.analyze("fir", OptLevel::Pipelined)?;
//! assert!(analyzed.report.top(1).next().is_some());
//!
//! // the design stage reuses the analyze stage's cached schedule:
//! // selecting extensions performs zero additional optimizer runs
//! let schedule_runs = session.cache_stats().schedule.misses;
//! let designed = session.design("fir")?;
//! assert_eq!(session.cache_stats().schedule.misses, schedule_runs);
//!
//! // or the whole Figure-1 loop in one call (reusing the cache)
//! let exploration = session.explore("fir")?;
//! assert!(exploration.speedup() >= 1.0);
//! assert!(session.cache_stats().compile.hits > 0);
//!
//! // the paper's deployment scenario: ONE shared ASIP tuned to a
//! // whole suite, as a cached session stage of its own
//! let suite = session.evaluate_suite_with(
//!     &["fir", "sewha", "bspline"],
//!     DesignConstraints::default(),
//!     DetectorConfig::default(),
//! )?;
//! assert_eq!(suite.benchmarks.len(), 3);
//! assert!(suite.geomean_speedup().expect("non-empty suite") >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asip_benchmarks as benchmarks;
pub use asip_chains as chains;
pub use asip_frontend as frontend;
pub use asip_gen as gen;
pub use asip_ir as ir;
pub use asip_opt as opt;
pub use asip_sim as sim;
pub use asip_synth as synth;

pub mod artifact;
pub mod cache;
pub mod error;
pub mod fault;
pub mod remote;
pub mod session;
pub mod store;
pub mod tier;

pub use artifact::{
    geomean, Analyzed, ArtifactCodec, Compiled, DesignSpaced, Designed, DesignedSuite, Evaluated,
    EvaluatedSuite, Exploration, Profiled, Scheduled, Stage, STAGE_COUNT,
};
pub use cache::MemoryTier;
pub use error::{CodecError, ExplorerError, RemoteError};
pub use fault::{FaultConfig, FaultCounts, FaultPlan, FaultSite, FaultTier, PANIC_PROBE_KEY};
pub use remote::{serve, Endpoint, RemoteTier, RemoteTotals, RetryPolicy, ServeOptions};
pub use session::{CacheStats, Explorer, StageStats};
pub use store::{ArtifactStore, GcReport, Manifest, StoreGcConfig, VerifyReport};
pub use tier::{ArtifactTier, TierRead, TierReport, TierStack, TierStats};

/// Convenience re-exports for the common exploration flow.
pub mod prelude {
    pub use crate::artifact::{
        Analyzed, Compiled, DesignSpaced, Designed, DesignedSuite, Evaluated, EvaluatedSuite,
        Exploration, Profiled, Scheduled, Stage,
    };
    pub use crate::error::ExplorerError;
    pub use crate::remote::{RemoteTier, RemoteTotals, RetryPolicy};
    pub use crate::session::{CacheStats, Explorer, StageStats};
    pub use crate::store::{ArtifactStore, GcReport, StoreGcConfig};
    pub use crate::tier::{ArtifactTier, TierReport, TierStats};
    pub use asip_benchmarks::{
        full_registry, generated_corpus, registry, Benchmark, DataSpec, Suite,
    };
    pub use asip_chains::{
        CoverageAnalyzer, DetectorConfig, SequenceDetector, SequenceReport, Signature,
    };
    pub use asip_ir::{OpClass, Program};
    pub use asip_opt::{OptConfig, OptLevel, Optimizer, ScheduleGraph};
    pub use asip_sim::{Profile, Simulator};
    pub use asip_synth::{
        AsipDesigner, DesignConstraints, DesignSpace, LevelFeedback, ParetoPoint, SearchStats,
    };
}
