//! # asip-bench
//!
//! The experiment harness: shared driver code used by the binaries that
//! regenerate every table and figure of the paper.
//!
//! All drivers run on one [`asip_explorer::Explorer`] session, so a
//! sweep that revisits a benchmark under many detector or optimizer
//! configurations compiles, simulates and schedules it exactly once;
//! [`AnalyzedBenchmark`] and [`analyze_suite`] survive as thin shims
//! over the session for the table/figure binaries.
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 (benchmark inventory) |
//! | `fig3_4 -- --length 2|3|4|5` | Figures 3–4 (combined sorted frequency series per opt level) |
//! | `fig5_6 -- --length 2|4` | Figures 5–6 (per-benchmark sequences ≥ 5%) |
//! | `table2` | Table 2 (example sequences at levels 0/1/2) |
//! | `table3` | Table 3 (iterative greedy coverage, with/without optimization) |
//! | `design_loop` | the Figure-1 closed loop (extension selection → rewrite → speedup) |
//! | `ablation` | design-choice sweeps: window, unroll, issue width, prune floor |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asip_benchmarks::Benchmark;
use asip_chains::{DetectorConfig, SequenceReport};
use asip_explorer::Explorer;
use asip_ir::Program;
use asip_opt::{OptLevel, ScheduleGraph};
use asip_sim::Profile;
use std::path::PathBuf;
use std::sync::Arc;

/// A fully analyzed benchmark: program, profile and one schedule graph
/// plus sequence report per optimization level (paper order 0/1/2).
/// Payloads are shared handles into the session cache.
pub struct AnalyzedBenchmark {
    /// The benchmark metadata.
    pub bench: Benchmark,
    /// Compiled 3-address code.
    pub program: Arc<Program>,
    /// Profiled execution counts.
    pub profile: Arc<Profile>,
    /// Schedule graphs, indexed by `OptLevel::number()`.
    pub graphs: [Arc<ScheduleGraph>; 3],
    /// Sequence reports, indexed by `OptLevel::number()`.
    pub reports: [Arc<SequenceReport>; 3],
}

/// The artifact-store directory shared by every bench binary, so the
/// twelve benchmarks are compiled, profiled and scheduled once *across*
/// the whole reproduction run instead of once per binary.
///
/// Defaults to `target/asip-store` under the *workspace root* (resolved
/// from this crate's compile-time manifest path, so invoking a binary
/// from any working directory still shares one store, and `cargo clean`
/// clears it). The `ASIP_STORE` environment variable overrides the
/// location (resolved against the caller's working directory as usual);
/// setting it to `0`, `off` or the empty string disables persistence
/// entirely.
pub fn store_dir() -> Option<PathBuf> {
    match std::env::var("ASIP_STORE") {
        Ok(v) if v.is_empty() || v == "0" || v == "off" => None,
        Ok(v) => Some(PathBuf::from(v)),
        // crates/asip-bench → two levels up is the workspace root
        Err(_) => Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target/asip-store"),
        ),
    }
}

/// Attach the shared bench artifact store ([`store_dir`]) to a session;
/// a no-op when persistence is disabled via `ASIP_STORE`.
pub fn with_shared_store(session: Explorer) -> Explorer {
    match store_dir() {
        Some(dir) => session.with_store(dir),
        None => session,
    }
}

/// A session configured the way the paper's experiments run: all three
/// levels, the given detector, default constraints and seed — and the
/// shared on-disk artifact store, so separate binaries reuse each
/// other's compile/profile/schedule work.
pub fn session(config: DetectorConfig) -> Explorer {
    with_shared_store(Explorer::new().with_detector(config))
}

/// Compile, profile and analyze one benchmark at all three levels on
/// `session`, with the session's detector configuration.
///
/// # Panics
///
/// Panics if a built-in benchmark fails to compile or simulate — that is
/// a bug in this repository, not an input condition.
pub fn analyze_benchmark(session: &Explorer, name: &str) -> AnalyzedBenchmark {
    analyze_benchmark_with(session, name, session.detector())
}

/// As [`analyze_benchmark`], with an explicit detector configuration;
/// the compile/profile/schedule stages are shared across detectors.
///
/// # Panics
///
/// As [`analyze_benchmark`].
pub fn analyze_benchmark_with(
    session: &Explorer,
    name: &str,
    detector: DetectorConfig,
) -> AnalyzedBenchmark {
    let fail =
        |stage: &str, e: &dyn std::fmt::Display| -> ! { panic!("{name} failed to {stage}: {e}") };
    let compiled = session
        .compile(name)
        .unwrap_or_else(|e| fail("compile", &e));
    let profiled = session
        .profile(name)
        .unwrap_or_else(|e| fail("simulate", &e));
    let opt = session.opt_config();
    let graphs = OptLevel::all().map(|l| {
        session
            .schedule_with(name, l, opt)
            .unwrap_or_else(|e| fail("schedule", &e))
            .graph
    });
    let reports = OptLevel::all().map(|l| {
        session
            .analyze_with(name, l, opt, detector)
            .unwrap_or_else(|e| fail("analyze", &e))
            .report
    });
    AnalyzedBenchmark {
        bench: compiled.benchmark,
        program: compiled.program,
        profile: profiled.profile,
        graphs,
        reports,
    }
}

/// Analyze the whole registry on `session` (parallel over the session
/// thread pool), with an explicit detector configuration.
///
/// # Panics
///
/// As [`analyze_benchmark`].
pub fn analyze_suite_with(session: &Explorer, detector: DetectorConfig) -> Vec<AnalyzedBenchmark> {
    session
        .map_all(|b| Ok(analyze_benchmark_with(session, b.name, detector)))
        .expect("analysis shims panic rather than returning errors")
}

/// Analyze the whole Table-1 suite on a fresh session.
pub fn analyze_suite(config: DetectorConfig) -> Vec<AnalyzedBenchmark> {
    let session = session(config);
    analyze_suite_with(&session, config)
}

/// Combined (suite-averaged) reports per level from an analyzed suite.
pub fn combined_reports(suite: &[AnalyzedBenchmark]) -> [SequenceReport; 3] {
    let per_level = |k: usize| {
        let rs: Vec<SequenceReport> = suite.iter().map(|a| (*a.reports[k]).clone()).collect();
        asip_chains::combine(&rs)
    };
    [per_level(0), per_level(1), per_level(2)]
}

/// Render a byte count with a binary-unit suffix (`1536` → `"1.5 KiB"`).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Print the standard end-of-run cache report every bench binary closes
/// with: the per-stage memory counters, then one line per attached tier
/// (remote, disk, custom) with its hit/miss/write/
/// corrupt counters and byte totals, then remote wire traffic and
/// prefetch/GC activity when any happened. One formatter for all
/// binaries, so the report (and the new tier counters) can never drift
/// between them.
pub fn print_cache_report(session: &Explorer) {
    let stats = session.cache_stats();
    println!("session cache: {stats}");
    for tier in &stats.tiers {
        let (name, t) = (tier.name, tier.total());
        println!(
            "{name:>14}: {}h/{}m/{}w{} — {} entries, {}",
            t.hits,
            t.misses,
            t.writes,
            if t.corrupt > 0 {
                format!("/{}corrupt", t.corrupt)
            } else {
                String::new()
            },
            t.entries,
            human_bytes(t.bytes),
        );
    }
    let r = stats.remote;
    if r.requests + r.skipped > 0 {
        println!(
            "{:>14}: {} requests ({} retries, {} errors, {} skipped) — {} sent, {} received",
            "remote wire",
            r.requests,
            r.retries,
            r.errors,
            r.skipped,
            human_bytes(r.bytes_sent),
            human_bytes(r.bytes_received),
        );
    }
    let (prefetch, gc) = (stats.total_prefetch_hits(), stats.gc_evictions);
    if prefetch > 0 {
        println!(
            "{:>14}: {prefetch} artifacts decoded from prefetched bytes",
            "prefetch"
        );
    }
    if gc > 0 {
        println!("{:>14}: {gc} store entries evicted this session", "gc");
    }
}

/// Render an ASCII bar for figure-style output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Parse a `--length N` argument (default 2).
pub fn length_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--length")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_explorer::TierStats;

    /// A storeless session: these tests pin exact memory-tier miss
    /// counts, which a warm shared store would (correctly) turn into
    /// disk hits — persistence behavior is covered by the facade's
    /// `tests/persistence.rs`.
    fn hermetic_session(config: DetectorConfig) -> Explorer {
        Explorer::new().with_detector(config)
    }

    #[test]
    fn analyze_one_benchmark_all_levels() {
        let s = hermetic_session(DetectorConfig::default());
        let a = analyze_benchmark(&s, "bspline");
        assert_eq!(a.bench.name, "bspline");
        for g in &a.graphs {
            g.check_invariants().expect("invariants");
        }
        assert!(!a.reports[1].is_empty());
        // levels share the frequency denominator
        assert_eq!(
            a.reports[0].total_profile_ops,
            a.reports[2].total_profile_ops
        );
        // the shim reuses the session cache: one compile, one profile
        let stats = s.cache_stats();
        assert_eq!(stats.compile.misses, 1);
        assert_eq!(stats.profile.misses, 1);
        assert!(stats.compile.hits >= 1, "later stages hit the cache");
    }

    #[test]
    fn suite_analysis_is_cache_shared_across_detectors() {
        let s = hermetic_session(DetectorConfig::default());
        let a2 = analyze_benchmark_with(&s, "sewha", DetectorConfig::default().with_length(2));
        let a4 = analyze_benchmark_with(&s, "sewha", DetectorConfig::default().with_length(4));
        assert!(Arc::ptr_eq(&a2.program, &a4.program), "one compile");
        assert!(Arc::ptr_eq(&a2.graphs[1], &a4.graphs[1]), "one schedule");
        assert_eq!(s.cache_stats().compile.misses, 1);
        assert_eq!(s.cache_stats().schedule.misses, 3, "one per level");
    }

    #[test]
    fn asip_store_env_disables_the_disk_tier_entirely() {
        // Env mutation is process-global; this is the only test (in this
        // binary) that touches ASIP_STORE, and the hermetic sessions
        // above never read it.
        for off in ["0", "off", ""] {
            std::env::set_var("ASIP_STORE", off);
            assert_eq!(store_dir(), None, "ASIP_STORE={off:?} must disable");
            let session = session(DetectorConfig::default());
            assert!(session.store().is_none());
            assert!(session.tier_stack().is_empty(), "no tiers at all");
            session.compile("fir").expect("compiles without a store");
            let stats = session.cache_stats();
            assert!(stats.tiers.is_empty(), "no tier reports: {stats}");
            assert_eq!(stats.tier("disk").total(), TierStats::default());
            assert_eq!(stats.total_prefetch_hits(), 0);
        }
        std::env::set_var("ASIP_STORE", "some/explicit/dir");
        assert!(store_dir().is_some());
        std::env::remove_var("ASIP_STORE");
        assert!(store_dir().is_some(), "default store location");
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1536), "1.5 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped at width");
    }
}
