//! End-to-end tests of the design-space stage: the incremental
//! pareto-frontier sweep shares optimizer runs across the whole
//! constraint grid, per-config winners match or beat the single-config
//! API, warm sweeps replay with zero recomputes through the disk and
//! remote tiers, and random grids keep the feasibility and
//! non-domination invariants.

use asip_explorer::prelude::*;
use asip_explorer::remote::{serve, Endpoint, ServeOptions};
use asip_explorer::synth::AsipDesign;
use asip_explorer::Explorer;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-design-space-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The 256-config lattice explorer-bench's design-sweep draws its
/// grids from: 8 area budgets × 4 clocks × 4 extension caps × 2
/// feedback levels.
fn grid_256() -> Vec<DesignConstraints> {
    let mut grid = Vec::with_capacity(256);
    for &opt_level in &[OptLevel::Pipelined, OptLevel::PipelinedRenamed] {
        for budget_step in 0..8u32 {
            for clock_step in 0..4u32 {
                for ext_cap in 1..=4usize {
                    grid.push(DesignConstraints {
                        area_budget: 750.0 * f64::from(budget_step + 1),
                        clock_ns: 25.0 + 10.0 * f64::from(clock_step),
                        max_extensions: ext_cap,
                        opt_level,
                    });
                }
            }
        }
    }
    grid
}

/// A small grid over two levels, for the cross-session tests.
fn small_grid() -> Vec<DesignConstraints> {
    [1000.0, 4000.0]
        .iter()
        .flat_map(|&area_budget| {
            [OptLevel::Pipelined, OptLevel::PipelinedRenamed]
                .into_iter()
                .map(move |opt_level| DesignConstraints {
                    area_budget,
                    opt_level,
                    ..DesignConstraints::default()
                })
        })
        .collect()
}

fn total_benefit(design: &AsipDesign) -> f64 {
    design.extensions.iter().map(|e| e.expected_benefit).sum()
}

#[test]
fn sweep_runs_one_optimizer_run_per_distinct_benchmark_level_pair() {
    let session = Explorer::new();
    let grid = grid_256();
    let spaced = session.design_space(&grid).expect("cold sweep runs");
    assert_eq!(spaced.space.len(), 256, "every distinct config answered");
    assert_eq!(spaced.benchmarks.len(), session.registry().len());

    // the acceptance invariant: 256 configs over two feedback levels
    // cost exactly one optimizer run per distinct (benchmark, level)
    // pair — never one per config
    let stats = session.cache_stats();
    let distinct_pairs = (session.registry().len() * 2) as u64;
    assert_eq!(
        stats.schedule.misses, distinct_pairs,
        "one optimizer run per distinct (benchmark, level) pair: {stats}"
    );
    assert_eq!(stats.design_space.misses, 1, "the grid is one artifact");

    // replaying the identical grid is a pure stage-cache hit
    let again = session.design_space(&grid).expect("warm sweep replays");
    let stats = session.cache_stats();
    assert_eq!(
        stats.schedule.misses, distinct_pairs,
        "no new runs: {stats}"
    );
    assert_eq!(stats.design_space.hits, 1);
    assert_eq!(again.space, spaced.space);
}

#[test]
fn sweep_winners_match_or_beat_single_config_designs() {
    let session = Explorer::new();
    let names = ["fir", "sewha"];
    let grid: Vec<DesignConstraints> = [1000.0, 2000.0, 6000.0]
        .iter()
        .flat_map(|&area_budget| {
            [2usize, 4]
                .into_iter()
                .map(move |max_extensions| DesignConstraints {
                    area_budget,
                    max_extensions,
                    ..DesignConstraints::default()
                })
        })
        .collect();
    let spaced = session
        .design_space_with(&names, &grid, DetectorConfig::default())
        .expect("sweep runs");
    assert_eq!(spaced.space.len(), grid.len());
    for (cons, design) in &spaced.space.configs {
        // winners are feasible under their own config...
        assert!(design.extension_area <= cons.area_budget + 1e-9);
        assert!(design.len() <= cons.max_extensions);
        // ...and never worse than the single-config suite design
        let single = session
            .design_suite_with(&names, *cons, DetectorConfig::default())
            .expect("single config designs")
            .design;
        assert!(
            total_benefit(design) + 1e-6 >= total_benefit(&single),
            "budget {}: sweep winner ({:.3}%) lost to single-config design ({:.3}%)",
            cons.area_budget,
            total_benefit(design),
            total_benefit(&single),
        );
    }
}

#[test]
fn warm_sweep_replays_from_disk_with_zero_recomputes() {
    let dir = store_dir("disk");
    let names = ["fir", "bspline"];
    let grid = small_grid();
    let cold_space = {
        let cold = Explorer::new().with_store(&dir);
        let spaced = cold
            .design_space_with(&names, &grid, DetectorConfig::default())
            .expect("cold sweep populates the store");
        assert!(cold.cache_stats().total_misses() > 0, "cold run computes");
        spaced.space
    };

    // a brand-new process over the same store: the whole grid artifact
    // decodes from disk, so nothing recomputes — not even a schedule
    let warm = Explorer::new().with_store(&dir);
    let spaced = warm
        .design_space_with(&names, &grid, DetectorConfig::default())
        .expect("warm sweep replays");
    let stats = warm.cache_stats();
    assert_eq!(stats.total_misses(), 0, "zero recomputes: {stats}");
    assert!(
        stats.design_space.disk_hits >= 1,
        "served from disk: {stats}"
    );
    assert_eq!(spaced.space, cold_space, "decoded space round-trips");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_sweep_is_served_over_the_wire_with_zero_recomputes() {
    let dir = store_dir("remote");
    let names = ["fir", "bspline"];
    let grid = small_grid();
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    let server_space = server_session
        .design_space_with(&names, &grid, DetectorConfig::default())
        .expect("server warms up")
        .space;
    let handle = serve(
        server_session,
        &Endpoint::Tcp("127.0.0.1:0".into()),
        ServeOptions::default(),
    )
    .expect("daemon binds loopback");

    // a storeless client: the grid artifact arrives over the wire
    let client = Explorer::new()
        .with_remote(&handle.endpoint().to_string(), RetryPolicy::default())
        .expect("daemon endpoint parses");
    let spaced = client
        .design_space_with(&names, &grid, DetectorConfig::default())
        .expect("sweep served remotely");
    let stats = client.cache_stats();
    assert_eq!(stats.total_misses(), 0, "zero recomputes: {stats}");
    assert!(stats.total_remote_hits() > 0, "served remotely: {stats}");
    assert_eq!(stats.remote.errors, 0, "no wire failures: {stats}");
    assert_eq!(spaced.space, server_space);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_config_grid_is_an_error() {
    let session = Explorer::new();
    assert!(matches!(
        session.design_space(&[]),
        Err(ExplorerError::EmptySuite)
    ));
}

#[test]
fn duplicate_and_reordered_configs_share_one_artifact() {
    let session = Explorer::new();
    let grid = small_grid();
    let spaced = session
        .design_space_with(&["fir"], &grid, DetectorConfig::default())
        .expect("sweep runs");

    // the same grid reversed and duplicated canonicalizes to the same
    // key — a pure cache hit, bit-identical result
    let mut noisy: Vec<DesignConstraints> = grid.iter().rev().copied().collect();
    noisy.extend(grid.iter().copied());
    let again = session
        .design_space_with(&["fir"], &noisy, DetectorConfig::default())
        .expect("noisy grid replays");
    assert_eq!(again.space, spaced.space);
    let stats = session.cache_stats();
    assert_eq!(stats.design_space.misses, 1, "one compute: {stats}");
    assert_eq!(stats.design_space.hits, 1, "one replay: {stats}");
}

// -- property tests over random constraint grids -----------------------

fn shared_session() -> &'static Explorer {
    static SESSION: OnceLock<Explorer> = OnceLock::new();
    SESSION.get_or_init(Explorer::new)
}

/// Map four random bytes onto a constraint config spanning degenerate
/// corners: zero budgets, zero extension slots, every feedback level.
fn constraints_from(bytes: (u8, u8, u8, u8)) -> DesignConstraints {
    let (a, c, e, l) = bytes;
    DesignConstraints {
        area_budget: 250.0 * f64::from(a % 16),
        clock_ns: [20.0, 30.0, 40.0, 60.0][(c % 4) as usize],
        max_extensions: (e % 5) as usize,
        opt_level: OptLevel::all()[(l % 3) as usize],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_grids_yield_feasible_non_dominated_spaces(
        recipes in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..8,
        )
    ) {
        let grid: Vec<DesignConstraints> =
            recipes.iter().copied().map(constraints_from).collect();
        let session = shared_session();
        let spaced = session
            .design_space_with(&["fir"], &grid, DetectorConfig::default())
            .expect("sweep runs");
        prop_assert!(!spaced.space.is_empty());
        prop_assert!(spaced.space.len() <= grid.len());

        // every winner respects its own config
        for (cons, design) in &spaced.space.configs {
            prop_assert!(design.extension_area <= cons.area_budget + 1e-9);
            prop_assert!(design.len() <= cons.max_extensions);
        }

        // frontier points of one (level, clock) group never dominate
        // each other
        for p in &spaced.space.frontier {
            for q in &spaced.space.frontier {
                if std::ptr::eq(p, q)
                    || p.level != q.level
                    || p.clock_ns.to_bits() != q.clock_ns.to_bits()
                {
                    continue;
                }
                prop_assert!(
                    !(q.area <= p.area
                        && q.extensions <= p.extensions
                        && q.benefit > p.benefit + 1e-9),
                    "{q:?} dominates {p:?}"
                );
            }
        }

        // caller order cannot matter: the reversed grid is the same
        // canonical artifact
        let reversed: Vec<DesignConstraints> = grid.iter().rev().copied().collect();
        let again = session
            .design_space_with(&["fir"], &reversed, DetectorConfig::default())
            .expect("reversed grid replays");
        prop_assert_eq!(&again.space, &spaced.space);
    }
}
