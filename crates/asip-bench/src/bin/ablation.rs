//! Ablation sweeps for the design choices called out in DESIGN.md:
//!
//! - chaining window `W ∈ {0,1,2,3}` vs detected coverage;
//! - pipelining unroll factor vs `add-multiply` exposure;
//! - issue width vs schedule length (weighted cycles);
//! - branch-and-bound prune floor vs surviving occurrence count;
//! - area budget vs the design-space stage's pareto frontier;
//! - pooled run-state reuse: a warm profile sweep is counter-asserted
//!   to perform zero per-run bank allocations.
//!
//! Every sweep runs on one `Explorer` session, so each benchmark is
//! compiled and simulated exactly once across all five studies — the
//! cache counters printed at the end prove it, and the design-space
//! sweep is counter-asserted to run the optimizer at most once per
//! distinct `(benchmark, level)` pair, never once per config.
//!
//! `cargo run --release -p asip-bench --bin ablation`

use asip_chains::{CoverageAnalyzer, DetectorConfig, SequenceDetector, Signature};
use asip_explorer::{Explorer, Stage};
use asip_opt::{OptConfig, OptLevel};
use asip_synth::DesignConstraints;

fn main() {
    let session = asip_bench::with_shared_store(Explorer::new());

    println!("== chaining window vs coverage (sewha, level 0) ==");
    let g0 = session
        .schedule("sewha", OptLevel::None)
        .expect("built-ins schedule")
        .graph;
    for w in 0..=3 {
        let cov = CoverageAnalyzer::new(DetectorConfig::default().with_window(w))
            .analyze(&g0)
            .coverage();
        println!("  window {w}: coverage {cov:6.2}%");
    }

    println!();
    println!("== unroll factor vs add-multiply exposure (sewha, level 1) ==");
    let am: Signature = "add-multiply".parse().expect("parses");
    for unroll in [1usize, 2, 3, 4] {
        let analyzed = session
            .analyze_with(
                "sewha",
                OptLevel::Pipelined,
                OptConfig {
                    unroll,
                    ..OptConfig::default()
                },
                DetectorConfig::default(),
            )
            .expect("built-ins analyze");
        println!(
            "  unroll {unroll}: add-multiply {:6.2}%",
            analyzed.report.frequency_of(&am)
        );
    }

    println!();
    println!("== issue width vs weighted schedule cycles (sewha, level 1) ==");
    let base_cycles = g0.weighted_cycles();
    println!("  sequential: {base_cycles:10.0} cycles");
    for width in [1usize, 2, 4, 8] {
        let g = session
            .schedule_with(
                "sewha",
                OptLevel::Pipelined,
                OptConfig {
                    width,
                    ..OptConfig::default()
                },
            )
            .expect("built-ins schedule")
            .graph;
        println!(
            "  width {width}: {:10.0} cycles ({:.2}x vs sequential)",
            g.weighted_cycles(),
            base_cycles / g.weighted_cycles()
        );
    }

    println!();
    println!("== hoist passes vs detected sequence count (edge, level 1) ==");
    for hoist_passes in [0usize, 1, 2, 4] {
        let analyzed = session
            .analyze_with(
                "edge",
                OptLevel::Pipelined,
                OptConfig {
                    hoist_passes,
                    ..OptConfig::default()
                },
                DetectorConfig::default(),
            )
            .expect("built-ins analyze");
        println!(
            "  hoist {hoist_passes}: {} distinct sequences",
            analyzed.report.len()
        );
    }

    println!();
    println!("== prune floor vs surviving occurrences (sewha, level 1) ==");
    let g1 = session
        .schedule("sewha", OptLevel::Pipelined)
        .expect("built-ins schedule")
        .graph;
    for floor in [0.0, 1.0, 2.0, 5.0, 10.0] {
        let n = SequenceDetector::new(DetectorConfig::default().with_prune_floor(floor))
            .occurrences(&g1)
            .len();
        println!("  floor {floor:4.1}%: {n} occurrences enumerated");
    }

    println!();
    println!("== area budget vs pareto frontier (design-space stage) ==");
    let schedule_runs = session.cache_stats().schedule.misses;
    let budgets = [500.0, 1000.0, 2000.0, 4000.0];
    let grid: Vec<DesignConstraints> = budgets
        .iter()
        .map(|&area_budget| DesignConstraints {
            area_budget,
            ..DesignConstraints::default()
        })
        .collect();
    let spaced = session
        .design_space_with(&["sewha", "edge"], &grid, DetectorConfig::default())
        .expect("built-ins sweep");
    let defaults = DesignConstraints::default();
    for point in spaced
        .space
        .frontier_at(defaults.opt_level, defaults.clock_ns)
    {
        println!(
            "  frontier: area {:>7.0}, {} extensions, benefit {:6.2}%",
            point.area, point.extensions, point.benefit
        );
    }
    for (cons, design) in &spaced.space.configs {
        println!(
            "  budget {:>5.0}: {} extensions, area {:>7.0}",
            cons.area_budget,
            design.len(),
            design.extension_area
        );
    }
    // the sweep shares one schedule per distinct (benchmark, level)
    // pair across all four budgets — never one run per config
    let added = session.cache_stats().schedule.misses - schedule_runs;
    assert!(
        added <= 2,
        "a 4-budget sweep over 2 benchmarks runs the optimizer at most \
         once per distinct (benchmark, level) pair, ran {added} extra"
    );
    // a wider grid re-evaluates incrementally: the distinct pairs are
    // already cached, so zero further optimizer runs
    let wider: Vec<DesignConstraints> = (1..=8)
        .map(|step| DesignConstraints {
            area_budget: 500.0 * f64::from(step),
            ..DesignConstraints::default()
        })
        .collect();
    session
        .design_space_with(&["sewha", "edge"], &wider, DetectorConfig::default())
        .expect("built-ins sweep");
    assert_eq!(
        session.cache_stats().schedule.misses - schedule_runs,
        added,
        "widening the sweep adds no optimizer runs beyond the distinct pairs"
    );

    println!();
    println!("== design stage reuses the analyze-stage schedule ==");
    let schedule_runs = session.cache_stats().schedule.misses;
    let designed = session.design("sewha").expect("built-ins design");
    println!(
        "  sewha design: {} extensions selected, optimizer runs added: {}",
        designed.design.len(),
        session.cache_stats().schedule.misses - schedule_runs
    );
    assert_eq!(
        session.cache_stats().schedule.misses,
        schedule_runs,
        "the design stage must pull the cached schedule, not re-run the optimizer"
    );

    println!();
    println!("== pooled run states: warm sweeps allocate nothing ==");
    let engine = session.engine("sewha").expect("built-ins engine");
    let data = session
        .benchmark("sewha")
        .expect("registered")
        .dataset_with_seed(1995);
    engine.run_profile(&data).expect("warms the pool");
    let warm = session.cache_stats().run_state;
    const SWEEP: u64 = 256;
    for _ in 0..SWEEP {
        engine.run_profile(&data).expect("pooled profile run");
    }
    let swept = session.cache_stats().run_state;
    println!(
        "  {SWEEP} pooled profile runs: checkouts {} -> {}, bank allocations {} -> {}",
        warm.checkouts, swept.checkouts, warm.creates, swept.creates
    );
    assert_eq!(swept.checkouts, warm.checkouts + SWEEP);
    assert_eq!(
        swept.creates, warm.creates,
        "a warm profile sweep performs zero per-run bank allocations"
    );

    println!();
    let stats = session.cache_stats();
    asip_bench::print_cache_report(&session);
    println!("(a second run serves compile/profile/schedule from disk)");
    // Each of the two benchmarks is compiled and simulated exactly once
    // across all five studies: either this run computed it (a miss) or a
    // previous bench binary's run left it in the shared store (a disk
    // hit) — never both, never twice.
    assert_eq!(
        stats.compile.misses + stats.tier("disk").stage(Stage::Compile).hits,
        2,
        "the whole ablation compiles each of its two benchmarks once"
    );
    assert_eq!(
        stats.profile.misses + stats.tier("disk").stage(Stage::Profile).hits,
        2,
        "and simulates each once"
    );
}
