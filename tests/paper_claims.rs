//! The paper's headline experimental claims, asserted as tests. These
//! mirror what EXPERIMENTS.md documents: we check the *shape* of each
//! result (who wins, which direction each optimization level moves),
//! not the authors' absolute percentages.

use asip_explorer::chains::combine;
use asip_explorer::prelude::*;

/// A representative slice of the suite (all the Table-3 benchmarks plus
/// the two float filters), small enough for debug-profile CI.
const SUITE: &[&str] = &["sewha", "feowf", "bspline", "edge", "iir", "fir", "flatten"];

fn combined_at(level: OptLevel) -> SequenceReport {
    let detector = SequenceDetector::new(DetectorConfig::default());
    let reports: Vec<SequenceReport> = SUITE
        .iter()
        .map(|name| {
            let benches = registry();
            let bench = benches.find(name).expect("built-in");
            let program = bench.compile().expect("compiles");
            let profile = bench.profile(&program).expect("simulates");
            let graph = Optimizer::new(level).run(&program, &profile);
            detector.analyze(&graph)
        })
        .collect();
    combine(&reports)
}

#[test]
fn table2_add_multiply_is_exposed_by_optimization() {
    // paper Table 2: add-multiply 2.25% -> 13.78% from level 0 to 1
    let am: Signature = "add-multiply".parse().expect("parses");
    let f0 = combined_at(OptLevel::None).frequency_of(&am);
    let f1 = combined_at(OptLevel::Pipelined).frequency_of(&am);
    assert!(
        f1 > 1.5 * f0,
        "add-multiply should be exposed by pipelining: {f0:.2}% -> {f1:.2}%"
    );
}

#[test]
fn table2_renaming_hurts_detection() {
    // paper Table 2: level 2 below level 1 for the exposed sequences
    let r1 = combined_at(OptLevel::Pipelined);
    let r2 = combined_at(OptLevel::PipelinedRenamed);
    for sig in ["add-multiply", "add-add", "add-multiply-add"] {
        let s: Signature = sig.parse().expect("parses");
        assert!(
            r2.frequency_of(&s) < r1.frequency_of(&s) + 1e-9,
            "{sig}: renaming should not increase frequency ({:.2}% -> {:.2}%)",
            r1.frequency_of(&s),
            r2.frequency_of(&s)
        );
    }
}

#[test]
fn mac_is_prominent_at_every_level() {
    // the paper's motivating observation: multiply-add (the MAC of DSP
    // processors) ranks near the top everywhere
    for level in OptLevel::all() {
        let report = combined_at(level);
        let in_top5 = report.top(5).any(|(s, _)| s.to_string() == "multiply-add");
        assert!(in_top5, "multiply-add missing from top-5 at {level}");
    }
}

#[test]
fn table3_optimized_coverage_wins_or_ties() {
    // paper Table 3: with compiler feedback, coverage is higher for
    // every reported benchmark
    let analyzer = CoverageAnalyzer::new(DetectorConfig::default());
    let mut strictly_better = 0;
    for name in ["sewha", "feowf", "bspline", "edge", "iir"] {
        let benches = registry();
        let bench = benches.find(name).expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("simulates");
        let no = analyzer
            .analyze(&Optimizer::new(OptLevel::None).run(&program, &profile))
            .coverage();
        let yes = analyzer
            .analyze(&Optimizer::new(OptLevel::Pipelined).run(&program, &profile))
            .coverage();
        assert!(
            yes >= no - 1e-9,
            "{name}: optimized coverage {yes:.2}% below unoptimized {no:.2}%"
        );
        if yes > no + 0.5 {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 2,
        "optimization should strictly improve coverage on several benchmarks"
    );
}

#[test]
fn figures_series_decay_monotonically() {
    // Figures 3-6 plot sorted series; sortedness is the detector's
    // contract and the curves must carry real mass
    for level in OptLevel::all() {
        let report = combined_at(level);
        let series = report.series();
        assert!(series.len() > 10, "enough distinct sequences at {level}");
        for w in series.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(series[0] > 5.0, "top sequence should be significant");
    }
}

#[test]
fn figure1_design_loop_produces_speedup() {
    // the framework promise: feedback-selected chained instructions
    // actually speed up the code that motivated them
    use asip_explorer::sim::Engine;
    use asip_explorer::synth::{measure, prepare, DesignConstraints};
    use std::sync::Arc;
    let mut wins = 0;
    for name in ["sewha", "bspline", "iir", "flatten"] {
        let benches = registry();
        let bench = benches.find(name).expect("built-in");
        let program = bench.compile().expect("compiles");
        let data = bench.dataset();
        let (base, image) = Engine::new(Arc::new(program.clone()))
            .run_output(&data)
            .expect("simulates");
        let design =
            AsipDesigner::new(DesignConstraints::default()).design_for(&program, &base.profile);
        let prepared = prepare(&program, &design);
        let eval = measure(&prepared, &data, base.profile.total_ops(), &image).expect("evaluates");
        assert!(eval.speedup >= 1.0, "{name}: slowdown {:.3}", eval.speedup);
        if eval.speedup > 1.05 {
            wins += 1;
        }
    }
    assert!(wins >= 3, "most benchmarks should see real speedups");
}
