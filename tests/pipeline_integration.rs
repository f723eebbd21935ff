//! Integration: the full paper pipeline (Figure 2) across crates, on
//! real benchmarks.

use asip_explorer::prelude::*;

/// The subset used where full-suite runs would be slow under the debug
/// profile (dft alone interprets ~1.4M dynamic ops).
const FAST_SUITE: &[&str] = &["sewha", "feowf", "bspline", "fir", "iir", "edge", "flatten"];

#[test]
fn full_pipeline_runs_for_every_benchmark() {
    for bench in registry().iter() {
        let program = bench.compile().expect("compiles");
        program.validate().expect("valid IR");
        let profile = bench.profile(&program).expect("simulates");
        assert!(profile.total_ops() > 0);
        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &profile);
            graph.check_invariants().expect("graph invariants");
            assert_eq!(graph.total_profile_ops, profile.total_ops());
        }
    }
}

#[test]
fn detection_is_deterministic_end_to_end() {
    let benches = registry();
    let bench = benches.find("sewha").expect("built-in");
    let run = || {
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("simulates");
        let graph = Optimizer::new(OptLevel::Pipelined).run(&program, &profile);
        SequenceDetector::new(DetectorConfig::default())
            .analyze(&graph)
            .entries()
            .to_vec()
    };
    assert_eq!(run(), run());
}

#[test]
fn optimization_never_reduces_detected_sequences() {
    // the paper's core claim: the optimized graph offers a superset of
    // chaining opportunities
    let detector = SequenceDetector::new(DetectorConfig::default());
    for name in FAST_SUITE {
        let benches = registry();
        let bench = benches.find(name).expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("simulates");
        let g0 = Optimizer::new(OptLevel::None).run(&program, &profile);
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&program, &profile);
        let n0 = detector.occurrences(&g0).len();
        let n1 = detector.occurrences(&g1).len();
        assert!(
            n1 >= n0,
            "{name}: pipelined occurrences {n1} < sequential {n0}"
        );
    }
}

#[test]
fn coverage_is_a_percentage_everywhere() {
    let analyzer = CoverageAnalyzer::new(DetectorConfig::default());
    for name in FAST_SUITE {
        let benches = registry();
        let bench = benches.find(name).expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("simulates");
        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &profile);
            let cov = analyzer.analyze(&graph).coverage();
            assert!(
                (0.0..=100.0 + 1e-9).contains(&cov),
                "{name}@{level}: coverage {cov} out of range"
            );
        }
    }
}

#[test]
fn frequencies_are_bounded_per_signature() {
    let detector = SequenceDetector::new(DetectorConfig::default());
    for name in FAST_SUITE {
        let benches = registry();
        let bench = benches.find(name).expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("simulates");
        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &profile);
            let report = detector.analyze(&graph);
            for (sig, stats) in report.entries() {
                assert!(
                    stats.frequency <= 100.0 + 1e-9,
                    "{name}@{level}: {sig} at {:.2}% overcounts",
                    stats.frequency
                );
                assert!(stats.frequency > 0.0);
                assert!(stats.occurrences > 0);
            }
        }
    }
}

#[test]
fn chainable_weight_is_conserved_by_optimization() {
    for name in FAST_SUITE {
        let benches = registry();
        let bench = benches.find(name).expect("built-in");
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("simulates");
        let g0 = Optimizer::new(OptLevel::None).run(&program, &profile);
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&program, &profile);
        let w0 = g0.chainable_weight();
        let w1 = g1.chainable_weight();
        assert!(
            (w0 - w1).abs() / w0.max(1.0) < 1e-9,
            "{name}: chainable weight changed {w0} -> {w1}"
        );
    }
}
