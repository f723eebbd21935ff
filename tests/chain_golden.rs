//! Golden digests of the chain detector's, the rewriter's and the
//! design-space search's output.
//!
//! The first digest folds every `SequenceReport` (the analyze stage),
//! every default-floor `CoverageReport` and every default-constraint
//! `AsipDesign` (the design stage, whose coverage study runs at a 1 %
//! floor) of the 36 `full_registry()` programs at all three
//! optimization levels into one FNV-1a digest, so any change to what
//! the detector finds — a chain, a weight, an ordering tie-break —
//! shows up as a digest mismatch.
//!
//! The second digest pins what selection and rewriting make of that
//! feedback: see [`rewrites_and_search_match_the_recorded_digest`].
//!
//! Both digests hash renderings that do not depend on the artifact
//! codec: the `Debug` form of each report, design, evaluation and
//! design space (`f64` prints its exact shortest round-trip form) and
//! the textual IR of each rewritten program. A change to the store or
//! wire encoding therefore leaves them unchanged; only a change to what
//! the detector, selector, rewriter or search compute moves them.

use asip_explorer::prelude::*;
use asip_explorer::store::StableHasher;
use asip_explorer::synth::{AsipDesign, Rewriter};

/// The recorded detector digest (see the module docs).
const GOLDEN: u64 = 0x3b63_cec5_7295_ae95;

/// Fold a value's `Debug` rendering into the digest.
fn write_debug(h: &mut StableHasher, value: &impl std::fmt::Debug) {
    h.write_str(&format!("{value:?}"));
}

#[test]
fn detector_output_matches_the_recorded_digest() {
    let session = Explorer::new()
        .with_registry(full_registry())
        .with_threads(1);
    let names: Vec<&str> = session.registry().iter().map(|b| b.name).collect();
    assert_eq!(names.len(), 36, "Table-1 plus the generated corpus");
    let coverage = CoverageAnalyzer::new(DetectorConfig::default());
    let mut h = StableHasher::new();
    for name in names {
        h.write_str(name);
        for level in OptLevel::all() {
            let analyzed = session.analyze(name, level).expect("analyzes");
            write_debug(&mut h, &analyzed.report);

            let scheduled = session.schedule(name, level).expect("schedules");
            let study = coverage.analyze(&scheduled.graph);
            h.write_str(&study.name);
            h.write_usize(study.entries.len());
            for e in &study.entries {
                h.write_str(&e.signature.to_string());
                h.write_f64(e.frequency);
                h.write_usize(e.occurrences);
            }

            let constraints = DesignConstraints {
                opt_level: level,
                ..DesignConstraints::default()
            };
            let designed = session
                .design_with(name, constraints, DetectorConfig::default())
                .expect("designs");
            write_debug(&mut h, &designed.design);
        }
    }
    assert_eq!(
        h.finish(),
        GOLDEN,
        "detector output changed: got {:#018x}",
        h.finish()
    );
}

/// The recorded digest of rewriting and search (see
/// [`rewrites_and_search_match_the_recorded_digest`]).
const REWRITE_GOLDEN: u64 = 0xa2b7_a0fc_4360_91b3;

/// The 256-point constraint lattice of the one-shot sweep: 8 area
/// budgets × 4 clocks × 4 extension caps × 2 feedback levels.
fn lattice() -> Vec<DesignConstraints> {
    let mut grid = Vec::with_capacity(256);
    for opt_level in [OptLevel::Pipelined, OptLevel::PipelinedRenamed] {
        for area in 1..=8u32 {
            for clock in 0..4u32 {
                for max_extensions in 1..=4usize {
                    grid.push(DesignConstraints {
                        area_budget: 750.0 * f64::from(area),
                        clock_ns: 25.0 + 10.0 * f64::from(clock),
                        max_extensions,
                        opt_level,
                    });
                }
            }
        }
    }
    grid
}

/// The second digest: the rewritten program of each of the 36 programs
/// at every level under its default design; every lattice config's
/// Table-1 suite design and its evaluations; and the 256-config design
/// space, which pins the search's work counters too.
#[test]
fn rewrites_and_search_match_the_recorded_digest() {
    let full = Explorer::new()
        .with_registry(full_registry())
        .with_threads(1);
    let mut h = StableHasher::new();
    for bench in full.registry().iter() {
        let compiled = full.compile(bench.name).expect("compiles");
        for level in OptLevel::all() {
            let constraints = DesignConstraints {
                opt_level: level,
                ..DesignConstraints::default()
            };
            let designed = full
                .design_with(bench.name, constraints, DetectorConfig::default())
                .expect("designs");
            let mut rewritten = Program::clone(&compiled.program);
            Rewriter::new(AsipDesign::clone(&designed.design)).apply(&mut rewritten);
            h.write_str(&rewritten.to_string());
        }
    }

    let table1 = Explorer::new().with_threads(1);
    let names: Vec<&str> = table1.registry().iter().map(|b| b.name).collect();
    let grid = lattice();
    for &c in &grid {
        let suite = table1
            .evaluate_suite_with(&names, c, DetectorConfig::default())
            .expect("evaluates");
        write_debug(&mut h, &suite.design);
        for (name, evaluation) in suite.evaluations.iter() {
            h.write_str(name);
            write_debug(&mut h, evaluation);
        }
    }
    let spaced = table1.design_space(&grid).expect("explores");
    assert_eq!(spaced.space.len(), 256);
    write_debug(&mut h, &spaced.space);
    assert_eq!(
        h.finish(),
        REWRITE_GOLDEN,
        "rewriting or search output changed: got {:#018x}",
        h.finish()
    );
}
