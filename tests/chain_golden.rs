//! Golden digest of the chain detector's output across the full corpus.
//!
//! Every `SequenceReport` (the analyze stage), every default-floor
//! `CoverageReport` and every default-constraint `AsipDesign` (the
//! design stage, whose coverage study runs at a 1 % floor) of the 36
//! `full_registry()` programs at all three optimization levels is
//! folded into one FNV-1a digest. The constant below was recorded
//! before the detector's per-graph successor tables and the
//! single-enumeration coverage study replaced the per-step rescans, so
//! any change to what the detector finds — a chain, a weight, an
//! ordering tie-break — shows up here as a digest mismatch.

use asip_explorer::prelude::*;
use asip_explorer::store::StableHasher;
use asip_explorer::ArtifactCodec;

/// The recorded digest (see the module docs).
const GOLDEN: u64 = 0xc6f7_e83f_51ee_a6e0;

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
            h.write(&analyzed.report.to_bytes());

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
            h.write(&designed.design.to_bytes());
        }
    }
    assert_eq!(
        h.finish(),
        GOLDEN,
        "detector output changed: got {:#018x}",
        h.finish()
    );
}
