//! Output checks the workloads apply to their passes.

use asip_explorer::sim::ReferenceSimulator;
use asip_explorer::synth::{AsipDesign, DesignConstraints, DesignSpace, Rewriter};
use asip_explorer::{ArtifactCodec, Exploration};

/// The encoded bytes of every artifact in one exploration, in a fixed
/// order: the program, its profile, each level's schedule and report,
/// the design and its evaluation.
pub fn encode(ex: &Exploration) -> Vec<u8> {
    let mut out = ex.benchmark.name.as_bytes().to_vec();
    out.extend(ex.compiled.program.to_bytes());
    out.extend(ex.profiled.profile.to_bytes());
    for (scheduled, analyzed) in &ex.levels {
        out.extend(scheduled.graph.to_bytes());
        out.extend(analyzed.report.to_bytes());
    }
    out.extend(ex.designed.design.to_bytes());
    out.extend(ex.evaluated.evaluation.to_bytes());
    out
}

/// Encode a whole pass's explorations.
pub fn encode_all(explorations: &[Exploration]) -> Vec<Vec<u8>> {
    explorations.iter().map(encode).collect()
}

/// Check that a pass's explorations are byte-identical to `expected`.
pub fn same_bytes(expected: &[Vec<u8>], got: &[Vec<u8>], what: &str) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} explorations, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(e, g)| e != g) {
        Some(i) => Err(format!(
            "{what}: exploration {i} differs from the reference"
        )),
        None => Ok(()),
    }
}

/// Re-run one exploration's program, and its rewrite under the selected
/// design, on the reference simulator: the profile and `base_cycles`
/// must match the baseline run, `asip_cycles` the rewritten run, and
/// the rewritten run must leave the same memories and result.
pub fn check_against_reference(ex: &Exploration, seed: u64) -> Result<(), String> {
    let name = ex.benchmark.name;
    let program = ex.compiled.program.as_ref();
    let data = ex.benchmark.dataset_with_seed(seed);
    let base = ReferenceSimulator::new(program)
        .run(&data)
        .map_err(|e| format!("{name}: reference run failed: {e}"))?;
    if base.profile != *ex.profiled.profile {
        return Err(format!("{name}: profile differs from the reference run"));
    }
    let evaluation = &ex.evaluated.evaluation;
    if base.profile.total_ops() != evaluation.base_cycles {
        return Err(format!(
            "{name}: base_cycles {} but the reference ran {} ops",
            evaluation.base_cycles,
            base.profile.total_ops()
        ));
    }
    let mut rewritten = program.clone();
    Rewriter::new(AsipDesign::clone(&ex.designed.design)).apply(&mut rewritten);
    let after = ReferenceSimulator::new(&rewritten)
        .run(&data)
        .map_err(|e| format!("{name}: reference run of the rewrite failed: {e}"))?;
    if after.profile.total_ops() != evaluation.asip_cycles {
        return Err(format!(
            "{name}: asip_cycles {} but the reference ran the rewrite in {} ops",
            evaluation.asip_cycles,
            after.profile.total_ops()
        ));
    }
    if after.memory != base.memory || after.result != base.result {
        return Err(format!("{name}: the rewrite changes the program's outputs"));
    }
    Ok(())
}

/// Whether `design` fits `c`'s area budget and extension cap.
pub fn fits(design: &AsipDesign, c: &DesignConstraints) -> bool {
    design.extension_area <= c.area_budget && design.len() <= c.max_extensions
}

/// Check that every per-config winner of a design space fits its
/// config.
pub fn check_space(space: &DesignSpace) -> Result<(), String> {
    match space.configs.iter().find(|(c, d)| !fits(d, c)) {
        Some((c, d)) => Err(format!(
            "winner for {c:?} takes area {} with {} extensions",
            d.extension_area,
            d.len()
        )),
        None => Ok(()),
    }
}
