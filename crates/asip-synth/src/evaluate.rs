//! Before/after evaluation of a design on the profiling simulator.

use crate::extension::AsipDesign;
use crate::rewrite::{RewriteStats, Rewriter};
use asip_ir::Program;
use asip_sim::{DataSet, Engine, OutputImage, SimError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Measured effect of applying a design to one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Dynamic operations of the baseline run (single-issue: cycles).
    pub base_cycles: u64,
    /// Dynamic operations after rewriting (chained ops count one cycle).
    pub asip_cycles: u64,
    /// `base_cycles / asip_cycles`.
    pub speedup: f64,
    /// Static chains fused.
    pub fused_chains: usize,
    /// Extension area spent.
    pub extension_area: f64,
}

/// A design applied to a program and decoded, once: the rewritten
/// program's [`Engine`] plus the static rewrite stats, ready to be
/// [`measure`]d on any number of datasets.
///
/// Rewriting and decoding a candidate design is the expensive half of
/// an evaluation; design sweeps re-measure the same `(program,
/// design)` pair across datasets and constraint grids, so sessions
/// cache `PreparedDesign`s keyed by design (see the session's
/// rewritten-engine cache) instead of re-deriving one per candidate.
#[derive(Debug)]
pub struct PreparedDesign {
    engine: Engine,
    stats: RewriteStats,
    area: f64,
}

impl PreparedDesign {
    /// The decoded engine for the rewritten program.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Static chains the rewriter fused.
    pub fn fused_chains(&self) -> usize {
        self.stats.fused_chains
    }

    /// Extension area of the design this was prepared from.
    pub fn extension_area(&self) -> f64 {
        self.area
    }
}

/// Rewrite a copy of `program` with `design` and decode the result
/// into a reusable [`PreparedDesign`].
///
/// # Panics
///
/// As [`Engine::new`]: panics if the rewriter produced a structurally
/// invalid program (a rewriter bug, not an input error).
pub fn prepare(program: &Program, design: &AsipDesign) -> PreparedDesign {
    let mut rewritten = program.clone();
    let stats: RewriteStats = Rewriter::new(design.clone()).apply(&mut rewritten);
    PreparedDesign {
        engine: Engine::new(Arc::new(rewritten)),
        stats,
        area: design.extension_area,
    }
}

/// Why a measurement produced no [`Evaluation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The rewritten program's run failed in the simulator.
    Sim(SimError),
    /// The rewritten program computed different outputs than the
    /// baseline image it was measured against: a rewriter semantics
    /// bug (or a baseline taken on other input data). A wrong answer
    /// is reported, never passed off as a speedup.
    OutputMismatch,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sim(e) => write!(f, "rewritten run failed: {e}"),
            EvalError::OutputMismatch => {
                f.write_str("rewritten program computed different outputs")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        EvalError::Sim(e)
    }
}

/// Measure a prepared design on `data` against the unchanged program's
/// baseline: its dynamic op count `base_cycles` and its output image
/// `baseline` (both from one [`Engine::run_output`] of the baseline on
/// the same data — the profile run, in a session). Only the rewritten
/// program runs; its outputs must match the baseline image by
/// [`OutputImage::same_memory`], so a rewriter bug can never
/// masquerade as a speedup.
///
/// # Errors
///
/// [`EvalError::Sim`] if the rewritten run fails,
/// [`EvalError::OutputMismatch`] if it computes different outputs.
pub fn measure(
    prepared: &PreparedDesign,
    data: &DataSet,
    base_cycles: u64,
    baseline: &OutputImage,
) -> Result<Evaluation, EvalError> {
    let (after, image) = prepared.engine.run_output(data)?;
    if !image.same_memory(baseline) {
        return Err(EvalError::OutputMismatch);
    }
    let asip_cycles = after.profile.total_ops();
    Ok(Evaluation {
        base_cycles,
        asip_cycles,
        speedup: base_cycles as f64 / asip_cycles.max(1) as f64,
        fused_chains: prepared.stats.fused_chains,
        extension_area: prepared.area,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{AsipDesigner, DesignConstraints};
    use asip_ir::Program;

    /// Prepare `design` on `program` and measure it against one
    /// baseline run on `data`.
    fn measure_once(
        program: &Program,
        design: &AsipDesign,
        data: &DataSet,
    ) -> Result<Evaluation, EvalError> {
        let (base, image) = Engine::new(Arc::new(program.clone())).run_output(data)?;
        measure(
            &prepare(program, design),
            data,
            base.profile.total_ops(),
            &image,
        )
    }

    #[test]
    fn design_loop_speeds_up_sewha() {
        let benches = asip_benchmarks::registry();
        let b = benches.find("sewha").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let design = AsipDesigner::new(DesignConstraints::default()).design_for(&program, &profile);
        assert!(!design.is_empty(), "feedback should propose extensions");
        let eval = measure_once(&program, &design, &b.dataset()).expect("evaluates");
        assert!(eval.fused_chains > 0, "extensions should fire in the code");
        assert!(
            eval.speedup > 1.0,
            "chaining must reduce cycle count, got {:.3}",
            eval.speedup
        );
        assert!(eval.asip_cycles < eval.base_cycles);
    }

    #[test]
    fn empty_design_is_identity() {
        let benches = asip_benchmarks::registry();
        let b = benches.find("bspline").expect("built-in");
        let program = b.compile().expect("compiles");
        let eval = measure_once(&program, &AsipDesign::default(), &b.dataset()).expect("evaluates");
        assert_eq!(eval.base_cycles, eval.asip_cycles);
        assert_eq!(eval.speedup, 1.0);
        assert_eq!(eval.fused_chains, 0);
    }

    #[test]
    fn suite_design_serves_multiple_benchmarks() {
        // one ASIP for several applications: the suite-combined design
        // must speed up (or leave unchanged) every member, with a real
        // win on at least one
        let benches = asip_benchmarks::registry();
        let suite = ["sewha", "bspline", "flatten"];
        let compiled: Vec<_> = suite
            .iter()
            .map(|n| {
                let b = *benches.find(n).expect("built-in");
                let program = b.compile().expect("compiles");
                let profile = b.profile(&program).expect("runs");
                (b, program, profile)
            })
            .collect();
        let refs: Vec<(&asip_ir::Program, &asip_sim::Profile)> =
            compiled.iter().map(|(_, p, pr)| (p, pr)).collect();
        let design = AsipDesigner::new(DesignConstraints::default()).design_for_suite(&refs);
        assert!(!design.is_empty());
        let mut best = 1.0_f64;
        for (b, program, _) in &compiled {
            let eval = measure_once(program, &design, &b.dataset()).expect("evaluates");
            assert!(eval.speedup >= 1.0, "{}: slowdown", b.name);
            best = best.max(eval.speedup);
        }
        assert!(best > 1.1, "the shared design should really help someone");
    }

    #[test]
    fn bigger_budget_never_slower() {
        let benches = asip_benchmarks::registry();
        let b = benches.find("feowf").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let small = AsipDesigner::new(DesignConstraints {
            area_budget: 400.0,
            ..DesignConstraints::default()
        })
        .design_for(&program, &profile);
        let large = AsipDesigner::new(DesignConstraints {
            area_budget: 20_000.0,
            max_extensions: 8,
            ..DesignConstraints::default()
        })
        .design_for(&program, &profile);
        let es = measure_once(&program, &small, &b.dataset()).expect("evaluates");
        let el = measure_once(&program, &large, &b.dataset()).expect("evaluates");
        assert!(el.speedup >= es.speedup);
        assert!(large.extension_area >= small.extension_area);
    }

    #[test]
    fn baseline_from_other_data_is_a_typed_mismatch() {
        // a wrong answer surfaces as an error value, not a panic: the
        // rewritten program runs on the default data, the baseline
        // image comes from a different dataset
        let benches = asip_benchmarks::registry();
        let b = benches.find("sewha").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let design = AsipDesigner::new(DesignConstraints::default()).design_for(&program, &profile);
        let prepared = prepare(&program, &design);
        let engine = Engine::new(Arc::new(program));
        let data = b.dataset();
        let (base, image) = engine.run_output(&data).expect("runs");
        let cycles = base.profile.total_ops();
        assert!(measure(&prepared, &data, cycles, &image).is_ok());
        let (_, other) = engine.run_output(&b.dataset_with_seed(7)).expect("runs");
        assert!(!other.same_memory(&image), "the datasets must differ");
        let err = measure(&prepared, &data, cycles, &other).unwrap_err();
        assert_eq!(err, EvalError::OutputMismatch);
        assert!(err.to_string().contains("different outputs"));
    }
}
