//! # asip-synth
//!
//! The ASIP design stage of the paper's Figure 1: consume compiler
//! feedback (detected chainable sequences), choose which sequences to
//! implement as *chained instructions* under area and clock constraints,
//! rewrite the 3-address code to use them, and measure the resulting
//! speedup on the profiling simulator.
//!
//! The paper describes this stage but evaluates only the detection side;
//! this crate closes the loop so downstream users can run complete
//! design-space explorations:
//!
//! 1. [`cost`] — a Gajski-style functional-unit area/delay model and the
//!    [`ChainedUnit`] datapath estimate;
//! 2. [`select`] — [`AsipDesigner`]: selection of ISA extensions under
//!    [`DesignConstraints`] (greedy benefit-per-area, improved by the
//!    frontier search wherever it strictly wins) — and [`frontier`],
//!    the incremental pareto-frontier design-space search: one
//!    branch-and-bound per `(level, clock)` group answers every
//!    `(area, opcode)` budget of a constraint grid at once
//!    ([`AsipDesigner::explore_design_space`] → [`DesignSpace`]);
//! 3. [`rewrite`] — a matcher that replaces fusable runs in the IR with
//!    [`asip_ir::InstKind::Chained`] super-instructions (semantics
//!    preserved; the simulator executes them in one cycle);
//! 4. [`evaluate`] — before/after cycle counts and speedups: [`prepare`]
//!    rewrites and decodes a design once, [`measure`] runs the
//!    rewritten program and checks its outputs against the baseline's.
//!
//! ## Example
//!
//! ```
//! use asip_sim::Engine;
//! use asip_synth::{AsipDesigner, DesignConstraints};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let benches = asip_benchmarks::registry();
//! let bench = benches.find("sewha").expect("built-in");
//! let program = bench.compile()?;
//! let data = bench.dataset();
//! // one baseline run yields the profile and the output image
//! let (base, image) = Engine::new(Arc::new(program.clone())).run_output(&data)?;
//!
//! let design = AsipDesigner::new(DesignConstraints::default())
//!     .design_for(&program, &base.profile);
//! let prepared = asip_synth::prepare(&program, &design);
//! let eval = asip_synth::measure(&prepared, &data, base.profile.total_ops(), &image)?;
//! assert!(eval.speedup >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod evaluate;
pub mod extension;
pub mod frontier;
pub mod report;
pub mod rewrite;
pub mod select;

pub use cost::{fu_area, fu_delay_ns, ChainedUnit};
pub use evaluate::{measure, prepare, EvalError, Evaluation, PreparedDesign};
pub use extension::{AsipDesign, IsaExtension};
pub use frontier::{DesignSpace, LevelFeedback, ParetoPoint, SearchStats};
pub use report::DesignReport;
pub use rewrite::Rewriter;
pub use select::{AsipDesigner, DesignConstraints};
