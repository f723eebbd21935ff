//! Extension selection: the designer that turns compiler feedback into
//! an instruction-set extension under hardware constraints.

use crate::extension::AsipDesign;
use crate::frontier;
use crate::rewrite;
use asip_chains::{CoverageAnalyzer, DetectorConfig, SeqStats, SequenceReport};
use asip_ir::Program;
use asip_opt::{OptConfig, OptLevel, Optimizer, ScheduleGraph};
use asip_sim::Profile;
use serde::{Deserialize, Serialize};

/// Hardware constraints for extension selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignConstraints {
    /// Total area budget for chained units (gate equivalents).
    pub area_budget: f64,
    /// Clock period the chained unit must close in one cycle (ns).
    pub clock_ns: f64,
    /// Maximum number of extensions (opcode space).
    pub max_extensions: usize,
    /// Optimization level whose feedback drives selection.
    pub opt_level: OptLevel,
}

impl Default for DesignConstraints {
    fn default() -> Self {
        DesignConstraints {
            area_budget: 6000.0,
            clock_ns: 40.0,
            max_extensions: 4,
            opt_level: OptLevel::Pipelined,
        }
    }
}

/// Greedy benefit-per-area extension selection from compiler feedback.
///
/// The designer is split into a *pure selection core* and *convenience
/// wrappers*. The core methods ([`AsipDesigner::design_from_report`],
/// [`AsipDesigner::design_from_schedule`],
/// [`AsipDesigner::design_from_schedules`]) consume precomputed
/// compiler feedback and never run the optimizer, so a session that
/// already holds a cached [`ScheduleGraph`] pays nothing extra for the
/// design stage — and the schedule the designer sees is byte-identical
/// to the one the analyze stage reported. The wrappers
/// ([`AsipDesigner::design_for`], [`AsipDesigner::design_for_suite`])
/// run the optimizer themselves, honoring the designer's
/// [`OptConfig`], for callers without a session.
#[derive(Debug, Clone, Copy)]
pub struct AsipDesigner {
    constraints: DesignConstraints,
    detector: DetectorConfig,
    opt_config: OptConfig,
}

impl AsipDesigner {
    /// A designer with the given constraints, default detection, and the
    /// default optimizer configuration.
    pub fn new(constraints: DesignConstraints) -> Self {
        AsipDesigner {
            constraints,
            detector: DetectorConfig::default(),
            opt_config: OptConfig::default(),
        }
    }

    /// Override the detector configuration.
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// Override the optimizer configuration used by the
    /// [`AsipDesigner::design_for`] / [`AsipDesigner::design_for_suite`]
    /// wrappers (the `design_from_*` core never runs the optimizer).
    pub fn with_opt_config(mut self, config: OptConfig) -> Self {
        self.opt_config = config;
        self
    }

    /// The constraints in use.
    pub fn constraints(&self) -> &DesignConstraints {
        &self.constraints
    }

    /// The optimizer configuration the wrappers schedule with.
    pub fn opt_config(&self) -> OptConfig {
        self.opt_config
    }

    /// Run the iterative coverage study on one precomputed schedule and
    /// aggregate it into a sequence report, preserving both the dynamic
    /// frequency and the selected occurrence count per signature.
    pub(crate) fn coverage_report(&self, graph: &ScheduleGraph) -> SequenceReport {
        let coverage = CoverageAnalyzer::new(self.detector)
            .with_floor(1.0)
            .with_max_sequences(16)
            .analyze(graph);
        SequenceReport::from_parts(
            graph.name.clone(),
            coverage
                .entries
                .iter()
                .map(|e| {
                    (
                        e.signature.clone(),
                        SeqStats {
                            frequency: e.frequency,
                            occurrences: e.occurrences,
                        },
                    )
                })
                .collect(),
            graph.total_profile_ops,
        )
    }

    /// Select extensions for one program from its precomputed schedule.
    ///
    /// Candidates whose signature never statically matches a fusable run
    /// of the program are dropped before selection — the coverage
    /// analysis reports *potential* chains (post-scheduling), and there
    /// is no point spending silicon on a chain the rewriter can never
    /// instantiate in this code.
    pub fn design_from_schedule(&self, graph: &ScheduleGraph, program: &Program) -> AsipDesign {
        let report = self.coverage_report(graph);
        self.design_from_report(&retain_matchable(&report, &[program]))
    }

    /// Select one extension set for a whole suite from precomputed
    /// schedules — the paper's actual scenario ("an ASIP … tuned to a
    /// suite of applications"). Each schedule's coverage study runs
    /// separately; the per-benchmark results are averaged (every
    /// application counts equally) and one extension set is selected. A
    /// candidate must statically match in at least one program.
    ///
    /// # Panics
    ///
    /// Panics if `suite` is empty — there is nothing to design for.
    pub fn design_from_schedules(&self, suite: &[(&ScheduleGraph, &Program)]) -> AsipDesign {
        assert!(!suite.is_empty(), "suite must not be empty");
        let reports: Vec<SequenceReport> = suite
            .iter()
            .map(|(graph, _)| self.coverage_report(graph))
            .collect();
        let combined = asip_chains::combine(&reports);
        let programs: Vec<&Program> = suite.iter().map(|(_, program)| *program).collect();
        self.design_from_report(&retain_matchable(&combined, &programs))
    }

    /// Convenience wrapper: run the full feedback loop for one program —
    /// optimize at the designer's level and [`OptConfig`], then
    /// [`AsipDesigner::design_from_schedule`].
    pub fn design_for(&self, program: &Program, profile: &Profile) -> AsipDesign {
        let graph = Optimizer::new(self.constraints.opt_level)
            .with_config(self.opt_config)
            .run(program, profile);
        self.design_from_schedule(&graph, program)
    }

    /// Convenience wrapper: optimize every suite member, then
    /// [`AsipDesigner::design_from_schedules`].
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn design_for_suite(&self, programs: &[(&Program, &Profile)]) -> AsipDesign {
        let graphs: Vec<ScheduleGraph> = programs
            .iter()
            .map(|(program, profile)| {
                Optimizer::new(self.constraints.opt_level)
                    .with_config(self.opt_config)
                    .run(program, profile)
            })
            .collect();
        let suite: Vec<(&ScheduleGraph, &Program)> = graphs
            .iter()
            .zip(programs)
            .map(|(graph, (program, _))| (graph, *program))
            .collect();
        self.design_from_schedules(&suite)
    }

    /// Select extensions from an existing (possibly suite-combined)
    /// sequence report — the pure selection core.
    ///
    /// Candidates must be implementable by the rewriter (pure arithmetic
    /// chains) and close timing. Selection runs the shared
    /// [`crate::frontier`] search seeded with the historical
    /// greedy benefit-per-area pick: the result is byte-identical to
    /// the greedy design unless the frontier found a set with strictly
    /// higher estimated benefit under the same constraints.
    pub fn design_from_report(&self, report: &SequenceReport) -> AsipDesign {
        let mut memo = frontier::MemoTable::default();
        let candidates = frontier::build_candidates(report, self.constraints.clock_ns, &mut memo);
        let greedy = frontier::greedy_indices(
            &candidates,
            self.constraints.area_budget,
            self.constraints.max_extensions,
        );
        let search = frontier::search_group(
            &candidates,
            self.constraints.area_budget,
            self.constraints.max_extensions,
            [greedy.clone()],
        );
        let greedy_benefit = frontier::benefit_of(&candidates, &greedy);
        let best = frontier::best_in(
            &search.front,
            self.constraints.area_budget,
            self.constraints.max_extensions,
        );
        match best {
            Some(p) if p.benefit > greedy_benefit + frontier::EPS => {
                frontier::build_design(&candidates, &p.chosen)
            }
            _ => frontier::build_design(&candidates, &greedy),
        }
    }
}

/// Drop fusable candidates that never statically match any of
/// `programs` — the rewriter could not instantiate them, so spending
/// area on them is pure waste. Unfusable signatures pass through (the
/// selection core filters them anyway).
fn retain_matchable(report: &SequenceReport, programs: &[&Program]) -> SequenceReport {
    SequenceReport::from_parts(
        report.name.clone(),
        report
            .entries()
            .iter()
            .filter(|(sig, _)| {
                !rewrite::is_fusable_signature(sig)
                    || programs
                        .iter()
                        .any(|program| rewrite::Rewriter::count_static_matches(program, sig) > 0)
            })
            .cloned()
            .collect(),
        report.total_profile_ops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_chains::{SeqStats, Signature};

    fn report(entries: Vec<(&str, f64)>) -> SequenceReport {
        SequenceReport::from_parts(
            "t".into(),
            entries
                .into_iter()
                .map(|(s, f)| {
                    (
                        s.parse::<Signature>().expect("ok"),
                        SeqStats {
                            frequency: f,
                            occurrences: 1,
                        },
                    )
                })
                .collect(),
            1000,
        )
    }

    #[test]
    fn selects_high_benefit_fusable_sequences() {
        let r = report(vec![
            ("multiply-add", 20.0),
            ("add-add", 10.0),
            ("add-compare", 5.0),
        ]);
        let design = AsipDesigner::new(DesignConstraints::default()).design_from_report(&r);
        assert!(!design.is_empty());
        assert!(design.find(&"multiply-add".parse().expect("ok")).is_some());
        // add-add has better benefit/area than multiply-add (adders are cheap)
        assert_eq!(design.extensions[0].signature.to_string(), "add-add");
    }

    #[test]
    fn respects_area_budget() {
        let r = report(vec![("multiply-add", 20.0), ("add-add", 10.0)]);
        let tight = DesignConstraints {
            area_budget: 300.0, // fits add-add only
            ..DesignConstraints::default()
        };
        let design = AsipDesigner::new(tight).design_from_report(&r);
        assert_eq!(design.len(), 1);
        assert_eq!(design.extensions[0].signature.to_string(), "add-add");
        assert!(design.extension_area <= 300.0);
    }

    #[test]
    fn respects_opcode_budget_and_clock() {
        let r = report(vec![
            ("add-add", 10.0),
            ("add-subtract", 9.0),
            ("add-logic", 8.0),
            ("add-shift", 7.0),
            ("shift-add", 6.0),
        ]);
        let cons = DesignConstraints {
            max_extensions: 2,
            ..DesignConstraints::default()
        };
        let design = AsipDesigner::new(cons).design_from_report(&r);
        assert_eq!(design.len(), 2);

        // a divide chain cannot close a 5 ns clock
        let r = report(vec![("divide-add", 50.0)]);
        let fast = DesignConstraints {
            clock_ns: 5.0,
            ..DesignConstraints::default()
        };
        assert!(AsipDesigner::new(fast).design_from_report(&r).is_empty());
    }

    #[test]
    fn wrapper_agrees_with_schedule_core() {
        // design_for is exactly "optimize, then design_from_schedule":
        // a session holding the same schedule gets the same design
        let benches = asip_benchmarks::registry();
        let b = benches.find("sewha").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let designer = AsipDesigner::new(DesignConstraints::default());
        let graph = Optimizer::new(designer.constraints().opt_level)
            .with_config(designer.opt_config())
            .run(&program, &profile);
        assert_eq!(
            designer.design_for(&program, &profile),
            designer.design_from_schedule(&graph, &program)
        );
    }

    #[test]
    fn wrapper_honors_opt_config() {
        // the headline bug: selection must follow the configured
        // schedule, not a silently re-derived default one
        let benches = asip_benchmarks::registry();
        let b = benches.find("sewha").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let designer = AsipDesigner::new(DesignConstraints::default()).with_opt_config(OptConfig {
            unroll: 4,
            ..OptConfig::default()
        });
        let graph = Optimizer::new(designer.constraints().opt_level)
            .with_config(designer.opt_config())
            .run(&program, &profile);
        assert_eq!(
            designer.design_for(&program, &profile),
            designer.design_from_schedule(&graph, &program),
            "the wrapper must schedule with its own OptConfig"
        );
    }

    #[test]
    fn skips_unfusable_signatures() {
        // memory ops cannot be fused by the rewriter
        let r = report(vec![("load-multiply", 30.0), ("add-store", 25.0)]);
        let design = AsipDesigner::new(DesignConstraints::default()).design_from_report(&r);
        assert!(design.is_empty());
    }
}
