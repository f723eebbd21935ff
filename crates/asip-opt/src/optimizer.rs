//! The optimization driver: levels 0/1/2 of the paper.

use crate::compact::compact_block;
use crate::graph::ScheduleGraph;
use crate::hoist::hoist_upward;
use crate::ifconv::if_convert;
use crate::pipeline::pipeline_loops;
use crate::rename::rename_registers;
use crate::work::Work;
use asip_ir::Program;
use asip_sim::Profile;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three optimization levels of the paper's experiments (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OptLevel {
    /// Level 0: no optimization — sequential 3-address order.
    None,
    /// Level 1: loop pipelining + percolation scheduling, no renaming.
    Pipelined,
    /// Level 2: level 1 plus register renaming.
    PipelinedRenamed,
}

impl OptLevel {
    /// All levels, in paper order.
    pub fn all() -> [OptLevel; 3] {
        [
            OptLevel::None,
            OptLevel::Pipelined,
            OptLevel::PipelinedRenamed,
        ]
    }

    /// The paper's series label for this level.
    pub fn paper_label(self) -> &'static str {
        match self {
            OptLevel::None => "No Optimization",
            OptLevel::Pipelined => "Pipelined",
            OptLevel::PipelinedRenamed => "Pipelined + Renamed",
        }
    }

    /// Numeric level (0, 1, 2) as used in the paper's Table 2 header.
    pub fn number(self) -> u8 {
        match self {
            OptLevel::None => 0,
            OptLevel::Pipelined => 1,
            OptLevel::PipelinedRenamed => 2,
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// Tunable knobs for the optimizer (used by the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Kernel unroll factor for loop pipelining (≥ 2 to pipeline).
    pub unroll: usize,
    /// Whether to merge unconditional jump chains before compaction
    /// (percolation's trivial-node deletion).
    pub merge_blocks: bool,
    /// Issue width of the target VLIW (operations per node). The UCI
    /// compiler scheduled for a finite machine; width 4 is a typical
    /// mid-90s VLIW datapath.
    pub width: usize,
    /// Sweeps of cross-block upward code motion (percolation's
    /// `move_op` through block boundaries; 0 disables).
    pub hoist_passes: usize,
    /// Maximum arm size for if-conversion (percolation's `move_test`
    /// effect; 0 disables). Short pure branch arms fold into their
    /// parent region with profile-weighted ops.
    pub if_convert_max_ops: usize,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            unroll: 2,
            merge_blocks: true,
            width: 4,
            hoist_passes: 2,
            if_convert_max_ops: 6,
        }
    }
}

/// Drives the selected optimization level over a profiled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizer {
    level: OptLevel,
    config: OptConfig,
}

impl Optimizer {
    /// An optimizer at the given level with default configuration.
    pub fn new(level: OptLevel) -> Self {
        Optimizer {
            level,
            config: OptConfig::default(),
        }
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: OptConfig) -> Self {
        self.config = config;
        self
    }

    /// The configured level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Optimize `program` (with its measured `profile`) into a scheduled
    /// program graph.
    pub fn run(&self, program: &Program, profile: &Profile) -> ScheduleGraph {
        match self.level {
            OptLevel::None => ScheduleGraph::sequential(program, profile),
            OptLevel::Pipelined | OptLevel::PipelinedRenamed => {
                let mut work = Work::new(program, profile);
                if self.config.merge_blocks {
                    work.merge_jump_chains();
                }
                if self.config.if_convert_max_ops > 0 {
                    if_convert(&mut work, self.config.if_convert_max_ops);
                    if self.config.merge_blocks {
                        // folding a conditional often leaves jump chains
                        work.merge_jump_chains();
                    }
                }
                // Renaming runs BEFORE pipelining, as in the paper's
                // compiler: the renamed loop body carries its values to
                // the next iteration through the boundary copies, so the
                // overlapped iterations of the kernel communicate "only
                // through the renamed register" — which is exactly why
                // the paper observes renaming destroying cross-iteration
                // sequences.
                if self.level == OptLevel::PipelinedRenamed {
                    rename_registers(&mut work);
                }
                hoist_upward(&mut work, self.config.hoist_passes);
                pipeline_loops(&mut work, self.config.unroll);
                let width = self.config.width;
                let mut graph = work.into_graph(|wb| compact_block(wb, width));
                graph.region_chaining = true;
                debug_assert!(graph.check_invariants().is_ok());
                graph
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_sim::{DataSet, Simulator};

    fn fir_like() -> (Program, Profile) {
        let program = asip_frontend::compile(
            "fir8",
            r#"
            input float x[16];
            input float c[4];
            output float y[16];
            void main() {
                int i; int j; float acc;
                for (i = 0; i < 16; i = i + 1) {
                    acc = 0.0;
                    for (j = 0; j < 4; j = j + 1) {
                        acc = acc + c[j] * x[(i - j + 16) % 16];
                    }
                    y[i] = acc;
                }
            }
            "#,
        )
        .expect("compiles");
        let mut data = DataSet::new();
        data.bind_floats("x", (0..16).map(|k| k as f64 * 0.1).collect());
        data.bind_floats("c", vec![0.25, 0.5, 0.75, 1.0]);
        let profile = Simulator::new(&program).run(&data).expect("runs").profile;
        (program, profile)
    }

    #[test]
    fn level0_is_sequential() {
        let (p, profile) = fir_like();
        let g = Optimizer::new(OptLevel::None).run(&p, &profile);
        assert_eq!(g.max_width(), 1);
        assert_eq!(g.node_count(), p.inst_count());
        g.check_invariants().expect("invariants");
    }

    #[test]
    fn level1_compacts_and_pipelines() {
        let (p, profile) = fir_like();
        let g0 = Optimizer::new(OptLevel::None).run(&p, &profile);
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&p, &profile);
        g1.check_invariants().expect("invariants");
        assert!(g1.max_width() > 1, "compaction packs independent ops");
        assert!(
            g1.node_count() < g0.node_count(),
            "wide nodes mean fewer nodes"
        );
        // weight conservation for chainable ops (branch copies are
        // dropped by kernel formation, so compare chainable only)
        let w0 = g0.chainable_weight();
        let w1 = g1.chainable_weight();
        assert!(
            (w0 - w1).abs() / w0 < 1e-9,
            "chainable dynamic work is conserved: {w0} vs {w1}"
        );
    }

    #[test]
    fn level2_adds_registers_and_movs() {
        let (p, profile) = fir_like();
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&p, &profile);
        let g2 = Optimizer::new(OptLevel::PipelinedRenamed).run(&p, &profile);
        g2.check_invariants().expect("invariants");
        let movs = |g: &ScheduleGraph| {
            g.ops()
                .filter(|(_, o)| {
                    matches!(
                        o.inst.kind,
                        asip_ir::InstKind::Unary {
                            op: asip_ir::UnOp::Mov,
                            ..
                        }
                    )
                })
                .count()
        };
        assert!(movs(&g2) > movs(&g1), "renaming inserts boundary copies");
    }

    #[test]
    fn level2_schedules_at_least_as_wide() {
        let (p, profile) = fir_like();
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&p, &profile);
        let g2 = Optimizer::new(OptLevel::PipelinedRenamed).run(&p, &profile);
        assert!(g2.max_width() >= g1.max_width());
    }

    #[test]
    fn pipelining_shortens_weighted_schedule() {
        let (p, profile) = fir_like();
        let g0 = Optimizer::new(OptLevel::None).run(&p, &profile);
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&p, &profile);
        assert!(
            g1.weighted_cycles() < g0.weighted_cycles(),
            "optimization must shorten the dynamic schedule"
        );
    }

    #[test]
    fn unroll_config_controls_kernel_size() {
        let (p, profile) = fir_like();
        let g2 = Optimizer::new(OptLevel::Pipelined)
            .with_config(OptConfig {
                unroll: 2,
                ..OptConfig::default()
            })
            .run(&p, &profile);
        let g4 = Optimizer::new(OptLevel::Pipelined)
            .with_config(OptConfig {
                unroll: 4,
                ..OptConfig::default()
            })
            .run(&p, &profile);
        let ops2: usize = g2.nodes().map(|n| n.ops.len()).sum();
        let ops4: usize = g4.nodes().map(|n| n.ops.len()).sum();
        assert!(ops4 > ops2, "larger kernels hold more op copies");
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(OptLevel::None.paper_label(), "No Optimization");
        assert_eq!(OptLevel::Pipelined.paper_label(), "Pipelined");
        assert_eq!(
            OptLevel::PipelinedRenamed.paper_label(),
            "Pipelined + Renamed"
        );
        assert_eq!(OptLevel::None.number(), 0);
        assert_eq!(OptLevel::Pipelined.number(), 1);
        assert_eq!(OptLevel::PipelinedRenamed.number(), 2);
    }
}
