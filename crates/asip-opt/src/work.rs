//! The optimizer's working representation: per-block op lists with CFG
//! edges and profile-derived weights, mutable by the passes.

use crate::graph::{ScheduleGraph, ScheduledOp};
use asip_ir::{BlockId, Cfg, Liveness, Program, Reg, Ty};
use asip_sim::Profile;
use std::collections::HashSet;

/// A block under transformation.
#[derive(Debug, Clone)]
pub struct WorkBlock {
    /// Source block id.
    pub id: BlockId,
    /// Ops in order; the terminator is last. May be empty after merging.
    pub ops: Vec<ScheduledOp>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
    /// Dynamic entries into this block (post-transformation estimate).
    pub exec_weight: f64,
    /// Registers live on exit (from the original program's liveness;
    /// maintained across merges).
    pub live_out: HashSet<Reg>,
    /// Registers live on entry (used by the hoist pass to prove a
    /// speculated definition dead on sibling paths).
    pub live_in: HashSet<Reg>,
}

/// The whole function under transformation.
#[derive(Debug, Clone)]
pub struct Work {
    /// Program name.
    pub name: String,
    /// Blocks, indexed by original [`BlockId`]. Merged-away blocks have
    /// empty `ops`.
    pub blocks: Vec<WorkBlock>,
    /// Entry block.
    pub entry: BlockId,
    /// Register types; grows when renaming allocates fresh registers.
    pub reg_types: Vec<Ty>,
    /// `true` per array with float elements.
    pub arrays_float: Vec<bool>,
    /// Total dynamic ops of the profiled run (the frequency denominator).
    pub total_profile_ops: u64,
}

impl Work {
    /// Build the working representation from a program and its profile.
    pub fn new(program: &Program, profile: &Profile) -> Self {
        let cfg = Cfg::new(program);
        let liveness = Liveness::new(program, &cfg);
        let blocks = program
            .blocks()
            .iter()
            .map(|b| WorkBlock {
                id: b.id,
                ops: b
                    .insts
                    .iter()
                    .map(|inst| ScheduledOp {
                        inst: inst.clone(),
                        orig: inst.id,
                        weight: profile.count(inst.id) as f64,
                    })
                    .collect(),
                succs: cfg.succs(b.id).to_vec(),
                preds: cfg.preds(b.id).to_vec(),
                exec_weight: profile.block_count(b.id) as f64,
                live_out: liveness.live_out(b.id).clone(),
                live_in: liveness.live_in(b.id).clone(),
            })
            .collect();
        Work {
            name: program.name.clone(),
            blocks,
            entry: program.entry,
            reg_types: program.reg_types.clone(),
            arrays_float: program.arrays.iter().map(|a| a.ty == Ty::Float).collect(),
            total_profile_ops: profile.total_ops(),
        }
    }

    /// Allocate a fresh register (used by renaming).
    pub fn new_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_types.len() as u32);
        self.reg_types.push(ty);
        r
    }

    /// Merge single-pred/single-succ jump chains: when block `b` has
    /// exactly one predecessor `p`, `p`'s only successor is `b`, and `p`
    /// ends in an unconditional jump, `b`'s ops are appended to `p`
    /// (dropping the jump). This is the percolation-scheduling "delete
    /// empty/trivial node" transformation at block granularity; it lets
    /// compaction see across what used to be a control-flow seam.
    /// Returns the number of merges performed.
    pub fn merge_jump_chains(&mut self) -> usize {
        let mut merges = 0;
        loop {
            let Some((p, b)) = self.find_mergeable() else {
                return merges;
            };
            // drop p's terminator (the jump)
            let mut tail = std::mem::take(&mut self.blocks[b.index()].ops);
            let pb = &mut self.blocks[p.index()];
            let term = pb.ops.pop();
            debug_assert!(matches!(
                term.as_ref().map(|t| t.inst.is_terminator()),
                Some(true)
            ));
            pb.ops.append(&mut tail);
            let b_succs = std::mem::take(&mut self.blocks[b.index()].succs);
            let b_live_out = std::mem::take(&mut self.blocks[b.index()].live_out);
            self.blocks[b.index()].preds.clear();
            self.blocks[p.index()].succs = b_succs.clone();
            self.blocks[p.index()].live_out = b_live_out;
            for s in b_succs {
                for pred in &mut self.blocks[s.index()].preds {
                    if *pred == b {
                        *pred = p;
                    }
                }
            }
            merges += 1;
        }
    }

    fn find_mergeable(&self) -> Option<(BlockId, BlockId)> {
        for b in &self.blocks {
            if b.ops.is_empty() || b.id == self.entry {
                continue;
            }
            if b.preds.len() != 1 {
                continue;
            }
            let p = b.preds[0];
            if p == b.id {
                continue; // self-loop
            }
            let pb = &self.blocks[p.index()];
            if pb.ops.is_empty() || pb.succs.len() != 1 {
                continue;
            }
            let is_jump = pb
                .ops
                .last()
                .map(|t| matches!(t.inst.kind, asip_ir::InstKind::Jump { .. }))
                .unwrap_or(false);
            if is_jump {
                return Some((p, b.id));
            }
        }
        None
    }

    /// Assemble the final [`ScheduleGraph`] from per-block node layouts.
    ///
    /// `layout(block)` must return the ops of each node of that block, in
    /// issue order. Empty (merged-away) blocks are skipped.
    pub fn into_graph(
        self,
        mut layout: impl FnMut(&WorkBlock) -> Vec<Vec<ScheduledOp>>,
    ) -> ScheduleGraph {
        let blocks = &self.blocks;
        ScheduleGraph::assemble(
            self.name,
            blocks.len(),
            blocks
                .iter()
                .filter(|wb| !wb.ops.is_empty())
                .map(|wb| (wb.id, layout(wb))),
            |b| blocks[b.index()].succs.iter().copied(),
            self.entry,
            self.arrays_float,
            self.total_profile_ops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, Operand, ProgramBuilder};
    use asip_sim::{DataSet, Simulator};

    fn jump_chain_program() -> Program {
        // entry -jmp-> mid -jmp-> tail(ret)
        let mut b = ProgramBuilder::new("chain");
        let entry = b.entry_block();
        let mid = b.new_block();
        let tail = b.new_block();
        b.select_block(entry);
        let t = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        b.jump(mid);
        b.select_block(mid);
        let u = b.binary(BinOp::Mul, t.into(), Operand::imm_int(3));
        b.jump(tail);
        b.select_block(tail);
        b.ret(Some(u.into()));
        b.finish().expect("valid")
    }

    #[test]
    fn builds_from_program_with_weights() {
        let p = jump_chain_program();
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let w = Work::new(&p, &profile);
        assert_eq!(w.blocks.len(), 3);
        assert_eq!(w.blocks[0].ops.len(), 2);
        assert_eq!(w.blocks[0].exec_weight, 1.0);
        assert_eq!(w.total_profile_ops, profile.total_ops());
    }

    #[test]
    fn merges_jump_chains() {
        let p = jump_chain_program();
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let mut w = Work::new(&p, &profile);
        let merges = w.merge_jump_chains();
        assert_eq!(merges, 2);
        // everything lives in the entry block now
        assert_eq!(w.blocks[0].ops.len(), 3, "add, mul, ret");
        assert!(w.blocks[1].ops.is_empty());
        assert!(w.blocks[2].ops.is_empty());
        assert!(w.blocks[0].succs.is_empty());
    }

    #[test]
    fn merge_skips_loops_and_joins() {
        // single-block self loop must not merge with itself
        let mut b = ProgramBuilder::new("loop");
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(asip_ir::Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.jump(body);
        b.select_block(body);
        b.binary_to(i, BinOp::Add, i.into(), Operand::imm_int(1));
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(3));
        b.branch(c.into(), body, exit);
        b.select_block(exit);
        b.ret(None);
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let mut w = Work::new(&p, &profile);
        let merges = w.merge_jump_chains();
        // entry -> body is mergeable? body has 2 preds (entry + itself): no.
        assert_eq!(merges, 0);
    }

    #[test]
    fn into_graph_wires_cross_block_edges() {
        let p = jump_chain_program();
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let w = Work::new(&p, &profile);
        // trivial layout: one node per op
        let g = w.into_graph(|wb| wb.ops.iter().map(|o| vec![o.clone()]).collect());
        g.check_invariants().expect("invariants");
        assert_eq!(g.node_count(), 5);
    }
}
