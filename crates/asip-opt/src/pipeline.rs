//! Loop pipelining by kernel formation (unroll-and-compact).
//!
//! The UCI compiler's loop pipelining (Potasman's percolation-based
//! perfect pipelining) overlaps successive iterations of an innermost
//! loop until a repeating kernel emerges. For sequence analysis the
//! essential artifact is that kernel: a region in which operations from
//! iteration *i* and iteration *i+1* coexist, so loop-carried data flow
//! (an `add` whose result feeds next iteration's `multiply`) becomes
//! *visible adjacency* in the scheduled graph — the effect the paper
//! highlights in Section 6.
//!
//! We form the kernel by unrolling the single-block loop body `U` times
//! into one straight-line region (register reuse carries the true
//! cross-iteration data flow) and letting the compactor schedule it.
//! Interior copies of the exit test are dropped — the pipelined loop
//! tests once per kernel, exactly like an unrolled/pipelined loop on real
//! hardware. Each retained op copy receives `1/U` of the original
//! dynamic count, so summed weights still reproduce the measured profile.

use crate::graph::ScheduledOp;
use crate::work::Work;
use asip_ir::{BlockId, InstKind};
use std::collections::HashSet;

/// Which loops were pipelined, for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Body blocks that were kernel-formed.
    pub pipelined_blocks: Vec<BlockId>,
}

/// Pipeline every eligible innermost loop in `work`.
///
/// Eligible loops are single-block natural loops (the bottom-test shape
/// the front end emits): a block that branches back to itself. Loops
/// whose body contains another loop are left alone (only innermost loops
/// pipeline, as in the paper's compiler).
pub fn pipeline_loops(work: &mut Work, unroll: usize) -> PipelineReport {
    let mut report = PipelineReport::default();
    if unroll < 2 {
        return report;
    }
    let self_looping: Vec<BlockId> = work
        .blocks
        .iter()
        .filter(|b| !b.ops.is_empty() && b.succs.contains(&b.id))
        .map(|b| b.id)
        .collect();

    for id in self_looping {
        if kernel_form(work, id, unroll) {
            report.pipelined_blocks.push(id);
        }
    }
    report
}

/// Unroll the body of single-block loop `id` in place. Returns false if
/// the block doesn't have the expected shape.
fn kernel_form(work: &mut Work, id: BlockId, unroll: usize) -> bool {
    let block = &work.blocks[id.index()];
    let n = block.ops.len();
    if n < 2 {
        return false;
    }
    // terminator must be the self-branch
    let Some(term) = block.ops.last() else {
        return false;
    };
    let InstKind::Branch { .. } = term.inst.kind else {
        return false;
    };
    if !term.inst.targets().contains(&id) {
        return false;
    }

    // ops that feed (transitively, within the body) the exit test are the
    // loop-control slice; the final test needs the *last* copy of them,
    // which register reuse provides automatically, so all copies stay.
    let body: Vec<ScheduledOp> = block.ops[..n - 1].to_vec();
    let term = block.ops[n - 1].clone();
    let u = unroll as f64;

    let mut kernel: Vec<ScheduledOp> = Vec::with_capacity(body.len() * unroll + 1);
    for _iteration in 0..unroll {
        for op in &body {
            let mut copy = op.clone();
            copy.weight = op.weight / u;
            kernel.push(copy);
        }
    }
    let mut final_term = term;
    final_term.weight /= u;
    kernel.push(final_term);

    let wb = &mut work.blocks[id.index()];
    wb.ops = kernel;
    wb.exec_weight /= u;
    true
}

/// Registers written by an op set (helper for tests and the compactor).
pub fn defs_of(ops: &[ScheduledOp]) -> HashSet<asip_ir::Reg> {
    ops.iter().filter_map(|o| o.inst.dst()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, Operand, Program, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    fn mac_loop() -> (Program, asip_sim::Profile) {
        // acc += x[i] * k; i++ — single-block bottom-test loop
        let mut b = ProgramBuilder::new("mac");
        let x = b.input_array("x", Ty::Int, 8);
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        let g = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(8));
        b.branch(g.into(), body, exit);
        b.select_block(body);
        let v = b.load(x, i.into());
        let t = b.binary(BinOp::Mul, v.into(), Operand::imm_int(3));
        b.binary_to(acc, BinOp::Add, acc.into(), t.into());
        b.binary_to(i, BinOp::Add, i.into(), Operand::imm_int(1));
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(8));
        b.branch(c.into(), body, exit);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", (0..8).collect());
        let profile = Simulator::new(&p).run(&d).expect("runs").profile;
        (p, profile)
    }

    #[test]
    fn kernel_doubles_body_and_halves_weights() {
        let (p, profile) = mac_loop();
        let mut w = Work::new(&p, &profile);
        let body_id = BlockId(1);
        let orig_ops = w.blocks[body_id.index()].ops.len(); // 5 body + 1 branch
        let orig_weight: f64 = w.blocks[body_id.index()]
            .ops
            .iter()
            .filter(|o| !o.inst.is_terminator())
            .map(|o| o.weight)
            .sum();

        let report = pipeline_loops(&mut w, 2);
        assert_eq!(report.pipelined_blocks, vec![body_id]);

        let wb = &w.blocks[body_id.index()];
        assert_eq!(wb.ops.len(), (orig_ops - 1) * 2 + 1);
        let new_weight: f64 = wb
            .ops
            .iter()
            .filter(|o| !o.inst.is_terminator())
            .map(|o| o.weight)
            .sum();
        assert!((new_weight - orig_weight).abs() < 1e-9, "weights conserved");
        // exactly one terminator, at the end
        assert!(wb.ops.last().expect("nonempty").inst.is_terminator());
        assert_eq!(wb.ops.iter().filter(|o| o.inst.is_terminator()).count(), 1);
    }

    #[test]
    fn cross_iteration_flow_is_present_in_kernel() {
        let (p, profile) = mac_loop();
        let mut w = Work::new(&p, &profile);
        pipeline_loops(&mut w, 2);
        let wb = &w.blocks[1];
        // find the first copy of `i = i + 1` and the second copy of the
        // load using i: they form an add -> load flow pair
        let i_updates: Vec<usize> = wb
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                matches!(&o.inst.kind, InstKind::Binary { op: BinOp::Add, dst, .. }
                    if o.inst.reads(*dst))
            })
            .map(|(k, _)| k)
            .collect();
        assert!(i_updates.len() >= 2, "both iteration updates present");
        let loads: Vec<usize> = wb
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o.inst.kind, InstKind::Load { .. }))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(loads.len(), 2);
        // second load comes after first i-update: its index register
        // carries the incremented value (cross-iteration flow)
        assert!(loads[1] > i_updates[0]);
    }

    #[test]
    fn non_self_loop_blocks_untouched() {
        let (p, profile) = mac_loop();
        let mut w = Work::new(&p, &profile);
        let entry_before = w.blocks[0].ops.clone();
        pipeline_loops(&mut w, 2);
        assert_eq!(w.blocks[0].ops, entry_before);
        assert_eq!(w.blocks[2].ops.len(), 1);
    }

    #[test]
    fn unroll_factor_one_is_identity() {
        let (p, profile) = mac_loop();
        let mut w = Work::new(&p, &profile);
        let before = w.blocks[1].ops.clone();
        let report = pipeline_loops(&mut w, 1);
        assert!(report.pipelined_blocks.is_empty());
        assert_eq!(w.blocks[1].ops, before);
    }

    #[test]
    fn higher_unroll_factors() {
        let (p, profile) = mac_loop();
        let mut w = Work::new(&p, &profile);
        pipeline_loops(&mut w, 4);
        let wb = &w.blocks[1];
        assert_eq!(wb.ops.len(), 5 * 4 + 1);
        // weights quartered
        let load_w: Vec<f64> = wb
            .ops
            .iter()
            .filter(|o| matches!(o.inst.kind, InstKind::Load { .. }))
            .map(|o| o.weight)
            .collect();
        assert_eq!(load_w.len(), 4);
        assert!((load_w[0] - 2.0).abs() < 1e-9, "8 iterations / 4 = 2");
    }
}
