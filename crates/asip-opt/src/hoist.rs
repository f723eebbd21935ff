//! Cross-block upward code motion: percolation scheduling's `move_op`
//! through block boundaries.
//!
//! An operation at the top of a block can move to the end of its
//! predecessor(s) when that is semantics-preserving:
//!
//! - the op is pure (no store, no control flow; speculative loads are
//!   allowed, as in percolation with safe memory);
//! - none of its operands is defined earlier in its own block (it truly
//!   sits at the top);
//! - moving it above the predecessor's branch does not clobber a value
//!   other paths need: its destination must not be live into any other
//!   successor of the predecessor, and must not be read by the
//!   predecessor's terminator;
//! - at a join, the op is *duplicated* into every predecessor
//!   (percolation's duplication rule), splitting its dynamic weight
//!   proportionally to predecessor execution counts.
//!
//! Note how register renaming feeds this pass: renamed definitions are
//! fresh registers, dead on every other path by construction, so level 2
//! hoists more aggressively — the paper's "renaming is an effective
//! optimization for moving operations as high as possible".

use crate::graph::ScheduledOp;
use crate::work::Work;
use asip_ir::{BlockId, InstKind};

/// Statistics from the hoist pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HoistReport {
    /// Ops moved into a single predecessor.
    pub moved: usize,
    /// Ops duplicated into multiple predecessors (counted once each).
    pub duplicated: usize,
}

/// Run `passes` sweeps of upward motion over all blocks.
pub fn hoist_upward(work: &mut Work, passes: usize) -> HoistReport {
    let mut report = HoistReport::default();
    for _ in 0..passes {
        let mut changed = false;
        for bi in 0..work.blocks.len() {
            if let Some(moved_to) = try_hoist_first_op(work, BlockId(bi as u32)) {
                changed = true;
                if moved_to == 1 {
                    report.moved += 1;
                } else {
                    report.duplicated += 1;
                }
            }
        }
        if !changed {
            break;
        }
    }
    report
}

/// Attempt to hoist the first body op of `b`; returns the number of
/// predecessors it was placed into.
fn try_hoist_first_op(work: &mut Work, b: BlockId) -> Option<usize> {
    let block = &work.blocks[b.index()];
    if b == work.entry || block.ops.len() < 2 {
        return None;
    }
    let op = &block.ops[0];
    // pure, non-control, non-store; speculative loads allowed
    if op.inst.is_terminator() || matches!(op.inst.kind, InstKind::Store { .. }) {
        return None;
    }
    let dst = op.inst.dst()?;
    let preds = block.preds.clone();
    if preds.is_empty() || preds.contains(&b) {
        return None; // entry-like or self-loop latch
    }
    // operand availability is implied by being the first op: all operands
    // flow in from the predecessors
    for &p in &preds {
        let pb = &work.blocks[p.index()];
        if pb.ops.is_empty() {
            return None; // merged-away predecessor
        }
        let term = pb.ops.last().expect("non-empty");
        if !term.inst.is_terminator() {
            return None;
        }
        // the branch must not read the register we are about to define
        if term.inst.reads(dst) {
            return None;
        }
        // speculation safety: dst dead on every other path out of p
        for &s in &pb.succs {
            if s == b {
                continue;
            }
            if work.blocks[s.index()].live_in.contains(&dst) {
                return None;
            }
        }
        // and dead at p's own exit toward its other successors is covered
        // above; p-internal ops all execute before our appended op, so no
        // further anti-dependence can be violated
    }

    // perform the motion: remove from b, append before each pred's
    // terminator, weight split by predecessor execution weight
    let op = work.blocks[b.index()].ops.remove(0);
    let total_pred_weight: f64 = preds
        .iter()
        .map(|p| work.blocks[p.index()].exec_weight)
        .sum();
    let k = preds.len();
    for &p in &preds {
        let pb = &mut work.blocks[p.index()];
        let share = if total_pred_weight > 0.0 {
            pb.exec_weight / total_pred_weight
        } else {
            1.0 / k as f64
        };
        let mut copy = ScheduledOp {
            inst: op.inst.clone(),
            orig: op.orig,
            weight: op.weight * share,
        };
        // keep instruction identity unique enough for debugging dumps
        copy.inst.id = op.inst.id;
        let term_pos = pb.ops.len() - 1;
        pb.ops.insert(term_pos, copy);
        // the value now lives out of p
        pb.live_out.insert(dst);
    }
    Some(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, Operand, Program, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    /// entry -> {left, right} -> join; join computes `s = a + b` first,
    /// where a and b are defined in entry (live through both arms).
    fn diamond() -> (Program, asip_sim::Profile) {
        let mut b = ProgramBuilder::new("dia");
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        let left = b.new_block();
        let right = b.new_block();
        let join = b.new_block();
        let a = b.new_reg(Ty::Int);
        let c = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(a, Operand::imm_int(4));
        b.mov_to(c, Operand::imm_int(5));
        let cond = b.binary(BinOp::CmpLt, a.into(), c.into());
        b.branch(cond.into(), left, right);
        b.select_block(left);
        b.jump(join);
        b.select_block(right);
        b.jump(join);
        b.select_block(join);
        let s = b.binary(BinOp::Add, a.into(), c.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        (p, profile)
    }

    #[test]
    fn join_op_duplicates_into_both_arms() {
        let (p, profile) = diamond();
        let mut w = Work::new(&p, &profile);
        let report = hoist_upward(&mut w, 1);
        assert_eq!(report.duplicated, 1, "the add moves into both arms");
        // the join lost its first op; both arms gained one
        assert_eq!(
            w.blocks[1]
                .ops
                .iter()
                .filter(|o| matches!(o.inst.kind, InstKind::Binary { .. }))
                .count(),
            1
        );
        assert_eq!(
            w.blocks[2]
                .ops
                .iter()
                .filter(|o| matches!(o.inst.kind, InstKind::Binary { .. }))
                .count(),
            1
        );
        // weight split: each arm executed once of two entries
        let w1 = w.blocks[1].ops[0].weight;
        let w2 = w.blocks[2].ops[0].weight;
        assert!((w1 + w2 - 1.0).abs() < 1e-9, "weights conserved");
    }

    #[test]
    fn hoist_refuses_when_dst_live_on_sibling_path() {
        // entry branches to {use_t, skip}; use_t computes t = a * 2 and
        // both paths join; if t were live into skip... construct: t is
        // defined at top of use_t, and skip also READS t (from entry's
        // initial def), so hoisting t's redefinition above the branch
        // would clobber skip's value
        let mut b = ProgramBuilder::new("spec");
        let y = b.output_array("y", Ty::Int, 2);
        let entry = b.entry_block();
        let use_t = b.new_block();
        let skip = b.new_block();
        let t = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(t, Operand::imm_int(100));
        let cond = b.binary(BinOp::CmpLt, t.into(), Operand::imm_int(3));
        b.branch(cond.into(), use_t, skip);
        b.select_block(use_t);
        b.binary_to(t, BinOp::Mul, Operand::imm_int(2), Operand::imm_int(3));
        b.store(y, Operand::imm_int(0), t.into());
        b.ret(None);
        b.select_block(skip);
        b.store(y, Operand::imm_int(1), t.into()); // reads entry's t
        b.ret(None);
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let mut w = Work::new(&p, &profile);
        let before: usize = w.blocks[1].ops.len();
        let report = hoist_upward(&mut w, 2);
        assert_eq!(report.moved + report.duplicated, 0, "unsafe hoist refused");
        assert_eq!(w.blocks[1].ops.len(), before);
    }

    #[test]
    fn hoist_refuses_branch_condition_clobber() {
        // the op at the top of the target block defines the very register
        // the predecessor's branch reads
        let mut b = ProgramBuilder::new("cond");
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        let then_b = b.new_block();
        let else_b = b.new_block();
        let c = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.binary_to(c, BinOp::CmpLt, Operand::imm_int(1), Operand::imm_int(2));
        b.branch(c.into(), then_b, else_b);
        b.select_block(then_b);
        b.binary_to(c, BinOp::Add, Operand::imm_int(7), Operand::imm_int(8));
        b.store(y, Operand::imm_int(0), c.into());
        b.ret(None);
        b.select_block(else_b);
        b.ret(None);
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let mut w = Work::new(&p, &profile);
        let report = hoist_upward(&mut w, 1);
        assert_eq!(
            report.moved + report.duplicated,
            0,
            "must not clobber the branch condition"
        );
    }

    #[test]
    fn stores_and_terminators_never_hoist() {
        let (p, profile) = diamond();
        let mut w = Work::new(&p, &profile);
        hoist_upward(&mut w, 3);
        // the store and ret stayed in the join
        let join = &w.blocks[3];
        assert!(join
            .ops
            .iter()
            .any(|o| matches!(o.inst.kind, InstKind::Store { .. })));
        assert!(join.ops.last().expect("nonempty").inst.is_terminator());
    }

    #[test]
    fn weight_conservation_across_hoisting() {
        let (p, profile) = diamond();
        let mut w = Work::new(&p, &profile);
        let total_before: f64 = w
            .blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .map(|o| o.weight)
            .sum();
        hoist_upward(&mut w, 3);
        let total_after: f64 = w
            .blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .map(|o| o.weight)
            .sum();
        assert!((total_before - total_after).abs() < 1e-9);
    }
}
