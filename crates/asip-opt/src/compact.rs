//! Percolation-style compaction: pack each block's ops into wide nodes.
//!
//! Within a block, percolation scheduling's `move_op` transformation
//! hoists each operation as high as its dependences — and the machine's
//! issue resources — allow. We model that as width-constrained list
//! scheduling over the block's dependence DAG: ops are placed at the
//! earliest cycle where their dependences are satisfied and an issue
//! slot is free, prioritized by critical-path height (so recurrence ops
//! issue first and independent fillers pack around them, exactly like a
//! resource-bounded VLIW schedule). The terminator issues in the final
//! node (standard VLIW branch placement), so back-edge chains stay
//! within one node of the loop top.

use crate::depdag::DepDag;
use crate::graph::ScheduledOp;
use crate::work::WorkBlock;

/// Compact one block into node layers (issue cycles) under an issue
/// width limit.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn compact_block(wb: &WorkBlock, width: usize) -> Vec<Vec<ScheduledOp>> {
    assert!(width > 0, "issue width must be positive");
    let n = wb.ops.len();
    if n == 0 {
        return Vec::new();
    }
    let dag = DepDag::new(&wb.ops);
    let term_idx = wb.ops.iter().rposition(|o| o.inst.is_terminator());

    // critical-path height for priority (ops in program order form a
    // topological order, so one reverse sweep suffices)
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        for &(j, lat) in dag.succs(i) {
            height[i] = height[i].max(height[j] + lat);
        }
    }

    let mut pred_count = vec![0usize; n];
    for i in 0..n {
        for &(j, _) in dag.succs(i) {
            pred_count[j] += 1;
        }
    }

    let mut earliest = vec![0u32; n];
    let mut cycle_of: Vec<Option<u32>> = vec![None; n];
    let mut unscheduled: usize = n - usize::from(term_idx.is_some());
    let mut cycle: u32 = 0;

    while unscheduled > 0 {
        let mut ready: Vec<usize> = (0..n)
            .filter(|&i| {
                Some(i) != term_idx
                    && cycle_of[i].is_none()
                    && pred_count[i] == 0
                    && earliest[i] <= cycle
            })
            .collect();
        ready.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));
        for &i in ready.iter().take(width) {
            cycle_of[i] = Some(cycle);
            unscheduled -= 1;
            for &(j, lat) in dag.succs(i) {
                pred_count[j] -= 1;
                earliest[j] = earliest[j].max(cycle + lat);
            }
        }
        cycle += 1;
        debug_assert!(
            cycle as usize <= 2 * n + 2,
            "scheduler failed to make progress"
        );
    }

    // the terminator joins the last busy cycle, unless its own
    // dependences (e.g. the branch condition) force a later one
    let last_busy = cycle_of.iter().flatten().copied().max().unwrap_or(0);
    if let Some(t) = term_idx {
        cycle_of[t] = Some(last_busy.max(earliest[t]));
    }

    let max_cycle = cycle_of.iter().flatten().copied().max().unwrap_or(0);
    let mut layers: Vec<Vec<ScheduledOp>> = vec![Vec::new(); (max_cycle + 1) as usize];
    for (i, op) in wb.ops.iter().enumerate() {
        let c = cycle_of[i].expect("all ops scheduled");
        layers[c as usize].push(op.clone());
    }
    layers.retain(|l| !l.is_empty());
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, BlockId, Inst, InstId, InstKind, Operand, Reg};
    use std::collections::HashSet;

    fn sop(id: u32, kind: InstKind) -> ScheduledOp {
        ScheduledOp {
            inst: Inst::new(InstId(id), kind),
            orig: InstId(id),
            weight: 1.0,
        }
    }

    fn add(id: u32, dst: u32, lhs: Operand, rhs: Operand) -> ScheduledOp {
        sop(
            id,
            InstKind::Binary {
                op: BinOp::Add,
                dst: Reg(dst),
                lhs,
                rhs,
            },
        )
    }

    fn block(ops: Vec<ScheduledOp>) -> WorkBlock {
        WorkBlock {
            id: BlockId(0),
            ops,
            succs: vec![],
            preds: vec![],
            exec_weight: 1.0,
            live_out: HashSet::new(),
            live_in: HashSet::new(),
        }
    }

    #[test]
    fn independent_ops_pack_into_one_node() {
        let wb = block(vec![
            add(0, 0, Operand::imm_int(1), Operand::imm_int(2)),
            add(1, 1, Operand::imm_int(3), Operand::imm_int(4)),
            sop(2, InstKind::Ret { value: None }),
        ]);
        let layers = compact_block(&wb, 4);
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].len(), 3);
        assert!(layers[0].iter().any(|o| o.inst.is_terminator()));
    }

    #[test]
    fn width_limits_parallelism() {
        let ops: Vec<ScheduledOp> = (0..8)
            .map(|k| add(k, k, Operand::imm_int(1), Operand::imm_int(2)))
            .chain([sop(8, InstKind::Ret { value: None })])
            .collect();
        let wide = compact_block(&block(ops.clone()), 8);
        assert_eq!(wide.len(), 1);
        let narrow = compact_block(&block(ops.clone()), 2);
        assert_eq!(narrow.len(), 4, "8 independent ops / width 2");
        assert!(narrow.iter().all(|l| l.len() <= 2 + 1)); // +1 for the terminator joining
        let serial = compact_block(&block(ops), 1);
        assert_eq!(serial.len(), 8);
    }

    #[test]
    fn critical_path_ops_have_priority() {
        // a 3-deep flow chain plus 3 independent fillers at width 2:
        // chain ops must be scheduled each cycle, fillers fit around them
        let mut ops = vec![
            add(0, 10, Operand::imm_int(1), Operand::imm_int(1)),
            add(1, 11, Reg(10).into(), Operand::imm_int(1)),
            add(2, 12, Reg(11).into(), Operand::imm_int(1)),
        ];
        for k in 0..3 {
            ops.push(add(3 + k, 20 + k, Operand::imm_int(5), Operand::imm_int(6)));
        }
        ops.push(sop(6, InstKind::Ret { value: None }));
        let layers = compact_block(&block(ops), 2);
        // 3 cycles minimum (chain); fillers fit in the free slots
        assert_eq!(layers.len(), 3);
        // the chain head issues in cycle 0
        assert!(layers[0].iter().any(|o| o.inst.dst() == Some(Reg(10))));
        assert!(layers[1].iter().any(|o| o.inst.dst() == Some(Reg(11))));
        assert!(layers[2].iter().any(|o| o.inst.dst() == Some(Reg(12))));
    }

    #[test]
    fn flow_chain_spreads_across_nodes() {
        let wb = block(vec![
            add(0, 0, Operand::imm_int(1), Operand::imm_int(2)),
            sop(
                1,
                InstKind::Binary {
                    op: BinOp::Mul,
                    dst: Reg(1),
                    lhs: Reg(0).into(),
                    rhs: Operand::imm_int(3),
                },
            ),
            sop(2, InstKind::Ret { value: None }),
        ]);
        let layers = compact_block(&wb, 4);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 1); // add
        assert_eq!(layers[1].len(), 2); // mul + ret share the last node
    }

    #[test]
    fn branch_waits_for_its_condition() {
        let wb = block(vec![
            add(0, 0, Operand::imm_int(1), Operand::imm_int(2)),
            sop(
                1,
                InstKind::Branch {
                    cond: Reg(0).into(),
                    then_target: BlockId(0),
                    else_target: BlockId(1),
                },
            ),
        ]);
        let layers = compact_block(&wb, 4);
        assert_eq!(layers.len(), 2);
        assert!(layers[1][0].inst.is_terminator());
    }

    #[test]
    fn empty_block_compacts_to_nothing() {
        let wb = block(vec![]);
        assert!(compact_block(&wb, 4).is_empty());
    }
}
