//! Register renaming (optimization level 2).
//!
//! Every definition inside a block receives a fresh register, and uses
//! are rewritten to read the current version. Values that are live out of
//! the block are copied back to their original registers at the block's
//! bottom (before the terminator) so cross-block consumers still find
//! them — these are the "renamed register" copies the paper describes.
//!
//! Consequences for the scheduled graph (both observed in the paper):
//!
//! 1. Anti- and output-dependences inside the block disappear, so the
//!    compactor can hoist producers to their earliest data-ready cycle —
//!    far from consumers pinned late by recurrences.
//! 2. Cross-block (and cross-kernel-iteration) data flow is routed
//!    through `mov`s, breaking direct producer→consumer chains.

use crate::work::Work;
use asip_ir::{Inst, InstId, InstKind, Operand, Reg, UnOp};
use std::collections::HashMap;

/// Statistics from a renaming pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenameReport {
    /// Definitions given fresh registers.
    pub renamed_defs: usize,
    /// Boundary copies inserted for live-out values.
    pub boundary_movs: usize,
}

/// Rename every block of `work` in place.
pub fn rename_registers(work: &mut Work) -> RenameReport {
    let mut report = RenameReport::default();
    for bi in 0..work.blocks.len() {
        if work.blocks[bi].ops.is_empty() {
            continue;
        }
        // current version of each original register within this block
        let mut version: HashMap<Reg, Reg> = HashMap::new();
        let mut fresh_types = Vec::new();

        {
            let reg_types = &work.reg_types;
            let next_base = reg_types.len() as u32;
            let wb = &mut work.blocks[bi];
            for op in &mut wb.ops {
                op.inst.map_uses(|r| version.get(&r).copied().unwrap_or(r));
                if let Some(d) = op.inst.dst() {
                    let ty = if d.index() < reg_types.len() {
                        reg_types[d.index()]
                    } else {
                        fresh_types[d.index() - reg_types.len()]
                    };
                    let fresh = Reg(next_base + fresh_types.len() as u32);
                    fresh_types.push(ty);
                    op.inst.set_dst(fresh);
                    version.insert(d, fresh);
                    report.renamed_defs += 1;
                }
            }
        }
        work.reg_types.extend(fresh_types);

        // boundary copies for live-out originals, inserted before the
        // terminator
        let wb = &mut work.blocks[bi];
        let term_pos = wb
            .ops
            .iter()
            .rposition(|o| o.inst.is_terminator())
            .unwrap_or(wb.ops.len());
        let exec_weight = wb.exec_weight;
        let mut movs = Vec::new();
        let mut pairs: Vec<(Reg, Reg)> = version
            .iter()
            .filter(|(orig, _)| wb.live_out.contains(orig))
            .map(|(o, f)| (*o, *f))
            .collect();
        pairs.sort_by_key(|(o, _)| o.0);
        for (orig, fresh) in pairs {
            movs.push(crate::graph::ScheduledOp {
                inst: Inst::new(
                    InstId(u32::MAX), // synthetic: never present in the profile
                    InstKind::Unary {
                        op: UnOp::Mov,
                        dst: orig,
                        src: Operand::Reg(fresh),
                    },
                ),
                orig: InstId(u32::MAX),
                weight: exec_weight,
            });
            report.boundary_movs += 1;
        }
        // the terminator may read a renamed register; it was already
        // rewritten above, so simple splicing is safe
        let tail = wb.ops.split_off(term_pos);
        wb.ops.extend(movs);
        wb.ops.extend(tail);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::pipeline_loops;
    use asip_ir::{BinOp, Program, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    fn counted_loop() -> (Program, asip_sim::Profile) {
        let mut b = ProgramBuilder::new("cl");
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        let g = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(6));
        b.branch(g.into(), body, exit);
        b.select_block(body);
        let t = b.binary(BinOp::Mul, i.into(), Operand::imm_int(3));
        b.binary_to(acc, BinOp::Add, acc.into(), t.into());
        b.binary_to(i, BinOp::Add, i.into(), Operand::imm_int(1));
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(6));
        b.branch(c.into(), body, exit);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        (p, profile)
    }

    #[test]
    fn defs_get_fresh_registers() {
        let (p, profile) = counted_loop();
        let orig_regs = p.reg_types.len();
        let mut w = Work::new(&p, &profile);
        let report = rename_registers(&mut w);
        assert!(report.renamed_defs > 0);
        assert!(w.reg_types.len() > orig_regs);
        // no two defs in a block share a destination anymore
        for wb in &w.blocks {
            let mut seen = std::collections::HashSet::new();
            for op in &wb.ops {
                if let Some(d) = op.inst.dst() {
                    assert!(seen.insert(d), "duplicate def of {d} after renaming");
                }
            }
        }
    }

    #[test]
    fn boundary_movs_restore_live_outs() {
        let (p, profile) = counted_loop();
        let mut w = Work::new(&p, &profile);
        let report = rename_registers(&mut w);
        assert!(report.boundary_movs > 0);
        // body block: i and acc live out -> two movs before the branch
        let body = &w.blocks[1];
        let n = body.ops.len();
        assert!(body.ops[n - 1].inst.is_terminator());
        let movs: Vec<_> = body
            .ops
            .iter()
            .filter(|o| matches!(o.inst.kind, InstKind::Unary { op: UnOp::Mov, .. }))
            .collect();
        assert_eq!(movs.len(), 2, "i and acc copied back");
        // movs write the ORIGINAL registers
        let mov_dsts: Vec<Reg> = movs.iter().filter_map(|o| o.inst.dst()).collect();
        assert!(mov_dsts.contains(&Reg(0)));
        assert!(mov_dsts.contains(&Reg(1)));
    }

    #[test]
    fn uses_read_current_version() {
        let (p, profile) = counted_loop();
        let mut w = Work::new(&p, &profile);
        rename_registers(&mut w);
        // in the body, the compare at the bottom must read the *renamed*
        // version of i, not the original
        let body = &w.blocks[1];
        let cmp = body
            .ops
            .iter()
            .rfind(|o| {
                matches!(
                    o.inst.kind,
                    InstKind::Binary {
                        op: BinOp::CmpLt,
                        ..
                    }
                )
            })
            .expect("compare present");
        let orig_i = Reg(0);
        assert!(
            !cmp.inst.reads(orig_i),
            "bottom compare reads the renamed i"
        );
    }

    #[test]
    fn terminator_stays_last_and_weights_positive() {
        let (p, profile) = counted_loop();
        let mut w = Work::new(&p, &profile);
        pipeline_loops(&mut w, 2);
        rename_registers(&mut w);
        for wb in &w.blocks {
            if wb.ops.is_empty() {
                continue;
            }
            assert!(wb.ops.last().expect("nonempty").inst.is_terminator());
            assert_eq!(wb.ops.iter().filter(|o| o.inst.is_terminator()).count(), 1);
            assert!(wb.ops.iter().all(|o| o.weight >= 0.0));
        }
    }

    #[test]
    fn renaming_composes_with_pipelining() {
        let (p, profile) = counted_loop();
        let mut w = Work::new(&p, &profile);
        pipeline_loops(&mut w, 2);
        let report = rename_registers(&mut w);
        // unrolled body has 2 defs of acc, 2 of i, 2 muls, 2 cmps = 8 defs
        // (entry and exit add more)
        assert!(report.renamed_defs >= 8);
        // cross-iteration flow inside the kernel is direct: the second
        // mul reads the first i-update's *fresh* register (not through a mov)
        let body = &w.blocks[1];
        let first_i_update = body
            .ops
            .iter()
            .find(|o| {
                matches!(
                    &o.inst.kind,
                    InstKind::Binary {
                        op: BinOp::Add,
                        rhs: Operand::ImmInt(1),
                        ..
                    }
                )
            })
            .expect("i update");
        let fresh_i = first_i_update.inst.dst().expect("has dst");
        let second_mul = body
            .ops
            .iter()
            .filter(|o| matches!(o.inst.kind, InstKind::Binary { op: BinOp::Mul, .. }))
            .nth(1)
            .expect("second mul");
        assert!(second_mul.inst.reads(fresh_i));
    }

    use asip_ir::Operand;
}
