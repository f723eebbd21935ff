//! Machine-independent cleanup passes.
//!
//! The paper's front end (a modified gcc) emits reasonably clean 3-address
//! code; these passes bring our lowered IR to the same standard before it
//! is profiled and analyzed:
//!
//! - [`copy_propagate`] — local copy propagation through `mov`s;
//! - [`eliminate_dead_code`] — removal of pure instructions whose results
//!   are never observed;
//! - [`remove_unreachable_blocks`] — drops blocks the entry cannot reach;
//! - [`cleanup`] — the standard pipeline of all three, to fixpoint.

use crate::cfg::Cfg;
use crate::dataflow::Liveness;
use crate::inst::InstKind;
use crate::op::UnOp;
use crate::program::Program;
use crate::types::{BlockId, Operand, Reg};
use std::collections::HashMap;

/// Propagate copies (`mov d, s`) forward within each block, rewriting
/// later uses of `d` to `s`. Returns the number of operands rewritten.
///
/// A mapping is invalidated when either side is redefined.
pub fn copy_propagate(program: &mut Program) -> usize {
    let mut rewrites = 0;
    for block in &mut program.blocks {
        // reg -> replacement operand
        let mut map: HashMap<Reg, Operand> = HashMap::new();
        for inst in &mut block.insts {
            // rewrite uses first
            inst.map_uses(|r| r); // no-op; keeps the borrow simple below
            let mut replaced = false;
            let map_ref = &map;
            let rewrite = |o: Operand| -> Operand {
                if let Operand::Reg(r) = o {
                    if let Some(rep) = map_ref.get(&r) {
                        return *rep;
                    }
                }
                o
            };
            match &mut inst.kind {
                InstKind::Binary { lhs, rhs, .. } => {
                    let (l, r) = (rewrite(*lhs), rewrite(*rhs));
                    replaced = l != *lhs || r != *rhs;
                    *lhs = l;
                    *rhs = r;
                }
                InstKind::Unary { src, .. } => {
                    let s = rewrite(*src);
                    replaced = s != *src;
                    *src = s;
                }
                InstKind::Load { index, .. } => {
                    let i = rewrite(*index);
                    replaced = i != *index;
                    *index = i;
                }
                InstKind::Store { index, value, .. } => {
                    let (i, v) = (rewrite(*index), rewrite(*value));
                    replaced = i != *index || v != *value;
                    *index = i;
                    *value = v;
                }
                InstKind::Branch { cond, .. } => {
                    let c = rewrite(*cond);
                    replaced = c != *cond;
                    *cond = c;
                }
                InstKind::Ret { value: Some(v) } => {
                    let nv = rewrite(*v);
                    replaced = nv != *v;
                    *v = nv;
                }
                InstKind::Chained { inputs, .. } => {
                    for i in inputs.iter_mut() {
                        let ni = rewrite(*i);
                        if ni != *i {
                            replaced = true;
                        }
                        *i = ni;
                    }
                }
                _ => {}
            }
            if replaced {
                rewrites += 1;
            }
            // update the copy map
            if let Some(d) = inst.dst() {
                // any mapping reading d is now stale
                map.retain(|_, v| v.reg() != Some(d));
                map.remove(&d);
                if let InstKind::Unary {
                    op: UnOp::Mov, src, ..
                } = &inst.kind
                {
                    // only propagate type-preserving copies
                    let src_ty = match src {
                        Operand::Reg(r) => program.reg_types[r.index()],
                        Operand::ImmInt(_) => crate::types::Ty::Int,
                        Operand::ImmFloat(_) => crate::types::Ty::Float,
                    };
                    if src_ty == program.reg_types[d.index()] && *src != Operand::Reg(d) {
                        map.insert(d, *src);
                    }
                }
            }
        }
    }
    rewrites
}

/// Remove pure instructions whose destination is dead. Returns the number
/// of instructions removed.
pub fn eliminate_dead_code(program: &mut Program) -> usize {
    let cfg = Cfg::new(program);
    let liveness = Liveness::new(program, &cfg);
    let mut removed = 0;
    for bi in 0..program.blocks.len() {
        let block_id = BlockId(bi as u32);
        let mut live: std::collections::HashSet<Reg> =
            liveness.live_out(block_id).iter().copied().collect();
        let insts = &mut program.blocks[bi].insts;
        let mut keep = vec![true; insts.len()];
        for (idx, inst) in insts.iter().enumerate().rev() {
            let side_effect = inst.has_side_effects();
            let needed = match inst.dst() {
                Some(d) => live.contains(&d) || side_effect,
                None => true,
            };
            if needed {
                if let Some(d) = inst.dst() {
                    live.remove(&d);
                }
                for u in inst.uses() {
                    live.insert(u);
                }
            } else {
                keep[idx] = false;
                removed += 1;
            }
        }
        let mut it = keep.iter();
        insts.retain(|_| *it.next().expect("keep mask sized to insts"));
    }
    removed
}

/// Drop blocks unreachable from the entry, remapping block ids. Returns
/// the number of blocks removed.
pub fn remove_unreachable_blocks(program: &mut Program) -> usize {
    let cfg = Cfg::new(program);
    let reachable: Vec<bool> = (0..program.blocks.len())
        .map(|i| cfg.is_reachable(BlockId(i as u32)))
        .collect();
    let removed = reachable.iter().filter(|r| !**r).count();
    if removed == 0 {
        return 0;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; program.blocks.len()];
    let mut next = 0u32;
    for (i, r) in reachable.iter().enumerate() {
        if *r {
            remap[i] = Some(BlockId(next));
            next += 1;
        }
    }
    let mut blocks = std::mem::take(&mut program.blocks);
    blocks.retain(|b| reachable[b.id.index()]);
    for b in &mut blocks {
        b.id = remap[b.id.index()].expect("kept block");
        for inst in &mut b.insts {
            inst.map_targets(|t| remap[t.index()].expect("edges only to reachable blocks"));
        }
    }
    program.entry = remap[program.entry.index()].expect("entry reachable");
    program.blocks = blocks;
    removed
}

/// Coalesce `t = op ...; mov d, t` into `d = op ...` when `t` is a
/// single-def, single-use temporary and `d` is untouched in between.
/// Returns the number of movs coalesced.
///
/// This is what makes lowered assignments like `i = i + 1` occupy one
/// 3-address instruction, as a real compiler front end would emit.
///
/// One forward scan, with def/use counts and def sites kept up to date,
/// finds the coalesces a rescan after each one would, in order: a mov it
/// passed never qualifies later. Sites index a block as it was until the
/// scan leaves it and drops the coalesced movs.
pub fn coalesce_copies(program: &mut Program) -> usize {
    let regs = program.reg_types.len();
    let mut defs = vec![0u32; regs];
    let mut uses = vec![0u32; regs];
    // each register's last def: its only one, if it has one
    let mut site = vec![(BlockId(u32::MAX), 0usize); regs];
    for block in &program.blocks {
        for (index, inst) in block.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                defs[d.index()] += 1;
                site[d.index()] = (block.id, index);
            }
            inst.for_each_use(|u| uses[u.index()] += 1);
        }
    }
    let mut total = 0;
    let mut removed: Vec<bool> = Vec::new();
    for block in &mut program.blocks {
        let insts = &mut block.insts;
        removed.clear();
        removed.resize(insts.len(), false);
        'movs: for mov_idx in 0..insts.len() {
            let (d, t) = match &insts[mov_idx].kind {
                InstKind::Unary {
                    op: UnOp::Mov,
                    dst,
                    src: Operand::Reg(s),
                } if dst != s => (*dst, *s),
                _ => continue,
            };
            if program.reg_types[d.index()] != program.reg_types[t.index()] {
                continue;
            }
            // t must have exactly one def and one use (this mov)
            if defs[t.index()] != 1 || uses[t.index()] != 1 {
                continue;
            }
            let (def_block, def_idx) = site[t.index()];
            if def_block != block.id || def_idx >= mov_idx {
                continue;
            }
            let def_inst = &insts[def_idx];
            if def_inst.dst() != Some(t) || def_inst.has_side_effects() {
                continue;
            }
            // d untouched between the def and the mov
            for mid in def_idx + 1..mov_idx {
                let inst = &insts[mid];
                if !removed[mid] && (inst.dst() == Some(d) || inst.reads(d)) {
                    continue 'movs;
                }
            }
            insts[def_idx].set_dst(d);
            removed[mov_idx] = true;
            defs[t.index()] = 0;
            uses[t.index()] = 0;
            site[d.index()] = (block.id, def_idx);
            total += 1;
        }
        let mut keep = removed.iter().map(|r| !r);
        insts.retain(|_| keep.next().expect("mask sized to insts"));
    }
    total
}

/// Fold instructions whose operands are all immediate, rewriting them
/// into `mov dst, <constant>` (which copy propagation then dissolves).
/// Returns the number of instructions folded.
///
/// Folding uses the simulator's own evaluators, so a folded program is
/// observationally identical by construction. Only `Binary` and `Unary`
/// ops fold; control flow and memory are left alone (branch folding
/// would change block structure, which the profiler wants stable).
pub fn fold_constants(program: &mut Program) -> usize {
    use crate::types::Value;
    let mut folded = 0;
    for block in &mut program.blocks {
        for inst in &mut block.insts {
            let to_value = |o: &Operand| -> Option<Value> {
                match o {
                    Operand::ImmInt(v) => Some(Value::Int(*v)),
                    Operand::ImmFloat(v) => Some(Value::Float(*v)),
                    Operand::Reg(_) => None,
                }
            };
            let result = match &inst.kind {
                InstKind::Binary { op, lhs, rhs, dst } => to_value(lhs)
                    .zip(to_value(rhs))
                    .map(|(a, b)| (*dst, eval_const_binop(*op, a, b))),
                InstKind::Unary { op, src, dst } if !matches!(op, UnOp::Mov) => {
                    to_value(src).map(|v| (*dst, eval_const_unop(*op, v)))
                }
                _ => None,
            };
            if let Some((dst, value)) = result {
                // only fold finite floats: folding inf/NaN into an
                // immediate would round-trip poorly through text
                if let Value::Float(f) = value {
                    if !f.is_finite() {
                        continue;
                    }
                }
                let src = match value {
                    Value::Int(v) => Operand::ImmInt(v),
                    Value::Float(v) => Operand::ImmFloat(v),
                };
                inst.kind = InstKind::Unary {
                    op: UnOp::Mov,
                    dst,
                    src,
                };
                folded += 1;
            }
        }
    }
    folded
}

/// Constant evaluation for binary ops — mirrors the simulator semantics
/// (wrapping integers, zero-yielding division, masked shifts).
fn eval_const_binop(
    op: crate::op::BinOp,
    a: crate::types::Value,
    b: crate::types::Value,
) -> crate::types::Value {
    use crate::op::BinOp::*;
    use crate::types::Value;
    match op {
        Add => Value::Int(a.as_int().wrapping_add(b.as_int())),
        Sub => Value::Int(a.as_int().wrapping_sub(b.as_int())),
        Mul => Value::Int(a.as_int().wrapping_mul(b.as_int())),
        Div => Value::Int(if b.as_int() == 0 {
            0
        } else {
            a.as_int().wrapping_div(b.as_int())
        }),
        Rem => Value::Int(if b.as_int() == 0 {
            0
        } else {
            a.as_int().wrapping_rem(b.as_int())
        }),
        Shl => Value::Int(a.as_int().wrapping_shl((b.as_int() & 63) as u32)),
        Shr => Value::Int(a.as_int().wrapping_shr((b.as_int() & 63) as u32)),
        And => Value::Int(a.as_int() & b.as_int()),
        Or => Value::Int(a.as_int() | b.as_int()),
        Xor => Value::Int(a.as_int() ^ b.as_int()),
        CmpLt => Value::Int((a.as_int() < b.as_int()) as i64),
        CmpLe => Value::Int((a.as_int() <= b.as_int()) as i64),
        CmpGt => Value::Int((a.as_int() > b.as_int()) as i64),
        CmpGe => Value::Int((a.as_int() >= b.as_int()) as i64),
        CmpEq => Value::Int((a.as_int() == b.as_int()) as i64),
        CmpNe => Value::Int((a.as_int() != b.as_int()) as i64),
        FAdd => Value::Float(a.as_float() + b.as_float()),
        FSub => Value::Float(a.as_float() - b.as_float()),
        FMul => Value::Float(a.as_float() * b.as_float()),
        FDiv => Value::Float(a.as_float() / b.as_float()),
        FCmpLt => Value::Int((a.as_float() < b.as_float()) as i64),
        FCmpLe => Value::Int((a.as_float() <= b.as_float()) as i64),
        FCmpGt => Value::Int((a.as_float() > b.as_float()) as i64),
        FCmpGe => Value::Int((a.as_float() >= b.as_float()) as i64),
        FCmpEq => Value::Int((a.as_float() == b.as_float()) as i64),
        FCmpNe => Value::Int((a.as_float() != b.as_float()) as i64),
    }
}

/// Constant evaluation for unary ops (mov never reaches here).
fn eval_const_unop(op: UnOp, v: crate::types::Value) -> crate::types::Value {
    use crate::types::Value;
    match op {
        UnOp::Neg => Value::Int(v.as_int().wrapping_neg()),
        UnOp::Not => Value::Int(!v.as_int()),
        UnOp::FNeg => Value::Float(-v.as_float()),
        UnOp::Mov => v,
        UnOp::IntToFloat => Value::Float(v.as_int() as f64),
        UnOp::FloatToInt => Value::Int(v.as_float() as i64),
        UnOp::Math(m) => Value::Float(m.eval(v.as_float())),
    }
}

/// The standard cleanup pipeline, iterated to fixpoint (bounded).
pub fn cleanup(program: &mut Program) {
    remove_unreachable_blocks(program);
    for _ in 0..6 {
        let f = fold_constants(program);
        let a = copy_propagate(program);
        let b = eliminate_dead_code(program);
        let c = coalesce_copies(program);
        if f == 0 && a == 0 && b == 0 && c == 0 {
            break;
        }
    }
    debug_assert!(program.validate().is_ok());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::BinOp;
    use crate::types::Ty;

    #[test]
    fn copy_prop_rewrites_uses() {
        let mut b = ProgramBuilder::new("cp");
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let c = b.new_reg(Ty::Int);
        b.mov_to(c, t.into());
        let u = b.binary(BinOp::Mul, c.into(), Operand::imm_int(3));
        b.ret(Some(u.into()));
        let mut p = b.finish().expect("valid");
        let n = copy_propagate(&mut p);
        assert!(n >= 1);
        // the multiply now reads t directly
        let mul = p
            .insts()
            .find_map(|(_, i)| match &i.kind {
                InstKind::Binary {
                    op: BinOp::Mul,
                    lhs,
                    ..
                } => Some(*lhs),
                _ => None,
            })
            .expect("mul present");
        assert_eq!(mul, Operand::Reg(t));
    }

    #[test]
    fn dce_removes_dead_movs_after_copy_prop() {
        let mut b = ProgramBuilder::new("dce");
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let c = b.new_reg(Ty::Int);
        b.mov_to(c, t.into());
        let u = b.binary(BinOp::Mul, c.into(), Operand::imm_int(3));
        b.ret(Some(u.into()));
        let mut p = b.finish().expect("valid");
        cleanup(&mut p);
        // constant folding + copy prop + DCE collapse the whole chain
        // into `ret 9`
        assert_eq!(p.inst_count(), 1);
        assert!(matches!(
            p.blocks()[0].insts[0].kind,
            InstKind::Ret {
                value: Some(Operand::ImmInt(9))
            }
        ));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn dce_keeps_side_effects_and_live_values() {
        let mut b = ProgramBuilder::new("keep");
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        b.store(y, Operand::imm_int(0), t.into());
        let _dead = b.binary(BinOp::Mul, Operand::imm_int(2), Operand::imm_int(2));
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let removed = eliminate_dead_code(&mut p);
        assert_eq!(removed, 1);
        assert_eq!(p.inst_count(), 3);
    }

    #[test]
    fn copy_prop_respects_redefinition() {
        // t = 1+2; c = t; t = 10+20; u = c*3  -- c must NOT become the new t
        let mut b = ProgramBuilder::new("redef");
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let c = b.new_reg(Ty::Int);
        b.mov_to(c, t.into());
        b.binary_to(t, BinOp::Add, Operand::imm_int(10), Operand::imm_int(20));
        let u = b.binary(BinOp::Mul, c.into(), Operand::imm_int(3));
        b.ret(Some(u.into()));
        let mut p = b.finish().expect("valid");
        copy_propagate(&mut p);
        let mul_lhs = p
            .insts()
            .find_map(|(_, i)| match &i.kind {
                InstKind::Binary {
                    op: BinOp::Mul,
                    lhs,
                    ..
                } => Some(*lhs),
                _ => None,
            })
            .expect("mul");
        assert_eq!(mul_lhs, Operand::Reg(c), "stale copy must not propagate");
    }

    #[test]
    fn unreachable_blocks_are_removed_and_remapped() {
        let mut b = ProgramBuilder::new("unreach");
        let entry = b.entry_block();
        let dead = b.new_block();
        let tail = b.new_block();
        b.select_block(entry);
        b.jump(tail);
        b.select_block(dead);
        b.ret(None);
        b.select_block(tail);
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let removed = remove_unreachable_blocks(&mut p);
        assert_eq!(removed, 1);
        assert_eq!(p.blocks().len(), 2);
        assert!(p.validate().is_ok());
        // the jump edge was remapped to the new id of `tail`
        assert_eq!(p.blocks()[0].successors(), vec![BlockId(1)]);
    }

    #[test]
    fn coalesce_rewrites_loop_update_shape() {
        // t = add i, 1 ; mov i, t  ==>  i = add i, 1
        let mut b = ProgramBuilder::new("co");
        let entry = b.entry_block();
        let next = b.new_block();
        b.select_block(entry);
        let i = b.new_reg(Ty::Int);
        b.mov_to(i, Operand::imm_int(0));
        let t = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        b.mov_to(i, t.into());
        b.jump(next);
        b.select_block(next);
        b.ret(Some(i.into()));
        let mut p = b.finish().expect("valid");
        let n = coalesce_copies(&mut p);
        assert_eq!(n, 1);
        // the add now writes i directly
        let add_dst = p
            .insts()
            .find_map(|(_, inst)| match &inst.kind {
                InstKind::Binary {
                    op: BinOp::Add,
                    dst,
                    ..
                } => Some(*dst),
                _ => None,
            })
            .expect("add present");
        assert_eq!(add_dst, i);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn coalesce_refuses_when_dst_read_in_between() {
        // t = add i, 1 ; u = mul i, 2 ; mov i, t — rewriting would clobber
        // the i that the mul reads
        let mut b = ProgramBuilder::new("no");
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.new_reg(Ty::Int);
        b.mov_to(i, Operand::imm_int(5));
        let t = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        let u = b.binary(BinOp::Mul, i.into(), Operand::imm_int(2));
        b.mov_to(i, t.into());
        let s = b.binary(BinOp::Add, i.into(), u.into());
        b.ret(Some(s.into()));
        let mut p = b.finish().expect("valid");
        assert_eq!(coalesce_copies(&mut p), 0);
    }

    #[test]
    fn constant_folding_matches_simulator_semantics() {
        let mut b = ProgramBuilder::new("cf");
        let y = b.output_array("y", Ty::Int, 4);
        let entry = b.entry_block();
        b.select_block(entry);
        let a = b.binary(BinOp::Add, Operand::imm_int(2), Operand::imm_int(3));
        let m = b.binary(BinOp::Mul, a.into(), Operand::imm_int(0)); // not const yet
        let dz = b.binary(BinOp::Div, Operand::imm_int(7), Operand::imm_int(0));
        let sh = b.binary(BinOp::Shl, Operand::imm_int(1), Operand::imm_int(67));
        b.store(y, Operand::imm_int(0), m.into());
        b.store(y, Operand::imm_int(1), dz.into());
        b.store(y, Operand::imm_int(2), sh.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let n = fold_constants(&mut p);
        assert_eq!(
            n, 3,
            "add, div-by-zero and shift fold; mul waits for copy prop"
        );
        // after full cleanup the mul folds too (2+3=5, then 5*0=0)
        cleanup(&mut p);
        assert!(p.validate().is_ok());
        // division by zero folded to 0, shift amount masked (67 & 63 = 3)
        let stored: Vec<Operand> = p
            .insts()
            .filter_map(|(_, i)| match &i.kind {
                InstKind::Store { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(
            stored,
            vec![Operand::ImmInt(0), Operand::ImmInt(0), Operand::ImmInt(8)]
        );
    }

    #[test]
    fn folding_keeps_nonfinite_floats_symbolic() {
        let mut b = ProgramBuilder::new("inf");
        let y = b.output_array("y", Ty::Float, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let inf = b.binary(
            BinOp::FDiv,
            Operand::imm_float(1.0),
            Operand::imm_float(0.0),
        );
        b.store(y, Operand::imm_int(0), inf.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        assert_eq!(fold_constants(&mut p), 0, "inf result stays an fdiv");
        assert!(p.insts().any(|(_, i)| matches!(
            i.kind,
            InstKind::Binary {
                op: BinOp::FDiv,
                ..
            }
        )));
    }

    #[test]
    fn cleanup_is_idempotent() {
        let mut b = ProgramBuilder::new("idem");
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let c = b.new_reg(Ty::Int);
        b.mov_to(c, t.into());
        b.ret(Some(c.into()));
        let mut p = b.finish().expect("valid");
        cleanup(&mut p);
        let once = p.clone();
        cleanup(&mut p);
        assert_eq!(p, once);
    }

    #[test]
    fn copy_prop_does_not_cross_type_changing_movs() {
        // mov between same-named registers of different types cannot occur
        // (mov preserves type), but an int immediate copied into a float
        // register must not replace float uses with an int immediate.
        let mut b = ProgramBuilder::new("ty");
        let entry = b.entry_block();
        b.select_block(entry);
        let f = b.new_reg(Ty::Float);
        b.mov_to(f, Operand::imm_float(2.0));
        let g = b.binary(BinOp::FAdd, f.into(), Operand::imm_float(1.0));
        b.ret(Some(g.into()));
        let mut p = b.finish().expect("valid");
        cleanup(&mut p);
        assert!(p.validate().is_ok());
    }
}
