//! Instructions.

use crate::op::{BinOp, OpClass, UnOp};
use crate::types::{ArrayId, BlockId, InstId, Operand, Reg};
use serde::{Deserialize, Serialize};
use smallvec_shim::SmallOperands;

/// A single three-address instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// Stable identity (see [`InstId`] for profile-attribution semantics).
    pub id: InstId,
    /// The operation payload.
    pub kind: InstKind,
}

/// The operation payload of an [`Inst`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstKind {
    /// `dst = op lhs, rhs`
    Binary {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op src`
    Unary {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = array[index]`
    Load {
        /// Destination register.
        dst: Reg,
        /// Array being read.
        array: ArrayId,
        /// Element index.
        index: Operand,
    },
    /// `array[index] = value`
    Store {
        /// Array being written.
        array: ArrayId,
        /// Element index.
        index: Operand,
        /// Value stored.
        value: Operand,
    },
    /// Conditional branch on a non-zero condition.
    Branch {
        /// Condition operand (non-zero = taken).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_target: BlockId,
        /// Target when the condition is zero.
        else_target: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Return from the program.
    Ret {
        /// Optional returned value.
        value: Option<Operand>,
    },
    /// A chained super-instruction synthesized by the ASIP design stage:
    /// several primitive ops fused into one issue slot, data forwarded
    /// internally (no register-file round trips).
    ///
    /// Evaluation contract (shared with the simulator and the rewriter):
    /// `acc = ops[0](inputs[0], inputs[1])`, then
    /// `acc = ops[i](acc, inputs[i + 1])` for each subsequent op.
    Chained {
        /// Index of the ISA extension this instance uses.
        ext: u32,
        /// Destination of the final op in the chain.
        dst: Reg,
        /// External inputs consumed by the chain, in chain order
        /// (`ops.len() + 1` of them).
        inputs: SmallOperands,
        /// The exact fused operations, head first (e.g. `[Mul, Add]`
        /// for a MAC).
        ops: Vec<BinOp>,
    },
}

/// Minimal inline-vector stand-in so `Inst` stays cheap to clone without
/// pulling in an external small-vector crate.
pub mod smallvec_shim {
    use super::Operand;
    /// Operand list for chained instructions.
    pub type SmallOperands = Vec<Operand>;
}

impl Inst {
    /// Create an instruction with the given id and payload.
    pub fn new(id: InstId, kind: InstKind) -> Self {
        Inst { id, kind }
    }

    /// The register this instruction defines, if any.
    pub fn dst(&self) -> Option<Reg> {
        match &self.kind {
            InstKind::Binary { dst, .. }
            | InstKind::Unary { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Chained { dst, .. } => Some(*dst),
            InstKind::Store { .. }
            | InstKind::Branch { .. }
            | InstKind::Jump { .. }
            | InstKind::Ret { .. } => None,
        }
    }

    /// Replace the destination register (used by register renaming).
    ///
    /// No-op for instructions without a destination.
    pub fn set_dst(&mut self, new: Reg) {
        match &mut self.kind {
            InstKind::Binary { dst, .. }
            | InstKind::Unary { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Chained { dst, .. } => *dst = new,
            _ => {}
        }
    }

    /// All operands read by this instruction.
    pub fn operands(&self) -> Vec<Operand> {
        match &self.kind {
            InstKind::Binary { lhs, rhs, .. } => vec![*lhs, *rhs],
            InstKind::Unary { src, .. } => vec![*src],
            InstKind::Load { index, .. } => vec![*index],
            InstKind::Store { index, value, .. } => vec![*index, *value],
            InstKind::Branch { cond, .. } => vec![*cond],
            InstKind::Jump { .. } => vec![],
            InstKind::Ret { value } => value.iter().copied().collect(),
            InstKind::Chained { inputs, .. } => inputs.clone(),
        }
    }

    /// All registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        let mut regs = Vec::new();
        self.for_each_use(|r| regs.push(r));
        regs
    }

    /// True if this instruction reads `reg` — `uses().contains(&reg)`
    /// without allocating (dependence checks call it per op pair).
    pub fn reads(&self, reg: Reg) -> bool {
        let is = |o: &Operand| o.reg() == Some(reg);
        match &self.kind {
            InstKind::Binary { lhs, rhs, .. } => is(lhs) || is(rhs),
            InstKind::Unary { src, .. } => is(src),
            InstKind::Load { index, .. } => is(index),
            InstKind::Store { index, value, .. } => is(index) || is(value),
            InstKind::Branch { cond, .. } => is(cond),
            InstKind::Jump { .. } => false,
            InstKind::Ret { value } => value.as_ref().is_some_and(is),
            InstKind::Chained { inputs, .. } => inputs.iter().any(is),
        }
    }

    /// Call `f` on every register read by this instruction, once per
    /// operand, in [`Inst::uses`] order — without allocating.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        let mut visit = |o: &Operand| {
            if let Some(r) = o.reg() {
                f(r);
            }
        };
        match &self.kind {
            InstKind::Binary { lhs, rhs, .. } => {
                visit(lhs);
                visit(rhs);
            }
            InstKind::Unary { src, .. } => visit(src),
            InstKind::Load { index, .. } => visit(index),
            InstKind::Store { index, value, .. } => {
                visit(index);
                visit(value);
            }
            InstKind::Branch { cond, .. } => visit(cond),
            InstKind::Jump { .. } => {}
            InstKind::Ret { value } => value.iter().for_each(visit),
            InstKind::Chained { inputs, .. } => inputs.iter().for_each(visit),
        }
    }

    /// Rewrite every register operand via `f` (used by renaming/rewriting).
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let mut map = |o: &mut Operand| {
            if let Operand::Reg(r) = o {
                *r = f(*r);
            }
        };
        match &mut self.kind {
            InstKind::Binary { lhs, rhs, .. } => {
                map(lhs);
                map(rhs);
            }
            InstKind::Unary { src, .. } => map(src),
            InstKind::Load { index, .. } => map(index),
            InstKind::Store { index, value, .. } => {
                map(index);
                map(value);
            }
            InstKind::Branch { cond, .. } => map(cond),
            InstKind::Jump { .. } => {}
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    map(v);
                }
            }
            InstKind::Chained { inputs, .. } => {
                for i in inputs {
                    map(i);
                }
            }
        }
    }

    /// The array this instruction accesses, with `true` for writes.
    pub fn memory_access(&self) -> Option<(ArrayId, bool)> {
        match &self.kind {
            InstKind::Load { array, .. } => Some((*array, false)),
            InstKind::Store { array, .. } => Some((*array, true)),
            _ => None,
        }
    }

    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.kind,
            InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. }
        )
    }

    /// True if this instruction has side effects beyond its destination
    /// register (memory writes and control flow).
    pub fn has_side_effects(&self) -> bool {
        matches!(self.kind, InstKind::Store { .. }) || self.is_terminator()
    }

    /// The operation class, given a predicate telling whether an array
    /// holds floats (loads/stores split into `load`/`fload` etc. exactly
    /// as the paper's tables do).
    pub fn class_with(&self, array_is_float: impl Fn(ArrayId) -> bool) -> OpClass {
        match &self.kind {
            InstKind::Binary { op, .. } => op.class(),
            InstKind::Unary { op, .. } => op.class(),
            InstKind::Load { array, .. } => {
                if array_is_float(*array) {
                    OpClass::FLoad
                } else {
                    OpClass::Load
                }
            }
            InstKind::Store { array, .. } => {
                if array_is_float(*array) {
                    OpClass::FStore
                } else {
                    OpClass::Store
                }
            }
            InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. } => {
                OpClass::Branch
            }
            InstKind::Chained { .. } => OpClass::Chained,
        }
    }

    /// Branch/jump successor blocks named by this terminator.
    pub fn targets(&self) -> Vec<BlockId> {
        match &self.kind {
            InstKind::Branch {
                then_target,
                else_target,
                ..
            } => vec![*then_target, *else_target],
            InstKind::Jump { target } => vec![*target],
            _ => vec![],
        }
    }

    /// Retarget control-flow edges via `f` (used when splitting blocks).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match &mut self.kind {
            InstKind::Branch {
                then_target,
                else_target,
                ..
            } => {
                *then_target = f(*then_target);
                *else_target = f(*else_target);
            }
            InstKind::Jump { target } => *target = f(*target),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MathFn;

    fn inst(kind: InstKind) -> Inst {
        Inst::new(InstId(0), kind)
    }

    #[test]
    fn dst_and_uses() {
        let i = inst(InstKind::Binary {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Reg(0).into(),
            rhs: Operand::imm_int(1),
        });
        assert_eq!(i.dst(), Some(Reg(2)));
        assert_eq!(i.uses(), vec![Reg(0)]);
        assert!(i.reads(Reg(0)));
        assert!(!i.reads(Reg(2)), "the destination is not read");

        let s = inst(InstKind::Store {
            array: ArrayId(0),
            index: Reg(1).into(),
            value: Reg(3).into(),
        });
        assert_eq!(s.dst(), None);
        assert_eq!(s.uses(), vec![Reg(1), Reg(3)]);
        assert!(s.reads(Reg(1)) && s.reads(Reg(3)) && !s.reads(Reg(2)));
        assert!(s.has_side_effects());
        assert!(!s.is_terminator());
    }

    #[test]
    fn terminators() {
        let b = inst(InstKind::Branch {
            cond: Reg(0).into(),
            then_target: BlockId(1),
            else_target: BlockId(2),
        });
        assert!(b.is_terminator());
        assert_eq!(b.targets(), vec![BlockId(1), BlockId(2)]);

        let j = inst(InstKind::Jump { target: BlockId(3) });
        assert_eq!(j.targets(), vec![BlockId(3)]);

        let r = inst(InstKind::Ret { value: None });
        assert!(r.is_terminator());
        assert!(r.targets().is_empty());
    }

    #[test]
    fn map_targets_rewrites_edges() {
        let mut b = inst(InstKind::Branch {
            cond: Reg(0).into(),
            then_target: BlockId(1),
            else_target: BlockId(2),
        });
        b.map_targets(|t| BlockId(t.0 + 10));
        assert_eq!(b.targets(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn classes_split_loads_by_element_type() {
        let l = inst(InstKind::Load {
            dst: Reg(0),
            array: ArrayId(0),
            index: Operand::imm_int(0),
        });
        assert_eq!(l.class_with(|_| false), OpClass::Load);
        assert_eq!(l.class_with(|_| true), OpClass::FLoad);

        let s = inst(InstKind::Store {
            array: ArrayId(0),
            index: Operand::imm_int(0),
            value: Operand::imm_float(1.0),
        });
        assert_eq!(s.class_with(|_| true), OpClass::FStore);
    }

    #[test]
    fn map_uses_renames_registers() {
        let mut i = inst(InstKind::Binary {
            op: BinOp::FMul,
            dst: Reg(9),
            lhs: Reg(1).into(),
            rhs: Reg(2).into(),
        });
        i.map_uses(|r| Reg(r.0 + 100));
        assert_eq!(i.uses(), vec![Reg(101), Reg(102)]);
        assert_eq!(i.dst(), Some(Reg(9)), "map_uses must not touch dst");
        i.set_dst(Reg(42));
        assert_eq!(i.dst(), Some(Reg(42)));
    }

    #[test]
    fn unary_math_class() {
        let m = inst(InstKind::Unary {
            op: UnOp::Math(MathFn::Sin),
            dst: Reg(0),
            src: Reg(1).into(),
        });
        assert_eq!(m.class_with(|_| false), OpClass::Math);
    }

    #[test]
    fn memory_access_query() {
        let l = inst(InstKind::Load {
            dst: Reg(0),
            array: ArrayId(3),
            index: Operand::imm_int(0),
        });
        assert_eq!(l.memory_access(), Some((ArrayId(3), false)));
        let s = inst(InstKind::Store {
            array: ArrayId(4),
            index: Operand::imm_int(0),
            value: Operand::imm_int(1),
        });
        assert_eq!(s.memory_access(), Some((ArrayId(4), true)));
        let r = inst(InstKind::Ret { value: None });
        assert_eq!(r.memory_access(), None);
    }
}
