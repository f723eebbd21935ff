//! Pairwise dependence queries between instructions.
//!
//! Percolation scheduling may move an operation upward only when doing so
//! violates no flow, anti, output or memory dependence — these queries are
//! the legality core of the optimizer.

use crate::inst::Inst;
use serde::{Deserialize, Serialize};

/// The kind of dependence from an earlier instruction to a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// Read-after-write: later reads a register earlier defines.
    Flow,
    /// Write-after-read: later overwrites a register earlier reads.
    Anti,
    /// Write-after-write on the same register.
    Output,
    /// Potentially aliasing memory accesses (same array, at least one
    /// write, indices not provably distinct).
    Memory,
    /// Ordering against control flow (either side is a terminator).
    Control,
}

/// Dependence testing between instruction pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dependence;

impl Dependence {
    /// All dependences from `earlier` to `later` (program order).
    pub fn between(earlier: &Inst, later: &Inst) -> Vec<DepKind> {
        let mut kinds = Vec::new();
        if let Some(d) = earlier.dst() {
            if later.reads(d) {
                kinds.push(DepKind::Flow);
            }
            if later.dst() == Some(d) {
                kinds.push(DepKind::Output);
            }
        }
        if let Some(d) = later.dst() {
            if earlier.reads(d) {
                kinds.push(DepKind::Anti);
            }
        }
        if let (Some((a1, w1)), Some((a2, w2))) = (earlier.memory_access(), later.memory_access()) {
            if a1 == a2 && (w1 || w2) && !Self::indices_provably_distinct(earlier, later) {
                kinds.push(DepKind::Memory);
            }
        }
        if earlier.is_terminator() || later.is_terminator() {
            kinds.push(DepKind::Control);
        }
        kinds
    }

    /// True if there is any dependence from `earlier` to `later`.
    pub fn depends(earlier: &Inst, later: &Inst) -> bool {
        !Self::between(earlier, later).is_empty()
    }

    /// True if there is a *true* (flow) register dependence only.
    pub fn flow_only(earlier: &Inst, later: &Inst) -> bool {
        let kinds = Self::between(earlier, later);
        kinds.contains(&DepKind::Flow) && kinds.iter().all(|k| matches!(k, DepKind::Flow))
    }

    /// Constant-index disambiguation: both accesses use integer-immediate
    /// indices on the same array and the indices differ.
    fn indices_provably_distinct(a: &Inst, b: &Inst) -> bool {
        use crate::inst::InstKind;
        use crate::types::Operand;
        let index_of = |i: &Inst| match &i.kind {
            InstKind::Load { index, .. } | InstKind::Store { index, .. } => Some(*index),
            _ => None,
        };
        match (index_of(a), index_of(b)) {
            (Some(Operand::ImmInt(x)), Some(Operand::ImmInt(y))) => x != y,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstKind;
    use crate::op::BinOp;
    use crate::types::{ArrayId, BlockId, InstId, Operand, Reg};

    fn bin(id: u32, dst: u32, lhs: u32, rhs: u32) -> Inst {
        Inst::new(
            InstId(id),
            InstKind::Binary {
                op: BinOp::Add,
                dst: Reg(dst),
                lhs: Reg(lhs).into(),
                rhs: Reg(rhs).into(),
            },
        )
    }

    #[test]
    fn flow_dependence() {
        let a = bin(0, 2, 0, 1);
        let b = bin(1, 3, 2, 1);
        assert_eq!(Dependence::between(&a, &b), vec![DepKind::Flow]);
        assert!(Dependence::depends(&a, &b));
        assert!(Dependence::flow_only(&a, &b));
        assert!(!Dependence::depends(&b, &a) || !Dependence::flow_only(&b, &a));
    }

    #[test]
    fn anti_dependence() {
        let a = bin(0, 2, 5, 1); // reads r5
        let b = bin(1, 5, 0, 1); // writes r5
        assert_eq!(Dependence::between(&a, &b), vec![DepKind::Anti]);
    }

    #[test]
    fn output_dependence() {
        let a = bin(0, 7, 0, 1);
        let b = bin(1, 7, 2, 3);
        assert_eq!(Dependence::between(&a, &b), vec![DepKind::Output]);
    }

    #[test]
    fn flow_and_anti_together() {
        let a = bin(0, 2, 3, 1); // writes r2, reads r3
        let b = bin(1, 3, 2, 1); // writes r3, reads r2
        let kinds = Dependence::between(&a, &b);
        assert!(kinds.contains(&DepKind::Flow));
        assert!(kinds.contains(&DepKind::Anti));
        assert!(!Dependence::flow_only(&a, &b));
    }

    #[test]
    fn independent_ops() {
        let a = bin(0, 2, 0, 1);
        let b = bin(1, 3, 0, 1);
        assert!(Dependence::between(&a, &b).is_empty());
        assert!(!Dependence::depends(&a, &b));
    }

    #[test]
    fn memory_dependences() {
        let st = Inst::new(
            InstId(0),
            InstKind::Store {
                array: ArrayId(0),
                index: Reg(0).into(),
                value: Reg(1).into(),
            },
        );
        let ld = Inst::new(
            InstId(1),
            InstKind::Load {
                dst: Reg(2),
                array: ArrayId(0),
                index: Reg(3).into(),
            },
        );
        assert!(Dependence::between(&st, &ld).contains(&DepKind::Memory));
        // two loads never conflict
        let ld2 = Inst::new(
            InstId(2),
            InstKind::Load {
                dst: Reg(4),
                array: ArrayId(0),
                index: Reg(3).into(),
            },
        );
        assert!(!Dependence::between(&ld, &ld2).contains(&DepKind::Memory));
        // different arrays never conflict
        let st_other = Inst::new(
            InstId(3),
            InstKind::Store {
                array: ArrayId(1),
                index: Reg(0).into(),
                value: Reg(1).into(),
            },
        );
        assert!(!Dependence::between(&st_other, &ld).contains(&DepKind::Memory));
    }

    #[test]
    fn constant_indices_disambiguate() {
        let st0 = Inst::new(
            InstId(0),
            InstKind::Store {
                array: ArrayId(0),
                index: Operand::imm_int(0),
                value: Reg(1).into(),
            },
        );
        let ld1 = Inst::new(
            InstId(1),
            InstKind::Load {
                dst: Reg(2),
                array: ArrayId(0),
                index: Operand::imm_int(1),
            },
        );
        let ld0 = Inst::new(
            InstId(2),
            InstKind::Load {
                dst: Reg(3),
                array: ArrayId(0),
                index: Operand::imm_int(0),
            },
        );
        assert!(!Dependence::between(&st0, &ld1).contains(&DepKind::Memory));
        assert!(Dependence::between(&st0, &ld0).contains(&DepKind::Memory));
    }

    #[test]
    fn control_dependence_on_terminators() {
        let a = bin(0, 2, 0, 1);
        let j = Inst::new(InstId(1), InstKind::Jump { target: BlockId(0) });
        assert!(Dependence::between(&a, &j).contains(&DepKind::Control));
        assert!(Dependence::between(&j, &a).contains(&DepKind::Control));
    }
}
