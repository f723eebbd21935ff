//! Textual dump of programs: a readable rendering for humans and
//! diffs, not a serialization format (nothing parses it back).

use crate::inst::{Inst, InstKind};
use crate::program::Program;
use std::fmt;

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program \"{}\" {{", self.name)?;
        writeln!(f, "  entry {}", self.entry)?;
        for (i, ty) in self.reg_types.iter().enumerate() {
            writeln!(f, "  reg r{i}: {ty}")?;
        }
        for (i, a) in self.arrays.iter().enumerate() {
            write!(
                f,
                "  {} @{i} \"{}\": {}[{}]",
                a.kind.keyword(),
                a.name,
                a.ty,
                a.len
            )?;
            if a.base != 0 || a.elem_size != 1 {
                write!(f, " at {} step {}", a.base, a.elem_size)?;
            }
            writeln!(f)?;
        }
        for block in &self.blocks {
            match &block.label {
                Some(l) => writeln!(f, "  {} \"{}\":", block.id, l)?,
                None => writeln!(f, "  {}:", block.id)?,
            }
            for inst in &block.insts {
                writeln!(f, "    {}", DisplayInst(inst))?;
            }
        }
        writeln!(f, "}}")
    }
}

/// Display adapter for a single instruction.
pub struct DisplayInst<'a>(pub &'a Inst);

impl fmt::Display for DisplayInst<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inst = self.0;
        write!(f, "{}: ", inst.id)?;
        match &inst.kind {
            InstKind::Binary { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            InstKind::Unary { op, dst, src } => write!(f, "{dst} = {op} {src}"),
            InstKind::Load { dst, array, index } => write!(f, "{dst} = load {array}[{index}]"),
            InstKind::Store {
                array,
                index,
                value,
            } => write!(f, "store {array}[{index}], {value}"),
            InstKind::Branch {
                cond,
                then_target,
                else_target,
            } => write!(f, "br {cond}, {then_target}, {else_target}"),
            InstKind::Jump { target } => write!(f, "jmp {target}"),
            InstKind::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
            InstKind::Chained {
                ext,
                dst,
                inputs,
                ops,
            } => {
                let sig: Vec<String> = ops.iter().map(|o| o.class().to_string()).collect();
                write!(f, "{dst} = chained#{ext} ({})", sig.join("-"))?;
                for (i, input) in inputs.iter().enumerate() {
                    if i == 0 {
                        write!(f, " {input}")?;
                    } else {
                        write!(f, ", {input}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::{BinOp, UnOp};
    use crate::types::{InstId, Operand, Reg, Ty};

    #[test]
    fn program_dump_contains_all_sections() {
        let mut b = ProgramBuilder::new("dump");
        let x = b.input_array("x", Ty::Float, 4);
        let entry = b.entry_block();
        b.select_block(entry);
        let v = b.load(x, Operand::imm_int(0));
        let w = b.binary(BinOp::FMul, v.into(), Operand::imm_float(0.5));
        let _ = b.unary(UnOp::FloatToInt, w.into());
        b.ret(None);
        let p = b.finish().expect("valid");
        let s = p.to_string();
        assert!(s.contains("program \"dump\""));
        assert!(s.contains("entry bb0"));
        assert!(s.contains("input @0 \"x\": float[4]"));
        assert!(s.contains("= load @0[0]"));
        assert!(s.contains("= fmul"));
        assert!(s.contains("= ftoi"));
        assert!(s.contains("ret"));
    }

    #[test]
    fn chained_display() {
        let inst = Inst::new(
            InstId(0),
            InstKind::Chained {
                ext: 2,
                dst: Reg(5),
                inputs: vec![Reg(1).into(), Reg(2).into(), Reg(3).into()],
                ops: vec![BinOp::Mul, BinOp::Add],
            },
        );
        let s = DisplayInst(&inst).to_string();
        assert_eq!(s, "i0: r5 = chained#2 (multiply-add) r1, r2, r3");
    }

    #[test]
    fn store_and_branch_display() {
        let st = Inst::new(
            InstId(3),
            InstKind::Store {
                array: crate::types::ArrayId(1),
                index: Reg(0).into(),
                value: Operand::imm_float(1.5),
            },
        );
        assert_eq!(DisplayInst(&st).to_string(), "i3: store @1[r0], 1.5");
        let br = Inst::new(
            InstId(4),
            InstKind::Branch {
                cond: Reg(2).into(),
                then_target: crate::types::BlockId(1),
                else_target: crate::types::BlockId(2),
            },
        );
        assert_eq!(DisplayInst(&br).to_string(), "i4: br r2, bb1, bb2");
    }
}
