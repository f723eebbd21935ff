//! Rewriting 3-address code to use chained super-instructions.
//!
//! The matcher is deliberately conservative — it fuses only runs it can
//! prove semantics-preserving:
//!
//! - every op in the run is a pure binary ALU operation (no memory, no
//!   control, no intrinsics);
//! - each op's result feeds the *next op only* (single local use, dead
//!   afterwards), either as its left operand or as either operand of a
//!   commutative operation;
//! - the ops are consecutive in the block (a scheduler would have fused
//!   exactly such runs; percolation can make more runs consecutive, but
//!   rewriting stays valid regardless of how many it finds).
//!
//! The fused [`asip_ir::InstKind::Chained`] instruction evaluates as:
//! `acc = classes[0](inputs[0], inputs[1])`, then
//! `acc = classes[i](acc, inputs[i + 1])` — the contract shared with
//! the simulator, so a rewritten program computes bit-identical results.

use crate::extension::AsipDesign;
use asip_chains::Signature;
use asip_ir::{BinOp, Inst, InstKind, OpClass, Operand, Program, Reg};

/// True if the rewriter can implement this signature as a chained
/// instruction (pure binary ALU classes only).
pub fn is_fusable_signature(sig: &Signature) -> bool {
    sig.classes().iter().all(|c| {
        matches!(
            c,
            OpClass::Add
                | OpClass::Sub
                | OpClass::Mul
                | OpClass::Div
                | OpClass::Shift
                | OpClass::Logic
                | OpClass::Compare
                | OpClass::FAdd
                | OpClass::FSub
                | OpClass::FMul
                | OpClass::FDiv
        )
    })
}

fn commutative(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Mul | And | Or | Xor | CmpEq | CmpNe | FAdd | FMul | FCmpEq | FCmpNe
    )
}

/// The fusable runs of one program: for every block position, the
/// longest run of consecutive instructions starting there that the
/// rewriter may fuse, plus each position's op class.
///
/// A run is a sequence of `Binary` instructions in which each result
/// feeds the next instruction — as its lhs, or as either operand of a
/// commutative op, never as both — and each intermediate register has
/// exactly one def and one use in the whole program. A signature of
/// length `k` matches at a position iff the run there is at least `k`
/// long and the next `k` classes spell the signature.
///
/// Fusing a matched run never changes the run length at any *other*
/// position that survives: the removed intermediates had one def and
/// one use, both inside the run; the fused `Chained` instruction is
/// not `Binary`, so runs that reached into it only get shorter; and
/// the external operands keep their use counts. One index per program
/// therefore serves a whole rewrite.
#[derive(Debug, Clone)]
pub struct FusableRuns {
    /// Flat position of each block's first instruction.
    block_starts: Vec<usize>,
    /// Op class per flat position.
    classes: Vec<OpClass>,
    /// Longest fusable run starting at each flat position (0 for a
    /// non-`Binary` instruction).
    runs: Vec<u32>,
}

impl FusableRuns {
    /// Index `program` in one pass over its instructions.
    pub fn new(program: &Program) -> Self {
        // per-register def and use counts (uses counted per operand,
        // like `Inst::uses`)
        let mut defs = vec![0u32; program.reg_types.len()];
        let mut uses = vec![0u32; program.reg_types.len()];
        let bump = |counts: &mut Vec<u32>, r: Reg| {
            if r.index() >= counts.len() {
                counts.resize(r.index() + 1, 0);
            }
            counts[r.index()] += 1;
        };
        for (_, inst) in program.insts() {
            if let Some(d) = inst.dst() {
                bump(&mut defs, d);
            }
            inst.for_each_use(|r| bump(&mut uses, r));
        }
        let once = |counts: &[u32], r: Reg| counts.get(r.index()) == Some(&1);

        let total = program.inst_count();
        let mut block_starts = Vec::with_capacity(program.blocks.len());
        let mut classes = Vec::with_capacity(total);
        let mut runs = vec![0u32; total];
        for block in &program.blocks {
            let base = classes.len();
            block_starts.push(base);
            classes.extend(block.insts.iter().map(|inst| program.class_of(inst)));
            // backwards: a link from `i` to `i + 1` extends the run there
            for (i, inst) in block.insts.iter().enumerate().rev() {
                let InstKind::Binary { dst, .. } = inst.kind else {
                    continue;
                };
                let linked = block
                    .insts
                    .get(i + 1)
                    .is_some_and(|next| feeds(dst, next) && once(&defs, dst) && once(&uses, dst));
                runs[base + i] = if linked { 1 + runs[base + i + 1] } else { 1 };
            }
        }
        FusableRuns {
            block_starts,
            classes,
            runs,
        }
    }

    /// The longest fusable run starting at instruction `start` of block
    /// `block` (0 if that instruction is not `Binary`).
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the indexed program.
    pub fn run_at(&self, block: usize, start: usize) -> usize {
        self.runs[self.flat(block, start)] as usize
    }

    /// True if `sig` matches a fusable run starting at instruction
    /// `start` of block `block`.
    pub fn matches_at(&self, block: usize, start: usize, sig: &Signature) -> bool {
        self.matches_flat(self.flat(block, start), sig)
    }

    /// True if `sig` matches a fusable run anywhere in the program.
    pub fn contains(&self, sig: &Signature) -> bool {
        (0..self.runs.len()).any(|p| self.matches_flat(p, sig))
    }

    fn flat(&self, block: usize, start: usize) -> usize {
        let p = self.block_starts[block] + start;
        let end = self
            .block_starts
            .get(block + 1)
            .copied()
            .unwrap_or(self.runs.len());
        assert!(p < end, "position {start} is outside block {block}");
        p
    }

    fn matches_flat(&self, p: usize, sig: &Signature) -> bool {
        let k = sig.len();
        self.runs[p] as usize >= k && self.classes[p..p + k] == *sig.classes()
    }
}

/// True if `d` feeds `next` in a fusable position: `next` is `Binary`
/// and reads `d` as its lhs, or as either operand if commutative, but
/// not as both operands (one link cannot carry two values).
fn feeds(d: Reg, next: &Inst) -> bool {
    let InstKind::Binary { op, lhs, rhs, .. } = &next.kind else {
        return false;
    };
    let feeds_lhs = lhs.reg() == Some(d);
    let feeds_rhs = rhs.reg() == Some(d);
    feeds_lhs != feeds_rhs && (feeds_lhs || commutative(*op))
}

/// Applies an [`AsipDesign`] to programs.
#[derive(Debug, Clone)]
pub struct Rewriter {
    design: AsipDesign,
}

/// Statistics of one rewrite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Chained instructions emitted.
    pub fused_chains: usize,
    /// Primitive instructions removed (fused away).
    pub removed_ops: usize,
}

impl Rewriter {
    /// A rewriter for the given design.
    pub fn new(design: AsipDesign) -> Self {
        Rewriter { design }
    }

    /// The design being applied.
    pub fn design(&self) -> &AsipDesign {
        &self.design
    }

    /// Rewrite a program in place; longest extensions are tried first at
    /// each position. Returns fusion statistics.
    ///
    /// One [`FusableRuns`] index drives a single walk over each block:
    /// a fusion never changes the runs at later positions, so the walk
    /// fuses exactly the sites, in exactly the order, that rescanning
    /// the rewritten program from the top after every fusion would.
    pub fn apply(&self, program: &mut Program) -> RewriteStats {
        let mut stats = RewriteStats::default();
        if self.design.is_empty() {
            return stats;
        }
        // longest first so a MAC3 wins over a MAC at the same site
        let mut ext_order: Vec<usize> = (0..self.design.extensions.len()).collect();
        ext_order.sort_by_key(|&i| std::cmp::Reverse(self.design.extensions[i].signature.len()));

        let runs = FusableRuns::new(program);
        for b in 0..program.blocks.len() {
            let matched_at = |start: usize| {
                ext_order
                    .iter()
                    .map(|&e| &self.design.extensions[e])
                    .find(|ext| runs.matches_at(b, start, &ext.signature))
            };
            let old = std::mem::take(&mut program.blocks[b].insts);
            let mut insts = Vec::with_capacity(old.len());
            let mut rest = old.into_iter();
            let mut start = 0;
            while let Some(inst) = rest.next() {
                let Some(ext) = matched_at(start) else {
                    insts.push(inst);
                    start += 1;
                    continue;
                };
                let k = ext.signature.len();
                let run: Vec<Inst> = std::iter::once(inst)
                    .chain(rest.by_ref().take(k - 1))
                    .collect();
                insts.push(fuse_run(&run, ext.id, program));
                stats.fused_chains += 1;
                stats.removed_ops += k - 1;
                start += k;
            }
            program.blocks[b].insts = insts;
        }
        stats
    }
}

/// Build the Chained instruction for a verified run.
fn fuse_run(run: &[Inst], ext_id: u32, program: &mut Program) -> Inst {
    let k = run.len();
    let mut inputs: Vec<Operand> = Vec::with_capacity(k + 1);
    let mut ops: Vec<BinOp> = Vec::with_capacity(k);
    let InstKind::Binary { op, lhs, rhs, .. } = &run[0].kind else {
        unreachable!("verified binary");
    };
    inputs.push(*lhs);
    inputs.push(*rhs);
    ops.push(*op);
    for w in run.windows(2) {
        let d = w[0].dst().expect("binary ops define");
        let InstKind::Binary { op, lhs, rhs, .. } = &w[1].kind else {
            unreachable!("verified binary");
        };
        // the external (non-chained) operand
        let external = if lhs.reg() == Some(d) { *rhs } else { *lhs };
        inputs.push(external);
        ops.push(*op);
    }
    let dst = run[k - 1].dst().expect("binary ops define");
    let id = program.new_inst_id();
    Inst::new(
        id,
        InstKind::Chained {
            ext: ext_id,
            dst,
            inputs,
            ops,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::IsaExtension;
    use asip_ir::{Operand, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    fn mac_design() -> AsipDesign {
        let sig: Signature = "multiply-add".parse().expect("ok");
        AsipDesign {
            extensions: vec![IsaExtension {
                id: 0,
                signature: sig,
                area: 1286.0,
                expected_benefit: 10.0,
            }],
            extension_area: 1286.0,
        }
    }

    /// y[0] = x[0]*x[1] + x[2], computed with an intermediate temp.
    fn mac_program() -> Program {
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 1);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Add, t.into(), d.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        b.finish().expect("valid")
    }

    fn run(p: &Program) -> i64 {
        let mut ds = DataSet::new();
        ds.bind_ints("x", vec![3, 5, 7]);
        let e = Simulator::new(p).run(&ds).expect("runs");
        e.array(p, "y").expect("output")[0].as_int()
    }

    #[test]
    fn fuses_mac_and_preserves_semantics() {
        let mut p = mac_program();
        let before = run(&p);
        let before_count = p.inst_count();
        let stats = Rewriter::new(mac_design()).apply(&mut p);
        assert_eq!(stats.fused_chains, 1);
        assert_eq!(stats.removed_ops, 1);
        assert_eq!(p.inst_count(), before_count - 1);
        assert!(p
            .insts()
            .any(|(_, i)| matches!(i.kind, InstKind::Chained { .. })));
        assert_eq!(run(&p), before, "rewriting must preserve results");
        assert_eq!(before, 3 * 5 + 7);
    }

    #[test]
    fn commutative_rhs_feed_is_fused() {
        // s = d + t (chain value on the rhs of a commutative add)
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 1);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Add, d.into(), t.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let before = run(&p);
        let stats = Rewriter::new(mac_design()).apply(&mut p);
        assert_eq!(stats.fused_chains, 1);
        assert_eq!(run(&p), before);
    }

    #[test]
    fn non_commutative_rhs_feed_is_rejected() {
        // s = d - t: the chain value is subtrahend; a (mul)-(sub) unit
        // computing acc - ext would get it backwards, so no fusion
        let sig: Signature = "multiply-subtract".parse().expect("ok");
        let design = AsipDesign {
            extensions: vec![IsaExtension {
                id: 0,
                signature: sig,
                area: 1.0,
                expected_benefit: 1.0,
            }],
            extension_area: 1.0,
        };
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 1);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Sub, d.into(), t.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let stats = Rewriter::new(design).apply(&mut p);
        assert_eq!(stats.fused_chains, 0);
    }

    #[test]
    fn intermediate_with_second_use_is_not_fused() {
        // t is used by the add AND stored: fusing would lose it
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 2);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Add, t.into(), d.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.store(y, Operand::imm_int(1), t.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let stats = Rewriter::new(mac_design()).apply(&mut p);
        assert_eq!(stats.fused_chains, 0);
    }

    #[test]
    fn fusable_signature_policy() {
        assert!(is_fusable_signature(&"multiply-add".parse().expect("ok")));
        assert!(is_fusable_signature(&"fmultiply-fadd".parse().expect("ok")));
        assert!(is_fusable_signature(&"add-shift-add".parse().expect("ok")));
        assert!(!is_fusable_signature(&"load-multiply".parse().expect("ok")));
        assert!(!is_fusable_signature(&"add-store".parse().expect("ok")));
        assert!(!is_fusable_signature(&"add-move".parse().expect("ok")));
    }

    #[test]
    fn rewritten_program_validates() {
        let mut p = mac_program();
        Rewriter::new(mac_design()).apply(&mut p);
        assert!(p.validate().is_ok());
    }
}
