//! Dynamic execution profiles.

use asip_ir::{BlockId, InstId, OpClass, Program};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-instruction and per-block dynamic execution counts for one run.
///
/// This is the "3-address code with profile info" artifact flowing from
/// step 2 to step 3 in the paper's Figure 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    inst_counts: Vec<u64>,
    block_counts: Vec<u64>,
    total_ops: u64,
}

impl Profile {
    /// Create an empty profile sized for a program.
    pub fn new(inst_slots: usize, block_slots: usize) -> Self {
        Profile {
            inst_counts: vec![0; inst_slots],
            block_counts: vec![0; block_slots],
            total_ops: 0,
        }
    }

    /// Record one execution of an instruction.
    #[inline]
    pub(crate) fn bump_inst(&mut self, id: InstId) {
        if id.index() >= self.inst_counts.len() {
            self.inst_counts.resize(id.index() + 1, 0);
        }
        self.inst_counts[id.index()] += 1;
        self.total_ops += 1;
    }

    /// Record one entry into a block.
    #[inline]
    pub(crate) fn bump_block(&mut self, id: BlockId) {
        if id.index() >= self.block_counts.len() {
            self.block_counts.resize(id.index() + 1, 0);
        }
        self.block_counts[id.index()] += 1;
    }

    /// Dynamic execution count of a static instruction.
    pub fn count(&self, id: InstId) -> u64 {
        self.inst_counts.get(id.index()).copied().unwrap_or(0)
    }

    /// Dynamic entry count of a block.
    pub fn block_count(&self, id: BlockId) -> u64 {
        self.block_counts.get(id.index()).copied().unwrap_or(0)
    }

    /// Total dynamic operations executed (every instruction counts one).
    ///
    /// Sequence frequencies in the paper's tables are percentages of this
    /// total ("the percentage of execution time for which that sequence
    /// accounts", one cycle per operation).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Iterate over `(InstId, count)` for instructions that executed.
    pub fn executed_insts(&self) -> impl Iterator<Item = (InstId, u64)> + '_ {
        self.inst_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (InstId(i as u32), c))
    }

    /// Dynamic count per op class: this profile folded over the
    /// instructions of `program`, the program it was taken from.
    /// Classes that never executed are absent.
    pub fn class_mix(&self, program: &Program) -> BTreeMap<OpClass, u64> {
        let mut mix = BTreeMap::new();
        for (_, inst) in program.insts() {
            let count = self.count(inst.id);
            if count > 0 {
                *mix.entry(program.class_of(inst)).or_insert(0) += count;
            }
        }
        mix
    }

    /// The raw per-instruction counts, indexed by [`InstId`]. Together
    /// with [`Profile::block_counts`] and [`Profile::total_ops`] this is
    /// the profile's complete state, exposed so artifact stores can
    /// serialize profiles without reflective serialization support.
    pub fn inst_counts(&self) -> &[u64] {
        &self.inst_counts
    }

    /// The raw per-block entry counts, indexed by [`BlockId`].
    pub fn block_counts(&self) -> &[u64] {
        &self.block_counts
    }

    /// Reassemble a profile from the parts exposed by
    /// [`Profile::inst_counts`], [`Profile::block_counts`] and
    /// [`Profile::total_ops`] (the decode half of profile persistence).
    pub fn from_parts(inst_counts: Vec<u64>, block_counts: Vec<u64>, total_ops: u64) -> Self {
        Profile {
            inst_counts,
            block_counts,
            total_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut p = Profile::new(4, 2);
        p.bump_inst(InstId(1));
        p.bump_inst(InstId(1));
        p.bump_inst(InstId(3));
        p.bump_block(BlockId(0));
        assert_eq!(p.count(InstId(1)), 2);
        assert_eq!(p.count(InstId(0)), 0);
        assert_eq!(p.count(InstId(99)), 0, "out of range reads as zero");
        assert_eq!(p.block_count(BlockId(0)), 1);
        assert_eq!(p.total_ops(), 3);
        let executed: Vec<_> = p.executed_insts().collect();
        assert_eq!(executed, vec![(InstId(1), 2), (InstId(3), 1)]);
    }

    #[test]
    fn class_mix_counts_dynamic_classes() {
        use crate::{DataSet, Simulator};
        use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
        let mut b = ProgramBuilder::new("t");
        let x = b.input_array("x", Ty::Int, 4);
        let e = b.entry_block();
        b.select_block(e);
        let v = b.load(x, Operand::imm_int(0));
        let w = b.binary(BinOp::Mul, v.into(), Operand::imm_int(3));
        b.ret(Some(w.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![7, 0, 0, 0]);
        let mix = Simulator::new(&p)
            .run(&d)
            .expect("runs")
            .profile
            .class_mix(&p);
        assert_eq!(mix.get(&OpClass::Load), Some(&1));
        assert_eq!(mix.get(&OpClass::Mul), Some(&1));
        assert_eq!(mix.get(&OpClass::Branch), Some(&1)); // the ret
        assert_eq!(mix.len(), 3, "classes that never ran are absent");
    }

    #[test]
    fn grows_on_demand() {
        let mut p = Profile::new(0, 0);
        p.bump_inst(InstId(10));
        p.bump_block(BlockId(5));
        assert_eq!(p.count(InstId(10)), 1);
        assert_eq!(p.block_count(BlockId(5)), 1);
    }
}
