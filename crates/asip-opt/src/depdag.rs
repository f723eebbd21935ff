//! Dependence DAG and ASAP levels over a straight-line op region.
//!
//! Percolation-style compaction reduces, inside a block, to: build the
//! dependence DAG, then issue every op at its earliest dependence-legal
//! cycle (ASAP). Anti-dependences allow same-cycle issue (the consumer
//! reads the old value while the new one is written at end of cycle),
//! which is the standard VLIW register-file semantics.
//!
//! The DAG is a *reduction* of the pairwise relation
//! [`Dependence::between`], built in one forward sweep over def/use
//! tables indexed by register and array:
//!
//! - flow and output edges come from each register's last writer;
//! - anti edges come from the register's readers since that write;
//! - memory edges join the accesses of one array that
//!   [`Dependence::memory`] says may alias;
//! - every control edge to and from a terminator is kept.
//!
//! A pair's kinds merge into one edge with the largest latency. The
//! invariant: every DAG edge joins a dependent pair at no more than the
//! pair's latency, and every dependent pair `(i, j)` of latency `lat`
//! has a DAG path `i ⇝ j` whose latencies sum to at least `lat`. So ASAP
//! levels, critical-path heights and list schedules equal those of the
//! all-pairs DAG. The sweep is linear in the region's ops, edges and
//! largest register id, plus the pairwise memory test within each array.

use crate::graph::ScheduledOp;
use asip_ir::{DepKind, Dependence};

/// The issue latency a dependence of this kind imposes.
fn latency(kind: DepKind) -> u32 {
    match kind {
        DepKind::Flow | DepKind::Output | DepKind::Memory => 1,
        // anti: consumer reads the old value, same-cycle ok; control: a
        // branch may issue alongside independent ops (its condition
        // still arrives via a flow dep)
        DepKind::Anti | DepKind::Control => 0,
    }
}

/// Marks an empty slot in the sweep's tables.
const NONE: usize = usize::MAX;

/// The dependence DAG of one region.
#[derive(Debug, Clone)]
pub struct DepDag {
    /// `edges[i]` = list of `(j, latency)` with `j > i` depending on `i`,
    /// in increasing `j`.
    edges: Vec<Vec<(usize, u32)>>,
    n: usize,
}

impl DepDag {
    /// Build the DAG for `ops` (program order) in one forward sweep.
    pub fn new(ops: &[ScheduledOp]) -> Self {
        let n = ops.len();
        let (mut regs, mut arrays) = (0, 0);
        for op in ops {
            let inst = &op.inst;
            if let Some(d) = inst.dst() {
                regs = regs.max(d.index() + 1);
            }
            inst.for_each_use(|r| regs = regs.max(r.index() + 1));
            if let Some((a, _)) = inst.memory_access() {
                arrays = arrays.max(a.index() + 1);
            }
        }
        let mut last_def = vec![NONE; regs];
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); regs];
        let mut accesses: Vec<Vec<usize>> = vec![Vec::new(); arrays];
        let mut terminators = Vec::new();
        let mut edges = vec![Vec::new(); n];
        // the edges into the current op, one per source: `slot[i]` is
        // source i's position in `into`
        let mut into: Vec<(usize, u32)> = Vec::new();
        let mut slot = vec![NONE; n];

        for (j, op) in ops.iter().enumerate() {
            let inst = &op.inst;
            let mut edge = |i: usize, kind: DepKind| match slot[i] {
                NONE => {
                    slot[i] = into.len();
                    into.push((i, latency(kind)));
                }
                s => into[s].1 = into[s].1.max(latency(kind)),
            };
            inst.for_each_use(|r| {
                if last_def[r.index()] != NONE {
                    edge(last_def[r.index()], DepKind::Flow);
                }
            });
            if let Some(d) = inst.dst() {
                let d = d.index();
                if last_def[d] != NONE {
                    edge(last_def[d], DepKind::Output);
                }
                for &i in &readers[d] {
                    edge(i, DepKind::Anti);
                }
                last_def[d] = j;
                readers[d].clear();
            }
            if let Some((a, _)) = inst.memory_access() {
                for &i in &accesses[a.index()] {
                    if Dependence::memory(&ops[i].inst, inst) {
                        edge(i, DepKind::Memory);
                    }
                }
                accesses[a.index()].push(j);
            }
            if inst.is_terminator() {
                (0..j).for_each(|i| edge(i, DepKind::Control));
                terminators.push(j);
            } else {
                terminators.iter().for_each(|&t| edge(t, DepKind::Control));
            }
            // reads are recorded after the def, so `r0 = r0 + 1` is an
            // anti source for r0's next writer
            inst.for_each_use(|r| {
                let rs = &mut readers[r.index()];
                if rs.last() != Some(&j) {
                    rs.push(j);
                }
            });
            for (i, lat) in into.drain(..) {
                slot[i] = NONE;
                edges[i].push((j, lat));
            }
        }
        DepDag { edges, n }
    }

    /// The all-pairs DAG: [`Dependence::between`] on every op pair. The
    /// oracle [`DepDag::new`] is checked against.
    #[cfg(test)]
    pub(crate) fn pairwise(ops: &[ScheduledOp]) -> Self {
        let n = ops.len();
        let mut edges = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let kinds = Dependence::between(&ops[i].inst, &ops[j].inst);
                if let Some(lat) = kinds.into_iter().map(latency).max() {
                    edges[i].push((j, lat));
                }
            }
        }
        DepDag { edges, n }
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dependence edges out of op `i` as `(successor, latency)`, in
    /// increasing successor order.
    ///
    /// These are the edges of the reduction, not every dependent pair:
    /// a later op that depends on `i` but is missing here is reached by
    /// a path of at least its latency (see the module docs).
    pub fn succs(&self, i: usize) -> &[(usize, u32)] {
        &self.edges[i]
    }

    /// ASAP issue cycle per op: every op issues at the earliest cycle
    /// permitted by its incoming dependence latencies.
    pub fn asap_levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.n];
        for i in 0..self.n {
            for &(j, lat) in &self.edges[i] {
                level[j] = level[j].max(level[i] + lat);
            }
        }
        level
    }

    /// The critical-path length in cycles (max level + 1), 0 if empty.
    pub fn critical_path(&self) -> u32 {
        if self.n == 0 {
            0
        } else {
            self.asap_levels().into_iter().max().unwrap_or(0) + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{ArrayId, BinOp, BlockId, Inst, InstId, InstKind, Operand, Reg};

    fn sop(id: u32, kind: InstKind) -> ScheduledOp {
        ScheduledOp {
            inst: Inst::new(InstId(id), kind),
            orig: InstId(id),
            weight: 1.0,
        }
    }

    fn op(id: u32, dst: u32, lhs: Operand, rhs: Operand) -> ScheduledOp {
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

    #[test]
    fn independent_ops_share_level_zero() {
        let ops = vec![
            op(0, 0, Operand::imm_int(1), Operand::imm_int(2)),
            op(1, 1, Operand::imm_int(3), Operand::imm_int(4)),
            op(2, 2, Operand::imm_int(5), Operand::imm_int(6)),
        ];
        let dag = DepDag::new(&ops);
        assert_eq!(dag.asap_levels(), vec![0, 0, 0]);
        assert_eq!(dag.critical_path(), 1);
    }

    #[test]
    fn flow_chain_serializes() {
        let ops = vec![
            op(0, 1, Operand::imm_int(1), Operand::imm_int(2)),
            op(1, 2, Reg(1).into(), Operand::imm_int(1)),
            op(2, 3, Reg(2).into(), Operand::imm_int(1)),
        ];
        let dag = DepDag::new(&ops);
        assert_eq!(dag.asap_levels(), vec![0, 1, 2]);
        assert_eq!(dag.critical_path(), 3);
    }

    #[test]
    fn anti_dependence_allows_same_cycle() {
        // op0 reads r5; op1 writes r5 — may issue together
        let ops = vec![
            op(0, 1, Reg(5).into(), Operand::imm_int(1)),
            op(1, 5, Operand::imm_int(2), Operand::imm_int(3)),
        ];
        let dag = DepDag::new(&ops);
        assert_eq!(dag.asap_levels(), vec![0, 0]);
    }

    #[test]
    fn output_dependence_serializes() {
        let ops = vec![
            op(0, 7, Operand::imm_int(1), Operand::imm_int(2)),
            op(1, 7, Operand::imm_int(3), Operand::imm_int(4)),
        ];
        let dag = DepDag::new(&ops);
        assert_eq!(dag.asap_levels(), vec![0, 1]);
    }

    #[test]
    fn recurrence_levels_grow_linearly() {
        // i = i + 1, four times: flow chain through r0
        let ops: Vec<ScheduledOp> = (0..4)
            .map(|k| op(k, 0, Reg(0).into(), Operand::imm_int(1)))
            .collect();
        let dag = DepDag::new(&ops);
        assert_eq!(dag.asap_levels(), vec![0, 1, 2, 3]);
    }

    fn store(id: u32, index: Operand) -> ScheduledOp {
        sop(
            id,
            InstKind::Store {
                array: ArrayId(0),
                index,
                value: Reg(1).into(),
            },
        )
    }

    fn load(id: u32, dst: u32, index: Operand) -> ScheduledOp {
        sop(
            id,
            InstKind::Load {
                dst: Reg(dst),
                array: ArrayId(0),
                index,
            },
        )
    }

    #[test]
    fn memory_dependence_orders_store_load() {
        let dag = DepDag::new(&[store(0, Reg(0).into()), load(1, 2, Reg(3).into())]);
        assert_eq!(dag.asap_levels(), vec![0, 1]);
    }

    #[test]
    fn constant_index_store_load_gets_no_edge() {
        let ops = [
            store(0, Operand::imm_int(0)),
            load(1, 2, Operand::imm_int(1)),
        ];
        let dag = DepDag::new(&ops);
        assert!(dag.succs(0).is_empty());
        assert_eq!(dag.asap_levels(), vec![0, 0]);
    }

    #[test]
    fn read_modify_write_is_an_anti_source_for_the_next_writer() {
        let ops = vec![
            op(0, 0, Reg(0).into(), Operand::imm_int(1)), // r0 = r0 + 1
            op(1, 1, Reg(0).into(), Operand::imm_int(2)), // reads r0
            op(2, 0, Operand::imm_int(5), Operand::imm_int(0)), // writes r0
        ];
        let dag = DepDag::new(&ops);
        // op 0 -> 2 is output and anti, merged at the output's latency
        assert_eq!(dag.succs(0), &[(1, 1), (2, 1)]);
        assert_eq!(dag.succs(1), &[(2, 0)]);
        assert_eq!(dag.asap_levels(), vec![0, 1, 1]);
    }

    #[test]
    fn flow_and_anti_pair_is_one_edge_of_latency_one() {
        let ops = vec![
            op(0, 2, Reg(3).into(), Operand::imm_int(1)), // r2 = r3 + 1
            op(1, 3, Reg(2).into(), Operand::imm_int(1)), // r3 = r2 + 1
        ];
        let dag = DepDag::new(&ops);
        assert_eq!(dag.succs(0), &[(1, 1)]);
        assert_eq!(dag.asap_levels(), vec![0, 1]);
    }

    #[test]
    fn terminator_has_a_control_edge_from_every_earlier_op() {
        let mut ops: Vec<ScheduledOp> = (0..4)
            .map(|k| op(k, k, Operand::imm_int(1), Operand::imm_int(2)))
            .collect();
        ops.push(sop(
            4,
            InstKind::Branch {
                cond: Reg(0).into(),
                then_target: BlockId(0),
                else_target: BlockId(1),
            },
        ));
        let dag = DepDag::new(&ops);
        // the branch reads r0, so op 0's edge carries the flow latency
        assert_eq!(dag.succs(0), &[(4, 1)]);
        for i in 1..4 {
            assert_eq!(dag.succs(i), &[(4, 0)], "op {i}");
        }
        assert_eq!(dag.asap_levels(), vec![0, 0, 0, 0, 1]);
    }
}
