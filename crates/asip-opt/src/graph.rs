//! The scheduled program graph: the optimizer's output and the sequence
//! detector's input.
//! It is flat arrays, built in one place (`ScheduleGraph::assemble`):
//! every op in one vector, node by node, and each node's ops and
//! successors a range of a shared vector. [`OpId`] is an op's position.

use asip_ir::{BlockId, Inst, InstId, OpClass, Program};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Identifier of a node in a [`ScheduleGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the graph's per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a scheduled op: its position in [`ScheduleGraph::ops`],
/// which runs node by node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl OpId {
    /// Index into [`ScheduleGraph::ops`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One operation placed in a schedule node.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// The (possibly renamed/cloned) instruction.
    pub inst: Inst,
    /// Original instruction id, for profile attribution. Several copies
    /// (loop-pipelined iterations, duplicated hoists) may share one
    /// original.
    pub orig: InstId,
    /// Dynamic execution count attributed to this copy. Copies of an
    /// unrolled loop body split the original count evenly, so summing
    /// weights over copies reproduces the measured count.
    pub weight: f64,
}

/// A wide instruction: operations issued together in one cycle. A view
/// of one node of a [`ScheduleGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedNode<'g> {
    /// Operations in this node.
    pub ops: &'g [ScheduledOp],
    /// Successor nodes (control flow).
    pub succs: &'g [NodeId],
    /// The source block this node descends from (metadata for dumps).
    pub block: BlockId,
}

/// The scheduled program graph.
///
/// Level-0 graphs have one op per node in sequential order; optimized
/// graphs have compacted nodes; a block's nodes are consecutive.
/// Program-level context (which arrays hold floats, the original profile
/// total) travels with the graph so the detector can classify ops and
/// normalize frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleGraph {
    /// Program name.
    pub name: String,
    /// Every op, node by node.
    pub ops: Vec<ScheduledOp>,
    /// Where each node's ops start in `ops`, plus its length.
    pub node_start: Vec<u32>,
    /// Where each node's successors start in `succs`, plus its length.
    pub succ_start: Vec<u32>,
    /// Every node's successors (control flow), node by node.
    pub succs: Vec<NodeId>,
    /// The source block of each node.
    pub node_block: Vec<BlockId>,
    /// Entry node.
    pub entry: NodeId,
    /// `true` for arrays with float elements (drives `load` vs `fload`).
    pub arrays_float: Vec<bool>,
    /// Total dynamic operations of the *original* profiled run. All
    /// frequencies are percentages of this, at every optimization level,
    /// so levels are directly comparable (the paper plots them on one
    /// axis).
    pub total_profile_ops: u64,
    /// True for optimized graphs: percolation's code motions can bring
    /// *any* flow-dependent pair within one block region together, so the
    /// sequence detector treats whole-region flow as potentially
    /// chainable ("search a much broader set of possibilities", paper
    /// Section 4). Sequential (level-0) graphs leave this false: there
    /// the ordering is fixed and only window-adjacent ops can chain.
    pub region_chaining: bool,
}

/// `start[i]..start[i + 1]` as a `usize` range.
fn range(start: &[u32], i: usize) -> Range<usize> {
    start[i] as usize..start[i + 1] as usize
}

impl ScheduleGraph {
    /// Build a graph from per-block node layouts: the one place edges
    /// are wired. `blocks` yields each block's id and its nodes in issue
    /// order, each node as its ops; empty nodes are dropped. A block's
    /// nodes flow one into the next, and its last node flows to the first
    /// node of each block `succs(block)` names, in order; blocks without
    /// nodes get no edges. Block ids must be below `block_count`.
    pub(crate) fn assemble<L, N, S>(
        name: String,
        block_count: usize,
        blocks: impl IntoIterator<Item = (BlockId, L)>,
        succs: impl Fn(BlockId) -> S,
        entry: BlockId,
        arrays_float: Vec<bool>,
        total_profile_ops: u64,
    ) -> Self
    where
        L: IntoIterator<Item = N>,
        N: IntoIterator<Item = ScheduledOp>,
        S: IntoIterator<Item = BlockId>,
    {
        let (mut ops, mut node_start, mut node_block) = (Vec::new(), vec![0], Vec::new());
        for (block, nodes) in blocks {
            for node in nodes {
                ops.extend(node);
                if ops.len() > node_start[node_block.len()] as usize {
                    node_start.push(ops.len() as u32);
                    node_block.push(block);
                }
            }
        }
        let mut block_first = vec![None; block_count];
        for (n, b) in node_block.iter().enumerate().rev() {
            block_first[b.index()] = Some(NodeId(n as u32));
        }
        let (mut succ_start, mut edges) = (vec![0], Vec::new());
        for (n, &b) in node_block.iter().enumerate() {
            if node_block.get(n + 1) == Some(&b) {
                edges.push(NodeId(n as u32 + 1));
            } else {
                edges.extend(succs(b).into_iter().filter_map(|s| block_first[s.index()]));
            }
            succ_start.push(edges.len() as u32);
        }
        ScheduleGraph {
            name,
            ops,
            node_start,
            succ_start,
            succs: edges,
            node_block,
            entry: block_first[entry.index()].unwrap_or(NodeId(0)),
            arrays_float,
            total_profile_ops,
            region_chaining: false,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_start.len().saturating_sub(1)
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> SchedNode<'_> {
        SchedNode {
            ops: &self.ops[self.op_range(id)],
            succs: &self.succs[range(&self.succ_start, id.index())],
            block: self.node_block[id.index()],
        }
    }

    /// Every node, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = SchedNode<'_>> {
        (0..self.node_count() as u32).map(|n| self.node(NodeId(n)))
    }

    /// The positions of node `id`'s ops in [`ScheduleGraph::ops`].
    pub fn op_range(&self, id: NodeId) -> Range<usize> {
        range(&self.node_start, id.index())
    }

    /// The node holding op `id`.
    pub fn node_of(&self, id: OpId) -> NodeId {
        NodeId(self.node_start.partition_point(|&s| s <= id.0) as u32 - 1)
    }

    /// The op class of a scheduled op in this graph's context.
    pub fn class_of(&self, op: &ScheduledOp) -> OpClass {
        op.inst
            .class_with(|a| self.arrays_float.get(a.index()).copied().unwrap_or(false))
    }

    /// Iterate over all scheduled ops with their node ids.
    pub fn ops(&self) -> impl Iterator<Item = (NodeId, &ScheduledOp)> {
        let ids = (0..self.node_count() as u32).map(NodeId);
        ids.flat_map(move |n| self.node(n).ops.iter().map(move |op| (n, op)))
    }

    /// Total scheduled weight of chainable (non-control) ops.
    pub fn chainable_weight(&self) -> f64 {
        self.ops
            .iter()
            .filter(|op| self.class_of(op).is_chainable())
            .map(|op| op.weight)
            .sum()
    }

    /// Maximum number of ops in any node (the graph's "issue width").
    pub fn max_width(&self) -> usize {
        self.nodes().map(|n| n.ops.len()).max().unwrap_or(0)
    }

    /// Cycle count estimate: sum over nodes of (node entry weight),
    /// where a node's entry weight is the maximum op weight it contains
    /// (every op in a node issues in the same cycle).
    ///
    /// Used by the ablation benches to show pipelining shortens the
    /// dynamic schedule even though total work is constant.
    pub fn weighted_cycles(&self) -> f64 {
        self.nodes()
            .map(|n| n.ops.iter().map(|o| o.weight).fold(0.0_f64, f64::max))
            .sum()
    }

    /// Build the level-0 ("No Optimization") graph: one op per node, in
    /// sequential program order, weights from the profile.
    pub fn sequential(program: &Program, profile: &asip_sim::Profile) -> Self {
        let op = |inst: &Inst| ScheduledOp {
            inst: inst.clone(),
            orig: inst.id,
            weight: profile.count(inst.id) as f64,
        };
        let blocks = program
            .blocks()
            .iter()
            .map(|b| (b.id, b.insts.iter().map(|i| [op(i)])));
        let float = |a: &asip_ir::ArrayDecl| a.ty == asip_ir::Ty::Float;
        ScheduleGraph::assemble(
            program.name.clone(),
            program.blocks.len(),
            blocks,
            |b| program.block(b).successors(),
            program.entry,
            program.arrays.iter().map(float).collect(),
            profile.total_ops(),
        )
    }

    /// Structural sanity check, run on every decoded graph before
    /// anything indexes it: both range tables rise from 0 to the length
    /// of the array they index, there is one of each per node, and
    /// successors, the entry and weights are in range.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn spans(start: &[u32], len: usize, what: &str) -> Result<(), String> {
            if start.first() == Some(&0)
                && start.last().map(|&e| e as usize) == Some(len)
                && start.windows(2).all(|w| w[0] <= w[1])
            {
                return Ok(());
            }
            Err(format!("{what} ranges do not rise from 0 to {len}"))
        }
        spans(&self.node_start, self.ops.len(), "op")?;
        spans(&self.succ_start, self.succs.len(), "successor")?;
        let nodes = self.node_count();
        if self.succ_start.len() != nodes + 1 || self.node_block.len() != nodes {
            return Err(format!(
                "{nodes} nodes, {} successor ranges, {} blocks",
                self.succ_start.len() - 1,
                self.node_block.len()
            ));
        }
        if let Some(s) = self.succs.iter().find(|s| s.index() >= nodes) {
            return Err(format!("out-of-range successor {s}"));
        }
        if let Some(op) = self
            .ops
            .iter()
            .find(|op| op.weight < 0.0 || !op.weight.is_finite())
        {
            return Err(format!("invalid weight {}", op.weight));
        }
        if self.entry.index() >= nodes && nodes > 0 {
            return Err("entry out of range".into());
        }
        Ok(())
    }
}

impl fmt::Display for ScheduleGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule \"{}\" ({} nodes) {{",
            self.name,
            self.node_count()
        )?;
        for (i, n) in self.nodes().enumerate() {
            let succs: Vec<String> = n.succs.iter().map(|s| s.to_string()).collect();
            writeln!(f, "  n{i} [{}] -> {}", n.block, succs.join(", "))?;
            for op in n.ops {
                writeln!(
                    f,
                    "    {} (w={:.1})",
                    asip_ir::print::DisplayInst(&op.inst),
                    op.weight
                )?;
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new("g");
        let x = b.input_array("x", Ty::Int, 4);
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        b.jump(body);
        b.select_block(body);
        let v = b.load(x, i.into());
        b.binary_to(acc, BinOp::Add, acc.into(), v.into());
        b.binary_to(i, BinOp::Add, i.into(), Operand::imm_int(1));
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(4));
        b.branch(c.into(), body, exit);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        b.finish().expect("valid")
    }

    fn run(p: &Program) -> asip_sim::Profile {
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2, 3, 4]);
        Simulator::new(p).run(&d).expect("runs").profile
    }

    #[test]
    fn sequential_graph_mirrors_program() {
        let p = loop_program();
        let profile = run(&p);
        let g = ScheduleGraph::sequential(&p, &profile);
        assert_eq!(g.node_count(), p.inst_count());
        g.check_invariants().expect("invariants");
        assert_eq!(g.max_width(), 1);
        // weights match profile counts
        for (_, op) in g.ops() {
            assert_eq!(op.weight, profile.count(op.orig) as f64);
        }
        assert_eq!(g.total_profile_ops, profile.total_ops());
    }

    #[test]
    fn sequential_graph_has_back_edge() {
        let p = loop_program();
        let g = ScheduleGraph::sequential(&p, &run(&p));
        // the branch node of the body points back to the body's first node
        let branch_node = g
            .nodes()
            .position(|n| n.ops[0].inst.is_terminator() && n.succs.len() == 2)
            .expect("branch node");
        let body_first = g
            .nodes()
            .position(|n| n.block == BlockId(1))
            .expect("body node");
        assert!(g
            .node(NodeId(branch_node as u32))
            .succs
            .contains(&NodeId(body_first as u32)));
    }

    #[test]
    fn flat_ops_map_back_to_their_nodes() {
        let p = loop_program();
        let g = ScheduleGraph::sequential(&p, &run(&p));
        let mut flat = 0;
        for (node, op) in g.ops() {
            assert_eq!(g.node_of(OpId(flat)), node);
            assert_eq!(&g.ops[flat as usize], op);
            flat += 1;
        }
        assert_eq!(flat as usize, g.ops.len());
    }

    #[test]
    fn sequential_layout_is_one_op_per_node() {
        use asip_ir::InstKind;
        let op = |id: u32, kind: InstKind| ScheduledOp {
            inst: Inst::new(InstId(id), kind),
            orig: InstId(id),
            weight: 1.0,
        };
        let block = [
            op(
                0,
                InstKind::Binary {
                    op: BinOp::Add,
                    dst: asip_ir::Reg(0),
                    lhs: Operand::imm_int(1),
                    rhs: Operand::imm_int(2),
                },
            ),
            op(1, InstKind::Ret { value: None }),
        ];
        let layout = |ops: &[ScheduledOp]| {
            let nodes: Vec<Vec<ScheduledOp>> = ops.iter().map(|o| vec![o.clone()]).collect();
            ScheduleGraph::assemble(
                "seq".into(),
                1,
                [(BlockId(0), nodes)],
                |_| Vec::new(),
                BlockId(0),
                Vec::new(),
                2,
            )
        };
        let g = layout(&block);
        assert_eq!(g.node_count(), 2);
        assert!(g.nodes().all(|n| n.ops.len() == 1));
        assert_eq!(
            layout(&[]).node_count(),
            0,
            "an empty block lays out nothing"
        );
    }

    #[test]
    fn chainable_weight_excludes_control() {
        let p = loop_program();
        let profile = run(&p);
        let g = ScheduleGraph::sequential(&p, &profile);
        let total: f64 = g.ops().map(|(_, o)| o.weight).sum();
        assert!(g.chainable_weight() < total);
        assert!(g.chainable_weight() > 0.0);
    }

    #[test]
    fn display_dump_mentions_nodes() {
        let p = loop_program();
        let g = ScheduleGraph::sequential(&p, &run(&p));
        let s = g.to_string();
        assert!(s.contains("schedule \"g\""));
        assert!(s.contains("n0"));
    }

    #[test]
    fn invariant_check_catches_out_of_range_ranges() {
        let p = loop_program();
        let g = ScheduleGraph::sequential(&p, &run(&p));
        let mut bad = g.clone();
        bad.succs[0] = NodeId(g.node_count() as u32);
        assert!(bad.check_invariants().is_err(), "successor out of range");
        let mut bad = g.clone();
        bad.node_start.swap(1, 2);
        assert!(bad.check_invariants().is_err(), "op ranges not monotone");
        let mut bad = g.clone();
        *bad.succ_start.last_mut().expect("non-empty") += 1;
        assert!(bad.check_invariants().is_err(), "successor ranges overrun");
        let mut bad = g.clone();
        bad.node_block.pop();
        assert!(bad.check_invariants().is_err(), "a node without a block");
    }
}
