//! The branch-and-bound sequence detector.

use crate::signature::Signature;
use asip_opt::{NodeId, OpId, ScheduleGraph};
use std::collections::HashSet;

/// One concrete occurrence of a chainable sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Occurrence {
    /// The chained op instances, head first.
    pub ops: Vec<OpId>,
    /// The signature (op classes of the ops).
    pub signature: Signature,
    /// The limiting dynamic count: the minimum weight along the chain
    /// (consecutive ops in a loop share their weight; a chain spanning a
    /// guard executes only as often as its rarest member).
    pub min_weight: f64,
}

impl Occurrence {
    /// Dynamic frequency in percent of the run's total operations:
    /// `min_weight × length / total × 100`.
    pub fn frequency(&self, total_profile_ops: u64) -> f64 {
        if total_profile_ops == 0 {
            return 0.0;
        }
        100.0 * self.min_weight * self.ops.len() as f64 / total_profile_ops as f64
    }
}

/// Which op classes may participate in a chain.
///
/// The default matches the paper's candidate set: arithmetic, shifts,
/// logic, compares, loads and stores — in both integer and float
/// flavors. Register copies (`move`), int/float conversions and math
/// intrinsics (library calls in 3-address code) are *not* candidates:
/// a chained functional unit fuses datapath operations, not calls.
pub fn default_chainable(class: asip_ir::OpClass) -> bool {
    use asip_ir::OpClass as C;
    matches!(
        class,
        C::Add
            | C::Sub
            | C::Mul
            | C::Div
            | C::Shift
            | C::Logic
            | C::Compare
            | C::Load
            | C::Store
            | C::FAdd
            | C::FSub
            | C::FMul
            | C::FDiv
            | C::FLoad
            | C::FStore
    )
}

/// Detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Minimum chain length reported (paper: 2).
    pub min_len: usize,
    /// Maximum chain length searched (paper: 5).
    pub max_len: usize,
    /// Chaining window: the maximum number of schedule edges between
    /// consecutive chain members. `0` = same node only; `1` (default) =
    /// same or adjacent node, i.e. the value could be forwarded without a
    /// register-file round trip.
    pub window: usize,
    /// Branch-and-bound pruning floor, in percent: partial chains whose
    /// best achievable *occurrence* frequency is below this are
    /// abandoned. Pruning operates per occurrence, so a signature whose
    /// total comes from many small occurrences may report a lower
    /// aggregate under a non-zero floor; use `0.0` (the default) when
    /// exact tables are needed and a floor when only the headline
    /// sequences matter (the paper's analyzer does the latter).
    pub prune_floor: f64,
    /// Which classes are chain candidates (see [`default_chainable`]).
    pub chainable: fn(asip_ir::OpClass) -> bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_len: 2,
            max_len: 5,
            window: 1,
            prune_floor: 0.0,
            chainable: default_chainable,
        }
    }
}

impl DetectorConfig {
    /// Restrict to a single length.
    pub fn with_length(mut self, len: usize) -> Self {
        self.min_len = len;
        self.max_len = len;
        self
    }

    /// Set the chaining window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Set the branch-and-bound pruning floor (percent).
    pub fn with_prune_floor(mut self, floor: f64) -> Self {
        self.prune_floor = floor;
        self
    }

    /// Override the chain-candidate class policy.
    pub fn with_chainable(mut self, chainable: fn(asip_ir::OpClass) -> bool) -> Self {
        self.chainable = chainable;
        self
    }
}

/// Occurrences sorted by signature, each signature's run heaviest
/// first with ties by op position — the grouping both the report and
/// the coverage study select from. Enumerated occurrences are distinct
/// chains, so this is a total order on them.
pub(crate) fn by_signature(occurrences: &[Occurrence]) -> Vec<&Occurrence> {
    let mut order: Vec<&Occurrence> = occurrences.iter().collect();
    order.sort_by(|a, b| {
        a.signature.cmp(&b.signature).then_with(|| {
            b.min_weight
                .partial_cmp(&a.min_weight)
                .expect("weights finite")
                .then_with(|| a.ops.cmp(&b.ops))
        })
    });
    order
}

/// Greedily select a maximal-weight set of mutually non-overlapping
/// occurrences from one heaviest-first run of [`by_signature`]; returns
/// their total frequency and the selected occurrences. `taken` is
/// scratch space, cleared on entry. Used both for report aggregation (a
/// sequence's frequency never counts one op twice) and by the coverage
/// analyzer.
pub(crate) fn select_non_overlapping<'a>(
    graph: &ScheduleGraph,
    order: &[&'a Occurrence],
    taken: &mut OpSet,
) -> (f64, Vec<&'a Occurrence>) {
    taken.clear();
    let mut freq = 0.0;
    let mut selected = Vec::new();
    for &o in order {
        if o.ops.iter().any(|&r| taken.contains(r)) {
            continue;
        }
        for &r in &o.ops {
            taken.insert(r);
        }
        freq += o.frequency(graph.total_profile_ops);
        selected.push(o);
    }
    (freq, selected)
}

/// A set of one graph's ops, kept as a mark per op. A mark counts only
/// when it equals the current generation, so clearing is one increment.
pub(crate) struct OpSet {
    marks: Vec<u32>,
    generation: u32,
}

impl OpSet {
    /// An empty set over `graph`'s ops.
    pub(crate) fn new(graph: &ScheduleGraph) -> Self {
        OpSet {
            marks: vec![0; graph.ops.len()],
            generation: 1,
        }
    }

    pub(crate) fn contains(&self, r: OpId) -> bool {
        self.marks[r.index()] == self.generation
    }

    pub(crate) fn insert(&mut self, r: OpId) {
        self.marks[r.index()] = self.generation;
    }

    pub(crate) fn clear(&mut self) {
        self.generation += 1;
    }
}

/// The sequence detection analyzer.
///
/// See the crate docs for the chain model. The search enumerates, for
/// each chainable op, every data-flow successor within the chaining
/// window, depth-first up to `max_len`, pruning partial chains that can
/// no longer reach `prune_floor` (branch and bound, as in the paper's
/// Section 5). Each enumeration first computes every chainable op's
/// flow-successor list once, into tables indexed like the graph's ops,
/// so the depth-first search itself never rescans the schedule.
#[derive(Debug, Clone, Copy)]
pub struct SequenceDetector {
    config: DetectorConfig,
}

impl SequenceDetector {
    /// Create a detector.
    pub fn new(config: DetectorConfig) -> Self {
        SequenceDetector { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Detect all occurrences and aggregate them into a report.
    pub fn analyze(&self, graph: &ScheduleGraph) -> crate::report::SequenceReport {
        let occurrences = self.occurrences(graph);
        crate::report::SequenceReport::from_occurrences(graph, &occurrences, &self.config)
    }

    /// Enumerate every chain occurrence (unaggregated), heads in graph
    /// order and each head's chains in depth-first order.
    pub fn occurrences(&self, graph: &ScheduleGraph) -> Vec<Occurrence> {
        let index = FlowIndex::build(self, graph);
        let mut out = Vec::new();
        let mut chain: Vec<u32> = Vec::with_capacity(self.config.max_len);
        for (head, op) in graph.ops.iter().enumerate() {
            if !index.chainable[head] {
                continue;
            }
            chain.push(head as u32);
            self.extend(graph, &index, &mut chain, op.weight, &mut out);
            chain.pop();
        }
        out
    }

    fn extend(
        &self,
        graph: &ScheduleGraph,
        index: &FlowIndex,
        chain: &mut Vec<u32>,
        min_weight: f64,
        out: &mut Vec<Occurrence>,
    ) {
        if chain.len() >= self.config.min_len {
            out.push(Occurrence {
                ops: chain.iter().map(|&i| OpId(i)).collect(),
                signature: Signature::new(
                    chain.iter().map(|&i| index.classes[i as usize]).collect(),
                ),
                min_weight,
            });
        }
        if chain.len() >= self.config.max_len {
            return;
        }
        // branch and bound: even extended to max_len with the current
        // limiting weight, can this chain still clear the floor?
        if self.config.prune_floor > 0.0 && graph.total_profile_ops > 0 {
            let best =
                100.0 * min_weight * self.config.max_len as f64 / graph.total_profile_ops as f64;
            if best < self.config.prune_floor {
                return;
            }
        }
        let last = *chain.last().expect("chain non-empty");
        for &succ in index.succs_of(last) {
            if chain.contains(&succ) {
                continue;
            }
            chain.push(succ);
            let weight = min_weight.min(graph.ops[succ as usize].weight);
            self.extend(graph, index, chain, weight, out);
            chain.pop();
        }
    }

    /// Data-flow successors of `from`: ops whose operands read `from`'s
    /// destination register, reachable without the value being redefined,
    /// and close enough to chain.
    ///
    /// "Close enough" depends on the graph: in an optimized graph
    /// ([`ScheduleGraph::region_chaining`]) percolation can co-schedule
    /// any two flow-dependent ops of one block region, so every in-region
    /// consumer qualifies ("search a much broader set of possibilities");
    /// across region boundaries — and everywhere in a sequential graph —
    /// consumers must lie within `window` schedule edges.
    pub fn flow_succs(&self, graph: &ScheduleGraph, from: OpId) -> Vec<OpId> {
        let mut found: Vec<OpId> = Vec::new();
        let mut seen: HashSet<OpId> = HashSet::new();
        self.scan_flow_succs(graph, from, |r| {
            if seen.insert(r) {
                found.push(r);
            }
        });
        found
    }

    /// Visit every flow successor of `from` in [`SequenceDetector::flow_succs`]
    /// order; an op reachable along several paths is visited once per
    /// path, so callers deduplicate.
    fn scan_flow_succs(&self, graph: &ScheduleGraph, from: OpId, mut visit: impl FnMut(OpId)) {
        let Some(d) = graph.ops[from.index()].inst.dst() else {
            return;
        };
        let from_node = graph.node_of(from);
        // every op of node n that reads d, but `from` itself
        let mut visit_readers = |n: NodeId| {
            for j in graph.op_range(n) {
                if j != from.index() && graph.ops[j].inst.reads(d) {
                    visit(OpId(j as u32));
                }
            }
        };
        let kills = |n: NodeId| graph.node(n).ops.iter().any(|op| op.inst.dst() == Some(d));

        // same node: same issue cycle, direct forwarding
        visit_readers(from_node);

        // region chaining: walk the rest of this block's node sequence
        // (a block's nodes are consecutive by construction); stop past a
        // node that redefines d
        if graph.region_chaining {
            let block = graph.node_block[from_node.index()];
            let mut n = from_node.index() + 1;
            while graph.node_block.get(n) == Some(&block) {
                visit_readers(NodeId(n as u32));
                if kills(NodeId(n as u32)) {
                    break;
                }
                n += 1;
            }
        }

        // nodes within `window` edges, via DFS over node paths; a path is
        // cut when some op on an intermediate node redefines `d`
        let mut stack: Vec<(NodeId, usize)> = vec![(from_node, 0)];
        let mut visited_at: Vec<(NodeId, usize)> = Vec::new();
        while let Some((n, depth)) = stack.pop() {
            if depth >= self.config.window {
                continue;
            }
            for &s in graph.node(n).succs {
                // collect consumers in s
                visit_readers(s);
                // extend the path unless s redefines d (value killed past s)
                if !kills(s) && !visited_at.contains(&(s, depth + 1)) {
                    visited_at.push((s, depth + 1));
                    stack.push((s, depth + 1));
                }
            }
        }
    }
}

/// The per-graph tables one enumeration runs on, indexed like the
/// graph's ops.
///
/// Each chainable op's successor list holds exactly the chainable
/// entries of [`SequenceDetector::flow_succs`], in its order, so the
/// depth-first search visits chains exactly as a per-step rescan would.
struct FlowIndex {
    /// Op classes.
    classes: Vec<asip_ir::OpClass>,
    /// Whether each op's class is a chain candidate.
    chainable: Vec<bool>,
    /// `succs[succ_start[i]..succ_start[i + 1]]` are op `i`'s chainable
    /// flow successors (empty for non-chainable ops).
    succ_start: Vec<u32>,
    /// Concatenated successor lists.
    succs: Vec<u32>,
}

impl FlowIndex {
    fn build(detector: &SequenceDetector, graph: &ScheduleGraph) -> Self {
        let classes: Vec<asip_ir::OpClass> =
            graph.ops.iter().map(|op| graph.class_of(op)).collect();
        let chainable: Vec<bool> = classes
            .iter()
            .map(|&c| (detector.config.chainable)(c))
            .collect();

        let mut seen = OpSet::new(graph);
        let mut succ_start: Vec<u32> = Vec::with_capacity(classes.len() + 1);
        let mut succs: Vec<u32> = Vec::new();
        for (i, &is_chainable) in chainable.iter().enumerate() {
            succ_start.push(succs.len() as u32);
            if !is_chainable {
                continue;
            }
            seen.clear();
            detector.scan_flow_succs(graph, OpId(i as u32), |r| {
                if !seen.contains(r) {
                    seen.insert(r);
                    if chainable[r.index()] {
                        succs.push(r.0);
                    }
                }
            });
        }
        succ_start.push(succs.len() as u32);
        FlowIndex {
            classes,
            chainable,
            succ_start,
            succs,
        }
    }

    /// Op `i`'s chainable flow successors.
    fn succs_of(&self, i: u32) -> &[u32] {
        &self.succs[self.succ_start[i as usize] as usize..self.succ_start[i as usize + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_opt::{OptLevel, Optimizer};
    use asip_sim::{DataSet, Simulator};

    fn analyze_src(src: &str, level: OptLevel) -> (ScheduleGraph, Vec<Occurrence>) {
        let program = asip_frontend::compile("t", src).expect("compiles");
        let mut data = DataSet::new();
        for a in &program.arrays {
            if a.kind == asip_ir::ArrayKind::Input {
                match a.ty {
                    asip_ir::Ty::Int => {
                        data.bind_ints(a.name.clone(), (0..a.len as i64).collect());
                    }
                    asip_ir::Ty::Float => {
                        data.bind_floats(
                            a.name.clone(),
                            (0..a.len).map(|k| k as f64 * 0.25 + 0.5).collect(),
                        );
                    }
                }
            }
        }
        let exec = Simulator::new(&program).run(&data).expect("runs");
        let graph = Optimizer::new(level).run(&program, &exec.profile);
        let occ = SequenceDetector::new(DetectorConfig::default()).occurrences(&graph);
        (graph, occ)
    }

    const MAC_SRC: &str = r#"
        input int x[32]; output int y[32];
        void main() {
            int i;
            for (i = 0; i < 32; i = i + 1) { y[i] = x[i] * 3 + 1; }
        }
    "#;

    #[test]
    fn finds_multiply_add_at_level0() {
        let (graph, occ) = analyze_src(MAC_SRC, OptLevel::None);
        let mac: Signature = "multiply-add".parse().expect("ok");
        let hit = occ
            .iter()
            .find(|o| o.signature == mac)
            .expect("multiply-add detected in sequential code");
        assert!(hit.frequency(graph.total_profile_ops) > 5.0);
    }

    #[test]
    fn finds_load_multiply_chain() {
        let (_, occ) = analyze_src(MAC_SRC, OptLevel::None);
        let lm: Signature = "load-multiply".parse().expect("ok");
        assert!(occ.iter().any(|o| o.signature == lm));
        let lma: Signature = "load-multiply-add".parse().expect("ok");
        assert!(occ.iter().any(|o| o.signature == lma));
    }

    #[test]
    fn pipelining_exposes_cross_iteration_add_chains() {
        // `i = i + 1` feeds the *next* iteration's address-scaling
        // multiply (`i * 4`): the add-multiply pair only becomes visible
        // once the kernel overlaps iterations — the paper's Section 6
        // observation
        let src = r#"
            input int x[32]; output int y[32];
            void main() {
                int i;
                for (i = 0; i < 32; i = i + 1) { y[i] = x[i] + 7; }
            }
        "#;
        let freq_of = |level| {
            let (graph, occ) = analyze_src(src, level);
            occ.iter()
                .filter(|o| o.signature == "add-multiply".parse().expect("ok"))
                .map(|o| o.frequency(graph.total_profile_ops))
                .sum::<f64>()
        };
        let f0 = freq_of(OptLevel::None);
        let f1 = freq_of(OptLevel::Pipelined);
        assert!(
            f1 > f0,
            "pipelined add-multiply {f1:.2}% must exceed sequential {f0:.2}%"
        );
    }

    #[test]
    fn window_zero_restricts_to_same_node() {
        let (graph, _) = analyze_src(MAC_SRC, OptLevel::None);
        let det = SequenceDetector::new(DetectorConfig::default().with_window(0));
        // level 0 has one op per node: nothing can chain in-window
        assert!(det.occurrences(&graph).is_empty());
    }

    #[test]
    fn wider_window_finds_superset() {
        let (graph, _) = analyze_src(MAC_SRC, OptLevel::Pipelined);
        let n1 = SequenceDetector::new(DetectorConfig::default().with_window(1))
            .occurrences(&graph)
            .len();
        let n2 = SequenceDetector::new(DetectorConfig::default().with_window(2))
            .occurrences(&graph)
            .len();
        assert!(n2 >= n1);
    }

    #[test]
    fn pruning_floor_discards_rare_chains_only() {
        let (graph, _) = analyze_src(MAC_SRC, OptLevel::Pipelined);
        let all = SequenceDetector::new(DetectorConfig::default()).occurrences(&graph);
        let pruned = SequenceDetector::new(DetectorConfig::default().with_prune_floor(5.0))
            .occurrences(&graph);
        assert!(pruned.len() <= all.len());
        // every surviving chain could reach the floor
        for o in &pruned {
            let best = 100.0 * o.min_weight * 5.0 / graph.total_profile_ops as f64;
            assert!(best >= 5.0);
        }
        // high-frequency chains survive
        assert!(pruned
            .iter()
            .any(|o| o.signature == "multiply-add".parse().expect("ok")));
    }

    #[test]
    fn kill_breaks_chains() {
        // r gets redefined between producer and consumer: no chain
        use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
        let mut b = ProgramBuilder::new("kill");
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.new_reg(Ty::Int);
        b.binary_to(t, BinOp::Mul, Operand::imm_int(2), Operand::imm_int(3));
        b.binary_to(t, BinOp::Add, Operand::imm_int(0), Operand::imm_int(0)); // kills t
        let _u = b.binary(BinOp::Add, t.into(), Operand::imm_int(1));
        b.ret(None);
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let graph = Optimizer::new(OptLevel::None).run(&p, &profile);
        let det = SequenceDetector::new(DetectorConfig::default().with_window(2));
        let occ = det.occurrences(&graph);
        // multiply's value is dead: mul must not chain into the final add
        assert!(
            !occ.iter()
                .any(|o| o.signature == "multiply-add".parse().expect("ok")),
            "killed value must not chain"
        );
        // but the redefining add chains into the final add
        assert!(occ
            .iter()
            .any(|o| o.signature == "add-add".parse().expect("ok")));
    }

    #[test]
    fn region_chaining_sees_distant_in_block_flow() {
        // producer and consumer separated by several schedule cycles in
        // one region: invisible at level 0 (window 1), chainable in the
        // optimized graph (percolation could bring them together)
        let src = r#"
            input int a[16]; input int b[16]; output int y[16];
            void main() {
                int i; int t1; int t2; int u2;
                for (i = 0; i < 16; i = i + 1) {
                    t1 = a[i] + 1;
                    t2 = b[i] + 2;
                    u2 = t2 * 5;
                    y[i] = t1 * u2;
                }
            }
        "#;
        // t1's consumer (the final multiply) is far from its producer in
        // sequential order (b-address math, load, add, mul in between)
        let am: Signature = "add-multiply".parse().expect("ok");
        let find = |level| {
            let (graph, occ) = analyze_src(src, level);
            occ.iter()
                .filter(|o| o.signature == am)
                .map(|o| o.frequency(graph.total_profile_ops))
                .sum::<f64>()
        };
        let f0 = find(OptLevel::None);
        let f1 = find(OptLevel::Pipelined);
        assert!(
            f1 > f0,
            "region chaining must find more: {f0:.2} vs {f1:.2}"
        );
    }

    #[test]
    fn region_chaining_respects_kills() {
        // in the optimized graph, a redefinition between producer and
        // consumer still breaks the chain even within one region
        use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
        let mut b = ProgramBuilder::new("rk");
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let t = b.new_reg(Ty::Int);
        // mul defines t; an unrelated add then KILLS t (output dep only,
        // never reads it); the final add consumes the killer's value
        b.binary_to(t, BinOp::Mul, Operand::imm_int(2), Operand::imm_int(3));
        b.binary_to(t, BinOp::Add, Operand::imm_int(5), Operand::imm_int(5));
        let fin = b.binary(BinOp::Add, t.into(), Operand::imm_int(1));
        b.store(y, Operand::imm_int(0), fin.into());
        b.ret(None);
        let p = b.finish().expect("valid");
        let profile = Simulator::new(&p)
            .run(&DataSet::new())
            .expect("runs")
            .profile;
        let graph = Optimizer::new(OptLevel::Pipelined).run(&p, &profile);
        assert!(graph.region_chaining);
        let det = SequenceDetector::new(DetectorConfig::default());
        let occ = det.occurrences(&graph);
        // the multiply's value is dead past the kill: no multiply-add
        // chain may exist anywhere in this program
        let ma: Signature = "multiply-add".parse().expect("ok");
        assert!(
            !occ.iter().any(|o| o.signature == ma),
            "killed multiply result must not chain"
        );
        // the killer's add chains into the final add as usual
        let aa: Signature = "add-add".parse().expect("ok");
        assert!(occ.iter().any(|o| o.signature == aa));
    }

    #[test]
    fn region_chaining_stays_inside_the_block() {
        // flow into a *different* block region is still window-limited:
        // a value defined early in the entry and consumed deep inside
        // the loop body does not chain across the region boundary
        let src = r#"
            input int a[4]; output int y[16];
            void main() {
                int k; int i;
                k = a[0] * 7;
                for (i = 0; i < 16; i = i + 1) {
                    y[i] = i + i + i + k;
                }
            }
        "#;
        let (graph, occ) = analyze_src(src, OptLevel::Pipelined);
        // the k-producing multiply sits in the entry region; the consumer
        // add is several nodes deep in the loop region. A chain may only
        // reach it within the cross-block window (1), and the consumer is
        // deeper than that, so no multiply-add occurrence has the
        // k-multiply as head with weight 1 and consumer weight 8.
        let cross: Vec<_> = occ
            .iter()
            .filter(|o| {
                o.signature == "multiply-add".parse().expect("ok")
                    && (o.min_weight - 1.0).abs() < 1e-9
            })
            .collect();
        // the only weight-1 multiplies are in the entry (k and the
        // address math); their in-entry chains are fine, but none may
        // reach the loop's deep adds
        for o in &cross {
            let head_node = graph.node_of(o.ops[0]);
            let head_block = graph.node(head_node).block;
            let tail_block = graph.node(graph.node_of(o.ops[1])).block;
            if head_block != tail_block {
                // cross-region chains must respect the window: head must
                // be in the last node of its region
                let next_same_block = graph
                    .node_block
                    .get(head_node.index() + 1)
                    .map(|&b| b == head_block)
                    .unwrap_or(false);
                assert!(
                    !next_same_block,
                    "cross-region chain must start at its region's last node"
                );
            }
        }
    }

    #[test]
    fn occurrence_frequency_formula() {
        let occ = Occurrence {
            ops: vec![OpId(0), OpId(1)],
            signature: "multiply-add".parse().expect("ok"),
            min_weight: 10.0,
        };
        assert!((occ.frequency(200) - 10.0).abs() < 1e-12); // 10*2/200 = 10%
        assert_eq!(occ.frequency(0), 0.0);
    }

    #[test]
    fn lengths_respect_config() {
        let (graph, _) = analyze_src(MAC_SRC, OptLevel::Pipelined);
        let det = SequenceDetector::new(DetectorConfig::default().with_length(3));
        let occ = det.occurrences(&graph);
        assert!(!occ.is_empty());
        assert!(occ.iter().all(|o| o.ops.len() == 3));
    }
}
