//! Exactness oracle for the detector and the coverage study.
//!
//! The reference below is the straightforward form of both algorithms:
//! a depth-first search that asks [`SequenceDetector::flow_succs`] for
//! the successors at every step, and a coverage study that re-runs that
//! search each round with the ops earlier rounds consumed skipped, then
//! groups, sorts and greedily selects from scratch. The detector's
//! per-graph successor tables and the study's single enumeration must
//! reproduce it exactly — the same occurrences in the same order, and
//! the same coverage entries bit for bit — on the Table-1 kernels, the
//! generated corpus and 200 fresh generator seeds, at every level.

use asip_chains::{
    CoverageAnalyzer, CoverageEntry, CoverageReport, DetectorConfig, Occurrence, SequenceDetector,
    Signature,
};
use asip_gen::{generate, GenConfig, GenTy};
use asip_opt::{OpId, OptLevel, Optimizer, ScheduleGraph};
use asip_sim::{DataGen, DataSet, Simulator};
use std::collections::{BTreeMap, HashSet};

/// Every chain touching no consumed op, enumerated step by step.
fn reference_occurrences(
    graph: &ScheduleGraph,
    config: DetectorConfig,
    consumed: &HashSet<OpId>,
) -> Vec<Occurrence> {
    let detector = SequenceDetector::new(config);
    let mut out = Vec::new();
    for (i, op) in graph.ops.iter().enumerate() {
        let head = OpId(i as u32);
        let class = graph.class_of(op);
        if consumed.contains(&head) || !(config.chainable)(class) {
            continue;
        }
        let mut chain = vec![head];
        let mut classes = vec![class];
        extend(
            graph,
            &detector,
            &mut chain,
            &mut classes,
            op.weight,
            consumed,
            &mut out,
        );
    }
    out
}

fn extend(
    graph: &ScheduleGraph,
    detector: &SequenceDetector,
    chain: &mut Vec<OpId>,
    classes: &mut Vec<asip_ir::OpClass>,
    min_weight: f64,
    consumed: &HashSet<OpId>,
    out: &mut Vec<Occurrence>,
) {
    let config = detector.config();
    if chain.len() >= config.min_len {
        out.push(Occurrence {
            ops: chain.clone(),
            signature: Signature::new(classes.clone()),
            min_weight,
        });
    }
    if chain.len() >= config.max_len {
        return;
    }
    if config.prune_floor > 0.0 && graph.total_profile_ops > 0 {
        let best = 100.0 * min_weight * config.max_len as f64 / graph.total_profile_ops as f64;
        if best < config.prune_floor {
            return;
        }
    }
    let last = *chain.last().expect("non-empty");
    for succ in detector.flow_succs(graph, last) {
        if chain.contains(&succ) || consumed.contains(&succ) {
            continue;
        }
        let op = &graph.ops[succ.index()];
        let class = graph.class_of(op);
        if !(config.chainable)(class) {
            continue;
        }
        chain.push(succ);
        classes.push(class);
        extend(
            graph,
            detector,
            chain,
            classes,
            min_weight.min(op.weight),
            consumed,
            out,
        );
        chain.pop();
        classes.pop();
    }
}

/// The iterative study, re-enumerating every round.
fn reference_coverage(
    graph: &ScheduleGraph,
    config: DetectorConfig,
    floor: f64,
    max_sequences: usize,
) -> CoverageReport {
    let mut consumed: HashSet<OpId> = HashSet::new();
    let mut entries: Vec<CoverageEntry> = Vec::new();
    for _round in 0..max_sequences {
        let occurrences = reference_occurrences(graph, config, &consumed);
        let mut by_sig: BTreeMap<&Signature, Vec<&Occurrence>> = BTreeMap::new();
        for o in &occurrences {
            if entries.iter().all(|e| e.signature != o.signature) {
                by_sig.entry(&o.signature).or_default().push(o);
            }
        }
        let mut best: Option<(&Signature, f64, Vec<&Occurrence>)> = None;
        for (sig, mut occs) in by_sig {
            occs.sort_by(|a, b| {
                b.min_weight
                    .partial_cmp(&a.min_weight)
                    .expect("finite")
                    .then_with(|| a.ops.cmp(&b.ops))
            });
            let mut taken: HashSet<OpId> = HashSet::new();
            let mut freq = 0.0;
            let mut selected = Vec::new();
            for o in occs {
                if o.ops.iter().any(|r| taken.contains(r)) {
                    continue;
                }
                taken.extend(o.ops.iter().copied());
                freq += o.frequency(graph.total_profile_ops);
                selected.push(o);
            }
            let better = best.as_ref().is_none_or(|(_, bf, _)| freq > *bf);
            if better && freq > 0.0 {
                best = Some((sig, freq, selected));
            }
        }
        let Some((signature, frequency, selected)) = best else {
            break;
        };
        if frequency < floor {
            break;
        }
        for o in &selected {
            consumed.extend(o.ops.iter().copied());
        }
        entries.push(CoverageEntry {
            signature: signature.clone(),
            frequency,
            occurrences: selected.len(),
        });
    }
    CoverageReport {
        name: graph.name.clone(),
        entries,
    }
}

/// The detector settings each graph is checked under: the analyze
/// stage's, the design stage's study, a pruned search and a wider
/// window.
fn studies() -> [(DetectorConfig, f64, usize); 4] {
    let base = DetectorConfig::default();
    [
        (base, 4.0, 8),
        (base, 1.0, 16),
        (base.with_prune_floor(2.0), 1.0, 16),
        (base.with_window(2), 4.0, 8),
    ]
}

fn check_graph(graph: &ScheduleGraph, what: &str) {
    for (config, floor, max) in studies() {
        let full = reference_occurrences(graph, config, &HashSet::new());
        assert_eq!(
            SequenceDetector::new(config).occurrences(graph),
            full,
            "{what}: occurrence lists differ"
        );
        let got = CoverageAnalyzer::new(config)
            .with_floor(floor)
            .with_max_sequences(max)
            .analyze(graph);
        let want = reference_coverage(graph, config, floor, max);
        assert_eq!(got, want, "{what}: coverage studies differ");
        for (g, w) in got.entries.iter().zip(&want.entries) {
            assert_eq!(g.frequency.to_bits(), w.frequency.to_bits(), "{what}");
        }
    }
}

#[test]
fn coverage_matches_the_per_round_reference_on_the_full_registry() {
    for bench in asip_benchmarks::full_registry().iter() {
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("runs");
        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &profile);
            check_graph(&graph, &format!("{} at {level:?}", bench.name));
        }
    }
}

#[test]
fn coverage_matches_the_per_round_reference_on_fresh_generator_seeds() {
    for i in 0..200u64 {
        let seed = 0xC0FE_0000_0000_0000u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let config = GenConfig {
            loop_depth: 1 + (i % 2) as usize,
            chain_density: if i % 3 == 0 { 70 } else { 25 },
            ..GenConfig::small()
        };
        let prog = generate(seed, &config);
        let program = asip_frontend::compile(&prog.name, &prog.source).expect("compiles");
        let mut gen = DataGen::new(seed);
        let mut data = DataSet::new();
        for input in &prog.inputs {
            match input.ty {
                GenTy::Int => {
                    data.bind_ints(input.name.clone(), gen.ints(input.len, -128, 127));
                }
                GenTy::Float => {
                    data.bind_floats(input.name.clone(), gen.floats(input.len, -1.0, 1.0));
                }
            }
        }
        let profile = Simulator::new(&program).run(&data).expect("runs").profile;
        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &profile);
            check_graph(&graph, &format!("seed {i} at {level:?}"));
        }
    }
}
