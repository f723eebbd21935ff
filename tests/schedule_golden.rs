//! Golden digest of the optimizer's output.
//!
//! Folds every `ScheduleGraph` of the 36 `full_registry()` programs at
//! all three optimization levels into one FNV-1a digest: each graph's
//! name, entry, float-array flags, profile total and region-chaining
//! flag; per node, its source block and its successors in order; and
//! per op, its textual instruction, original instruction id and the
//! exact bit pattern of its weight. Any change to what the optimizer
//! schedules — an op moved between nodes, an edge added or reordered, a
//! weight split differently — shows up as a digest mismatch. The
//! rendering does not depend on the graph's in-memory layout or on the
//! artifact codec, so a change to either leaves it unchanged.

use asip_explorer::ir::print::DisplayInst;
use asip_explorer::prelude::*;
use asip_explorer::store::StableHasher;

/// The recorded schedule digest (see the module docs).
const GOLDEN: u64 = 0x9a70_4ef7_c561_70b4;

#[test]
fn schedules_match_the_recorded_digest() {
    let session = Explorer::new()
        .with_registry(full_registry())
        .with_threads(1);
    let names: Vec<&str> = session.registry().iter().map(|b| b.name).collect();
    assert_eq!(names.len(), 36, "Table-1 plus the generated corpus");
    let mut h = StableHasher::new();
    for name in names {
        for level in OptLevel::all() {
            let scheduled = session.schedule(name, level).expect("schedules");
            let graph = &scheduled.graph;
            h.write_str(&graph.name);
            h.write_u64(u64::from(graph.entry.0));
            h.write_usize(graph.arrays_float.len());
            for &f in &graph.arrays_float {
                h.write_bool(f);
            }
            h.write_u64(graph.total_profile_ops);
            h.write_bool(graph.region_chaining);
            h.write_usize(graph.node_count());
            for node in graph.nodes() {
                h.write_u64(u64::from(node.block.0));
                h.write_usize(node.succs.len());
                for s in node.succs {
                    h.write_u64(u64::from(s.0));
                }
                h.write_usize(node.ops.len());
                for op in node.ops {
                    h.write_str(&DisplayInst(&op.inst).to_string());
                    h.write_u64(u64::from(op.orig.0));
                    h.write_u64(op.weight.to_bits());
                }
            }
        }
    }
    assert_eq!(
        h.finish(),
        GOLDEN,
        "optimizer output changed: got {:#018x}",
        h.finish()
    );
}
