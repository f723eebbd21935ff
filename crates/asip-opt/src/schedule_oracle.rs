//! Exact oracle for the scheduler's fast paths.
//!
//! Over every region the optimizer compacts at levels 1 and 2, for the
//! programs of `full_registry()` and for a sweep of freshly generated
//! ones, the def/use [`DepDag::new`] is checked against the all-pairs
//! [`DepDag::pairwise`], and the ready-queue [`compact_block`] against
//! the rescanning [`compact_block_rescan`]:
//!
//! - every all-pairs edge `(i, j, lat)` has a path `i ⇝ j` of latency at
//!   least `lat` in the def/use DAG, and every def/use edge is an
//!   all-pairs edge at no more than its latency;
//! - ASAP levels and the critical path are equal;
//! - the layouts are identical at widths 1, 4 and unbounded.
//!
//! The sweep's size follows `ASIP_GEN_SWEEP_SEEDS` (default 8).

use crate::compact::{compact_block, compact_block_rescan};
use crate::depdag::DepDag;
use crate::optimizer::{OptLevel, Optimizer};
use crate::work::WorkBlock;
use asip_gen::{GenConfig, GenTy};
use asip_ir::Program;
use asip_sim::{DataGen, DataSet, Profile, Simulator};

const WIDTHS: [usize; 3] = [1, 4, usize::MAX];

fn check_region(wb: &WorkBlock, what: &str) {
    let ops = &wb.ops;
    let dag = DepDag::new(ops);
    let all = DepDag::pairwise(ops);
    let n = ops.len();
    let mut longest: Vec<Option<u32>> = vec![None; n];
    for i in 0..n {
        // the longest def/use path from i to each later op
        longest.fill(None);
        longest[i] = Some(0);
        for k in i..n {
            let Some(at) = longest[k] else { continue };
            for &(j, lat) in dag.succs(k) {
                longest[j] = longest[j].max(Some(at + lat));
            }
        }
        for &(j, lat) in all.succs(i) {
            assert!(
                longest[j] >= Some(lat),
                "{what}: dependence {i} -> {j} of latency {lat} has no such path"
            );
        }
        for &(j, lat) in dag.succs(i) {
            let pair = all.succs(i).binary_search_by_key(&j, |&(k, _)| k);
            assert!(
                pair.is_ok_and(|p| lat <= all.succs(i)[p].1),
                "{what}: edge {i} -> {j} of latency {lat} is no such dependence"
            );
        }
    }
    assert_eq!(dag.asap_levels(), all.asap_levels(), "{what}");
    assert_eq!(dag.critical_path(), all.critical_path(), "{what}");
    for width in WIDTHS {
        assert!(
            compact_block(wb, width) == compact_block_rescan(wb, width),
            "{what}: layouts differ at width {width}"
        );
    }
}

/// Check every non-empty region of `program` at levels 1 and 2; returns
/// how many there were.
fn check_program(program: &Program, profile: &Profile) -> usize {
    let mut regions = 0;
    for level in [OptLevel::Pipelined, OptLevel::PipelinedRenamed] {
        let work = Optimizer::new(level).regions(program, profile);
        for wb in work.blocks.iter().filter(|wb| !wb.ops.is_empty()) {
            check_region(wb, &format!("{} at {level:?}, {}", program.name, wb.id));
            regions += 1;
        }
    }
    regions
}

#[test]
fn full_registry_schedules_match_the_pairwise_oracle() {
    let mut regions = 0;
    for bench in asip_benchmarks::full_registry().iter() {
        let program = bench.compile().expect("compiles");
        let profile = bench.profile(&program).expect("profiles");
        regions += check_program(&program, &profile);
    }
    assert!(regions > 100, "only {regions} regions checked");
}

#[test]
fn generated_schedules_match_the_pairwise_oracle() {
    let seeds: u64 = std::env::var("ASIP_GEN_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let base = 0x5C4E_D000_0000_0000u64;
    for i in 0..seeds {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let config = match i % 3 {
            0 => GenConfig::small(),
            1 => GenConfig::mid(),
            _ => GenConfig {
                loop_depth: 3,
                statements: 24,
                chain_density: 60,
                ..GenConfig::small()
            },
        };
        let prog = asip_gen::generate(seed, &config);
        let program = asip_frontend::compile(&prog.name, &prog.source)
            .unwrap_or_else(|e| panic!("seed {i}: compile failed: {e}\n{}", prog.source));
        let mut gen = DataGen::new(seed);
        let mut data = DataSet::new();
        for input in &prog.inputs {
            match input.ty {
                GenTy::Int => data.bind_ints(input.name.clone(), gen.ints(input.len, -128, 127)),
                GenTy::Float => {
                    data.bind_floats(input.name.clone(), gen.floats(input.len, -1.0, 1.0))
                }
            };
        }
        let profile = Simulator::new(&program)
            .run(&data)
            .unwrap_or_else(|e| panic!("seed {i}: run failed: {e}"))
            .profile;
        check_program(&program, &profile);
    }
}
