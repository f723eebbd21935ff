//! The generated corpus as a first-class suite: every corpus program is
//! differentially validated (pre-decoded `Engine` vs
//! `ReferenceSimulator`, byte-identical, at every opt level and under
//! every level's design rewrite), round-trips the textual IR losslessly,
//! and flows through the full `Explorer` pipeline with cross-session
//! store reuse — plus a fresh-seed differential sweep whose volume
//! scales with `ASIP_GEN_SWEEP_SEEDS` (the CI `gen-differential` job
//! runs 500; the tier-1 default keeps local runs fast).

use asip_explorer::gen::{generate, GenConfig, GenTy, GeneratedProgram};
use asip_explorer::prelude::*;
use asip_explorer::sim::{DataGen, DataSet, Engine, ReferenceSimulator};
use asip_explorer::synth::{AsipDesigner, Rewriter};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-gencorpus-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Assert the engine and the reference agree byte-for-byte on one
/// program + data set.
fn assert_differential(program: &asip_explorer::ir::Program, data: &DataSet, what: &str) {
    let reference = ReferenceSimulator::new(program)
        .run(data)
        .unwrap_or_else(|e| panic!("{what}: reference run failed: {e:?}"));
    let engine = Engine::new(Arc::new(program.clone()))
        .run(data)
        .unwrap_or_else(|e| panic!("{what}: engine run failed: {e:?}"));
    assert_eq!(
        engine.profile, reference.profile,
        "{what}: profiles must be byte-identical"
    );
    assert_eq!(
        engine.memory, reference.memory,
        "{what}: final memories must be byte-identical"
    );
    assert_eq!(
        engine.result, reference.result,
        "{what}: results must agree"
    );
}

#[test]
fn corpus_programs_agree_with_the_reference_at_every_opt_level() {
    // the pinned-seed differential suite: all 24 corpus programs, plain
    // and under the design rewrite each feedback level selects
    let session = Explorer::new().with_registry(full_registry());
    for bench in generated_corpus() {
        let program = session.compile(bench.name).expect("compiles").program;
        let data = bench.dataset();
        assert_differential(&program, &data, bench.name);
        for &level in &OptLevel::all() {
            let constraints = asip_explorer::synth::DesignConstraints {
                opt_level: level,
                ..Default::default()
            };
            let designed = session
                .design_with(bench.name, constraints, session.detector())
                .expect("designs");
            let mut rewritten = program.as_ref().clone();
            Rewriter::new(designed.design.as_ref().clone()).apply(&mut rewritten);
            assert_differential(
                &rewritten,
                &data,
                &format!("{} rewritten at {level:?}", bench.name),
            );
        }
    }
}

#[test]
fn store_warm_corpus_explore_all_does_zero_recomputes() {
    let dir = store_dir("warm");

    // session 1: the full Table-1 + generated registry, cold
    let first = Explorer::new()
        .with_registry(full_registry())
        .with_store(&dir);
    let cold = first.explore_all().expect("cold explore");
    assert_eq!(cold.len(), 12 + 24);
    assert!(
        first.cache_stats().compile.misses > 0,
        "cold store computes"
    );

    // session 2: a separate process stand-in sharing the directory —
    // the corpus replays entirely from disk, zero recomputes anywhere
    let second = Explorer::new()
        .with_registry(full_registry())
        .with_store(&dir);
    let warm = second.explore_all().expect("warm explore");
    assert_eq!(warm.len(), cold.len());
    let stats = second.cache_stats();
    for stage in Stage::all() {
        assert_eq!(
            stats.stage(stage).misses,
            0,
            "stage {stage} recomputed despite a warm store: {stats}"
        );
    }
    assert!(stats.tier("disk").stage(Stage::Compile).hits > 0, "{stats}");
    for (a, b) in cold.iter().zip(warm.iter()) {
        assert_eq!(a.compiled.program, b.compiled.program);
        assert_eq!(a.evaluated.evaluation, b.evaluated.evaluation);
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_tags_keep_store_keys_from_colliding() {
    // two benchmarks identical in name, source and data spec, differing
    // ONLY in suite: with the suite tag folded into benchmark identity,
    // the second session must not be served the first session's artifact
    let dir = store_dir("suite-tag");
    const SOURCE: &str = r#"
        input int x[4];
        output int y[4];
        void main() {
            int i;
            for (i = 0; i < 4; i = i + 1) { y[i] = x[i] * 3; }
        }
    "#;
    let twin = |suite: Suite| Benchmark {
        name: "twin",
        description: "same bytes, different suite",
        paper_lines: 6,
        data_description: "4 random integers",
        source: SOURCE,
        data: DataSpec::Ints { name: "x", n: 4 },
        suite,
    };

    let user = Explorer::new()
        .with_benchmark(twin(Suite::User))
        .with_store(&dir);
    user.compile("twin").expect("compiles");
    assert_eq!(user.cache_stats().compile.misses, 1);

    // same name + bytes under another suite: a MISS, not a disk hit
    let regress = Explorer::new()
        .with_benchmark(twin(Suite::Regress))
        .with_store(&dir);
    regress.compile("twin").expect("compiles");
    let stats = regress.cache_stats();
    assert_eq!(
        stats.tier("disk").stage(Stage::Compile).hits,
        0,
        "different suites must never share artifacts: {stats}"
    );
    assert_eq!(stats.compile.misses, 1, "{stats}");

    // positive control: the same suite DOES replay from disk
    let replay = Explorer::new()
        .with_benchmark(twin(Suite::User))
        .with_store(&dir);
    replay.compile("twin").expect("compiles");
    let stats = replay.cache_stats();
    assert_eq!(stats.compile.misses, 0, "{stats}");
    assert_eq!(stats.tier("disk").stage(Stage::Compile).hits, 1, "{stats}");
    fs::remove_dir_all(&dir).ok();
}

/// Shape rotation for the fresh-seed sweep: cover the knob space while
/// keeping each program small enough that hundreds of seeds stay inside
/// a CI wall-clock budget.
fn sweep_config(i: u64) -> GenConfig {
    let small = GenConfig::small();
    match i % 4 {
        0 => small,
        1 => GenConfig {
            float_share: 0,
            float_arrays: 0,
            chain_density: 70,
            ..small
        },
        2 => GenConfig {
            loop_depth: 0,
            float_share: 60,
            ..small
        },
        _ => GenConfig {
            loop_depth: 3,
            array_len: 32,
            statements: 20,
            ..small
        },
    }
}

fn sweep_dataset(prog: &GeneratedProgram, seed: u64) -> DataSet {
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
    data
}

#[test]
fn fresh_seed_sweep_is_byte_identical_at_all_levels() {
    // volume knob: tier-1 default keeps local runs quick; the CI
    // gen-differential job sets ASIP_GEN_SWEEP_SEEDS=500
    let seeds: u64 = std::env::var("ASIP_GEN_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    // distinct from the corpus seed space: these are *fresh* programs
    let base = 0xA51F_0000_0000_0000u64;
    for i in 0..seeds {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let prog = generate(seed, &sweep_config(i));
        let program = asip_explorer::frontend::compile(&prog.name, &prog.source)
            .unwrap_or_else(|e| panic!("sweep seed {i}: compile failed: {e}\n{}", prog.source));
        let data = sweep_dataset(&prog, seed);
        assert_differential(&program, &data, &format!("sweep seed {i}"));

        // and under each level's design rewrite
        let profile = ReferenceSimulator::new(&program)
            .run(&data)
            .expect("profiled")
            .profile;
        for &level in &OptLevel::all() {
            let constraints = asip_explorer::synth::DesignConstraints {
                opt_level: level,
                ..Default::default()
            };
            let design = AsipDesigner::new(constraints).design_for(&program, &profile);
            let mut rewritten = program.clone();
            Rewriter::new(design).apply(&mut rewritten);
            assert_differential(
                &rewritten,
                &data,
                &format!("sweep seed {i} rewritten at {level:?}"),
            );
        }
    }
}
