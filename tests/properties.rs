//! Property-based tests over `asip-gen` generated programs: the textual
//! format round-trips, cleanup passes preserve observable behavior, the
//! optimizer conserves dynamic work, both simulator back ends agree, and
//! the detector/designer respect their selection contracts.
//!
//! Until PR 8 these properties ran on a hand-rolled op-recipe builder;
//! they now draw from the same seeded generator as the curated corpus
//! (`asip_benchmarks::generated_corpus`), so there is exactly one
//! program-shape generator in the tree and every property exercises the
//! full lexer→parser→sema→lower front end instead of a synthetic IR
//! builder.

use asip_explorer::gen::{generate, GenConfig, GenTy, GeneratedProgram, OpMix};
use asip_explorer::ir::{parse_program, Program};
use asip_explorer::opt::{OptLevel, Optimizer};
use asip_explorer::sim::{DataGen, DataSet, Engine, ReferenceSimulator, Simulator};
use asip_explorer::synth::rewrite::is_fusable_signature;
use asip_explorer::synth::{AsipDesigner, DesignConstraints, FusableRuns, Rewriter};
use proptest::prelude::*;
use std::sync::Arc;

/// Keep property programs small: the suite compiles and simulates a few
/// hundred of them, so cap the shape well below the corpus presets.
fn gen_config() -> impl Strategy<Value = GenConfig> {
    (
        (1usize..24, 0usize..3, 1usize..3),
        (1usize..3, 0usize..2, 3usize..6),
        (0u8..101, 0u8..101, 0u8..3),
    )
        .prop_map(
            |(
                (statements, loop_depth, loop_count),
                (int_arrays, float_arrays, len_log2),
                (float_share, chain_density, mix_sel),
            )| GenConfig {
                statements,
                loop_depth,
                loop_count,
                int_arrays,
                float_arrays,
                array_len: 1 << len_log2,
                float_share,
                chain_density,
                mix: match mix_sel {
                    0 => OpMix::default(),
                    1 => OpMix::arith_heavy(),
                    _ => OpMix::memory_heavy(),
                },
            },
        )
}

/// Deterministic input data matching a generated program's declared
/// arrays (the corpus shapes: small ints, unit-interval floats).
fn dataset(prog: &GeneratedProgram) -> DataSet {
    let mut gen = DataGen::new(1995);
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

fn compile(prog: &GeneratedProgram) -> Program {
    asip_explorer::frontend::compile(&prog.name, &prog.source)
        .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{}", prog.source))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_programs_compile_validate_and_run(seed in any::<u64>(), config in gen_config()) {
        // the generator's totality contract, over the whole knob space:
        // arbitrary seeds compile through the front end, validate, and
        // run to completion
        let prog = generate(seed, &config);
        let p = compile(&prog);
        prop_assert!(p.validate().is_ok());
        let exec = Simulator::new(&p).run(&dataset(&prog)).expect("runs");
        prop_assert!(exec.profile.total_ops() > 0);
    }

    #[test]
    fn textual_format_round_trips(seed in any::<u64>(), config in gen_config()) {
        let p = compile(&generate(seed, &config));
        let text = p.to_string();
        let q = parse_program(&text).expect("printed programs parse");
        prop_assert_eq!(p, q);
    }

    #[test]
    fn cleanup_preserves_observable_behavior(seed in any::<u64>(), config in gen_config()) {
        let prog = generate(seed, &config);
        let p = compile(&prog);
        let data = dataset(&prog);
        let before = Simulator::new(&p).run(&data).expect("runs");
        let mut q = p.clone();
        asip_explorer::ir::passes::cleanup(&mut q);
        q.validate().expect("cleanup keeps programs valid");
        let after = Simulator::new(&q).run(&data).expect("still runs");
        prop_assert_eq!(before.memory, after.memory);
        prop_assert_eq!(before.result, after.result);
        prop_assert!(q.inst_count() <= p.inst_count(), "cleanup never grows code");
    }

    #[test]
    fn optimizer_invariants_hold_on_generated_programs(seed in any::<u64>(), config in gen_config()) {
        let prog = generate(seed, &config);
        let p = compile(&prog);
        let profile = Simulator::new(&p).run(&dataset(&prog)).expect("runs").profile;
        let g0 = Optimizer::new(OptLevel::None).run(&p, &profile);
        prop_assert!(g0.check_invariants().is_ok());
        let w0 = g0.chainable_weight();

        // pipelining/compaction conserves dynamic work exactly
        let g1 = Optimizer::new(OptLevel::Pipelined).run(&p, &profile);
        prop_assert!(g1.check_invariants().is_ok());
        let w1 = g1.chainable_weight();
        prop_assert!((w0 - w1).abs() <= 1e-6 * w0.max(1.0),
            "chainable weight {} vs {}", w0, w1);

        // renaming inserts boundary copies: real extra work, never less
        let g2 = Optimizer::new(OptLevel::PipelinedRenamed).run(&p, &profile);
        prop_assert!(g2.check_invariants().is_ok());
        prop_assert!(g2.chainable_weight() >= w1 - 1e-6 * w1.max(1.0),
            "renamed weight {} below pipelined {}", g2.chainable_weight(), w1);
    }

    #[test]
    fn simulation_is_deterministic(seed in any::<u64>(), config in gen_config()) {
        let prog = generate(seed, &config);
        let p = compile(&prog);
        let a = Simulator::new(&p).run(&dataset(&prog)).expect("runs");
        let b = Simulator::new(&p).run(&dataset(&prog)).expect("runs");
        prop_assert_eq!(a.profile, b.profile);
        prop_assert_eq!(a.memory, b.memory);
    }

    #[test]
    fn decoded_engine_matches_the_reference_interpreter(seed in any::<u64>(), config in gen_config()) {
        // the differential property behind the engine rewrite: on any
        // generated program, the pre-decoded engine and the retained
        // reference interpreter are byte-identical
        let prog = generate(seed, &config);
        let p = compile(&prog);
        let data = dataset(&prog);
        let reference = ReferenceSimulator::new(&p).run(&data).expect("runs");
        let engine = Engine::new(Arc::new(p)).run(&data).expect("runs");
        prop_assert_eq!(engine.profile, reference.profile);
        prop_assert_eq!(engine.memory, reference.memory);
        prop_assert_eq!(engine.result, reference.result);
    }

    #[test]
    fn pooled_and_fresh_run_states_agree(seed in any::<u64>(), config in gen_config()) {
        // the RunState pooling property: repeated runs through the pool
        // (reused, memcpy-reset banks) are byte-identical to the first
        // run on any generated program, and one state serves them all
        let prog = generate(seed, &config);
        let p = compile(&prog);
        let data = dataset(&prog);
        let engine = Engine::new(Arc::new(p));
        let first = engine.run(&data).expect("first run");
        for _ in 0..3 {
            let pooled = engine.run_profile(&data).expect("pooled run");
            prop_assert_eq!(&pooled.profile, &first.profile);
            prop_assert_eq!(&pooled.result, &first.result);
            let again = engine.run(&data).expect("pooled run");
            prop_assert_eq!(&again.profile, &first.profile);
            prop_assert_eq!(&again.memory, &first.memory);
            prop_assert_eq!(&again.result, &first.result);
        }
        let stats = engine.run_state_stats();
        prop_assert_eq!(stats.creates, 1, "one state serves every run");
        prop_assert_eq!(stats.checkouts, 7);
    }

    #[test]
    fn decoded_engine_step_limits_match_the_reference(seed in any::<u64>(), limit in 0u64..512) {
        // whatever the limit lands on (mid-block included), both
        // interpreters agree on success vs StepLimit and on the payload
        let prog = generate(seed, &GenConfig { array_len: 8, ..GenConfig::small() });
        let p = compile(&prog);
        let data = dataset(&prog);
        let reference = ReferenceSimulator::new(&p).with_step_limit(limit).run(&data);
        let engine = Engine::new(Arc::new(p)).with_step_limit(limit).run(&data);
        match (reference, engine) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.profile, b.profile);
                prop_assert_eq!(a.memory, b.memory);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "diverged at limit {}: {:?} vs {:?}", limit, a, b),
        }
    }

    #[test]
    fn designer_respects_constraints_and_static_matchability(
        seed in any::<u64>(),
        config in gen_config(),
        area_sel in 0u8..4,
        max_extensions in 0usize..5,
        level_sel in 0u8..3,
    ) {
        // the detector/designer contract on arbitrary programs: a design
        // never exceeds its hardware constraints, and every selected
        // extension is fusable and statically present in the code it was
        // selected for (no silicon for chains the rewriter can't fire)
        let prog = generate(seed, &config);
        let p = compile(&prog);
        let data = dataset(&prog);
        let profile = Simulator::new(&p).run(&data).expect("runs").profile;
        let constraints = DesignConstraints {
            area_budget: [0.0, 1500.0, 6000.0, 20_000.0][area_sel as usize],
            max_extensions,
            opt_level: OptLevel::all()[level_sel as usize],
            ..DesignConstraints::default()
        };
        let design = AsipDesigner::new(constraints).design_for(&p, &profile);
        prop_assert!(design.extensions.len() <= constraints.max_extensions,
            "{} extensions exceed slot budget {}", design.extensions.len(), constraints.max_extensions);
        prop_assert!(design.extension_area <= constraints.area_budget + 1e-9,
            "area {} exceeds budget {}", design.extension_area, constraints.area_budget);
        let runs = FusableRuns::new(&p);
        for ext in &design.extensions {
            prop_assert!(is_fusable_signature(&ext.signature),
                "selected unfusable signature {:?}", ext.signature);
            prop_assert!(runs.contains(&ext.signature),
                "selected signature {:?} never statically matches", ext.signature);
        }

        // and applying the design preserves observable behavior exactly
        let original = ReferenceSimulator::new(&p).run(&data).expect("runs");
        let mut rewritten = p.clone();
        let stats = Rewriter::new(design.clone()).apply(&mut rewritten);
        prop_assert!(rewritten.validate().is_ok());
        prop_assert!(design.is_empty() || stats.fused_chains > 0,
            "a non-empty design applied to its own program must fire at least once");
        let after = ReferenceSimulator::new(&rewritten).run(&data).expect("runs");
        prop_assert_eq!(original.memory, after.memory);
        prop_assert_eq!(original.result, after.result);
    }
}
