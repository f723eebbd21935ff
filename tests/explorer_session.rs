//! Integration tests for the `Explorer` session facade: artifact
//! cache identity, seeded determinism under parallel exploration, the
//! sweep-caching contract, and the unified error type.

use asip_explorer::prelude::*;
use std::sync::Arc;

#[test]
fn session_reuse_returns_cache_identical_artifacts() {
    let session = Explorer::new();
    let c1 = session.compile("sewha").expect("compiles");
    let c2 = session.compile("sewha").expect("compiles");
    assert!(
        Arc::ptr_eq(&c1.program, &c2.program),
        "repeated compile must return the same artifact, not a copy"
    );
    let p1 = session.profile("sewha").expect("profiles");
    let p2 = session.profile("sewha").expect("profiles");
    assert!(Arc::ptr_eq(&p1.profile, &p2.profile));
    let s1 = session
        .schedule("sewha", OptLevel::Pipelined)
        .expect("schedules");
    let s2 = session
        .schedule("sewha", OptLevel::Pipelined)
        .expect("schedules");
    assert!(Arc::ptr_eq(&s1.graph, &s2.graph));
    let a1 = session
        .analyze("sewha", OptLevel::Pipelined)
        .expect("analyzes");
    let a2 = session
        .analyze("sewha", OptLevel::Pipelined)
        .expect("analyzes");
    assert!(Arc::ptr_eq(&a1.report, &a2.report));

    let stats = session.cache_stats();
    assert_eq!(stats.compile.misses, 1);
    assert_eq!(stats.profile.misses, 1);
    assert_eq!(stats.schedule.misses, 1);
    assert_eq!(stats.analyze.misses, 1);
    assert!(stats.total_hits() >= 4, "every second call must hit");
}

#[test]
fn repeated_sweep_compiles_and_profiles_each_benchmark_once() {
    // the ablation scenario: many detector and optimizer configurations
    // over the same benchmark must share one compile and one profile
    let session = Explorer::new();
    for window in 0..=3 {
        let det = DetectorConfig::default().with_window(window);
        session
            .analyze_with("sewha", OptLevel::Pipelined, OptConfig::default(), det)
            .expect("analyzes");
    }
    for unroll in [1usize, 2, 4] {
        let opt = OptConfig {
            unroll,
            ..OptConfig::default()
        };
        session
            .analyze_with("sewha", OptLevel::Pipelined, opt, DetectorConfig::default())
            .expect("analyzes");
    }
    for budget in [500.0, 6000.0] {
        let constraints = DesignConstraints {
            area_budget: budget,
            ..DesignConstraints::default()
        };
        session
            .evaluate_with("sewha", constraints, DetectorConfig::default())
            .expect("evaluates");
    }
    let stats = session.cache_stats();
    assert_eq!(
        stats.compile.misses, 1,
        "the whole sweep performs exactly one compile"
    );
    assert_eq!(
        stats.profile.misses, 1,
        "the whole sweep performs exactly one profiling simulation"
    );
    assert!(stats.compile.hits > 0);
    assert_eq!(
        stats.schedule.misses, 3,
        "one schedule per distinct optimizer config (default, unroll 1, unroll 4)"
    );
}

#[test]
fn dataset_with_seed_is_deterministic_across_parallel_explore_all() {
    let run = |threads: usize| {
        let session = Explorer::new()
            .with_levels([OptLevel::Pipelined])
            .with_seed(2026)
            .with_threads(threads);
        session.explore_all().expect("built-ins explore")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.benchmark.name, b.benchmark.name, "registry order kept");
        assert_eq!(
            a.benchmark.dataset_with_seed(2026),
            b.benchmark.dataset_with_seed(2026),
            "{}: seeded data generation is deterministic",
            a.benchmark.name
        );
        assert_eq!(
            a.profiled.profile, b.profiled.profile,
            "{}: profiles agree across thread counts",
            a.benchmark.name
        );
        assert_eq!(
            a.report_at(OptLevel::Pipelined).expect("configured level"),
            b.report_at(OptLevel::Pipelined).expect("configured level"),
            "{}: reports agree across thread counts",
            a.benchmark.name
        );
        assert_eq!(a.speedup(), b.speedup());
    }
}

#[test]
fn explorer_error_converts_from_each_stage_error() {
    // unknown benchmark
    let session = Explorer::new();
    let err = session.explore("not-a-benchmark").unwrap_err();
    assert!(matches!(err, ExplorerError::UnknownBenchmark { .. }));
    assert!(err.to_string().contains("not-a-benchmark"));

    // front-end error, via the From<FrontendError> conversion
    let broken = Benchmark {
        name: "broken",
        description: "does not parse",
        suite: Suite::User,
        paper_lines: 1,
        data_description: "none",
        source: "void main() { $ }",
        data: DataSpec::Ints { name: "x", n: 1 },
    };
    let session = Explorer::new().with_benchmark(broken);
    let err = session.compile("broken").unwrap_err();
    assert!(matches!(err, ExplorerError::Frontend(_)));
    let source = std::error::Error::source(&err).expect("carries the stage error");
    assert!(source.to_string().contains("line"));

    // simulator error, via From<SimError>: the program wants `x` but
    // the data spec binds `y`
    let unbound = Benchmark {
        name: "unbound",
        description: "input array never bound",
        suite: Suite::User,
        paper_lines: 1,
        data_description: "wrong binding",
        source: r#"
            input int x[4];
            output int y[4];
            void main() {
                int i;
                for (i = 0; i < 4; i = i + 1) { y[i] = x[i] + 1; }
            }
        "#,
        data: DataSpec::Ints { name: "z", n: 4 },
    };
    let session = Explorer::new().with_benchmark(unbound);
    assert!(session.compile("unbound").is_ok(), "compiles fine");
    let err = session.profile("unbound").unwrap_err();
    assert!(matches!(err, ExplorerError::Sim(_)), "got: {err:?}");

    // the IR conversion exists too (exercised directly; the built-in
    // pipeline validates before the session ever sees the program)
    let ir_err: ExplorerError = asip_explorer::ir::IrError::EmptyProgram.into();
    assert!(matches!(ir_err, ExplorerError::Ir(_)));
}

#[test]
fn with_benchmark_replaces_name_collisions_and_invalidates_caches() {
    // a user kernel reusing a built-in name must win the lookup, and
    // artifacts cached before the registry change must not survive it
    let session = Explorer::new();
    let builtin = session.compile("fir").expect("compiles");
    let replacement = Benchmark {
        name: "fir",
        description: "user kernel shadowing the built-in",
        suite: Suite::User,
        paper_lines: 6,
        data_description: "4 random integers",
        source: r#"
            input int x[4];
            output int y[4];
            void main() {
                int i;
                for (i = 0; i < 4; i = i + 1) { y[i] = x[i] * 2; }
            }
        "#,
        data: DataSpec::Ints { name: "x", n: 4 },
    };
    let session = session.with_benchmark(replacement);
    assert_eq!(
        session
            .registry()
            .iter()
            .filter(|b| b.name == "fir")
            .count(),
        1,
        "replacement, not a shadowed duplicate"
    );
    let compiled = session.compile("fir").expect("compiles");
    assert!(
        compiled.program.inst_count() < builtin.program.inst_count(),
        "the session must serve the replacement, not the stale cache"
    );
    assert_eq!(compiled.benchmark.paper_lines, 6);
}

#[test]
fn reset_drops_artifacts_but_keeps_configuration() {
    let session = Explorer::new().with_levels([OptLevel::None]).with_seed(77);
    let before = session.compile("bspline").expect("compiles");
    session.reset();
    assert_eq!(session.cache_stats().total_misses(), 0, "counters cleared");
    let after = session.compile("bspline").expect("compiles");
    assert!(
        !Arc::ptr_eq(&before.program, &after.program),
        "reset dropped the cached artifact"
    );
    assert_eq!(before.program, after.program, "recompute is equal");
    assert_eq!(session.seed(), 77, "permanent configuration survives");
    assert_eq!(session.levels(), &[OptLevel::None]);
}

#[test]
fn exploration_exposes_typed_stage_artifacts() {
    let session = Explorer::new().with_levels([OptLevel::None, OptLevel::Pipelined]);
    let exploration = session.explore("sewha").expect("explores");
    assert_eq!(exploration.benchmark.name, "sewha");
    assert_eq!(exploration.levels.len(), 2);
    assert!(exploration.graph_at(OptLevel::Pipelined).is_some());
    assert!(exploration.report_at(OptLevel::Pipelined).is_some());
    assert!(
        exploration.report_at(OptLevel::PipelinedRenamed).is_none(),
        "unconfigured levels are absent, not silently computed"
    );
    assert!(exploration.speedup() >= 1.0);
    // the unified artifact enum tags each stage
    let art = asip_explorer::Artifact::Compiled(exploration.compiled.clone());
    assert_eq!(art.stage(), Stage::Compile);
    assert_eq!(art.benchmark().expect("per-benchmark stage").name, "sewha");
    // suite artifacts span many benchmarks: no single owner
    let suite = session.design_suite().expect("designs the suite");
    let art = asip_explorer::Artifact::DesignedSuite(suite);
    assert_eq!(art.stage(), Stage::DesignSuite);
    assert!(art.benchmark().is_none());
}

#[test]
fn design_reuses_the_cached_analyze_schedule() {
    // the headline fix: after an analyze at the feedback level, the
    // design and evaluate stages must perform ZERO optimizer runs —
    // selection reads the session's cached schedule, so design feedback
    // is byte-identical to what the analyze stage reported
    let session = Explorer::new();
    let level = session.constraints().opt_level;
    session.analyze("sewha", level).expect("analyzes");
    let schedule_runs = session.cache_stats().schedule.misses;
    let designed = session.design("sewha").expect("designs");
    assert!(!designed.design.is_empty());
    session.evaluate("sewha").expect("evaluates");
    assert_eq!(
        session.cache_stats().schedule.misses,
        schedule_runs,
        "design/evaluate must not add schedule-stage misses"
    );
}

#[test]
fn design_respects_the_session_opt_config() {
    // regression for the headline bug: the design stage used to re-run
    // the optimizer with a DEFAULT OptConfig, so two sessions differing
    // only in optimizer knobs produced the same design; and the design
    // cache key omitted the config, so a session whose config changed
    // mid-flight served stale cross-config hits
    let sensitive = OptConfig {
        unroll: 1,
        width: 1,
        hoist_passes: 0,
        if_convert_max_ops: 0,
        ..OptConfig::default()
    };
    let tuned = Explorer::new();
    let detuned = Explorer::new().with_opt_config(sensitive);
    let d_tuned = tuned.design("fir").expect("designs");
    let d_detuned = detuned.design("fir").expect("designs");
    assert_ne!(
        *d_tuned.design, *d_detuned.design,
        "sessions differing only in OptConfig must see different feedback"
    );

    // same session, config changed through the builder mid-flight: the
    // OptKey in the design/evaluate cache keys must force a recompute
    // rather than serve the other config's entry
    let session = Explorer::new();
    let before = session.design("fir").expect("designs");
    let session = session.with_opt_config(sensitive);
    let after = session.design("fir").expect("designs");
    assert_eq!(
        session.cache_stats().design.misses,
        2,
        "a different OptConfig is a different design cache key"
    );
    assert_eq!(session.cache_stats().design.hits, 0);
    assert!(!std::sync::Arc::ptr_eq(&before.design, &after.design));
    assert_eq!(*d_detuned.design, *after.design, "recompute, not staleness");
}

#[test]
fn concurrent_same_key_requests_single_flight() {
    // two workers racing the same missing key must not both run the
    // stage: one computes, the rest wait and share the artifact, and
    // the miss is counted exactly once
    let session = Explorer::new();
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                session
                    .schedule("dft", OptLevel::Pipelined)
                    .expect("schedules");
            });
        }
    });
    let stats = session.cache_stats();
    assert_eq!(stats.compile.misses, 1, "one compile despite the race");
    assert_eq!(stats.profile.misses, 1, "one profile despite the race");
    assert_eq!(stats.schedule.misses, 1, "one schedule despite the race");
    assert_eq!(
        stats.schedule.hits + stats.schedule.misses,
        8,
        "every racer was served (and counted) exactly once"
    );
}

#[test]
fn evaluated_shares_the_cached_evaluation_arc() {
    // the Evaluation payload rides the same Arc as every other stage
    // artifact — a second evaluate must not deep-clone it
    let session = Explorer::new();
    let e1 = session.evaluate("sewha").expect("evaluates");
    let e2 = session.evaluate("sewha").expect("evaluates");
    assert!(Arc::ptr_eq(&e1.evaluation, &e2.evaluation));
    assert!(Arc::ptr_eq(&e1.design, &e2.design));
}

/// Run-state checkouts of each baseline engine, per member.
fn baseline_checkouts(session: &Explorer, names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|name| {
            let engine = session.engine(name).expect("engine");
            engine.run_state_stats().checkouts
        })
        .collect()
}

#[test]
fn warm_suite_evaluation_runs_no_baseline() {
    // the profile runs captured every baseline output: measuring a new
    // suite design simulates only the rewritten programs
    let session = Explorer::new().with_levels([OptLevel::Pipelined]);
    session.explore_all().expect("explores");
    let names: Vec<&str> = session.registry().iter().map(|b| b.name).collect();
    assert_eq!(names.len(), 12);
    let before = baseline_checkouts(&session, &names);
    let suite = session
        .evaluate_suite_with(&names, DesignConstraints::default(), session.detector())
        .expect("evaluates");
    assert_eq!(suite.evaluations.len(), 12);
    assert_eq!(
        baseline_checkouts(&session, &names),
        before,
        "zero baseline run states checked out"
    );
    // the baseline cycles are the cached profiles' op counts
    for (name, evaluation) in suite.evaluations.iter() {
        let profiled = session.profile(name).expect("cached");
        assert_eq!(evaluation.base_cycles, profiled.profile.total_ops());
    }
}

#[test]
fn store_warm_session_runs_each_baseline_once() {
    // profiles served by the store carry no output image: the first
    // evaluation runs each baseline once, later ones reuse it
    let dir = std::env::temp_dir().join(format!("asip-baselines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names: Vec<&str> = Explorer::new().registry().iter().map(|b| b.name).collect();
    {
        let writer = Explorer::new().with_store(&dir);
        for name in &names {
            writer.profile(name).expect("profiles");
        }
    }
    let session = Explorer::new()
        .with_levels([OptLevel::Pipelined])
        .with_store(&dir);
    for name in &names {
        session.profile(name).expect("profiles");
    }
    let stats = session.cache_stats();
    assert_eq!(stats.profile.disk_hits, names.len() as u64);
    assert!(baseline_checkouts(&session, &names).iter().all(|&n| n == 0));
    let small = DesignConstraints {
        area_budget: 1500.0,
        ..DesignConstraints::default()
    };
    for constraints in [DesignConstraints::default(), small] {
        session
            .evaluate_suite_with(&names, constraints, session.detector())
            .expect("evaluates");
        assert!(
            baseline_checkouts(&session, &names).iter().all(|&n| n == 1),
            "each baseline runs exactly once"
        );
    }
    assert_eq!(session.cache_stats().evaluate_suite.misses, 2);
    let _ = std::fs::remove_dir_all(&dir);
}
