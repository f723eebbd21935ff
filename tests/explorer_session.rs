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
    // OptConfig in the design/evaluate recipe keys must force a recompute
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
    let disk = stats.tier("disk").stage(Stage::Profile);
    assert_eq!(disk.hits, names.len() as u64);
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

#[test]
fn warm_suite_sweeps_share_coverage_studies_and_measurements() {
    // a coverage study depends only on (member, level) and a
    // measurement only on (member, design): a warm session that reaches
    // either again through another config runs neither again
    let session = Explorer::new();
    let names: Vec<&str> = session.registry().iter().map(|b| b.name).collect();
    let members = names.len() as u64;
    let detector = session.detector();
    let first = session.evaluate_suite().expect("evaluates");
    let warm = session.cache_stats();
    assert_eq!(warm.coverage_studies, members, "one study per member");
    assert_eq!(warm.measurements, members, "one measurement per member");

    // a new area budget is a new suite design, from the memoized studies
    let tighter = DesignConstraints {
        area_budget: 1500.0,
        ..DesignConstraints::default()
    };
    session
        .design_suite_with(&names, tighter, detector)
        .expect("designs");
    let stats = session.cache_stats();
    assert_eq!(stats.design_suite.misses, warm.design_suite.misses + 1);
    assert_eq!(
        stats.coverage_studies, warm.coverage_studies,
        "no new study"
    );
    assert_eq!(stats.coverage_reused, warm.coverage_reused + members);

    // another config whose suite design is the default's
    let twin = [40.5, 41.0]
        .into_iter()
        .map(|clock_ns| DesignConstraints {
            clock_ns,
            ..DesignConstraints::default()
        })
        .chain((1..=8).map(|step| DesignConstraints {
            area_budget: 6000.0 + 125.0 * f64::from(step),
            ..DesignConstraints::default()
        }))
        .find(|&c| {
            let designed = session
                .design_suite_with(&names, c, detector)
                .expect("designs");
            *designed.design == *first.design
        })
        .expect("a nearby config selects the same design");
    let before = session.cache_stats();
    let again = session
        .evaluate_suite_with(&names, twin, detector)
        .expect("evaluates");
    let after = session.cache_stats();
    assert_eq!(
        after.evaluate_suite.misses,
        before.evaluate_suite.misses + 1,
        "a new evaluate-suite entry"
    );
    assert_eq!(
        after.run_state.checkouts, before.run_state.checkouts,
        "zero rewritten simulations"
    );
    assert_eq!(after.measurements, before.measurements);
    assert_eq!(
        after.measurements_reused,
        before.measurements_reused + members
    );
    assert_eq!(*again.evaluations, *first.evaluations);
    let shown = after.to_string();
    assert!(
        shown.contains("coverage: ") && shown.contains("measure: "),
        "{shown}"
    );

    session.reset();
    let zeroed = session.cache_stats();
    assert_eq!(
        (
            zeroed.coverage_studies,
            zeroed.coverage_reused,
            zeroed.measurements,
            zeroed.measurements_reused
        ),
        (0, 0, 0, 0),
        "reset zeroes the derived-work counters"
    );
}

#[test]
fn reseeded_session_measures_a_reached_design_again() {
    // a seed change keeps the session's caches, and with them the
    // rewritten engine of every (benchmark, design) pair; the
    // measurement — cycles, and the output check on the seeded data —
    // must not survive it. `fir` selects the same design under both
    // seeds, so the re-seeded evaluation reaches the same entry.
    let (first, second) = (1995, 7);
    let fresh = |seed: u64| {
        Explorer::new()
            .with_seed(seed)
            .evaluate("fir")
            .expect("evaluates")
    };
    let session = Explorer::new().with_seed(first);
    let base = session.evaluate("fir").expect("evaluates");
    let session = session.with_seed(second);
    let before = session.cache_stats();
    let reseeded = session.evaluate("fir").expect("evaluates");
    let after = session.cache_stats();
    assert_eq!(*reseeded.design, *base.design, "one shared design entry");
    assert_eq!(*reseeded.evaluation, *fresh(second).evaluation);
    assert_eq!(
        (after.measurements, after.measurements_reused),
        (before.measurements + 1, before.measurements_reused),
        "the new seed's data is simulated, not served from the old seed"
    );

    // back at the first seed, the evaluate stage still holds its entry
    let session = session.with_seed(first);
    let back = session.evaluate("fir").expect("evaluates");
    assert_eq!(*back.evaluation, *base.evaluation);
    assert_eq!(*back.evaluation, *fresh(first).evaluation);
}

/// Every recipe input of one request, so a variation changes exactly
/// one of them.
#[derive(Debug, Clone, Copy)]
struct Request {
    bench: &'static str,
    seed: u64,
    level: OptLevel,
    opt: OptConfig,
    det: DetectorConfig,
    cons: DesignConstraints,
    members: &'static [&'static str],
    grid: [DesignConstraints; 2],
}

/// What a request is checked against: a stage's typed cache, or one of
/// the session's derived memos.
#[derive(Debug, Clone, Copy)]
enum Target {
    Stage(Stage),
    /// The coverage-study memo, reached through a design-stage miss.
    Coverage,
    /// The rewritten-design measurement memo, reached through an
    /// evaluate-stage miss.
    Measurement,
}

impl Target {
    /// `(misses, hits)` of the target's own counters.
    fn counters(self, stats: &CacheStats) -> (u64, u64) {
        match self {
            Target::Stage(stage) => {
                let s = stats.stage(stage);
                (s.misses, s.hits)
            }
            Target::Coverage => (stats.coverage_studies, stats.coverage_reused),
            Target::Measurement => (stats.measurements, stats.measurements_reused),
        }
    }

    /// The target's benchmark and the one its benchmark variation asks
    /// for instead. The memos get programs of their own: the stage
    /// targets' requests already reached fir's and sewha's studies and
    /// designs.
    fn benchmarks(self) -> (&'static str, &'static str) {
        match self {
            Target::Stage(_) => ("fir", "sewha"),
            Target::Coverage => ("feowf", "iir"),
            Target::Measurement => ("feowf", "edge"),
        }
    }
}

/// Issue `r` for `target` on `session` with `r`'s seed and optimizer
/// config as the session's own (both are recipe inputs of every stage
/// past compile). Memo requests use a constraint set no earlier request
/// used, so the stage above the memo misses and the memo is consulted.
fn ask(session: Explorer, target: Target, r: &Request, fresh: &mut f64) -> Explorer {
    let s = session.with_seed(r.seed).with_opt_config(r.opt);
    let mut unique = |cons: DesignConstraints| {
        *fresh += 1e-6;
        DesignConstraints {
            area_budget: cons.area_budget + *fresh,
            ..cons
        }
    };
    let asked = match target {
        Target::Stage(Stage::Compile) => s.compile(r.bench).map(drop),
        Target::Stage(Stage::Profile) => s.profile(r.bench).map(drop),
        Target::Stage(Stage::Schedule) => s.schedule_with(r.bench, r.level, r.opt).map(drop),
        Target::Stage(Stage::Analyze) => s.analyze_with(r.bench, r.level, r.opt, r.det).map(drop),
        Target::Stage(Stage::Design) => s.design_with(r.bench, r.cons, r.det).map(drop),
        Target::Stage(Stage::Evaluate) => s.evaluate_with(r.bench, r.cons, r.det).map(drop),
        Target::Stage(Stage::DesignSuite) => {
            s.design_suite_with(r.members, r.cons, r.det).map(drop)
        }
        Target::Stage(Stage::EvaluateSuite) => {
            s.evaluate_suite_with(r.members, r.cons, r.det).map(drop)
        }
        Target::Stage(Stage::DesignSpace) => {
            s.design_space_with(r.members, &r.grid, r.det).map(drop)
        }
        Target::Coverage => {
            let cons = unique(DesignConstraints {
                opt_level: r.level,
                ..r.cons
            });
            s.design_with(r.bench, cons, r.det).map(drop)
        }
        Target::Measurement => s.evaluate_with(r.bench, unique(r.cons), r.det).map(drop),
    };
    asked.unwrap_or_else(|e| panic!("{target:?} {r:?}: {e}"));
    s
}

/// Another chainable-class policy: the default one without loads.
fn no_loads(class: OpClass) -> bool {
    class != OpClass::Load && asip_explorer::chains::default_chainable(class)
}

/// The default chainable-class policy's truth table, written as a
/// different function.
fn default_by_exclusion(class: OpClass) -> bool {
    !matches!(
        class,
        OpClass::Move | OpClass::Convert | OpClass::Math | OpClass::Branch | OpClass::Chained
    )
}

/// The variations of `base` a target's recipe covers, one input each.
fn variations(target: Target, base: Request) -> Vec<(&'static str, Request)> {
    let mut out = Vec::new();
    let mut vary = |label, f: &dyn Fn(&mut Request)| {
        let mut r = base;
        f(&mut r);
        out.push((label, r));
    };
    let stage = match target {
        Target::Stage(stage) => Some(stage),
        Target::Coverage | Target::Measurement => None,
    };
    let per_program = !matches!(
        stage,
        Some(Stage::DesignSuite | Stage::EvaluateSuite | Stage::DesignSpace)
    );
    if per_program {
        vary("benchmark", &|r| r.bench = target.benchmarks().1);
    } else {
        vary("member set", &|r| r.members = &["fir", "sewha", "bspline"]);
    }
    if matches!(target, Target::Stage(Stage::Compile)) {
        return out;
    }
    if !matches!(target, Target::Measurement) {
        // a measurement entry keeps the last seed's run (see
        // `reseeded_session_measures_a_reached_design_again`)
        vary("seed", &|r| r.seed = 7);
    }
    if matches!(target, Target::Stage(Stage::Profile)) {
        return out;
    }
    if matches!(target, Target::Measurement) {
        // feowf's design under this budget is empty, not its one
        // multiply-add
        vary("design", &|r| r.cons.area_budget = 1000.0);
        return out;
    }
    let levelled = matches!(
        target,
        Target::Coverage | Target::Stage(Stage::Schedule | Stage::Analyze)
    );
    if levelled {
        vary("level", &|r| r.level = OptLevel::PipelinedRenamed);
    }
    vary("opt.unroll", &|r| r.opt.unroll = 3);
    vary("opt.merge_blocks", &|r| r.opt.merge_blocks = false);
    vary("opt.width", &|r| r.opt.width = 2);
    vary("opt.hoist_passes", &|r| r.opt.hoist_passes = 1);
    vary("opt.if_convert_max_ops", &|r| r.opt.if_convert_max_ops = 3);
    if matches!(target, Target::Stage(Stage::Schedule)) {
        return out;
    }
    vary("det.min_len", &|r| r.det.min_len = 3);
    vary("det.max_len", &|r| r.det.max_len = 4);
    vary("det.window", &|r| r.det.window = 0);
    vary("det.prune_floor", &|r| r.det.prune_floor = 1.0);
    vary("det.chainable", &|r| r.det.chainable = no_loads);
    if levelled {
        return out;
    }
    if matches!(stage, Some(Stage::DesignSpace)) {
        vary("grid", &|r| r.grid[1].clock_ns = 30.0);
        return out;
    }
    vary("cons.area_budget", &|r| r.cons.area_budget = 3000.0);
    vary("cons.clock_ns", &|r| r.cons.clock_ns = 30.0);
    vary("cons.max_extensions", &|r| r.cons.max_extensions = 2);
    vary("cons.opt_level", &|r| {
        r.cons.opt_level = OptLevel::PipelinedRenamed
    });
    out
}

/// The recipe key is the only identity of an artifact in memory: on one
/// storeless session, changing any one recipe input of any stage adds
/// exactly one miss to that stage's cache (or to the coverage or
/// measurement memo), and the original request still hits afterwards.
#[test]
fn every_recipe_input_separates_memory_entries() {
    let common = Request {
        bench: "fir",
        seed: 1995,
        level: OptLevel::Pipelined,
        opt: OptConfig::default(),
        det: DetectorConfig::default(),
        cons: DesignConstraints::default(),
        members: &["fir", "sewha"],
        grid: [
            DesignConstraints::default(),
            DesignConstraints {
                area_budget: 3000.0,
                ..DesignConstraints::default()
            },
        ],
    };
    let targets = Stage::all()
        .map(Target::Stage)
        .into_iter()
        .chain([Target::Coverage, Target::Measurement]);
    let mut session = Explorer::new().with_threads(1);
    let mut fresh = 0.0;
    let mut checked = 0;
    for target in targets {
        let base = Request {
            bench: target.benchmarks().0,
            ..common
        };
        session = ask(session, target, &base, &mut fresh);
        for (label, varied) in variations(target, base) {
            let (misses, _) = target.counters(&session.cache_stats());
            session = ask(session, target, &varied, &mut fresh);
            let (after, hits) = target.counters(&session.cache_stats());
            assert_eq!(after, misses + 1, "{target:?}: varying {label} misses once");
            session = ask(session, target, &base, &mut fresh);
            assert_eq!(
                target.counters(&session.cache_stats()),
                (after, hits + 1),
                "{target:?}: the original still hits after varying {label}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 116, "every variation was checked");
}

/// The chainable policy is identified by its truth table over every
/// `OpClass`, in memory as in the tiers: a different function with the
/// default's truth table reads the default's entries.
#[test]
fn a_chainable_policy_with_the_same_truth_table_is_a_typed_hit() {
    let default = DetectorConfig::default();
    let same_policy: fn(OpClass) -> bool = default_by_exclusion;
    assert!(
        !std::ptr::fn_addr_eq(default.chainable, same_policy),
        "two distinct functions"
    );
    for &class in OpClass::all() {
        assert_eq!((default.chainable)(class), default_by_exclusion(class));
    }
    let same = DetectorConfig {
        chainable: same_policy,
        ..default
    };
    let session = Explorer::new().with_threads(1);
    let cons = DesignConstraints::default();
    let level = OptLevel::Pipelined;
    let a = session
        .analyze_with("fir", level, OptConfig::default(), default)
        .expect("analyzes");
    let d = session
        .evaluate_with("fir", cons, default)
        .expect("evaluates");
    let before = session.cache_stats();
    let b = session
        .analyze_with("fir", level, OptConfig::default(), same)
        .expect("analyzes");
    let e = session.evaluate_with("fir", cons, same).expect("evaluates");
    let after = session.cache_stats();
    assert!(Arc::ptr_eq(&a.report, &b.report));
    assert!(Arc::ptr_eq(&d.evaluation, &e.evaluation));
    assert_eq!(after.total_misses(), before.total_misses(), "no new misses");
    assert_eq!(after.analyze.hits, before.analyze.hits + 1);
    assert_eq!(after.evaluate.hits, before.evaluate.hits + 1);
}
