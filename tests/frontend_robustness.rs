//! Robustness properties of the front end: arbitrary input never
//! panics, and structurally valid random programs always compile to
//! valid IR that simulates deterministically.

use proptest::prelude::*;

mod common;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer+parser+sema pipeline returns Ok or Err — never panics —
    /// on arbitrary byte soup.
    #[test]
    fn compiler_never_panics_on_arbitrary_input(src in ".{0,200}") {
        let _ = asip_explorer::frontend::compile("fuzz", &src);
    }

    /// Same, biased toward token-shaped noise so the parser gets deeper.
    #[test]
    fn compiler_never_panics_on_token_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("int".to_string()),
                Just("float".to_string()),
                Just("void".to_string()),
                Just("if".to_string()),
                Just("for".to_string()),
                Just("while".to_string()),
                Just("return".to_string()),
                Just("main".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("[".to_string()),
                Just("]".to_string()),
                Just(";".to_string()),
                Just("=".to_string()),
                Just("+".to_string()),
                Just("*".to_string()),
                Just("x".to_string()),
                Just("42".to_string()),
                Just("1.5".to_string()),
            ],
            0..60
        )
    ) {
        let src = words.join(" ");
        let _ = asip_explorer::frontend::compile("fuzz", &src);
    }
}

/// Generated well-formed kernels: vary loop bounds, constants and the
/// expression mix, and check the whole pipeline end to end.
#[derive(Debug, Clone)]
struct KernelShape {
    n: usize,
    scale: i64,
    offset: i64,
    use_float: bool,
    taps: usize,
}

fn kernel_shape() -> impl Strategy<Value = KernelShape> {
    (2usize..32, 1i64..9, 0i64..5, any::<bool>(), 1usize..4).prop_map(
        |(n, scale, offset, use_float, taps)| KernelShape {
            n,
            scale,
            offset,
            use_float,
            taps,
        },
    )
}

fn render(shape: &KernelShape) -> String {
    let KernelShape {
        n,
        scale,
        offset,
        use_float,
        taps,
    } = shape;
    if *use_float {
        let terms: Vec<String> = (0..*taps)
            .map(|t| format!("x[(i + {t}) % {n}] * {scale}.5"))
            .collect();
        format!(
            r#"
            input float x[{n}];
            output float y[{n}];
            void main() {{
                int i;
                for (i = 0; i < {n}; i = i + 1) {{
                    y[i] = {} + {offset}.0;
                }}
            }}
            "#,
            terms.join(" + ")
        )
    } else {
        let terms: Vec<String> = (0..*taps)
            .map(|t| format!("x[(i + {t}) % {n}] * {scale}"))
            .collect();
        format!(
            r#"
            input int x[{n}];
            output int y[{n}];
            void main() {{
                int i;
                for (i = 0; i < {n}; i = i + 1) {{
                    y[i] = {} + {offset};
                }}
            }}
            "#,
            terms.join(" + ")
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_kernels_run_the_full_pipeline(shape in kernel_shape()) {
        use asip_explorer::prelude::*;
        use asip_explorer::sim::{DataGen, DataSet, Simulator};

        let src = render(&shape);
        let program = asip_explorer::frontend::compile("gen", &src).expect("well-formed source");
        program.validate().expect("valid IR");

        let mut data = DataSet::new();
        let mut gen = DataGen::new(11);
        if shape.use_float {
            data.bind_floats("x", gen.floats(shape.n, -1.0, 1.0));
        } else {
            data.bind_ints("x", gen.ints(shape.n, -100, 100));
        }
        let exec = Simulator::new(&program).run(&data).expect("simulates");
        prop_assert!(exec.profile.total_ops() > 0);

        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &exec.profile);
            graph.check_invariants().expect("graph invariants");
            let report = SequenceDetector::new(DetectorConfig::default()).analyze(&graph);
            for (_, stats) in report.entries() {
                prop_assert!(stats.frequency <= 100.0 + 1e-9);
            }
        }
    }
}

/// Source that nests `depth` levels deep in one of four shapes: nested
/// parentheses, repeated unary minus, nested `if`s, and a flat operator
/// chain (parsed by a loop, but a left-deep tree for every later walk).
fn deep_source(shape: &str, depth: usize) -> String {
    let body = match shape {
        "parens" => format!("x = {}1{};", "(".repeat(depth), ")".repeat(depth)),
        "minus" => format!("x = {}1;", "- ".repeat(depth)),
        "if" => format!("{}x = 1;", "if (x) ".repeat(depth)),
        "chain" => format!("x = 1{};", "+1".repeat(depth)),
        other => unreachable!("unknown shape {other}"),
    };
    format!("output int y[1]; void main() {{ int x = 0; {body} y[0] = x; }}")
}

/// No nesting depth aborts the process: on a 2 MiB thread stack every
/// shape compiles below the limit and returns a typed
/// `RecursionLimitExceeded` above it, from 10^2 up to 10^6 levels, and
/// the limit bounds the height of the tree, not the parser's depth. The
/// source is lexed only as far as the parser reads, so rejecting 10^6
/// levels holds under 1 MiB of heap at any time.
#[test]
fn deep_nesting_returns_a_typed_error_never_a_stack_overflow() {
    use asip_explorer::frontend::{compile, parser::MAX_NESTING, FrontendError};
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for shape in ["parens", "minus", "if", "chain"] {
                for depth in [100, 1_000, 10_000, 100_000, 1_000_000] {
                    let src = deep_source(shape, depth);
                    let (result, usage) = common::measure(|| compile("deep", &src));
                    if depth == 1_000_000 {
                        assert!(
                            usage.peak_bytes < 1 << 20,
                            "{shape} x{depth} peaked at {} bytes",
                            usage.peak_bytes
                        );
                    }
                    match result {
                        Ok(_) => assert!(depth <= MAX_NESTING, "{shape} x{depth} compiled"),
                        Err(FrontendError::RecursionLimitExceeded { limit, .. }) => {
                            assert_eq!(limit, MAX_NESTING);
                            assert!(depth > MAX_NESTING, "{shape} x{depth} rejected");
                        }
                        Err(e) => panic!("{shape} x{depth}: untyped failure {e}"),
                    }
                }
            }
            // the limit is on the tree: a chain exactly MAX_NESTING
            // operators long compiles, one more is rejected
            compile("widest", &deep_source("chain", MAX_NESTING)).expect("compiles at the limit");
            assert!(matches!(
                compile("too-wide", &deep_source("chain", MAX_NESTING + 1)),
                Err(FrontendError::RecursionLimitExceeded { .. })
            ));
            // a staircase: parenthesis level j closes a chain of
            // MAX_NESTING - j operators, so no single shape nears the
            // limit but the left-deep tree is ~32 000 nodes tall
            let mut stair = String::from("1");
            for level in (1..250).rev() {
                stair = format!("({stair}{})", "+1".repeat(MAX_NESTING - level));
            }
            let src = format!("output int y[1]; void main() {{ int x = {stair}; y[0] = x; }}");
            assert!(matches!(
                compile("staircase", &src),
                Err(FrontendError::RecursionLimitExceeded { .. })
            ));
        })
        .expect("spawns");
    worker.join().expect("no depth aborts or panics");
}

/// `n` functions, each returning its predecessor's call under `prefix`
/// (`int f3(int a) { return <prefix>f2(a); }`), and a `main` that
/// calls the last.
fn call_chain(n: usize, prefix: &str) -> String {
    let mut src = String::from("output int y[1]; int f0(int a) { return a + 1; }\n");
    for i in 1..n {
        src += &format!("int f{i}(int a) {{ return {prefix}f{}(a); }}\n", i - 1);
    }
    src + &format!("void main() {{ y[0] = f{}(1); }}\n", n - 1)
}

/// `levels` functions, each calling its predecessor twice, so inlining
/// `main` builds 2^levels bodies.
fn doubling_chain(levels: usize) -> String {
    let mut src = String::from("output int y[1]; int f0(int a) { return a + 1; }\n");
    for i in 1..levels {
        let p = i - 1;
        src += &format!("int f{i}(int a) {{ return f{p}(a) + f{p}(a); }}\n");
    }
    src + &format!("void main() {{ y[0] = f{}(1); }}\n", levels - 1)
}

/// No call graph aborts or hangs `compile`: on a 2 MiB thread stack,
/// chains of 10^2 to 10^5 functions, chains that double the inlined
/// work per level, and chains whose every call sits just under the
/// nesting limit each return `Ok` or a typed error within a second.
/// What lowering builds is bounded by the height of the tree with every
/// call inlined (`MAX_NESTING`) and by the inlined call count
/// (`MAX_INLINED_CALLS`), not by the call depth.
#[test]
fn call_graphs_return_a_typed_error_never_an_abort_or_a_hang() {
    use asip_explorer::frontend::sema::MAX_INLINED_CALLS;
    use asip_explorer::frontend::{compile, parser::MAX_NESTING, FrontendError};
    use std::time::{Duration, Instant};
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let under_the_limit = "- ".repeat(MAX_NESTING - 2);
            // each case, and whether it compiles or which bound rejects it
            let mut cases = Vec::new();
            // a chain of n functions inlines n + 1 levels high into main
            for n in [100, MAX_NESTING - 1, MAX_NESTING, 1_000, 10_000, 100_000] {
                let fits = n < MAX_NESTING;
                cases.push((format!("chain x{n}"), call_chain(n, ""), fits, "nesting"));
            }
            for levels in [10, 20, 64] {
                let src = doubling_chain(levels);
                cases.push((format!("doubling x{levels}"), src, false, "inlining"));
            }
            for n in [2, 100] {
                let src = call_chain(n, &under_the_limit);
                cases.push((format!("nested chain x{n}"), src, false, "nesting"));
            }
            for (label, src, fits, bound) in cases {
                let start = Instant::now();
                let result = compile("calls", &src);
                let took = start.elapsed();
                assert!(took < Duration::from_secs(1), "{label} took {took:?}");
                match (result, bound) {
                    (Ok(_), _) if fits => {}
                    (Err(FrontendError::RecursionLimitExceeded { limit, .. }), "nesting") => {
                        assert!(!fits && limit == MAX_NESTING, "{label}")
                    }
                    (Err(FrontendError::InliningLimitExceeded { limit, .. }), "inlining") => {
                        assert!(!fits && limit == MAX_INLINED_CALLS, "{label}")
                    }
                    (other, _) => panic!("{label}: unexpected {other:?}"),
                }
            }
        })
        .expect("spawns");
    worker.join().expect("no call graph aborts or panics");
}

/// The recorded digest of [`compiled_programs_match_the_recorded_digest`].
const COMPILE_GOLDEN: u64 = 0x6225_f039_65e6_15a0;

/// What `compile` emits is pinned: the codec bytes of every
/// `full_registry()` program, of 200 generated programs over four
/// generator configs, and of doubling call chains of 1 to 7 levels fold
/// into one digest. A change to the front end or the cleanup passes
/// that moves one instruction, register or block shows up here.
#[test]
fn compiled_programs_match_the_recorded_digest() {
    use asip_explorer::artifact::ArtifactCodec;
    use asip_explorer::benchmarks::full_registry;
    use asip_explorer::gen::{generate, GenConfig};
    use asip_explorer::store::StableHasher;
    let mut h = StableHasher::new();
    let mut fold = |program: &asip_explorer::ir::Program| {
        for b in program.to_bytes() {
            h.write_u64(u64::from(b));
        }
    };
    for bench in full_registry().iter() {
        fold(&bench.compile().expect("built-ins compile"));
    }
    let small = GenConfig::small();
    let configs = [
        GenConfig::default(),
        small,
        GenConfig {
            loop_depth: 0,
            float_share: 60,
            ..small
        },
        GenConfig {
            loop_depth: 3,
            array_len: 32,
            statements: 20,
            ..small
        },
    ];
    for seed in 0..200u64 {
        let prog = generate(seed, &configs[seed as usize % configs.len()]);
        let program = asip_explorer::frontend::compile(&prog.name, &prog.source)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        fold(&program);
    }
    for levels in 1..=7 {
        let program = asip_explorer::frontend::compile("doubling", &doubling_chain(levels))
            .expect("compiles");
        fold(&program);
    }
    assert_eq!(
        h.finish(),
        COMPILE_GOLDEN,
        "compiled programs changed: got {:#018x}",
        h.finish()
    );
}

/// [`doubling_chain`] with `statements` updates of one variable in
/// `main` before the call: one block of about two instructions per
/// statement, plus the inlined copies.
fn long_body(statements: usize, levels: usize) -> String {
    let call = format!("y[0] = f{}(", levels - 1);
    let body = format!(
        "int a = 0;\n{}{call}a",
        "a = a * 3 + 1;\n".repeat(statements)
    );
    doubling_chain(levels).replace(&format!("{call}1"), &body)
}

/// Cleanup stays linear in the size of the program: 40 000 statements
/// and 127 inlined calls (about 80 000 instructions) compile within a
/// second in release builds.
#[test]
fn a_long_body_compiles_in_linear_time() {
    use std::time::{Duration, Instant};
    let src = long_body(40_000, 7);
    let start = Instant::now();
    let program = asip_explorer::frontend::compile("long", &src).expect("compiles");
    let took = start.elapsed();
    assert!(
        program.inst_count() > 80_000,
        "{} insts",
        program.inst_count()
    );
    let bound = if cfg!(debug_assertions) { 5 } else { 1 };
    assert!(took < Duration::from_secs(bound), "took {took:?}");
}
