//! Oracle for the rewriter's fusable-run index and its linear rewrite.
//!
//! The reference below is the per-position matcher the index replaced:
//! for one start position and one signature it checks the fusion rules
//! directly against a program-wide `DefUse`, and the reference rewriter
//! rescans the whole program from the top after every single fusion.
//! [`FusableRuns`] must agree with it at every position of the 36 corpus
//! programs and of 200 generated ones, for every signature present, and
//! `Rewriter::apply` must produce the same program, byte for byte.

use asip_explorer::benchmarks::full_registry;
use asip_explorer::chains::Signature;
use asip_explorer::gen::{generate, GenConfig};
use asip_explorer::ir::{
    BinOp, Block, DefUse, Inst, InstKind, OpClass, Operand, Program, ProgramBuilder, Ty,
};
use asip_explorer::synth::rewrite::is_fusable_signature;
use asip_explorer::synth::{AsipDesign, FusableRuns, IsaExtension, Rewriter};
use asip_explorer::ArtifactCodec;
use std::collections::BTreeSet;

// -- the reference ------------------------------------------------------

fn commutative(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Mul | And | Or | Xor | CmpEq | CmpNe | FAdd | FMul | FCmpEq | FCmpNe
    )
}

/// Whether `sig` matches the run starting at `start` of `block`: every
/// op `Binary` of the signature's class, each result feeding the next
/// op (lhs, or either operand if commutative, never both), and each
/// intermediate defined once and used only there.
fn reference_matches_at(
    program: &Program,
    du: &DefUse,
    block: &Block,
    start: usize,
    sig: &[OpClass],
) -> bool {
    let k = sig.len();
    if start + k > block.insts.len() {
        return false;
    }
    let run = &block.insts[start..start + k];
    for (inst, want) in run.iter().zip(sig) {
        if !matches!(inst.kind, InstKind::Binary { .. }) || program.class_of(inst) != *want {
            return false;
        }
    }
    run.windows(2).all(|w| {
        let d = w[0].dst().expect("binary ops define");
        let InstKind::Binary { op, lhs, rhs, .. } = &w[1].kind else {
            return false;
        };
        let feeds_lhs = lhs.reg() == Some(d);
        let feeds_rhs = rhs.reg() == Some(d);
        let uses = du.uses_of(d);
        (feeds_lhs || (feeds_rhs && commutative(*op)))
            && !(feeds_lhs && feeds_rhs)
            && uses.len() == 1
            && uses[0] == w[1].id
            && du.defs_of(d).len() == 1
    })
}

/// The longest run at `start` by the reference rules, ignoring classes.
fn reference_run_at(program: &Program, du: &DefUse, block: &Block, start: usize) -> usize {
    let classes = |k: usize| -> Vec<OpClass> {
        block.insts[start..start + k]
            .iter()
            .map(|i| program.class_of(i))
            .collect()
    };
    (1..=block.insts.len() - start)
        .take_while(|&k| reference_matches_at(program, du, block, start, &classes(k)))
        .last()
        .unwrap_or(0)
}

/// The reference rewrite: find the first match in program order (longest
/// extension first at each position), fuse it, rebuild `DefUse` and
/// rescan from the top.
fn reference_rewrite(design: &AsipDesign, program: &mut Program) -> usize {
    let mut order: Vec<&IsaExtension> = design.extensions.iter().collect();
    order.sort_by_key(|e| std::cmp::Reverse(e.signature.len()));
    let mut fused = 0;
    loop {
        let du = DefUse::new(program);
        let site = program.blocks.iter().enumerate().find_map(|(b, block)| {
            (0..block.insts.len()).find_map(|start| {
                order
                    .iter()
                    .find(|e| {
                        reference_matches_at(program, &du, block, start, e.signature.classes())
                    })
                    .map(|e| (b, start, *e))
            })
        });
        let Some((b, start, ext)) = site else {
            return fused;
        };
        let k = ext.signature.len();
        let run: Vec<Inst> = program.blocks[b].insts[start..start + k].to_vec();
        let mut inputs = Vec::new();
        let mut ops = Vec::new();
        for (i, inst) in run.iter().enumerate() {
            let InstKind::Binary { op, lhs, rhs, .. } = &inst.kind else {
                unreachable!("matched runs are binary");
            };
            if i == 0 {
                inputs.extend([*lhs, *rhs]);
            } else {
                let d = run[i - 1].dst();
                inputs.push(if lhs.reg() == d { *rhs } else { *lhs });
            }
            ops.push(*op);
        }
        let dst = run[k - 1].dst().expect("binary ops define");
        let id = program.new_inst_id();
        let chained = Inst::new(
            id,
            InstKind::Chained {
                ext: ext.id,
                dst,
                inputs,
                ops,
            },
        );
        program.blocks[b].insts.splice(start..start + k, [chained]);
        fused += 1;
    }
}

// -- the check ----------------------------------------------------------

/// Every class window of length 2..=5 over consecutive instructions:
/// the signatures worth asking about (present or nearly so).
fn windows(program: &Program) -> BTreeSet<Vec<OpClass>> {
    let mut out = BTreeSet::new();
    for block in &program.blocks {
        let classes: Vec<OpClass> = block.insts.iter().map(|i| program.class_of(i)).collect();
        for k in 2..=5 {
            out.extend(classes.windows(k).map(<[OpClass]>::to_vec));
        }
    }
    out
}

/// Compare the index with the reference on `program`, then the linear
/// rewrite with the reference rewrite under a design of every fusable
/// signature present. Returns the number of matched signatures.
fn check(program: &Program) -> usize {
    let du = DefUse::new(program);
    let runs = FusableRuns::new(program);
    for (b, block) in program.blocks.iter().enumerate() {
        for start in 0..block.insts.len() {
            assert_eq!(
                runs.run_at(b, start),
                reference_run_at(program, &du, block, start),
                "{}: run length at block {b} position {start}",
                program.name
            );
        }
    }
    let mut present = Vec::new();
    for classes in windows(program) {
        let sig = Signature::new(classes);
        let mut anywhere = false;
        for (b, block) in program.blocks.iter().enumerate() {
            for start in 0..block.insts.len() {
                let want = reference_matches_at(program, &du, block, start, sig.classes());
                assert_eq!(
                    runs.matches_at(b, start, &sig),
                    want,
                    "{}: {sig} at block {b} position {start}",
                    program.name
                );
                anywhere |= want;
            }
        }
        assert_eq!(runs.contains(&sig), anywhere, "{}: {sig}", program.name);
        if anywhere && is_fusable_signature(&sig) {
            present.push(sig);
        }
    }

    // a design of up to eight present signatures, mixed lengths
    let design = AsipDesign {
        extensions: present
            .iter()
            .take(8)
            .enumerate()
            .map(|(id, sig)| IsaExtension {
                id: id as u32,
                signature: sig.clone(),
                area: 1.0,
                expected_benefit: 1.0,
            })
            .collect(),
        extension_area: 8.0,
    };
    let mut linear = program.clone();
    let stats = Rewriter::new(design.clone()).apply(&mut linear);
    let mut reference = program.clone();
    let fused = reference_rewrite(&design, &mut reference);
    assert_eq!(stats.fused_chains, fused, "{}: fused chains", program.name);
    assert_eq!(
        linear.to_bytes(),
        reference.to_bytes(),
        "{}: rewritten programs differ",
        program.name
    );
    present.len()
}

#[test]
fn index_agrees_with_the_reference_on_the_corpus() {
    let mut matched = 0;
    for bench in full_registry().iter() {
        matched += check(&bench.compile().expect("compiles"));
    }
    assert!(matched > 36, "the corpus has fusable runs to check");
}

#[test]
fn index_agrees_with_the_reference_on_generated_programs() {
    let small = GenConfig::small();
    let configs = [
        small,
        GenConfig {
            chain_density: 90,
            float_share: 0,
            float_arrays: 0,
            ..small
        },
        GenConfig {
            chain_density: 90,
            float_share: 70,
            ..small
        },
        GenConfig {
            loop_depth: 0,
            statements: 24,
            ..small
        },
    ];
    let mut matched = 0;
    for seed in 0..200u64 {
        let prog = generate(seed, &configs[seed as usize % configs.len()]);
        let program = asip_explorer::frontend::compile(&prog.name, &prog.source)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}"));
        matched += check(&program);
    }
    assert!(
        matched > 200,
        "generated programs have fusable runs to check"
    );
}

// -- hand-built cases ---------------------------------------------------

/// A one-block program: `body` emits instructions after three loads
/// `a, c, d` of `x`; the block ends by storing `body`'s result to `y`.
fn one_block(body: impl FnOnce(&mut ProgramBuilder, [Operand; 3]) -> Operand) -> Program {
    let mut b = ProgramBuilder::new("hand");
    let x = b.input_array("x", Ty::Int, 3);
    let y = b.output_array("y", Ty::Int, 2);
    let e = b.entry_block();
    b.select_block(e);
    let a = b.load(x, Operand::imm_int(0));
    let c = b.load(x, Operand::imm_int(1));
    let d = b.load(x, Operand::imm_int(2));
    let out = body(&mut b, [a.into(), c.into(), d.into()]);
    b.store(y, Operand::imm_int(0), out);
    b.ret(None);
    b.finish().expect("valid")
}

/// Run lengths of the entry block (three loads first).
fn runs_of(program: &Program) -> Vec<usize> {
    check(program);
    let runs = FusableRuns::new(program);
    (0..program.blocks[0].insts.len())
        .map(|i| runs.run_at(0, i))
        .collect()
}

#[test]
fn the_same_intermediate_on_both_operands_ends_the_run() {
    let p = one_block(|b, [a, c, _]| {
        let t = b.binary(BinOp::Mul, a, c);
        b.binary(BinOp::Add, t.into(), t.into()).into()
    });
    assert_eq!(runs_of(&p)[3..5], [1, 1]);
}

#[test]
fn a_non_commutative_rhs_feed_ends_the_run() {
    let sub = one_block(|b, [a, c, d]| {
        let t = b.binary(BinOp::Mul, a, c);
        b.binary(BinOp::Sub, d, t.into()).into()
    });
    assert_eq!(runs_of(&sub)[3..5], [1, 1]);
    let add = one_block(|b, [a, c, d]| {
        let t = b.binary(BinOp::Mul, a, c);
        b.binary(BinOp::Add, d, t.into()).into()
    });
    assert_eq!(runs_of(&add)[3..5], [2, 1], "a commutative rhs feed links");
}

#[test]
fn an_intermediate_with_a_second_use_ends_the_run() {
    let mut b = ProgramBuilder::new("hand");
    let x = b.input_array("x", Ty::Int, 3);
    let y = b.output_array("y", Ty::Int, 2);
    let e = b.entry_block();
    b.select_block(e);
    let a = b.load(x, Operand::imm_int(0));
    let c = b.load(x, Operand::imm_int(1));
    let t = b.binary(BinOp::Mul, a.into(), c.into());
    let s = b.binary(BinOp::Add, t.into(), c.into());
    b.store(y, Operand::imm_int(0), s.into());
    b.store(y, Operand::imm_int(1), t.into());
    b.ret(None);
    let p = b.finish().expect("valid");
    assert_eq!(runs_of(&p)[2..4], [1, 1]);
}

#[test]
fn a_register_with_two_defs_ends_the_run() {
    let p = one_block(|b, [a, c, d]| {
        let t = b.binary(BinOp::Mul, a, c);
        let s = b.binary(BinOp::Add, t.into(), d);
        b.binary_to(t, BinOp::Sub, s.into(), d);
        t.into()
    });
    let runs = runs_of(&p);
    assert_eq!(runs[3], 1, "t is defined twice");
    assert_eq!(runs[4], 2, "s has one def and one use");
}

#[test]
fn a_load_between_the_ops_ends_the_run() {
    let mut b = ProgramBuilder::new("hand");
    let x = b.input_array("x", Ty::Int, 3);
    let y = b.output_array("y", Ty::Int, 1);
    let e = b.entry_block();
    b.select_block(e);
    let a = b.load(x, Operand::imm_int(0));
    let c = b.load(x, Operand::imm_int(1));
    let t = b.binary(BinOp::Mul, a.into(), c.into());
    let l = b.load(x, Operand::imm_int(2));
    let s = b.binary(BinOp::Add, t.into(), l.into());
    b.store(y, Operand::imm_int(0), s.into());
    b.ret(None);
    let p = b.finish().expect("valid");
    assert_eq!(runs_of(&p)[2..5], [1, 0, 1]);
}

#[test]
fn a_run_longer_than_every_extension_fuses_in_consecutive_pieces() {
    let p = one_block(|b, [a, c, d]| {
        let mut acc = b.binary(BinOp::Add, a, c);
        for _ in 0..5 {
            acc = b.binary(BinOp::Add, acc.into(), d);
        }
        acc.into()
    });
    assert_eq!(runs_of(&p)[3..9], [6, 5, 4, 3, 2, 1]);
    let design = AsipDesign {
        extensions: vec![IsaExtension {
            id: 0,
            signature: "add-add".parse().expect("ok"),
            area: 1.0,
            expected_benefit: 1.0,
        }],
        extension_area: 1.0,
    };
    let mut rewritten = p.clone();
    let stats = Rewriter::new(design).apply(&mut rewritten);
    assert_eq!((stats.fused_chains, stats.removed_ops), (3, 3));
    assert!(rewritten.validate().is_ok());
}
