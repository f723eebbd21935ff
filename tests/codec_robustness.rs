//! The artifact codec's contract, checked over real payloads and
//! hand-built bad bytes:
//!
//! - **exact round trip** — every stage payload of the 36
//!   `full_registry()` programs at every optimization level decodes to
//!   a value equal to the one encoded, and re-encodes to the same bytes;
//!   a decoded `Program` prints the same textual IR as the original;
//! - **no panics** — every truncation and every single-bit flip of the
//!   payloads of three Table-1 programs decodes to `Ok` or `Err`, never
//!   a panic (store and wire checksums catch such damage first, but the
//!   daemon stores client `Put` payloads without decoding them, so the
//!   decoder must hold on its own);
//! - **typed rejection** — overlong varints, bool and option bytes
//!   other than 0 or 1, unknown op codes, non-finite frequencies and
//!   schedule graphs whose flat ranges do not fit their arrays are each
//!   a `CodecError`;
//! - **flat decode** — a schedule graph decodes in the same number of
//!   allocations whatever its size.
//!
//! The CI `chaos` job also runs this file in release mode, where
//! integer overflow wraps instead of trapping.

use asip_explorer::artifact::{ArtifactCodec, Decoder, Encoder};
use asip_explorer::chains::SeqStats;
use asip_explorer::ir::{BinOp, Inst, Operand, UnOp};
use asip_explorer::opt::NodeId;
use asip_explorer::prelude::*;
use asip_explorer::synth::{AsipDesign, Evaluation, Rewriter};
use asip_explorer::CodecError;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// Encode `value`, decode it back and re-encode: the decoded value must
/// equal the original and the bytes must repeat exactly.
fn round_trip<T: ArtifactCodec + PartialEq + Debug>(what: &str, value: &T) {
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(back == *value, "{what}: decoded value differs");
    assert_eq!(back.to_bytes(), bytes, "{what}: re-encoding differs");
}

#[test]
fn every_stage_payload_round_trips_exactly() {
    let session = Explorer::new()
        .with_registry(full_registry())
        .with_threads(1);
    let names: Vec<&str> = session.registry().iter().map(|b| b.name).collect();
    assert_eq!(names.len(), 36);
    for &name in &names {
        let exploration = session.explore(name).expect("explores");
        let program = &exploration.compiled.program;
        round_trip(name, program.as_ref());
        let decoded = Program::from_bytes(&program.to_bytes()).expect("decodes");
        assert_eq!(
            decoded.to_string(),
            program.to_string(),
            "{name}: textual IR"
        );
        round_trip(name, exploration.profiled.profile.as_ref());
        round_trip(name, exploration.designed.design.as_ref());
        round_trip(name, exploration.evaluated.evaluation.as_ref());
        for level in OptLevel::all() {
            let what = format!("{name} at level {}", level.number());
            let scheduled = session.schedule(name, level).expect("schedules");
            round_trip(&what, scheduled.graph.as_ref());
            let analyzed = session.analyze(name, level).expect("analyzes");
            round_trip(&what, analyzed.report.as_ref());
            let constraints = DesignConstraints {
                opt_level: level,
                ..DesignConstraints::default()
            };
            let designed = session
                .design_with(name, constraints, DetectorConfig::default())
                .expect("designs");
            round_trip(&what, designed.design.as_ref());
            // rewritten programs carry chained super-ops
            let mut rewritten = Program::clone(program);
            Rewriter::new(AsipDesign::clone(&designed.design)).apply(&mut rewritten);
            round_trip(&what, &rewritten);
        }
    }

    let table1 = Explorer::new().with_threads(1);
    let suite = table1.evaluate_suite().expect("evaluates");
    round_trip("suite design", suite.design.as_ref());
    round_trip("suite evaluations", suite.evaluations.as_ref());
    let grid: Vec<DesignConstraints> = [500.0, 2000.0, 6000.0]
        .into_iter()
        .map(|area_budget| DesignConstraints {
            area_budget,
            ..DesignConstraints::default()
        })
        .collect();
    let spaced = table1.design_space(&grid).expect("explores");
    round_trip("design space", spaced.space.as_ref());
}

/// The encoded payloads of one benchmark, each with a decoder that
/// returns whether it accepted the bytes.
type Payload = (String, Vec<u8>, fn(&[u8]) -> bool);

fn payloads_of(session: &Explorer, name: &str) -> Vec<Payload> {
    fn accepts<T: ArtifactCodec>(bytes: &[u8]) -> bool {
        T::from_bytes(bytes).is_ok()
    }
    let ex = session.explore(name).expect("explores");
    let mut out: Vec<Payload> = vec![
        (
            format!("{name} compile"),
            ex.compiled.program.to_bytes(),
            accepts::<Program>,
        ),
        (
            format!("{name} profile"),
            ex.profiled.profile.to_bytes(),
            accepts::<Profile>,
        ),
        (
            format!("{name} design"),
            ex.designed.design.to_bytes(),
            accepts::<AsipDesign>,
        ),
        (
            format!("{name} evaluate"),
            ex.evaluated.evaluation.to_bytes(),
            accepts::<Evaluation>,
        ),
    ];
    for (scheduled, analyzed) in &ex.levels {
        let level = scheduled.level.number();
        out.push((
            format!("{name} schedule {level}"),
            scheduled.graph.to_bytes(),
            accepts::<ScheduleGraph>,
        ));
        out.push((
            format!("{name} analyze {level}"),
            analyzed.report.to_bytes(),
            accepts::<SequenceReport>,
        ));
    }
    out
}

/// Decode `bytes`, turning a panic into a test failure that names the
/// damage.
fn decode_without_panic(decode: fn(&[u8]) -> bool, bytes: &[u8], damage: impl Fn() -> String) {
    if catch_unwind(AssertUnwindSafe(|| decode(bytes))).is_err() {
        panic!("decoder panicked on {}", damage());
    }
}

#[test]
fn truncations_and_bit_flips_never_panic() {
    let session = Explorer::new().with_threads(1);
    for name in ["fir", "sewha", "iir"] {
        for (what, bytes, decode) in payloads_of(&session, name) {
            assert!(decode(&bytes), "{what}: intact payload decodes");
            for cut in 0..bytes.len() {
                decode_without_panic(decode, &bytes[..cut], || format!("{what} cut at {cut}"));
                assert!(!decode(&bytes[..cut]), "{what}: a truncation is an error");
            }
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    flipped[at] ^= 1 << bit;
                    decode_without_panic(decode, &flipped, || {
                        format!("{what} with bit {bit} of byte {at} flipped")
                    });
                    flipped[at] ^= 1 << bit;
                }
            }
        }
    }
}

fn decode_err<T: ArtifactCodec + Debug>(bytes: &[u8]) -> CodecError {
    T::from_bytes(bytes).expect_err("bytes must be rejected")
}

fn assert_invalid<T: ArtifactCodec + Debug>(bytes: &[u8], what: &str) {
    let err = decode_err::<T>(bytes);
    assert!(
        matches!(err, CodecError::Invalid { .. }),
        "{what}: expected Invalid, got {err:?}"
    );
}

#[test]
fn overlong_and_oversized_varints_are_invalid() {
    // 0 and 1 padded with a redundant zero group
    assert_invalid::<u64>(&[0x80, 0x00], "overlong zero");
    assert_invalid::<u64>(&[0x81, 0x80, 0x00], "overlong one");
    // ten bytes whose last carries more than the 64th bit
    let mut wide = vec![0xFF; 9];
    wide.push(0x02);
    assert_invalid::<u64>(&wide, "65-bit varint");
    // an eleventh byte is never reached: the tenth must end the varint
    let mut long = vec![0xFF; 10];
    long.push(0x01);
    assert_invalid::<u64>(&long, "eleven-byte varint");
    // the largest value is exactly ten bytes
    let mut max = vec![0xFF; 9];
    max.push(0x01);
    assert_eq!(u64::from_bytes(&max), Ok(u64::MAX));
    // a continuation bit with nothing after it is a truncation
    assert!(matches!(
        decode_err::<u64>(&[0x80]),
        CodecError::Truncated { .. }
    ));
    // narrow integers are range-checked
    assert_invalid::<u32>(&(u64::from(u32::MAX) + 1).to_bytes(), "u32 overflow");
}

#[test]
fn bool_and_option_bytes_must_be_zero_or_one() {
    assert_eq!(bool::from_bytes(&[0]), Ok(false));
    assert_eq!(bool::from_bytes(&[1]), Ok(true));
    assert_invalid::<bool>(&[2], "bool byte 2");
    assert_invalid::<bool>(&[0xFF], "bool byte 0xff");
    assert_eq!(Option::<u64>::from_bytes(&[0]), Ok(None));
    assert_eq!(Option::<u64>::from_bytes(&[1, 7]), Ok(Some(7)));
    assert_invalid::<Option<u64>>(&[2, 7], "option byte 2");
}

#[test]
fn unknown_codes_are_invalid() {
    assert_eq!(
        BinOp::from_bytes(&[(BinOp::all().len() - 1) as u8]),
        Ok(BinOp::FCmpNe)
    );
    assert_invalid::<BinOp>(&[BinOp::all().len() as u8], "binary op");
    assert_invalid::<OpClass>(&[OpClass::all().len() as u8], "op class");
    // six plain unary ops, then one code per math intrinsic
    assert_invalid::<UnOp>(&[13], "unary op");
    assert_invalid::<UnOp>(&u64::MAX.to_bytes(), "unary op");
    assert_invalid::<Operand>(&[3], "operand variant");
    assert_invalid::<OptLevel>(&[3], "optimization level");
    // instruction id 0, then an unknown instruction variant
    assert_invalid::<Inst>(&[0, 8], "instruction variant");
    // a signature needs two classes
    assert_invalid::<Signature>(&[1, 0], "one-class signature");
    // strings must be UTF-8
    assert_invalid::<String>(&[2, 0xC3, 0x28], "invalid UTF-8");
}

#[test]
fn sequence_lengths_beyond_the_bytes_left_are_truncations() {
    let mut enc = Encoder::new();
    enc.put_seq(1 << 40);
    enc.put_u64(1);
    let bytes = enc.into_bytes();
    assert!(matches!(
        decode_err::<Vec<u64>>(&bytes),
        CodecError::Truncated { .. }
    ));
    let mut dec = Decoder::new(&[3, 1, 2, 3]);
    assert_eq!(dec.seq(), Ok(3));
}

#[test]
fn frequencies_must_be_finite_and_non_negative() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let mut enc = Encoder::new();
        enc.put_f64(bad);
        enc.put_u64(1);
        assert_invalid::<SeqStats>(&enc.into_bytes(), &format!("frequency {bad}"));
    }
    let ok = SeqStats {
        frequency: 12.5,
        occurrences: 3,
    };
    assert_eq!(SeqStats::from_bytes(&ok.to_bytes()), Ok(ok));
}

#[test]
fn decoded_programs_are_revalidated_and_renumbered() {
    let registry = asip_explorer::benchmarks::registry();
    let program = registry
        .find("fir")
        .expect("built-in")
        .compile()
        .expect("compiles");

    // a stale `next_inst_id` is raised past the largest id in use
    let mut stale = program.clone();
    stale.next_inst_id = 0;
    let decoded = Program::from_bytes(&stale.to_bytes()).expect("decodes");
    let ids_end = program.insts().map(|(_, i)| i.id.0 + 1).max();
    assert_eq!(Some(decoded.next_inst_id), ids_end);

    // a block without its terminator fails validation
    let mut broken = program.clone();
    broken.blocks[0].insts.pop();
    assert_invalid::<Program>(&broken.to_bytes(), "unterminated block");

    // a register reference past the declared registers fails too
    let mut dangling = program.clone();
    dangling.reg_types.clear();
    assert_invalid::<Program>(&dangling.to_bytes(), "undeclared register");

    // an empty program is rejected
    let mut empty = program;
    empty.blocks.clear();
    assert_invalid::<Program>(&empty.to_bytes(), "empty program");
}

/// A level-1 schedule of `fir`, whose nodes hold several ops each.
fn fir_schedule() -> ScheduleGraph {
    let session = Explorer::new().with_threads(1);
    let scheduled = session
        .schedule("fir", OptLevel::Pipelined)
        .expect("schedules");
    ScheduleGraph::clone(&scheduled.graph)
}

#[test]
fn flat_graphs_whose_ranges_do_not_fit_are_invalid() {
    let graph = fir_schedule();
    assert!(graph.node_count() > 2 && graph.max_width() > 1);
    assert_eq!(
        ScheduleGraph::from_bytes(&graph.to_bytes()),
        Ok(graph.clone())
    );

    let mut bad = graph.clone();
    bad.node_start.swap(1, 2);
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "non-monotone op ranges");
    let mut bad = graph.clone();
    bad.node_start.pop();
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "op ranges short of the ops");
    let mut bad = graph.clone();
    bad.node_start.clear();
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "no op ranges");
    let mut bad = graph.clone();
    bad.node_start[0] = 1;
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "op ranges not from 0");
    let mut bad = graph.clone();
    bad.succ_start.pop();
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "a node without successor range");
    let mut bad = graph.clone();
    bad.succ_start.swap(1, 2);
    if bad.succ_start != graph.succ_start {
        assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "non-monotone successor ranges");
    }
    let mut bad = graph.clone();
    bad.succs[0] = NodeId(graph.node_count() as u32);
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "successor out of range");
    let mut bad = graph.clone();
    bad.node_block.pop();
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "too few node blocks");
    let mut bad = graph.clone();
    bad.node_block.push(bad.node_block[0]);
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "too many node blocks");
    let mut bad = graph.clone();
    bad.entry = NodeId(graph.node_count() as u32);
    assert_invalid::<ScheduleGraph>(&bad.to_bytes(), "entry out of range");
}

#[test]
fn schedule_graphs_decode_in_a_fixed_number_of_allocations() {
    let session = Explorer::new()
        .with_registry(full_registry())
        .with_threads(1);
    let mut graphs = Vec::new();
    for b in session.registry().iter() {
        for level in OptLevel::all() {
            graphs.push(session.schedule(b.name, level).expect("schedules").graph);
        }
    }
    let smallest = graphs.iter().min_by_key(|g| g.ops.len()).expect("graphs");
    let largest = graphs.iter().max_by_key(|g| g.ops.len()).expect("graphs");
    assert!(largest.ops.len() > 10 * smallest.ops.len());
    let allocations = |graph: &ScheduleGraph| {
        let bytes = graph.to_bytes();
        let (decoded, usage) = common::measure(|| ScheduleGraph::from_bytes(&bytes));
        assert_eq!(decoded.as_ref(), Ok(graph));
        usage.allocations
    };
    assert_eq!(allocations(smallest), allocations(largest));
}
