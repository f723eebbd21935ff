//! The simulator facade and the shared operation semantics.
//!
//! [`Simulator`] keeps the original borrowing one-shot API but now
//! executes through the pre-decoded engine (see [`crate::decode`]): a
//! `run` lowers the program once into a [`crate::DecodedProgram`] and
//! drives the engine's slot-indexed loop instead of walking the IR per
//! dynamic operation. Callers that run the same program repeatedly
//! should hold a [`crate::Engine`] (decode once, run many); the
//! original per-instruction interpreter survives as
//! [`crate::reference::ReferenceSimulator`], the executable spec the
//! differential tests compare against.
//!
//! [`eval_binop`] and [`eval_unop`] define the operation semantics
//! shared by the engine, the reference interpreter and the rewriter
//! contract.

use crate::data::DataSet;
use crate::decode::DecodedProgram;
use crate::error::Result;
use crate::profile::Profile;
use asip_ir::{BinOp, Program, UnOp, Value};

/// The default dynamic step limit (100 million ops).
pub(crate) const DEFAULT_STEP_LIMIT: u64 = 100_000_000;

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Dynamic counts per instruction and block.
    pub profile: Profile,
    /// Final contents of every array (indexable by the program's array
    /// order), so harnesses can check outputs.
    pub memory: Vec<Vec<Value>>,
    /// Value returned by the program's `ret`, if any.
    pub result: Option<Value>,
}

impl Execution {
    /// Final contents of a named array.
    pub fn array(&self, program: &Program, name: &str) -> Option<&[Value]> {
        program
            .array_by_name(name)
            .map(|id| self.memory[id.index()].as_slice())
    }
}

/// A profiling interpreter for one [`Program`].
///
/// The machine model is the paper's: one operation per cycle, unbounded
/// virtual registers, word-addressed array memory. Division by zero
/// yields zero (integer) or IEEE semantics (float) so random-data
/// benchmarks never trap.
///
/// Each `run` decodes the program and executes the decoded form; the
/// decode cost is linear in the *static* instruction count and is
/// dwarfed by any profiling run. To amortize it away entirely, decode
/// once into a [`crate::Engine`].
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    step_limit: u64,
}

impl<'p> Simulator<'p> {
    /// Create a simulator with the default step limit (100 million ops).
    pub fn new(program: &'p Program) -> Self {
        Simulator {
            program,
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Override the dynamic step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Run the program on the given input data.
    ///
    /// # Errors
    ///
    /// - [`crate::SimError::UnboundInput`] / [`crate::SimError::WrongLength`] /
    ///   [`crate::SimError::WrongType`] if the data set does not match the
    ///   program's input declarations;
    /// - [`crate::SimError::OutOfBounds`] on a bad array access;
    /// - [`crate::SimError::StepLimit`] if execution runs away.
    pub fn run(&self, data: &DataSet) -> Result<Execution> {
        DecodedProgram::decode(self.program).execute(data, self.step_limit)
    }
}

/// Evaluate a binary operation with C-like semantics.
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    match op {
        Add => Value::Int(a.as_int().wrapping_add(b.as_int())),
        Sub => Value::Int(a.as_int().wrapping_sub(b.as_int())),
        Mul => Value::Int(a.as_int().wrapping_mul(b.as_int())),
        Div => {
            let d = b.as_int();
            Value::Int(if d == 0 {
                0
            } else {
                a.as_int().wrapping_div(d)
            })
        }
        Rem => {
            let d = b.as_int();
            Value::Int(if d == 0 {
                0
            } else {
                a.as_int().wrapping_rem(d)
            })
        }
        Shl => Value::Int(a.as_int().wrapping_shl((b.as_int() & 63) as u32)),
        Shr => Value::Int(a.as_int().wrapping_shr((b.as_int() & 63) as u32)),
        And => Value::Int(a.as_int() & b.as_int()),
        Or => Value::Int(a.as_int() | b.as_int()),
        Xor => Value::Int(a.as_int() ^ b.as_int()),
        CmpLt => Value::Int((a.as_int() < b.as_int()) as i64),
        CmpLe => Value::Int((a.as_int() <= b.as_int()) as i64),
        CmpGt => Value::Int((a.as_int() > b.as_int()) as i64),
        CmpGe => Value::Int((a.as_int() >= b.as_int()) as i64),
        CmpEq => Value::Int((a.as_int() == b.as_int()) as i64),
        CmpNe => Value::Int((a.as_int() != b.as_int()) as i64),
        FAdd => Value::Float(a.as_float() + b.as_float()),
        FSub => Value::Float(a.as_float() - b.as_float()),
        FMul => Value::Float(a.as_float() * b.as_float()),
        FDiv => Value::Float(a.as_float() / b.as_float()),
        FCmpLt => Value::Int((a.as_float() < b.as_float()) as i64),
        FCmpLe => Value::Int((a.as_float() <= b.as_float()) as i64),
        FCmpGt => Value::Int((a.as_float() > b.as_float()) as i64),
        FCmpGe => Value::Int((a.as_float() >= b.as_float()) as i64),
        FCmpEq => Value::Int((a.as_float() == b.as_float()) as i64),
        FCmpNe => Value::Int((a.as_float() != b.as_float()) as i64),
    }
}

/// Evaluate a unary operation.
pub fn eval_unop(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Neg => Value::Int(v.as_int().wrapping_neg()),
        UnOp::Not => Value::Int(!v.as_int()),
        UnOp::FNeg => Value::Float(-v.as_float()),
        UnOp::Mov => v,
        UnOp::IntToFloat => Value::Float(v.as_int() as f64),
        UnOp::FloatToInt => Value::Int(v.as_float() as i64),
        UnOp::Math(m) => Value::Float(m.eval(v.as_float())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use asip_ir::{Operand, ProgramBuilder, Ty};

    fn sum_loop_program(n: i64) -> Program {
        // acc = sum_{i<n} x[i]*x[i]
        let mut b = ProgramBuilder::new("sumsq");
        let x = b.input_array("x", Ty::Int, n as usize);
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        b.jump(header);
        b.select_block(header);
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(n));
        b.branch(c.into(), body, exit);
        b.select_block(body);
        let v = b.load(x, i.into());
        let sq = b.binary(BinOp::Mul, v.into(), v.into());
        let na = b.binary(BinOp::Add, acc.into(), sq.into());
        b.mov_to(acc, na.into());
        let ni = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        b.mov_to(i, ni.into());
        b.jump(header);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        b.finish().expect("valid")
    }

    #[test]
    fn computes_sum_of_squares() {
        let p = sum_loop_program(4);
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2, 3, 4]);
        let e = Simulator::new(&p).run(&d).expect("runs");
        assert_eq!(e.result, Some(Value::Int(1 + 4 + 9 + 16)));
    }

    #[test]
    fn profile_counts_match_loop_structure() {
        let p = sum_loop_program(4);
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2, 3, 4]);
        let e = Simulator::new(&p).run(&d).expect("runs");
        // header executes 5 times (4 taken + 1 exit), body 4
        assert_eq!(e.profile.block_count(asip_ir::BlockId(1)), 5);
        assert_eq!(e.profile.block_count(asip_ir::BlockId(2)), 4);
        // the multiply runs once per body iteration
        let mul_id = p.blocks()[2].insts[1].id;
        assert_eq!(e.profile.count(mul_id), 4);
        // total = 3 (entry) + 5*2 (header) + 4*7 (body) + 1 (ret)
        assert_eq!(e.profile.total_ops(), 3 + 10 + 28 + 1);
    }

    #[test]
    fn rejects_missing_and_mismatched_inputs() {
        let p = sum_loop_program(4);
        let d = DataSet::new();
        assert!(matches!(
            Simulator::new(&p).run(&d),
            Err(SimError::UnboundInput { .. })
        ));
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2]);
        assert!(matches!(
            Simulator::new(&p).run(&d),
            Err(SimError::WrongLength { .. })
        ));
        let mut d = DataSet::new();
        d.bind_floats("x", vec![1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(
            Simulator::new(&p).run(&d),
            Err(SimError::WrongType { .. })
        ));
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        // while (1) {}
        let mut b = ProgramBuilder::new("hang");
        let entry = b.entry_block();
        b.select_block(entry);
        b.jump(entry);
        let p = b.finish().expect("valid");
        let err = Simulator::new(&p)
            .with_step_limit(1000)
            .run(&DataSet::new());
        assert!(matches!(err, Err(SimError::StepLimit { limit: 1000 })));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut b = ProgramBuilder::new("oob");
        let x = b.input_array("x", Ty::Int, 2);
        let entry = b.entry_block();
        b.select_block(entry);
        let _ = b.load(x, Operand::imm_int(5));
        b.ret(None);
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2]);
        assert!(matches!(
            Simulator::new(&p).run(&d),
            Err(SimError::OutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn division_semantics() {
        assert_eq!(
            eval_binop(BinOp::Div, Value::Int(7), Value::Int(2)),
            Value::Int(3)
        );
        assert_eq!(
            eval_binop(BinOp::Div, Value::Int(7), Value::Int(0)),
            Value::Int(0),
            "integer division by zero yields zero"
        );
        assert_eq!(
            eval_binop(BinOp::Rem, Value::Int(7), Value::Int(0)),
            Value::Int(0)
        );
        let inf = eval_binop(BinOp::FDiv, Value::Float(1.0), Value::Float(0.0));
        assert_eq!(inf, Value::Float(f64::INFINITY));
    }

    #[test]
    fn comparison_and_float_ops() {
        assert_eq!(
            eval_binop(BinOp::CmpLt, Value::Int(1), Value::Int(2)),
            Value::Int(1)
        );
        assert_eq!(
            eval_binop(BinOp::FCmpGe, Value::Float(2.0), Value::Float(2.0)),
            Value::Int(1)
        );
        assert_eq!(
            eval_binop(BinOp::FMul, Value::Float(1.5), Value::Float(2.0)),
            Value::Float(3.0)
        );
        assert_eq!(
            eval_unop(UnOp::FloatToInt, Value::Float(-2.9)),
            Value::Int(-2)
        );
        assert_eq!(eval_unop(UnOp::Mov, Value::Float(1.25)), Value::Float(1.25));
    }

    #[test]
    fn outputs_are_observable() {
        let mut b = ProgramBuilder::new("out");
        let y = b.output_array("y", Ty::Int, 2);
        let entry = b.entry_block();
        b.select_block(entry);
        b.store(y, Operand::imm_int(0), Operand::imm_int(42));
        b.store(y, Operand::imm_int(1), Operand::imm_int(7));
        b.ret(None);
        let p = b.finish().expect("valid");
        let e = Simulator::new(&p).run(&DataSet::new()).expect("runs");
        assert_eq!(e.array(&p, "y"), Some(&[Value::Int(42), Value::Int(7)][..]));
    }

    #[test]
    fn stores_coerce_to_element_type() {
        let mut b = ProgramBuilder::new("coerce");
        let y = b.output_array("y", Ty::Float, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        b.store(y, Operand::imm_int(0), Operand::imm_float(2.5));
        b.ret(None);
        let p = b.finish().expect("valid");
        let e = Simulator::new(&p).run(&DataSet::new()).expect("runs");
        assert_eq!(e.array(&p, "y"), Some(&[Value::Float(2.5)][..]));
    }

    #[test]
    fn wrapping_integer_semantics() {
        assert_eq!(
            eval_binop(BinOp::Add, Value::Int(i64::MAX), Value::Int(1)),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            eval_binop(BinOp::Shl, Value::Int(1), Value::Int(64 + 3)),
            Value::Int(8),
            "shift amount masked to 0..63"
        );
    }
}
