//! Lowering from the checked AST to [`asip_ir`] three-address code.
//!
//! All function calls are inlined (semantic analysis guarantees the call
//! graph is acyclic), so the result is one flat CFG — the unit the paper's
//! profiling and sequence analysis work on.

use crate::ast::*;
use crate::error::FrontendError;
use asip_ir::{ArrayKind, BinOp, MathFn, Operand, Program, ProgramBuilder, Reg, UnOp};
use std::collections::HashMap;

/// Lower a checked [`Unit`] into a validated [`Program`].
///
/// # Errors
///
/// Returns [`FrontendError::Lowering`] if the produced IR fails
/// validation (which would indicate a bug in this module, not in user
/// source).
pub fn lower(name: &str, unit: &Unit) -> Result<Program, FrontendError> {
    let mut l = Lowerer::new(name, unit);
    l.run()?;
    let mut program = l.b.finish_unchecked();
    // blocks that lowering left unterminated are unreachable continuations
    // (e.g. the join after an `if` whose branches both return); seal them
    for block in &mut program.blocks {
        if !block.is_well_formed() {
            let id = program.next_inst_id;
            program.next_inst_id += 1;
            block.insts.push(asip_ir::Inst::new(
                asip_ir::InstId(id),
                asip_ir::InstKind::Ret { value: None },
            ));
        }
    }
    program.validate()?;
    Ok(program)
}

struct Lowerer<'a> {
    b: ProgramBuilder,
    unit: &'a Unit,
    arrays: HashMap<&'a str, asip_ir::ArrayId>,
    globals: HashMap<&'a str, (Reg, ScalarTy)>,
}

/// Per-inlined-function-instance environment.
struct Frame<'a> {
    /// Scope stack of local name -> (register, type).
    scopes: Vec<HashMap<&'a str, (Reg, ScalarTy)>>,
    /// Where `return` stores its value, for non-void functions.
    ret_reg: Option<(Reg, ScalarTy)>,
    /// Block to jump to on `return` (`None` only for `main`, where return
    /// lowers to `ret`).
    ret_block: Option<asip_ir::BlockId>,
}

impl<'a> Frame<'a> {
    fn lookup(&self, name: &str) -> Option<(Reg, ScalarTy)> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }
}

/// Bytes per array element. The paper-era C types: 4-byte `int` and
/// 4-byte `float`. Array accesses lower to explicit address arithmetic
/// (`off = index * 4; addr = off + base; load [addr]`), exactly the
/// 3-address shape a modified gcc emits — this address arithmetic is
/// where many of the paper's detected sequences (`add-multiply`,
/// `multiply-add`, `add-add-multiply`) come from.
const ELEM_SIZE: i64 = 4;

/// Address of the first array; subsequent arrays follow contiguously
/// with a small guard gap, like a static data segment.
const DATA_BASE: i64 = 4096;

impl<'a> Lowerer<'a> {
    fn new(name: &str, unit: &'a Unit) -> Self {
        Lowerer {
            b: ProgramBuilder::new(name),
            unit,
            arrays: HashMap::new(),
            globals: HashMap::new(),
        }
    }

    fn run(&mut self) -> Result<(), FrontendError> {
        let mut base = DATA_BASE;
        for a in &self.unit.arrays {
            let kind = match a.storage {
                Storage::Input => ArrayKind::Input,
                Storage::Output => ArrayKind::Output,
                Storage::Internal => ArrayKind::Internal,
            };
            let id =
                self.b
                    .array_with_layout(a.name.clone(), a.ty.ir(), a.len, kind, base, ELEM_SIZE);
            base += a.len as i64 * ELEM_SIZE + 64;
            self.arrays.insert(&a.name, id);
        }
        let entry = self.b.entry_block();
        self.b.select_block(entry);
        for g in &self.unit.globals {
            let r = self.b.new_reg(g.ty.ir());
            // C globals are zero-initialized
            let zero = match g.ty {
                ScalarTy::Int => Operand::imm_int(0),
                ScalarTy::Float => Operand::imm_float(0.0),
            };
            self.b.mov_to(r, zero);
            self.globals.insert(&g.name, (r, g.ty));
        }
        let main = self.unit.function("main").expect("sema guarantees main");
        let mut frame = Frame {
            scopes: vec![HashMap::new()],
            ret_reg: None,
            ret_block: None,
        };
        self.lower_stmts(&main.body, &mut frame);
        if !self.b.current_is_terminated() {
            self.b.ret(None);
        }
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: &'a [Stmt], frame: &mut Frame<'a>) {
        frame.scopes.push(HashMap::new());
        for s in stmts {
            if self.b.current_is_terminated() {
                break; // unreachable code after return
            }
            self.lower_stmt(s, frame);
        }
        frame.scopes.pop();
    }

    fn lower_stmt(&mut self, stmt: &'a Stmt, frame: &mut Frame<'a>) {
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                let r = self.b.new_reg(ty.ir());
                if let Some(init) = init {
                    self.lower_expr_into(r, *ty, init, frame);
                }
                frame
                    .scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name, (r, *ty));
            }
            Stmt::Assign { name, value, .. } => {
                let (dst, dt) = frame
                    .lookup(name)
                    .or_else(|| self.globals.get(name.as_str()).copied())
                    .expect("sema checked");
                self.lower_expr_into(dst, dt, value, frame);
            }
            Stmt::AssignIndex {
                name, index, value, ..
            } => {
                let array = self.arrays[name.as_str()];
                let elem_ty = self
                    .unit
                    .arrays
                    .iter()
                    .find(|a| &a.name == name)
                    .expect("sema")
                    .ty;
                let addr = self.lower_address(array, index, frame);
                let (v, vt) = self.lower_expr(value, frame);
                let v = self.coerce(v, vt, elem_ty);
                self.b.store(array, addr, v);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let (c, ct) = self.lower_expr(cond, frame);
                let c = self.lower_condition(c, ct);
                let then_bb = self.b.new_block();
                let cont_bb = self.b.new_block();
                let else_bb = if else_body.is_empty() {
                    cont_bb
                } else {
                    self.b.new_block()
                };
                self.b.branch(c, then_bb, else_bb);

                self.b.select_block(then_bb);
                self.lower_stmts(then_body, frame);
                if !self.b.current_is_terminated() {
                    self.b.jump(cont_bb);
                }
                if !else_body.is_empty() {
                    self.b.select_block(else_bb);
                    self.lower_stmts(else_body, frame);
                    if !self.b.current_is_terminated() {
                        self.b.jump(cont_bb);
                    }
                }
                self.b.select_block(cont_bb);
            }
            // Loops lower in bottom-test (guard + do-while) form, the
            // shape gcc-era compilers emit: the guard tests once before
            // entry, and the body block re-tests at its bottom and
            // branches back to itself. A straight-line source body thus
            // becomes a *single-block* natural loop containing its
            // compare and branch — which is what loop pipelining wants,
            // and which puts `i = i + 1` textually adjacent to the
            // compare (the add-compare sequences of the paper's Table 3).
            Stmt::While { cond, body, .. } => {
                let (c, ct) = self.lower_expr(cond, frame);
                let c = self.lower_condition(c, ct);
                let body_bb = self.b.new_labeled_block("while.body");
                let exit = self.b.new_labeled_block("while.exit");
                self.b.branch(c, body_bb, exit);
                self.b.select_block(body_bb);
                self.lower_stmts(body, frame);
                if !self.b.current_is_terminated() {
                    let (c2, ct2) = self.lower_expr(cond, frame);
                    let c2 = self.lower_condition(c2, ct2);
                    self.b.branch(c2, body_bb, exit);
                }
                self.b.select_block(exit);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.lower_stmt(init, frame);
                let (c, ct) = self.lower_expr(cond, frame);
                let c = self.lower_condition(c, ct);
                let body_bb = self.b.new_labeled_block("for.body");
                let exit = self.b.new_labeled_block("for.exit");
                self.b.branch(c, body_bb, exit);
                self.b.select_block(body_bb);
                self.lower_stmts(body, frame);
                if !self.b.current_is_terminated() {
                    self.lower_stmt(step, frame);
                    let (c2, ct2) = self.lower_expr(cond, frame);
                    let c2 = self.lower_condition(c2, ct2);
                    self.b.branch(c2, body_bb, exit);
                }
                self.b.select_block(exit);
            }
            Stmt::Return { value, .. } => match (frame.ret_block, value) {
                (None, None) => {
                    self.b.ret(None);
                }
                (None, Some(_)) => unreachable!("sema: main returns no value"),
                (Some(bb), None) => {
                    self.b.jump(bb);
                }
                (Some(bb), Some(v)) => {
                    let (val, vt) = self.lower_expr(v, frame);
                    let (rr, rt) = frame.ret_reg.expect("non-void inlined function");
                    let val = self.coerce(val, vt, rt);
                    self.b.mov_to(rr, val);
                    self.b.jump(bb);
                }
            },
            Stmt::Expr(e) => {
                self.lower_expr(e, frame);
            }
        }
    }

    /// Lower an array subscript to an explicit byte address:
    /// `off = index * ELEM_SIZE; addr = off + base`. Constant subscripts
    /// fold to an immediate address, as a real code generator would.
    fn lower_address(
        &mut self,
        array: asip_ir::ArrayId,
        index: &'a Expr,
        frame: &mut Frame<'a>,
    ) -> Operand {
        let (base, size) = {
            let decl = self.b.array_decl(array);
            (decl.base, decl.elem_size)
        };
        let (idx, _) = self.lower_expr(index, frame);
        match idx {
            Operand::ImmInt(k) => Operand::imm_int(base + k * size),
            idx => {
                let off = self.b.binary(BinOp::Mul, idx, Operand::imm_int(size));
                self.b
                    .binary(BinOp::Add, off.into(), Operand::imm_int(base))
                    .into()
            }
        }
    }

    /// Static type of an expression (mirrors the checker's rules; sema
    /// has already validated the expression).
    fn expr_ty(&self, e: &Expr, frame: &Frame<'a>) -> ScalarTy {
        match e {
            Expr::IntLit(..) => ScalarTy::Int,
            Expr::FloatLit(..) => ScalarTy::Float,
            Expr::Var(name, _) => {
                frame
                    .lookup(name)
                    .or_else(|| self.globals.get(name.as_str()).copied())
                    .expect("sema checked")
                    .1
            }
            Expr::Index { name, .. } => {
                self.unit
                    .arrays
                    .iter()
                    .find(|a| &a.name == name)
                    .expect("sema checked")
                    .ty
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_comparison()
                    || matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr)
                    || op.int_only()
                {
                    ScalarTy::Int
                } else if self.expr_ty(lhs, frame) == ScalarTy::Float
                    || self.expr_ty(rhs, frame) == ScalarTy::Float
                {
                    ScalarTy::Float
                } else {
                    ScalarTy::Int
                }
            }
            Expr::Unary { op, operand, .. } => match op {
                UnaryOp::Neg => self.expr_ty(operand, frame),
                UnaryOp::Not => ScalarTy::Int,
            },
            Expr::Cast { to, .. } => *to,
            Expr::Call { name, .. } => {
                if intrinsic(name).is_some() {
                    ScalarTy::Float
                } else {
                    self.unit
                        .function(name)
                        .expect("sema checked")
                        .ret
                        .unwrap_or(ScalarTy::Int)
                }
            }
        }
    }

    /// Lower `dst = e`, writing the final operation directly into `dst`
    /// when its natural result type matches (so `i = i + 1` is a single
    /// 3-address instruction, as a real front end emits).
    fn lower_expr_into(&mut self, dst: Reg, dt: ScalarTy, e: &'a Expr, frame: &mut Frame<'a>) {
        if self.expr_ty(e, frame) != dt {
            let (v, vt) = self.lower_expr(e, frame);
            let v = self.coerce(v, vt, dt);
            self.b.mov_to(dst, v);
            return;
        }
        match e {
            Expr::Binary { op, lhs, rhs, .. } => {
                self.lower_binary_impl(*op, lhs, rhs, frame, Some(dst));
            }
            Expr::Index { name, index, .. } => {
                let array = self.arrays[name.as_str()];
                let addr = self.lower_address(array, index, frame);
                self.b.load_to(dst, array, addr);
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                operand,
                ..
            } => {
                let (v, vt) = self.lower_expr(operand, frame);
                match (v, vt) {
                    (Operand::ImmInt(i), _) => {
                        self.b.mov_to(dst, Operand::imm_int(-i));
                    }
                    (Operand::ImmFloat(f), _) => {
                        self.b.mov_to(dst, Operand::imm_float(-f));
                    }
                    (v, ScalarTy::Int) => {
                        self.b.unary_to(dst, UnOp::Neg, v);
                    }
                    (v, ScalarTy::Float) => {
                        self.b.unary_to(dst, UnOp::FNeg, v);
                    }
                }
            }
            Expr::Cast { to, operand, .. } => {
                let (v, vt) = self.lower_expr(operand, frame);
                match (vt, to) {
                    (ScalarTy::Int, ScalarTy::Float) => {
                        self.b.unary_to(dst, UnOp::IntToFloat, v);
                    }
                    (ScalarTy::Float, ScalarTy::Int) => {
                        self.b.unary_to(dst, UnOp::FloatToInt, v);
                    }
                    _ => {
                        self.b.mov_to(dst, v);
                    }
                }
            }
            Expr::Call { name, args, .. } if intrinsic(name).is_some() => {
                let m = intrinsic(name).expect("checked");
                let (v, vt) = self.lower_expr(&args[0], frame);
                let v = self.coerce(v, vt, ScalarTy::Float);
                self.b.unary_to(dst, UnOp::Math(m), v);
            }
            other => {
                let (v, vt) = self.lower_expr(other, frame);
                let v = self.coerce(v, vt, dt);
                self.b.mov_to(dst, v);
            }
        }
    }

    /// Lower an expression; returns the operand and its type.
    fn lower_expr(&mut self, e: &'a Expr, frame: &mut Frame<'a>) -> (Operand, ScalarTy) {
        match e {
            Expr::IntLit(v, _) => (Operand::imm_int(*v), ScalarTy::Int),
            Expr::FloatLit(v, _) => (Operand::imm_float(*v), ScalarTy::Float),
            Expr::Var(name, _) => {
                let (r, t) = frame
                    .lookup(name)
                    .or_else(|| self.globals.get(name.as_str()).copied())
                    .expect("sema checked");
                (r.into(), t)
            }
            Expr::Index { name, index, .. } => {
                let array = self.arrays[name.as_str()];
                let elem_ty = self
                    .unit
                    .arrays
                    .iter()
                    .find(|a| &a.name == name)
                    .expect("sema")
                    .ty;
                let addr = self.lower_address(array, index, frame);
                let r = self.b.load(array, addr);
                (r.into(), elem_ty)
            }
            Expr::Binary { op, lhs, rhs, .. } => self.lower_binary(*op, lhs, rhs, frame),
            Expr::Unary { op, operand, .. } => {
                let (v, vt) = self.lower_expr(operand, frame);
                match op {
                    UnaryOp::Neg => match (v, vt) {
                        // fold negation of literals
                        (Operand::ImmInt(i), _) => (Operand::imm_int(-i), ScalarTy::Int),
                        (Operand::ImmFloat(f), _) => (Operand::imm_float(-f), ScalarTy::Float),
                        (v, ScalarTy::Int) => (self.b.unary(UnOp::Neg, v).into(), ScalarTy::Int),
                        (v, ScalarTy::Float) => {
                            (self.b.unary(UnOp::FNeg, v).into(), ScalarTy::Float)
                        }
                    },
                    UnaryOp::Not => {
                        let r = match vt {
                            ScalarTy::Int => self.b.binary(BinOp::CmpEq, v, Operand::imm_int(0)),
                            ScalarTy::Float => {
                                self.b.binary(BinOp::FCmpEq, v, Operand::imm_float(0.0))
                            }
                        };
                        (r.into(), ScalarTy::Int)
                    }
                }
            }
            Expr::Cast { to, operand, .. } => {
                let (v, vt) = self.lower_expr(operand, frame);
                (self.coerce(v, vt, *to), *to)
            }
            Expr::Call { name, args, .. } => {
                if let Some(m) = intrinsic(name) {
                    let (v, vt) = self.lower_expr(&args[0], frame);
                    let v = self.coerce(v, vt, ScalarTy::Float);
                    let r = self.lower_math(m, v);
                    (r.into(), ScalarTy::Float)
                } else {
                    self.inline_call(name, args, frame)
                }
            }
        }
    }

    fn lower_math(&mut self, m: MathFn, v: Operand) -> Reg {
        self.b.unary(UnOp::Math(m), v)
    }

    fn lower_binary(
        &mut self,
        op: BinaryOp,
        lhs: &'a Expr,
        rhs: &'a Expr,
        frame: &mut Frame<'a>,
    ) -> (Operand, ScalarTy) {
        self.lower_binary_impl(op, lhs, rhs, frame, None)
    }

    /// Lower a binary expression; if `into` is given, the final operation
    /// writes that register (the caller guarantees the type matches).
    fn lower_binary_impl(
        &mut self,
        op: BinaryOp,
        lhs: &'a Expr,
        rhs: &'a Expr,
        frame: &mut Frame<'a>,
        into: Option<Reg>,
    ) -> (Operand, ScalarTy) {
        use BinaryOp::*;

        let emit = |me: &mut Self, bop: BinOp, l: Operand, r: Operand| -> Reg {
            match into {
                Some(d) => {
                    me.b.binary_to(d, bop, l, r);
                    d
                }
                None => me.b.binary(bop, l, r),
            }
        };

        // logical ops: normalize both sides to 0/1 ints, then and/or
        if matches!(op, LogAnd | LogOr) {
            let (l, lt) = self.lower_expr(lhs, frame);
            let l = self.normalize_bool(l, lt, lhs);
            let (r, rt) = self.lower_expr(rhs, frame);
            let r = self.normalize_bool(r, rt, rhs);
            let bop = if op == LogAnd { BinOp::And } else { BinOp::Or };
            let out = emit(self, bop, l, r);
            return (out.into(), ScalarTy::Int);
        }

        let (l, lt) = self.lower_expr(lhs, frame);
        let (r, rt) = self.lower_expr(rhs, frame);
        let float = lt == ScalarTy::Float || rt == ScalarTy::Float;

        if op.is_comparison() {
            let (l, r, cmp) = if float {
                (
                    self.coerce(l, lt, ScalarTy::Float),
                    self.coerce(r, rt, ScalarTy::Float),
                    match op {
                        Lt => BinOp::FCmpLt,
                        Le => BinOp::FCmpLe,
                        Gt => BinOp::FCmpGt,
                        Ge => BinOp::FCmpGe,
                        Eq => BinOp::FCmpEq,
                        Ne => BinOp::FCmpNe,
                        _ => unreachable!(),
                    },
                )
            } else {
                (
                    l,
                    r,
                    match op {
                        Lt => BinOp::CmpLt,
                        Le => BinOp::CmpLe,
                        Gt => BinOp::CmpGt,
                        Ge => BinOp::CmpGe,
                        Eq => BinOp::CmpEq,
                        Ne => BinOp::CmpNe,
                        _ => unreachable!(),
                    },
                )
            };
            let out = emit(self, cmp, l, r);
            return (out.into(), ScalarTy::Int);
        }

        if op.int_only() {
            let bop = match op {
                Rem => BinOp::Rem,
                Shl => BinOp::Shl,
                Shr => BinOp::Shr,
                BitAnd => BinOp::And,
                BitOr => BinOp::Or,
                BitXor => BinOp::Xor,
                _ => unreachable!(),
            };
            let out = emit(self, bop, l, r);
            return (out.into(), ScalarTy::Int);
        }

        // arithmetic
        let (l, r, bop, ty) = if float {
            (
                self.coerce(l, lt, ScalarTy::Float),
                self.coerce(r, rt, ScalarTy::Float),
                match op {
                    Add => BinOp::FAdd,
                    Sub => BinOp::FSub,
                    Mul => BinOp::FMul,
                    Div => BinOp::FDiv,
                    _ => unreachable!(),
                },
                ScalarTy::Float,
            )
        } else {
            (
                l,
                r,
                match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => BinOp::Div,
                    _ => unreachable!(),
                },
                ScalarTy::Int,
            )
        };
        let out = emit(self, bop, l, r);
        (out.into(), ty)
    }

    /// Inline a user-function call; returns its result operand.
    fn inline_call(
        &mut self,
        name: &str,
        args: &'a [Expr],
        frame: &mut Frame<'a>,
    ) -> (Operand, ScalarTy) {
        let callee = self.unit.function(name).expect("sema checked");
        // evaluate arguments in the caller's frame
        let mut bound: HashMap<&str, (Reg, ScalarTy)> = HashMap::new();
        for ((pname, pty), arg) in callee.params.iter().zip(args) {
            let (v, vt) = self.lower_expr(arg, frame);
            let v = self.coerce(v, vt, *pty);
            let pr = self.b.new_reg(pty.ir());
            self.b.mov_to(pr, v);
            bound.insert(pname, (pr, *pty));
        }
        let ret_ty = callee.ret.unwrap_or(ScalarTy::Int);
        let ret_reg = self.b.new_reg(ret_ty.ir());
        let cont = self.b.new_labeled_block(format!("inline.{name}.cont"));
        let mut callee_frame = Frame {
            scopes: vec![bound],
            ret_reg: Some((ret_reg, ret_ty)),
            ret_block: Some(cont),
        };
        self.lower_stmts(&callee.body, &mut callee_frame);
        if !self.b.current_is_terminated() {
            self.b.jump(cont);
        }
        self.b.select_block(cont);
        (ret_reg.into(), ret_ty)
    }

    /// Convert an operand between scalar types if needed.
    fn coerce(&mut self, v: Operand, from: ScalarTy, to: ScalarTy) -> Operand {
        if from == to {
            return v;
        }
        // fold conversions of immediates
        match (v, to) {
            (Operand::ImmInt(i), ScalarTy::Float) => Operand::imm_float(i as f64),
            (Operand::ImmFloat(f), ScalarTy::Int) => Operand::imm_int(f as i64),
            (v, ScalarTy::Float) => self.b.unary(UnOp::IntToFloat, v).into(),
            (v, ScalarTy::Int) => self.b.unary(UnOp::FloatToInt, v).into(),
        }
    }

    /// Produce an int condition operand for a branch.
    fn lower_condition(&mut self, v: Operand, t: ScalarTy) -> Operand {
        match t {
            ScalarTy::Int => v,
            ScalarTy::Float => self
                .b
                .binary(BinOp::FCmpNe, v, Operand::imm_float(0.0))
                .into(),
        }
    }

    /// Normalize a value to 0/1 for `&&`/`||`. Comparison and `!` results
    /// are already 0/1 and skip the extra compare.
    fn normalize_bool(&mut self, v: Operand, t: ScalarTy, src: &Expr) -> Operand {
        let already_bool = matches!(
            src,
            Expr::Binary { op, .. } if op.is_comparison() || matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr)
        ) || matches!(
            src,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        );
        if already_bool {
            return v;
        }
        match t {
            ScalarTy::Int => self.b.binary(BinOp::CmpNe, v, Operand::imm_int(0)).into(),
            ScalarTy::Float => self
                .b
                .binary(BinOp::FCmpNe, v, Operand::imm_float(0.0))
                .into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parser::parse, sema};

    fn compile(src: &str) -> Program {
        let unit = parse(src).expect("parse");
        sema::check(&unit).expect("sema");
        lower("test", &unit).expect("lower")
    }

    #[test]
    fn straight_line_lowering() {
        let p = compile("input int x[2]; output int y[1]; void main() { y[0] = x[0] * x[1] + 3; }");
        assert!(p.validate().is_ok());
        // load, load, mul, add, store, ret
        assert_eq!(p.inst_count(), 6);
    }

    #[test]
    fn for_loop_lowers_to_single_block_bottom_test_loop() {
        let p = compile(
            r#"
            input int x[8]; output int y[8];
            void main() {
                int i;
                for (i = 0; i < 8; i = i + 1) { y[i] = x[i] + 1; }
            }
            "#,
        );
        // entry (init + guard), body (work + step + re-test), exit
        assert_eq!(p.blocks().len(), 3);
        // body block branches back to itself: a single-block natural loop
        let body = p
            .blocks()
            .iter()
            .find(|b| b.label.as_deref() == Some("for.body"))
            .expect("body block");
        assert!(body.successors().contains(&body.id));
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        let p = compile("void main() { float f; f = 1 + 2.5; }");
        let has_fadd = p.insts().any(|(_, i)| {
            matches!(
                &i.kind,
                asip_ir::InstKind::Binary {
                    op: BinOp::FAdd,
                    ..
                }
            )
        });
        assert!(has_fadd);
    }

    #[test]
    fn assignment_converts_to_destination_type() {
        let p = compile("void main() { int a; a = 2.5 * 2.0; }");
        let has_ftoi = p.insts().any(|(_, i)| {
            matches!(
                &i.kind,
                asip_ir::InstKind::Unary {
                    op: UnOp::FloatToInt,
                    ..
                }
            )
        });
        assert!(has_ftoi);
    }

    #[test]
    fn inlining_flattens_calls() {
        let p = compile(
            r#"
            float twice(float v) { return v * 2.0; }
            void main() { float f; f = twice(twice(1.5)); }
            "#,
        );
        assert!(p.validate().is_ok());
        // two inlined bodies => two fmul instructions
        let fmuls = p
            .insts()
            .filter(|(_, i)| {
                matches!(
                    &i.kind,
                    asip_ir::InstKind::Binary {
                        op: BinOp::FMul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(fmuls, 2);
    }

    #[test]
    fn early_return_in_if() {
        let p = compile(
            r#"
            int pick(int a) { if (a > 0) { return 1; } return 0; }
            void main() { int r; r = pick(3); }
            "#,
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn globals_are_zero_initialized() {
        let p = compile("int acc; void main() { acc = acc + 1; }");
        // entry block starts with mov r, 0
        let first = &p.blocks()[0].insts[0];
        assert!(matches!(
            &first.kind,
            asip_ir::InstKind::Unary {
                op: UnOp::Mov,
                src: Operand::ImmInt(0),
                ..
            }
        ));
    }

    #[test]
    fn while_and_if_else_lower() {
        let p = compile(
            r#"
            void main() {
                int i; int acc;
                i = 0; acc = 0;
                while (i < 10) {
                    if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
                    i = i + 1;
                }
            }
            "#,
        );
        assert!(p.validate().is_ok());
        assert!(p.blocks().len() >= 6);
    }

    #[test]
    fn logical_and_or_lower_numerically() {
        let p = compile("void main() { int a; a = (1 < 2) && (3 < 4); }");
        let has_and = p
            .insts()
            .any(|(_, i)| matches!(&i.kind, asip_ir::InstKind::Binary { op: BinOp::And, .. }));
        assert!(has_and);
        // comparisons already 0/1: no extra CmpNe emitted
        let cmpne = p
            .insts()
            .filter(|(_, i)| {
                matches!(
                    &i.kind,
                    asip_ir::InstKind::Binary {
                        op: BinOp::CmpNe,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(cmpne, 0);
    }

    #[test]
    fn intrinsics_lower_to_math_ops() {
        let p = compile("void main() { float f; f = sin(0.5) + sqrt(2.0); }");
        let maths = p
            .insts()
            .filter(|(_, i)| {
                matches!(
                    &i.kind,
                    asip_ir::InstKind::Unary {
                        op: UnOp::Math(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(maths, 2);
    }

    #[test]
    fn negation_folds_literals() {
        let p = compile("void main() { int a; a = -5; float f; f = -2.5; }");
        let negs = p
            .insts()
            .filter(|(_, i)| {
                matches!(
                    &i.kind,
                    asip_ir::InstKind::Unary {
                        op: UnOp::Neg | UnOp::FNeg,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(negs, 0, "literal negation should fold");
    }
}
