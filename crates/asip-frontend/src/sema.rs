//! Semantic analysis: name resolution, type checking, recursion
//! rejection and the bounds on inlining.

use crate::ast::*;
use crate::error::{FrontendError, Pos};
use crate::parser::MAX_NESTING;
use std::collections::{HashMap, HashSet};

/// The most calls one function may inline, counting the calls inside
/// every body it inlines. Lowering emits one body per inlined call, so
/// a chain of functions that each call the next twice doubles its cost
/// per level; this bound rejects it with a typed error long before the
/// work becomes noticeable.
pub const MAX_INLINED_CALLS: usize = 256;

/// Check a translation unit.
///
/// # Errors
///
/// Returns the first semantic error: duplicate/undeclared names, type
/// errors, bad calls, recursion, or a missing/ill-formed `main`.
pub fn check(unit: &Unit) -> Result<(), FrontendError> {
    Checker::new(unit).run()
}

struct Checker<'a> {
    unit: &'a Unit,
    arrays: HashMap<&'a str, &'a ArrayDef>,
    globals: HashMap<&'a str, ScalarTy>,
    funcs: HashMap<&'a str, &'a FuncDef>,
}

struct FuncScope<'a> {
    /// Innermost scope last. Each maps name -> type.
    stack: Vec<HashMap<&'a str, ScalarTy>>,
}

impl<'a> FuncScope<'a> {
    fn lookup(&self, name: &str) -> Option<ScalarTy> {
        self.stack.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &'a str, ty: ScalarTy) -> bool {
        self.stack
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, ty)
            .is_none()
    }
}

impl<'a> Checker<'a> {
    fn new(unit: &'a Unit) -> Self {
        Checker {
            unit,
            arrays: HashMap::new(),
            globals: HashMap::new(),
            funcs: HashMap::new(),
        }
    }

    fn run(mut self) -> Result<(), FrontendError> {
        let mut names: HashSet<&str> = HashSet::new();
        for a in &self.unit.arrays {
            if !names.insert(&a.name) {
                return Err(FrontendError::sema(
                    a.pos,
                    format!("duplicate global name `{}`", a.name),
                ));
            }
            self.arrays.insert(&a.name, a);
        }
        for g in &self.unit.globals {
            if !names.insert(&g.name) {
                return Err(FrontendError::sema(
                    g.pos,
                    format!("duplicate global name `{}`", g.name),
                ));
            }
            self.globals.insert(&g.name, g.ty);
        }
        for f in &self.unit.functions {
            if intrinsic(&f.name).is_some() {
                return Err(FrontendError::sema(
                    f.pos,
                    format!("`{}` shadows a math intrinsic", f.name),
                ));
            }
            if !names.insert(&f.name) {
                return Err(FrontendError::sema(
                    f.pos,
                    format!("duplicate global name `{}`", f.name),
                ));
            }
            self.funcs.insert(&f.name, f);
        }

        let main = self.unit.function("main").ok_or_else(|| {
            FrontendError::sema(Pos::default(), "program must define `void main()`")
        })?;
        if main.ret.is_some() || !main.params.is_empty() {
            return Err(FrontendError::sema(
                main.pos,
                "`main` must be `void main()` with no parameters",
            ));
        }

        // the call graph first: a hostile one is rejected before any
        // function body is type-checked
        self.check_calls()?;
        for f in &self.unit.functions {
            self.check_function(f)?;
        }
        Ok(())
    }

    fn check_function(&self, f: &'a FuncDef) -> Result<(), FrontendError> {
        let mut scope = FuncScope {
            stack: vec![HashMap::new()],
        };
        for (name, ty) in &f.params {
            if self.arrays.contains_key(name.as_str()) || self.globals.contains_key(name.as_str()) {
                return Err(FrontendError::sema(
                    f.pos,
                    format!("parameter `{name}` shadows a global"),
                ));
            }
            if !scope.declare(name, *ty) {
                return Err(FrontendError::sema(
                    f.pos,
                    format!("duplicate parameter `{name}`"),
                ));
            }
        }
        self.check_block(f, &f.body, &mut scope)
    }

    fn check_block(
        &self,
        f: &'a FuncDef,
        stmts: &'a [Stmt],
        scope: &mut FuncScope<'a>,
    ) -> Result<(), FrontendError> {
        scope.stack.push(HashMap::new());
        for s in stmts {
            self.check_stmt(f, s, scope)?;
        }
        scope.stack.pop();
        Ok(())
    }

    fn check_stmt(
        &self,
        f: &'a FuncDef,
        stmt: &'a Stmt,
        scope: &mut FuncScope<'a>,
    ) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                pos,
            } => {
                if let Some(init) = init {
                    self.expr_ty(init, scope)?;
                }
                if self.arrays.contains_key(name.as_str()) {
                    return Err(FrontendError::sema(
                        *pos,
                        format!("local `{name}` shadows a global array"),
                    ));
                }
                if !scope.declare(name, *ty) {
                    return Err(FrontendError::sema(
                        *pos,
                        format!("duplicate local `{name}` in this scope"),
                    ));
                }
                Ok(())
            }
            Stmt::Assign { name, value, pos } => {
                self.expr_ty(value, scope)?;
                self.scalar_var_ty(name, scope)
                    .ok_or_else(|| {
                        FrontendError::sema(*pos, format!("assignment to undeclared `{name}`"))
                    })
                    .map(|_| ())
            }
            Stmt::AssignIndex {
                name,
                index,
                value,
                pos,
            } => {
                let idx_ty = self.expr_ty(index, scope)?;
                if idx_ty != ScalarTy::Int {
                    return Err(FrontendError::sema(*pos, "array index must be int"));
                }
                self.expr_ty(value, scope)?;
                if !self.arrays.contains_key(name.as_str()) {
                    return Err(FrontendError::sema(
                        *pos,
                        format!("`{name}` is not a declared array"),
                    ));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.expr_ty(cond, scope)?;
                self.check_block(f, then_body, scope)?;
                self.check_block(f, else_body, scope)
            }
            Stmt::While { cond, body, .. } => {
                self.expr_ty(cond, scope)?;
                self.check_block(f, body, scope)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.check_stmt(f, init, scope)?;
                self.expr_ty(cond, scope)?;
                self.check_stmt(f, step, scope)?;
                self.check_block(f, body, scope)
            }
            Stmt::Return { value, pos } => match (&f.ret, value) {
                (None, Some(_)) => Err(FrontendError::sema(
                    *pos,
                    "void function cannot return a value",
                )),
                (Some(_), None) => Err(FrontendError::sema(
                    *pos,
                    "non-void function must return a value",
                )),
                (Some(_), Some(v)) => self.expr_ty(v, scope).map(|_| ()),
                (None, None) => Ok(()),
            },
            Stmt::Expr(e) => {
                // only calls make sense for effect; allow void calls here
                if let Expr::Call { name, args, pos } = e {
                    self.check_call(name, args, scope, *pos, true).map(|_| ())
                } else {
                    self.expr_ty(e, scope).map(|_| ())
                }
            }
        }
    }

    fn scalar_var_ty(&self, name: &str, scope: &FuncScope<'a>) -> Option<ScalarTy> {
        scope
            .lookup(name)
            .or_else(|| self.globals.get(name).copied())
    }

    fn expr_ty(&self, e: &'a Expr, scope: &FuncScope<'a>) -> Result<ScalarTy, FrontendError> {
        match e {
            Expr::IntLit(..) => Ok(ScalarTy::Int),
            Expr::FloatLit(..) => Ok(ScalarTy::Float),
            Expr::Var(name, pos) => self
                .scalar_var_ty(name, scope)
                .ok_or_else(|| FrontendError::sema(*pos, format!("undeclared variable `{name}`"))),
            Expr::Index { name, index, pos } => {
                let idx = self.expr_ty(index, scope)?;
                if idx != ScalarTy::Int {
                    return Err(FrontendError::sema(*pos, "array index must be int"));
                }
                self.arrays.get(name.as_str()).map(|a| a.ty).ok_or_else(|| {
                    FrontendError::sema(*pos, format!("`{name}` is not a declared array"))
                })
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let lt = self.expr_ty(lhs, scope)?;
                let rt = self.expr_ty(rhs, scope)?;
                if op.int_only() && (lt != ScalarTy::Int || rt != ScalarTy::Int) {
                    return Err(FrontendError::sema(*pos, "operator requires int operands"));
                }
                if op.is_comparison() || matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr) {
                    Ok(ScalarTy::Int)
                } else if lt == ScalarTy::Float || rt == ScalarTy::Float {
                    Ok(ScalarTy::Float)
                } else {
                    Ok(ScalarTy::Int)
                }
            }
            Expr::Unary { op, operand, .. } => {
                let t = self.expr_ty(operand, scope)?;
                Ok(match op {
                    UnaryOp::Neg => t,
                    UnaryOp::Not => ScalarTy::Int,
                })
            }
            Expr::Cast { to, operand, .. } => {
                self.expr_ty(operand, scope)?;
                Ok(*to)
            }
            Expr::Call { name, args, pos } => self
                .check_call(name, args, scope, *pos, false)?
                .ok_or_else(|| {
                    FrontendError::sema(
                        *pos,
                        format!("void function `{name}` used in an expression"),
                    )
                }),
        }
    }

    /// Check a call; returns the return type (`None` = void).
    fn check_call(
        &self,
        name: &str,
        args: &'a [Expr],
        scope: &FuncScope<'a>,
        pos: Pos,
        _stmt_ctx: bool,
    ) -> Result<Option<ScalarTy>, FrontendError> {
        for a in args {
            self.expr_ty(a, scope)?;
        }
        if intrinsic(name).is_some() {
            if args.len() != 1 {
                return Err(FrontendError::sema(
                    pos,
                    format!("intrinsic `{name}` takes exactly one argument"),
                ));
            }
            return Ok(Some(ScalarTy::Float));
        }
        let f = self.funcs.get(name).ok_or_else(|| {
            FrontendError::sema(pos, format!("call to undefined function `{name}`"))
        })?;
        if f.params.len() != args.len() {
            return Err(FrontendError::sema(
                pos,
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    f.params.len(),
                    args.len()
                ),
            ));
        }
        Ok(f.ret)
    }

    /// Walk the call graph once, iteratively and in post-order (callees
    /// before callers), rejecting recursion and bounding what lowering
    /// builds when it inlines every call. For each function the walk
    /// computes the *inlined height* — its tree's height, with every
    /// call site's position plus the callee's inlined height in place of
    /// the call — and the *inlined call count*, every call site plus the
    /// callee's own count. Lowering recurses as deep as the inlined
    /// height, so it is held to [`MAX_NESTING`] like a single tree, and
    /// it emits one body per inlined call, so the count is held to
    /// [`MAX_INLINED_CALLS`].
    fn check_calls(&self) -> Result<(), FrontendError> {
        let functions = &self.unit.functions;
        let index: HashMap<&str, usize> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        // per function: its tree's height and its call sites, each the
        // callee and the position its inlined body starts at
        let shapes: Vec<(usize, Vec<(usize, usize)>)> = functions
            .iter()
            .map(|f| {
                let mut calls = Vec::new();
                let height = f
                    .body
                    .iter()
                    .map(|s| stmt_shape(s, 0, &mut calls))
                    .fold(0, usize::max);
                // intrinsics are not inlined
                let sites = calls
                    .into_iter()
                    .filter_map(|(name, at)| Some((*index.get(name)?, at)))
                    .collect();
                (height, sites)
            })
            .collect();
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            New,
            Open,
            Done { height: usize, calls: usize },
        }
        let mut marks = vec![Mark::New; functions.len()];
        for root in 0..functions.len() {
            if marks[root] != Mark::New {
                continue;
            }
            marks[root] = Mark::Open;
            // each open function and the next call site to follow
            let mut stack = vec![(root, 0)];
            while let Some((f, next)) = stack.last_mut() {
                let (f, (height, sites)) = (*f, &shapes[*f]);
                if let Some(&(callee, _)) = sites.get(*next) {
                    *next += 1;
                    match marks[callee] {
                        Mark::Open => {
                            return Err(FrontendError::sema(
                                functions[callee].pos,
                                format!(
                                "recursion involving `{}` is not supported (all calls are inlined)",
                                functions[callee].name
                            ),
                            ))
                        }
                        Mark::New => {
                            marks[callee] = Mark::Open;
                            stack.push((callee, 0));
                        }
                        Mark::Done { .. } => {}
                    }
                    continue;
                }
                let (mut inlined_height, mut calls) = (*height, 0usize);
                for &(callee, at) in sites {
                    let Mark::Done { height, calls: c } = marks[callee] else {
                        unreachable!("callees close before their callers");
                    };
                    inlined_height = inlined_height.max(at + height);
                    calls = calls.saturating_add(c).saturating_add(1);
                }
                let pos = functions[f].pos;
                if inlined_height > MAX_NESTING {
                    return Err(FrontendError::RecursionLimitExceeded {
                        pos,
                        limit: MAX_NESTING,
                    });
                }
                if calls > MAX_INLINED_CALLS {
                    return Err(FrontendError::InliningLimitExceeded {
                        pos,
                        limit: MAX_INLINED_CALLS,
                    });
                }
                marks[f] = Mark::Done {
                    height: inlined_height,
                    calls,
                };
                stack.pop();
            }
        }
        Ok(())
    }
}

/// The height of statement `s` at position `at` (the statement nesting
/// above it), counting one level per statement body and per expression
/// node, as the parser does. Pushes every call, by name, with the
/// position its callee's body takes once inlined. Recursion here is
/// bounded by [`MAX_NESTING`], which the parser enforces.
fn stmt_shape<'e>(s: &'e Stmt, at: usize, calls: &mut Vec<(&'e str, usize)>) -> usize {
    let expr = |e: &'e Expr, calls: &mut Vec<_>| expr_shape(e, at, calls);
    let body = |stmts: &'e [Stmt], calls: &mut Vec<_>| {
        stmts
            .iter()
            .map(|s| stmt_shape(s, at + 1, calls))
            .fold(at, usize::max)
    };
    match s {
        Stmt::Decl { init, .. } => init.as_ref().map_or(at, |e| expr(e, calls)),
        Stmt::Assign { value, .. } => expr(value, calls),
        Stmt::AssignIndex { index, value, .. } => expr(index, calls).max(expr(value, calls)),
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => expr(cond, calls)
            .max(body(then_body, calls))
            .max(body(else_body, calls)),
        Stmt::While { cond, body: b, .. } => expr(cond, calls).max(body(b, calls)),
        Stmt::For {
            init,
            cond,
            step,
            body: b,
            ..
        } => stmt_shape(init, at, calls)
            .max(expr(cond, calls))
            .max(stmt_shape(step, at, calls))
            .max(body(b, calls)),
        Stmt::Return { value, .. } => value.as_ref().map_or(at, |e| expr(e, calls)),
        Stmt::Expr(e) => expr(e, calls),
    }
}

/// The height of expression `e` at position `at`, as [`stmt_shape`].
fn expr_shape<'e>(e: &'e Expr, at: usize, calls: &mut Vec<(&'e str, usize)>) -> usize {
    match e {
        Expr::Call { name, args, .. } => {
            calls.push((name, at + 1));
            args.iter()
                .map(|a| expr_shape(a, at + 1, calls))
                .fold(at, usize::max)
        }
        Expr::Binary { lhs, rhs, .. } => {
            expr_shape(lhs, at + 1, calls).max(expr_shape(rhs, at + 1, calls))
        }
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => {
            expr_shape(operand, at + 1, calls)
        }
        Expr::Index { index, .. } => expr_shape(index, at + 1, calls),
        _ => at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<(), FrontendError> {
        check(&parse(src).expect("parses"))
    }

    #[test]
    fn accepts_well_typed_program() {
        check_src(
            r#"
            input float x[8];
            output float y[8];
            float scale(float v, float k) { return v * k; }
            void main() {
                int i;
                for (i = 0; i < 8; i = i + 1) {
                    y[i] = scale(x[i], 2.0);
                }
            }
            "#,
        )
        .expect("valid program");
    }

    #[test]
    fn requires_main() {
        let e = check_src("void notmain() { }").unwrap_err();
        assert!(e.to_string().contains("main"));
    }

    #[test]
    fn main_must_be_void_nullary() {
        assert!(check_src("int main() { return 1; }").is_err());
        assert!(check_src("void main(int x) { }").is_err());
    }

    #[test]
    fn rejects_undeclared_names() {
        assert!(check_src("void main() { x = 1; }").is_err());
        assert!(check_src("void main() { int a; a = b + 1; }").is_err());
        assert!(check_src("void main() { int a; a = z[0]; }").is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(check_src("int x; int x; void main() { }").is_err());
        assert!(check_src("void main() { int a; int a; }").is_err());
        // shadowing in an inner scope is fine
        check_src("void main() { int a; if (1) { int a; a = 2; } }").expect("shadowing ok");
    }

    #[test]
    fn rejects_float_index_and_int_only_misuse() {
        assert!(check_src("input int x[4]; void main() { int a; a = x[1.5]; }").is_err());
        assert!(check_src("void main() { float f; int a; f = 1.0; a = a << f; }").is_err());
        assert!(check_src("void main() { float f; f = 1.0 % 2.0; }").is_err());
    }

    #[test]
    fn rejects_recursion() {
        let direct = "int f(int x) { return f(x); } void main() { }";
        assert!(check_src(direct).is_err());
        let mutual = r#"
            int g(int x) { return h(x); }
            int h(int x) { return g(x); }
            void main() { }
        "#;
        assert!(check_src(mutual).is_err());
    }

    #[test]
    fn rejects_bad_calls() {
        assert!(check_src("void main() { int a; a = undef(1); }").is_err());
        assert!(
            check_src("float f(float a) { return a; } void main() { float x; x = f(); }").is_err()
        );
        assert!(check_src("void main() { float x; x = sin(1.0, 2.0); }").is_err());
        assert!(check_src("void v() { } void main() { int a; a = v(); }").is_err());
    }

    #[test]
    fn rejects_return_mismatches() {
        assert!(check_src("void main() { return 1; }").is_err());
        assert!(check_src("int f() { return; } void main() { }").is_err());
    }

    #[test]
    fn void_call_statement_is_fine() {
        check_src("void side() { } void main() { side(); }").expect("void call stmt");
    }

    #[test]
    fn rejects_intrinsic_shadowing() {
        assert!(check_src("float sin(float x) { return x; } void main() { }").is_err());
    }
}
