//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::error::{FrontendError, Pos};
use crate::lexer::Lexer;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// The deepest nesting the parser accepts. Every statement body, unary
/// operator, cast, parenthesis, index, call and binary operator is one
/// level, and no node of the tree may sit more than this many levels
/// below its function body. That bounds both the parser's own recursion
/// and the height of the tree handed to semantic analysis and lowering,
/// which walk it recursively, so both fit a 2 MiB thread stack.
pub const MAX_NESTING: usize = 256;

/// Parse mini-C source into a [`Unit`], lexing it on demand: the
/// parser holds at most two tokens, so a source it rejects early is never
/// tokenized past that point.
///
/// # Errors
///
/// Returns [`FrontendError::Lex`] on the first malformed token,
/// [`FrontendError::Parse`] with the position of the offending token, or
/// [`FrontendError::RecursionLimitExceeded`] when the source nests deeper
/// than [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<Unit, FrontendError> {
    let mut lexer = Lexer::new(source);
    let tok = lexer.next_token()?;
    Parser {
        lexer,
        tok,
        ahead: None,
        depth: 0,
    }
    .unit()
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token.
    tok: Token,
    /// The token after it, once something has looked that far.
    ahead: Option<Token>,
    /// Nesting levels open above the node being parsed (see
    /// [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek_kind(&self) -> &TokenKind {
        &self.tok.kind
    }

    /// The kind of the token after the current one.
    fn peek2_kind(&mut self) -> Result<&TokenKind, FrontendError> {
        if self.ahead.is_none() {
            self.ahead = Some(self.lexer.next_token()?);
        }
        Ok(&self.ahead.as_ref().expect("filled above").kind)
    }

    fn pos(&self) -> Pos {
        self.tok.pos
    }

    /// Advance, returning the token moved past. At the end of input the
    /// current token stays `Eof`.
    fn bump(&mut self) -> Result<Token, FrontendError> {
        let next = match self.ahead.take() {
            Some(t) => t,
            None => self.lexer.next_token()?,
        };
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn err(&self, detail: impl Into<String>) -> FrontendError {
        FrontendError::parse(self.pos(), detail.into())
    }

    /// Fail when a subtree `height` levels tall, rooted at the current
    /// depth, reaches past [`MAX_NESTING`].
    fn check_height(&self, height: usize) -> Result<(), FrontendError> {
        if self.depth + height > MAX_NESTING {
            return Err(FrontendError::RecursionLimitExceeded {
                pos: self.pos(),
                limit: MAX_NESTING,
            });
        }
        Ok(())
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        self.depth += 1;
        self.check_height(0)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn eat_punct(&mut self, p: Punct) -> Result<(), FrontendError> {
        match self.peek_kind() {
            TokenKind::Punct(q) if *q == p => {
                self.bump()?;
                Ok(())
            }
            other => Err(self.err(format!("expected `{p}`, found {other}"))),
        }
    }

    fn try_punct(&mut self, p: Punct) -> Result<bool, FrontendError> {
        let found = matches!(self.peek_kind(), TokenKind::Punct(q) if *q == p);
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn eat_ident(&mut self) -> Result<String, FrontendError> {
        match self.peek_kind() {
            TokenKind::Ident(_) => match self.bump()?.kind {
                TokenKind::Ident(s) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn try_scalar_ty(&mut self) -> Result<Option<ScalarTy>, FrontendError> {
        let ty = match self.peek_kind() {
            TokenKind::Keyword(Keyword::Int) => ScalarTy::Int,
            TokenKind::Keyword(Keyword::Float) => ScalarTy::Float,
            _ => return Ok(None),
        };
        self.bump()?;
        Ok(Some(ty))
    }

    fn unit(mut self) -> Result<Unit, FrontendError> {
        let mut unit = Unit::default();
        loop {
            match self.peek_kind() {
                TokenKind::Eof => return Ok(unit),
                TokenKind::Keyword(Keyword::Input) => {
                    self.bump()?;
                    unit.arrays.push(self.array_def(Storage::Input)?);
                }
                TokenKind::Keyword(Keyword::Output) => {
                    self.bump()?;
                    unit.arrays.push(self.array_def(Storage::Output)?);
                }
                TokenKind::Keyword(Keyword::Void) => {
                    let pos = self.pos();
                    self.bump()?;
                    let name = self.eat_ident()?;
                    unit.functions.push(self.func_def(name, None, pos)?);
                }
                TokenKind::Keyword(Keyword::Int | Keyword::Float) => {
                    let pos = self.pos();
                    let ty = self.try_scalar_ty()?.expect("peeked");
                    let name = self.eat_ident()?;
                    match self.peek_kind() {
                        TokenKind::Punct(Punct::LParen) => {
                            unit.functions.push(self.func_def(name, Some(ty), pos)?);
                        }
                        TokenKind::Punct(Punct::LBracket) => {
                            unit.arrays.push(self.array_def_named(
                                name,
                                ty,
                                Storage::Internal,
                                pos,
                            )?);
                        }
                        TokenKind::Punct(Punct::Semi) => {
                            self.bump()?;
                            unit.globals.push(GlobalDef { name, ty, pos });
                        }
                        other => {
                            return Err(self.err(format!(
                                "expected `(`, `[` or `;` after global `{name}`, found {other}"
                            )))
                        }
                    }
                }
                other => return Err(self.err(format!("expected declaration, found {other}"))),
            }
        }
    }

    fn array_def(&mut self, storage: Storage) -> Result<ArrayDef, FrontendError> {
        let pos = self.pos();
        let ty = self
            .try_scalar_ty()?
            .ok_or_else(|| self.err("expected element type"))?;
        let name = self.eat_ident()?;
        self.array_def_named(name, ty, storage, pos)
    }

    fn array_def_named(
        &mut self,
        name: String,
        ty: ScalarTy,
        storage: Storage,
        pos: Pos,
    ) -> Result<ArrayDef, FrontendError> {
        self.eat_punct(Punct::LBracket)?;
        let len = match self.peek_kind() {
            TokenKind::IntLit(v) if *v > 0 => {
                let v = *v as usize;
                self.bump()?;
                v
            }
            other => return Err(self.err(format!("expected positive array length, found {other}"))),
        };
        self.eat_punct(Punct::RBracket)?;
        self.eat_punct(Punct::Semi)?;
        Ok(ArrayDef {
            name,
            ty,
            len,
            storage,
            pos,
        })
    }

    fn func_def(
        &mut self,
        name: String,
        ret: Option<ScalarTy>,
        pos: Pos,
    ) -> Result<FuncDef, FrontendError> {
        self.eat_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.try_punct(Punct::RParen)? {
            loop {
                let ty = self
                    .try_scalar_ty()?
                    .ok_or_else(|| self.err("expected parameter type"))?;
                let pname = self.eat_ident()?;
                params.push((pname, ty));
                if self.try_punct(Punct::RParen)? {
                    break;
                }
                self.eat_punct(Punct::Comma)?;
            }
        }
        let body = self.block()?;
        Ok(FuncDef {
            name,
            ret,
            params,
            body,
            pos,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.eat_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.try_punct(Punct::RBrace)? {
            if matches!(self.peek_kind(), TokenKind::Eof) {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.nested(|p| {
            if matches!(p.peek_kind(), TokenKind::Punct(Punct::LBrace)) {
                p.block()
            } else {
                Ok(vec![p.stmt()?])
            }
        })
    }

    /// `+=`/`-=`/`*=`//`=` desugar target, if the next token is one.
    fn peek_compound_assign(&self) -> Option<BinaryOp> {
        match self.peek_kind() {
            TokenKind::Punct(Punct::PlusAssign) => Some(BinaryOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(BinaryOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(BinaryOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(BinaryOp::Div),
            _ => None,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let pos = self.pos();
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Int | Keyword::Float) => {
                let ty = self.try_scalar_ty()?.expect("peeked");
                let name = self.eat_ident()?;
                let init = if self.try_punct(Punct::Assign)? {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.eat_punct(Punct::Semi)?;
                Ok(Stmt::Decl {
                    name,
                    ty,
                    init,
                    pos,
                })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump()?;
                self.eat_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                let then_body = self.stmt_or_block()?;
                let else_body = if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Else)) {
                    self.bump()?;
                    self.stmt_or_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump()?;
                self.eat_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::While { cond, body, pos })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump()?;
                self.eat_punct(Punct::LParen)?;
                let init = Box::new(self.simple_assign()?);
                self.eat_punct(Punct::Semi)?;
                let cond = self.expr()?;
                self.eat_punct(Punct::Semi)?;
                let step = Box::new(self.simple_assign()?);
                self.eat_punct(Punct::RParen)?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    pos,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump()?;
                let value = if self.try_punct(Punct::Semi)? {
                    None
                } else {
                    let e = self.expr()?;
                    self.eat_punct(Punct::Semi)?;
                    Some(e)
                };
                Ok(Stmt::Return { value, pos })
            }
            TokenKind::Ident(_) => {
                // assignment or expression statement: both start with the
                // identifier, and an indexed target with `x[i]` too
                let name = self.eat_ident()?;
                if let Some(op) = self.peek_compound_assign() {
                    // `x op= e` desugars to `x = x op e`
                    self.bump()?;
                    let rhs = self.expr()?;
                    self.eat_punct(Punct::Semi)?;
                    return Ok(Stmt::Assign {
                        value: Expr::Binary {
                            op,
                            lhs: Box::new(Expr::Var(name.clone(), pos)),
                            rhs: Box::new(rhs),
                            pos,
                        },
                        name,
                        pos,
                    });
                }
                match self.peek_kind() {
                    TokenKind::Punct(Punct::Assign) => {
                        self.bump()?;
                        let value = self.expr()?;
                        self.eat_punct(Punct::Semi)?;
                        Ok(Stmt::Assign { name, value, pos })
                    }
                    TokenKind::Punct(Punct::LBracket) => {
                        self.bump()?;
                        let (index, index_height) = self.binary_expr(0)?;
                        self.eat_punct(Punct::RBracket)?;
                        if let Some(op) = self.peek_compound_assign() {
                            // `x[i] op= e` desugars to `x[i] = x[i] op e`
                            // (the index expression is pure, so double
                            // evaluation is observationally equivalent)
                            self.bump()?;
                            let rhs = self.expr()?;
                            self.eat_punct(Punct::Semi)?;
                            return Ok(Stmt::AssignIndex {
                                value: Expr::Binary {
                                    op,
                                    lhs: Box::new(Expr::Index {
                                        name: name.clone(),
                                        index: Box::new(index.clone()),
                                        pos,
                                    }),
                                    rhs: Box::new(rhs),
                                    pos,
                                },
                                name,
                                index,
                                pos,
                            });
                        }
                        if self.try_punct(Punct::Assign)? {
                            let value = self.expr()?;
                            self.eat_punct(Punct::Semi)?;
                            Ok(Stmt::AssignIndex {
                                name,
                                index,
                                value,
                                pos,
                            })
                        } else {
                            // `x[i]` opens an expression statement; the
                            // index sits one level below it
                            let height = index_height + 1;
                            self.check_height(height)?;
                            let e = Expr::Index {
                                name,
                                index: Box::new(index),
                                pos,
                            };
                            self.expr_stmt((e, height))
                        }
                    }
                    _ => {
                        let primary = self.ident_primary(name, pos)?;
                        self.expr_stmt(primary)
                    }
                }
            }
            other => Err(self.err(format!("expected statement, found {other}"))),
        }
    }

    /// `ident = expr` or `ident[expr] = expr` (no trailing `;`) for `for`
    /// headers.
    fn simple_assign(&mut self) -> Result<Stmt, FrontendError> {
        let pos = self.pos();
        let name = self.eat_ident()?;
        if let Some(op) = self.peek_compound_assign() {
            self.bump()?;
            let rhs = self.expr()?;
            return Ok(Stmt::Assign {
                value: Expr::Binary {
                    op,
                    lhs: Box::new(Expr::Var(name.clone(), pos)),
                    rhs: Box::new(rhs),
                    pos,
                },
                name,
                pos,
            });
        }
        if self.try_punct(Punct::LBracket)? {
            let index = self.expr()?;
            self.eat_punct(Punct::RBracket)?;
            self.eat_punct(Punct::Assign)?;
            let value = self.expr()?;
            Ok(Stmt::AssignIndex {
                name,
                index,
                value,
                pos,
            })
        } else {
            self.eat_punct(Punct::Assign)?;
            let value = self.expr()?;
            Ok(Stmt::Assign { name, value, pos })
        }
    }

    /// The rest of an expression statement whose first primary, with its
    /// height, is already parsed.
    fn expr_stmt(&mut self, primary: (Expr, usize)) -> Result<Stmt, FrontendError> {
        let (e, _) = self.binary_rest(primary, 0)?;
        self.eat_punct(Punct::Semi)?;
        Ok(Stmt::Expr(e))
    }

    // --- expressions, precedence climbing -------------------------------

    fn expr(&mut self) -> Result<Expr, FrontendError> {
        Ok(self.binary_expr(0)?.0)
    }

    /// Precedence climbing. The expression parsers return each subtree
    /// with its height, the levels it reaches below its root. The loop
    /// builds a left-deep chain without recursing, so the parser's depth
    /// stays put while each operator pushes everything built so far one
    /// level down: the chain's height, not the parser's depth, is what
    /// is checked against [`MAX_NESTING`].
    fn binary_expr(&mut self, min_prec: u8) -> Result<(Expr, usize), FrontendError> {
        let lhs = self.unary_expr()?;
        self.binary_rest(lhs, min_prec)
    }

    /// [`Parser::binary_expr`] continued from its parsed left operand.
    fn binary_rest(
        &mut self,
        (mut lhs, mut height): (Expr, usize),
        min_prec: u8,
    ) -> Result<(Expr, usize), FrontendError> {
        loop {
            let Some((op, prec)) = self.peek_binop() else {
                return Ok((lhs, height));
            };
            if prec < min_prec {
                return Ok((lhs, height));
            }
            let pos = self.pos();
            self.bump()?;
            let (rhs, rhs_height) = self.nested(|p| p.binary_expr(prec + 1))?;
            height = 1 + height.max(rhs_height);
            self.check_height(height)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
    }

    fn peek_binop(&self) -> Option<(BinaryOp, u8)> {
        let TokenKind::Punct(p) = self.peek_kind() else {
            return None;
        };
        Some(match p {
            Punct::PipePipe => (BinaryOp::LogOr, 1),
            Punct::AmpAmp => (BinaryOp::LogAnd, 2),
            Punct::Pipe => (BinaryOp::BitOr, 3),
            Punct::Caret => (BinaryOp::BitXor, 4),
            Punct::Amp => (BinaryOp::BitAnd, 5),
            Punct::EqEq => (BinaryOp::Eq, 6),
            Punct::Ne => (BinaryOp::Ne, 6),
            Punct::Lt => (BinaryOp::Lt, 7),
            Punct::Le => (BinaryOp::Le, 7),
            Punct::Gt => (BinaryOp::Gt, 7),
            Punct::Ge => (BinaryOp::Ge, 7),
            Punct::Shl => (BinaryOp::Shl, 8),
            Punct::Shr => (BinaryOp::Shr, 8),
            Punct::Plus => (BinaryOp::Add, 9),
            Punct::Minus => (BinaryOp::Sub, 9),
            Punct::Star => (BinaryOp::Mul, 10),
            Punct::Slash => (BinaryOp::Div, 10),
            Punct::Percent => (BinaryOp::Rem, 10),
            _ => return None,
        })
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize), FrontendError> {
        let pos = self.pos();
        match self.peek_kind() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump()?;
                let (operand, height) = self.nested(Self::unary_expr)?;
                let e = Expr::Unary {
                    op: UnaryOp::Neg,
                    operand: Box::new(operand),
                    pos,
                };
                Ok((e, height + 1))
            }
            TokenKind::Punct(Punct::Bang) => {
                self.bump()?;
                let (operand, height) = self.nested(Self::unary_expr)?;
                let e = Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(operand),
                    pos,
                };
                Ok((e, height + 1))
            }
            TokenKind::Punct(Punct::LParen) => {
                // cast `(int) e` / `(float) e`, or parenthesized expression
                let cast = match self.peek2_kind()? {
                    TokenKind::Keyword(Keyword::Int) => Some(ScalarTy::Int),
                    TokenKind::Keyword(Keyword::Float) => Some(ScalarTy::Float),
                    _ => None,
                };
                if let Some(to) = cast {
                    self.bump()?; // (
                    self.bump()?; // type
                    self.eat_punct(Punct::RParen)?;
                    let (operand, height) = self.nested(Self::unary_expr)?;
                    let e = Expr::Cast {
                        to,
                        operand: Box::new(operand),
                        pos,
                    };
                    return Ok((e, height + 1));
                }
                self.bump()?;
                let (e, height) = self.nested(|p| p.binary_expr(0))?;
                self.eat_punct(Punct::RParen)?;
                Ok((e, height + 1))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<(Expr, usize), FrontendError> {
        let pos = self.pos();
        match self.peek_kind() {
            &TokenKind::IntLit(v) => {
                self.bump()?;
                Ok((Expr::IntLit(v, pos), 0))
            }
            &TokenKind::FloatLit(v) => {
                self.bump()?;
                Ok((Expr::FloatLit(v, pos), 0))
            }
            TokenKind::Ident(_) => {
                let name = self.eat_ident()?;
                self.ident_primary(name, pos)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    /// The primary an identifier at `pos` opens: an index `name[e]`, a
    /// call `name(args)` or the variable itself.
    fn ident_primary(&mut self, name: String, pos: Pos) -> Result<(Expr, usize), FrontendError> {
        if self.try_punct(Punct::LBracket)? {
            let (index, height) = self.nested(|p| p.binary_expr(0))?;
            self.eat_punct(Punct::RBracket)?;
            let e = Expr::Index {
                name,
                index: Box::new(index),
                pos,
            };
            Ok((e, height + 1))
        } else if self.try_punct(Punct::LParen)? {
            let mut args = Vec::new();
            let mut height = 0;
            if !self.try_punct(Punct::RParen)? {
                loop {
                    let (arg, arg_height) = self.nested(|p| p.binary_expr(0))?;
                    args.push(arg);
                    height = height.max(arg_height);
                    if self.try_punct(Punct::RParen)? {
                        break;
                    }
                    self.eat_punct(Punct::Comma)?;
                }
            }
            Ok((Expr::Call { name, args, pos }, height + 1))
        } else {
            Ok((Expr::Var(name, pos), 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> Unit {
        parse(src).expect("parses")
    }

    #[test]
    fn parses_arrays_globals_functions() {
        let u = parse_src(
            r#"
            input float x[100];
            output int y[10];
            float scratch[5];
            int counter;
            void main() { }
            float helper(float a, int b) { return a; }
            "#,
        );
        assert_eq!(u.arrays.len(), 3);
        assert_eq!(u.arrays[0].storage, Storage::Input);
        assert_eq!(u.arrays[1].storage, Storage::Output);
        assert_eq!(u.arrays[2].storage, Storage::Internal);
        assert_eq!(u.globals.len(), 1);
        assert_eq!(u.functions.len(), 2);
        assert_eq!(u.functions[1].params.len(), 2);
        assert_eq!(u.functions[1].ret, Some(ScalarTy::Float));
    }

    #[test]
    fn precedence_mul_over_add() {
        let u = parse_src("void main() { int a; a = 1 + 2 * 3; }");
        let Stmt::Assign { value, .. } = &u.functions[0].body[1] else {
            panic!("expected assign");
        };
        let Expr::Binary { op, rhs, .. } = value else {
            panic!("expected binary");
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_for_loop_and_if_else() {
        let u = parse_src(
            r#"
            void main() {
                int i;
                for (i = 0; i < 10; i = i + 1) {
                    if (i > 5) { i = i + 2; } else i = i + 1;
                }
            }
            "#,
        );
        let Stmt::For { body, .. } = &u.functions[0].body[1] else {
            panic!("expected for");
        };
        assert!(matches!(body[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_casts_and_calls() {
        let u = parse_src("void main() { float f; f = (float) 3 + sin(1.0); }");
        let Stmt::Assign { value, .. } = &u.functions[0].body[1] else {
            panic!()
        };
        let Expr::Binary { lhs, rhs, .. } = value else {
            panic!()
        };
        assert!(matches!(
            **lhs,
            Expr::Cast {
                to: ScalarTy::Float,
                ..
            }
        ));
        assert!(matches!(**rhs, Expr::Call { .. }));
    }

    #[test]
    fn parses_array_assignment_and_read() {
        let u = parse_src("input int x[4]; output int y[4]; void main() { y[0] = x[1] + 1; }");
        assert!(matches!(u.functions[0].body[0], Stmt::AssignIndex { .. }));
    }

    #[test]
    fn parenthesized_expression_is_not_cast() {
        let u = parse_src("void main() { int a; a = (1 + 2) * 3; }");
        let Stmt::Assign { value, .. } = &u.functions[0].body[1] else {
            panic!()
        };
        assert!(matches!(
            value,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn compound_assignments_desugar() {
        let u = parse_src(
            r#"
            input int x[4]; output int y[4];
            void main() {
                int acc;
                acc = 0;
                acc += x[0];
                acc -= 2;
                acc *= 3;
                acc /= 2;
                y[1] += acc;
                for (acc = 0; acc < 4; acc += 1) { y[0] = acc; }
            }
            "#,
        );
        let body = &u.functions[0].body;
        // acc += x[0] becomes acc = acc + x[0]
        let Stmt::Assign { name, value, .. } = &body[2] else {
            panic!("expected assign");
        };
        assert_eq!(name, "acc");
        assert!(matches!(
            value,
            Expr::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
        // y[1] += acc becomes y[1] = y[1] + acc
        let Stmt::AssignIndex { value, .. } = &body[6] else {
            panic!("expected indexed assign");
        };
        assert!(matches!(
            value,
            Expr::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
        // the for-step `acc += 1` also desugars
        let Stmt::For { step, .. } = &body[7] else {
            panic!("expected for");
        };
        assert!(matches!(**step, Stmt::Assign { .. }));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse("void main() { int; }").is_err());
        assert!(parse("void main() {").is_err());
        assert!(parse("int x[0];").is_err(), "zero-length array rejected");
    }

    #[test]
    fn logical_ops_parse_with_lowest_precedence() {
        let u = parse_src("void main() { int a; a = 1 < 2 && 3 < 4 || 0; }");
        let Stmt::Assign { value, .. } = &u.functions[0].body[1] else {
            panic!()
        };
        assert!(matches!(
            value,
            Expr::Binary {
                op: BinaryOp::LogOr,
                ..
            }
        ));
    }
}
