//! Frontend error type.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// Errors produced by the mini-C front end.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// Lexical error (bad character, malformed literal).
    Lex {
        /// Where the problem was found.
        pos: Pos,
        /// Explanation.
        detail: String,
    },
    /// Syntax error.
    Parse {
        /// Where the problem was found.
        pos: Pos,
        /// Explanation.
        detail: String,
    },
    /// The source nests deeper than the front end accepts: statement
    /// bodies and the expression tree below them together may be at most
    /// `limit` levels high ([`crate::parser::MAX_NESTING`]), so no later
    /// walk over the tree can overflow the stack. The bound also holds
    /// for a function with every call inlined.
    RecursionLimitExceeded {
        /// Where the limit was crossed.
        pos: Pos,
        /// The nesting limit.
        limit: usize,
    },
    /// A function inlines more than `limit` calls, counting the calls
    /// inside every body it inlines ([`crate::sema::MAX_INLINED_CALLS`]),
    /// so lowering would emit too many bodies.
    InliningLimitExceeded {
        /// The function over the limit.
        pos: Pos,
        /// The inlined-call limit.
        limit: usize,
    },
    /// Semantic error (types, undeclared names, recursion, ...).
    Sema {
        /// Where the problem was found.
        pos: Pos,
        /// Explanation.
        detail: String,
    },
    /// Lowering produced IR the validator rejected (an internal bug).
    Lowering(asip_ir::IrError),
}

impl FrontendError {
    pub(crate) fn lex(pos: Pos, detail: impl Into<String>) -> Self {
        FrontendError::Lex {
            pos,
            detail: detail.into(),
        }
    }

    pub(crate) fn parse(pos: Pos, detail: impl Into<String>) -> Self {
        FrontendError::Parse {
            pos,
            detail: detail.into(),
        }
    }

    pub(crate) fn sema(pos: Pos, detail: impl Into<String>) -> Self {
        FrontendError::Sema {
            pos,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Lex { pos, detail } => write!(f, "lexical error at {pos}: {detail}"),
            FrontendError::Parse { pos, detail } => write!(f, "syntax error at {pos}: {detail}"),
            FrontendError::RecursionLimitExceeded { pos, limit } => {
                write!(f, "nesting deeper than {limit} levels at {pos}")
            }
            FrontendError::InliningLimitExceeded { pos, limit } => {
                write!(
                    f,
                    "more than {limit} inlined calls in the function at {pos}"
                )
            }
            FrontendError::Sema { pos, detail } => write!(f, "semantic error at {pos}: {detail}"),
            FrontendError::Lowering(e) => write!(f, "internal lowering error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontendError::Lowering(e) => Some(e),
            _ => None,
        }
    }
}

impl From<asip_ir::IrError> for FrontendError {
    fn from(e: asip_ir::IrError) -> Self {
        FrontendError::Lowering(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_include_positions() {
        let e = FrontendError::parse(Pos { line: 3, col: 9 }, "expected `;`");
        assert_eq!(
            e.to_string(),
            "syntax error at line 3, column 9: expected `;`"
        );
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_bounds<T: std::error::Error + Send + Sync>() {}
        assert_bounds::<FrontendError>();
    }
}
