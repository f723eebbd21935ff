//! Error types for IR construction and validation.

use std::fmt;

/// Convenience alias for IR results.
pub type Result<T> = std::result::Result<T, IrError>;

/// Errors produced while building or validating IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A block reference points outside the program.
    UnknownBlock(u32),
    /// A register reference points outside the register table.
    UnknownReg(u32),
    /// An array reference points outside the array table.
    UnknownArray(u32),
    /// A block violates the single-terminator-last invariant.
    MalformedBlock(u32),
    /// Two instructions share an id.
    DuplicateInstId(u32),
    /// The program has no blocks.
    EmptyProgram,
    /// A type error detected during validation.
    TypeMismatch {
        /// Instruction id where the mismatch occurred.
        inst: u32,
        /// Human-readable explanation.
        detail: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownBlock(b) => write!(f, "reference to unknown block bb{b}"),
            IrError::UnknownReg(r) => write!(f, "reference to unknown register r{r}"),
            IrError::UnknownArray(a) => write!(f, "reference to unknown array @{a}"),
            IrError::MalformedBlock(b) => {
                write!(f, "block bb{b} is not terminated by exactly one terminator")
            }
            IrError::DuplicateInstId(i) => write!(f, "duplicate instruction id i{i}"),
            IrError::EmptyProgram => write!(f, "program has no blocks"),
            IrError::TypeMismatch { inst, detail } => {
                write!(f, "type mismatch at i{inst}: {detail}")
            }
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = IrError::UnknownBlock(3);
        assert_eq!(e.to_string(), "reference to unknown block bb3");
        let e = IrError::TypeMismatch {
            inst: 2,
            detail: "int vs float".into(),
        };
        assert!(e.to_string().contains("i2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }
}
