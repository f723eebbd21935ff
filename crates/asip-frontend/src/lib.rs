//! # asip-frontend
//!
//! A small C-subset ("mini-C") compiler front end that lowers benchmark
//! sources to [`asip_ir`] three-address code.
//!
//! This substitutes for the paper's "version of the Gnu C Compiler (gcc)
//! which was modified to generate a 3-address code" (Figure 2, step 1).
//! The sequence analysis only consumes generic 3-address code, so any
//! front end that lowers arithmetic, loops and array accesses faithfully
//! exercises the same downstream code paths.
//!
//! ## Language
//!
//! - Types: `int`, `float` (64-bit each), 1-D global arrays.
//! - Array storage classes: `input` (bound from experiment data),
//!   `output`, plain (internal scratch).
//! - Functions with value parameters and a scalar return; *all calls are
//!   inlined* (the analysis is intraprocedural, as in the paper) and
//!   recursion is rejected.
//! - Statements: declarations, assignments (including `+=`, `-=`, `*=`,
//!   `/=`, which desugar in the parser), `if`/`else`, `while`, `for`,
//!   `return`, blocks.
//! - Expressions: `+ - * / %`, shifts, bitwise `& | ^`, comparisons,
//!   `&& || !` (numeric, non-short-circuit), unary `-`, casts
//!   `(int)`/`(float)`, and the math intrinsics
//!   `sin cos sqrt fabs exp log floor`.
//! - Implicit int↔float conversions follow C: mixed arithmetic promotes
//!   to `float`, assignment converts to the destination type.
//!
//! ## Example
//!
//! ```
//! let src = r#"
//!     input int x[8];
//!     output int y[8];
//!     void main() {
//!         int i;
//!         for (i = 0; i < 8; i = i + 1) {
//!             y[i] = x[i] * x[i] + 1;
//!         }
//!     }
//! "#;
//! let program = asip_frontend::compile("sumsq", src)?;
//! assert!(program.inst_count() > 0);
//! # Ok::<(), asip_frontend::FrontendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;
pub mod token;

pub use error::FrontendError;

use asip_ir::Program;

/// Compile mini-C source text into a validated IR [`Program`].
///
/// # Errors
///
/// Returns a [`FrontendError`] describing the first lexical, syntactic or
/// semantic problem found, with source position.
pub fn compile(name: &str, source: &str) -> Result<Program, FrontendError> {
    let unit = parser::parse(source)?;
    sema::check(&unit)?;
    let mut program = lower::lower(name, &unit)?;
    // standard front-end cleanup: the "3-address code" the paper's
    // profiler and analyzer consume has no redundant temporaries
    asip_ir::passes::cleanup(&mut program);
    program.validate()?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let src = r#"
            input float x[4];
            output float y[4];
            void main() {
                int i;
                for (i = 0; i < 4; i = i + 1) {
                    y[i] = x[i] * 2.0;
                }
            }
        "#;
        let p = compile("t", src).expect("compiles");
        assert_eq!(p.name, "t");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn error_carries_position() {
        let err = compile("t", "void main() { $ }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line"), "got: {msg}");
    }
}
