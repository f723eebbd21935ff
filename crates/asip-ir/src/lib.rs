//! # asip-ir
//!
//! The three-address intermediate representation (TAC) shared by every
//! stage of the `asip-explorer` pipeline, together with the control-flow
//! and data-flow analyses the optimizer and the sequence detector need.
//!
//! In the paper's flow (Figure 2) this is the "3-address code" produced by
//! the modified gcc front end; here it is produced by
//! [`asip-frontend`](https://docs.rs/asip-frontend) and consumed by the
//! simulator, the optimizer and the ASIP synthesis stage.
//!
//! ## Layout
//!
//! - [`types`] — value types, registers, operands and id newtypes.
//! - [`op`] — operations and the [`OpClass`] vocabulary used for
//!   sequence signatures (`add-multiply`, `fload-fmultiply`, …).
//! - [`inst`] / [`block`] / [`program`] — the IR proper.
//! - [`builder`] — ergonomic construction of programs.
//! - [`cfg`](mod@cfg) — successors/predecessors, reverse postorder, dominators.
//! - [`loops`] — natural-loop detection (for loop pipelining).
//! - [`dataflow`] — def/use information and liveness.
//! - [`deps`] — flow/anti/output dependence queries.
//! - [`print`](mod@print) — a readable textual dump of programs.
//!
//! ## Example
//!
//! ```
//! use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
//!
//! let mut b = ProgramBuilder::new("dot2");
//! let x = b.input_array("x", Ty::Int, 2);
//! let acc = b.new_reg(Ty::Int);
//! let entry = b.entry_block();
//! b.select_block(entry);
//! let x0 = b.load(x, Operand::imm_int(0));
//! let x1 = b.load(x, Operand::imm_int(1));
//! let prod = b.binary(BinOp::Mul, x0.into(), x1.into());
//! b.mov_to(acc, prod.into());
//! b.ret(None);
//! let program = b.finish().expect("well-formed program");
//! assert_eq!(program.blocks().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod deps;
pub mod error;
pub mod inst;
pub mod loops;
pub mod op;
pub mod passes;
pub mod print;
pub mod program;
pub mod types;

pub use block::Block;
pub use builder::ProgramBuilder;
pub use cfg::{Cfg, Dominators};
pub use dataflow::{DefUse, Liveness};
pub use deps::{DepKind, Dependence};
pub use error::{IrError, Result};
pub use inst::{Inst, InstKind};
pub use loops::{Loop, LoopForest};
pub use op::{BinOp, MathFn, OpClass, UnOp};
pub use program::{ArrayDecl, ArrayKind, Program};
pub use types::{ArrayId, BlockId, InstId, Operand, Reg, Ty, Value};
