//! # asip-sim
//!
//! A deterministic interpreter and profiler for [`asip_ir`] programs.
//!
//! This is the "Simulator / Profiler" of the paper's Figure 2 (step 2): it
//! executes the unoptimized 3-address code on sample input data and
//! attaches a dynamic execution count to every static instruction. The
//! optimizer and the sequence detection analyzer consume those counts as
//! the *dynamic frequency* weights of the paper's result tables.
//!
//! Execution goes through the pre-decoded engine in [`decode`]: the
//! program is lowered once into a dense slot-indexed instruction array
//! and the hot loop runs over copy-only structs with block-granular
//! step accounting and profiles derived from block entry counts. All
//! per-run data lives in an arena-backed, pooled run state that is
//! reset by `memcpy` — repeated runs of one [`Engine`] pay zero
//! per-run bank allocations. [`Simulator`] is the borrowing one-shot
//! facade; [`Engine`] owns its program and amortizes the decode over
//! many runs; the original walk-the-IR interpreter is retained in
//! [`mod@reference`] as the executable specification the differential
//! tests compare against.
//!
//! A run observes nothing per step: its [`Profile`] is the record of
//! what executed, and [`Profile::class_mix`] folds it into a dynamic
//! op-class mix.
//!
//! ## Example
//!
//! ```
//! use asip_sim::{DataSet, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = build_program()?;
//! let mut data = DataSet::new();
//! data.bind_ints("x", vec![1, 2, 3, 4]);
//! let exec = Simulator::new(&program).run(&data)?;
//! assert!(exec.profile.total_ops() > 0);
//! # Ok(())
//! # }
//! # fn build_program() -> Result<asip_ir::Program, asip_ir::IrError> {
//! #     use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
//! #     let mut b = ProgramBuilder::new("t");
//! #     let x = b.input_array("x", Ty::Int, 4);
//! #     let e = b.entry_block();
//! #     b.select_block(e);
//! #     let v = b.load(x, Operand::imm_int(0));
//! #     let _ = b.binary(BinOp::Add, v.into(), Operand::imm_int(1));
//! #     b.ret(None);
//! #     b.finish()
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod decode;
pub mod error;
pub mod machine;
pub mod profile;
pub mod reference;

pub use data::{DataGen, DataSet};
pub use decode::{DecodedProgram, Engine, OutputImage, RunOutcome, RunStateStats};
pub use error::{Result, SimError};
pub use machine::{Execution, Simulator};
pub use profile::Profile;
pub use reference::ReferenceSimulator;
