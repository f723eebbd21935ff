//! # asip-opt
//!
//! The optimizing-compiler substrate of the paper's Figure 2 (step 3):
//! a reconstruction of the UCI VLIW compiler's analysis-relevant behavior
//! over [`asip_ir`] programs.
//!
//! The output of optimization is a [`ScheduleGraph`] — a CFG whose nodes
//! are *wide instructions* (sets of operations issued in the same cycle),
//! exactly the "optimized program graph" the paper's sequence detection
//! analyzer consumes, kept as flat op-indexed arrays ([`OpId`]) that
//! every level builds in one place. Three optimization levels mirror
//! the paper:
//!
//! | Level | Paper name | Passes |
//! |---|---|---|
//! | [`OptLevel::None`] | "No Optimization" | sequential 3-address order, one op per node |
//! | [`OptLevel::Pipelined`] | "Pipelined" | loop pipelining (unroll-and-compact kernel formation) + percolation-style compaction and block merging |
//! | [`OptLevel::PipelinedRenamed`] | "Pipelined + Renamed" | level 1 plus register renaming (fresh destination per def, boundary copies for live-out values) |
//!
//! ## Why renaming can *hurt* sequence detection
//!
//! Without renaming, anti- and output-dependences act as motion fences
//! during compaction, which keeps a producer scheduled near its consumer.
//! Renaming dissolves those fences: producers float to their earliest
//! data-ready cycle while consumers pinned by recurrences stay late, and
//! values that cross block boundaries now flow through freshly-inserted
//! copies ("communicating only through the renamed register", as the
//! paper puts it). Both effects pull flow-dependent pairs outside the
//! chaining window — reproducing the paper's level-2 drop.
//!
//! ## Example
//!
//! ```
//! use asip_opt::{OptLevel, Optimizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = asip_frontend::compile("t", r#"
//!     input int x[16]; output int y[16];
//!     void main() {
//!         int i;
//!         for (i = 0; i < 16; i = i + 1) { y[i] = x[i] * 3 + 1; }
//!     }
//! "#)?;
//! let mut data = asip_sim::DataSet::new();
//! data.bind_ints("x", (0..16).collect());
//! let exec = asip_sim::Simulator::new(&program).run(&data)?;
//!
//! let graph = Optimizer::new(OptLevel::Pipelined).run(&program, &exec.profile);
//! assert!(graph.node_count() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod depdag;
pub mod graph;
pub mod hoist;
pub mod ifconv;
pub mod ilp;
pub mod optimizer;
pub mod pipeline;
pub mod rename;
#[cfg(test)]
mod schedule_oracle;
pub mod work;

pub use graph::{NodeId, OpId, SchedNode, ScheduleGraph, ScheduledOp};
pub use ilp::{characterize, IlpPoint, IlpReport};
pub use optimizer::{OptConfig, OptLevel, Optimizer};
