//! # asip-chains
//!
//! The paper's core contribution (Figure 2, step 4): the **sequence
//! detection analyzer**. Given an optimized program graph
//! ([`asip_opt::ScheduleGraph`]) carrying dynamic profile weights, it
//! performs a branch-and-bound search for *chainable operation
//! sequences* — chains `o₁ → o₂ → … → oₖ` in which each operation's
//! result feeds an operand of the next and consecutive operations sit
//! within the chaining window of the schedule. Each detected sequence
//! type ("signature", e.g. `multiply-add`) is reported with its dynamic
//! frequency: the percentage of the benchmark's execution time its
//! occurrences account for. Ops are named by their position in the
//! graph's flat op array ([`asip_opt::OpId`]).
//!
//! Three analyses reproduce the paper's results:
//!
//! - [`SequenceDetector::analyze`] — the per-benchmark frequency tables
//!   behind Figures 3–6 and Table 2;
//! - [`CoverageAnalyzer`] — the iterative greedy coverage study of
//!   Table 3 (find the top sequence, consume its occurrences, repeat);
//! - [`combine`](fn@combine) — the cross-benchmark pooling of Section 6.1.
//!
//! ## Example
//!
//! ```
//! use asip_chains::{DetectorConfig, SequenceDetector};
//! use asip_opt::{OptLevel, Optimizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = asip_frontend::compile("t", r#"
//!     input int x[32]; output int y[32];
//!     void main() {
//!         int i;
//!         for (i = 0; i < 32; i = i + 1) { y[i] = x[i] * 3 + 1; }
//!     }
//! "#)?;
//! let mut data = asip_sim::DataSet::new();
//! data.bind_ints("x", (0..32).collect());
//! let exec = asip_sim::Simulator::new(&program).run(&data)?;
//! let graph = Optimizer::new(OptLevel::Pipelined).run(&program, &exec.profile);
//!
//! let report = SequenceDetector::new(DetectorConfig::default()).analyze(&graph);
//! let (top, stats) = report.top(1).next().expect("sequences found");
//! println!("hottest sequence: {top} at {:.2}%", stats.frequency);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod coverage;
pub mod detect;
pub mod report;
pub mod signature;

pub use combine::{combine, CombinedReport};
pub use coverage::{CoverageAnalyzer, CoverageEntry, CoverageReport};
pub use detect::{default_chainable, DetectorConfig, Occurrence, SequenceDetector};
pub use report::{SeqStats, SequenceReport};
pub use signature::Signature;
