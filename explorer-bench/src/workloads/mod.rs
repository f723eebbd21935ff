//! The benchmark's workloads. Each is a closed loop with one caller:
//! every session runs `with_threads(1)`, and a pass starts only after
//! the previous one has been checked.

mod cold_explore;
mod design_sweep;
mod warm_replay;

use crate::trace::Tracer;
use asip_explorer::benchmarks::Registry;
use asip_explorer::{Exploration, Explorer, ExplorerError};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's whole loop, cold, over the 36-program registry.
    ColdExplore,
    /// Frontier search and suite evaluation over fresh constraint grids
    /// on a warm Table-1 session.
    DesignSweep,
    /// Replays of a populated store through the serve daemon and
    /// through the store itself.
    WarmReplay,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::ColdExplore, Kind::DesignSweep, Kind::WarmReplay];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdExplore => "cold-explore",
            Kind::DesignSweep => "design-sweep",
            Kind::WarmReplay => "warm-replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The input seed: the sessions' data seed and the grid seed.
    pub seed: u64,
    /// A directory the workload may fill with stores; removed at exit.
    pub work: PathBuf,
    /// The span recorder (recording only during traced passes).
    pub tracer: Arc<Tracer>,
}

impl Ctx {
    /// A fresh single-threaded session over `registry` at the seed.
    fn session(&self, registry: &Registry) -> Explorer {
        Explorer::new()
            .with_registry(registry.clone())
            .with_seed(self.seed)
            .with_threads(1)
    }

    /// A path under the work directory, cleared.
    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, f)
    }
}

/// The outcome of one checked pass.
#[derive(Debug, Default)]
pub struct PassRecord {
    /// Host time of the pass's timed window.
    pub wall_ms: f64,
    /// Named values of an untraced pass: sub-window times (the two
    /// replays) and rates (the frontier search's configs per second).
    pub parts: Vec<(&'static str, f64)>,
    /// Programs the pass carried through the pipeline.
    pub programs: u64,
    /// Simulated speedups the pass measured.
    pub speedups: Vec<f64>,
    /// Per-layer counts and benchmark-side timings of a traced pass.
    pub counts: Vec<(&'static str, f64)>,
}

/// A set-up workload, ready to run passes.
pub trait Workload {
    /// Check set-up's own results, outside every timed window.
    ///
    /// # Errors
    ///
    /// A description of the failed check.
    fn verify_setup(&mut self) -> Result<(), String>;

    /// Run pass `index` (traced or not) and check its outputs.
    ///
    /// # Errors
    ///
    /// A stage error or a failed output check.
    fn pass(&mut self, index: u32, traced: bool) -> Result<PassRecord, String>;
}

/// Set up `kind`; the caller times this.
///
/// # Errors
///
/// Any stage or daemon error during set-up.
pub fn setup(kind: Kind, ctx: &Ctx, rep: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::ColdExplore => Box::new(cold_explore::ColdExplore::setup(ctx, rep)?),
        Kind::DesignSweep => Box::new(design_sweep::DesignSweep::setup(ctx)?),
        Kind::WarmReplay => Box::new(warm_replay::WarmReplay::setup(ctx, rep)?),
    })
}

fn err(e: ExplorerError) -> String {
    e.to_string()
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The name of the program with the most profiled dynamic ops.
fn largest(explorations: &[Exploration]) -> &'static str {
    explorations
        .iter()
        .max_by_key(|ex| ex.profiled.profile.total_ops())
        .map(|ex| ex.benchmark.name)
        .expect("the registry is not empty")
}

/// Throughput of the rewritten program of `name` under the session's
/// default design, in millions of dynamic ops per second: the median
/// of a few profile-only runs on the session's cached rewritten engine.
fn rewritten_mops(ctx: &Ctx, session: &Explorer, name: &str) -> Result<f64, String> {
    const RUNS: usize = 3;
    let design = session.design(name).map_err(err)?.design;
    let prepared = session.prepared(name, &design).map_err(err)?;
    let data = session
        .benchmark(name)
        .map_err(err)?
        .dataset_with_seed(ctx.seed);
    let mut secs = Vec::with_capacity(RUNS);
    let mut ops = 0;
    for _ in 0..RUNS {
        let start = Instant::now();
        let outcome = prepared
            .engine()
            .run_profile(std::hint::black_box(&data))
            .map_err(|e| e.to_string())?;
        secs.push(start.elapsed().as_secs_f64());
        ops = outcome.profile.total_ops();
    }
    let median = crate::stats::median(&secs).expect("at least one run");
    Ok(ops as f64 / median / 1e6)
}

/// `hits / (hits + misses)`, or 0 when nothing was asked.
fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}
