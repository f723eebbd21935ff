//! `design-sweep`: on a warm Table-1 session, each pass searches a fresh
//! seeded 64-config grid with `design_space` and evaluates one shared
//! suite design for each of two of its configs.

use super::{err, largest, ms_since, ratio, rewritten_mops, Ctx, PassRecord, Workload};
use crate::grid;
use crate::oracle;
use asip_explorer::benchmarks::registry;
use asip_explorer::sim::Engine;
use asip_explorer::synth::DesignConstraints;
use asip_explorer::{DesignSpaced, EvaluatedSuite, Explorer, ExplorerError};
use std::sync::Arc;
use std::time::Instant;

/// Configs of each grid whose suite design is evaluated.
const EVALUATED: usize = 2;

/// Bound on every session cache. The sweep adds a design space, suite
/// designs and rewritten engines every pass; the bound keeps a long run
/// at a steady footprint, and stays far above the 36 schedules set-up
/// caches, so no schedule is ever evicted.
const CACHE_CAPACITY: usize = 128;

pub struct DesignSweep {
    ctx: Ctx,
    session: Explorer,
    names: Vec<&'static str>,
    largest: &'static str,
    schedule_misses: u64,
}

/// What one pass produced.
struct Swept {
    space: DesignSpaced,
    /// Host time of the untraced `design_space` call.
    frontier_ms: f64,
    suites: Vec<(DesignConstraints, EvaluatedSuite)>,
    run_state_creates: u64,
}

impl DesignSweep {
    /// Warm a Table-1 session: every stage of every program at every
    /// level, so each schedule a sweep needs is a cache hit.
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let session = ctx.session(&registry()).with_cache_capacity(CACHE_CAPACITY);
        let explorations = session.explore_all().map_err(err)?;
        Ok(DesignSweep {
            ctx: ctx.clone(),
            names: explorations.iter().map(|ex| ex.benchmark.name).collect(),
            largest: largest(&explorations),
            schedule_misses: session.cache_stats().schedule.misses,
            session,
        })
    }

    fn untraced(&self, grid: &[DesignConstraints]) -> Result<Swept, ExplorerError> {
        let s = &self.session;
        let start = Instant::now();
        let space = s.design_space(grid)?;
        let frontier_ms = ms_since(start);
        let suites = grid[..EVALUATED]
            .iter()
            .map(|&c| Ok((c, s.evaluate_suite_with(&self.names, c, s.detector())?)))
            .collect::<Result<_, ExplorerError>>()?;
        Ok(Swept {
            space,
            frontier_ms,
            suites,
            run_state_creates: 0,
        })
    }

    /// The traced pass: the same calls, split so each pays only for its
    /// own stage — the frontier search, then per config the suite
    /// design, the rewrites and the evaluation.
    fn traced(&self, grid: &[DesignConstraints]) -> Result<Swept, ExplorerError> {
        let (ctx, s) = (&self.ctx, &self.session);
        // run states are counted on the engines themselves, held here
        // across each measurement so a cache eviction cannot hide one
        let creates = |engines: &[&Engine]| -> u64 {
            engines.iter().map(|e| e.run_state_stats().creates).sum()
        };
        let baseline: Vec<Arc<Engine>> = self
            .names
            .iter()
            .map(|name| s.engine(name))
            .collect::<Result<_, _>>()?;
        let baseline: Vec<&Engine> = baseline.iter().map(Arc::as_ref).collect();
        let mut run_state_creates = -(creates(&baseline) as i64);

        let space = ctx.span("synth.frontier", || s.design_space(grid))?;
        let mut suites = Vec::with_capacity(EVALUATED);
        for &c in &grid[..EVALUATED] {
            let designed = ctx.span("synth.design", || {
                s.design_suite_with(&self.names, c, s.detector())
            })?;
            let prepared = ctx.span("synth.rewrite", || {
                designed
                    .benchmarks
                    .iter()
                    .map(|name| s.prepared(name, &designed.design))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let rewritten: Vec<&Engine> = prepared.iter().map(|p| p.engine()).collect();
            run_state_creates -= creates(&rewritten) as i64;
            let suite = ctx.span("synth.evaluate", || {
                s.evaluate_suite_with(&self.names, c, s.detector())
            })?;
            run_state_creates += creates(&rewritten) as i64;
            suites.push((c, suite));
        }
        run_state_creates += creates(&baseline) as i64;
        Ok(Swept {
            space,
            frontier_ms: 0.0,
            suites,
            run_state_creates: u64::try_from(run_state_creates).unwrap_or(0),
        })
    }
}

impl Workload for DesignSweep {
    fn verify_setup(&mut self) -> Result<(), String> {
        if self.schedule_misses == 0 {
            return Err("set-up computed no schedules".into());
        }
        Ok(())
    }

    fn pass(&mut self, index: u32, traced: bool) -> Result<PassRecord, String> {
        let grid = grid::grid(self.ctx.seed, u64::from(index));
        let before = self.session.cache_stats();
        let start = Instant::now();
        let swept = if traced {
            self.ctx.span("pass", || self.traced(&grid))
        } else {
            self.untraced(&grid)
        }
        .map_err(err)?;
        let wall_ms = ms_since(start);

        let after = self.session.cache_stats();
        if after.schedule.misses != self.schedule_misses {
            return Err(format!(
                "the sweep ran the optimizer: {} schedule misses, set-up left {}",
                after.schedule.misses, self.schedule_misses
            ));
        }
        oracle::check_space(&swept.space.space)?;
        for (c, suite) in &swept.suites {
            if !oracle::fits(&suite.design, c) {
                return Err(format!("suite design exceeds {c:?}"));
            }
        }
        let speedups = swept
            .suites
            .iter()
            .map(|(c, suite)| {
                suite
                    .geomean_speedup()
                    .ok_or_else(|| format!("the suite evaluated under {c:?} has no speedup"))
            })
            .collect::<Result<_, _>>()?;
        let mut record = PassRecord {
            wall_ms,
            programs: self.names.len() as u64,
            speedups,
            ..PassRecord::default()
        };
        if !traced {
            let configs = swept.space.space.len() as f64;
            record.parts = vec![("configs_per_s", configs / (swept.frontier_ms / 1e3))];
        }
        if traced {
            let stats = swept.space.space.stats;
            let fused: usize = swept
                .suites
                .iter()
                .flat_map(|(_, suite)| suite.evaluations.iter())
                .map(|(_, e)| e.fused_chains)
                .sum();
            let misses = after.total_misses() - before.total_misses();
            let prefetch = after.total_prefetch_hits() - before.total_prefetch_hits();
            record.counts = vec![
                ("synth.frontier_expanded", stats.expanded as f64),
                ("synth.frontier_pruned", stats.pruned as f64),
                (
                    "synth.frontier_memo_hit_ratio",
                    ratio(stats.memo_hits as u64, stats.memo_misses as u64),
                ),
                ("synth.fused_chains", fused as f64),
                (
                    "opt.schedules",
                    (after.schedule.misses - before.schedule.misses) as f64,
                ),
                ("sim.run_state_creates", swept.run_state_creates as f64),
                ("session.stage_misses", misses as f64),
                ("session.prefetch_hit_ratio", ratio(prefetch, misses)),
                (
                    "sim.rewritten_mops_per_s",
                    rewritten_mops(&self.ctx, &self.session, self.largest)?,
                ),
            ];
        }
        Ok(record)
    }
}
