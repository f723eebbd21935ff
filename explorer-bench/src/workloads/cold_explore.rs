//! `cold-explore`: a fresh session over the 36-program registry runs
//! the whole loop, writing through to a fresh empty store, every pass.

use super::{err, largest, ms_since, ratio, rewritten_mops, Ctx, PassRecord, Workload};
use crate::oracle;
use crate::timing_tier::{Layer, TimingTier};
use asip_explorer::benchmarks::{full_registry, Registry};
use asip_explorer::tier::ArtifactTier;
use asip_explorer::{ArtifactStore, Exploration, Explorer, ExplorerError};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct ColdExplore {
    ctx: Ctx,
    registry: Registry,
    /// Set-up's warm-up pass, checked by [`Workload::verify_setup`].
    warmup: Vec<Exploration>,
    /// The checked warm-up pass, encoded: every pass must match it.
    expected: Vec<Vec<u8>>,
    largest: &'static str,
}

impl ColdExplore {
    /// Build the registry and run one untimed warm-up pass, so lazy
    /// process state (the generated corpus, allocator arenas, page
    /// cache) settles before the first timed pass.
    pub fn setup(ctx: &Ctx, rep: usize) -> Result<Self, String> {
        let registry = full_registry();
        let dir = ctx.fresh_dir(&format!("warmup-{rep}"));
        let warmup = ctx
            .session(&registry)
            .with_store(&dir)
            .explore_all()
            .map_err(err)?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(ColdExplore {
            ctx: ctx.clone(),
            registry,
            largest: largest(&warmup),
            warmup,
            expected: Vec::new(),
        })
    }

    /// The traced pass: the loop `explore_all` runs, one stage call at a
    /// time, so each call pays only for its own stage.
    fn traced(
        &self,
        store: Arc<dyn ArtifactTier>,
    ) -> Result<(Explorer, Vec<Exploration>), ExplorerError> {
        let ctx = &self.ctx;
        let s = ctx.span("session.open", || {
            ctx.session(&self.registry).with_tier(store)
        });
        let names: Vec<&str> = self.registry.iter().map(|b| b.name).collect();
        ctx.span("session.prefetch", || s.prefetch(&names))?;
        for &name in &names {
            ctx.span("frontend.compile", || s.compile(name))?;
            ctx.span("sim.decode", || s.engine(name))?;
            ctx.span("sim.profile", || s.profile(name))?;
            for &level in s.levels() {
                ctx.span("opt.schedule", || s.schedule(name, level))?;
            }
            for &level in s.levels() {
                ctx.span("chains.analyze", || s.analyze(name, level))?;
            }
            let designed = ctx.span("synth.design", || s.design(name))?;
            ctx.span("synth.rewrite", || s.prepared(name, &designed.design))?;
            ctx.span("synth.evaluate", || s.evaluate(name))?;
        }
        let explorations = ctx.span("session.explore_all", || s.explore_all())?;
        Ok((s, explorations))
    }
}

impl Workload for ColdExplore {
    fn verify_setup(&mut self) -> Result<(), String> {
        for ex in &self.warmup {
            oracle::check_against_reference(ex, self.ctx.seed)?;
        }
        self.expected = oracle::encode_all(&self.warmup);
        self.warmup.clear();
        Ok(())
    }

    fn pass(&mut self, index: u32, traced: bool) -> Result<PassRecord, String> {
        let dir = self.ctx.fresh_dir(&format!("store-{index}"));
        let result = self.run_pass(&dir, traced);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

impl ColdExplore {
    fn run_pass(&self, dir: &Path, traced: bool) -> Result<PassRecord, String> {
        let ctx = &self.ctx;
        let tier = traced.then(|| {
            Arc::new(TimingTier::new(
                Arc::new(ArtifactStore::open(dir)),
                Layer::Store,
                Arc::clone(&ctx.tracer),
            ))
        });
        let start = Instant::now();
        let (session, explorations) = match &tier {
            Some(tier) => {
                let store = Arc::clone(tier) as Arc<dyn ArtifactTier>;
                ctx.span("pass", || self.traced(store))
            }
            None => {
                let s = ctx.session(&self.registry).with_store(dir);
                s.explore_all().map(|ex| (s, ex))
            }
        }
        .map_err(err)?;
        let wall_ms = ms_since(start);

        let encoded = ctx.span("artifact.encode", || oracle::encode_all(&explorations));
        oracle::same_bytes(&self.expected, &encoded, "cold pass")?;
        let mut record = PassRecord {
            wall_ms,
            programs: explorations.len() as u64,
            speedups: explorations.iter().map(Exploration::speedup).collect(),
            ..PassRecord::default()
        };
        if let Some(tier) = tier {
            let stats = session.cache_stats();
            let sum = |f: &dyn Fn(&Exploration) -> usize| -> f64 {
                explorations.iter().map(|ex| f(ex) as f64).sum()
            };
            let io = tier.counts();
            record.counts = vec![
                (
                    "frontend.insts",
                    sum(&|ex| ex.compiled.program.inst_count()),
                ),
                (
                    "sim.dynamic_ops",
                    sum(&|ex| ex.profiled.profile.total_ops() as usize),
                ),
                ("sim.run_state_creates", stats.run_state.creates as f64),
                ("opt.schedules", stats.schedule.misses as f64),
                (
                    "opt.nodes",
                    sum(&|ex| ex.levels.iter().map(|(s, _)| s.graph.node_count()).sum()),
                ),
                (
                    "chains.sequences",
                    sum(&|ex| ex.levels.iter().map(|(_, a)| a.report.len()).sum()),
                ),
                (
                    "synth.fused_chains",
                    sum(&|ex| ex.evaluated.evaluation.fused_chains),
                ),
                (
                    "artifact.bytes",
                    encoded.iter().map(|e| e.len() as f64).sum(),
                ),
                ("store.puts", io.puts as f64),
                ("store.put_bytes", io.put_bytes as f64),
                ("store.gets", io.gets as f64),
                ("store.get_bytes", io.get_bytes as f64),
                ("store.corrupt", io.corrupt as f64),
                ("session.stage_misses", stats.total_misses() as f64),
                (
                    "session.prefetch_hit_ratio",
                    ratio(stats.total_prefetch_hits(), stats.total_misses()),
                ),
                (
                    "sim.rewritten_mops_per_s",
                    rewritten_mops(ctx, &session, self.largest)?,
                ),
            ];
        }
        Ok(record)
    }
}
