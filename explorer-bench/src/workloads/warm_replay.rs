//! `warm-replay`: a populated store served by an in-process `serve`
//! daemon on loopback TCP. Each pass is [`ROUNDS`] rounds, and each
//! round replays `explore_all` in two fresh clients: a storeless remote
//! client, then a client over the store.

use super::{err, ms_since, ratio, Ctx, PassRecord, Workload};
use crate::oracle;
use crate::timing_tier::{IoCounts, Layer, TimingTier};
use asip_explorer::benchmarks::{full_registry, Registry};
use asip_explorer::remote::ServerHandle;
use asip_explorer::tier::ArtifactTier;
use asip_explorer::{
    serve, ArtifactStore, CacheStats, Endpoint, Exploration, Explorer, ExplorerError, RemoteTier,
    RemoteTotals, RetryPolicy, ServeOptions,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the two replays in one pass. A replay is short and hops
/// between the client and the daemon's threads, so one late wake-up can
/// set its time; a pass of several rounds averages those out, and its
/// tail shows sustained slowness rather than a single stall.
const ROUNDS: usize = 4;

pub struct WarmReplay {
    ctx: Ctx,
    registry: Registry,
    names: Vec<&'static str>,
    dir: PathBuf,
    server: Option<ServerHandle>,
    /// Set-up's cold result, checked and encoded by
    /// [`Workload::verify_setup`]; every replay must match it.
    cold: Vec<Exploration>,
    expected: Vec<Vec<u8>>,
}

/// One replay client's result.
struct Replay {
    session: Explorer,
    explorations: Vec<Exploration>,
}

/// One round's two replays, not yet checked.
struct Round {
    remote: Replay,
    local: Replay,
    remote_ms: f64,
    store_ms: f64,
    /// The traced round's wrapped tiers: the remote tier's wire totals
    /// and the two timing decorators' counts.
    traced: Option<(RemoteTotals, IoCounts, IoCounts)>,
}

impl WarmReplay {
    /// Populate a store over the full registry at the seed with a cold
    /// `explore_all`, then serve it on a loopback port.
    pub fn setup(ctx: &Ctx, rep: usize) -> Result<Self, String> {
        let registry = full_registry();
        let dir = ctx.fresh_dir(&format!("replay-store-{rep}"));
        let session = Arc::new(ctx.session(&registry).with_store(&dir));
        let cold = session.explore_all().map_err(err)?;
        let server = serve(
            session,
            &Endpoint::Tcp("127.0.0.1:0".into()),
            ServeOptions::default(),
        )
        .map_err(|e| format!("cannot start the serve daemon: {e}"))?;
        Ok(WarmReplay {
            ctx: ctx.clone(),
            names: registry.iter().map(|b| b.name).collect(),
            registry,
            dir,
            server: Some(server),
            cold,
            expected: Vec::new(),
        })
    }

    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("the daemon runs until drop")
    }

    fn endpoint(&self) -> Endpoint {
        self.server().endpoint().clone()
    }

    /// A client replay as `explore_all` runs it.
    fn replay(&self, session: Explorer) -> Result<Replay, ExplorerError> {
        let explorations = session.explore_all()?;
        Ok(Replay {
            session,
            explorations,
        })
    }

    /// The traced replay: the prefetch, then each program's stage calls
    /// (every one served by decoding prefetched bytes), then the
    /// `explore_all` that assembles the results from the typed caches.
    fn traced_replay(&self, open: impl FnOnce() -> Explorer) -> Result<Replay, ExplorerError> {
        let ctx = &self.ctx;
        let s = ctx.span("session.open", open);
        ctx.span("session.prefetch", || s.prefetch(&self.names))?;
        for &name in &self.names {
            ctx.span("artifact.decode", || -> Result<(), ExplorerError> {
                s.compile(name)?;
                s.profile(name)?;
                for &level in s.levels() {
                    s.schedule(name, level)?;
                    s.analyze(name, level)?;
                }
                s.design(name)?;
                s.evaluate(name)?;
                Ok(())
            })?;
        }
        let explorations = ctx.span("session.explore_all", || s.explore_all())?;
        Ok(Replay {
            session: s,
            explorations,
        })
    }

    /// An untraced round: each client mounts its tier as a user would.
    fn round(&self) -> Result<Round, ExplorerError> {
        let ctx = &self.ctx;
        let addr = self.endpoint().to_string();
        let start = Instant::now();
        let remote = self.replay(
            ctx.session(&self.registry)
                .with_remote(&addr, RetryPolicy::default())?,
        )?;
        let remote_ms = ms_since(start);
        let start = Instant::now();
        let local = self.replay(ctx.session(&self.registry).with_store(&self.dir))?;
        Ok(Round {
            remote,
            local,
            remote_ms,
            store_ms: ms_since(start),
            traced: None,
        })
    }

    /// A traced round, inside one `pass` span: each client mounts its
    /// tier wrapped in a [`TimingTier`] through `with_tier`.
    fn traced_round(&self) -> Result<Round, ExplorerError> {
        let ctx = &self.ctx;
        let remote_tier = Arc::new(RemoteTier::new(self.endpoint(), RetryPolicy::default()));
        let remote_io = Arc::new(TimingTier::new(
            Arc::clone(&remote_tier) as Arc<dyn ArtifactTier>,
            Layer::Remote,
            Arc::clone(&ctx.tracer),
        ));
        let store_io = Arc::new(TimingTier::new(
            Arc::new(ArtifactStore::open(&self.dir)),
            Layer::Store,
            Arc::clone(&ctx.tracer),
        ));
        let start = Instant::now();
        let (remote, remote_ms, local) = ctx.span("pass", || -> Result<_, ExplorerError> {
            let remote = self.traced_replay(|| {
                let tier = Arc::clone(&remote_io) as Arc<dyn ArtifactTier>;
                ctx.session(&self.registry).with_tier(tier)
            })?;
            let remote_ms = ms_since(start);
            let local = self.traced_replay(|| {
                let tier = Arc::clone(&store_io) as Arc<dyn ArtifactTier>;
                ctx.session(&self.registry).with_tier(tier)
            })?;
            Ok((remote, remote_ms, local))
        })?;
        let store_ms = ms_since(start) - remote_ms;
        Ok(Round {
            remote,
            local,
            remote_ms,
            store_ms,
            traced: Some((
                remote_tier.remote_totals(),
                remote_io.counts(),
                store_io.counts(),
            )),
        })
    }

    /// Check one replay: byte-identical to set-up's cold result, and
    /// nothing recomputed.
    fn check(&self, replay: &Replay, what: &str) -> Result<CacheStats, String> {
        oracle::same_bytes(
            &self.expected,
            &oracle::encode_all(&replay.explorations),
            what,
        )?;
        let stats = replay.session.cache_stats();
        if stats.total_misses() != 0 {
            return Err(format!(
                "{what}: {} stages recomputed",
                stats.total_misses()
            ));
        }
        let corrupt = stats.total_disk_corrupt() + stats.total_remote_corrupt();
        if corrupt != 0 {
            return Err(format!("{what}: {corrupt} corrupt entries"));
        }
        Ok(stats)
    }
}

impl Workload for WarmReplay {
    fn verify_setup(&mut self) -> Result<(), String> {
        self.expected = oracle::encode_all(&self.cold);
        self.cold.clear();
        RemoteTier::new(self.endpoint(), RetryPolicy::default())
            .ping()
            .map(drop)
            .map_err(|e| format!("the serve daemon does not answer: {e}"))
    }

    fn pass(&mut self, _index: u32, traced: bool) -> Result<PassRecord, String> {
        // a fresh tier's ping, which waits for the daemon's accept loop
        if traced {
            self.ctx
                .span("remote.ping", || {
                    RemoteTier::new(self.endpoint(), RetryPolicy::default())
                        .ping()
                        .map(drop)
                })
                .map_err(|e| format!("ping failed: {e}"))?;
        }
        let server_before = self.server().stats();
        let mut record = PassRecord::default();
        let (mut remote_ms, mut store_ms) = (0.0, 0.0);
        let mut wire = RemoteTotals::default();
        let mut store = IoCounts::default();
        let (mut prefetch_hits, mut misses) = (0, 0);
        for _ in 0..ROUNDS {
            let round = if traced {
                self.traced_round()
            } else {
                self.round()
            }
            .map_err(err)?;
            let remote_stats = self.check(&round.remote, "remote replay")?;
            let local_stats = self.check(&round.local, "store replay")?;
            // a traced client mounts its tiers through `with_tier`, so the
            // wire totals and corrupt counts live on the wrapped tiers
            let (round_wire, corrupt) = match round.traced {
                Some((totals, remote_io, store_io)) => {
                    store.gets += store_io.gets;
                    store.get_bytes += store_io.get_bytes;
                    store.puts += store_io.puts;
                    store.corrupt += store_io.corrupt;
                    (totals, remote_io.corrupt + store_io.corrupt)
                }
                None => (remote_stats.remote, 0),
            };
            if corrupt != 0 {
                return Err(format!("replays read {corrupt} corrupt entries"));
            }
            if round_wire.retries != 0 || round_wire.errors != 0 {
                return Err(format!(
                    "remote replay: {} retries, {} errors",
                    round_wire.retries, round_wire.errors
                ));
            }
            wire.requests += round_wire.requests;
            wire.bytes_received += round_wire.bytes_received;
            wire.retries += round_wire.retries;
            wire.errors += round_wire.errors;
            prefetch_hits += remote_stats.total_prefetch_hits() + local_stats.total_prefetch_hits();
            misses += remote_stats.total_misses() + local_stats.total_misses();
            remote_ms += round.remote_ms;
            store_ms += round.store_ms;
            let explorations = round
                .remote
                .explorations
                .iter()
                .chain(&round.local.explorations);
            record.programs += explorations.clone().count() as u64;
            record
                .speedups
                .extend(explorations.map(Exploration::speedup));
        }
        record.wall_ms = remote_ms + store_ms;
        if traced {
            let server = self.server().stats();
            record.counts = vec![
                ("remote.requests", wire.requests as f64),
                ("remote.bytes_received", wire.bytes_received as f64),
                ("remote.retries", wire.retries as f64),
                ("remote.errors", wire.errors as f64),
                (
                    "server.requests",
                    (server.requests - server_before.requests) as f64,
                ),
                ("server.hits", (server.hits - server_before.hits) as f64),
                (
                    "server.overloaded",
                    (server.overloaded - server_before.overloaded) as f64,
                ),
                ("store.gets", store.gets as f64),
                ("store.get_bytes", store.get_bytes as f64),
                ("store.puts", store.puts as f64),
                ("store.corrupt", store.corrupt as f64),
                ("session.stage_misses", misses as f64),
                ("session.prefetch_hit_ratio", ratio(prefetch_hits, misses)),
            ];
        } else {
            // each client's mean replay time over the pass's rounds
            let rounds = ROUNDS as f64;
            record.parts = vec![
                ("remote_replay_ms", remote_ms / rounds),
                ("store_replay_ms", store_ms / rounds),
            ];
        }
        Ok(record)
    }
}

impl Drop for WarmReplay {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
