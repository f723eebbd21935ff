//! Tier-stack integration tests: GC budgets must actually bound the
//! store (and stay safe against live readers), a warm `explore_all`
//! must serve from prefetch-staged bytes with zero recomputes, and a
//! custom tier must be a drop-in through `Explorer::with_tier`.

use asip_explorer::prelude::*;
use asip_explorer::store::ManifestEntry;
use asip_explorer::{MemoryTier, TierRead};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Bytes across every listed record.
fn total_bytes(entries: &[ManifestEntry]) -> u64 {
    entries.iter().map(|e| e.bytes).sum()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-gc-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The acceptance path: a config sweep overflows a byte budget, `gc`
/// shrinks the store below it (oldest-written entries first), and a
/// subsequent run is still *correct* — it recomputes what was evicted,
/// returns identical results, and heals the store back to warm.
#[test]
fn gc_bounds_a_config_sweep_and_the_next_run_recomputes_and_heals() {
    let dir = store_dir("sweep");
    let tweaked = OptConfig {
        unroll: 4,
        ..OptConfig::default()
    };

    let baseline = Explorer::new().with_store(&dir);
    let expected_a = baseline
        .analyze_with(
            "sewha",
            OptLevel::Pipelined,
            OptConfig::default(),
            DetectorConfig::default(),
        )
        .expect("analyzes");
    let expected_b = baseline
        .analyze_with(
            "sewha",
            OptLevel::Pipelined,
            tweaked,
            DetectorConfig::default(),
        )
        .expect("analyzes");

    let store = baseline.store().expect("attached");
    let full = store.snapshot();
    assert!(full.len() >= 4, "the sweep persisted several artifacts");
    // a byte budget smaller than the sweep: GC must shrink below it
    let budget = total_bytes(&full) / 2;
    let report = store.gc(&StoreGcConfig::default().with_max_bytes(budget));
    assert!(report.evicted_entries > 0, "{report:?}");
    assert!(report.retained_bytes <= budget, "{report:?}");
    assert!(total_bytes(&store.snapshot()) <= budget);
    // and the eviction count surfaces through the session's CacheStats
    assert_eq!(baseline.cache_stats().gc_evictions, report.evicted_entries);
    assert!(baseline.cache_stats().tier("disk").total().bytes <= budget);

    // a fresh session re-runs the sweep: partial recompute, identical
    // results, store healed
    let replay = Explorer::new().with_store(&dir);
    let again_a = replay
        .analyze_with(
            "sewha",
            OptLevel::Pipelined,
            OptConfig::default(),
            DetectorConfig::default(),
        )
        .expect("replays");
    let again_b = replay
        .analyze_with(
            "sewha",
            OptLevel::Pipelined,
            tweaked,
            DetectorConfig::default(),
        )
        .expect("replays");
    assert_eq!(expected_a.report, again_a.report);
    assert_eq!(expected_b.report, again_b.report);
    assert!(
        replay.cache_stats().total_misses() > 0,
        "evicted stages recomputed: {}",
        replay.cache_stats()
    );

    // healed: a third session replays the whole sweep with zero
    // recomputes
    let third = Explorer::new().with_store(&dir);
    for config in [OptConfig::default(), tweaked] {
        third
            .analyze_with(
                "sewha",
                OptLevel::Pipelined,
                config,
                DetectorConfig::default(),
            )
            .expect("warm replay");
    }
    assert_eq!(third.cache_stats().total_misses(), 0);
    fs::remove_dir_all(&dir).ok();
}

/// GC deleting entries under a live reader must never corrupt a hit:
/// every load observes either a miss (recompute in real sessions) or
/// the complete, checksum-valid value — never torn bytes.
#[test]
fn gc_racing_concurrent_readers_never_corrupts_a_hit() {
    let dir = store_dir("race");
    let store = ArtifactStore::open(&dir);
    let value: Vec<u64> = (0..512).collect();
    store.save(Stage::Compile, 1, &value);

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..200 {
                store.gc(&StoreGcConfig::default().with_max_bytes(0));
                store.save(Stage::Compile, 1, &value);
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            scope.spawn(|| {
                let mut hits = 0u32;
                while !done.load(Ordering::Acquire) {
                    if let Some(read) = store.load::<Vec<u64>>(Stage::Compile, 1) {
                        assert_eq!(read, value, "a hit must always be the full value");
                        hits += 1;
                    }
                }
                let _ = hits;
            });
        }
    });
    let stats = store.totals();
    assert_eq!(stats.corrupt, 0, "no torn reads: {stats:?}");
    fs::remove_dir_all(&dir).ok();
}

/// A warm `explore_all` stages every persisted artifact in parallel
/// before fan-out and recomputes nothing; `prefetch_hits` makes the
/// path observable per stage.
#[test]
fn warm_explore_all_prefetches_with_zero_recomputes() {
    let dir = store_dir("prefetch");
    // level-0 feedback end to end keeps the test quick without losing
    // any stage coverage
    let constraints = DesignConstraints {
        opt_level: OptLevel::None,
        ..DesignConstraints::default()
    };
    let session = || {
        Explorer::new()
            .with_levels([OptLevel::None])
            .with_constraints(constraints)
            .with_store(&dir)
    };

    let first = session();
    let cold = first.explore_all().expect("cold run");
    assert!(first.cache_stats().tier("disk").total().writes > 0);
    assert_eq!(
        first.cache_stats().total_prefetch_hits(),
        0,
        "nothing to stage on a cold store"
    );

    let warm = session();
    let replay = warm.explore_all().expect("warm run");
    let stats = warm.cache_stats();
    assert_eq!(stats.total_misses(), 0, "zero recomputes: {stats}");
    for stage in [
        Stage::Compile,
        Stage::Profile,
        Stage::Schedule,
        Stage::Analyze,
        Stage::Design,
        Stage::Evaluate,
    ] {
        assert!(
            stats.stage(stage).prefetch_hits > 0,
            "stage {stage} should be served from prefetched bytes: {stats}"
        );
    }
    // prefetched requests skip the request-path disk read entirely:
    // every disk hit happened inside the parallel prefetcher
    assert_eq!(stats.total_prefetch_hits(), stats.tier("disk").total().hits);
    assert_eq!(cold.len(), replay.len());
    for (a, b) in cold.iter().zip(replay.iter()) {
        assert_eq!(a.evaluated.evaluation, b.evaluated.evaluation);
    }

    // a memory-warm session re-reads nothing: the typed caches already
    // hold every artifact, so a further explore_all touches no tier
    let before = warm.cache_stats();
    warm.explore_all().expect("memory-warm run");
    let after = warm.cache_stats();
    assert_eq!(
        after.tier("disk").total().hits,
        before.tier("disk").total().hits
    );
    assert_eq!(after.total_prefetch_hits(), before.total_prefetch_hits());
    assert_eq!(after.total_misses(), 0);

    // prefetch validates names even when it cannot stage
    assert!(matches!(
        Explorer::new().prefetch(&["not-a-benchmark"]),
        Err(ExplorerError::UnknownBenchmark { .. })
    ));
    fs::remove_dir_all(&dir).ok();
}

/// The pluggable-tier contract: a custom tier (here an in-memory
/// stand-in for a shared remote cache) drops into the stack via
/// `with_tier` with nothing but the trait impl, receives write-through,
/// and serves a second session with zero recomputes.
#[derive(Debug)]
struct RemoteLike(MemoryTier);

impl ArtifactTier for RemoteLike {
    fn name(&self) -> &'static str {
        "remote-like"
    }
    fn get(&self, stage: Stage, key: u64) -> TierRead {
        self.0.get(stage, key)
    }
    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        self.0.put(stage, key, payload)
    }
    fn contains(&self, stage: Stage, key: u64) -> bool {
        self.0.contains(stage, key)
    }
    fn stats(&self, stage: Stage) -> TierStats {
        self.0.stats(stage)
    }
    fn persistent(&self) -> bool {
        true // unlike the staging buffer, this tier receives write-through
    }
    fn reset_counters(&self) {
        self.0.reset_counters()
    }
}

#[test]
fn a_custom_tier_is_a_drop_in_through_with_tier() {
    let remote = Arc::new(RemoteLike(MemoryTier::with_budget(64 << 20)));

    let first = Explorer::new().with_tier(remote.clone());
    let computed = first.profile("sewha").expect("computes");
    assert!(remote.totals().writes > 0, "write-through reached the tier");
    assert!(first.cache_stats().profile.misses > 0);
    // the mounted tier reports under its own name
    let mounted = first.cache_stats().tier("remote-like");
    assert_eq!(mounted.total().writes, remote.totals().writes);

    // a second session sharing the tier replays without recomputing
    let second = Explorer::new().with_tier(remote.clone());
    let replayed = second.profile("sewha").expect("served by the tier");
    assert_eq!(second.cache_stats().total_misses(), 0);
    assert_eq!(computed.profile, replayed.profile);
    let mounted = second.cache_stats().tier("remote-like");
    assert!(mounted.stage(Stage::Profile).hits > 0, "{mounted:?}");
    assert!(mounted.total().hits > 0);

    // a store mounted through `with_tier` reports exactly what the same
    // store reports through `with_store`, cold and warm
    let (built_in, mounted) = (store_dir("built-in"), store_dir("mounted"));
    let run = |session: Explorer| {
        session.explore("fir").expect("explores");
        session.cache_stats().tier("disk")
    };
    for pass in ["cold", "warm"] {
        let a = run(Explorer::new().with_store(&built_in));
        let b = run(Explorer::new().with_tier(Arc::new(ArtifactStore::open(&mounted))));
        assert!(a.total().hits + a.total().writes > 0, "{pass}: {a:?}");
        assert_eq!(a, b, "{pass}");
    }
    fs::remove_dir_all(&built_in).ok();
    fs::remove_dir_all(&mounted).ok();
}

#[test]
fn with_store_gc_enforces_a_standing_budget_at_attach_time() {
    let dir = store_dir("attach");

    // populate a store well past the standing budget
    let warm = Explorer::new().with_store(&dir);
    warm.explore("sewha").expect("populates");
    warm.explore("fir").expect("populates");
    let before = warm.store().expect("attached").snapshot();
    assert!(before.len() > 2, "several artifacts persisted");
    let budget = total_bytes(&before) / 3;
    drop(warm);

    // a long-lived host reattaches and runs one budgeted GC pass,
    // counted like any other
    let session = Explorer::new().with_store(&dir);
    let store = session.store().expect("attached");
    store.gc(&StoreGcConfig::default().with_max_bytes(budget));
    let after = store.snapshot();
    assert!(
        total_bytes(&after) <= budget,
        "attach-time GC enforced the budget ({} > {budget})",
        total_bytes(&after)
    );
    assert!(after.len() < before.len());
    assert!(
        session.cache_stats().gc_evictions > 0,
        "attach-time evictions surface in CacheStats"
    );

    // the session still serves every request correctly (evicted
    // entries recompute and heal)
    session
        .explore("sewha")
        .expect("recomputes what GC dropped");

    // an in-budget reattach is a no-op
    let calm = Explorer::new().with_store(&dir);
    calm.store()
        .expect("attached")
        .gc(&StoreGcConfig::default().with_max_bytes(u64::MAX));
    assert_eq!(calm.cache_stats().gc_evictions, 0);

    fs::remove_dir_all(&dir).ok();
}

/// GC to a budget keeps exactly the newest records: everything the
/// later of two sessions wrote survives, everything the earlier one
/// wrote is evicted, and a later session recomputes only that and
/// heals the store.
#[test]
fn gc_to_a_budget_keeps_only_the_newest_records_and_a_later_session_heals() {
    let dir = store_dir("newest");
    Explorer::new()
        .with_store(&dir)
        .explore("sewha")
        .expect("populates");
    let older = ArtifactStore::open(&dir).snapshot();
    Explorer::new()
        .with_store(&dir)
        .explore("fir")
        .expect("populates");
    let all = ArtifactStore::open(&dir).snapshot();
    let newer = &all[older.len()..];
    assert!(!newer.is_empty(), "fir wrote its own records");
    let newer_bytes = total_bytes(newer);

    let store = ArtifactStore::open(&dir);
    let report = store.gc(&StoreGcConfig::default().with_max_bytes(newer_bytes));
    assert_eq!(report.evicted_entries, older.len() as u64, "{report:?}");
    assert_eq!(report.retained_bytes, newer_bytes, "{report:?}");
    let kept = ArtifactStore::open(&dir).snapshot();
    let ids = |entries: &[ManifestEntry]| -> Vec<(Stage, u64)> {
        entries.iter().map(|e| (e.stage, e.key)).collect()
    };
    assert_eq!(ids(&kept), ids(newer), "the newest, in order");
    assert_eq!(fs::read_dir(&dir).expect("store dir").count(), 1);

    // the next session recomputes only what GC dropped, and heals
    let replay = Explorer::new().with_store(&dir);
    replay.explore("fir").expect("replays");
    assert_eq!(replay.cache_stats().total_misses(), 0, "fir was kept");
    replay.explore("sewha").expect("recomputes");
    assert!(replay.cache_stats().total_misses() > 0, "sewha was evicted");
    let healed = Explorer::new().with_store(&dir);
    healed.explore("sewha").expect("replays");
    healed.explore("fir").expect("replays");
    assert_eq!(healed.cache_stats().total_misses(), 0);
    assert_eq!(ArtifactStore::open(&dir).verify().corrupt, 0);
    fs::remove_dir_all(&dir).ok();
}

/// Saves racing a handle's first occupancy query all land in its
/// stats: the query never loses one.
#[test]
fn the_first_stats_query_never_loses_a_racing_save() {
    for round in 0..20 {
        let store = ArtifactStore::open(store_dir(&format!("index-race-{round}")));
        for key in 0..32 {
            store.save(Stage::Compile, key, &key);
        }
        // the savers and the first stats query start together, so
        // saves land before, during and after its scan
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for key in 0..16 {
                        store.save(Stage::Profile, t * 100 + key, &key);
                    }
                });
            }
            start.wait();
            store.totals();
        });
        assert_eq!(
            store.totals().entries,
            ArtifactStore::open(store.dir()).snapshot().len() as u64,
            "round {round}"
        );
        fs::remove_dir_all(store.dir()).ok();
    }
}
