//! A timing decorator for artifact tiers.
//!
//! [`TimingTier`] wraps any [`ArtifactTier`] (the disk store, the remote
//! tier) and is mounted with `Explorer::with_tier`, the same seam the
//! fault-injection tier uses. It forwards every call unchanged, records
//! a span around each read and write, and counts operations and bytes.

use crate::trace::Tracer;
use asip_explorer::tier::{ArtifactTier, TierRead, TierStats};
use asip_explorer::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which layer a wrapped tier belongs to; picks the span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The on-disk artifact store.
    Store,
    /// The serve daemon's remote tier.
    Remote,
}

impl Layer {
    fn get(self) -> &'static str {
        match self {
            Layer::Store => "store.get",
            Layer::Remote => "remote.get",
        }
    }

    fn get_batch(self) -> &'static str {
        match self {
            Layer::Store => "store.get_batch",
            Layer::Remote => "remote.get_batch",
        }
    }

    fn put(self) -> &'static str {
        match self {
            Layer::Store => "store.put",
            Layer::Remote => "remote.put",
        }
    }
}

/// Operation and byte counts of one [`TimingTier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Keys probed through `get` or `get_batch`.
    pub gets: u64,
    /// Payload bytes those probes returned.
    pub get_bytes: u64,
    /// `put` calls.
    pub puts: u64,
    /// Payload bytes offered to `put`.
    pub put_bytes: u64,
    /// Probes answered `Corrupt` plus entries the stack marked corrupt.
    pub corrupt: u64,
}

#[derive(Debug, Default)]
struct Cells {
    gets: AtomicU64,
    get_bytes: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    corrupt: AtomicU64,
}

/// An [`ArtifactTier`] that times and counts the calls it forwards.
#[derive(Debug)]
pub struct TimingTier {
    inner: Arc<dyn ArtifactTier>,
    layer: Layer,
    tracer: Arc<Tracer>,
    cells: Cells,
}

impl TimingTier {
    /// Wrap `inner`, recording spans for `layer` into `tracer`.
    pub fn new(inner: Arc<dyn ArtifactTier>, layer: Layer, tracer: Arc<Tracer>) -> Self {
        TimingTier {
            inner,
            layer,
            tracer,
            cells: Cells::default(),
        }
    }

    /// Counts so far.
    pub fn counts(&self) -> IoCounts {
        let c = &self.cells;
        IoCounts {
            gets: c.gets.load(Ordering::Relaxed),
            get_bytes: c.get_bytes.load(Ordering::Relaxed),
            puts: c.puts.load(Ordering::Relaxed),
            put_bytes: c.put_bytes.load(Ordering::Relaxed),
            corrupt: c.corrupt.load(Ordering::Relaxed),
        }
    }

    fn count_read(&self, read: &TierRead) {
        self.cells.gets.fetch_add(1, Ordering::Relaxed);
        match read {
            TierRead::Hit(payload) => {
                self.cells
                    .get_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
            }
            TierRead::Corrupt => {
                self.cells.corrupt.fetch_add(1, Ordering::Relaxed);
            }
            TierRead::Miss => {}
        }
    }
}

impl ArtifactTier for TimingTier {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        let read = self
            .tracer
            .span(self.layer.get(), || self.inner.get(stage, key));
        self.count_read(&read);
        read
    }

    fn get_batch(&self, keys: &[(Stage, u64)]) -> Vec<TierRead> {
        let reads = self
            .tracer
            .span(self.layer.get_batch(), || self.inner.get_batch(keys));
        for read in &reads {
            self.count_read(read);
        }
        reads
    }

    fn batched(&self) -> bool {
        self.inner.batched()
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        self.cells.puts.fetch_add(1, Ordering::Relaxed);
        self.cells
            .put_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.tracer
            .span(self.layer.put(), || self.inner.put(stage, key, payload))
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        self.inner.contains(stage, key)
    }

    fn stats(&self, stage: Stage) -> TierStats {
        self.inner.stats(stage)
    }

    fn totals(&self) -> TierStats {
        self.inner.totals()
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn mark_corrupt(&self, stage: Stage, key: u64) {
        self.cells.corrupt.fetch_add(1, Ordering::Relaxed);
        self.inner.mark_corrupt(stage, key);
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_explorer::{ArtifactStore, CacheStats, Explorer};
    use std::path::PathBuf;
    use std::sync::Mutex;

    /// A tier that answers from a fixed script and logs every call.
    #[derive(Debug, Default)]
    struct Scripted {
        log: Mutex<Vec<String>>,
        batched: bool,
        persistent: bool,
    }

    impl Scripted {
        fn log(&self, entry: String) {
            self.log.lock().expect("test lock").push(entry);
        }
    }

    impl ArtifactTier for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn get(&self, stage: Stage, key: u64) -> TierRead {
            self.log(format!("get {stage} {key}"));
            match key % 3 {
                0 => TierRead::Hit(vec![1, 2, 3]),
                1 => TierRead::Miss,
                _ => TierRead::Corrupt,
            }
        }
        fn get_batch(&self, keys: &[(Stage, u64)]) -> Vec<TierRead> {
            self.log(format!("get_batch {}", keys.len()));
            keys.iter().map(|_| TierRead::Hit(vec![9])).collect()
        }
        fn batched(&self) -> bool {
            self.batched
        }
        fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
            self.log(format!("put {stage} {key} {}", payload.len()));
            key.is_multiple_of(2)
        }
        fn contains(&self, stage: Stage, key: u64) -> bool {
            self.log(format!("contains {stage} {key}"));
            key == 42
        }
        fn stats(&self, _stage: Stage) -> TierStats {
            TierStats {
                hits: 5,
                ..TierStats::default()
            }
        }
        fn persistent(&self) -> bool {
            self.persistent
        }
        fn reset_counters(&self) {
            self.log("reset".into());
        }
    }

    fn wrap(inner: Arc<Scripted>) -> (TimingTier, Arc<Tracer>) {
        let tracer = Arc::new(Tracer::default());
        tracer.set_pass(0, true);
        let tier = TimingTier::new(inner, Layer::Store, Arc::clone(&tracer));
        (tier, tracer)
    }

    #[test]
    fn forwards_every_call_unchanged() {
        for (batched, persistent) in [(false, true), (true, false)] {
            let inner = Arc::new(Scripted {
                batched,
                persistent,
                ..Scripted::default()
            });
            let (tier, tracer) = wrap(Arc::clone(&inner));
            assert_eq!(tier.batched(), batched);
            assert_eq!(tier.persistent(), persistent);
            assert!(matches!(tier.get(Stage::Compile, 3), TierRead::Hit(p) if p == [1, 2, 3]));
            assert!(matches!(tier.get(Stage::Profile, 4), TierRead::Miss));
            assert!(matches!(tier.get(Stage::Design, 5), TierRead::Corrupt));
            let batch = tier.get_batch(&[(Stage::Compile, 1), (Stage::Evaluate, 2)]);
            assert_eq!(batch.len(), 2);
            assert!(batch
                .iter()
                .all(|r| matches!(r, TierRead::Hit(p) if *p == [9])));
            assert!(tier.put(Stage::Schedule, 8, &[0; 10]));
            assert!(!tier.put(Stage::Schedule, 9, &[0; 4]));
            assert!(tier.contains(Stage::Analyze, 42));
            assert!(!tier.contains(Stage::Analyze, 41));
            assert_eq!(tier.stats(Stage::Compile).hits, 5);
            assert_eq!(tier.name(), "scripted");
            tier.reset_counters();
            assert_eq!(
                *inner.log.lock().expect("test lock"),
                [
                    "get compile 3",
                    "get profile 4",
                    "get design 5",
                    "get_batch 2",
                    "put schedule 8 10",
                    "put schedule 9 4",
                    "contains analyze 42",
                    "contains analyze 41",
                    "reset",
                ]
            );
            assert_eq!(
                tier.counts(),
                IoCounts {
                    gets: 5,
                    get_bytes: 5,
                    puts: 2,
                    put_bytes: 14,
                    corrupt: 1,
                }
            );
            let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "store.get",
                    "store.get",
                    "store.get",
                    "store.get_batch",
                    "store.put",
                    "store.put"
                ]
            );
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "explorer-bench-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Cold then warm runs of two benchmarks through a plain store and
    /// through the wrapped store; returns the cache stats and the store
    /// tier's totals after each run.
    fn cold_and_warm(timed: bool, tag: &str) -> Vec<(CacheStats, TierStats)> {
        let dir = temp_dir(tag);
        let tracer = Arc::new(Tracer::default());
        tracer.set_pass(0, true);
        let session = || {
            let base = Explorer::new().with_threads(1);
            if timed {
                let store: Arc<dyn ArtifactTier> = Arc::new(ArtifactStore::open(&dir));
                base.with_tier(Arc::new(TimingTier::new(
                    store,
                    Layer::Store,
                    Arc::clone(&tracer),
                )))
            } else {
                base.with_store(&dir)
            }
        };
        let mut out = Vec::new();
        for _ in 0..2 {
            let s = session();
            s.prefetch(&["fir", "iir"]).expect("known names");
            for name in ["fir", "iir"] {
                s.explore(name).expect("explores");
            }
            let store = s
                .tier_stack()
                .tiers()
                .iter()
                .find(|t| t.name() == "disk")
                .expect("a disk tier is mounted")
                .totals();
            let mut stats = s.cache_stats();
            // the plain session reports its store in the disk_* fields;
            // compare the session-side counters and the tier's own totals
            for stage in [
                &mut stats.compile,
                &mut stats.profile,
                &mut stats.schedule,
                &mut stats.analyze,
                &mut stats.design,
                &mut stats.evaluate,
            ] {
                *stage = asip_explorer::StageStats {
                    hits: stage.hits,
                    misses: stage.misses,
                    prefetch_hits: stage.prefetch_hits,
                    entries: stage.entries,
                    ..Default::default()
                };
            }
            out.push((stats, TierStats { bytes: 0, ..store }));
        }
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn a_timed_session_gets_the_same_hits_misses_and_writes_as_a_plain_one() {
        let plain = cold_and_warm(false, "plain");
        let timed = cold_and_warm(true, "timed");
        assert_eq!(plain, timed);
        // the cold run wrote, the warm run recomputed nothing
        assert!(plain[0].1.writes > 0);
        assert_eq!(plain[1].0.total_misses(), 0);
        assert!(plain[1].0.total_prefetch_hits() > 0);
    }
}
