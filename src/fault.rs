//! Deterministic, seed-keyed fault injection for chaos testing.
//!
//! This module is the robustness counterpart of the `asip-gen` workload
//! generator: where the generator gives every feature *differential*
//! coverage from a seed, a [`FaultPlan`] gives every tier and the serve
//! daemon *chaos* coverage from a seed. A plan is built on the same
//! SplitMix64 discipline as `asip_gen::GenRng` (one independent stream
//! per fault site, so per-site probabilities are stable regardless of
//! how concurrent callers interleave their draws) and schedules the
//! full fault taxonomy:
//!
//! - **disk** — read I/O errors, write I/O errors, torn/partial writes
//!   at a plan-chosen byte offset;
//! - **remote** — connection refusal, drop-mid-frame, timeouts,
//!   garbage frames, checksum tampering.
//!
//! Injection seams are deliberately narrow: [`ArtifactStore`] and
//! [`RemoteTier`] each expose an `arm_faults(plan)` hook guarded by a
//! relaxed atomic flag (a single predictable-false branch when no plan
//! is armed — the production hot path pays nothing), and the wrapper
//! [`FaultTier`] injects faults in front of *any* [`ArtifactTier`]
//! without the inner tier's cooperation. Every injected fault must
//! degrade exactly like the real fault it models: a counted miss, a
//! counted corrupt entry, a counted retry — never a wrong byte and
//! never a panic escaping the tier contract. `tests/chaos.rs` sweeps
//! seeded plans through full sessions and reconciles the plan's
//! [`FaultCounts`] against the session counters; see
//! `docs/robustness.md` for the taxonomy and the guarantees.
//!
//! [`ArtifactStore`]: crate::store::ArtifactStore
//! [`RemoteTier`]: crate::remote::RemoteTier

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::artifact::Stage;
use crate::tier::{ArtifactTier, TierRead, TierStats};

/// The artifact key [`FaultTier::panic_probe`] panics on — used by the
/// `serve --chaos-panic` smoke flow to prove the daemon survives a
/// panicking stage lookup. ASCII `"panic"` as a little-endian integer.
pub const PANIC_PROBE_KEY: u64 = 0x0063_696e_6170;

/// SplitMix64 — the same generator discipline as `asip_gen::GenRng`,
/// duplicated here so the fault layer stays free of cross-crate
/// dependencies. For seed 0 the first two outputs are
/// `0xE220_A839_7B1D_CDAF`, `0x6E78_9E6A_A1B9_65F4` (pinned below).
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator whose whole future stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: u8) -> bool {
        match percent {
            0 => false,
            p if p >= 100 => true,
            p => self.below(100) < u64::from(p),
        }
    }
}

/// One injectable fault kind — the index into a plan's per-site RNG
/// streams and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A disk read fails with an I/O error (store degrades to a miss).
    DiskRead,
    /// A disk write fails before any byte lands (put reports `false`).
    DiskWrite,
    /// A disk write tears: a truncated prefix of the entry reaches the
    /// final path, as if the process died mid-write.
    TornWrite,
    /// A remote connect is refused before dialing.
    ConnectRefused,
    /// A remote connection dies mid-frame (partial write, or EOF
    /// mid-read).
    DropMidFrame,
    /// A remote read times out.
    Timeout,
    /// A received frame is garbled (client-side bit flip).
    GarbageFrame,
    /// A sent frame's bytes are tampered so the peer's checksum check
    /// fails.
    ChecksumTamper,
}

/// Number of [`FaultSite`] variants (length of per-site arrays).
pub const FAULT_SITE_COUNT: usize = 8;

impl FaultSite {
    /// All sites, in counter order.
    pub fn all() -> [FaultSite; FAULT_SITE_COUNT] {
        [
            FaultSite::DiskRead,
            FaultSite::DiskWrite,
            FaultSite::TornWrite,
            FaultSite::ConnectRefused,
            FaultSite::DropMidFrame,
            FaultSite::Timeout,
            FaultSite::GarbageFrame,
            FaultSite::ChecksumTamper,
        ]
    }

    fn index(self) -> usize {
        match self {
            FaultSite::DiskRead => 0,
            FaultSite::DiskWrite => 1,
            FaultSite::TornWrite => 2,
            FaultSite::ConnectRefused => 3,
            FaultSite::DropMidFrame => 4,
            FaultSite::Timeout => 5,
            FaultSite::GarbageFrame => 6,
            FaultSite::ChecksumTamper => 7,
        }
    }
}

/// Per-site injection rates in percent (0 disables a site entirely —
/// disabled sites draw nothing from their stream, so enabling one site
/// never perturbs another's schedule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Disk read I/O error rate.
    pub disk_read_error: u8,
    /// Disk write I/O error rate.
    pub disk_write_error: u8,
    /// Torn (partial) disk write rate.
    pub torn_write: u8,
    /// Remote connect refusal rate.
    pub connect_refused: u8,
    /// Drop-mid-frame rate (per connection).
    pub drop_mid_frame: u8,
    /// Remote read timeout rate (per connection).
    pub timeout: u8,
    /// Garbled received frame rate (per connection).
    pub garbage_frame: u8,
    /// Tampered sent frame rate (per connection).
    pub checksum_tamper: u8,
}

impl FaultConfig {
    /// All disk sites at `rate` percent, remote sites disabled.
    pub fn disk(rate: u8) -> Self {
        FaultConfig {
            disk_read_error: rate,
            disk_write_error: rate,
            torn_write: rate,
            ..FaultConfig::default()
        }
    }

    /// All remote sites at `rate` percent, disk sites disabled.
    pub fn remote(rate: u8) -> Self {
        FaultConfig {
            connect_refused: rate,
            drop_mid_frame: rate,
            timeout: rate,
            garbage_frame: rate,
            checksum_tamper: rate,
            ..FaultConfig::default()
        }
    }

    /// Every site at `rate` percent.
    pub fn uniform(rate: u8) -> Self {
        FaultConfig {
            disk_read_error: rate,
            disk_write_error: rate,
            torn_write: rate,
            connect_refused: rate,
            drop_mid_frame: rate,
            timeout: rate,
            garbage_frame: rate,
            checksum_tamper: rate,
        }
    }

    /// The configured rate for `site`.
    pub fn rate(&self, site: FaultSite) -> u8 {
        match site {
            FaultSite::DiskRead => self.disk_read_error,
            FaultSite::DiskWrite => self.disk_write_error,
            FaultSite::TornWrite => self.torn_write,
            FaultSite::ConnectRefused => self.connect_refused,
            FaultSite::DropMidFrame => self.drop_mid_frame,
            FaultSite::Timeout => self.timeout,
            FaultSite::GarbageFrame => self.garbage_frame,
            FaultSite::ChecksumTamper => self.checksum_tamper,
        }
    }
}

/// Snapshot of how many faults a plan actually injected, per site.
/// `tests/chaos.rs` reconciles these against `CacheStats` /
/// `RemoteTotals` — every injected fault must be visible as a counted
/// degradation on the other side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected disk read errors.
    pub disk_read_errors: u64,
    /// Injected disk write errors.
    pub disk_write_errors: u64,
    /// Injected torn writes.
    pub torn_writes: u64,
    /// Of `torn_writes`, those cut before the record's key ended: no
    /// reader can tell which entry they held, so they read as absent
    /// rather than as corrupt.
    pub torn_unattributable: u64,
    /// Injected connect refusals.
    pub connects_refused: u64,
    /// Injected mid-frame drops.
    pub drops_mid_frame: u64,
    /// Injected timeouts.
    pub timeouts: u64,
    /// Injected garbled frames.
    pub garbage_frames: u64,
    /// Injected tampered frames.
    pub checksum_tampers: u64,
}

impl FaultCounts {
    /// Total injected faults across all sites.
    pub fn total(&self) -> u64 {
        self.disk_read_errors + self.disk_write_errors + self.torn_writes + self.remote_total()
    }

    /// Total injected remote-transport faults.
    pub fn remote_total(&self) -> u64 {
        self.connects_refused
            + self.drops_mid_frame
            + self.timeouts
            + self.garbage_frames
            + self.checksum_tampers
    }
}

/// A seed-keyed schedule of injectable faults.
///
/// Construction is cheap and the plan is sharable (`Arc`) between a
/// store hook, a remote hook and any number of [`FaultTier`]s; each
/// fault site draws from its own SplitMix64 stream derived from the
/// seed, and every fired fault is counted for reconciliation.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    streams: [Mutex<FaultRng>; FAULT_SITE_COUNT],
    counts: [AtomicU64; FAULT_SITE_COUNT],
    torn_unattributable: AtomicU64,
}

impl FaultPlan {
    /// A plan whose whole schedule is determined by `seed` + `config`.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        // Per-site streams are decorrelated by running the seed through
        // one SplitMix64 step per site index — the same "stream split"
        // idiom asip-gen uses for its per-section RNGs.
        let mut splitter = FaultRng::new(seed);
        let streams = std::array::from_fn(|_| Mutex::new(FaultRng::new(splitter.next_u64())));
        let counts = std::array::from_fn(|_| AtomicU64::new(0));
        FaultPlan {
            seed,
            config,
            streams,
            counts,
            torn_unattributable: AtomicU64::new(0),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-site rate configuration.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Roll `site`: true (and counted) when the fault fires. Sites with
    /// rate 0 return immediately without consuming a draw.
    pub fn roll(&self, site: FaultSite) -> bool {
        let rate = self.config.rate(site);
        if rate == 0 {
            return false;
        }
        let i = site.index();
        let fired = crate::tier::lock(&self.streams[i]).percent(rate);
        if fired {
            self.counts[i].fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Draw a value in `[0, bound)` from `site`'s stream without
    /// counting a fault — used to pick torn-write offsets and which
    /// byte to garble.
    pub fn draw(&self, site: FaultSite, bound: u64) -> u64 {
        crate::tier::lock(&self.streams[site.index()]).below(bound)
    }

    /// Record that a torn write stopped before the record's key ended
    /// ([`FaultCounts::torn_unattributable`]).
    pub fn note_unattributable_tear(&self) {
        self.torn_unattributable.fetch_add(1, Ordering::Relaxed);
    }

    /// How many times `site` has fired so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.counts[site.index()].load(Ordering::Relaxed)
    }

    /// Snapshot every site's fired count.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            disk_read_errors: self.fired(FaultSite::DiskRead),
            disk_write_errors: self.fired(FaultSite::DiskWrite),
            torn_writes: self.fired(FaultSite::TornWrite),
            torn_unattributable: self.torn_unattributable.load(Ordering::Relaxed),
            connects_refused: self.fired(FaultSite::ConnectRefused),
            drops_mid_frame: self.fired(FaultSite::DropMidFrame),
            timeouts: self.fired(FaultSite::Timeout),
            garbage_frames: self.fired(FaultSite::GarbageFrame),
            checksum_tampers: self.fired(FaultSite::ChecksumTamper),
        }
    }
}

/// An [`ArtifactTier`] wrapper that injects faults in front of any
/// inner tier: plan-scheduled read misses, garbled payloads and dropped
/// writes, plus two deterministic triggers used by the daemon-hardening
/// tests — a panic on one exact key ([`FaultTier::panic_on`]) and a
/// fixed per-get delay ([`FaultTier::with_get_delay`], for driving the
/// server into overload).
///
/// Garbled payloads exercise the stack's *healing* path: the typed
/// decode above the tier fails, `mark_corrupt` fires (forwarded to the
/// inner tier), and the recompute writes a fresh copy through.
#[derive(Debug)]
pub struct FaultTier {
    inner: Arc<dyn ArtifactTier>,
    plan: Option<Arc<FaultPlan>>,
    panic_on: Option<(Stage, u64)>,
    get_delay: Option<Duration>,
    panics: AtomicU64,
    delays: AtomicU64,
}

impl FaultTier {
    /// A transparent wrapper around `inner` with no faults armed.
    pub fn new(inner: Arc<dyn ArtifactTier>) -> Self {
        FaultTier {
            inner,
            plan: None,
            panic_on: None,
            get_delay: None,
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// Schedule probabilistic faults from `plan` (disk sites:
    /// [`FaultSite::DiskRead`] → miss, [`FaultSite::GarbageFrame`] →
    /// garbled hit, [`FaultSite::DiskWrite`] → dropped write).
    pub fn with_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Panic (deliberately) on every `get` of exactly `(stage, key)`.
    pub fn panic_on(mut self, stage: Stage, key: u64) -> Self {
        self.panic_on = Some((stage, key));
        self
    }

    /// A wrapper that panics on `(Stage::Compile, PANIC_PROBE_KEY)` —
    /// the key the `serve --panic-probe` client asks for.
    pub fn panic_probe(inner: Arc<dyn ArtifactTier>) -> Self {
        FaultTier::new(inner).panic_on(Stage::Compile, PANIC_PROBE_KEY)
    }

    /// Sleep `delay` inside every `get` (simulates a slow tier; used to
    /// drive the serve daemon against its in-flight bound).
    pub fn with_get_delay(mut self, delay: Duration) -> Self {
        self.get_delay = Some(delay);
        self
    }

    /// How many injected panics have been triggered (counted before
    /// unwinding).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// How many delayed gets have been served.
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }
}

impl ArtifactTier for FaultTier {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn get(&self, stage: Stage, key: u64) -> TierRead {
        if self.panic_on == Some((stage, key)) {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: panic on get({stage:?}, {key:#x})");
        }
        if let Some(delay) = self.get_delay {
            self.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        if let Some(plan) = &self.plan {
            if plan.roll(FaultSite::DiskRead) {
                return TierRead::Miss;
            }
            if plan.roll(FaultSite::GarbageFrame) {
                return match self.inner.get(stage, key) {
                    TierRead::Hit(mut bytes) => {
                        if bytes.is_empty() {
                            TierRead::Miss
                        } else {
                            let i = plan.draw(FaultSite::GarbageFrame, bytes.len() as u64) as usize;
                            bytes[i] ^= 0xFF;
                            TierRead::Hit(bytes)
                        }
                    }
                    other => other,
                };
            }
        }
        self.inner.get(stage, key)
    }

    fn put(&self, stage: Stage, key: u64, payload: &[u8]) -> bool {
        if let Some(plan) = &self.plan {
            if plan.roll(FaultSite::DiskWrite) {
                return false;
            }
        }
        self.inner.put(stage, key, payload)
    }

    fn contains(&self, stage: Stage, key: u64) -> bool {
        self.inner.contains(stage, key)
    }

    fn stats(&self, stage: Stage) -> TierStats {
        self.inner.stats(stage)
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn mark_corrupt(&self, stage: Stage, key: u64) {
        self.inner.mark_corrupt(stage, key);
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryTier;

    #[test]
    fn splitmix_stream_is_pinned() {
        // Must match asip_gen::GenRng exactly — same constants, same
        // reference stream for seed 0.
        let mut rng = FaultRng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlan::new(42, FaultConfig::uniform(30));
        let b = FaultPlan::new(42, FaultConfig::uniform(30));
        for site in FaultSite::all() {
            for _ in 0..200 {
                assert_eq!(a.roll(site), b.roll(site));
            }
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "30% over 1600 rolls must fire");

        let c = FaultPlan::new(43, FaultConfig::uniform(30));
        let mut diverged = false;
        for site in FaultSite::all() {
            for _ in 0..200 {
                diverged |= c.roll(site) != b.roll(site);
            }
        }
        assert!(diverged, "different seeds must diverge");
    }

    #[test]
    fn zero_rate_sites_never_fire_and_never_draw() {
        let plan = FaultPlan::new(7, FaultConfig::default());
        for site in FaultSite::all() {
            for _ in 0..100 {
                assert!(!plan.roll(site));
            }
        }
        assert_eq!(plan.counts(), FaultCounts::default());
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn enabling_one_site_does_not_perturb_another() {
        // DiskRead's schedule must be identical whether or not the
        // remote sites are enabled (independent per-site streams).
        let solo = FaultPlan::new(9, FaultConfig::disk(25));
        let mixed = FaultPlan::new(9, FaultConfig::uniform(25));
        for _ in 0..500 {
            assert_eq!(
                solo.roll(FaultSite::DiskRead),
                mixed.roll(FaultSite::DiskRead)
            );
        }
    }

    #[test]
    fn fault_tier_injects_misses_drops_and_garble() {
        let inner = Arc::new(MemoryTier::new());
        let plan = Arc::new(FaultPlan::new(
            3,
            FaultConfig {
                disk_read_error: 50,
                disk_write_error: 50,
                garbage_frame: 50,
                ..FaultConfig::default()
            },
        ));
        let tier = FaultTier::new(inner.clone()).with_plan(plan.clone());

        let mut dropped = 0u64;
        for key in 0..200u64 {
            if !tier.put(Stage::Compile, key, b"payload-bytes") {
                dropped += 1;
            }
        }
        assert_eq!(dropped, plan.counts().disk_write_errors);
        assert!(dropped > 0, "50% over 200 puts must drop some");

        let mut misses = 0u64;
        let mut garbled = 0u64;
        for key in 0..200u64 {
            match tier.get(Stage::Compile, key) {
                TierRead::Miss => misses += 1,
                TierRead::Hit(bytes) => {
                    if bytes != b"payload-bytes" {
                        garbled += 1;
                    }
                }
                TierRead::Corrupt => {}
            }
        }
        let counts = plan.counts();
        assert!(misses >= counts.disk_read_errors);
        assert!(counts.disk_read_errors > 0);
        // Garbles only show on keys the inner tier actually holds.
        assert!(garbled > 0, "some garbled hits must surface");
        assert!(garbled <= counts.garbage_frames);
    }

    #[test]
    fn unarmed_fault_tier_is_transparent() {
        let inner = Arc::new(MemoryTier::new());
        let tier = FaultTier::new(inner.clone());
        assert!(tier.put(Stage::Profile, 1, b"abc"));
        assert!(matches!(tier.get(Stage::Profile, 1), TierRead::Hit(b) if b == b"abc"));
        assert!(tier.contains(Stage::Profile, 1));
        assert_eq!(tier.panics(), 0);
        assert_eq!(tier.delays(), 0);
    }

    #[test]
    fn panic_on_fires_only_for_the_exact_key() {
        let inner = Arc::new(MemoryTier::new());
        let tier = FaultTier::panic_probe(inner);
        assert!(matches!(tier.get(Stage::Compile, 1), TierRead::Miss));
        assert_eq!(tier.panics(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tier.get(Stage::Compile, PANIC_PROBE_KEY)
        }));
        assert!(caught.is_err());
        assert_eq!(tier.panics(), 1);
    }
}
