//! Seeded chaos sweeps: many deterministic [`FaultPlan`]s driven
//! through full `explore_all` sessions — store-backed, remote-backed,
//! and multi-client against one serve daemon — plus a simulated-crash
//! truncation sweep over every record of a store segment and poisoned
//! payloads planted through the daemon's `Put`.
//!
//! The invariants are absolute, not statistical:
//!
//! - **byte identity** — a faulted session's results must equal a
//!   fault-free baseline exactly (torn bytes are never served);
//! - **zero escaped panics** — every injected fault degrades inside the
//!   tier contract (the tests passing at all proves this);
//! - **reconciliation** — every injected fault is visible as exactly
//!   one counted degradation in `CacheStats` / `RemoteTotals`.
//!
//! Volume scales with `ASIP_CHAOS_SEEDS` (the CI `chaos` job raises it;
//! the tier-1 default keeps local runs quick), mirroring the
//! `ASIP_GEN_SWEEP_SEEDS` convention of the generator sweep.

use asip_explorer::artifact::{ArtifactCodec, Encoder};
use asip_explorer::ir::{BlockId, Program};
use asip_explorer::prelude::{ScheduleGraph, SequenceReport, Stage};
use asip_explorer::remote::{serve, Endpoint, RemoteTier, RetryPolicy, ServeOptions};
use asip_explorer::tier::ArtifactTier;
use asip_explorer::{
    ArtifactStore, CodecError, Exploration, Explorer, FaultConfig, FaultPlan, FaultTier, MemoryTier,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use std::{fs, thread};

/// Seeds per sweep. The CI chaos job sets `ASIP_CHAOS_SEEDS=100`, so
/// the two `explore_all` sweeps alone push 200 distinct plans.
fn seed_count() -> u64 {
    std::env::var("ASIP_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-chaos-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn loopback() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

/// A retry policy tight enough for fault sweeps: real backoff (so the
/// jittered path runs) but millisecond-scale, seeded so the whole
/// session — workload *and* fault schedule *and* retry schedule — is
/// reproducible from one number.
fn chaos_policy(seed: u64) -> RetryPolicy {
    // the generous timeout is deliberate: injected Timeout faults fail
    // immediately regardless, and a *real* timeout on a loaded CI
    // machine would break the exact faults == failed-attempts
    // reconciliation below
    RetryPolicy {
        attempts: 3,
        timeout: Duration::from_secs(2),
        backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    }
    .with_jitter_seed(seed)
}

/// Daemon options for chaos runs: short I/O timeout so connections a
/// fault plan kills mid-frame are cut loose quickly.
fn chaos_serve_options() -> ServeOptions {
    ServeOptions {
        io_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    }
}

fn digest(explorations: &[Exploration]) -> String {
    format!("{explorations:?}")
}

/// The fault-free reference: one storeless `explore_all`, computed
/// once. Every faulted sweep below must reproduce it byte for byte.
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let session = Explorer::new();
        digest(&session.explore_all().expect("baseline explores"))
    })
}

// -- store-backed sweep ------------------------------------------------

#[test]
fn disk_fault_sweep_is_byte_identical_and_reconciles() {
    let expected = baseline();
    for i in 0..seed_count() {
        let seed = 0xD15Cu64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let dir = store_dir(&format!("disk-{i}"));
        let plan = Arc::new(FaultPlan::new(seed, FaultConfig::disk(20)));

        // session 1 computes everything under injected read errors,
        // dropped writes and torn writes
        {
            let session = Explorer::new().with_store(&dir);
            let store = session.store().expect("store attached");
            store.arm_faults(Arc::clone(&plan));
            let explorations = session.explore_all().expect("faulted session completes");
            assert_eq!(digest(&explorations), expected, "disk seed {seed:#x}");
            store.disarm_faults();
        }

        // session 2, fault-free, over the survivors: every injected
        // write fault must resurface as exactly one recompute
        let counts = plan.counts();
        let clean = Explorer::new().with_store(&dir);
        let explorations = clean.explore_all().expect("clean session completes");
        assert_eq!(digest(&explorations), expected, "disk seed {seed:#x}");
        let stats = clean.cache_stats();
        assert_eq!(
            stats.total_misses(),
            counts.disk_write_errors + counts.torn_writes,
            "disk seed {seed:#x}: dropped/torn writes vs recomputes: {stats} vs {counts:?}"
        );
        // every torn record a reader can attribute to its key (one cut
        // after the key) is rejected as corrupt on its first read and
        // not read again, so a recompute replaces it; one cut inside
        // its key reads as absent. Corrupt reads come from *nowhere
        // else*
        let attributable = counts.torn_writes - counts.torn_unattributable;
        assert_eq!(
            stats.total_disk_corrupt(),
            attributable,
            "disk seed {seed:#x}: attributable torn writes vs corrupt reads: {stats} vs {counts:?}"
        );
        // the healed store verifies clean
        let report = clean.store().expect("store attached").verify();
        assert_eq!(report.corrupt, 0, "disk seed {seed:#x}: store heals");
        fs::remove_dir_all(&dir).ok();
    }
}

// -- remote-backed sweep -----------------------------------------------

#[test]
fn remote_fault_sweep_is_byte_identical_and_reconciles() {
    let expected = baseline();
    let dir = store_dir("remote-daemon");
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    let handle = serve(server_session, &loopback(), chaos_serve_options()).expect("binds");
    let addr = handle.endpoint().to_string();

    for i in 0..seed_count() {
        let seed = 0x7E40u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let plan = Arc::new(FaultPlan::new(seed, FaultConfig::remote(15)));
        let session = Explorer::new()
            .with_remote(&addr, chaos_policy(seed))
            .expect("daemon endpoint parses");
        session
            .remote()
            .expect("remote attached")
            .arm_faults(Arc::clone(&plan));
        let explorations = session.explore_all().expect("faulted client completes");
        assert_eq!(digest(&explorations), expected, "remote seed {seed:#x}");

        // each injected wire fault killed exactly one attempt, and
        // every killed attempt was either retried or degraded
        let totals = session.cache_stats().remote;
        let counts = plan.counts();
        assert_eq!(
            totals.retries + totals.errors,
            counts.remote_total(),
            "remote seed {seed:#x}: injected faults vs failed attempts: {totals:?} vs {counts:?}"
        );
    }

    let stats = handle.shutdown();
    assert_eq!(stats.panics, 0, "no injected fault may panic the daemon");
    fs::remove_dir_all(&dir).ok();
}

// -- multi-client serve session ----------------------------------------

#[test]
fn concurrent_faulted_clients_stay_byte_identical() {
    let expected = baseline().to_string();
    let dir = store_dir("multi-client");
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    let handle = serve(server_session, &loopback(), chaos_serve_options()).expect("binds");
    let addr = handle.endpoint().to_string();

    let clients: Vec<_> = (0..3u64)
        .map(|t| {
            let addr = addr.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let seed = 0xC11E_0000u64 + t;
                let plan = Arc::new(FaultPlan::new(seed, FaultConfig::remote(10)));
                let session = Explorer::new()
                    .with_remote(&addr, chaos_policy(seed))
                    .expect("daemon endpoint parses");
                session
                    .remote()
                    .expect("remote attached")
                    .arm_faults(Arc::clone(&plan));
                let explorations = session.explore_all().expect("client completes");
                assert_eq!(digest(&explorations), expected, "client {t}");
                let totals = session.cache_stats().remote;
                let counts = plan.counts();
                assert_eq!(
                    totals.retries + totals.errors,
                    counts.remote_total(),
                    "client {t}: injected faults vs failed attempts"
                );
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread must not panic");
    }

    let stats = handle.shutdown();
    assert_eq!(stats.panics, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn overloaded_daemon_sheds_typed_and_clients_degrade_correctly() {
    let expected = baseline().to_string();
    let dir = store_dir("overload");
    // a deliberately slow bottom tier (every get sleeps) plus an
    // in-flight bound of 1 forces concurrent clients into the shed path
    let slow = Arc::new(
        FaultTier::new(Arc::new(MemoryTier::new())).with_get_delay(Duration::from_millis(2)),
    );
    let server_session = Arc::new(Explorer::new().with_store(&dir).with_tier(slow));
    let options = ServeOptions {
        max_inflight: 1,
        ..chaos_serve_options()
    };
    let handle = serve(server_session, &loopback(), options).expect("binds");
    let addr = handle.endpoint().to_string();

    let clients: Vec<_> = (0..3u64)
        .map(|t| {
            let addr = addr.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let session = Explorer::new()
                    .with_remote(&addr, chaos_policy(0xBEEF + t))
                    .expect("daemon endpoint parses");
                let explorations = session.explore_all().expect("client completes");
                assert_eq!(digest(&explorations), expected, "client {t}");
                let totals = session.cache_stats().remote;
                assert_eq!(
                    totals.skipped, 0,
                    "client {t}: overload must never trip the health gate"
                );
                totals.overloaded
            })
        })
        .collect();
    let client_sheds: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread must not panic"))
        .sum();

    let stats = handle.shutdown();
    assert!(
        stats.overloaded > 0,
        "three clients against max_inflight=1 must shed"
    );
    assert_eq!(
        stats.overloaded, client_sheds,
        "every shed answered by the server was observed by a client"
    );
    assert_eq!(stats.panics, 0);
    fs::remove_dir_all(&dir).ok();
}

// -- simulated-crash consistency sweep ---------------------------------

/// The store's only segment file.
fn only_segment(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(files.len(), 1, "one segment: {files:?}");
    files.into_iter().next().expect("one file")
}

/// The offsets worth tearing a record at: both edges, the record header
/// boundaries, and the middle.
fn interesting_offsets(len: usize) -> Vec<usize> {
    let mut offsets: Vec<usize> = [0, 1, 8, 12, 13, 21, 29, 37, len / 2, len.saturating_sub(1)]
        .into_iter()
        .filter(|&o| o < len)
        .collect();
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

#[test]
fn crash_truncation_sweep_always_recovers_and_heals() {
    // seed a pristine single-benchmark store: one segment
    let pristine = store_dir("crash-pristine");
    let expected = {
        let session = Explorer::new().with_store(&pristine);
        let run = session.explore("fir").expect("seeds the store");
        format!("{run:?}")
    };
    let records = ArtifactStore::open(&pristine).snapshot();
    assert!(records.len() >= 6, "fir writes every stage: {records:?}");
    let segment = only_segment(&pristine);
    let pristine_bytes = fs::read(&segment).expect("segment readable");
    let name = segment.file_name().expect("a file name");

    let scratch = store_dir("crash-scratch");
    let mut cases = 0u32;
    for record in &records {
        let (start, len) = (record.offset as usize, record.bytes as usize);
        let at = |offset| format!("{} {:x} at {offset}", record.stage, record.key);
        for offset in interesting_offsets(len) {
            // crash mid-append: the segment ends inside this record
            fs::remove_dir_all(&scratch).ok();
            fs::create_dir_all(&scratch).expect("scratch dir");
            fs::write(scratch.join(name), &pristine_bytes[..start + offset]).expect("tears");
            let session = Explorer::new().with_store(&scratch);
            let run = session.explore("fir").expect("recovers from torn record");
            assert_eq!(format!("{run:?}"), expected, "torn {}", at(offset));
            // the recompute healed the record
            let report = session.store().expect("store").verify();
            assert_eq!(report.corrupt, 0, "torn {}", at(offset));
            cases += 1;

            // bit rot: the same offset flipped instead of truncated
            fs::remove_dir_all(&scratch).ok();
            fs::create_dir_all(&scratch).expect("scratch dir");
            let mut flipped = pristine_bytes.clone();
            flipped[start + offset] ^= 0xFF;
            fs::write(scratch.join(name), &flipped).expect("flips");
            let session = Explorer::new().with_store(&scratch);
            let run = session.explore("fir").expect("recovers from bit rot");
            assert_eq!(format!("{run:?}"), expected, "flipped {}", at(offset));
            cases += 1;
        }
    }
    assert!(
        cases >= 60,
        "the sweep must cover many crash points: {cases}"
    );
    fs::remove_dir_all(&scratch).ok();
    fs::remove_dir_all(&pristine).ok();
}

// -- poisoned puts -----------------------------------------------------

/// The keys of every live record a store directory holds at `stage`.
fn stage_keys(dir: &Path, stage: Stage) -> Vec<u64> {
    let mut keys: Vec<u64> = ArtifactStore::open(dir)
        .snapshot()
        .into_iter()
        .filter(|e| e.stage == stage)
        .map(|e| e.key)
        .collect();
    keys.sort_unstable();
    keys
}

/// A report's encoding with its first frequency replaced by NaN,
/// written through the public encoder field by field, since
/// `SequenceReport` itself cannot hold an unsortable frequency.
fn nan_report_bytes(report: &SequenceReport) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(&report.name);
    enc.put_seq(report.entries().len());
    for (i, (signature, stats)) in report.entries().iter().enumerate() {
        signature.encode(&mut enc);
        enc.put_f64(if i == 0 { f64::NAN } else { stats.frequency });
        enc.put_u64(stats.occurrences as u64);
    }
    enc.put_u64(report.total_profile_ops);
    enc.into_bytes()
}

/// The daemon stores `Put` payloads without decoding them, so a client
/// can plant framed, correctly checksummed payloads that no reader may
/// accept: a NaN frequency (which the report's sort cannot order), a
/// NaN schedule weight, a truncated program and a program whose entry
/// block is out of range. A fresh client must count each as corrupt,
/// recompute byte-identical results, and never panic.
#[test]
fn poisoned_puts_are_counted_corrupt_and_recomputed() {
    let expected = format!("{:?}", Explorer::new().explore("fir").expect("explores"));
    let dir = store_dir("poisoned-put");
    let server_session = Arc::new(Explorer::new().with_store(&dir));
    let handle = serve(server_session, &loopback(), chaos_serve_options()).expect("binds");
    let addr = handle.endpoint().to_string();

    // an ordinary client populates the daemon's store through its puts
    let first = Explorer::new()
        .with_remote(&addr, chaos_policy(1))
        .expect("daemon endpoint parses");
    first.explore("fir").expect("explores");

    // a hostile client overwrites every analyze and schedule entry
    let reader = ArtifactStore::open(&dir);
    let hostile = RemoteTier::new(handle.endpoint().clone(), chaos_policy(2));
    let mut poisoned = 0u64;
    for key in stage_keys(&dir, Stage::Analyze) {
        let report: SequenceReport = reader.load(Stage::Analyze, key).expect("valid entry");
        assert!(report.entries().len() >= 2, "the sort must compare a NaN");
        let poison = nan_report_bytes(&report);
        assert!(
            matches!(
                SequenceReport::from_bytes(&poison),
                Err(CodecError::Invalid { detail }) if detail.contains("frequency")
            ),
            "the poison is rejected for its frequency"
        );
        assert!(hostile.put(Stage::Analyze, key, &poison), "put lands");
        poisoned += 1;
    }
    for key in stage_keys(&dir, Stage::Schedule) {
        let mut graph: ScheduleGraph = reader.load(Stage::Schedule, key).expect("valid entry");
        let op = graph.ops.first_mut().expect("a graph with ops");
        op.weight = f64::NAN;
        let poison = graph.to_bytes();
        assert!(
            matches!(
                ScheduleGraph::from_bytes(&poison),
                Err(CodecError::Invalid { detail }) if detail.contains("weight")
            ),
            "the poison is rejected for its weight"
        );
        assert!(hostile.put(Stage::Schedule, key, &poison), "put lands");
        poisoned += 1;
    }
    assert_eq!(poisoned, 6, "three levels of analyze and schedule entries");

    let fresh = Explorer::new()
        .with_remote(&addr, chaos_policy(3))
        .expect("daemon endpoint parses");
    let run = fresh
        .explore("fir")
        .expect("a poisoned tier costs recomputes");
    assert_eq!(format!("{run:?}"), expected, "byte-identical results");
    let stats = fresh.cache_stats();
    assert_eq!(stats.total_remote_corrupt(), poisoned, "{stats}");
    for stage in [Stage::Analyze, Stage::Schedule] {
        let remote = stats.tier("remote").stage(stage);
        assert_eq!(remote.corrupt, 3, "{stage}: {stats}");
    }

    // then the compile entry, twice over, each read by a fresh client:
    // truncated bytes, and a program that decodes field by field but
    // fails `Program::validate`
    let [key] = stage_keys(&dir, Stage::Compile)[..] else {
        panic!("one compile entry for fir")
    };
    let mut program: Program = reader.load(Stage::Compile, key).expect("valid entry");
    let valid = program.to_bytes();
    let truncated = valid[..valid.len() / 2].to_vec();
    assert!(
        Program::from_bytes(&truncated).is_err(),
        "truncation is rejected"
    );
    program.entry = BlockId(program.blocks.len() as u32);
    let out_of_range = program.to_bytes();
    assert!(
        matches!(
            Program::from_bytes(&out_of_range),
            Err(CodecError::Invalid { detail }) if detail.contains("program rejected")
        ),
        "the poison is rejected by validation"
    );
    for (seed, poison) in [(4, truncated), (5, out_of_range)] {
        assert!(hostile.put(Stage::Compile, key, &poison), "put lands");
        poisoned += 1;
        let fresh = Explorer::new()
            .with_remote(&addr, chaos_policy(seed))
            .expect("daemon endpoint parses");
        let run = fresh
            .explore("fir")
            .expect("a poisoned program costs a recompile");
        assert_eq!(format!("{run:?}"), expected, "byte-identical results");
        let stats = fresh.cache_stats();
        let remote = stats.tier("remote");
        assert_eq!(remote.stage(Stage::Compile).corrupt, 1, "{stats}");
        assert_eq!(remote.total().corrupt, 1, "only the program: {stats}");
    }
    assert_eq!(poisoned, 8, "six stage entries and two programs");

    let served = handle.shutdown();
    assert_eq!(served.panics, 0);
    fs::remove_dir_all(&dir).ok();
}
