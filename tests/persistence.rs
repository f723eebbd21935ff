//! Persistence integration tests: the on-disk artifact store must give
//! separate `Explorer` sessions (stand-ins for separate bench-binary
//! processes) cross-session reuse, and every corruption mode must
//! degrade to a clean recompute — never an error, never a wrong result.

use asip_explorer::prelude::*;
use asip_explorer::store::{StableHasher, FORMAT_VERSION};
use std::fs;
use std::path::{Path, PathBuf};

/// A per-test store directory under the system temp dir, cleared on
/// entry so reruns start cold. Tests run in one process but in
/// parallel, so the tag keeps them from sharing a store.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-persistence-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Every `.art` entry file in the store, at any stage.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(stages) = fs::read_dir(dir) else {
        return files;
    };
    for stage in stages.flatten() {
        let Ok(entries) = fs::read_dir(stage.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            if entry.path().extension().is_some_and(|e| e == "art") {
                files.push(entry.path());
            }
        }
    }
    files
}

fn assert_no_recomputes(stats: &CacheStats) {
    for stage in Stage::all() {
        assert_eq!(
            stats.stage(stage).misses,
            0,
            "stage {stage} recomputed despite a warm store: {stats}"
        );
    }
}

#[test]
fn second_session_serves_the_whole_pipeline_from_disk() {
    let dir = store_dir("cross-session");

    // session 1 — the "first binary": computes and writes through
    let first = Explorer::new().with_store(&dir);
    let run1 = first.explore("sewha").expect("pipeline runs");
    let stats1 = first.cache_stats();
    assert!(stats1.compile.misses > 0, "cold store computes");
    assert_eq!(stats1.compile.disk_hits, 0, "nothing to hit yet");
    assert!(
        stats1.total_disk_writes() >= 6,
        "every stage writes through: {stats1}"
    );

    // session 2 — the "second binary", sharing the directory while the
    // first session is still alive: zero recomputes anywhere
    let second = Explorer::new().with_store(&dir);
    let run2 = second.explore("sewha").expect("pipeline replays");
    let stats2 = second.cache_stats();
    assert_no_recomputes(&stats2);
    for stage in [
        Stage::Compile,
        Stage::Profile,
        Stage::Schedule,
        Stage::Analyze,
    ] {
        assert!(
            stats2.stage(stage).disk_hits > 0,
            "stage {stage} should hit disk: {stats2}"
        );
    }
    assert!(stats2.stage(Stage::Design).disk_hits > 0, "{stats2}");
    assert!(stats2.stage(Stage::Evaluate).disk_hits > 0, "{stats2}");
    assert_eq!(stats2.total_disk_corrupt(), 0);

    // and the artifacts are *identical*, not merely equivalent
    assert_eq!(run1.compiled.program, run2.compiled.program);
    assert_eq!(run1.profiled.profile, run2.profiled.profile);
    assert_eq!(run1.levels.len(), run2.levels.len());
    for ((s1, a1), (s2, a2)) in run1.levels.iter().zip(run2.levels.iter()) {
        assert_eq!(s1.graph, s2.graph);
        assert_eq!(a1.report, a2.report);
    }
    assert_eq!(run1.designed.design, run2.designed.design);
    assert_eq!(run1.evaluated.evaluation, run2.evaluated.evaluation);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_stages_share_the_store_across_sessions() {
    let dir = store_dir("suite");
    let members = ["sewha", "fir"];

    let first = Explorer::new().with_store(&dir);
    let suite1 = first
        .evaluate_suite_with(
            &members,
            DesignConstraints::default(),
            DetectorConfig::default(),
        )
        .expect("suite evaluates");
    assert!(first.cache_stats().design_suite.disk_writes > 0);

    let second = Explorer::new().with_store(&dir);
    let suite2 = second
        .evaluate_suite_with(
            &members,
            DesignConstraints::default(),
            DetectorConfig::default(),
        )
        .expect("suite replays");
    let stats = second.cache_stats();
    assert_no_recomputes(&stats);
    assert!(stats.design_suite.disk_hits > 0, "{stats}");
    assert!(stats.evaluate_suite.disk_hits > 0, "{stats}");
    assert_eq!(suite1.design, suite2.design);
    assert_eq!(suite1.evaluations, suite2.evaluations);
    assert_eq!(suite1.geomean_speedup(), suite2.geomean_speedup());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_configs_share_a_store_without_crosstalk() {
    let dir = store_dir("configs");
    let baseline = Explorer::new().with_store(&dir);
    let expected = baseline
        .analyze("sewha", OptLevel::Pipelined)
        .expect("analyzes");

    // a session with different optimizer knobs must not be served the
    // baseline's schedule from disk
    let tweaked = Explorer::new().with_store(&dir).with_opt_config(OptConfig {
        unroll: 4,
        ..OptConfig::default()
    });
    let other = tweaked
        .analyze("sewha", OptLevel::Pipelined)
        .expect("analyzes");
    assert!(
        tweaked.cache_stats().schedule.misses > 0,
        "a different OptConfig must recompute, not reuse"
    );
    assert_ne!(
        expected.report.series(),
        other.report.series(),
        "the tweaked config produces different feedback, so disk \
         crosstalk would be observable here"
    );

    // while the *same* config in a fresh session still hits
    let replay = Explorer::new().with_store(&dir);
    let again = replay
        .analyze("sewha", OptLevel::Pipelined)
        .expect("replays");
    assert_eq!(replay.cache_stats().schedule.misses, 0);
    assert_eq!(expected.report, again.report);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_entries_recompute_cleanly_and_heal_the_store() {
    let dir = store_dir("corrupt");
    let first = Explorer::new().with_store(&dir);
    let clean = first.evaluate("sewha").expect("computes");

    // scribble garbage over every entry (checksum/decode failures)
    let files = entry_files(&dir);
    assert!(!files.is_empty(), "store was populated");
    for f in &files {
        fs::write(f, b"not an artifact at all").expect("overwrite");
    }

    let second = Explorer::new().with_store(&dir);
    let healed = second
        .evaluate("sewha")
        .expect("recomputes despite corruption");
    let stats = second.cache_stats();
    assert!(
        stats.total_disk_corrupt() > 0,
        "corruption was observed: {stats}"
    );
    assert!(stats.total_misses() > 0, "stages recomputed");
    assert_eq!(
        clean.evaluation, healed.evaluation,
        "results are unaffected"
    );

    // the recompute wrote fresh entries: a third session hits again
    let third = Explorer::new().with_store(&dir);
    third.evaluate("sewha").expect("replays");
    let stats = third.cache_stats();
    assert_no_recomputes(&stats);
    assert_eq!(stats.total_disk_corrupt(), 0, "the store healed: {stats}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_entries_recompute_cleanly() {
    let dir = store_dir("truncate");
    let first = Explorer::new().with_store(&dir);
    let clean = first.evaluate("sewha").expect("computes");

    // keep only a prefix of every entry: valid magic, missing tail
    for f in entry_files(&dir) {
        let bytes = fs::read(&f).expect("readable");
        fs::write(&f, &bytes[..bytes.len() / 2]).expect("truncate");
    }

    let second = Explorer::new().with_store(&dir);
    let healed = second
        .evaluate("sewha")
        .expect("recomputes despite truncation");
    let stats = second.cache_stats();
    assert!(stats.total_disk_corrupt() > 0, "{stats}");
    assert_eq!(clean.evaluation, healed.evaluation);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_bump_invalidates_old_entries() {
    let dir = store_dir("version");
    let first = Explorer::new().with_store(&dir);
    let clean = first.profile("sewha").expect("computes");

    // forge a future format version into every file header (bytes 8..12,
    // straight after the 8-byte magic); payloads stay byte-identical
    for f in entry_files(&dir) {
        let mut bytes = fs::read(&f).expect("readable");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&f, &bytes).expect("rewrite");
    }

    let second = Explorer::new().with_store(&dir);
    let recomputed = second
        .profile("sewha")
        .expect("recomputes under version skew");
    let stats = second.cache_stats();
    assert_eq!(
        stats.total_disk_hits(),
        0,
        "no stale entry may be served: {stats}"
    );
    assert!(stats.total_disk_corrupt() > 0, "{stats}");
    assert_eq!(clean.profile, recomputed.profile);

    fs::remove_dir_all(&dir).ok();
}

/// Rewrite a current entry file as the previous format wrote it:
/// version field `FORMAT_VERSION - 1` and an FNV-1a 64 payload checksum.
/// Header: magic (8), version (4), stage-name length (1) and name,
/// payload length (8), checksum (8), payload.
fn forge_previous_format(bytes: &[u8]) -> Vec<u8> {
    let name_len = usize::from(bytes[12]);
    let sum_at = 13 + name_len + 8;
    let mut fnv = StableHasher::new();
    fnv.write(&bytes[sum_at + 8..]);
    let mut old = bytes.to_vec();
    old[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    old[sum_at..sum_at + 8].copy_from_slice(&fnv.finish().to_le_bytes());
    old
}

#[test]
fn entries_of_the_previous_format_are_stale_not_corrupt() {
    let dir = store_dir("stale");
    let first = Explorer::new().with_store(&dir);
    let clean = first.profile("sewha").expect("computes");

    // Turn the store into one the previous format wrote: every entry
    // moves to a key no current recipe derives (old keys hashed the old
    // version), under the old header.
    let files = entry_files(&dir);
    for f in &files {
        let bytes = fs::read(f).expect("readable");
        let stem = f.file_stem().and_then(|s| s.to_str()).expect("hex stem");
        let key = u64::from_str_radix(stem, 16).expect("hex key");
        let moved = f.with_file_name(format!("{:016x}.art", key ^ 0x5eed_5eed_5eed_5eed));
        fs::write(moved, forge_previous_format(&bytes)).expect("write");
        fs::remove_file(f).expect("remove");
    }

    let second = Explorer::new().with_store(&dir);
    let recomputed = second.profile("sewha").expect("recomputes");
    let stats = second.cache_stats();
    assert_eq!(stats.total_disk_hits(), 0, "{stats}");
    assert_eq!(
        stats.total_disk_corrupt(),
        0,
        "old keys are never read: {stats}"
    );
    assert!(stats.total_disk_writes() > 0, "{stats}");
    assert_eq!(clean.profile, recomputed.profile);

    let report = second.store().expect("store attached").verify();
    assert_eq!(report.stale, files.len() as u64, "{report:?}");
    assert_eq!(report.corrupt, 0, "{report:?}");
    assert_eq!(report.ok, stats.total_disk_writes(), "{report:?}");

    // a bit flip in a current entry's version field stays corrupt
    let current = entry_files(&dir)
        .into_iter()
        .find(|f| fs::read(f).is_ok_and(|b| b[8..12] == FORMAT_VERSION.to_le_bytes()))
        .expect("a current entry");
    let mut bytes = fs::read(&current).expect("readable");
    bytes[8] ^= 0b100;
    fs::write(&current, &bytes).expect("rewrite");
    let report = second.store().expect("store attached").verify();
    assert_eq!((report.stale, report.corrupt), (files.len() as u64, 1));

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleting_the_store_mid_session_only_costs_recomputes() {
    let dir = store_dir("rm-rf");
    let session = Explorer::new().with_store(&dir);
    session.analyze("sewha", OptLevel::None).expect("computes");

    // `rm -rf` the store while the session is live…
    fs::remove_dir_all(&dir).expect("store removable");

    // …memory-cached artifacts still hit, and a *new* key (different
    // level) recomputes and repopulates the directory without error
    session
        .analyze("sewha", OptLevel::None)
        .expect("memory hit");
    session
        .analyze("sewha", OptLevel::Pipelined)
        .expect("recomputes after rm -rf");
    assert!(!entry_files(&dir).is_empty(), "the store was repopulated");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn sessions_without_a_store_never_touch_disk_counters() {
    let session = Explorer::new();
    session.analyze("sewha", OptLevel::None).expect("computes");
    let stats = session.cache_stats();
    assert_eq!(stats.total_disk_hits(), 0);
    assert_eq!(stats.total_disk_misses(), 0);
    assert_eq!(stats.total_disk_writes(), 0);
    assert_eq!(stats.total_disk_corrupt(), 0);
    assert!(session.store().is_none());
}
