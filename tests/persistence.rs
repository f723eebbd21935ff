//! Persistence integration tests: the on-disk artifact store must give
//! separate `Explorer` sessions (stand-ins for separate bench-binary
//! processes) cross-session reuse, and every corruption mode must
//! degrade to a clean recompute — never an error, never a wrong result.

use asip_explorer::prelude::*;
use asip_explorer::store::{checksum, FORMAT_VERSION};
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
    let disk1 = stats1.tier("disk");
    assert_eq!(disk1.stage(Stage::Compile).hits, 0, "nothing to hit yet");
    assert!(
        disk1.total().writes >= 6,
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
            stats2.tier("disk").stage(stage).hits > 0,
            "stage {stage} should hit disk: {stats2}"
        );
    }
    let disk2 = stats2.tier("disk");
    assert!(disk2.stage(Stage::Design).hits > 0, "{stats2}");
    assert!(disk2.stage(Stage::Evaluate).hits > 0, "{stats2}");
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
    let disk = first.cache_stats().tier("disk");
    assert!(disk.stage(Stage::DesignSuite).writes > 0);

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
    let disk = stats.tier("disk");
    assert!(disk.stage(Stage::DesignSuite).hits > 0, "{stats}");
    assert!(disk.stage(Stage::EvaluateSuite).hits > 0, "{stats}");
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
        stats.tier("disk").total().hits,
        0,
        "no stale entry may be served: {stats}"
    );
    assert!(stats.total_disk_corrupt() > 0, "{stats}");
    assert_eq!(clean.profile, recomputed.profile);

    fs::remove_dir_all(&dir).ok();
}

/// Rewrite a current entry file as the previous format wrote it:
/// version field `FORMAT_VERSION - 1` and that version's checksum, which
/// like the current one is an XXH64 over the header fields (version,
/// stage-name length and name, payload length) followed by the
/// payload's XXH64. Header: magic (8), version (4), stage-name length
/// (1) and name, payload length (8), checksum (8), payload. The payload
/// is left as it is, so only the framing marks the entry stale.
fn forge_previous_format(bytes: &[u8]) -> Vec<u8> {
    let name_len = usize::from(bytes[12]);
    let sum_at = 13 + name_len + 8;
    let mut old = bytes.to_vec();
    old[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    let mut covered = old[8..sum_at].to_vec();
    covered.extend_from_slice(&checksum(&old[sum_at + 8..]).to_le_bytes());
    old[sum_at..sum_at + 8].copy_from_slice(&checksum(&covered).to_le_bytes());
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
    let disk = stats.tier("disk").total();
    assert_eq!(disk.hits, 0, "{stats}");
    assert_eq!(disk.corrupt, 0, "old keys are never read: {stats}");
    assert!(disk.writes > 0, "{stats}");
    assert_eq!(clean.profile, recomputed.profile);

    let report = second.store().expect("store attached").verify();
    assert_eq!(report.stale, files.len() as u64, "{report:?}");
    assert_eq!(report.corrupt, 0, "{report:?}");
    assert_eq!(report.ok, disk.writes, "{report:?}");

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
    assert!(stats.tiers.is_empty(), "{stats}");
    assert_eq!(stats.tier("disk").total(), TierStats::default());
    assert!(session.store().is_none());
}

/// Every entry key in the store for `stage`, sorted.
fn stage_keys(dir: &Path, stage: Stage) -> Vec<u64> {
    let mut keys: Vec<u64> = fs::read_dir(dir.join(stage.name()))
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    u64::from_str_radix(name.strip_suffix(".art")?, 16).ok()
                })
                .collect()
        })
        .unwrap_or_default();
    keys.sort_unstable();
    keys
}

/// Every entry key in the store, by stage.
fn all_keys(dir: &Path) -> Vec<(Stage, Vec<u64>)> {
    Stage::all()
        .into_iter()
        .map(|stage| (stage, stage_keys(dir, stage)))
        .collect()
}

#[test]
fn stage_keys_are_pinned() {
    let dir = store_dir("pinned");
    Explorer::new()
        .with_seed(1)
        .with_store(&dir)
        .explore("fir")
        .expect("explores");
    // level 1 alone tells its schedule and analyze entries apart from
    // the other levels'
    let level1 = store_dir("pinned-level1");
    Explorer::new()
        .with_seed(1)
        .with_store(&level1)
        .analyze("fir", OptLevel::Pipelined)
        .expect("analyzes");
    let only = |dir: &Path, stage: Stage| match stage_keys(dir, stage)[..] {
        [key] => key,
        ref keys => panic!("{stage}: expected one entry, found {keys:x?}"),
    };
    let level1_schedule = only(&level1, Stage::Schedule);
    let level1_analyze = only(&level1, Stage::Analyze);
    assert!(stage_keys(&dir, Stage::Schedule).contains(&level1_schedule));
    assert!(stage_keys(&dir, Stage::Analyze).contains(&level1_analyze));
    let keys = [
        only(&dir, Stage::Compile),
        only(&dir, Stage::Profile),
        level1_schedule,
        level1_analyze,
        only(&dir, Stage::Design),
        only(&dir, Stage::Evaluate),
    ];
    // Recorded at format v7. These move only with a deliberate recipe
    // change, which also needs a FORMAT_VERSION bump (or a release:
    // the crate version is in every key), and then new constants here.
    assert_eq!(
        keys.map(|k| format!("{k:016x}")),
        [
            "c7858ffa000af249",
            "a2bdbaa8c8c02d58",
            "27dde56cfed4d97d",
            "817f509e6ab71f32",
            "72443228bcecb41e",
            "f88016f17a8769b5",
        ],
        "compile, profile, level-1 schedule, level-1 analyze, design, evaluate"
    );
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&level1).ok();
}

#[test]
fn a_one_byte_source_change_moves_exactly_that_benchmarks_keys() {
    let mut edited = asip_benchmarks::registry();
    let fir = *edited.find("fir").expect("built-in");
    let mut source = fir.source.to_string();
    assert_eq!(source.pop(), Some('\n'));
    source.push(' ');
    edited.push(Benchmark {
        source: Box::leak(source.into_boxed_str()),
        ..fir
    });

    let keys_of = |tag: &str, registry: Option<&asip_benchmarks::Registry>, name: &str| {
        let dir = store_dir(tag);
        let session = Explorer::new().with_seed(1);
        let session = match registry {
            Some(registry) => session.with_registry(registry.clone()),
            None => session,
        };
        session.with_store(&dir).explore(name).expect("explores");
        let keys = all_keys(&dir);
        fs::remove_dir_all(&dir).ok();
        keys
    };
    let (fir_before, fir_after) = (
        keys_of("edit-fir-before", None, "fir"),
        keys_of("edit-fir-after", Some(&edited), "fir"),
    );
    for ((stage, before), (_, after)) in fir_before.iter().zip(&fir_after) {
        assert_eq!(before.len(), after.len(), "{stage}");
        assert!(
            before.iter().all(|k| !after.contains(k)),
            "{stage}: every fir key moves: {before:x?} vs {after:x?}"
        );
    }
    assert_eq!(
        keys_of("edit-iir-before", None, "iir"),
        keys_of("edit-iir-after", Some(&edited), "iir"),
        "no other benchmark's key moves"
    );
}
