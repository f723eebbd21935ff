//! Persistence integration tests: the on-disk artifact store must give
//! separate `Explorer` sessions (stand-ins for separate bench-binary
//! processes) cross-session reuse, and every corruption mode must
//! degrade to a clean recompute — never an error, never a wrong result.

use asip_explorer::prelude::*;
use asip_explorer::store::{checksum, ManifestEntry, FORMAT_VERSION};
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

/// Every live record in the store, oldest-written first.
fn records(dir: &Path) -> Vec<ManifestEntry> {
    ArtifactStore::open(dir).snapshot()
}

/// Apply `damage` to every live record of the store and put each
/// result in a segment of its own (so a shortened record is a torn
/// segment tail), in place of the store's segments. Returns how many
/// records were rewritten.
fn rewrite_records(dir: &Path, mut damage: impl FnMut(&mut Vec<u8>)) -> usize {
    let entries = records(dir);
    let mut rewritten = Vec::new();
    for e in &entries {
        let segment = fs::read(&e.segment).expect("readable");
        let mut bytes = segment[e.offset as usize..(e.offset + e.bytes) as usize].to_vec();
        damage(&mut bytes);
        rewritten.push(bytes);
    }
    for entry in fs::read_dir(dir).expect("store dir").flatten() {
        fs::remove_file(entry.path()).expect("removable");
    }
    for (i, bytes) in rewritten.iter().enumerate() {
        fs::write(dir.join(format!("{i:016x}-00000000.seg")), bytes).expect("writable");
    }
    entries.len()
}

/// The byte offset of a record's key: after the magic (8), the version
/// (4), the stage-name length (1) and the name.
fn key_at(record: &[u8]) -> usize {
    13 + usize::from(record[12])
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

    // scribble garbage over every entry after its key (checksum/decode
    // failures)
    let scribbled = rewrite_records(&dir, |record| {
        let garbage = b"not an artifact at all".iter().cycle();
        let key_end = key_at(record) + 8;
        for (byte, junk) in record[key_end..].iter_mut().zip(garbage) {
            *byte = *junk;
        }
    });
    assert!(scribbled > 0, "store was populated");

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
    rewrite_records(&dir, |record| record.truncate(record.len() / 2));

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

    // forge a future format version into every record header (bytes
    // 8..12, straight after the 8-byte magic); payloads stay
    // byte-identical
    rewrite_records(&dir, |record| {
        record[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    });

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

/// Rewrite a current record as the previous format would have written
/// it: version field `FORMAT_VERSION - 1`, a key no current recipe
/// derives (old keys hashed the old version) and a checksum by the same
/// rule as the current one, an XXH64 over the header fields (version,
/// stage-name length and name, key, payload length) followed by the
/// payload's XXH64. Header: magic (8), version (4), stage-name length
/// (1) and name, key (8), payload length (8), checksum (8), payload.
/// The payload is left as it is, so only the framing marks the entry
/// stale.
fn forge_previous_format(record: &mut [u8]) {
    let key_at = key_at(record);
    let sum_at = key_at + 16;
    record[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    for byte in &mut record[key_at..key_at + 8] {
        *byte ^= 0x5e;
    }
    let mut covered = record[8..sum_at].to_vec();
    covered.extend_from_slice(&checksum(&record[sum_at + 8..]).to_le_bytes());
    record[sum_at..sum_at + 8].copy_from_slice(&checksum(&covered).to_le_bytes());
}

#[test]
fn entries_of_the_previous_format_are_stale_not_corrupt() {
    let dir = store_dir("stale");
    let first = Explorer::new().with_store(&dir);
    let clean = first.profile("sewha").expect("computes");

    // Turn the store into one the previous format wrote: every entry
    // moves to a key no current recipe derives, under the old header.
    let forged = rewrite_records(&dir, |record| forge_previous_format(record));

    let second = Explorer::new().with_store(&dir);
    let recomputed = second.profile("sewha").expect("recomputes");
    let stats = second.cache_stats();
    let disk = stats.tier("disk").total();
    assert_eq!(disk.hits, 0, "{stats}");
    assert_eq!(disk.corrupt, 0, "old keys are never read: {stats}");
    assert!(disk.writes > 0, "{stats}");
    assert_eq!(clean.profile, recomputed.profile);

    let report = second.store().expect("store attached").verify();
    assert_eq!(report.stale, forged as u64, "{report:?}");
    assert_eq!(report.corrupt, 0, "{report:?}");
    assert_eq!(report.ok, disk.writes, "{report:?}");

    // a bit flip in a current entry's version field stays corrupt
    let current = records(&dir)
        .into_iter()
        .find(|e| {
            let segment = fs::read(&e.segment).expect("readable");
            segment[e.offset as usize + 8..][..4] == FORMAT_VERSION.to_le_bytes()
        })
        .expect("a current entry");
    let mut bytes = fs::read(&current.segment).expect("readable");
    bytes[current.offset as usize + 8] ^= 0b100;
    fs::write(&current.segment, &bytes).expect("rewrite");
    let report = second.store().expect("store attached").verify();
    assert_eq!((report.stale, report.corrupt), (forged as u64, 1));

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
    assert!(!records(&dir).is_empty(), "the store was repopulated");

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
    let mut keys: Vec<u64> = records(dir)
        .into_iter()
        .filter(|e| e.stage == stage)
        .map(|e| e.key)
        .collect();
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
    // Recorded at format v8. These move only with a deliberate recipe
    // change, which also needs a FORMAT_VERSION bump (or a release:
    // the crate version is in every key), and then new constants here.
    assert_eq!(
        keys.map(|k| format!("{k:016x}")),
        [
            "667ac242ddbe74e0",
            "ff1b96a5ef4765d1",
            "736901edc56c1d44",
            "6c05178873ba87e9",
            "8eb66651a9daf7fb",
            "07ab007a5c7f6328",
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

#[test]
fn two_handles_on_one_directory_read_each_others_later_puts() {
    let dir = store_dir("two-handles");
    let (a, b) = (ArtifactStore::open(&dir), ArtifactStore::open(&dir));
    assert!(a.save(Stage::Compile, 1, &1u64));
    assert_eq!(b.load::<u64>(Stage::Compile, 1), Some(1), "b sees a's put");
    assert!(b.save(Stage::Compile, 2, &2u64));
    assert_eq!(a.load::<u64>(Stage::Compile, 2), Some(2), "a sees b's put");
    // both have indexed each other's segment; later appends show too
    assert!(a.save(Stage::Profile, 3, &3u64));
    assert!(b.save(Stage::Profile, 4, &4u64));
    assert_eq!(b.load::<u64>(Stage::Profile, 3), Some(3));
    assert_eq!(a.load::<u64>(Stage::Profile, 4), Some(4));
    // each appended only to its own segment
    assert_eq!(fs::read_dir(&dir).expect("store dir").count(), 2);
    for store in [&a, &b] {
        let totals = store.totals();
        assert_eq!((totals.hits, totals.misses, totals.corrupt), (2, 0, 0));
        assert_eq!((totals.writes, totals.entries), (2, 4));
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cold_explore_all_leaves_exactly_one_file() {
    let dir = store_dir("one-file");
    let session = Explorer::new()
        .with_registry(asip_explorer::benchmarks::full_registry())
        .with_store(&dir);
    session.explore_all().expect("explores");
    let writes = session.cache_stats().tier("disk").total().writes;
    assert!(writes >= 360, "every artifact was written: {writes}");
    let files: Vec<_> = fs::read_dir(&dir).expect("store dir").flatten().collect();
    assert_eq!(files.len(), 1, "one segment: {files:?}");
    assert_eq!(records(&dir).len() as u64, writes);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bit_flip_in_a_key_is_never_a_wrong_hit() {
    let dir = store_dir("key-flip");
    let store = ArtifactStore::open(&dir);
    assert!(store.save(Stage::Analyze, 5, &String::from("report")));
    // the flipped record is filed under key 4, where its checksum,
    // which covers the key, rejects it
    let [e] = &records(&dir)[..] else {
        panic!("one record")
    };
    let mut segment = fs::read(&e.segment).expect("readable");
    let key = e.offset as usize + key_at(&segment[e.offset as usize..]);
    segment[key] ^= 1;
    fs::write(&e.segment, &segment).expect("writable");
    let fresh = ArtifactStore::open(&dir);
    assert_eq!(fresh.load::<String>(Stage::Analyze, 5), None);
    assert_eq!(fresh.load::<String>(Stage::Analyze, 4), None);
    let stats = fresh.stats(Stage::Analyze);
    assert_eq!((stats.hits, stats.misses, stats.corrupt), (0, 1, 1));
    fs::remove_dir_all(&dir).ok();
}

/// A store written by format v7 — one `<stage>/<key>.art` file per
/// entry, no key in the header — holds no segment: it reads as absent,
/// never as corrupt, and `verify` lists nothing in it.
#[test]
fn a_v7_store_reads_as_absent_never_as_corrupt() {
    let dir = store_dir("v7");
    let clean = Explorer::new()
        .with_store(&dir)
        .profile("sewha")
        .expect("computes");
    // rewrite every record as v7 framed it, under its v7 path
    let entries = records(&dir);
    for e in &entries {
        let segment = fs::read(&e.segment).expect("readable");
        let record = &segment[e.offset as usize..(e.offset + e.bytes) as usize];
        let key_at = key_at(record);
        let mut v7 = [&record[..key_at], &record[key_at + 8..]].concat();
        v7[8..12].copy_from_slice(&7u32.to_le_bytes());
        let sum_at = key_at + 8;
        let mut covered = v7[8..sum_at].to_vec();
        covered.extend_from_slice(&checksum(&v7[sum_at + 8..]).to_le_bytes());
        v7[sum_at..sum_at + 8].copy_from_slice(&checksum(&covered).to_le_bytes());
        let path = dir.join(e.stage.name()).join(format!("{:016x}.art", e.key));
        fs::create_dir_all(path.parent().expect("stage dir")).expect("mkdir");
        fs::write(path, v7).expect("writable");
    }
    for e in &entries {
        fs::remove_file(&e.segment).ok();
    }
    let report = ArtifactStore::open(&dir).verify();
    assert_eq!((report.ok, report.stale, report.corrupt), (0, 0, 0));

    let second = Explorer::new().with_store(&dir);
    let recomputed = second.profile("sewha").expect("recomputes");
    let stats = second.cache_stats();
    let disk = stats.tier("disk").total();
    assert_eq!((disk.hits, disk.corrupt), (0, 0), "{stats}");
    assert!(disk.misses > 0, "{stats}");
    assert_eq!(clean.profile, recomputed.profile);
    fs::remove_dir_all(&dir).ok();
}
