//! Crash-recovery property tests riding the seeded program fuzzer.
//!
//! For sampled `(checkpoint batch i, crash batch j)` pairs over fuzzed
//! programs and update streams, the harness asserts the recovery invariant:
//!
//! > checkpoint at `i`, crash at `j`, recover, finish the stream
//! > ≡ the uncrashed run applying every batch,
//!
//! compared as full per-relation fact sets (hidden aggregation inputs
//! included).  Alongside it: typed-rejection tests for corrupted headers,
//! wrong format versions and mid-file truncation — corrupt files must be
//! *detected*, never deserialized into a session.
//!
//! The default sweep covers seeds `0..25`; set `CARAC_RECOVERY_SEEDS=N` to
//! widen it.

use std::collections::BTreeMap;
use std::path::PathBuf;

use carac::{Carac, CaracError, EngineConfig, PersistError};
use carac_analysis::{fuzz_program, FuzzCase, FuzzOp};
use carac_datalog::parser::parse;
use carac_storage::Tuple;

fn seed_count() -> u64 {
    std::env::var("CARAC_RECOVERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25)
}

fn temp_path(tag: &str, seed: u64) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "carac-recovery-{}-{tag}-{seed}",
        std::process::id()
    ));
    path
}

fn build_engine(case: &FuzzCase) -> Carac {
    let program = parse(&case.source)
        .unwrap_or_else(|e| panic!("fuzzed program failed to parse: {e}\n{}", case.reproducer()));
    let mut engine = Carac::new(program).with_config(EngineConfig::interpreted());
    for (relation, values) in &case.facts {
        engine
            .add_fact_ints(relation, values)
            .unwrap_or_else(|e| panic!("fact load failed: {e}\n{}", case.reproducer()));
    }
    engine
}

fn batch_of(engine: &Carac, ops: &[FuzzOp]) -> carac::UpdateBatch {
    let mut update = carac::UpdateBatch::new();
    for op in ops {
        let rel = engine
            .program()
            .relation_by_name(&op.relation)
            .expect("fuzzed relation exists");
        let tuple = Tuple::new(
            op.values
                .iter()
                .map(|&v| carac_storage::Value::int(v))
                .collect(),
        );
        if op.insert {
            update.insert(rel, tuple);
        } else {
            update.retract(rel, tuple);
        }
    }
    update
}

/// The live session's sorted fact set per IDB relation.
fn live_state(engine: &mut Carac) -> BTreeMap<String, Vec<Tuple>> {
    let names: Vec<String> = {
        let program = engine.program();
        program
            .idb_relations()
            .into_iter()
            .map(|rel| program.relation(rel).name.clone())
            .collect()
    };
    names
        .into_iter()
        .map(|name| {
            let mut tuples = engine.live_tuples(&name).expect("live read");
            tuples.sort();
            (name, tuples)
        })
        .collect()
}

#[test]
fn checkpoint_crash_recover_finish_matches_uncrashed() {
    for seed in 0..seed_count() {
        let case = fuzz_program(seed);
        let n = case.batches.len();
        if n == 0 {
            continue;
        }
        // Deterministically sample a checkpoint point i and a crash point
        // j >= i (both in batches; different seeds cover different pairs,
        // including i == 0, i == j and j == n).
        let i = (seed as usize * 7 + 3) % (n + 1);
        let j = i + ((seed as usize * 5 + 1) % (n - i + 1));

        // The uncrashed reference run.
        let mut uncrashed = build_engine(&case);
        for ops in &case.batches {
            let update = batch_of(&uncrashed, ops);
            uncrashed
                .apply_update(update)
                .unwrap_or_else(|e| panic!("uncrashed apply: {e}\n{}", case.reproducer()));
        }
        let expected = live_state(&mut uncrashed);

        // The crashed run: batches 0..i, checkpoint, journal, batches i..j,
        // crash (drop without any shutdown courtesy).
        let snap = temp_path("snap", seed);
        let wal = temp_path("wal", seed);
        let mut crashed = build_engine(&case);
        for ops in &case.batches[..i] {
            let update = batch_of(&crashed, ops);
            crashed.apply_update(update).expect("pre-checkpoint apply");
        }
        crashed.checkpoint(&snap).expect("checkpoint");
        crashed.journal_to(&wal).expect("journal attach");
        for ops in &case.batches[i..j] {
            let update = batch_of(&crashed, ops);
            crashed.apply_update(update).expect("journaled apply");
        }
        drop(crashed);

        // Recover and finish the stream.
        let mut recovered = build_engine(&case);
        let report = recovered
            .recover(&snap, &wal)
            .unwrap_or_else(|e| panic!("seed {seed}: recover failed: {e}\n{}", case.reproducer()));
        assert_eq!(report.replayed, (j - i) as u64, "seed {seed}");
        assert!(!report.torn_tail, "seed {seed}: no fault was injected");
        for ops in &case.batches[j..] {
            let update = batch_of(&recovered, ops);
            recovered.apply_update(update).expect("post-recovery apply");
        }
        assert_eq!(
            live_state(&mut recovered),
            expected,
            "seed {seed}: recovered run diverged (checkpoint@{i}, crash@{j})\n{}",
            case.reproducer()
        );

        // The post-recovery batches kept journaling: crashing *again* right
        // now and recovering replays everything after the checkpoint.
        drop(recovered);
        let mut again = build_engine(&case);
        let report = again.recover(&snap, &wal).expect("second recover");
        assert_eq!(report.replayed, (n - i) as u64, "seed {seed}");
        assert_eq!(
            live_state(&mut again),
            expected,
            "seed {seed}: second recovery diverged\n{}",
            case.reproducer()
        );
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&wal);
    }
}

/// A small deterministic checkpoint/journal pair for the rejection tests.
fn persisted_pair(tag: &str) -> (FuzzCase, PathBuf, PathBuf) {
    let case = fuzz_program(3);
    assert!(!case.batches.is_empty(), "seed 3 carries an update stream");
    let snap = temp_path(tag, 1000);
    let wal = temp_path(tag, 2000);
    let mut engine = build_engine(&case);
    engine.checkpoint(&snap).expect("checkpoint");
    engine.journal_to(&wal).expect("journal attach");
    for ops in &case.batches {
        let update = batch_of(&engine, ops);
        engine.apply_update(update).expect("apply");
    }
    (case, snap, wal)
}

#[test]
fn corrupted_headers_are_typed_rejections() {
    let (case, snap, wal) = persisted_pair("badmagic");
    for path in [&snap, &wal] {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }
    let mut engine = build_engine(&case);
    assert!(matches!(
        engine.restore(&snap).unwrap_err(),
        CaracError::Persist(PersistError::BadMagic { .. })
    ));
    assert!(
        !engine.is_live(),
        "rejected restore must not open a session"
    );
    // recover() validates the journal header the same way (restore the
    // snapshot header first so the journal check is the one that fires).
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(matches!(
        engine.recover(&snap, &wal).unwrap_err(),
        CaracError::Persist(PersistError::BadMagic { .. })
    ));
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn wrong_format_versions_are_typed_rejections() {
    let (case, snap, wal) = persisted_pair("badversion");
    // Version field sits at offset 8 (after the 8-byte magic) in both
    // formats.
    for path in [&snap, &wal] {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }
    let mut engine = build_engine(&case);
    match engine.restore(&snap).unwrap_err() {
        CaracError::Persist(PersistError::BadVersion { found, .. }) => assert_eq!(found, 99),
        other => panic!("expected BadVersion, got {other}"),
    }
    // Version 1 (no epoch runs) and version 2 (per-row support counts)
    // snapshots are no longer read either.
    let mut bytes = std::fs::read(&snap).unwrap();
    for old in [1u32, 2] {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&snap, &bytes).unwrap();
        match engine.restore(&snap).unwrap_err() {
            CaracError::Persist(PersistError::BadVersion { found, .. }) => assert_eq!(found, old),
            other => panic!("expected BadVersion, got {other}"),
        }
    }
    let fixed_snap = {
        bytes[8..12].copy_from_slice(&carac_storage::snapshot::SNAPSHOT_VERSION.to_le_bytes());
        std::fs::write(&snap, &bytes).unwrap();
        snap
    };
    match engine.recover(&fixed_snap, &wal).unwrap_err() {
        CaracError::Persist(PersistError::BadVersion { found, .. }) => assert_eq!(found, 99),
        other => panic!("expected BadVersion, got {other}"),
    }
    let _ = std::fs::remove_file(&fixed_snap);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn truncated_snapshot_is_a_typed_rejection() {
    let (case, snap, wal) = persisted_pair("truncsnap");
    let bytes = std::fs::read(&snap).unwrap();
    // A mid-file truncation of the snapshot (inside the relation section)
    // must be rejected; unlike the journal there is no "clean prefix" of a
    // checkpoint.
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
    let mut engine = build_engine(&case);
    match engine.restore(&snap).unwrap_err() {
        CaracError::Persist(
            PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. },
        ) => {}
        other => panic!("expected Truncated/ChecksumMismatch, got {other}"),
    }
    assert!(!engine.is_live());
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&wal);
}

/// checkpoint → crash → recover → continue on the `tc_live` shape: the
/// snapshot carries every row's epoch, so the recovered session's witness
/// checks decide exactly like those of a session that never stopped — the
/// same facts condemned, kept in place and re-derived, batch for batch.  (A
/// restore that lost the epochs would still be correct, but would condemn
/// every flagged fact and report larger counts.)
#[test]
fn a_recovered_session_prunes_deletions_like_an_uninterrupted_one() {
    use carac::UpdateStats;
    use carac_analysis::generators::{edge_update_stream, random_digraph};

    const NODES: u32 = 60;
    const CHECKPOINT_AT: usize = 30;
    const CRASH_AT: usize = 45;
    let base = random_digraph(NODES, 90, 0x7C11);
    let stream = edge_update_stream(&base, NODES, 80, 1, 0x57EA);
    let engine = || {
        let mut source =
            String::from("Path(x, y) :- Edge(x, y).\nPath(x, y) :- Edge(x, z), Path(z, y).\n");
        for (a, b) in &base {
            source.push_str(&format!("Edge({a}, {b}).\n"));
        }
        Carac::new(parse(&source).unwrap())
    };
    // What the maintenance decided, without the fields that legitimately
    // differ (the recovered pools start compacted).
    let decisions = |stats: &UpdateStats| {
        [
            stats.candidates_checked,
            stats.support_survivors,
            stats.overdeleted,
            stats.rederived,
            stats.derived_retracted,
            stats.derived_inserted,
        ]
    };
    let apply = |engine: &mut Carac, i: usize| {
        engine
            .apply_edge_updates("Edge", &stream[i].inserts, &stream[i].retracts)
            .unwrap_or_else(|e| panic!("batch {i}: {e}"))
            .stats
    };

    let mut uninterrupted = engine();
    let expected: Vec<[u64; 6]> = (0..stream.len())
        .map(|i| decisions(&apply(&mut uninterrupted, i)))
        .collect();
    assert!(
        expected[CHECKPOINT_AT..]
            .iter()
            .any(|d| d[1] > 0 && d[2] > 0),
        "the stream never exercises the witness check after the checkpoint"
    );

    let snap = temp_path("epoch-snap", 0);
    let wal = temp_path("epoch-wal", 0);
    {
        let mut crashed = engine();
        for i in 0..CHECKPOINT_AT {
            apply(&mut crashed, i);
        }
        crashed.checkpoint(&snap).expect("checkpoint");
        crashed.journal_to(&wal).expect("journal attach");
        for i in CHECKPOINT_AT..CRASH_AT {
            apply(&mut crashed, i);
        }
    }
    let mut recovered = engine();
    let report = recovered.recover(&snap, &wal).expect("recover");
    assert_eq!(report.replayed as usize, CRASH_AT - CHECKPOINT_AT);
    // The replayed batches, in sum...
    let replayed = decisions(&recovered.live_stats().expect("live session").update);
    for (field, total) in replayed.iter().enumerate() {
        let uninterrupted: u64 = expected[CHECKPOINT_AT..CRASH_AT]
            .iter()
            .map(|d| d[field])
            .sum();
        assert_eq!(*total, uninterrupted, "replay, field {field}");
    }
    // ...and every batch from there on, one by one.
    for (i, uninterrupted) in expected.iter().enumerate().skip(CRASH_AT) {
        assert_eq!(
            &decisions(&apply(&mut recovered, i)),
            uninterrupted,
            "batch {i} after recovery"
        );
    }
    assert_eq!(live_state(&mut recovered), live_state(&mut uninterrupted));
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&wal);
}
