//! Durable storage for live sessions: checkpoint/restore plus the
//! write-ahead update journal and crash recovery.
//!
//! The protocol has three moving parts, all built on the std-only on-disk
//! formats of `carac_storage::{snapshot, journal}`:
//!
//! * **Checkpoint** ([`Carac::checkpoint`]) — an atomic (temp file + fsync +
//!   rename) snapshot of the live session's *entire* derived database:
//!   every relation's rows, their epochs and the compaction generation
//!   counters, plus the program's symbol dictionary.  A restored session
//!   resumes [`Carac::apply_update`] immediately — no re-derivation, and the
//!   witness check keeps the epoch order it prunes deletions by.
//! * **Journal** ([`Carac::journal_to`]) — an append-only log of
//!   [`UpdateBatch`]es.  Each batch is framed, CRC-checksummed, sequence
//!   numbered and **fsync'd before the in-memory state changes**, so at
//!   every instant the on-disk journal is a superset of the applied batches.
//! * **Recovery** ([`Carac::recover`]) — restore a checkpoint, then replay
//!   the journal suffix (records with sequence numbers beyond the
//!   checkpoint's watermark) through the ordinary incremental maintenance
//!   path.  The recovered fact sets are *identical* to the uncrashed run's —
//!   the fault-injection suite in `tests/fault_injection.rs` asserts this
//!   for a crash at every record boundary.
//!
//! Corrupt files are detected — magic/version/endianness header checks plus
//! a CRC per snapshot section and per journal record — and rejected with
//! typed [`CaracError::Persist`] errors; nothing is ever deserialized from
//! bytes that failed validation.  The single deliberate exception is the
//! journal's final record: an incomplete or checksum-failing frame at the
//! very end of the file is indistinguishable from a torn write at crash
//! time and is treated as a clean end-of-log (reported via
//! [`RecoveryReport::torn_tail`]), exactly because the write-ahead
//! discipline guarantees the torn batch was never applied in-memory **or**
//! was journaled durably before applying — either way the valid prefix is a
//! consistent state.

use std::path::Path;

use carac_exec::{ExecContext, Incremental, Phase, UpdateBatch, UpdateKernel};
use carac_storage::{read_journal, read_snapshot, write_snapshot, JournalWriter, Snapshot};

use crate::engine::{Carac, LiveSession};
use crate::error::CaracError;

/// What [`Carac::recover`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Whether the journal ended in a torn (partially written) record that
    /// was discarded as a clean end-of-log.
    pub torn_tail: bool,
}

impl Carac {
    /// Writes an atomic on-disk checkpoint of the live session to `path`
    /// (evaluating the program first if no session is open).
    ///
    /// The snapshot carries every relation's derived rows, epochs and
    /// generation counter, the symbol dictionary, and — when a
    /// journal is attached — the sequence number of the last journaled
    /// batch, so a later [`Carac::recover`] replays only the records the
    /// checkpoint does not already reflect.  The write is crash-safe: a sibling temp file is
    /// written, fsync'd and renamed over `path`, so a crash mid-checkpoint
    /// leaves any previous checkpoint at `path` intact.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), CaracError> {
        self.run_live()?;
        let journal_seq = match &self.journal {
            // The watermark tells a later recovery to skip these records, so
            // they must be on disk before it is: a journal reopened by
            // `recover` was not synced there.
            Some(journal) => {
                journal.sync()?;
                journal.next_seq().saturating_sub(1)
            }
            None => 0,
        };
        let live = self.live.as_ref().expect("run_live just succeeded");
        let token = live.ctx.stats.tracer.begin(Phase::Checkpoint, 0);
        let result = write_snapshot(
            path.as_ref(),
            &live.ctx.storage,
            self.program().symbols(),
            journal_seq,
        );
        live.ctx
            .stats
            .tracer
            .end(token, &[("journal_seq", journal_seq)]);
        result?;
        Ok(())
    }

    /// Restores a live session from a checkpoint written by
    /// [`Carac::checkpoint`] for the *same program*, without re-deriving
    /// anything: rows, epochs and generation counters come
    /// straight from the snapshot, so the session resumes
    /// [`Carac::apply_update`] with full incremental-maintenance fidelity.
    ///
    /// The snapshot's catalog (relation names, arities, EDB flags) and
    /// symbol dictionary are validated against the program; any mismatch —
    /// or any corruption of the file — is a typed [`CaracError::Persist`]
    /// rejection and the engine keeps whatever session it had.
    pub fn restore(&mut self, path: impl AsRef<Path>) -> Result<(), CaracError> {
        let snapshot = read_snapshot(path.as_ref())?;
        self.install_snapshot(&snapshot)?;
        Ok(())
    }

    /// Crash recovery: restores the checkpoint at `checkpoint`, then
    /// replays the suffix of the write-ahead journal at `journal` (every
    /// record with a sequence number beyond the checkpoint's watermark)
    /// through the ordinary incremental maintenance path.
    ///
    /// A torn final record — the signature of a crash mid-append — is
    /// discarded as a clean end-of-log; corruption anywhere else in either
    /// file is a typed rejection.  On success the journal stays attached
    /// (truncated to its last valid record), so the recovered session keeps
    /// journaling subsequent batches to the same file; on failure the
    /// engine holds no live session and no journal.
    pub fn recover(
        &mut self,
        checkpoint: impl AsRef<Path>,
        journal: impl AsRef<Path>,
    ) -> Result<RecoveryReport, CaracError> {
        let snapshot = read_snapshot(checkpoint.as_ref())?;
        let contents = read_journal(journal.as_ref())?;
        self.install_snapshot(&snapshot)?;
        let mut replayed = 0u64;
        let replay = {
            let live = self
                .live
                .as_mut()
                .expect("install_snapshot opened the session");
            let token = live
                .ctx
                .stats
                .tracer
                .begin(Phase::Recover, contents.records.len() as u32);
            let result = (|| -> Result<(), CaracError> {
                for record in &contents.records {
                    if record.seq <= snapshot.journal_seq {
                        continue; // already reflected in the checkpoint
                    }
                    let batch = UpdateBatch::decode(&record.payload)?;
                    live.incremental.apply(&mut live.ctx, &batch)?;
                    replayed += 1;
                }
                Ok(())
            })();
            live.ctx.stats.tracer.end(token, &[("replayed", replayed)]);
            result
        };
        if let Err(err) = replay {
            // A half-replayed session is not a consistent state at any
            // batch boundary; drop it rather than hand it out.
            self.discard_session();
            return Err(err);
        }
        self.journal = Some(JournalWriter::open_at(
            journal.as_ref(),
            contents.clean_len,
            contents.next_seq(),
        )?);
        Ok(RecoveryReport {
            replayed,
            torn_tail: contents.torn_tail,
        })
    }

    /// Attaches a write-ahead journal at `path` to the live session
    /// (evaluating the program first if no session is open).  The file is
    /// created (truncating any previous contents), so pair it with a fresh
    /// [`Carac::checkpoint`] — taken either just before or at any point
    /// after attaching — to form a recoverable pair for [`Carac::recover`].
    ///
    /// From here on every [`Carac::apply_update`] appends the batch to the
    /// journal and syncs it to disk *before* applying it.  The journal is
    /// detached automatically whenever the session it describes is
    /// discarded (config change, new base facts,
    /// [`Carac::invalidate_live`]).
    pub fn journal_to(&mut self, path: impl AsRef<Path>) -> Result<(), CaracError> {
        self.run_live()?;
        self.journal = Some(JournalWriter::create(path.as_ref())?);
        Ok(())
    }

    /// Detaches the write-ahead journal, if one is attached.  Subsequent
    /// updates are no longer logged; the file keeps its contents.  Returns
    /// whether a journal was attached.
    pub fn detach_journal(&mut self) -> bool {
        self.journal.take().is_some()
    }

    /// Whether a write-ahead journal is currently attached.
    pub fn is_journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Builds a fresh live session from `snapshot`: validates the symbol
    /// dictionary and catalog against the program, prepares a context
    /// skeleton (relations, indexes) and overwrites its derived database
    /// with the snapshot's rows, epochs and generation counters.
    /// Replaces any current session; detaches any current journal.
    fn install_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), CaracError> {
        snapshot.validate_symbols(self.program().symbols())?;
        let mut ctx = ExecContext::prepare(self.program(), self.config().use_indexes)?;
        ctx.set_parallelism(self.config().parallelism)?;
        if let Some(trace) = self.config().tracing {
            ctx.stats.tracer = carac_exec::Tracer::new(trace);
            ctx.stats.compile_event_capacity = trace.compile_event_capacity;
        }
        snapshot.apply(&mut ctx.storage)?;
        let incremental =
            Incremental::new(self.program(), &self.extra_facts, UpdateKernel::Specialized);
        self.discard_session();
        self.live = Some(LiveSession { ctx, incremental });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use carac_datalog::parser::parse;
    use carac_storage::{PersistError, Tuple};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("carac-persist-{}-{name}", std::process::id()));
        path
    }

    fn tc_engine() -> Carac {
        let program = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4).",
        )
        .unwrap();
        Carac::new(program).with_config(EngineConfig::interpreted())
    }

    fn sorted_paths(engine: &mut Carac) -> Vec<Tuple> {
        let mut tuples = engine.live_tuples("Path").unwrap();
        tuples.sort();
        tuples
    }

    #[test]
    fn checkpoint_then_restore_resumes_updates() {
        let snap = temp_path("roundtrip.snap");
        let mut engine = tc_engine();
        engine.apply_edge_updates("Edge", &[(4, 5)], &[]).unwrap();
        engine.checkpoint(&snap).unwrap();
        let expected = sorted_paths(&mut engine);

        // A fresh engine restores the session without re-deriving...
        let mut restored = tc_engine();
        restored.restore(&snap).unwrap();
        assert!(restored.is_live());
        assert_eq!(sorted_paths(&mut restored), expected);
        // ...and keeps maintaining it incrementally, the witness check
        // reading the snapshotted epochs.
        restored.apply_edge_updates("Edge", &[], &[(1, 2)]).unwrap();
        engine.apply_edge_updates("Edge", &[], &[(1, 2)]).unwrap();
        assert_eq!(sorted_paths(&mut restored), sorted_paths(&mut engine));
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn recover_replays_the_journal_suffix() {
        let snap = temp_path("recover.snap");
        let wal = temp_path("recover.wal");
        let mut engine = tc_engine();
        engine.checkpoint(&snap).unwrap();
        engine.journal_to(&wal).unwrap();
        assert!(engine.is_journaling());
        engine.apply_edge_updates("Edge", &[(4, 5)], &[]).unwrap();
        engine.apply_edge_updates("Edge", &[], &[(2, 3)]).unwrap();
        let expected = sorted_paths(&mut engine);
        drop(engine); // "crash"

        let mut recovered = tc_engine();
        let report = recovered.recover(&snap, &wal).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(!report.torn_tail);
        assert_eq!(sorted_paths(&mut recovered), expected);
        // The journal stays attached: further updates land in the same log
        // and a second recovery replays all three.
        assert!(recovered.is_journaling());
        recovered
            .apply_edge_updates("Edge", &[(5, 6)], &[])
            .unwrap();
        let expected = sorted_paths(&mut recovered);
        drop(recovered);
        let mut again = tc_engine();
        assert_eq!(again.recover(&snap, &wal).unwrap().replayed, 3);
        assert_eq!(sorted_paths(&mut again), expected);
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn mid_journal_checkpoint_moves_the_watermark() {
        let snap1 = temp_path("watermark1.snap");
        let snap2 = temp_path("watermark2.snap");
        let wal = temp_path("watermark.wal");
        let mut engine = tc_engine();
        engine.checkpoint(&snap1).unwrap();
        engine.journal_to(&wal).unwrap();
        engine.apply_edge_updates("Edge", &[(4, 5)], &[]).unwrap();
        // This checkpoint reflects batch 1; recovery from it replays only
        // batch 2.
        engine.checkpoint(&snap2).unwrap();
        engine.apply_edge_updates("Edge", &[(5, 6)], &[]).unwrap();
        let expected = sorted_paths(&mut engine);
        drop(engine);

        let mut from_first = tc_engine();
        assert_eq!(from_first.recover(&snap1, &wal).unwrap().replayed, 2);
        assert_eq!(sorted_paths(&mut from_first), expected);
        let mut from_second = tc_engine();
        assert_eq!(from_second.recover(&snap2, &wal).unwrap().replayed, 1);
        assert_eq!(sorted_paths(&mut from_second), expected);
        for p in [&snap1, &snap2, &wal] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn rejected_batches_are_rolled_back_out_of_the_journal() {
        let snap = temp_path("rollback.snap");
        let wal = temp_path("rollback.wal");
        let mut engine = tc_engine();
        engine.checkpoint(&snap).unwrap();
        engine.journal_to(&wal).unwrap();
        engine.apply_edge_updates("Edge", &[(4, 5)], &[]).unwrap();
        // An invalid batch (IDB target) is rejected by maintenance — and
        // must not survive in the journal either.
        let path_rel = engine.program().relation_by_name("Path").unwrap();
        let mut bad = crate::UpdateBatch::new();
        bad.insert(path_rel, Tuple::pair(9, 9));
        assert!(engine.apply_update(bad).is_err());
        engine.apply_edge_updates("Edge", &[(5, 6)], &[]).unwrap();
        let expected = sorted_paths(&mut engine);
        drop(engine);

        let mut recovered = tc_engine();
        let report = recovered.recover(&snap, &wal).unwrap();
        assert_eq!(
            report.replayed, 2,
            "only the two applied batches may be replayed, not the rejected one"
        );
        assert_eq!(sorted_paths(&mut recovered), expected);
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn session_invalidation_detaches_the_journal() {
        let wal = temp_path("detach.wal");
        let mut engine = tc_engine();
        engine.journal_to(&wal).unwrap();
        assert!(engine.is_journaling());
        engine.add_edge_facts("Edge", &[(4, 5)]).unwrap();
        assert!(!engine.is_journaling(), "new base facts must detach");
        engine.journal_to(&wal).unwrap();
        engine.invalidate_live();
        assert!(!engine.is_journaling(), "invalidation must detach");
        assert!(!engine.detach_journal());
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn corrupt_files_are_typed_rejections() {
        let snap = temp_path("corrupt.snap");
        let mut engine = tc_engine();
        engine.checkpoint(&snap).unwrap();
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        let mut fresh = tc_engine();
        match fresh.restore(&snap).unwrap_err() {
            CaracError::Persist(PersistError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other}"),
        }
        assert!(
            !fresh.is_live(),
            "a rejected restore must not open a session"
        );
        // A checkpoint for a different program is a schema mismatch, not a
        // silently divergent session.
        std::fs::write(&snap, {
            let mut engine = Carac::new(parse("Out(x) :- In(x).\nIn(7).").unwrap())
                .with_config(EngineConfig::interpreted());
            let other = temp_path("corrupt-other.snap");
            engine.checkpoint(&other).unwrap();
            let bytes = std::fs::read(&other).unwrap();
            let _ = std::fs::remove_file(&other);
            bytes
        })
        .unwrap();
        let err = tc_engine().restore(&snap).unwrap_err();
        assert!(matches!(
            err,
            CaracError::Persist(PersistError::SchemaMismatch { .. })
        ));
        let _ = std::fs::remove_file(&snap);
    }
}
