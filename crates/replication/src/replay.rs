//! Rebuilding node state from shared storage (paper §2.2, §7): one
//! seed, one replay, and the callers built from them.
//!
//! Every state that is not tailing the log live — a new RO node, a
//! restarted RW, the next checkpoint — starts the same way:
//!
//! * [`seed`] — an empty state, or the newest checkpoint's catalog, row
//!   pages, column indexes and [`LogPosition`];
//! * [`replay`] — apply REDO from the state's position to a [`Stop`]:
//!   the log's end (crash recovery keeps the undo of whatever never
//!   decided) or the last transaction boundary at or before a cap
//!   (checkpoints).
//!
//! The callers: [`take_checkpoint`] = seed + replay to a boundary +
//! write, so checkpoint *N+1* costs the REDO since *N*;
//! [`recover_writer`] = seed + replay to the end + [`promote`]; an RO
//! boot is seed + [`crate::Pipeline::start`] at the seeded position.
//!
//! A checkpoint's cursor is a transaction boundary: no transaction has
//! entries on both sides of it. A state seeded from it therefore holds
//! no half transaction — its column indexes hold every committed row
//! its row pages hold, its row pages hold no uncommitted row — and
//! whoever resumes from the cursor sees each later transaction whole.
//! The checkpoint also stores the row-replica pages, so a new node
//! skips row-store replay too (the production system reads versioned
//! pages from PolarFS instead; DESIGN.md documents the substitution).

use crate::apply::Applier;
use bytes::Bytes;
use imci_common::{Error, FxHashSet, Result, Tid, SYSTEM_TID};
use imci_core::{ColumnStore, LogPosition};
use imci_wal::{LogReader, LogWriter, PropagationMode, RedoEntry, REDO_LOG_NAME};
use polarfs_sim::PolarFs;
use rowstore::{RowEngine, UndoOp};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A rebuilt node state: both formats plus the log position they cover.
pub struct ReplicaState {
    /// Row replica with every page resident.
    pub engine: Arc<RowEngine>,
    /// Column indexes, visible up to `position.max_vid`.
    pub store: Arc<ColumnStore>,
    /// Where in the REDO log this state stands.
    pub position: LogPosition,
    /// The checkpoint the state was seeded from, if any.
    pub checkpoint: Option<u64>,
}

/// Where [`replay`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Consume the whole log. Transactions with no decision record at
    /// the end stay applied, and their undo comes back in
    /// [`Replayed::inflight`].
    LogEnd,
    /// Stop at the last transaction boundary at or before this byte
    /// offset, so nothing is left in flight.
    Boundary(u64),
}

/// What one [`replay`] call did.
#[derive(Debug)]
pub struct Replayed {
    /// REDO entries applied.
    pub entries: usize,
    /// Commit records applied.
    pub committed_txns: u64,
    /// Row-side undo of every applied DML whose transaction has no
    /// decision record, in log order (empty for [`Stop::Boundary`]).
    pub inflight: Vec<(Tid, UndoOp)>,
}

/// What RW crash recovery did — the numbers ablation E and the
/// crash-recovery tests assert on.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The recovered writer's fencing epoch.
    pub epoch: u64,
    /// Whether a checkpoint seeded the state.
    pub from_checkpoint: bool,
    /// REDO entries applied (checkpoint suffix only).
    pub entries_replayed: usize,
    /// Commit records seen in the replayed suffix.
    pub committed_txns: u64,
    /// In-flight transactions rolled back (logged undo + abort record).
    pub rolled_back_txns: usize,
    /// Individual DMLs undone during rollback.
    pub rolled_back_ops: usize,
    /// Last LSN in the log at recovery time; the resumed writer
    /// continues at `last_lsn + 1`.
    pub last_lsn: u64,
}

/// Build the starting state: the newest complete checkpoint's catalog,
/// row pages (plus the secondary indexes and row counters derived from
/// them), column indexes and position — or an empty state at offset 0
/// when there is no checkpoint, whose catalog the log's DDL records
/// then build. A checkpoint that cannot be loaded is an error.
pub fn seed(fs: &PolarFs, group_cap: usize) -> Result<ReplicaState> {
    seed_formats(fs, group_cap, true)
}

/// [`seed`], loading the checkpoint's column indexes only when
/// `columns` is set (a recovering writer is row-only).
fn seed_formats(fs: &PolarFs, group_cap: usize, columns: bool) -> Result<ReplicaState> {
    // An effectively unbounded pool: `apply_entry` never falls back to
    // shared storage, so every replayed page must stay resident — on a
    // recovered writer too.
    let engine = RowEngine::new_replica(fs.clone(), usize::MAX / 2);
    let store = Arc::new(ColumnStore::new(group_cap));
    let checkpoint = imci_core::latest_checkpoint(fs);
    let mut position = LogPosition::default();
    if let Some(seq) = checkpoint {
        position = imci_core::read_meta(fs, seq)?.position;
        engine.import_catalog(&fs.get_object(&imci_core::ckpt_catalog_key(seq))?)?;
        for key in fs.list_objects(&imci_core::ckpt_rowpages_prefix(seq)) {
            engine.buffer_pool().import_page(&fs.get_object(&key)?)?;
        }
        for name in engine.table_names() {
            let rt = engine.table(&name)?;
            rt.rebuild_secondaries()?;
            rt.row_counter
                .store(rt.tree.count()? as u64, Ordering::SeqCst);
            if columns && rt.schema.has_column_index() {
                store.install(imci_core::load_index(fs, seq, &rt.schema, group_cap)?);
            }
        }
    }
    Ok(ReplicaState {
        engine,
        store,
        position,
        checkpoint,
    })
}

/// Apply REDO from `state.position` to `stop`, to both formats, and
/// advance the position. Runs the live pipeline's apply step on the
/// calling thread alone.
pub fn replay(fs: &PolarFs, state: &mut ReplicaState, stop: Stop) -> Result<Replayed> {
    replay_into(
        fs,
        &state.engine,
        Some(&state.store),
        &mut state.position,
        stop,
    )
}

/// [`replay`] into `engine` and, when given, `store`.
fn replay_into(
    fs: &PolarFs,
    engine: &RowEngine,
    store: Option<&ColumnStore>,
    position: &mut LogPosition,
    stop: Stop,
) -> Result<Replayed> {
    let cap = match stop {
        Stop::LogEnd => fs.log_len(REDO_LOG_NAME),
        Stop::Boundary(cap) => cap,
    };
    let mut frames = Vec::new();
    LogReader::new(fs.clone(), position.offset).read_frames_until(cap, &mut frames)?;
    // Appends are whole frames, so bytes left undecoded before the log
    // end are a frame whose length prefix is corrupt, not a torn tail.
    let read_to = frames.last().map_or(position.offset, |f| f.1);
    if stop == Stop::LogEnd && read_to < cap {
        return Err(Error::Storage(format!(
            "redo log: the frame at offset {read_to} runs past the log end {cap}"
        )));
    }
    if let Stop::Boundary(_) = stop {
        frames.truncate(boundary_prefix(&frames));
    }
    // Single-threaded replay never needs the §5.5 pre-commit path.
    let mut applier = Applier::new(engine, store, usize::MAX, *position);
    applier.apply(&frames);
    if let Some(e) = applier.take_error() {
        return Err(e);
    }
    let committed_txns = applier.counts().committed;
    let (inflight, end) = applier.finish();
    *position = end;
    Ok(Replayed {
        entries: frames.len(),
        committed_txns,
        inflight,
    })
}

/// Length of the longest prefix of `frames` after which no transaction
/// is open. Replay starts at a boundary, so every transaction seen here
/// starts here too. SYSTEM_TID entries (B+tree SMOs, compensations,
/// epoch markers) belong to no transaction.
fn boundary_prefix(frames: &[(RedoEntry, u64)]) -> usize {
    let mut open = FxHashSet::default();
    let mut cut = 0;
    for (i, (e, _)) in frames.iter().enumerate() {
        if e.tid != SYSTEM_TID {
            if e.payload.is_decision() {
                open.remove(&e.tid);
            } else {
                open.insert(e.tid);
            }
        }
        if open.is_empty() {
            cut = i + 1;
        }
    }
    cut
}

/// Turn a replica whose state covers `position` into the writer: resume
/// the log after `position` under the volume's current epoch, continue
/// the TID/VID counters past it, and roll back `inflight` with logged
/// compensations, so every replica converges as after a live abort.
/// The last step of both RW recovery and RO promotion; returns the
/// number of transactions rolled back.
pub fn promote(
    fs: &PolarFs,
    mode: PropagationMode,
    engine: &RowEngine,
    position: &LogPosition,
    inflight: &[(Tid, UndoOp)],
) -> Result<usize> {
    // The written-LSN floor is the last durable commit: strong reads
    // never regress across the ownership change.
    let log = LogWriter::resume(
        fs.clone(),
        mode,
        position.last_lsn + 1,
        position.applied_lsn,
    )?;
    engine.promote_to_writer(log, position.max_tid + 1, position.max_vid);
    engine.rollback_inflight(inflight)
}

/// Rebuild a writer after an RW crash: fence the old writer by bumping
/// the volume epoch (from here the log tail cannot move), seed from the
/// newest checkpoint, replay to the log's end, then [`promote`]. The
/// recovered writer is row-only, so the seed and the replay leave the
/// column indexes out.
pub fn recover_writer(
    fs: &PolarFs,
    mode: PropagationMode,
    group_cap: usize,
) -> Result<(Arc<RowEngine>, RecoveryReport)> {
    let epoch = fs.bump_epoch();
    let mut state = seed_formats(fs, group_cap, false)?;
    let replayed = replay_into(fs, &state.engine, None, &mut state.position, Stop::LogEnd)?;
    let rolled_back_txns = promote(fs, mode, &state.engine, &state.position, &replayed.inflight)?;
    let report = RecoveryReport {
        epoch,
        from_checkpoint: state.checkpoint.is_some(),
        entries_replayed: replayed.entries,
        committed_txns: replayed.committed_txns,
        rolled_back_txns,
        rolled_back_ops: replayed.inflight.len(),
        last_lsn: state.position.last_lsn,
    };
    Ok((state.engine, report))
}

/// Build checkpoint `seq` from the newest checkpoint plus the REDO up
/// to the last transaction boundary at or before `upto_offset` (None =
/// the current log end). Stores the catalog snapshot, the row-replica
/// pages and the column indexes (§7) — the meta object last. Returns
/// the checkpointed state and what the replay covered.
pub fn take_checkpoint(
    fs: &PolarFs,
    seq: u64,
    upto_offset: Option<u64>,
    group_cap: usize,
) -> Result<(ReplicaState, Replayed)> {
    let mut state = seed(fs, group_cap)?;
    let cap = upto_offset.unwrap_or_else(|| fs.log_len(REDO_LOG_NAME));
    let replayed = replay(fs, &mut state, Stop::Boundary(cap))?;
    // The catalog snapshot carries its version, so DDL records after
    // the cursor apply exactly once on a node booted from it.
    fs.put_object(
        &imci_core::ckpt_catalog_key(seq),
        Bytes::from(state.engine.export_catalog()),
    );
    for (id, bytes) in state.engine.buffer_pool().export_pages() {
        fs.put_object(
            &format!("{}{:020}", imci_core::ckpt_rowpages_prefix(seq), id.get()),
            Bytes::from(bytes),
        );
    }
    imci_core::write_checkpoint(fs, seq, &state.position, &state.store.all())?;
    Ok((state, replayed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, ReplicationConfig};
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, TableId, Value};
    use std::time::Duration;

    fn rw_engine(fs: &PolarFs) -> Arc<RowEngine> {
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        rw.create_table(
            "t",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Secondary,
                    name: "v_idx".into(),
                    columns: vec![1],
                },
                IndexDef {
                    kind: IndexKind::Column,
                    name: "ci".into(),
                    columns: vec![0, 1],
                },
            ],
        )
        .unwrap();
        rw
    }

    fn insert_range(rw: &RowEngine, pks: std::ops::Range<i64>, mul: i64) {
        let mut txn = rw.begin();
        for pk in pks {
            rw.insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(pk * mul)])
                .unwrap();
        }
        rw.commit(txn).unwrap();
    }

    fn rw_with_data(n: i64) -> (PolarFs, Arc<RowEngine>) {
        let fs = PolarFs::instant();
        let rw = rw_engine(&fs);
        insert_range(&rw, 0..n, 7);
        (fs, rw)
    }

    fn replayed_to_end(fs: &PolarFs) -> (ReplicaState, Replayed) {
        let mut state = seed(fs, 64).unwrap();
        let replayed = replay(fs, &mut state, Stop::LogEnd).unwrap();
        (state, replayed)
    }

    fn recover(fs: &PolarFs) -> (Arc<RowEngine>, RecoveryReport) {
        recover_writer(fs, PropagationMode::ReuseRedo, 64).unwrap()
    }

    #[test]
    fn replay_builds_both_formats() {
        let (fs, rw) = rw_with_data(200);
        let (state, replayed) = replayed_to_end(&fs);
        assert!(replayed.inflight.is_empty());
        assert_eq!(state.engine.row_count("t").unwrap(), 200);
        let idx = state.store.index(TableId(1)).unwrap();
        assert_eq!(idx.snapshot().get_by_pk(100).unwrap()[1], Value::Int(700));
        // Vid(1) is the CREATE TABLE's own commit (DDL is a committed
        // transaction); the data transaction commits at Vid(2).
        let log = rw.log().unwrap();
        assert_eq!(state.position.max_vid, 2);
        assert_eq!(state.position.applied_lsn, log.written_lsn().get());
        assert_eq!(state.position.last_lsn, log.tail_lsn().get());
        assert_eq!(state.position.offset, fs.log_len(REDO_LOG_NAME));
    }

    #[test]
    fn checkpoint_then_fast_start() {
        let (fs, rw) = rw_with_data(300);
        take_checkpoint(&fs, 1, None, 64).unwrap();
        // More traffic after the checkpoint.
        insert_range(&rw, 300..400, 0);

        // New node: seeded from the checkpoint, caught up through the
        // pipeline from its cursor.
        let node = seed(&fs, 64).unwrap();
        assert_eq!(node.checkpoint, Some(1));
        assert_eq!(
            node.engine.row_count("t").unwrap(),
            300,
            "pages restore rows"
        );
        let pipe = Pipeline::start(
            fs.clone(),
            node.engine.clone(),
            node.store.clone(),
            ReplicationConfig::default(),
            node.position,
        );
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        assert_eq!(
            node.engine.row_count("t").unwrap(),
            400,
            "caught up past ckpt"
        );
        let idx = node.store.index(TableId(1)).unwrap();
        assert!(idx.snapshot().get_by_pk(399).is_some());
        assert!(idx.snapshot().get_by_pk(150).is_some());
        assert_eq!(pipe.error_count(), 0);
        pipe.stop();
    }

    #[test]
    fn boundary_replay_stops_at_offset() {
        let (fs, rw) = rw_with_data(50);
        let offset_after_first = fs.log_len(REDO_LOG_NAME);
        insert_range(&rw, 50..100, 0);
        let mut state = seed(&fs, 64).unwrap();
        replay(&fs, &mut state, Stop::Boundary(offset_after_first)).unwrap();
        assert_eq!(state.engine.row_count("t").unwrap(), 50);
        assert_eq!(state.position.offset, offset_after_first);
    }

    #[test]
    fn boundary_replay_never_splits_a_transaction() {
        let (fs, rw) = rw_with_data(10);
        let before_open = fs.log_len(REDO_LOG_NAME);
        // A transaction open across the cap, interleaved with a short
        // one that commits inside it.
        let mut open = rw.begin();
        rw.insert(&mut open, "t", vec![Value::Int(100), Value::Int(1)])
            .unwrap();
        insert_range(&rw, 10..12, 1);
        let cap = fs.log_len(REDO_LOG_NAME);
        rw.insert(&mut open, "t", vec![Value::Int(101), Value::Int(1)])
            .unwrap();
        rw.commit(open).unwrap();

        let mut state = seed(&fs, 64).unwrap();
        let replayed = replay(&fs, &mut state, Stop::Boundary(cap)).unwrap();
        assert!(replayed.inflight.is_empty());
        assert_eq!(
            state.position.offset, before_open,
            "cut before the open txn"
        );
        assert_eq!(state.engine.row_count("t").unwrap(), 10);
        // Resuming from the cut sees both transactions whole.
        replay(&fs, &mut state, Stop::LogEnd).unwrap();
        assert_eq!(state.engine.row_count("t").unwrap(), 14);
        let idx = state.store.index(TableId(1)).unwrap();
        assert!(idx.snapshot().get_by_pk(100).is_some());
    }

    #[test]
    fn next_checkpoint_replays_only_the_suffix() {
        let (fs, rw) = rw_with_data(100);
        let (first, replayed) = take_checkpoint(&fs, 1, None, 64).unwrap();
        assert_eq!(first.checkpoint, None);
        let frames_from = |offset| {
            let mut frames = Vec::new();
            LogReader::new(fs.clone(), offset)
                .read_frames_until(u64::MAX, &mut frames)
                .unwrap();
            frames
        };
        assert_eq!(replayed.entries, frames_from(0).len());
        insert_range(&rw, 100..110, 1);
        let suffix = frames_from(first.position.offset);
        let (second, replayed) = take_checkpoint(&fs, 2, None, 64).unwrap();
        assert_eq!(second.checkpoint, Some(1));
        assert_eq!(replayed.entries, suffix.len());
        assert_eq!(replayed.committed_txns, 1);
        let fresh = seed(&fs, 64).unwrap();
        assert_eq!(fresh.checkpoint, Some(2));
        assert_eq!(fresh.engine.row_count("t").unwrap(), 110);
        assert_eq!(
            fresh
                .store
                .index(TableId(1))
                .unwrap()
                .snapshot()
                .get_by_pk(105)
                .unwrap()[1],
            Value::Int(105)
        );
    }

    #[test]
    fn recover_restores_committed_and_rolls_back_inflight() {
        let fs = PolarFs::instant();
        let rw = rw_engine(&fs);
        insert_range(&rw, 0..200, 1);
        let mut committed = rw.begin();
        rw.update(&mut committed, "t", 5, vec![Value::Int(5), Value::Int(-5)])
            .unwrap();
        rw.delete(&mut committed, "t", 6).unwrap();
        rw.commit(committed).unwrap();
        // In flight at the crash: never committed, must vanish.
        let mut doomed = rw.begin();
        rw.insert(&mut doomed, "t", vec![Value::Int(999), Value::Int(0)])
            .unwrap();
        rw.update(&mut doomed, "t", 10, vec![Value::Int(10), Value::Int(-10)])
            .unwrap();
        rw.delete(&mut doomed, "t", 11).unwrap();
        let last_vid = rw.txns.last_commit_vid();
        drop((rw, doomed)); // crash: all in-memory state gone

        let (rec, report) = recover(&fs);
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.rolled_back_ops, 3);
        assert!(!report.from_checkpoint);
        // Committed effects all present...
        assert_eq!(rec.row_count("t").unwrap(), 199);
        assert_eq!(
            rec.get_row("t", 5).unwrap().unwrap().values[1],
            Value::Int(-5)
        );
        assert!(rec.get_row("t", 6).unwrap().is_none());
        // ...uncommitted effects all gone.
        assert!(rec.get_row("t", 999).unwrap().is_none(), "inflight insert");
        assert_eq!(
            rec.get_row("t", 10).unwrap().unwrap().values[1],
            Value::Int(10),
            "inflight update undone"
        );
        assert_eq!(
            rec.get_row("t", 11).unwrap().unwrap().values[1],
            Value::Int(11),
            "inflight delete undone"
        );
        // Secondary indexes were maintained through replay + rollback.
        let rt = rec.table("t").unwrap();
        assert_eq!(rt.secondaries[0].lookup_eq(&Value::Int(-5)), vec![5]);
        assert!(rt.secondaries[0].lookup_eq(&Value::Int(-10)).is_empty());
        // The recovered node is a live writer: counters resume.
        let mut txn = rec.begin();
        rec.insert(&mut txn, "t", vec![Value::Int(500), Value::Int(1)])
            .unwrap();
        let vid = rec.commit(txn).unwrap();
        assert!(vid > last_vid, "VID sequence continues, never reuses");
    }

    #[test]
    fn recovered_log_is_replayable_by_a_fresh_replica() {
        // The compensation records recovery writes must leave the log
        // replayable end-to-end: a cold replica converges to the
        // recovered writer's exact state.
        let fs = PolarFs::instant();
        let rw = rw_engine(&fs);
        insert_range(&rw, 0..50, 1);
        let mut doomed = rw.begin();
        rw.insert(&mut doomed, "t", vec![Value::Int(100), Value::Int(1)])
            .unwrap();
        rw.update(&mut doomed, "t", 3, vec![Value::Int(3), Value::Int(-3)])
            .unwrap();
        drop((rw, doomed));

        let (rec, _) = recover(&fs);
        // Post-recovery traffic from the new writer.
        insert_range(&rec, 200..201, 1);

        let (replica, replayed) = replayed_to_end(&fs);
        assert!(replayed.inflight.is_empty(), "rollback decided everything");
        let rows = |e: &RowEngine| {
            let mut out = Vec::new();
            e.scan("t", i64::MIN, i64::MAX, |pk, r| out.push((pk, r)))
                .unwrap();
            out
        };
        assert_eq!(
            rows(&rec),
            rows(&replica.engine),
            "replica matches recovered writer"
        );
        assert!(replica.engine.get_row("t", 100).unwrap().is_none());
        assert_eq!(
            replica.engine.get_row("t", 3).unwrap().unwrap().values[1],
            Value::Int(3)
        );
    }

    #[test]
    fn recovery_from_a_checkpoint_taken_mid_transaction_drops_it() {
        let (fs, rw) = rw_with_data(2);
        let mut doomed = rw.begin();
        for pk in 100..110 {
            rw.insert(&mut doomed, "t", vec![Value::Int(pk), Value::Int(0)])
                .unwrap();
        }
        take_checkpoint(&fs, 1, None, 64).unwrap();
        drop((rw, doomed));
        let (rec, report) = recover(&fs);
        assert!(report.from_checkpoint);
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.rolled_back_ops, 10);
        assert_eq!(rec.row_count("t").unwrap(), 2);
    }

    #[test]
    fn zombie_writer_is_fenced_after_recovery() {
        let fs = PolarFs::instant();
        let zombie = rw_engine(&fs);
        insert_range(&zombie, 1..2, 1);

        // Recovery takes over while the old writer object stays alive.
        let (rec, report) = recover(&fs);
        assert_eq!(report.epoch, 1);

        // The zombie can no longer write anything durable.
        let mut txn = zombie.begin();
        let err = zombie
            .insert(&mut txn, "t", vec![Value::Int(2), Value::Int(2)])
            .unwrap_err();
        assert!(err.is_retryable(), "fenced append surfaces as failover");
        // An empty-bodied commit is fenced too: no record, no ack.
        let err = zombie.commit(zombie.begin()).unwrap_err();
        assert!(err.is_retryable());

        // The new writer is unaffected.
        insert_range(&rec, 3..4, 1);
        assert_eq!(rec.row_count("t").unwrap(), 2);
    }
}
