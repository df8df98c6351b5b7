//! The live 2P-COFFER pipeline (paper §5.2–§5.4): one log reader that
//! applies what it reads.
//!
//! Thread layout: one reader thread tails the REDO log. Each read batch
//! goes through the apply step that [`crate::replay()`] also runs
//! (`Applier::apply` in `apply.rs`); then the reader publishes the
//! batch: counters, then the visible VID, then the applied LSN, which
//! wakes strong readers.
//!
//! Every batch is applied on the reader, in log order: a one-transaction
//! commit crosses no thread handoff between the log and the watermark,
//! and no two applies ever run at once, so the apply needs no conflict
//! rules (`apply.rs` module docs). The paper's page- and PK-partitioned
//! parallel phases are not used: on two vCPUs they won no steady
//! workload and too few bulk loads to pay for their threads (ROADMAP).

use crate::apply::Applier;
use crate::metrics::ReplicationMetrics;
use imci_common::{Error, Result, Tid};
use imci_core::{ColumnStore, LogPosition};
use imci_wal::{LogReader, REDO_LOG_NAME};
use polarfs_sim::PolarFs;
use rowstore::{RowEngine, UndoOp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most log bytes one live read takes, so a long catch-up publishes
/// progress (and holds one batch of decoded entries) as it goes.
const READ_BATCH_BYTES: u64 = 1 << 20;

/// When DML log entries become visible to the RO node (Fig. 11 / §5.1
/// ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShipMode {
    /// Commit-ahead log shipping: the reader tails the log to its very
    /// end, consuming entries of still-uncommitted transactions.
    #[default]
    CommitAhead,
    /// Strawman: only read up to the last durable commit point, so a
    /// transaction's entries are parsed only after its commit fsync.
    OnCommit,
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// §5.5 pre-commit threshold in DMLs per transaction.
    pub large_txn_threshold: usize,
    /// CALS on/off.
    pub ship_mode: ShipMode,
    /// Reader poll timeout when the log is idle.
    pub poll_interval: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> ReplicationConfig {
        ReplicationConfig {
            large_txn_threshold: 8192,
            ship_mode: ShipMode::CommitAhead,
            poll_interval: Duration::from_millis(1),
        }
    }
}

/// Everything a promotion ([`crate::promote`]) needs from a drained
/// pipeline: the §5.1 transaction buffers' row-side mirror (undo for
/// DMLs whose commit never arrived) and the log position the node's
/// state covers — the whole log, since the drain runs to its end.
pub struct PromotionState {
    /// Undecided DMLs in original log order; the promoted engine undoes
    /// them in reverse with logged compensations
    /// (`RowEngine::rollback_inflight`).
    pub inflight: Vec<(Tid, UndoOp)>,
    /// The drained node's log position.
    pub position: LogPosition,
}

/// What the reader thread hands back when it exits: the undo of every
/// undecided DML and the position its state covers, or the error of a
/// log frame that did not decode.
type Drained = Result<(Vec<(Tid, UndoOp)>, LogPosition)>;

/// A running replication pipeline for one RO node.
pub struct Pipeline {
    /// The volume the reader tails; raising a flag wakes the reader
    /// through it.
    fs: PolarFs,
    metrics: Arc<ReplicationMetrics>,
    stop: Arc<AtomicBool>,
    /// Softer than `stop`: finish consuming the (now-static,
    /// epoch-fenced) log to its end, then exit. Promotion's
    /// drain-to-LSN handshake.
    drain: Arc<AtomicBool>,
    // Behind a mutex so `stop` works through a shared reference: the
    // cluster must be able to halt a node's pipeline even while proxy
    // sessions still hold `Arc`s to the node (scale-in/shutdown).
    reader: parking_lot::Mutex<Option<JoinHandle<Drained>>>,
    /// Entries and ops that failed to apply (the pipeline keeps
    /// running), plus a log frame that failed to decode (the pipeline
    /// stops in front of it). Benches assert this stays 0.
    errors: Arc<AtomicU64>,
}

impl Pipeline {
    /// Start the pipeline: `engine` is this node's row replica, `store`
    /// its column indexes, both covering the log up to `start` (see
    /// [`crate::seed`]). The reader resumes at `start.offset`, and the
    /// watermarks start at `start`'s counters.
    pub fn start(
        fs: PolarFs,
        engine: Arc<RowEngine>,
        store: Arc<ColumnStore>,
        config: ReplicationConfig,
        start: LogPosition,
    ) -> Pipeline {
        let metrics = Arc::new(ReplicationMetrics::default());
        metrics.read_lsn.store(start.last_lsn, Ordering::SeqCst);
        metrics.max_tid.store(start.max_tid, Ordering::SeqCst);
        metrics.visible_vid.store(start.max_vid, Ordering::SeqCst);
        metrics.advance_applied(start.applied_lsn);
        let stop = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicU64::new(0));
        let reader = {
            let (stop, drain) = (stop.clone(), drain.clone());
            let (metrics, errors) = (metrics.clone(), errors.clone());
            let fs = fs.clone();
            std::thread::spawn(move || {
                let mut reader = LogReader::new(fs.clone(), start.offset);
                let mut applier =
                    Applier::new(&engine, Some(&*store), config.large_txn_threshold, start);
                // Stop promptly even while the RW keeps producing;
                // `stop` means stop, not "stop once the log goes quiet".
                while !stop.load(Ordering::SeqCst) {
                    let draining = drain.load(Ordering::SeqCst);
                    let mut frames = Vec::new();
                    let read = read_batch(&fs, &config, &mut reader, draining, &mut frames);
                    if !frames.is_empty() {
                        applier.apply(&frames);
                        publish(&metrics, &errors, &applier);
                    }
                    // An undecodable frame is never skipped: everything
                    // before it is applied, and the node stops there.
                    if let Err(e) = read {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    if frames.is_empty() && draining {
                        break;
                    }
                }
                Ok(applier.finish())
            })
        };
        Pipeline {
            fs,
            metrics,
            stop,
            drain,
            reader: parking_lot::Mutex::new(Some(reader)),
            errors,
        }
    }

    /// Pipeline metrics (watermarks, counters).
    pub fn metrics(&self) -> &Arc<ReplicationMetrics> {
        &self.metrics
    }

    /// Apply and log-decode errors observed so far (0 in a healthy run).
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Block until the node's applied LSN reaches `lsn` (true) or the
    /// timeout expires (false). Parks on the metrics condvar — no
    /// spinning.
    pub fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        self.metrics.wait_applied_at_least(lsn, timeout)
    }

    /// Stop and join the reader thread. Idempotent, and callable through a
    /// shared reference so the cluster can halt a node's replication
    /// even when sessions still hold the node `Arc`.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.fs.wake_log_readers(REDO_LOG_NAME);
        self.join();
    }

    /// Drain the pipeline to the log's end, stop it, and hand back
    /// everything a promotion needs — the RO half of the §7 failover
    /// handshake. The caller must have epoch-fenced the old writer
    /// first, so the tail this consumes is final. On return every
    /// committed transaction in the log is applied to both formats, and
    /// `inflight` holds the exact row-side undo for the rest: the
    /// drained node's row replica equals "all committed + precisely
    /// these undecided ops". Fails if the pipeline was already stopped,
    /// or stopped at a log frame that did not decode.
    pub fn stop_after_drain(&self) -> Result<PromotionState> {
        self.drain.store(true, Ordering::SeqCst);
        self.fs.wake_log_readers(REDO_LOG_NAME);
        let (inflight, position) = self.join().ok_or_else(|| {
            Error::Replication("replication reader already stopped or panicked".into())
        })??;
        Ok(PromotionState { inflight, position })
    }

    fn join(&self) -> Option<Drained> {
        let reader = self.reader.lock().take();
        reader.and_then(|h| h.join().ok())
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One read of the log into `out`: at most [`READ_BATCH_BYTES`] while
/// tailing, the whole rest of the log while draining.
fn read_batch(
    fs: &PolarFs,
    cfg: &ReplicationConfig,
    reader: &mut LogReader,
    draining: bool,
    out: &mut Vec<(imci_wal::RedoEntry, u64)>,
) -> Result<()> {
    // Promotion drain: the old writer is epoch-fenced, so the log is
    // static — consume it to the very end (even past the durable point
    // in OnCommit mode: the resumed writer appends after the physical
    // tail, so every byte before it must be accounted for).
    if draining {
        return reader.read_frames_until(u64::MAX, out);
    }
    match cfg.ship_mode {
        ShipMode::CommitAhead => reader.wait_and_read(cfg.poll_interval, READ_BATCH_BYTES, out),
        // OnCommit strawman: cap reads at the durable commit point.
        ShipMode::OnCommit => {
            let cap = fs.synced_len(REDO_LOG_NAME);
            if reader.offset() >= cap {
                // A fixed poll of the durable tail, once per reader-loop
                // turn, by design: it is the slow baseline the paper's
                // Fig. 10 measures commit-ahead shipping against.
                std::thread::sleep(cfg.poll_interval);
                Ok(())
            } else {
                reader.read_frames_until(cap, out)
            }
        }
    }
}

/// Publish one applied read batch: counters, then the visible VID, then
/// the applied LSN last — it wakes strong readers, and the step has
/// already advanced the column store they will read.
fn publish(m: &ReplicationMetrics, errors: &AtomicU64, applier: &Applier) {
    let c = applier.counts();
    let pos = applier.position();
    m.entries_read.store(c.entries, Ordering::Relaxed);
    m.dmls_extracted.store(c.dmls, Ordering::Relaxed);
    m.txns_committed.store(c.committed, Ordering::Relaxed);
    m.txns_aborted.store(c.aborted, Ordering::Relaxed);
    m.ddls_applied.store(c.ddls, Ordering::Relaxed);
    m.precommits.store(applier.precommits(), Ordering::Relaxed);
    errors.store(c.errors, Ordering::Relaxed);
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.read_lsn.fetch_max(pos.last_lsn, Ordering::SeqCst);
    m.max_tid.fetch_max(pos.max_tid, Ordering::SeqCst);
    m.visible_vid.fetch_max(pos.max_vid, Ordering::SeqCst);
    m.advance_applied(pos.applied_lsn);
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, Value};
    use imci_wal::{LogWriter, PropagationMode};

    fn table_parts() -> (Vec<ColumnDef>, Vec<IndexDef>) {
        (
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
                ColumnDef::new("s", DataType::Str),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Column,
                    name: "ci".into(),
                    columns: vec![0, 1, 2],
                },
            ],
        )
    }

    fn setup() -> (PolarFs, Arc<RowEngine>) {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        let (cols, idxs) = table_parts();
        rw.create_table("t", cols, idxs).unwrap();
        (fs, rw)
    }

    fn start_ro(fs: &PolarFs, cfg: ReplicationConfig) -> (Pipeline, Arc<ColumnStore>) {
        // No manual catalog or index set-up: the log's DDL records
        // build both as the pipeline replays from offset 0.
        let ro_engine = RowEngine::new_replica(fs.clone(), 1 << 20);
        let store = Arc::new(ColumnStore::new(1024));
        let p = Pipeline::start(
            fs.clone(),
            ro_engine,
            store.clone(),
            cfg,
            LogPosition::default(),
        );
        (p, store)
    }

    #[test]
    fn end_to_end_insert_update_delete() {
        let (fs, rw) = setup();
        let (pipe, store) = start_ro(&fs, ReplicationConfig::default());

        let mut txn = rw.begin();
        for pk in 0..500i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(pk), Value::Int(pk), Value::Str(format!("r{pk}"))],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        let mut txn = rw.begin();
        for pk in (0..500i64).step_by(2) {
            rw.update(
                &mut txn,
                "t",
                pk,
                vec![Value::Int(pk), Value::Int(-pk), Value::Str("u".into())],
            )
            .unwrap();
        }
        for pk in (1..500i64).step_by(10) {
            rw.delete(&mut txn, "t", pk).unwrap();
        }
        rw.commit(txn).unwrap();
        let target = rw.log().unwrap().written_lsn().get();
        assert!(
            pipe.wait_applied(target, Duration::from_secs(20)),
            "pipeline failed to catch up: {}",
            pipe.metrics().summary()
        );
        assert_eq!(pipe.error_count(), 0);

        let idx = store.index(imci_common::TableId(1)).unwrap();
        let snap = idx.snapshot();
        assert_eq!(snap.get_by_pk(2).unwrap()[1], Value::Int(-2));
        assert_eq!(snap.get_by_pk(3).unwrap()[1], Value::Int(3));
        assert!(snap.get_by_pk(1).is_none(), "deleted row invisible");
        assert!(snap.get_by_pk(11).is_none());
        pipe.stop();
    }

    #[test]
    fn aborted_txns_never_reach_column_store() {
        let (fs, rw) = setup();
        let (pipe, store) = start_ro(&fs, ReplicationConfig::default());
        let mut good = rw.begin();
        rw.insert(
            &mut good,
            "t",
            vec![Value::Int(1), Value::Int(1), Value::Null],
        )
        .unwrap();
        rw.commit(good).unwrap();
        let mut bad = rw.begin();
        rw.insert(
            &mut bad,
            "t",
            vec![Value::Int(2), Value::Int(2), Value::Null],
        )
        .unwrap();
        rw.update(
            &mut bad,
            "t",
            1,
            vec![Value::Int(1), Value::Int(666), Value::Null],
        )
        .unwrap();
        rw.abort(bad).unwrap();
        let mut last = rw.begin();
        rw.insert(
            &mut last,
            "t",
            vec![Value::Int(3), Value::Int(3), Value::Null],
        )
        .unwrap();
        rw.commit(last).unwrap();

        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        let idx = store.index(imci_common::TableId(1)).unwrap();
        let snap = idx.snapshot();
        assert_eq!(snap.get_by_pk(1).unwrap()[1], Value::Int(1), "abort undone");
        assert!(snap.get_by_pk(2).is_none());
        assert!(snap.get_by_pk(3).is_some());
        assert_eq!(pipe.error_count(), 0);
        pipe.stop();
    }

    #[test]
    fn concurrent_same_row_updates_stay_ordered() {
        // The Fig. 6 scenario: different transactions update the same
        // row; they must land in commit order. The whole log is written
        // before the pipeline starts, so most of it is one read batch.
        let (fs, rw) = setup();
        let row = |pk: i64, v: i64| vec![Value::Int(pk), Value::Int(v), Value::Null];
        let mut txn = rw.begin();
        for pk in 1..=8 {
            rw.insert(&mut txn, "t", row(pk, 0)).unwrap();
        }
        rw.commit(txn).unwrap();
        let n = 1100i64;
        for i in 1..=n {
            let mut txn = rw.begin();
            rw.update(&mut txn, "t", 1, row(1, i)).unwrap();
            rw.update(&mut txn, "t", 2 + i % 7, row(2 + i % 7, i))
                .unwrap();
            rw.commit(txn).unwrap();
        }
        let (pipe, store) = start_ro(&fs, ReplicationConfig::default());
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        let idx = store.index(imci_common::TableId(1)).unwrap();
        let snap = idx.snapshot();
        assert_eq!(
            snap.get_by_pk(1).unwrap()[1],
            Value::Int(n),
            "final version must be the last committed"
        );
        for pk in 2..9i64 {
            let last = (1..=n).rev().find(|i| 2 + i % 7 == pk).unwrap();
            assert_eq!(snap.get_by_pk(pk).unwrap()[1], Value::Int(last));
        }
        assert_eq!(pipe.error_count(), 0);
        pipe.stop();
    }

    #[test]
    fn large_txn_precommit_through_pipeline() {
        let (fs, rw) = setup();
        let (pipe, store) = start_ro(
            &fs,
            ReplicationConfig {
                large_txn_threshold: 50,
                ..ReplicationConfig::default()
            },
        );
        let mut txn = rw.begin();
        for pk in 0..300i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(pk), Value::Int(pk), Value::Null],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        let m = pipe.metrics();
        assert!(
            m.precommits.load(Ordering::Relaxed) >= 1,
            "large txn must trigger pre-commit"
        );
        let idx = store.index(imci_common::TableId(1)).unwrap();
        let snap = idx.snapshot();
        for pk in [0i64, 49, 50, 299] {
            assert!(snap.get_by_pk(pk).is_some(), "pk {pk} visible");
        }
        assert_eq!(pipe.error_count(), 0);
        pipe.stop();
    }

    #[test]
    fn ddl_after_start_never_loses_dml() {
        // A table created *after* the RO pipeline started reaches the
        // replica only through its CREATE record, which strictly
        // precedes the INSERT's entries in the log. So every row must
        // land, every round, with zero errors: a DML applied before its
        // table is known would be dropped, and only an error counter
        // would move.
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        let (pipe, store) = start_ro(&fs, ReplicationConfig::default());
        for round in 0..20i64 {
            let name = format!("t{round}");
            let (cols, idxs) = table_parts();
            rw.create_table(&name, cols, idxs).unwrap();
            let mut txn = rw.begin();
            rw.insert(
                &mut txn,
                &name,
                vec![Value::Int(1), Value::Int(round), Value::Null],
            )
            .unwrap();
            rw.commit(txn).unwrap();
            let target = rw.log().unwrap().written_lsn().get();
            assert!(pipe.wait_applied(target, Duration::from_secs(20)));
            let idx = store
                .index(imci_common::TableId(round as u64 + 1))
                .unwrap_or_else(|_| panic!("round {round}: column index must exist"));
            assert_eq!(
                idx.snapshot().get_by_pk(1).unwrap()[1],
                Value::Int(round),
                "round {round}: committed insert must never be lost"
            );
        }
        assert_eq!(pipe.error_count(), 0);
        assert_eq!(
            pipe.metrics().ddls_applied.load(Ordering::Relaxed),
            20,
            "all 20 CREATEs applied through the log"
        );
        pipe.stop();
    }

    #[test]
    fn drop_table_destroys_replica_state_in_lsn_order() {
        let (fs, rw) = setup(); // creates table "t"
        let ro_engine = RowEngine::new_replica(fs.clone(), 1 << 20);
        let store = Arc::new(ColumnStore::new(1024));
        let pipe = Pipeline::start(
            fs.clone(),
            ro_engine.clone(),
            store.clone(),
            ReplicationConfig::default(),
            LogPosition::default(),
        );
        let mut txn = rw.begin();
        for pk in 0..200i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(pk), Value::Int(pk), Value::Null],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        rw.drop_table("t").unwrap();
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        // All 200 inserts were applied (and not raced by the drop), then
        // the drop destroyed both formats.
        assert_eq!(pipe.error_count(), 0, "{}", pipe.metrics().summary());
        assert!(
            store.index(imci_common::TableId(1)).is_err(),
            "column index destroyed"
        );
        assert!(ro_engine.table("t").is_err(), "row runtime destroyed");
        // Re-creating the same name works and replicates cleanly.
        let (cols, idxs) = table_parts();
        rw.create_table("t", cols, idxs).unwrap();
        let mut txn = rw.begin();
        rw.insert(
            &mut txn,
            "t",
            vec![Value::Int(7), Value::Int(70), Value::Null],
        )
        .unwrap();
        rw.commit(txn).unwrap();
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        let idx = store.index(imci_common::TableId(2)).unwrap();
        assert_eq!(idx.snapshot().get_by_pk(7).unwrap()[1], Value::Int(70));
        assert_eq!(ro_engine.row_count("t").unwrap(), 1);
        assert_eq!(pipe.error_count(), 0);
        pipe.stop();
    }

    #[test]
    fn stop_after_drain_hands_back_inflight_undo() {
        let (fs, rw) = setup();
        let ro_engine = RowEngine::new_replica(fs.clone(), 1 << 20);
        let store = Arc::new(ColumnStore::new(1024));
        let pipe = Pipeline::start(
            fs.clone(),
            ro_engine.clone(),
            store.clone(),
            ReplicationConfig::default(),
            LogPosition::default(),
        );
        // One committed txn...
        let mut txn = rw.begin();
        for pk in 0..20i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(pk), Value::Int(pk), Value::Null],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        // ...and one left in flight (CALS ships its entries anyway).
        let mut open = rw.begin();
        rw.insert(
            &mut open,
            "t",
            vec![Value::Int(100), Value::Int(1), Value::Null],
        )
        .unwrap();
        rw.update(
            &mut open,
            "t",
            3,
            vec![Value::Int(3), Value::Int(-3), Value::Null],
        )
        .unwrap();

        // Fence the writer (the failover precondition), then drain.
        fs.bump_epoch();
        let state = pipe.stop_after_drain().unwrap();
        assert_eq!(state.inflight.len(), 2, "insert + update undecided");
        assert_eq!(state.inflight[1].0, open.tid, "one transaction in flight");
        assert_eq!(state.inflight[0].0, open.tid);
        assert!(matches!(
            state.inflight[0].1,
            rowstore::UndoOp::Insert { pk: 100, .. }
        ));
        match &state.inflight[1].1 {
            rowstore::UndoOp::Update { pk: 3, old, .. } => {
                assert_eq!(old.values[1], Value::Int(3), "pre-image captured");
            }
            other => panic!("expected update undo, got {other:?}"),
        }
        // The drain consumed the whole log and applied every commit.
        let pos = state.position;
        assert_eq!(pos.last_lsn, rw.log().unwrap().tail_lsn().get());
        assert_eq!(pos.applied_lsn, rw.log().unwrap().written_lsn().get());
        assert!(pos.max_tid >= open.tid.get());
        assert_eq!(pos.offset, fs.log_len(imci_wal::REDO_LOG_NAME));
        // Row replica holds committed + exactly the undecided ops.
        assert_eq!(ro_engine.row_count("t").unwrap(), 21);
        assert_eq!(
            ro_engine.get_row("t", 3).unwrap().unwrap().values[1],
            Value::Int(-3)
        );
        // Column store holds only the committed prefix.
        let idx = store.index(imci_common::TableId(1)).unwrap();
        assert!(idx.snapshot().get_by_pk(100).is_none());
    }

    #[test]
    fn drain_and_stop_wake_an_idle_reader() {
        // A caught-up reader parks in `wait_for_growth` for a whole
        // `poll_interval`; raising either flag must wake it at once.
        let (fs, rw) = setup();
        let cfg = ReplicationConfig {
            poll_interval: Duration::from_secs(10),
            ..ReplicationConfig::default()
        };
        for drain in [true, false] {
            let (pipe, _store) = start_ro(&fs, cfg.clone());
            let target = rw.log().unwrap().written_lsn().get();
            assert!(pipe.wait_applied(target, Duration::from_secs(20)));
            // Let the reader finish its read and park on the idle log.
            std::thread::sleep(Duration::from_millis(50));
            let t0 = std::time::Instant::now();
            if drain {
                pipe.stop_after_drain().unwrap();
            } else {
                pipe.stop();
            }
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "drain={drain}: the reader slept {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn drain_of_checkpoint_seeded_pipeline_covers_the_whole_log() {
        // Regression: a node whose pipeline started at a checkpoint
        // cursor has metrics covering only the suffix. Promoting it
        // with no post-checkpoint traffic must still resume the writer
        // above every LSN/TID/VID the *prefix* used — otherwise the
        // new writer's records reuse LSNs and every replica's per-page
        // idempotency gate silently drops them.
        let (fs, rw) = setup();
        let mut txn = rw.begin();
        for pk in 0..100i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(pk), Value::Int(pk), Value::Null],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        let tail = rw.log().unwrap().tail_lsn().get();
        let written = rw.log().unwrap().written_lsn().get();
        let last_vid = rw.txns.last_commit_vid().get();

        // Checkpoint at the exact tail; boot a node from it.
        crate::take_checkpoint(&fs, 1, None, 64).unwrap();
        let seeded = crate::seed(&fs, 64).unwrap();
        let pipe = Pipeline::start(
            fs.clone(),
            seeded.engine.clone(),
            seeded.store.clone(),
            ReplicationConfig::default(),
            seeded.position,
        );
        // The watermarks start at the checkpoint: caught up already.
        assert!(pipe.wait_applied(written, Duration::ZERO));
        // Promote immediately: zero suffix entries read.
        fs.bump_epoch();
        let promo = pipe.stop_after_drain().unwrap().position;
        assert_eq!(promo.last_lsn, tail, "prefix LSNs must be covered");
        assert_eq!(promo.applied_lsn, written);
        assert_eq!(promo.max_vid, last_vid);
        assert!(promo.max_tid >= 1, "prefix TIDs must be covered");
    }

    #[test]
    fn row_replica_also_converges() {
        let (fs, rw) = setup();
        let ro_engine = RowEngine::new_replica(fs.clone(), 1 << 20);
        let store = Arc::new(ColumnStore::new(1024));
        let pipe = Pipeline::start(
            fs.clone(),
            ro_engine.clone(),
            store,
            ReplicationConfig::default(),
            LogPosition::default(),
        );
        let mut txn = rw.begin();
        for pk in 0..100i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(pk), Value::Int(pk), Value::Null],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        // Phase 1 maintained the row replica pages too.
        assert_eq!(ro_engine.row_count("t").unwrap(), 100);
        assert_eq!(
            ro_engine.get_row("t", 42).unwrap().unwrap().values[1],
            Value::Int(42)
        );
        pipe.stop();
    }
}
