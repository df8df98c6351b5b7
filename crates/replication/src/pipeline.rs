//! The threaded 2P-COFFER pipeline (paper §5.2–§5.4).
//!
//! Thread layout: 1 reader → N Phase-1 workers (page-partitioned) →
//! 1 collector (LSN re-sort + transaction buffers) → 1 dispatcher →
//! M Phase-2 workers (PK-partitioned) with per-batch barriers.
//!
//! Conflict freedom:
//! * Phase 1: entries that touch the same page hash to the same worker
//!   and arrive in LSN order; different pages never conflict.
//! * Phase 2: ops with the same primary key hash to the same worker;
//!   the dispatcher walks transactions in commit order, so two updates
//!   of one row — even from different transactions — reach their worker
//!   already ordered (the Fig. 6 example).

use crate::buffer::{apply_txn_op, CommittedTxn, TxnBuffers};
use crate::metrics::ReplicationMetrics;
use crate::replay::{order_inflight, InflightUndo};
use crossbeam::channel::{bounded, Receiver, Sender};
use imci_common::{fx_hash_u64, DdlOp, FxHashMap, Result, Tid, Vid};
use imci_core::{ColumnStore, LogPosition};
use imci_wal::{LogReader, RedoEntry, RedoPayload};
use polarfs_sim::PolarFs;
use rowstore::{apply_entry, LogicalChange, RowEngine, UndoOp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// Phase-1 (page-grained) worker count.
    pub phase1_workers: usize,
    /// Phase-2 (row-grained) worker count.
    pub phase2_workers: usize,
    /// Transactions per Phase-2 batch commit.
    pub batch_txns: usize,
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
            phase1_workers: 2,
            phase2_workers: 2,
            batch_txns: 64,
            large_txn_threshold: 8192,
            ship_mode: ShipMode::CommitAhead,
            poll_interval: Duration::from_millis(1),
        }
    }
}

enum P1Msg {
    Entry(Box<RedoEntry>, u64),
    Shutdown,
}

enum Outcome {
    Dml(Box<LogicalChange>),
    Commit {
        tid: Tid,
        vid: Vid,
        lsn: u64,
    },
    Abort {
        tid: Tid,
    },
    /// A destructive/in-place catalog change (DROP / ALTER) deferred to
    /// the collector's LSN-sorted drain; CREATEs are applied by the
    /// reader (see `reader_thread`).
    Ddl {
        version: u64,
        op: DdlOp,
    },
    Noop,
}

enum ResultMsg {
    Out { seq: u64, outcome: Outcome },
    Done,
}

enum DispatchMsg {
    Txn(CommittedTxn),
    /// Barrier RPC: apply everything dispatched so far, then ack on the
    /// flush channel. Used by the collector to quiesce Phase 2 before a
    /// destructive catalog change.
    Flush,
    Shutdown,
}

enum P2Msg {
    Op { vid: Vid, op: crate::buffer::TxnOp },
    Barrier,
    Shutdown,
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

/// A running replication pipeline for one RO node.
pub struct Pipeline {
    metrics: Arc<ReplicationMetrics>,
    stop: Arc<AtomicBool>,
    /// Softer than `stop`: finish consuming the (now-static,
    /// epoch-fenced) log to its end, then exit. Promotion's
    /// drain-to-LSN handshake.
    drain: Arc<AtomicBool>,
    // Behind a mutex so `stop` works through a shared reference: the
    // cluster must be able to halt a node's pipeline even while proxy
    // sessions still hold `Arc`s to the node (scale-in/shutdown).
    handles: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    /// Errors observed by workers (pipeline keeps running; benches
    /// assert this stays 0).
    errors: Arc<AtomicU64>,
    /// Row-side undo for every applied-but-undecided DML (= log
    /// order). Maintained by the collector, consumed by
    /// [`Pipeline::stop_after_drain`].
    inflight_undo: Arc<parking_lot::Mutex<InflightUndo>>,
    /// REDO byte offset the reader stopped at (set when it exits).
    end_offset: Arc<AtomicU64>,
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
        let end_offset = Arc::new(AtomicU64::new(start.offset));
        let stop = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicU64::new(0));
        let inflight_undo: Arc<parking_lot::Mutex<InflightUndo>> =
            Arc::new(parking_lot::Mutex::new(FxHashMap::default()));
        let n1 = config.phase1_workers.max(1);
        let n2 = config.phase2_workers.max(1);

        let (result_tx, result_rx) = bounded::<ResultMsg>(16_384);
        let mut p1_txs: Vec<Sender<P1Msg>> = Vec::with_capacity(n1);
        let mut handles = Vec::new();

        // ---- Phase-1 workers ----
        for _ in 0..n1 {
            let (tx, rx) = bounded::<P1Msg>(8_192);
            p1_txs.push(tx);
            let engine = engine.clone();
            let out = result_tx.clone();
            let errors = errors.clone();
            handles.push(std::thread::spawn(move || {
                phase1_worker(rx, engine, out, errors);
            }));
        }

        // ---- reader ----
        {
            let fs = fs.clone();
            let stop = stop.clone();
            let drain = drain.clone();
            let metrics = metrics.clone();
            let out = result_tx.clone();
            let p1 = p1_txs.clone();
            let cfg = config.clone();
            let engine = engine.clone();
            let store = store.clone();
            let errors = errors.clone();
            let offset = end_offset.clone();
            handles.push(std::thread::spawn(move || {
                reader_thread(
                    fs, cfg, offset, stop, drain, metrics, p1, out, engine, store, errors,
                );
            }));
        }
        drop(result_tx);

        // ---- dispatcher + Phase-2 workers ----
        let (disp_tx, disp_rx) = bounded::<DispatchMsg>(4_096);
        let (ack_tx, ack_rx) = bounded::<()>(n2 * 2);
        let (flush_tx, flush_rx) = bounded::<()>(1);
        let mut p2_txs: Vec<Sender<P2Msg>> = Vec::with_capacity(n2);
        for _ in 0..n2 {
            let (tx, rx) = bounded::<P2Msg>(8_192);
            p2_txs.push(tx);
            let store = store.clone();
            let ack = ack_tx.clone();
            let errors = errors.clone();
            handles.push(std::thread::spawn(move || {
                phase2_worker(rx, store, ack, errors);
            }));
        }
        {
            let store = store.clone();
            let metrics = metrics.clone();
            let batch = config.batch_txns.max(1);
            handles.push(std::thread::spawn(move || {
                dispatcher_thread(disp_rx, p2_txs, ack_rx, store, metrics, batch, flush_tx);
            }));
        }

        // ---- collector ----
        {
            let metrics = metrics.clone();
            let engine = engine.clone();
            let store = store.clone();
            let errors = errors.clone();
            let undo = inflight_undo.clone();
            let threshold = config.large_txn_threshold;
            let markers = n1 + 1; // workers + reader
            handles.push(std::thread::spawn(move || {
                collector_thread(
                    result_rx, disp_tx, flush_rx, engine, store, metrics, errors, undo, threshold,
                    markers,
                );
            }));
        }

        Pipeline {
            metrics,
            stop,
            drain,
            handles: parking_lot::Mutex::new(handles),
            errors,
            inflight_undo,
            end_offset,
        }
    }

    /// Pipeline metrics (watermarks, counters).
    pub fn metrics(&self) -> &Arc<ReplicationMetrics> {
        &self.metrics
    }

    /// Worker errors observed so far (0 in a healthy run).
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Block until the node's applied LSN reaches `lsn` (true) or the
    /// timeout expires (false). Parks on the metrics condvar — no
    /// spinning.
    pub fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        self.metrics.wait_applied_at_least(lsn, timeout)
    }

    /// Stop and join all threads. Idempotent, and callable through a
    /// shared reference so the cluster can halt a node's replication
    /// even when sessions still hold the node `Arc`.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }

    /// Drain the pipeline to the log's end, stop it, and hand back
    /// everything a promotion needs — the RO half of the §7 failover
    /// handshake. The caller must have epoch-fenced the old writer
    /// first, so the tail this consumes is final. On return every
    /// committed transaction in the log is applied to both formats, and
    /// `inflight` holds the exact row-side undo for the rest: the
    /// drained node's row replica equals "all committed + precisely
    /// these undecided ops".
    pub fn stop_after_drain(&self) -> PromotionState {
        self.drain.store(true, Ordering::SeqCst);
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
        let drained = std::mem::take(&mut *self.inflight_undo.lock());
        let m = &self.metrics;
        PromotionState {
            inflight: order_inflight(drained),
            position: LogPosition {
                offset: self.end_offset.load(Ordering::SeqCst),
                last_lsn: m.read_lsn(),
                applied_lsn: m.applied_lsn(),
                max_tid: m.max_tid.load(Ordering::SeqCst),
                max_vid: m.visible_vid(),
            },
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_thread(
    fs: PolarFs,
    cfg: ReplicationConfig,
    offset: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    metrics: Arc<ReplicationMetrics>,
    p1: Vec<Sender<P1Msg>>,
    results: Sender<ResultMsg>,
    engine: Arc<RowEngine>,
    store: Arc<ColumnStore>,
    errors: Arc<AtomicU64>,
) {
    let mut reader = LogReader::new(fs.clone(), offset.load(Ordering::SeqCst));
    let mut seq = 0u64;
    let n1 = p1.len() as u64;
    loop {
        // Stop promptly even while the RW keeps producing; `stop` means
        // stop, not "stop once the log goes quiet".
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let draining = drain.load(Ordering::SeqCst);
        // Promotion drain: the old writer is epoch-fenced, so the log
        // is static — consume it to the very end (even past the durable
        // point in OnCommit mode: the resumed writer appends after the
        // physical tail, so every byte before it must be accounted
        // for), then exit.
        let entries = if draining {
            reader.read_available()
        } else {
            // OnCommit strawman: cap reads at the durable commit point.
            match cfg.ship_mode {
                ShipMode::CommitAhead => reader.wait_and_read(cfg.poll_interval),
                ShipMode::OnCommit => {
                    let cap = fs.synced_len(imci_wal::REDO_LOG_NAME);
                    if reader.offset() >= cap {
                        std::thread::sleep(cfg.poll_interval);
                        Vec::new()
                    } else {
                        reader.read_until(cap)
                    }
                }
            }
        };
        if entries.is_empty() {
            if stop.load(Ordering::SeqCst) || draining {
                break;
            }
            continue;
        }
        for e in entries {
            metrics.entries_read.fetch_add(1, Ordering::Relaxed);
            metrics.read_lsn.fetch_max(e.lsn.get(), Ordering::SeqCst);
            metrics.max_tid.fetch_max(e.tid.get(), Ordering::SeqCst);
            match &e.payload {
                RedoPayload::Commit { commit_vid } => {
                    let _ = results.send(ResultMsg::Out {
                        seq,
                        outcome: Outcome::Commit {
                            tid: e.tid,
                            vid: *commit_vid,
                            lsn: e.lsn.get(),
                        },
                    });
                }
                RedoPayload::Abort => {
                    let _ = results.send(ResultMsg::Out {
                        seq,
                        outcome: Outcome::Abort { tid: e.tid },
                    });
                }
                RedoPayload::Ddl { version, op } => {
                    match op {
                        // CREATE applies here, synchronously: the reader
                        // forwards entries in LSN order, so registering
                        // the table runtime (and its column index)
                        // *before* forwarding anything further
                        // guarantees Phase 1 and the transaction buffers
                        // never see a DML for an unknown table.
                        DdlOp::CreateTable { schema, .. } => {
                            match engine.apply_ddl(*version, op) {
                                Ok(true) => {
                                    if schema.has_column_index() {
                                        store.create_index(schema);
                                    }
                                    metrics.ddls_applied.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(false) => {} // replayed below our version
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            let _ = results.send(ResultMsg::Out {
                                seq,
                                outcome: Outcome::Noop,
                            });
                        }
                        // DROP / ALTER are destructive: defer to the
                        // collector's LSN-sorted drain, where every
                        // earlier entry has finished Phase 1 and Phase 2
                        // can be flushed.
                        _ => {
                            let _ = results.send(ResultMsg::Out {
                                seq,
                                outcome: Outcome::Ddl {
                                    version: *version,
                                    op: op.clone(),
                                },
                            });
                        }
                    }
                }
                // Ownership marker from a resumed writer: nothing to
                // apply (fencing lives in shared storage); keep the
                // drain sequence contiguous.
                RedoPayload::EpochBump { .. } => {
                    let _ = results.send(ResultMsg::Out {
                        seq,
                        outcome: Outcome::Noop,
                    });
                }
                _ => {
                    let w = (fx_hash_u64(e.page_id.get()) % n1) as usize;
                    let _ = p1[w].send(P1Msg::Entry(Box::new(e), seq));
                }
            }
            seq += 1;
        }
    }
    offset.store(reader.offset(), Ordering::SeqCst);
    for tx in &p1 {
        let _ = tx.send(P1Msg::Shutdown);
    }
    let _ = results.send(ResultMsg::Done);
}

fn phase1_worker(
    rx: Receiver<P1Msg>,
    engine: Arc<RowEngine>,
    out: Sender<ResultMsg>,
    errors: Arc<AtomicU64>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            P1Msg::Entry(e, seq) => {
                let outcome = match apply_entry(&engine, &e) {
                    Ok(Some(change)) => Outcome::Dml(Box::new(change)),
                    Ok(None) => Outcome::Noop,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        Outcome::Noop
                    }
                };
                let _ = out.send(ResultMsg::Out { seq, outcome });
            }
            P1Msg::Shutdown => break,
        }
    }
    let _ = out.send(ResultMsg::Done);
}

/// Send a flush barrier to the dispatcher and wait for the ack: on
/// return, every op dispatched so far has been applied to the column
/// store and the watermark published.
fn flush_phase2(disp: &Sender<DispatchMsg>, flush_ack: &Receiver<()>) {
    if disp.send(DispatchMsg::Flush).is_ok() {
        let _ = flush_ack.recv();
    }
}

#[allow(clippy::too_many_arguments)]
fn collector_thread(
    rx: Receiver<ResultMsg>,
    disp: Sender<DispatchMsg>,
    flush_ack: Receiver<()>,
    engine: Arc<RowEngine>,
    store: Arc<ColumnStore>,
    metrics: Arc<ReplicationMetrics>,
    errors: Arc<AtomicU64>,
    inflight_undo: Arc<parking_lot::Mutex<InflightUndo>>,
    large_txn_threshold: usize,
    mut done_markers: usize,
) {
    let mut reorder: BTreeMap<u64, Outcome> = BTreeMap::new();
    let mut next_seq = 0u64;
    let mut bufs = TxnBuffers::new(large_txn_threshold);
    while done_markers > 0 {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => break,
        };
        match msg {
            ResultMsg::Done => {
                done_markers -= 1;
            }
            ResultMsg::Out { seq, outcome } => {
                reorder.insert(seq, outcome);
            }
        }
        // Drain the contiguous prefix in log order (the §5.4 LSN sort).
        while let Some(outcome) = reorder.remove(&next_seq) {
            next_seq += 1;
            match outcome {
                Outcome::Noop => {}
                Outcome::Dml(change) => {
                    metrics.dmls_extracted.fetch_add(1, Ordering::Relaxed);
                    // Row-side mirror of the §5.1 transaction buffers:
                    // keep the inverse of every applied-but-undecided
                    // DML so a promotion can roll the row replica back
                    // to the committed prefix. Freed at commit/abort.
                    // Memory: one cloned pre-image per undecided DML —
                    // deliberately unbounded like the pre-images
                    // themselves (they cannot be re-derived from the
                    // log later; updates ship diffs), duplicating the
                    // column-side buffers for the in-flight window.
                    inflight_undo
                        .lock()
                        .entry(change.tid)
                        .or_default()
                        .push((next_seq - 1, change.undo()));
                    // No lazy table pickup here: the table's DDL record
                    // precedes its first DML in the drain, so the column
                    // index (if declared) already exists.
                    if bufs.add_dml(*change, &store).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    metrics.precommits.store(bufs.precommits, Ordering::Relaxed);
                }
                Outcome::Ddl { version, op } => {
                    // At this drain position every earlier entry has
                    // completed Phase 1 (contiguous-prefix guarantee);
                    // flushing Phase 2 quiesces the column store, so the
                    // catalog change cannot race any in-flight apply.
                    flush_phase2(&disp, &flush_ack);
                    match engine.apply_ddl(version, &op) {
                        Ok(true) => {
                            metrics.ddls_applied.fetch_add(1, Ordering::Relaxed);
                            // Rebuilt ALTER rows become visible at the
                            // current watermark, with the rest of the
                            // already-applied state.
                            if apply_column_ddl(&op, &engine, &store, Vid(metrics.visible_vid()))
                                .is_err()
                            {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(false) => {}
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Outcome::Commit { tid, vid, lsn } => {
                    inflight_undo.lock().remove(&tid);
                    if let Some(txn) = bufs.commit(tid, vid, imci_common::Lsn(lsn)) {
                        let _ = disp.send(DispatchMsg::Txn(txn));
                    } else {
                        // Transaction with no column-indexed DMLs: still
                        // advances the applied watermarks via an empty txn.
                        let _ = disp.send(DispatchMsg::Txn(CommittedTxn {
                            tid,
                            vid,
                            commit_lsn: imci_common::Lsn(lsn),
                            ops: Vec::new(),
                        }));
                    }
                }
                Outcome::Abort { tid } => {
                    metrics.txns_aborted.fetch_add(1, Ordering::Relaxed);
                    inflight_undo.lock().remove(&tid);
                    bufs.abort(tid);
                }
            }
        }
    }
    let _ = disp.send(DispatchMsg::Shutdown);
}

/// Column-store side of an applied DDL record — shared by the
/// collector drain (Phase 2 quiesced first) and the single-threaded
/// [`crate::replay()`]. `stamp` is the VID rebuilt
/// ALTER rows are made visible at (the caller's current commit point).
pub(crate) fn apply_column_ddl(
    op: &DdlOp,
    engine: &RowEngine,
    store: &ColumnStore,
    stamp: Vid,
) -> Result<()> {
    match op {
        // Normally applied by the reader; kept for completeness (e.g.
        // a future path that routes creates through the drain).
        DdlOp::CreateTable { schema, .. } => {
            if schema.has_column_index() {
                store.create_index(schema);
            }
        }
        DdlOp::DropTable { table_id, .. } => {
            store.remove_index(*table_id);
        }
        DdlOp::ReplaceSchema { schema } => {
            if schema.has_column_index() {
                // Rebuild from the local row replica, which replay has
                // brought up to this record's LSN.
                let mut rows = Vec::new();
                engine.scan(&schema.name, i64::MIN, i64::MAX, |_, row| {
                    rows.push(row.values);
                })?;
                let idx = imci_core::build_from_rows(
                    schema,
                    store.group_capacity(),
                    stamp,
                    rows.into_iter(),
                )?;
                store.install(idx);
            } else {
                store.remove_index(schema.table_id);
            }
        }
    }
    Ok(())
}

fn dispatcher_thread(
    rx: Receiver<DispatchMsg>,
    p2: Vec<Sender<P2Msg>>,
    acks: Receiver<()>,
    store: Arc<ColumnStore>,
    metrics: Arc<ReplicationMetrics>,
    batch_txns: usize,
    flush_done: Sender<()>,
) {
    let n2 = p2.len() as u64;
    let mut shutdown = false;
    while !shutdown {
        // Collect a batch: block for the first txn, then drain greedily.
        let mut batch: Vec<CommittedTxn> = Vec::with_capacity(batch_txns);
        let mut flush_after = false;
        match rx.recv() {
            Ok(DispatchMsg::Txn(t)) => batch.push(t),
            // Between batches everything dispatched so far is applied
            // (each batch ends on a worker barrier): ack immediately.
            Ok(DispatchMsg::Flush) => {
                let _ = flush_done.send(());
                continue;
            }
            Ok(DispatchMsg::Shutdown) | Err(_) => break,
        }
        while batch.len() < batch_txns {
            match rx.try_recv() {
                Ok(DispatchMsg::Txn(t)) => batch.push(t),
                Ok(DispatchMsg::Flush) => {
                    flush_after = true;
                    break;
                }
                Ok(DispatchMsg::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Err(_) => break,
            }
        }
        let max_vid = batch.iter().map(|t| t.vid.get()).max().unwrap_or(0);
        let last_lsn = batch.iter().map(|t| t.commit_lsn.get()).max().unwrap_or(0);
        let n_txns = batch.len() as u64;
        // Row-by-row dispatch in commit order (§5.4).
        for txn in batch {
            for op in txn.ops {
                let w = (fx_hash_u64(op.pk() as u64) % n2) as usize;
                let _ = p2[w].send(P2Msg::Op { vid: txn.vid, op });
            }
        }
        // Batch commit: barrier, then publish the new watermarks.
        for tx in &p2 {
            let _ = tx.send(P2Msg::Barrier);
        }
        for _ in 0..p2.len() {
            let _ = acks.recv();
        }
        store.advance_all(Vid(max_vid));
        metrics.visible_vid.fetch_max(max_vid, Ordering::SeqCst);
        metrics.advance_applied(last_lsn);
        metrics.txns_committed.fetch_add(n_txns, Ordering::Relaxed);
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        if flush_after {
            let _ = flush_done.send(());
        }
    }
    for tx in &p2 {
        let _ = tx.send(P2Msg::Shutdown);
    }
}

fn phase2_worker(
    rx: Receiver<P2Msg>,
    store: Arc<ColumnStore>,
    ack: Sender<()>,
    errors: Arc<AtomicU64>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            P2Msg::Op { vid, op } => {
                if apply_txn_op(&store, vid, &op).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            P2Msg::Barrier => {
                let _ = ack.send(());
            }
            P2Msg::Shutdown => break,
        }
    }
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
        // No catalog refresh, no manual index creation: the log's DDL
        // records build both as the pipeline replays from offset 0.
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
        // row; PK-hash dispatch must serialize them in commit order.
        let (fs, rw) = setup();
        let (pipe, store) = start_ro(
            &fs,
            ReplicationConfig {
                phase1_workers: 4,
                phase2_workers: 4,
                batch_txns: 8,
                ..ReplicationConfig::default()
            },
        );
        let mut txn = rw.begin();
        rw.insert(
            &mut txn,
            "t",
            vec![Value::Int(1), Value::Int(0), Value::Null],
        )
        .unwrap();
        rw.commit(txn).unwrap();
        for i in 1..=200i64 {
            let mut txn = rw.begin();
            rw.update(
                &mut txn,
                "t",
                1,
                vec![Value::Int(1), Value::Int(i), Value::Null],
            )
            .unwrap();
            rw.commit(txn).unwrap();
        }
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, Duration::from_secs(20)));
        let idx = store.index(imci_common::TableId(1)).unwrap();
        assert_eq!(
            idx.snapshot().get_by_pk(1).unwrap()[1],
            Value::Int(200),
            "final version must be the last committed"
        );
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
        // Regression for the lazy-pickup race: a table created *after*
        // the RO pipeline started used to be discovered out-of-band
        // (`let _ = refresh_catalog()` mid-apply), and committed DMLs
        // racing that discovery were silently dropped — only an error
        // counter moved. With DDL in the log, the CREATE's record
        // strictly precedes the INSERT's entries, so every row must
        // land, every round, with zero errors.
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
        let state = pipe.stop_after_drain();
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
        let promo = pipe.stop_after_drain().position;
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
