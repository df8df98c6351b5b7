//! The one REDO apply step (paper §5.2–§5.4), shared by the live
//! [`crate::Pipeline`] and [`crate::replay()`].
//!
//! [`Applier::apply`] takes frames in LSN order and applies them to the
//! row replica and, when the state has them, the column indexes:
//! Phase 1 (`apply_entry`: page changes + logical DML extraction), the
//! §5.1 transaction buffers with the §5.5 pre-commit, Phase 2
//! (`apply_txn_op` per committed op) and DDL records (both formats).
//!
//! The frames are cut into segments at DDL records (and every
//! [`SEGMENT_MAX`] entries, which bounds the memory of a long catch-up).
//! A segment runs in two steps:
//!
//! 1. one walk in LSN order: Phase 1 applies each page entry, its DML
//!    goes into the transaction buffers (a pre-commit writes invisible
//!    rows here), commit records release their transactions, aborts
//!    drop theirs;
//! 2. Phase 2 over the released transactions' ops, in commit order,
//!    then the column indexes advance to the last commit.
//!
//! The DDL record that ends a segment then applies with nothing in
//! flight: every earlier entry has passed both phases, so an ALTER
//! rebuild reads a current row replica and a DROP leaves no op behind.
//!
//! Everything runs on the calling thread, in log order, so no step needs
//! a conflict rule against another: a pointer-bearing SMO finds the page
//! it points at already applied (a strictly lower-LSN record created
//! it), and two updates of one row — even from different transactions —
//! land in commit order (the Fig. 6 example).

use crate::buffer::{apply_txn_op, CommittedTxn, TxnBuffers};
use imci_common::{DdlOp, Error, FxHashMap, Result, Tid, Vid};
use imci_core::{ColumnStore, LogPosition};
use imci_wal::{RedoEntry, RedoPayload};
use rowstore::{apply_entry, LogicalChange, RowEngine, UndoOp};

/// Longest run of entries applied as one segment.
const SEGMENT_MAX: usize = 8192;

/// Row-side undo buffers of applied-but-undecided DMLs, keyed by
/// transaction, each op stamped with its position in log order.
type InflightUndo = FxHashMap<Tid, Vec<(u64, UndoOp)>>;

/// What an [`Applier`] has done so far (cumulative).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counts {
    /// Entries applied.
    pub entries: u64,
    /// Logical DMLs extracted by Phase 1.
    pub dmls: u64,
    /// Commit records applied.
    pub committed: u64,
    /// Abort records applied.
    pub aborted: u64,
    /// DDL records that changed the catalog.
    pub ddls: u64,
    /// Entries or ops that failed to apply.
    pub errors: u64,
}

/// The apply state of one node: its formats, the §5.1 transaction
/// buffers, the row-side undo of undecided DMLs, and the log position.
pub(crate) struct Applier<'a> {
    engine: &'a RowEngine,
    /// `None` applies the row replica only (a recovering writer).
    store: Option<&'a ColumnStore>,
    bufs: TxnBuffers,
    inflight: InflightUndo,
    /// Log-order stamp of the next entry (orders `inflight`).
    seq: u64,
    position: LogPosition,
    counts: Counts,
    first_error: Option<Error>,
}

impl<'a> Applier<'a> {
    /// A state covering the log up to `position`, with nothing in
    /// flight there (positions are transaction boundaries).
    pub fn new(
        engine: &'a RowEngine,
        store: Option<&'a ColumnStore>,
        large_txn_threshold: usize,
        position: LogPosition,
    ) -> Applier<'a> {
        Applier {
            engine,
            store,
            bufs: TxnBuffers::new(large_txn_threshold),
            inflight: InflightUndo::default(),
            seq: 0,
            position,
            counts: Counts::default(),
            first_error: None,
        }
    }

    /// The log position the applied state covers.
    pub fn position(&self) -> &LogPosition {
        &self.position
    }

    /// Cumulative counters.
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// §5.5 pre-commits so far.
    pub fn precommits(&self) -> u64 {
        self.bufs.precommits
    }

    /// The first apply error, if any (later ones are only counted).
    pub fn take_error(&mut self) -> Option<Error> {
        self.first_error.take()
    }

    /// Hand back the undo of every undecided DML, in log order, and the
    /// position the state covers.
    pub fn finish(self) -> (Vec<(Tid, UndoOp)>, LogPosition) {
        (order_inflight(self.inflight), self.position)
    }

    /// Apply `frames` (entry + byte offset just past it, in LSN order);
    /// see the module docs.
    pub fn apply(&mut self, frames: &[(RedoEntry, u64)]) {
        let mut rest = frames;
        while !rest.is_empty() {
            let cut = rest
                .iter()
                .take(SEGMENT_MAX)
                .position(|(e, _)| e.payload.is_ddl())
                .unwrap_or_else(|| rest.len().min(SEGMENT_MAX));
            let (segment, tail) = rest.split_at(cut);
            self.apply_segment(segment);
            rest = tail;
            if let Some(((e, end), after)) = rest.split_first() {
                if let RedoPayload::Ddl { version, op } = &e.payload {
                    self.apply_ddl(*version, op);
                    self.advance(e, *end);
                    rest = after;
                }
            }
        }
    }

    fn apply_segment(&mut self, segment: &[(RedoEntry, u64)]) {
        let mut released: Vec<CommittedTxn> = Vec::new();
        let committed_before = self.counts.committed;
        for (e, end) in segment {
            match &e.payload {
                RedoPayload::Commit { commit_vid } => {
                    self.inflight.remove(&e.tid);
                    if let Some(txn) = self.bufs.commit(e.tid, *commit_vid, e.lsn) {
                        released.push(txn);
                    }
                    self.position.max_vid = self.position.max_vid.max(commit_vid.get());
                    self.position.applied_lsn = e.lsn.get();
                    self.counts.committed += 1;
                }
                RedoPayload::Abort => {
                    // The abort's SYSTEM_TID compensation entries apply
                    // like any page change; only the buffers are left.
                    self.inflight.remove(&e.tid);
                    self.bufs.abort(e.tid);
                    self.counts.aborted += 1;
                }
                _ => match apply_entry(self.engine, e) {
                    Ok(Some(change)) => self.add_dml(change),
                    Ok(None) => {}
                    Err(err) => self.fail(err),
                },
            }
            self.advance(e, *end);
        }
        if let Some(store) = self.store {
            for txn in &released {
                for op in &txn.ops {
                    if let Err(e) = apply_txn_op(store, txn.vid, op) {
                        self.fail(e);
                    }
                }
            }
            if self.counts.committed > committed_before {
                store.advance_all(Vid(self.position.max_vid));
            }
        }
    }

    fn add_dml(&mut self, change: LogicalChange) {
        self.counts.dmls += 1;
        // Row-side mirror of the transaction buffers: the inverse of
        // every applied-but-undecided DML, so a promotion or a recovery
        // can roll the row replica back to the committed prefix. One
        // cloned pre-image per undecided DML: it cannot be re-derived
        // from the log later (updates ship diffs).
        self.inflight
            .entry(change.tid)
            .or_default()
            .push((self.seq, change.undo()));
        if let Some(store) = self.store {
            if let Err(e) = self.bufs.add_dml(change, store) {
                self.fail(e);
            }
        }
    }

    fn apply_ddl(&mut self, version: u64, op: &DdlOp) {
        match self.engine.apply_ddl(version, op) {
            Ok(true) => {
                self.counts.ddls += 1;
                if let Some(store) = self.store {
                    // Rebuilt ALTER rows become visible at the current
                    // commit point, with the rest of the applied state.
                    let stamp = Vid(self.position.max_vid);
                    if let Err(e) = apply_column_ddl(op, self.engine, store, stamp) {
                        self.fail(e);
                    }
                }
            }
            Ok(false) => {} // replayed at or below the table's version
            Err(e) => self.fail(e),
        }
    }

    fn advance(&mut self, e: &RedoEntry, end: u64) {
        let pos = &mut self.position;
        pos.offset = end;
        pos.last_lsn = pos.last_lsn.max(e.lsn.get());
        pos.max_tid = pos.max_tid.max(e.tid.get());
        self.seq += 1;
        self.counts.entries += 1;
    }

    fn fail(&mut self, e: Error) {
        self.counts.errors += 1;
        self.first_error.get_or_insert(e);
    }
}

/// Flatten [`InflightUndo`] into one list in original log order, ready
/// for [`RowEngine::rollback_inflight`].
fn order_inflight(inflight: InflightUndo) -> Vec<(Tid, UndoOp)> {
    let mut flat: Vec<(Tid, u64, UndoOp)> = inflight
        .into_iter()
        .flat_map(|(tid, ops)| ops.into_iter().map(move |(s, op)| (tid, s, op)))
        .collect();
    flat.sort_by_key(|(_, s, _)| *s);
    flat.into_iter().map(|(tid, _, op)| (tid, op)).collect()
}

/// Column-store side of an applied DDL record. `stamp` is the VID
/// rebuilt ALTER rows are made visible at (the current commit point).
fn apply_column_ddl(op: &DdlOp, engine: &RowEngine, store: &ColumnStore, stamp: Vid) -> Result<()> {
    match op {
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
                // Rebuild from the local row replica, which both phases
                // have brought up to this record's LSN.
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
