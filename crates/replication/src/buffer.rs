//! Transaction buffers (paper §5.1) and large-transaction pre-commit
//! (paper §5.5).
//!
//! CALS ships DML log entries before their transaction commits; the RO
//! node parses them into logical DMLs and parks them in a per-TID buffer
//! unit. A commit record turns the unit into a [`CommittedTxn`] handed
//! to Phase 2; an abort record simply frees the unit ("no data need to
//! be rolled back").
//!
//! If a unit grows past a threshold, it is **pre-committed**: the insert
//! halves of its DMLs are written into the column index right away with
//! *invalid VIDs* (invisible), their PK→RID mappings parked in a
//! *temporary locator*, and the buffered row data freed. At commit the
//! mappings are merged into the global locator and the VIDs rectified;
//! at abort the temporary locator is dropped and the orphaned rows wait
//! for compaction.

use imci_common::{FxHashMap, Lsn, Result, Rid, TableId, Tid, Value, Vid};
use imci_core::ColumnStore;
use rowstore::{LogicalChange, LogicalDml};

/// One operation of a committed transaction, as dispatched to Phase-2
/// workers (all variants carry the PK that drives worker assignment).
#[derive(Debug, Clone)]
pub enum TxnOp {
    /// Buffered logical insert.
    Insert {
        /// Table.
        table: TableId,
        /// Primary key (drives `hash(pk) % M` dispatch).
        pk: i64,
        /// Covered column values, already projected.
        values: Vec<Value>,
    },
    /// Buffered logical update (out-of-place: delete + insert).
    Update {
        /// Table.
        table: TableId,
        /// Primary key.
        pk: i64,
        /// New covered values.
        values: Vec<Value>,
    },
    /// Buffered logical delete.
    Delete {
        /// Table.
        table: TableId,
        /// Primary key.
        pk: i64,
    },
    /// A row pre-applied by §5.5 pre-commit: data already sits at `rid`
    /// with invalid VIDs; finalize = (optionally delete the old
    /// version) + publish mapping + rectify VID.
    PreApplied {
        /// Table.
        table: TableId,
        /// Primary key.
        pk: i64,
        /// Where the invisible new version lives.
        rid: Rid,
        /// True when this came from an Update (old version must be
        /// delete-stamped at commit).
        delete_old: bool,
    },
}

impl TxnOp {
    /// The primary key driving Phase-2 dispatch.
    pub fn pk(&self) -> i64 {
        match self {
            TxnOp::Insert { pk, .. }
            | TxnOp::Update { pk, .. }
            | TxnOp::Delete { pk, .. }
            | TxnOp::PreApplied { pk, .. } => *pk,
        }
    }
}

/// A fully-buffered transaction released by its commit record.
#[derive(Debug)]
pub struct CommittedTxn {
    /// Transaction id.
    pub tid: Tid,
    /// Commit sequence number (stamps the VID maps).
    pub vid: Vid,
    /// LSN of the commit record (advances the applied-LSN watermark).
    pub commit_lsn: Lsn,
    /// Operations in original LSN order.
    pub ops: Vec<TxnOp>,
}

struct BufferUnit {
    ops: Vec<TxnOp>,
    /// DMLs seen (including pre-applied ones).
    n_dmls: usize,
    /// Ops before this index are already pre-applied (§5.5); pre-commit
    /// only converts the suffix, keeping the path amortized O(1).
    pre_applied_upto: usize,
    /// §5.3: PKs inserted by this txn, to ignore duplicate-PK inserts
    /// produced by row migrations that slip past the SYSTEM_TID filter.
    inserted_pks: imci_common::FxHashSet<(TableId, i64)>,
}

/// All in-flight transaction buffers of one RO node.
pub struct TxnBuffers {
    units: FxHashMap<Tid, BufferUnit>,
    /// Pre-commit threshold in DMLs (§5.5); `usize::MAX` disables.
    pub large_txn_threshold: usize,
    /// Pre-commits performed (metrics).
    pub precommits: u64,
}

impl TxnBuffers {
    /// Create with the given pre-commit threshold.
    pub fn new(large_txn_threshold: usize) -> TxnBuffers {
        TxnBuffers {
            units: FxHashMap::default(),
            large_txn_threshold: large_txn_threshold.max(1),
            precommits: 0,
        }
    }

    /// Number of in-flight (uncommitted) transactions.
    pub fn in_flight(&self) -> usize {
        self.units.len()
    }

    /// Park one logical DML into its transaction's buffer unit.
    /// `store` is needed for the pre-commit path.
    pub fn add_dml(&mut self, change: LogicalChange, store: &ColumnStore) -> Result<()> {
        let unit = self.units.entry(change.tid).or_insert_with(|| BufferUnit {
            ops: Vec::new(),
            n_dmls: 0,
            pre_applied_upto: 0,
            inserted_pks: imci_common::FxHashSet::default(),
        });
        let table = change.table_id;
        // Only buffer DMLs for tables that actually have a column index.
        let index = match store.index(table) {
            Ok(idx) => idx,
            Err(_) => return Ok(()),
        };
        match change.dml {
            LogicalDml::Insert { pk, new } => {
                // §5.3 duplicate-PK-insert check (row migrations).
                if !unit.inserted_pks.insert((table, pk)) {
                    return Ok(());
                }
                unit.ops.push(TxnOp::Insert {
                    table,
                    pk,
                    values: index.project_row(&new.values),
                });
            }
            LogicalDml::Update { pk, new, .. } => {
                unit.ops.push(TxnOp::Update {
                    table,
                    pk,
                    values: index.project_row(&new.values),
                });
            }
            LogicalDml::Delete { pk, .. } => {
                unit.ops.push(TxnOp::Delete { table, pk });
            }
        }
        unit.n_dmls += 1;
        // Pre-commit whenever `threshold` new DMLs have accumulated
        // since the last pre-commit (the §5.5 memory-pressure valve).
        if unit.ops.len() - unit.pre_applied_upto >= self.large_txn_threshold {
            let tid = change.tid;
            self.precommit(tid, store)?;
        }
        Ok(())
    }

    /// §5.5 pre-commit: apply the insert halves invisibly and free the
    /// buffered row data. Converts ops in place from the last watermark.
    fn precommit(&mut self, tid: Tid, store: &ColumnStore) -> Result<()> {
        let unit = match self.units.get_mut(&tid) {
            Some(u) => u,
            None => return Ok(()),
        };
        for op in unit.ops[unit.pre_applied_upto..].iter_mut() {
            match op {
                TxnOp::Insert { table, pk, values } => {
                    let index = store.index(*table)?;
                    let rid = index.alloc_rids(1);
                    index.insert_precommitted(rid, values)?;
                    *op = TxnOp::PreApplied {
                        table: *table,
                        pk: *pk,
                        rid,
                        delete_old: false,
                    };
                }
                TxnOp::Update { table, pk, values } => {
                    let index = store.index(*table)?;
                    let rid = index.alloc_rids(1);
                    index.insert_precommitted(rid, values)?;
                    *op = TxnOp::PreApplied {
                        table: *table,
                        pk: *pk,
                        rid,
                        delete_old: true,
                    };
                }
                _ => {}
            }
        }
        unit.pre_applied_upto = unit.ops.len();
        self.precommits += 1;
        Ok(())
    }

    /// Commit record seen: release the unit as a [`CommittedTxn`].
    pub fn commit(&mut self, tid: Tid, vid: Vid, commit_lsn: Lsn) -> Option<CommittedTxn> {
        let unit = self.units.remove(&tid)?;
        Some(CommittedTxn {
            tid,
            vid,
            commit_lsn,
            ops: unit.ops,
        })
    }

    /// Abort record seen: free the unit (pre-applied rows stay invisible
    /// and are swept by compaction).
    pub fn abort(&mut self, tid: Tid) {
        self.units.remove(&tid);
    }
}

/// Apply one committed-transaction op to the column store. Used by the
/// Phase-2 workers and the synchronous replayer.
pub fn apply_txn_op(store: &ColumnStore, vid: Vid, op: &TxnOp) -> Result<()> {
    match op {
        TxnOp::Insert { table, values, .. } => {
            store.index(*table)?.insert(vid, values)?;
        }
        TxnOp::Update { table, pk, values } => {
            store.index(*table)?.update(vid, *pk, values)?;
        }
        TxnOp::Delete { table, pk } => {
            store.index(*table)?.delete(vid, *pk)?;
        }
        TxnOp::PreApplied {
            table,
            pk,
            rid,
            delete_old,
        } => {
            let index = store.index(*table)?;
            if *delete_old {
                index.delete(vid, *pk)?;
            }
            index.publish_mapping(*pk, *rid);
            index.rectify_vid(*rid, vid);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, Row, Schema};

    fn store_with_table() -> (ColumnStore, Schema) {
        let schema = Schema::new(
            TableId(1),
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
                    kind: IndexKind::Column,
                    name: "ci".into(),
                    columns: vec![0, 1],
                },
            ],
        )
        .unwrap();
        let store = ColumnStore::new(16);
        store.create_index(&schema);
        (store, schema)
    }

    fn insert_change(tid: u64, pk: i64) -> LogicalChange {
        LogicalChange {
            table_id: TableId(1),
            lsn: Lsn(0),
            tid: Tid(tid),
            dml: LogicalDml::Insert {
                pk,
                new: Row::new(vec![Value::Int(pk), Value::Int(pk * 2)]),
            },
        }
    }

    #[test]
    fn commit_releases_buffered_ops_in_order() {
        let (store, _) = store_with_table();
        let mut bufs = TxnBuffers::new(usize::MAX);
        bufs.add_dml(insert_change(5, 1), &store).unwrap();
        bufs.add_dml(insert_change(5, 2), &store).unwrap();
        assert_eq!(bufs.in_flight(), 1);
        let txn = bufs.commit(Tid(5), Vid(1), Lsn(10)).unwrap();
        assert_eq!(txn.ops.len(), 2);
        assert_eq!(txn.ops[0].pk(), 1);
        assert_eq!(txn.ops[1].pk(), 2);
        assert_eq!(bufs.in_flight(), 0);
    }

    #[test]
    fn abort_frees_without_applying() {
        let (store, _) = store_with_table();
        let mut bufs = TxnBuffers::new(usize::MAX);
        bufs.add_dml(insert_change(9, 7), &store).unwrap();
        bufs.abort(Tid(9));
        assert_eq!(bufs.in_flight(), 0);
        assert!(bufs.commit(Tid(9), Vid(1), Lsn(1)).is_none());
        // Nothing reached the column index.
        let idx = store.index(TableId(1)).unwrap();
        assert_eq!(idx.rows_inserted(), 0);
    }

    #[test]
    fn duplicate_pk_insert_filtered() {
        let (store, _) = store_with_table();
        let mut bufs = TxnBuffers::new(usize::MAX);
        bufs.add_dml(insert_change(5, 1), &store).unwrap();
        bufs.add_dml(insert_change(5, 1), &store).unwrap(); // migration echo
        let txn = bufs.commit(Tid(5), Vid(1), Lsn(10)).unwrap();
        assert_eq!(
            txn.ops.len(),
            1,
            "§5.3: duplicate PK insert is not a user DML"
        );
    }

    #[test]
    fn large_txn_precommit_and_finalize() {
        let (store, _) = store_with_table();
        let idx = store.index(TableId(1)).unwrap();
        let mut bufs = TxnBuffers::new(3);
        for pk in 0..5 {
            bufs.add_dml(insert_change(7, pk), &store).unwrap();
        }
        assert!(bufs.precommits >= 1, "threshold crossed → pre-commit");
        // The first 3 DMLs were pre-applied (physically present but
        // invisible); the remaining 2 wait for the next threshold or
        // the commit itself.
        assert_eq!(idx.rows_inserted(), 3);
        idx.advance_visible(Vid(100));
        assert!(idx.snapshot().get_by_pk(0).is_none());

        let txn = bufs.commit(Tid(7), Vid(101), Lsn(50)).unwrap();
        for op in &txn.ops {
            apply_txn_op(&store, txn.vid, op).unwrap();
        }
        store.advance_all(Vid(101));
        let snap = idx.snapshot();
        for pk in 0..5 {
            assert_eq!(
                snap.get_by_pk(pk).unwrap()[1],
                Value::Int(pk * 2),
                "pk {pk} visible after finalize"
            );
        }
    }

    #[test]
    fn large_txn_abort_leaves_only_invisible_garbage() {
        let (store, _) = store_with_table();
        let idx = store.index(TableId(1)).unwrap();
        let mut bufs = TxnBuffers::new(2);
        for pk in 0..4 {
            bufs.add_dml(insert_change(8, pk), &store).unwrap();
        }
        bufs.abort(Tid(8));
        idx.advance_visible(Vid(10));
        let snap = idx.snapshot();
        for pk in 0..4 {
            assert!(snap.get_by_pk(pk).is_none());
        }
        // The garbage rows have unset VIDs; compaction's live check
        // ignores them, and scans can't see them.
        for g in idx.groups() {
            assert_eq!(g.visible_offsets(10).len(), 0);
        }
    }

    #[test]
    fn update_and_delete_ops_apply() {
        let (store, _) = store_with_table();
        let idx = store.index(TableId(1)).unwrap();
        idx.insert(Vid(1), &[Value::Int(1), Value::Int(10)])
            .unwrap();
        idx.insert(Vid(1), &[Value::Int(2), Value::Int(20)])
            .unwrap();
        store.advance_all(Vid(1));
        apply_txn_op(
            &store,
            Vid(2),
            &TxnOp::Update {
                table: TableId(1),
                pk: 1,
                values: vec![Value::Int(1), Value::Int(11)],
            },
        )
        .unwrap();
        apply_txn_op(
            &store,
            Vid(2),
            &TxnOp::Delete {
                table: TableId(1),
                pk: 2,
            },
        )
        .unwrap();
        store.advance_all(Vid(2));
        let snap = idx.snapshot();
        assert_eq!(snap.get_by_pk(1).unwrap()[1], Value::Int(11));
        assert!(snap.get_by_pk(2).is_none());
    }
}
