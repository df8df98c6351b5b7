//! Page-level REDO application — the substrate of Phase-1 replay.
//!
//! An RO node starts from an empty (or checkpoint-loaded) local buffer
//! pool and applies every REDO entry to its own copy of the pages. This
//! is where the paper's three challenges of reusing REDO (§5.2) are
//! solved:
//!
//! 1. *"REDO logs lack table-level information"* — our physiological
//!    records carry the table id, and the catalog maps it to a schema
//!    (real InnoDB recovers it from page headers; same effect). The
//!    catalog itself is versioned with the log: `Ddl` records precede
//!    every DML of their table, so replay never sees an unknown id.
//! 2. *"Page changes caused by the row store itself"* — SMO records are
//!    applied physically but excluded from logical extraction (they
//!    carry [`SYSTEM_TID`]); so are the page changes of undo/rollback.
//! 3. *"REDO logs only include differences"* — for updates, the worker
//!    reads the **old row image from its page copy**, uses it to build
//!    the delete half of the logical DML, applies the differential to
//!    produce the new image, and builds the insert half (paper §5.3).

use crate::bufferpool::BufferPool;
use crate::engine::RowEngine;
use crate::page::{Page, PageKind};
use imci_common::{Error, Lsn, Result, Row, TableId, Tid, SYSTEM_TID};
use imci_wal::{RedoEntry, RedoPayload};

/// A logical DML reconstructed from physical log replay.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalDml {
    /// A row was inserted.
    Insert { pk: i64, new: Row },
    /// A row was updated (out-of-place on the column side: delete old,
    /// insert new).
    Update { pk: i64, old: Row, new: Row },
    /// A row was deleted; the full old image is recovered from the page.
    Delete { pk: i64, old: Row },
}

/// A logical change with provenance, handed from Phase 1 to Phase 2.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalChange {
    /// Affected table.
    pub table_id: TableId,
    /// Source log entry.
    pub lsn: Lsn,
    /// Producing user transaction.
    pub tid: Tid,
    /// The reconstructed DML.
    pub dml: LogicalDml,
}

impl LogicalChange {
    /// The inverse of this DML — what rolls it back if its transaction
    /// never reaches a decision record. One definition shared by crash
    /// recovery's replay loop and the promotion drain's undo mirror.
    pub fn undo(&self) -> crate::txn::UndoOp {
        use crate::txn::UndoOp;
        match &self.dml {
            LogicalDml::Insert { pk, .. } => UndoOp::Insert {
                table: self.table_id,
                pk: *pk,
            },
            LogicalDml::Update { pk, old, .. } => UndoOp::Update {
                table: self.table_id,
                pk: *pk,
                old: old.clone(),
            },
            LogicalDml::Delete { pk, old } => UndoOp::Delete {
                table: self.table_id,
                pk: *pk,
                old: old.clone(),
            },
        }
    }
}

/// Find a table's runtime state. With DDL shipped through the REDO
/// stream, a table's `Ddl` record precedes every one of its DMLs in LSN
/// order, so by the time a DML entry is applied the table is always
/// registered — no lazy catalog refresh. An unknown id therefore
/// indicates a replay-ordering bug and surfaces as a replication error
/// (it used to be silently papered over by an out-of-band refresh).
fn table_of(engine: &RowEngine, id: TableId) -> Result<std::sync::Arc<crate::table::TableRt>> {
    engine.table_by_id(id).map_err(|_| {
        Error::Replication(format!(
            "replay references table {id} before its DDL record"
        ))
    })
}

fn local_page(
    bp: &BufferPool,
    id: imci_common::PageId,
) -> Result<std::sync::Arc<parking_lot::RwLock<Page>>> {
    bp.get_local(id).ok_or_else(|| {
        Error::Replication(format!(
            "replay references page {id} before its creation record"
        ))
    })
}

/// Fail unless page `id` exists in this node's pool. A pointer-bearing
/// SMO (`SmoSetNext`, `SmoParentInsert`, `SmoInternalWrite`,
/// `SmoSetRoot`) references a page born by a strictly lower-LSN record,
/// which in-order replay has already applied; a miss means a corrupt
/// log. Checking first keeps a reader that descends the tree from
/// chasing a dangling pointer out of the pool into shared storage.
fn require_page(bp: &BufferPool, id: imci_common::PageId) -> Result<()> {
    local_page(bp, id).map(|_| ())
}

/// Apply one REDO entry to the node-local pages; returns the extracted
/// logical DML for user entries (None for SMO / decision / system undo).
///
/// Also maintains the node's secondary indexes, since the row images
/// pass through here anyway.
pub fn apply_entry(engine: &RowEngine, e: &RedoEntry) -> Result<Option<LogicalChange>> {
    let bp = engine.buffer_pool();
    // Track the page high-water mark: replicas never allocate ids, but
    // a promoted replica (RO→RW failover) must allocate above every id
    // it has ever replayed.
    if e.page_id != imci_common::PageId::ZERO {
        engine.page_allocator().ensure_above(e.page_id);
    }
    match &e.payload {
        RedoPayload::Commit { .. } | RedoPayload::Abort => Ok(None),

        // Writer-ownership marker (crash recovery / promotion): nothing
        // to apply — fencing is enforced by shared storage, not replay.
        RedoPayload::EpochBump { .. } => Ok(None),

        // Catalog record: apply to this node's catalog (version-gated,
        // so mixed replay paths stay idempotent). Column-store side
        // effects are the replication layer's job — this function only
        // owns the row replica.
        RedoPayload::Ddl { version, op } => {
            engine.apply_ddl(*version, op)?;
            Ok(None)
        }

        RedoPayload::Insert { pk, image } => {
            let arc = local_page(bp, e.page_id)?;
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None); // already applied (idempotent replay)
            }
            let pos = match page.leaf_slot(*pk)? {
                Ok(_) => {
                    return Err(Error::Replication(format!(
                        "replay insert: pk {pk} already on page {}",
                        e.page_id
                    )))
                }
                Err(p) => p,
            };
            page.leaf_entries_mut()?.insert(pos, (*pk, image.clone()));
            page.last_lsn = e.lsn;
            page.dirty = true;
            drop(page);
            let new = Row::decode(image)?;
            let rt = table_of(engine, e.table_id)?;
            rt.sec_add(*pk, &new.values);
            rt.count_insert();
            if e.tid == SYSTEM_TID {
                return Ok(None); // undo application, not a user DML
            }
            Ok(Some(LogicalChange {
                table_id: e.table_id,
                lsn: e.lsn,
                tid: e.tid,
                dml: LogicalDml::Insert { pk: *pk, new },
            }))
        }

        RedoPayload::Update { pk, diff } => {
            let arc = local_page(bp, e.page_id)?;
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            let idx = match page.leaf_slot(*pk)? {
                Ok(i) => i,
                Err(_) => {
                    return Err(Error::Replication(format!(
                        "replay update: pk {pk} missing on page {}",
                        e.page_id
                    )))
                }
            };
            // Challenge 3: recover the full old image from the page,
            // apply the differential to synthesize the new image.
            let old_image = page.leaf_entries()?[idx].1.clone();
            let new_image = diff.apply(&old_image)?;
            page.leaf_entries_mut()?[idx].1 = new_image.clone();
            page.last_lsn = e.lsn;
            page.dirty = true;
            drop(page);
            let old = Row::decode(&old_image)?;
            let new = Row::decode(&new_image)?;
            let rt = table_of(engine, e.table_id)?;
            rt.sec_update(*pk, &old.values, &new.values);
            if e.tid == SYSTEM_TID {
                return Ok(None);
            }
            Ok(Some(LogicalChange {
                table_id: e.table_id,
                lsn: e.lsn,
                tid: e.tid,
                dml: LogicalDml::Update { pk: *pk, old, new },
            }))
        }

        RedoPayload::Delete { pk } => {
            let arc = local_page(bp, e.page_id)?;
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            let idx = match page.leaf_slot(*pk)? {
                Ok(i) => i,
                Err(_) => {
                    return Err(Error::Replication(format!(
                        "replay delete: pk {pk} missing on page {}",
                        e.page_id
                    )))
                }
            };
            let (_, old_image) = page.leaf_entries_mut()?.remove(idx);
            page.last_lsn = e.lsn;
            page.dirty = true;
            drop(page);
            let old = Row::decode(&old_image)?;
            let rt = table_of(engine, e.table_id)?;
            rt.sec_remove(*pk, &old.values);
            rt.count_delete();
            if e.tid == SYSTEM_TID {
                return Ok(None);
            }
            Ok(Some(LogicalChange {
                table_id: e.table_id,
                lsn: e.lsn,
                tid: e.tid,
                dml: LogicalDml::Delete { pk: *pk, old },
            }))
        }

        // ---- SMO records: physical only ----
        RedoPayload::SmoLeafWrite { entries, next_leaf } => {
            let arc = match bp.get_local(e.page_id) {
                Some(a) => a,
                // Install fully formed: concurrent readers that follow a
                // pointer here (once the pointer records land) must never
                // observe an empty half-built sibling.
                None => {
                    bp.install(Page {
                        id: e.page_id,
                        last_lsn: e.lsn,
                        dirty: true,
                        kind: PageKind::Leaf {
                            entries: entries.clone(),
                            next: *next_leaf,
                        },
                    });
                    return Ok(None);
                }
            };
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            page.kind = PageKind::Leaf {
                entries: entries.clone(),
                next: *next_leaf,
            };
            page.last_lsn = e.lsn;
            page.dirty = true;
            Ok(None)
        }
        RedoPayload::SmoTruncate { from_pk } => {
            let arc = local_page(bp, e.page_id)?;
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            let entries = page.leaf_entries_mut()?;
            let cut = entries.partition_point(|(k, _)| k < from_pk);
            entries.truncate(cut);
            page.last_lsn = e.lsn;
            page.dirty = true;
            Ok(None)
        }
        RedoPayload::SmoSetNext { next_leaf } => {
            if let Some(next) = next_leaf {
                require_page(bp, *next)?;
            }
            let arc = local_page(bp, e.page_id)?;
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            match &mut page.kind {
                PageKind::Leaf { next, .. } => *next = *next_leaf,
                _ => return Err(Error::Replication("SmoSetNext on non-leaf".into())),
            }
            page.last_lsn = e.lsn;
            page.dirty = true;
            Ok(None)
        }
        RedoPayload::SmoParentInsert { key, child } => {
            require_page(bp, *child)?;
            let arc = local_page(bp, e.page_id)?;
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            match &mut page.kind {
                PageKind::Internal { keys, children } => {
                    let pos = keys.binary_search(key).unwrap_or_else(|p| p);
                    keys.insert(pos, *key);
                    children.insert(pos + 1, *child);
                }
                _ => return Err(Error::Replication("SmoParentInsert on non-internal".into())),
            }
            page.last_lsn = e.lsn;
            page.dirty = true;
            Ok(None)
        }
        RedoPayload::SmoInternalWrite { keys, children } => {
            // An internal rewrite can hand out pointers to a page born
            // by an earlier record (root split: the fresh right sibling).
            for c in children {
                require_page(bp, *c)?;
            }
            let arc = match bp.get_local(e.page_id) {
                Some(a) => a,
                None => {
                    bp.install(Page {
                        id: e.page_id,
                        last_lsn: e.lsn,
                        dirty: true,
                        kind: PageKind::Internal {
                            keys: keys.clone(),
                            children: children.clone(),
                        },
                    });
                    return Ok(None);
                }
            };
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            page.kind = PageKind::Internal {
                keys: keys.clone(),
                children: children.clone(),
            };
            page.last_lsn = e.lsn;
            page.dirty = true;
            Ok(None)
        }
        RedoPayload::SmoSetRoot { root } => {
            require_page(bp, *root)?;
            let arc = match bp.get_local(e.page_id) {
                Some(a) => a,
                None => bp.install(Page::new_meta(e.page_id, *root)),
            };
            let mut page = arc.write();
            if e.lsn <= page.last_lsn {
                return Ok(None);
            }
            page.kind = PageKind::Meta { root: *root };
            page.last_lsn = e.lsn;
            page.dirty = true;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, Value};
    use imci_wal::{LogWriter, PropagationMode};
    use polarfs_sim::PolarFs;

    fn schema_parts() -> (Vec<ColumnDef>, Vec<IndexDef>) {
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
                    kind: IndexKind::Secondary,
                    name: "v_idx".into(),
                    columns: vec![1],
                },
            ],
        )
    }

    /// End-to-end: RW executes a workload; a replica replays the log
    /// from LSN 0 and must converge to identical table contents.
    #[test]
    fn replica_converges_via_log_replay() {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        let (cols, idxs) = schema_parts();
        rw.create_table("t", cols, idxs).unwrap();

        let mut txn = rw.begin();
        for i in 0..3000i64 {
            rw.insert(
                &mut txn,
                "t",
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Str(format!("r{i}")),
                ],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();
        let mut txn = rw.begin();
        for i in (0..3000i64).step_by(3) {
            rw.update(
                &mut txn,
                "t",
                i,
                vec![Value::Int(i), Value::Int(99), Value::Str(format!("u{i}"))],
            )
            .unwrap();
        }
        for i in (1..3000i64).step_by(5) {
            if i % 3 != 0 {
                rw.delete(&mut txn, "t", i).unwrap();
            }
        }
        rw.commit(txn).unwrap();
        // An aborted transaction must leave no trace on the replica.
        let mut bad = rw.begin();
        rw.insert(
            &mut bad,
            "t",
            vec![Value::Int(100000), Value::Int(0), Value::Null],
        )
        .unwrap();
        rw.update(
            &mut bad,
            "t",
            0,
            vec![Value::Int(0), Value::Int(-1), Value::Null],
        )
        .unwrap();
        rw.abort(bad).unwrap();

        // Replay on a fresh replica.
        // No catalog refresh: the CREATE TABLE's DDL record is in the
        // log and registers the table during replay.
        let ro = RowEngine::new_replica(fs.clone(), 1 << 20);
        let mut user_dmls = 0;
        for e in crate::redo_entries(fs) {
            if apply_entry(&ro, &e).unwrap().is_some() {
                user_dmls += 1;
            }
        }
        // 3000 inserts + 1000 updates + deletes; aborted txn's 2 DMLs
        // WERE extracted (they carry a user TID) — the replication layer
        // is responsible for dropping them on Abort. Here we only check
        // page-level convergence.
        assert!(user_dmls >= 4000);

        assert_eq!(
            ro.row_count("t").unwrap(),
            rw.row_count("t").unwrap(),
            "replica row count must match RW"
        );
        let mut rw_rows = Vec::new();
        rw.scan("t", i64::MIN, i64::MAX, |pk, r| rw_rows.push((pk, r)))
            .unwrap();
        let mut ro_rows = Vec::new();
        ro.scan("t", i64::MIN, i64::MAX, |pk, r| ro_rows.push((pk, r)))
            .unwrap();
        assert_eq!(rw_rows, ro_rows, "replica content must match RW");

        // Secondary index on the replica matches too.
        let rt = ro.table("t").unwrap();
        let rw_rt = rw.table("t").unwrap();
        assert_eq!(
            rt.secondaries[0].lookup_eq(&Value::Int(99)).len(),
            rw_rt.secondaries[0].lookup_eq(&Value::Int(99)).len()
        );
    }

    #[test]
    fn update_extraction_recovers_old_and_new_images() {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        let (cols, idxs) = schema_parts();
        rw.create_table("t", cols, idxs).unwrap();
        let mut txn = rw.begin();
        rw.insert(
            &mut txn,
            "t",
            vec![Value::Int(7), Value::Int(1), Value::Str("before".into())],
        )
        .unwrap();
        rw.update(
            &mut txn,
            "t",
            7,
            vec![Value::Int(7), Value::Int(2), Value::Str("after".into())],
        )
        .unwrap();
        rw.commit(txn).unwrap();

        // No catalog refresh: the CREATE TABLE's DDL record is in the
        // log and registers the table during replay.
        let ro = RowEngine::new_replica(fs.clone(), 1 << 20);
        let changes: Vec<LogicalChange> = crate::redo_entries(fs)
            .iter()
            .filter_map(|e| apply_entry(&ro, e).unwrap())
            .collect();
        assert_eq!(changes.len(), 2);
        match &changes[1].dml {
            LogicalDml::Update { pk, old, new } => {
                assert_eq!(*pk, 7);
                assert_eq!(old.values[2], Value::Str("before".into()));
                assert_eq!(new.values[2], Value::Str("after".into()));
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn replay_is_idempotent() {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        let (cols, idxs) = schema_parts();
        rw.create_table("t", cols, idxs).unwrap();
        let mut txn = rw.begin();
        for i in 0..50 {
            rw.insert(
                &mut txn,
                "t",
                vec![Value::Int(i), Value::Int(0), Value::Null],
            )
            .unwrap();
        }
        rw.commit(txn).unwrap();

        // No catalog refresh: the CREATE TABLE's DDL record is in the
        // log and registers the table during replay.
        let ro = RowEngine::new_replica(fs.clone(), 1 << 20);
        let entries = crate::redo_entries(fs);
        for e in &entries {
            apply_entry(&ro, e).unwrap();
        }
        // Second replay of the same entries: all skipped by page-LSN.
        for e in &entries {
            assert_eq!(apply_entry(&ro, e).unwrap(), None);
        }
        assert_eq!(ro.row_count("t").unwrap(), 50);
    }

    /// A pointer record (here `SmoSetNext`) whose target page has no
    /// birth record before it is a corrupt log: the apply fails and
    /// leaves no dangling reference for readers. Once the image has
    /// been applied, the same record applies.
    #[test]
    fn pointer_records_require_their_page_born_first() {
        let fs = PolarFs::instant();
        let ro = RowEngine::new_replica(fs, 1 << 20);
        let smo = |lsn: u64, page: u64, payload: RedoPayload| RedoEntry {
            lsn: Lsn(lsn),
            prev_lsn: Lsn(0),
            tid: SYSTEM_TID,
            table_id: TableId(1),
            page_id: imci_common::PageId(page),
            slot_id: 0,
            payload,
        };
        let leaf = |lsn: u64, page: u64, pk: i64| {
            smo(
                lsn,
                page,
                RedoPayload::SmoLeafWrite {
                    entries: vec![(pk, vec![pk as u8])],
                    next_leaf: None,
                },
            )
        };
        let link = smo(
            3,
            5,
            RedoPayload::SmoSetNext {
                next_leaf: Some(imci_common::PageId(7)),
            },
        );
        apply_entry(&ro, &leaf(1, 5, 1)).unwrap();
        assert!(apply_entry(&ro, &link).is_err());
        let page = ro.buffer_pool().get_local(imci_common::PageId(5)).unwrap();
        assert!(matches!(
            page.read().kind,
            PageKind::Leaf { next: None, .. }
        ));

        apply_entry(&ro, &leaf(2, 7, 9)).unwrap();
        apply_entry(&ro, &link).unwrap();
        let page = ro.buffer_pool().get_local(imci_common::PageId(5)).unwrap();
        assert!(matches!(
            page.read().kind,
            PageKind::Leaf {
                next: Some(imci_common::PageId(7)),
                ..
            }
        ));
    }

    #[test]
    fn dml_against_missing_page_errors() {
        let fs = PolarFs::instant();
        let ro = RowEngine::new_replica(fs, 1 << 20);
        let e = RedoEntry {
            lsn: Lsn(5),
            prev_lsn: Lsn(0),
            tid: Tid(3),
            table_id: TableId(1),
            page_id: imci_common::PageId(999),
            slot_id: 0,
            payload: RedoPayload::Delete { pk: 1 },
        };
        assert!(apply_entry(&ro, &e).is_err());
    }
}
