//! The row storage engine: catalog + DML + recovery entry points.
//!
//! One [`RowEngine`] instance is the storage engine of one node. On the
//! RW node it carries a [`LogWriter`] and emits REDO for every change;
//! on RO nodes it runs unlogged and is mutated exclusively by Phase-1
//! replay ([`crate::apply`]), making it a physical replica of the RW
//! row store ("PolarDB-IMCI lets RO nodes maintain the buffer pool of
//! the row store like RW", paper §5.3).

use crate::alloc::PageAllocator;
use crate::btree::{BTree, RedoCtx};
use crate::bufferpool::BufferPool;
use crate::table::TableRt;
use crate::txn::{Txn, TxnManager, UndoOp};
use imci_common::codec::{put_bytes, put_u32, put_u64};
use imci_common::{
    ByteReader, DdlOp, Error, FxHashMap, PageId, Result, Row, Schema, TableId, Value, Vid,
    SYSTEM_TID,
};
use imci_wal::{BinlogEvent, BinlogKind, LogWriter, PropagationMode, RedoPayload};
use parking_lot::{Mutex, RwLock};
use polarfs_sim::PolarFs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A node's row storage engine.
pub struct RowEngine {
    fs: PolarFs,
    bp: Arc<BufferPool>,
    page_alloc: Arc<PageAllocator>,
    tables: RwLock<FxHashMap<String, Arc<TableRt>>>,
    tables_by_id: RwLock<FxHashMap<TableId, Arc<TableRt>>>,
    /// Behind a lock so recovery/promotion can flip a replica into
    /// writer mode in place ([`RowEngine::promote_to_writer`]).
    log: RwLock<Option<Arc<LogWriter>>>,
    /// Transaction manager (meaningful on the RW node).
    pub txns: TxnManager,
    next_table_id: AtomicU64,
    /// Monotonic catalog version. On the RW node it is bumped by each
    /// DDL (which ships a [`RedoPayload::Ddl`] record at that version);
    /// replicas track the maximum applied version for checkpoint
    /// snapshots.
    catalog_version: AtomicU64,
    /// Replica replay bookkeeping: last applied DDL version **per
    /// table**. The idempotency gate is per-table, not the global
    /// scalar, so a record is skipped only when its own table has
    /// already seen that version: applying a later-versioned record of
    /// table B never masks an earlier-versioned one of table A.
    ddl_versions: RwLock<FxHashMap<TableId, u64>>,
    /// Serializes DDL so that catalog-version order equals log order.
    ddl_lock: Mutex<()>,
}

impl RowEngine {
    /// Create the RW-node engine with REDO logging attached.
    pub fn new_rw(fs: PolarFs, log: Arc<LogWriter>, bp_capacity: usize) -> Arc<RowEngine> {
        Arc::new(RowEngine {
            bp: BufferPool::new(fs.clone(), bp_capacity),
            fs,
            page_alloc: Arc::new(PageAllocator::new(1)),
            tables: RwLock::new(FxHashMap::default()),
            tables_by_id: RwLock::new(FxHashMap::default()),
            txns: TxnManager::new(Some(log.clone())),
            log: RwLock::new(Some(log)),
            next_table_id: AtomicU64::new(1),
            catalog_version: AtomicU64::new(0),
            ddl_versions: RwLock::new(FxHashMap::default()),
            ddl_lock: Mutex::new(()),
        })
    }

    /// Create an RO-node replica engine (no logging; mutated by replay).
    pub fn new_replica(fs: PolarFs, bp_capacity: usize) -> Arc<RowEngine> {
        Arc::new(RowEngine {
            bp: BufferPool::new(fs.clone(), bp_capacity),
            fs,
            page_alloc: Arc::new(PageAllocator::new(1)),
            tables: RwLock::new(FxHashMap::default()),
            tables_by_id: RwLock::new(FxHashMap::default()),
            txns: TxnManager::new(None),
            log: RwLock::new(None),
            next_table_id: AtomicU64::new(1),
            catalog_version: AtomicU64::new(0),
            ddl_versions: RwLock::new(FxHashMap::default()),
            ddl_lock: Mutex::new(()),
        })
    }

    /// Shared storage handle.
    pub fn fs(&self) -> &PolarFs {
        &self.fs
    }

    /// This node's buffer pool.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.bp
    }

    /// The attached log writer (RW / promoted nodes only).
    pub fn log(&self) -> Option<Arc<LogWriter>> {
        self.log.read().clone()
    }

    /// This node's page-id allocator (high-water mark + free list).
    pub fn page_allocator(&self) -> &Arc<PageAllocator> {
        &self.page_alloc
    }

    /// Flip this (replica) engine into writer mode: attach the log
    /// writer and fast-forward the transaction counters past everything
    /// the log already contains. This is the storage-engine half of
    /// RO→RW promotion — the caller (cluster failover) is responsible
    /// for bumping the storage epoch first and rolling back in-flight
    /// transactions afterwards.
    pub fn promote_to_writer(&self, log: Arc<LogWriter>, next_tid: u64, commit_seq: u64) {
        self.txns.promote(log.clone(), next_tid, commit_seq);
        *self.log.write() = Some(log);
    }

    fn ctx_for(&self, tid: imci_common::Tid, table_id: TableId) -> RedoCtx {
        RedoCtx {
            log: self.log(),
            tid,
            table_id,
        }
    }

    // ---- catalog ----

    /// Emit a DDL log record (plus binlog event in Binlog mode) at the
    /// next catalog version, as its own committed transaction. Returns
    /// the pending transaction whose commit record the caller writes
    /// once its local catalog mutation is done — the commit advances the
    /// written LSN, so strong-consistency reads fence on DDL exactly
    /// like they fence on DML. Caller must hold `ddl_lock`.
    fn append_ddl(&self, op: &DdlOp) -> Result<Option<Txn>> {
        let log = match self.log() {
            Some(log) => log,
            None => return Ok(None),
        };
        let version = self.catalog_version.fetch_add(1, Ordering::SeqCst) + 1;
        let txn = self.begin();
        log.append(
            txn.tid,
            op.table_id(),
            PageId::ZERO,
            0,
            RedoPayload::Ddl {
                version,
                op: op.clone(),
            },
        )?;
        if log.mode() == PropagationMode::Binlog {
            log.binlog().log_event(&BinlogEvent {
                tid: txn.tid,
                table_id: op.table_id(),
                kind: BinlogKind::Ddl {
                    version,
                    op: op.clone(),
                },
            })?;
        }
        Ok(Some(txn))
    }

    /// Create a table (DDL). Emits creation SMO records, then a
    /// versioned [`RedoPayload::Ddl`] record carrying the full schema —
    /// the record is appended *before* the table becomes visible to
    /// local DML, so in the log every DML of the table follows its DDL —
    /// and finally a commit record that advances the written LSN.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<imci_common::ColumnDef>,
        indexes: Vec<imci_common::IndexDef>,
    ) -> Result<()> {
        let _ddl = self.ddl_lock.lock();
        let lname = name.to_ascii_lowercase();
        if self.tables.read().contains_key(&lname) {
            return Err(Error::Catalog(format!("table {lname} already exists")));
        }
        let table_id = TableId(self.next_table_id.fetch_add(1, Ordering::SeqCst));
        let schema = Schema::new(table_id, lname, columns, indexes)?;
        let ctx = self.ctx_for(SYSTEM_TID, table_id);
        let tree = BTree::create(self.bp.clone(), self.page_alloc.clone(), &ctx)?;
        let op = DdlOp::CreateTable {
            schema,
            meta_page: tree.meta_page(),
        };
        let pending = self.append_ddl(&op)?;
        self.install_ddl(&op)?;
        if let Some(txn) = pending {
            self.txns.commit(txn)?;
        }
        Ok(())
    }

    /// Drop a table (DDL). The table is claimed under its writer lock
    /// *before* the DDL record is appended, so in the log no DML of the
    /// table can follow its drop. Replicas destroy the row-table runtime
    /// and column index in LSN order with the data changes. The table's
    /// B+tree pages are recycled through the free list — every reuse
    /// path starts with a full-page SMO record, so replicas that replay
    /// a reused id simply overwrite the stale frame (see [`crate::alloc`]).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let _ddl = self.ddl_lock.lock();
        let rt = self.table(name)?;
        // Claim the table under its writer lock: a DML that already
        // resolved this runtime either finished its log appends before
        // this point, or will take the lock afterwards, observe the
        // flag, and fail — so no DML entry can follow the drop's DDL
        // record in the log.
        {
            let _g = rt.write_lock.lock();
            rt.dropped.store(true, std::sync::atomic::Ordering::Release);
        }
        // Collect the tree's pages while the runtime still exists; the
        // ids go back to the allocator only after the drop record is in
        // the log, so any reuse record strictly follows the drop.
        let pages = rt.tree.all_pages().unwrap_or_default();
        let op = DdlOp::DropTable {
            table_id: rt.schema.table_id,
            name: rt.schema.name.clone(),
        };
        let pending = self.append_ddl(&op)?;
        self.install_ddl(&op)?;
        if let Some(txn) = pending {
            self.txns.commit(txn)?;
        }
        // Evict the stale frames (a future install of a reused id must
        // not be shadowed) and recycle the ids.
        for id in &pages {
            self.bp.discard(*id);
        }
        self.page_alloc.release(pages);
        Ok(())
    }

    /// Replace a table's schema in place (online DDL such as
    /// `ALTER TABLE ... ADD COLUMN INDEX`, §3.3). Runtime state (tree,
    /// secondaries, counters) is preserved. The change ships through the
    /// REDO stream as a versioned DDL record, so replicas observe it in
    /// LSN order.
    pub fn replace_table_schema(&self, name: &str, schema: Schema) -> Result<()> {
        let _ddl = self.ddl_lock.lock();
        self.table(name)?;
        let op = DdlOp::ReplaceSchema { schema };
        let pending = self.append_ddl(&op)?;
        self.install_ddl(&op)?;
        if let Some(txn) = pending {
            self.txns.commit(txn)?;
        }
        Ok(())
    }

    /// Install a DDL's effect on this node's catalog maps: the one step
    /// shared by the RW DDL methods (after [`RowEngine::append_ddl`]),
    /// replica replay (after the version gate in
    /// [`RowEngine::apply_ddl`]) and checkpoint-catalog import. Caller
    /// must hold `ddl_lock`.
    fn install_ddl(&self, op: &DdlOp) -> Result<()> {
        let (schema, meta_page, old) = match op {
            DdlOp::CreateTable { schema, meta_page } => (schema, *meta_page, None),
            DdlOp::ReplaceSchema { schema } => {
                let old = self.table_by_id(schema.table_id)?;
                (schema, old.tree.meta_page(), Some(old))
            }
            DdlOp::DropTable { table_id, name } => {
                // Remove the name entry only while it still maps to the
                // dropped id: a reader-applied re-create of the same
                // name (higher version, new id) may already own it.
                let mut tables = self.tables.write();
                if tables
                    .get(name)
                    .is_some_and(|rt| rt.schema.table_id == *table_id)
                {
                    tables.remove(name);
                }
                drop(tables);
                self.tables_by_id.write().remove(table_id);
                return Ok(());
            }
        };
        let rt = Arc::new(TableRt::new(
            schema.clone(),
            BTree::open(self.bp.clone(), self.page_alloc.clone(), meta_page),
        ));
        if let Some(old) = old {
            // A schema change keeps the tree; carry the row counter
            // across and rebuild the secondaries the new schema declares.
            rt.row_counter.store(old.approx_rows(), Ordering::SeqCst);
            rt.rebuild_secondaries()?;
        }
        self.tables.write().insert(schema.name.clone(), rt.clone());
        self.tables_by_id.write().insert(schema.table_id, rt);
        self.next_table_id
            .fetch_max(schema.table_id.get().saturating_add(1), Ordering::SeqCst);
        Ok(())
    }

    /// Current catalog version (0 = empty catalog).
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version.load(Ordering::SeqCst)
    }

    /// Apply a DDL log record to this node's catalog (replica replay).
    /// Returns `false` — without touching anything — when `version` is
    /// not newer than the last version applied **for that table**,
    /// making replay idempotent (checkpoint catalogs embed their
    /// version). The gate is per-table: a later-versioned create of
    /// table B must not mask an earlier-versioned drop of table A.
    pub fn apply_ddl(&self, version: u64, op: &DdlOp) -> Result<bool> {
        let _ddl = self.ddl_lock.lock();
        let gate_id = op.table_id();
        if version <= self.ddl_versions.read().get(&gate_id).copied().unwrap_or(0) {
            return Ok(false);
        }
        self.install_ddl(op)?;
        self.ddl_versions.write().insert(gate_id, version);
        self.catalog_version.fetch_max(version, Ordering::SeqCst);
        Ok(true)
    }

    /// Serialize the catalog (version + schemas + meta pages) for a
    /// checkpoint. A node booting from the checkpoint imports this and
    /// then applies only the DDL records *after* the checkpoint's redo
    /// cursor — the catalog stays versioned with the log end to end.
    pub fn export_catalog(&self) -> Vec<u8> {
        let tables = self.tables.read();
        let mut out = Vec::with_capacity(64);
        put_u64(&mut out, self.catalog_version.load(Ordering::SeqCst));
        put_u64(&mut out, self.page_alloc.high_water());
        put_u32(&mut out, tables.len() as u32);
        for rt in tables.values() {
            put_u64(&mut out, rt.tree.meta_page().get());
            put_bytes(&mut out, &rt.schema.encode());
        }
        out
    }

    /// Load a catalog snapshot produced by [`RowEngine::export_catalog`]
    /// into an empty node. Every imported table's per-table DDL gate is
    /// set to the snapshot version: records at or below it are covered
    /// by the snapshot, records after the checkpoint's redo cursor
    /// carry higher versions and apply normally.
    pub fn import_catalog(&self, bytes: &[u8]) -> Result<()> {
        let _ddl = self.ddl_lock.lock();
        let mut r = ByteReader::new(bytes, "catalog snapshot");
        let version = r.u64()?;
        let page_alloc = r.u64()?;
        // Meta page + schema length.
        let tables = r.list_u32(12, |r| {
            Ok((PageId(r.u64()?), Schema::decode(r.bytes()?)?.0))
        })?;
        for (meta_page, schema) in tables {
            self.ddl_versions.write().insert(schema.table_id, version);
            self.install_ddl(&DdlOp::CreateTable { schema, meta_page })?;
        }
        self.catalog_version.fetch_max(version, Ordering::SeqCst);
        if page_alloc > 0 {
            self.page_alloc.ensure_above(PageId(page_alloc - 1));
        }
        Ok(())
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableRt>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("unknown table {name}")))
    }

    /// Look up a table by id.
    pub fn table_by_id(&self, id: TableId) -> Result<Arc<TableRt>> {
        self.tables_by_id
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("unknown table id {id}")))
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    // ---- DML ----

    /// Ship a logical binlog event in Binlog mode. A fenced (deposed)
    /// writer propagates [`Error::Failover`]: the local mutation is
    /// moot because the commit fsync would be fenced anyway.
    fn maybe_binlog(&self, ev: BinlogEvent) -> Result<()> {
        if let Some(log) = self.log.read().as_ref() {
            if log.mode() == PropagationMode::Binlog {
                log.binlog().log_event(&ev)?;
            }
        }
        Ok(())
    }

    /// Insert a row.
    pub fn insert(&self, txn: &mut Txn, table: &str, values: Vec<Value>) -> Result<()> {
        let rt = self.table(table)?;
        rt.schema.validate_row(&values)?;
        let pk = rt.schema.pk_of(&values)?;
        let row = Row::new(values);
        let image = row.encode();
        let ctx = self.ctx_for(txn.tid, rt.schema.table_id);
        {
            let _g = rt.write_lock.lock();
            rt.ensure_live()?;
            rt.tree.insert(pk, image, &ctx)?;
            rt.sec_add(pk, &row.values);
            rt.count_insert();
        }
        txn.undo.push(UndoOp::Insert {
            table: rt.schema.table_id,
            pk,
        });
        self.maybe_binlog(BinlogEvent {
            tid: txn.tid,
            table_id: rt.schema.table_id,
            kind: BinlogKind::Insert { row },
        })?;
        Ok(())
    }

    /// Replace the full row at `pk`. The primary key must not change.
    pub fn update(
        &self,
        txn: &mut Txn,
        table: &str,
        pk: i64,
        new_values: Vec<Value>,
    ) -> Result<()> {
        let rt = self.table(table)?;
        rt.schema.validate_row(&new_values)?;
        if rt.schema.pk_of(&new_values)? != pk {
            return Err(Error::Unsupported(
                "primary key updates are not supported; delete + insert instead".into(),
            ));
        }
        let new_row = Row::new(new_values);
        let ctx = self.ctx_for(txn.tid, rt.schema.table_id);
        let old_image;
        {
            let _g = rt.write_lock.lock();
            rt.ensure_live()?;
            old_image = rt.tree.update(pk, new_row.encode(), &ctx)?;
            let old_row = Row::decode(&old_image)?;
            rt.sec_update(pk, &old_row.values, &new_row.values);
            txn.undo.push(UndoOp::Update {
                table: rt.schema.table_id,
                pk,
                old: old_row,
            });
        }
        self.maybe_binlog(BinlogEvent {
            tid: txn.tid,
            table_id: rt.schema.table_id,
            kind: BinlogKind::Update { pk, row: new_row },
        })?;
        Ok(())
    }

    /// Delete the row at `pk`.
    pub fn delete(&self, txn: &mut Txn, table: &str, pk: i64) -> Result<()> {
        let rt = self.table(table)?;
        let ctx = self.ctx_for(txn.tid, rt.schema.table_id);
        {
            let _g = rt.write_lock.lock();
            rt.ensure_live()?;
            let old_image = rt.tree.delete(pk, &ctx)?;
            let old_row = Row::decode(&old_image)?;
            rt.sec_remove(pk, &old_row.values);
            rt.count_delete();
            txn.undo.push(UndoOp::Delete {
                table: rt.schema.table_id,
                pk,
                old: old_row,
            });
        }
        self.maybe_binlog(BinlogEvent {
            tid: txn.tid,
            table_id: rt.schema.table_id,
            kind: BinlogKind::Delete { pk },
        })?;
        Ok(())
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Txn {
        self.txns.begin()
    }

    /// Commit a transaction; returns its commit sequence number. Fails
    /// with a retryable [`Error::Failover`] when this node has been
    /// deposed (epoch-fenced) — the transaction is then not durable
    /// anywhere and must be retried against the new RW.
    pub fn commit(&self, txn: Txn) -> Result<Vid> {
        self.txns.commit(txn)
    }

    /// Apply one inverse operation with SYSTEM_TID page changes (so RO
    /// replicas roll back too). A table that no longer exists — or was
    /// claimed by `DROP TABLE` — is skipped: the drop destroyed the
    /// whole runtime, so there is nothing left to restore.
    fn apply_undo(&self, op: &UndoOp) -> Result<()> {
        let table = match op {
            UndoOp::Insert { table, .. }
            | UndoOp::Update { table, .. }
            | UndoOp::Delete { table, .. } => *table,
        };
        let rt = match self.table_by_id(table) {
            Ok(rt) => rt,
            Err(_) => return Ok(()),
        };
        let ctx = self.ctx_for(SYSTEM_TID, table);
        let _g = rt.write_lock.lock();
        if rt.ensure_live().is_err() {
            return Ok(());
        }
        match op {
            UndoOp::Insert { pk, .. } => {
                let old = rt.tree.delete(*pk, &ctx)?;
                let old_row = Row::decode(&old)?;
                rt.sec_remove(*pk, &old_row.values);
                rt.count_delete();
            }
            UndoOp::Update { pk, old, .. } => {
                let cur = rt.tree.update(*pk, old.encode(), &ctx)?;
                let cur_row = Row::decode(&cur)?;
                rt.sec_update(*pk, &cur_row.values, &old.values);
            }
            UndoOp::Delete { pk, old, .. } => {
                rt.tree.insert(*pk, old.encode(), &ctx)?;
                rt.sec_add(*pk, &old.values);
                rt.count_insert();
            }
        }
        Ok(())
    }

    /// Abort: physically roll back with SYSTEM_TID page changes (so RO
    /// replicas roll back too), then log the abort record.
    pub fn abort(&self, txn: Txn) -> Result<()> {
        for op in txn.undo.iter().rev() {
            self.apply_undo(op)?;
        }
        self.txns.log_abort(txn.tid);
        Ok(())
    }

    /// Roll back transactions that were still in flight when the writer
    /// role moved (RW crash recovery, RO→RW promotion). `ops` is every
    /// undecided DML in original log order, possibly from several
    /// interleaved transactions; they are undone in exact reverse, each
    /// as a logged SYSTEM_TID compensation, and then one abort record
    /// is written per transaction — byte-for-byte what a live abort
    /// produces, so replicas tailing the log converge with no special
    /// handling. Returns the number of transactions rolled back.
    pub fn rollback_inflight(&self, ops: &[(imci_common::Tid, UndoOp)]) -> Result<usize> {
        for (_, op) in ops.iter().rev() {
            self.apply_undo(op)?;
        }
        let mut tids: Vec<imci_common::Tid> = Vec::new();
        for (tid, _) in ops {
            if !tids.contains(tid) {
                tids.push(*tid);
            }
        }
        for tid in &tids {
            self.txns.log_abort(*tid);
        }
        Ok(tids.len())
    }

    // ---- reads ----

    /// Point lookup by primary key.
    pub fn get_row(&self, table: &str, pk: i64) -> Result<Option<Row>> {
        let rt = self.table(table)?;
        match rt.tree.get(pk)? {
            Some(img) => Ok(Some(Row::decode(&img)?)),
            None => Ok(None),
        }
    }

    /// Scan rows with `lo <= pk <= hi`.
    pub fn scan(
        &self,
        table: &str,
        lo: i64,
        hi: i64,
        mut f: impl FnMut(i64, Row),
    ) -> Result<usize> {
        let rt = self.table(table)?;
        rt.tree.scan_range(lo, hi, |pk, img| {
            if let Ok(row) = Row::decode(img) {
                f(pk, row);
            }
        })
    }

    /// Total rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        self.table(table)?.tree.count()
    }

    /// Flush all dirty pages (RW checkpoint / pre-snapshot step).
    pub fn flush_all(&self) {
        self.bp.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind};
    use imci_wal::PropagationMode;

    fn demo_columns() -> (Vec<ColumnDef>, Vec<IndexDef>) {
        (
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("grp", DataType::Int),
                ColumnDef::new("note", DataType::Str),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Secondary,
                    name: "grp_idx".into(),
                    columns: vec![1],
                },
            ],
        )
    }

    fn rw_engine() -> (Arc<RowEngine>, PolarFs) {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        (RowEngine::new_rw(fs.clone(), log, 4096), fs)
    }

    #[test]
    fn create_insert_get() {
        let (e, _) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols, idxs).unwrap();
        let mut txn = e.begin();
        e.insert(
            &mut txn,
            "t",
            vec![Value::Int(1), Value::Int(10), Value::Str("a".into())],
        )
        .unwrap();
        e.commit(txn).unwrap();
        let row = e.get_row("t", 1).unwrap().unwrap();
        assert_eq!(row.values[2], Value::Str("a".into()));
        assert_eq!(e.row_count("t").unwrap(), 1);
    }

    #[test]
    fn update_delete_and_secondary_maintenance() {
        let (e, _) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols, idxs).unwrap();
        let mut txn = e.begin();
        for i in 0..10 {
            e.insert(
                &mut txn,
                "t",
                vec![Value::Int(i), Value::Int(i % 3), Value::Str("x".into())],
            )
            .unwrap();
        }
        e.commit(txn).unwrap();
        let rt = e.table("t").unwrap();
        assert_eq!(rt.secondaries[0].lookup_eq(&Value::Int(0)).len(), 4);

        let mut txn = e.begin();
        e.update(
            &mut txn,
            "t",
            0,
            vec![Value::Int(0), Value::Int(2), Value::Str("y".into())],
        )
        .unwrap();
        e.delete(&mut txn, "t", 3).unwrap();
        e.commit(txn).unwrap();
        assert_eq!(rt.secondaries[0].lookup_eq(&Value::Int(0)).len(), 2);
        assert_eq!(rt.secondaries[0].lookup_eq(&Value::Int(2)).len(), 4);
        assert_eq!(e.row_count("t").unwrap(), 9);
    }

    #[test]
    fn abort_rolls_back_everything() {
        let (e, _) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols, idxs).unwrap();
        let mut setup = e.begin();
        e.insert(
            &mut setup,
            "t",
            vec![Value::Int(1), Value::Int(7), Value::Str("keep".into())],
        )
        .unwrap();
        e.commit(setup).unwrap();

        let mut txn = e.begin();
        e.insert(
            &mut txn,
            "t",
            vec![Value::Int(2), Value::Int(8), Value::Str("new".into())],
        )
        .unwrap();
        e.update(
            &mut txn,
            "t",
            1,
            vec![Value::Int(1), Value::Int(9), Value::Str("mut".into())],
        )
        .unwrap();
        e.delete(&mut txn, "t", 2).unwrap(); // delete the row we inserted
        e.abort(txn).unwrap();

        assert_eq!(e.row_count("t").unwrap(), 1);
        let row = e.get_row("t", 1).unwrap().unwrap();
        assert_eq!(row.values[1], Value::Int(7));
        assert_eq!(row.values[2], Value::Str("keep".into()));
        let rt = e.table("t").unwrap();
        assert_eq!(rt.secondaries[0].lookup_eq(&Value::Int(7)), vec![1]);
        assert!(rt.secondaries[0].lookup_eq(&Value::Int(9)).is_empty());
    }

    #[test]
    fn pk_update_rejected() {
        let (e, _) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols, idxs).unwrap();
        let mut txn = e.begin();
        e.insert(&mut txn, "t", vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        let r = e.update(
            &mut txn,
            "t",
            1,
            vec![Value::Int(2), Value::Null, Value::Null],
        );
        assert!(r.is_err());
        e.commit(txn).unwrap();
    }

    #[test]
    fn catalog_roundtrips_to_replica() {
        let (e, fs) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols, idxs).unwrap();
        let mut txn = e.begin();
        for i in 0..100 {
            e.insert(
                &mut txn,
                "t",
                vec![Value::Int(i), Value::Int(i), Value::Str("v".into())],
            )
            .unwrap();
        }
        e.commit(txn).unwrap();
        e.flush_all();

        let replica = RowEngine::new_replica(fs, 4096);
        replica.import_catalog(&e.export_catalog()).unwrap();
        let rt = replica.table("t").unwrap();
        assert_eq!(rt.schema.columns.len(), 3);
        assert_eq!(replica.row_count("t").unwrap(), 100);
        rt.rebuild_secondaries().unwrap();
        assert_eq!(rt.secondaries[0].lookup_eq(&Value::Int(5)), vec![5]);
    }

    #[test]
    fn ddl_version_gate_is_per_table() {
        // A later-versioned create applied *before* an earlier-versioned
        // drop of a different table must not mask the drop.
        let fs = PolarFs::instant();
        let ro = RowEngine::new_replica(fs, 4096);
        let (cols, idxs) = demo_columns();
        let s1 = Schema::new(TableId(1), "t1", cols.clone(), idxs.clone()).unwrap();
        let s2 = Schema::new(TableId(2), "t2", cols, idxs).unwrap();
        assert!(ro
            .apply_ddl(
                1,
                &DdlOp::CreateTable {
                    schema: s1,
                    meta_page: PageId(1)
                }
            )
            .unwrap());
        // Reader races ahead: create of t2 at version 3 applies first.
        assert!(ro
            .apply_ddl(
                3,
                &DdlOp::CreateTable {
                    schema: s2,
                    meta_page: PageId(2)
                }
            )
            .unwrap());
        // The deferred drop of t1 at version 2 must still apply.
        assert!(ro
            .apply_ddl(
                2,
                &DdlOp::DropTable {
                    table_id: TableId(1),
                    name: "t1".into()
                }
            )
            .unwrap());
        assert!(ro.table("t1").is_err(), "drop must not be version-masked");
        assert!(ro.table("t2").is_ok());
        // Same-name re-create racing a deferred drop: the drop of the
        // *old* id must not evict the new table's name mapping.
        let (cols, idxs) = demo_columns();
        let s3 = Schema::new(TableId(3), "t2", cols, idxs).unwrap();
        assert!(ro
            .apply_ddl(
                5,
                &DdlOp::CreateTable {
                    schema: s3,
                    meta_page: PageId(3)
                }
            )
            .unwrap());
        assert!(ro
            .apply_ddl(
                4,
                &DdlOp::DropTable {
                    table_id: TableId(2),
                    name: "t2".into()
                }
            )
            .unwrap());
        assert_eq!(
            ro.table("t2").unwrap().schema.table_id,
            TableId(3),
            "deferred drop of the old id must not evict the re-created name"
        );
        assert!(ro.table_by_id(TableId(2)).is_err());
        // Idempotency still holds per table: replaying any of them is
        // a no-op.
        assert!(!ro
            .apply_ddl(
                2,
                &DdlOp::DropTable {
                    table_id: TableId(1),
                    name: "t1".into()
                }
            )
            .unwrap());
        assert_eq!(ro.catalog_version(), 5, "max applied version overall");
    }

    #[test]
    fn concurrent_drop_and_dml_keep_log_replayable() {
        // A DML that resolved the table runtime just before DROP TABLE
        // must not append entries after the drop's DDL record — the
        // replica treats DML-after-drop as a hard replay error. Hammer
        // inserts from another thread while dropping, then replay the
        // whole log and require zero errors.
        let (e, fs) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols, idxs).unwrap();
        let writer = {
            let e = e.clone();
            std::thread::spawn(move || {
                let mut i = 0i64;
                loop {
                    let mut txn = e.begin();
                    let r = e.insert(
                        &mut txn,
                        "t",
                        vec![Value::Int(i), Value::Int(0), Value::Null],
                    );
                    match r {
                        Ok(()) => e.commit(txn).unwrap(),
                        Err(_) => {
                            // Table dropped mid-flight: abort may also
                            // fail (runtime gone) — either way no log
                            // entries for the dead table were appended.
                            let _ = e.abort(txn);
                            break;
                        }
                    };
                    i += 1;
                }
                i
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        e.drop_table("t").unwrap();
        let inserted = writer.join().unwrap();
        assert!(inserted > 0, "writer must have made progress");

        let ro = RowEngine::new_replica(fs.clone(), 1 << 20);
        for entry in crate::redo_entries(fs) {
            crate::apply::apply_entry(&ro, &entry)
                .unwrap_or_else(|err| panic!("log must stay replayable: {err}"));
        }
        assert!(ro.table("t").is_err(), "replica observed the drop");
    }

    #[test]
    fn drop_table_recycles_pages() {
        let (e, _) = rw_engine();
        let mut high_water = 0;
        for round in 0..8 {
            let (cols, idxs) = demo_columns();
            e.create_table("churn", cols, idxs).unwrap();
            let mut txn = e.begin();
            for i in 0..500 {
                e.insert(
                    &mut txn,
                    "churn",
                    vec![Value::Int(i), Value::Int(i % 3), Value::Str("x".repeat(40))],
                )
                .unwrap();
            }
            e.commit(txn).unwrap();
            e.drop_table("churn").unwrap();
            let hw = e.page_allocator().high_water();
            if round == 0 {
                high_water = hw;
            } else {
                assert_eq!(
                    hw, high_water,
                    "round {round}: dropped tables' pages must be recycled, \
                     not leaked (ROADMAP DDL-churn follow-up)"
                );
            }
            assert!(e.page_allocator().free_count() > 0, "free list populated");
        }
    }

    #[test]
    fn duplicate_table_rejected() {
        let (e, _) = rw_engine();
        let (cols, idxs) = demo_columns();
        e.create_table("t", cols.clone(), idxs.clone()).unwrap();
        assert!(e.create_table("t", cols, idxs).is_err());
    }
}
