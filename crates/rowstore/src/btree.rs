//! B+tree-organized table storage with physiological REDO emission.
//!
//! Every mutation of a page emits exactly one REDO record *for that
//! page*, while holding the page's write latch, so the per-page LSN
//! order in the log equals the mutation order. Replay relies on it: a
//! record applies only when its LSN is above the page's `last_lsn`, so
//! re-applying any prefix of the log is idempotent (paper §5.2).
//!
//! User DML records carry the user TID; split/SMO records carry
//! [`SYSTEM_TID`] so replay applies them physically but never interprets
//! them as user changes (paper §5.3, challenge 2).

use crate::alloc::PageAllocator;
use crate::bufferpool::BufferPool;
use crate::page::{Page, PageKind, INTERNAL_KEY_CAPACITY, PAGE_BYTE_CAPACITY};
use imci_common::{Error, PageId, Result, RowDiff, TableId, Tid, SYSTEM_TID};
use imci_wal::{LogWriter, RedoPayload};
use std::sync::Arc;

/// Context threaded through mutations: where to emit REDO and on whose
/// behalf. `log == None` means "apply without logging" (unit tests and
/// locally-rebuilt replicas).
#[derive(Clone)]
pub struct RedoCtx {
    /// Log writer (RW node) or None.
    pub log: Option<Arc<LogWriter>>,
    /// User transaction id for DML records.
    pub tid: Tid,
    /// Table being modified.
    pub table_id: TableId,
}

impl RedoCtx {
    /// No-logging context (tests, local rebuilds).
    pub fn unlogged(table_id: TableId) -> RedoCtx {
        RedoCtx {
            log: None,
            tid: Tid(1),
            table_id,
        }
    }

    fn emit(&self, page: &mut Page, slot: u32, tid: Tid, payload: RedoPayload) -> Result<()> {
        if let Some(log) = &self.log {
            // A fenced append (this writer lost the RW role) errors out
            // before the page's LSN moves; the local mutation stays, but
            // the deposed node is permanently out of the cluster anyway.
            let lsn = log.append(tid, self.table_id, page.id, slot, payload)?;
            page.last_lsn = lsn;
        }
        page.dirty = true;
        Ok(())
    }

    /// Emit a user-DML record against `page`.
    pub fn emit_dml(&self, page: &mut Page, slot: u32, payload: RedoPayload) -> Result<()> {
        self.emit(page, slot, self.tid, payload)
    }

    /// Emit a structure-modification record against `page`.
    pub fn emit_smo(&self, page: &mut Page, payload: RedoPayload) -> Result<()> {
        self.emit(page, 0, SYSTEM_TID, payload)
    }
}

/// A B+tree over `(i64 pk, row image)` pairs, rooted at a meta page.
pub struct BTree {
    meta_page: PageId,
    bp: Arc<BufferPool>,
    page_alloc: Arc<PageAllocator>,
}

impl BTree {
    /// Create a brand-new tree: a meta page and one empty root leaf.
    /// Emits SMO records so RO replicas can replay the creation, and
    /// flushes both pages so replicas can also cold-load them.
    pub fn create(
        bp: Arc<BufferPool>,
        page_alloc: Arc<PageAllocator>,
        ctx: &RedoCtx,
    ) -> Result<BTree> {
        let meta_id = page_alloc.alloc();
        let root_id = page_alloc.alloc();
        let root_arc = bp.install(Page::new_leaf(root_id));
        {
            let mut root = root_arc.write();
            ctx.emit_smo(
                &mut root,
                RedoPayload::SmoLeafWrite {
                    entries: Vec::new(),
                    next_leaf: None,
                },
            )?;
        }
        let meta_arc = bp.install(Page::new_meta(meta_id, root_id));
        {
            let mut meta = meta_arc.write();
            ctx.emit_smo(&mut meta, RedoPayload::SmoSetRoot { root: root_id })?;
        }
        let tree = BTree {
            meta_page: meta_id,
            bp,
            page_alloc,
        };
        tree.flush_page(meta_id)?;
        tree.flush_page(root_id)?;
        Ok(tree)
    }

    /// Open an existing tree by its meta page.
    pub fn open(bp: Arc<BufferPool>, page_alloc: Arc<PageAllocator>, meta_page: PageId) -> BTree {
        BTree {
            meta_page,
            bp,
            page_alloc,
        }
    }

    /// The meta page id (stored in the catalog).
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Every page id this tree owns: meta, internals, leaves. Used by
    /// `DROP TABLE` to recycle the tree's pages through the free list.
    pub fn all_pages(&self) -> Result<Vec<PageId>> {
        let mut out = vec![self.meta_page];
        let mut stack = vec![self.root()?];
        while let Some(id) = stack.pop() {
            out.push(id);
            let arc = self.bp.get(id)?;
            let p = arc.read();
            if let PageKind::Internal { children, .. } = &p.kind {
                stack.extend(children.iter().copied());
            }
        }
        Ok(out)
    }

    fn flush_page(&self, id: PageId) -> Result<()> {
        let arc = self.bp.get(id)?;
        let mut p = arc.write();
        self.bp.fs().write_page(
            crate::bufferpool::PAGE_SPACE,
            id,
            bytes::Bytes::from(p.encode()),
        );
        p.dirty = false;
        Ok(())
    }

    fn root(&self) -> Result<PageId> {
        let meta = self.bp.get(self.meta_page)?;
        let m = meta.read();
        match &m.kind {
            PageKind::Meta { root } => Ok(*root),
            _ => Err(Error::Storage("meta page corrupted".into())),
        }
    }

    /// Path of page ids from root (inclusive) to the leaf for `pk`.
    fn descend(&self, pk: i64) -> Result<Vec<PageId>> {
        let mut path = Vec::with_capacity(4);
        let mut cur = self.root()?;
        loop {
            path.push(cur);
            let arc = self.bp.get(cur)?;
            let p = arc.read();
            match &p.kind {
                PageKind::Leaf { .. } => return Ok(path),
                PageKind::Internal { .. } => {
                    let child = p.child_for(pk)?;
                    drop(p);
                    cur = child;
                }
                PageKind::Meta { .. } => {
                    return Err(Error::Storage("meta page inside tree".into()))
                }
            }
            if path.len() > 64 {
                return Err(Error::Storage("btree descent too deep".into()));
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, pk: i64) -> Result<Option<Vec<u8>>> {
        let path = self.descend(pk)?;
        let leaf = self.bp.get(*path.last().unwrap())?;
        let p = leaf.read();
        Ok(match p.leaf_slot(pk)? {
            Ok(idx) => Some(p.leaf_entries()?[idx].1.clone()),
            Err(_) => None,
        })
    }

    /// Insert; errors on duplicate key.
    pub fn insert(&self, pk: i64, image: Vec<u8>, ctx: &RedoCtx) -> Result<()> {
        let path = self.descend(pk)?;
        let leaf_id = *path.last().unwrap();
        let leaf_arc = self.bp.get(leaf_id)?;
        let (needs_split, at_last_slot);
        {
            let mut leaf = leaf_arc.write();
            let slot = match leaf.leaf_slot(pk)? {
                Ok(_) => return Err(Error::Constraint(format!("duplicate primary key {pk}"))),
                Err(pos) => pos,
            };
            leaf.leaf_entries_mut()?.insert(slot, (pk, image.clone()));
            ctx.emit_dml(&mut leaf, slot as u32, RedoPayload::Insert { pk, image })?;
            let len = leaf.leaf_entries()?.len();
            needs_split = leaf.byte_size() > PAGE_BYTE_CAPACITY && len >= 4;
            at_last_slot = slot + 1 == len;
        }
        if needs_split {
            self.split_leaf(&path, at_last_slot, ctx)?;
        }
        Ok(())
    }

    /// Update the row at `pk` with a new image; returns the old image.
    pub fn update(&self, pk: i64, new_image: Vec<u8>, ctx: &RedoCtx) -> Result<Vec<u8>> {
        let path = self.descend(pk)?;
        let leaf_id = *path.last().unwrap();
        let leaf_arc = self.bp.get(leaf_id)?;
        let (old, needs_split);
        {
            let mut leaf = leaf_arc.write();
            let idx = match leaf.leaf_slot(pk)? {
                Ok(i) => i,
                Err(_) => return Err(Error::Storage(format!("update: pk {pk} not found"))),
            };
            let entries = leaf.leaf_entries_mut()?;
            old = std::mem::replace(&mut entries[idx].1, new_image.clone());
            let diff = RowDiff::between(&old, &new_image);
            ctx.emit_dml(&mut leaf, idx as u32, RedoPayload::Update { pk, diff })?;
            needs_split = leaf.byte_size() > PAGE_BYTE_CAPACITY && leaf.leaf_entries()?.len() >= 4;
        }
        if needs_split {
            self.split_leaf(&path, false, ctx)?;
        }
        Ok(old)
    }

    /// Delete the row at `pk`; returns the old image.
    pub fn delete(&self, pk: i64, ctx: &RedoCtx) -> Result<Vec<u8>> {
        let path = self.descend(pk)?;
        let leaf_arc = self.bp.get(*path.last().unwrap())?;
        let mut leaf = leaf_arc.write();
        let idx = match leaf.leaf_slot(pk)? {
            Ok(i) => i,
            Err(_) => return Err(Error::Storage(format!("delete: pk {pk} not found"))),
        };
        let (_, old) = leaf.leaf_entries_mut()?.remove(idx);
        ctx.emit_dml(&mut leaf, idx as u32, RedoPayload::Delete { pk })?;
        Ok(old)
    }

    /// Split the leaf at the end of `path` and post the new sibling to
    /// its parent. A split forced by an insert at the leaf's last slot
    /// (`at_last_slot`; ascending keys) splits there, as InnoDB does:
    /// the left page stays full and the new right sibling gets only the
    /// new entry, so a sequential load fills its leaves and logs one row
    /// per split instead of half a page. Every other split is at the
    /// midpoint.
    fn split_leaf(&self, path: &[PageId], at_last_slot: bool, ctx: &RedoCtx) -> Result<()> {
        let leaf_id = *path.last().unwrap();
        let right_id = self.page_alloc.alloc();
        let split_key;
        {
            // Build the right sibling first so concurrent readers that
            // follow the (not-yet-updated) next pointer never miss rows.
            let leaf_arc = self.bp.get(leaf_id)?;
            let mut leaf = leaf_arc.write();
            let old_next = match &leaf.kind {
                PageKind::Leaf { next, .. } => *next,
                _ => return Err(Error::Storage("split target not a leaf".into())),
            };
            let entries = leaf.leaf_entries_mut()?;
            let mid = if at_last_slot {
                entries.len() - 1
            } else {
                entries.len() / 2
            };
            split_key = entries[mid].0;
            let moved: Vec<(i64, Vec<u8>)> = entries.split_off(mid);

            let right_arc = self.bp.install(Page::new_leaf(right_id));
            {
                let mut right = right_arc.write();
                *right.leaf_entries_mut()? = moved.clone();
                if let PageKind::Leaf { next, .. } = &mut right.kind {
                    *next = old_next;
                }
                ctx.emit_smo(
                    &mut right,
                    RedoPayload::SmoLeafWrite {
                        entries: moved,
                        next_leaf: old_next,
                    },
                )?;
            }
            ctx.emit_smo(&mut leaf, RedoPayload::SmoTruncate { from_pk: split_key })?;
            if let PageKind::Leaf { next, .. } = &mut leaf.kind {
                *next = Some(right_id);
            }
            ctx.emit_smo(
                &mut leaf,
                RedoPayload::SmoSetNext {
                    next_leaf: Some(right_id),
                },
            )?;
        }
        self.insert_into_parent(&path[..path.len() - 1], leaf_id, split_key, right_id, ctx)
    }

    fn insert_into_parent(
        &self,
        ancestors: &[PageId],
        left: PageId,
        key: i64,
        right: PageId,
        ctx: &RedoCtx,
    ) -> Result<()> {
        if ancestors.is_empty() {
            // Root split: new internal root over (left, right).
            let new_root_id = self.page_alloc.alloc();
            let root_arc = self.bp.install(Page {
                id: new_root_id,
                last_lsn: imci_common::Lsn::ZERO,
                dirty: true,
                kind: PageKind::Internal {
                    keys: vec![key],
                    children: vec![left, right],
                },
            });
            {
                let mut r = root_arc.write();
                ctx.emit_smo(
                    &mut r,
                    RedoPayload::SmoInternalWrite {
                        keys: vec![key],
                        children: vec![left, right],
                    },
                )?;
            }
            let meta_arc = self.bp.get(self.meta_page)?;
            let mut meta = meta_arc.write();
            meta.kind = PageKind::Meta { root: new_root_id };
            ctx.emit_smo(&mut meta, RedoPayload::SmoSetRoot { root: new_root_id })?;
            return Ok(());
        }
        let parent_id = *ancestors.last().unwrap();
        let parent_arc = self.bp.get(parent_id)?;
        let needs_split;
        {
            let mut parent = parent_arc.write();
            match &mut parent.kind {
                PageKind::Internal { keys, children } => {
                    let pos = keys.binary_search(&key).unwrap_or_else(|p| p);
                    keys.insert(pos, key);
                    children.insert(pos + 1, right);
                    needs_split = keys.len() > INTERNAL_KEY_CAPACITY;
                }
                _ => return Err(Error::Storage("parent is not internal".into())),
            }
            ctx.emit_smo(
                &mut parent,
                RedoPayload::SmoParentInsert { key, child: right },
            )?;
        }
        if needs_split {
            self.split_internal(ancestors, ctx)?;
        }
        Ok(())
    }

    fn split_internal(&self, ancestors: &[PageId], ctx: &RedoCtx) -> Result<()> {
        let page_id = *ancestors.last().unwrap();
        let right_id = self.page_alloc.alloc();
        let up_key;
        {
            let arc = self.bp.get(page_id)?;
            let mut p = arc.write();
            let (lk, lc, rk, rc);
            match &mut p.kind {
                PageKind::Internal { keys, children } => {
                    let mid = keys.len() / 2;
                    up_key = keys[mid];
                    rk = keys.split_off(mid + 1);
                    keys.pop(); // up_key moves up, not right
                    rc = children.split_off(mid + 1);
                    lk = keys.clone();
                    lc = children.clone();
                }
                _ => return Err(Error::Storage("split target not internal".into())),
            }
            let right_arc = self.bp.install(Page {
                id: right_id,
                last_lsn: imci_common::Lsn::ZERO,
                dirty: true,
                kind: PageKind::Internal {
                    keys: rk.clone(),
                    children: rc.clone(),
                },
            });
            {
                let mut right = right_arc.write();
                ctx.emit_smo(
                    &mut right,
                    RedoPayload::SmoInternalWrite {
                        keys: rk,
                        children: rc,
                    },
                )?;
            }
            ctx.emit_smo(
                &mut p,
                RedoPayload::SmoInternalWrite {
                    keys: lk,
                    children: lc,
                },
            )?;
        }
        self.insert_into_parent(
            &ancestors[..ancestors.len() - 1],
            page_id,
            up_key,
            right_id,
            ctx,
        )
    }

    /// Leftmost leaf (start of the leaf chain).
    pub fn first_leaf(&self) -> Result<PageId> {
        let mut cur = self.root()?;
        loop {
            let arc = self.bp.get(cur)?;
            let p = arc.read();
            match &p.kind {
                PageKind::Leaf { .. } => return Ok(cur),
                PageKind::Internal { children, .. } => {
                    let c = children[0];
                    drop(p);
                    cur = c;
                }
                PageKind::Meta { .. } => return Err(Error::Storage("meta inside tree".into())),
            }
        }
    }

    /// Scan rows with `lo <= pk <= hi` into a callback; returns count.
    pub fn scan_range<F: FnMut(i64, &[u8])>(&self, lo: i64, hi: i64, mut f: F) -> Result<usize> {
        let mut count = 0;
        let path = self.descend(lo)?;
        let mut cur = Some(*path.last().unwrap());
        while let Some(id) = cur {
            let arc = self.bp.get(id)?;
            let p = arc.read();
            let entries = p.leaf_entries()?;
            for (pk, img) in entries {
                if *pk > hi {
                    return Ok(count);
                }
                if *pk >= lo {
                    f(*pk, img);
                    count += 1;
                }
            }
            cur = match &p.kind {
                PageKind::Leaf { next, .. } => *next,
                _ => None,
            };
        }
        Ok(count)
    }

    /// Full scan in key order.
    pub fn scan_all<F: FnMut(i64, &[u8])>(&self, f: F) -> Result<usize> {
        self.scan_range(i64::MIN, i64::MAX, f)
    }

    /// Number of rows (full scan; for tests and stats).
    pub fn count(&self) -> Result<usize> {
        self.scan_all(|_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarfs_sim::PolarFs;

    fn fresh_tree() -> (BTree, RedoCtx) {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs, 1024);
        let alloc = Arc::new(PageAllocator::new(1));
        let ctx = RedoCtx::unlogged(TableId(1));
        let t = BTree::create(bp, alloc, &ctx).unwrap();
        (t, ctx)
    }

    #[test]
    fn insert_get_roundtrip() {
        let (t, ctx) = fresh_tree();
        for pk in [5i64, 1, 9, 3, 7] {
            t.insert(pk, vec![pk as u8], &ctx).unwrap();
        }
        for pk in [1i64, 3, 5, 7, 9] {
            assert_eq!(t.get(pk).unwrap(), Some(vec![pk as u8]));
        }
        assert_eq!(t.get(2).unwrap(), None);
        assert_eq!(t.count().unwrap(), 5);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (t, ctx) = fresh_tree();
        t.insert(1, vec![1], &ctx).unwrap();
        assert!(t.insert(1, vec![2], &ctx).is_err());
    }

    #[test]
    fn update_and_delete() {
        let (t, ctx) = fresh_tree();
        t.insert(1, vec![1], &ctx).unwrap();
        let old = t.update(1, vec![9, 9], &ctx).unwrap();
        assert_eq!(old, vec![1]);
        assert_eq!(t.get(1).unwrap(), Some(vec![9, 9]));
        let old = t.delete(1, &ctx).unwrap();
        assert_eq!(old, vec![9, 9]);
        assert_eq!(t.get(1).unwrap(), None);
        assert!(t.delete(1, &ctx).is_err());
        assert!(t.update(1, vec![0], &ctx).is_err());
    }

    #[test]
    fn many_inserts_force_splits_and_stay_sorted() {
        let (t, ctx) = fresh_tree();
        let n = 5000i64;
        // Big images so leaves split quickly.
        for pk in (0..n).rev() {
            t.insert(pk, vec![(pk % 251) as u8; 64], &ctx).unwrap();
        }
        assert_eq!(t.count().unwrap(), n as usize);
        let mut last = i64::MIN;
        let mut seen = 0;
        t.scan_all(|pk, img| {
            assert!(pk > last, "keys must be strictly increasing");
            assert_eq!(img[0], (pk % 251) as u8);
            last = pk;
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, n);
        // Point lookups still work post-split.
        for pk in [0i64, 1, 2499, 2500, 4999] {
            assert!(t.get(pk).unwrap().is_some(), "pk {pk} lost after splits");
        }
    }

    /// Byte size of every leaf, in chain order.
    fn leaf_sizes(t: &BTree) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = Some(t.first_leaf().unwrap());
        while let Some(id) = cur {
            let arc = t.bp.get(id).unwrap();
            let p = arc.read();
            out.push(p.byte_size());
            cur = match &p.kind {
                PageKind::Leaf { next, .. } => *next,
                _ => None,
            };
        }
        out
    }

    /// A logged tree, loaded with `keys` (200-byte images); returns the
    /// tree and the SMO bytes the load logged.
    fn logged_load(keys: impl Iterator<Item = i64>) -> (BTree, usize) {
        use imci_wal::PropagationMode;
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs.clone(), 1024);
        let alloc = Arc::new(PageAllocator::new(1));
        let ctx = RedoCtx {
            log: Some(LogWriter::new(fs.clone(), PropagationMode::ReuseRedo)),
            tid: Tid(7),
            table_id: TableId(1),
        };
        let t = BTree::create(bp, alloc, &ctx).unwrap();
        for pk in keys {
            t.insert(pk, vec![pk as u8; 200], &ctx).unwrap();
        }
        let smo_bytes = crate::redo_entries(fs)
            .iter()
            .filter(|e| e.payload.is_smo())
            .map(|e| e.encode().len())
            .sum();
        (t, smo_bytes)
    }

    #[test]
    fn ascending_inserts_split_at_the_insertion_point() {
        let n = 5000;
        let (t, smo_bytes) = logged_load(0..n);
        let sizes = leaf_sizes(&t);
        assert!(sizes.len() > 40, "{} leaves", sizes.len());
        let (full, last) = sizes.split_at(sizes.len() - 1);
        for (i, size) in full.iter().enumerate() {
            assert!(
                *size * 10 >= PAGE_BYTE_CAPACITY * 9,
                "leaf {i} holds {size} of {PAGE_BYTE_CAPACITY} bytes"
            );
        }
        assert!(last[0] <= PAGE_BYTE_CAPACITY);
        // One row per split instead of half a page.
        assert!(
            smo_bytes < 200 * n as usize,
            "{smo_bytes} SMO bytes for {n} inserts of 200-byte rows"
        );
        assert_eq!(t.count().unwrap(), n as usize);
        let mut next = 0;
        t.scan_all(|pk, img| {
            assert_eq!((pk, img), (next, &[pk as u8; 200][..]));
            next += 1;
        })
        .unwrap();
    }

    #[test]
    fn descending_inserts_still_split_at_the_midpoint() {
        let (t, _) = logged_load((0..5000).rev());
        let sizes = leaf_sizes(&t);
        // The first leaf takes every new key; each one it split off
        // kept the upper half.
        for (i, size) in sizes.iter().enumerate().skip(1) {
            let half = PAGE_BYTE_CAPACITY / 2;
            assert!(
                size.abs_diff(half) <= 216,
                "leaf {i} holds {size} bytes, not half a page"
            );
        }
        assert_eq!(t.count().unwrap(), 5000);
    }

    #[test]
    fn all_pages_covers_meta_internals_and_leaves() {
        let (t, ctx) = fresh_tree();
        // Force a multi-level tree.
        for pk in 0..3000i64 {
            t.insert(pk, vec![0u8; 64], &ctx).unwrap();
        }
        let pages = t.all_pages().unwrap();
        assert!(pages.contains(&t.meta_page()));
        // One page per allocation: nothing double-counted, nothing lost.
        let mut dedup = pages.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), pages.len(), "no duplicate page ids");
        assert!(pages.len() > 10, "splits created internal + leaf pages");
    }

    #[test]
    fn range_scan_bounds() {
        let (t, ctx) = fresh_tree();
        for pk in 0..100i64 {
            t.insert(pk, vec![], &ctx).unwrap();
        }
        let mut got = Vec::new();
        t.scan_range(10, 19, |pk, _| got.push(pk)).unwrap();
        assert_eq!(got, (10..20).collect::<Vec<i64>>());
    }

    #[test]
    fn split_emits_system_records_only_for_structure() {
        use imci_wal::PropagationMode;
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs.clone(), 1024);
        let alloc = Arc::new(PageAllocator::new(1));
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let ctx = RedoCtx {
            log: Some(log),
            tid: Tid(42),
            table_id: TableId(1),
        };
        let t = BTree::create(bp, alloc, &ctx).unwrap();
        for pk in 0..2000i64 {
            t.insert(pk, vec![0u8; 64], &ctx).unwrap();
        }
        let entries = crate::redo_entries(fs);
        let smo = entries.iter().filter(|e| e.payload.is_smo()).count();
        let dml = entries
            .iter()
            .filter(|e| !e.payload.is_smo() && !e.payload.is_decision())
            .count();
        assert_eq!(dml, 2000, "one DML record per user insert");
        assert!(smo > 4, "splits must have occurred");
        for e in &entries {
            if e.payload.is_smo() {
                assert_eq!(e.tid, SYSTEM_TID, "SMO records carry the system TID");
            } else {
                assert_eq!(e.tid, Tid(42));
            }
        }
    }

    #[test]
    fn reopen_from_meta_page_after_flush() {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs.clone(), 1024);
        let alloc = Arc::new(PageAllocator::new(1));
        let ctx = RedoCtx::unlogged(TableId(1));
        let t = BTree::create(bp.clone(), alloc.clone(), &ctx).unwrap();
        for pk in 0..500i64 {
            t.insert(pk, vec![1, 2, 3], &ctx).unwrap();
        }
        bp.flush_all();
        let meta = t.meta_page();
        // A different node opens the same tree from shared storage.
        let bp2 = BufferPool::new(fs, 1024);
        let t2 = BTree::open(bp2, alloc, meta);
        assert_eq!(t2.count().unwrap(), 500);
        assert_eq!(t2.get(250).unwrap(), Some(vec![1, 2, 3]));
    }
}
