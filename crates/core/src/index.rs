//! The In-Memory Column Index (paper §4): append-only row groups + RID
//! locator + MVCC snapshots.
//!
//! DML semantics follow §4.2 exactly:
//!
//! * **Insert** = allocate a RID from the partial group → record the
//!   PK→RID mapping → write column data → stamp the insert VID.
//! * **Delete** = locator lookup → stamp the delete VID → remove the
//!   PK→RID mapping.
//! * **Update** = delete followed by insert (out-of-place; the new
//!   version is appended to the partial packs).
//!
//! Reads open a [`Snapshot`] pinned at the current visible watermark;
//! active snapshots hold back compaction reclamation and the insert-map
//! drop optimization via the min-active tracking here.

use crate::locator::RidLocator;
use crate::rowgroup::RowGroup;
use crate::selvec::SelVec;
use imci_common::{DataType, Error, Result, Rid, Schema, Value, Vid};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default rows per row group (the paper's 64 Ki).
pub const DEFAULT_GROUP_CAPACITY: usize = 64 * 1024;

/// Column index over a table.
pub struct ColumnIndex {
    /// Owning table.
    pub table_id: imci_common::TableId,
    /// Covered column ordinals in the *table* schema. The primary key is
    /// always included (the locator and compaction need it).
    pub covered: Vec<usize>,
    /// Types of covered columns.
    pub col_types: Vec<DataType>,
    /// Position of the PK within `covered`.
    pub pk_pos: usize,
    group_cap: usize,
    groups: RwLock<Vec<Arc<RowGroup>>>,
    next_rid: AtomicU64,
    locator: RidLocator,
    /// Highest VID whose effects are fully applied (readers snapshot it).
    visible_vid: AtomicU64,
    /// Active snapshot registry: csn -> refcount.
    active: Mutex<BTreeMap<u64, usize>>,
    /// Table-level row statistics for the optimizer.
    rows_inserted: AtomicU64,
    rows_deleted: AtomicU64,
}

/// A pinned read view.
pub struct Snapshot {
    /// The snapshot's commit sequence number: rows with
    /// `insert_vid <= csn < delete_vid` are visible.
    pub csn: u64,
    index: Arc<ColumnIndex>,
}

/// One scan work unit ("morsel" source): a row group plus the row
/// offsets visible at the owning snapshot's CSN, resolved when the scan
/// is dispatched. A worker operating on a `PinnedGroup` never consults
/// MVCC state again — visibility was decided once, on the dispatching
/// thread — so the morsel's result is a pure function of the group's
/// column data and this selection, independent of scheduling.
#[derive(Clone)]
pub struct PinnedGroup {
    /// The row group to scan.
    pub group: Arc<RowGroup>,
    /// Offsets visible at the snapshot CSN, ascending.
    pub visible: SelVec,
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut a = self.index.active.lock();
        if let Some(c) = a.get_mut(&self.csn) {
            *c -= 1;
            if *c == 0 {
                a.remove(&self.csn);
            }
        }
    }
}

impl Snapshot {
    /// Row groups as of this snapshot.
    pub fn groups(&self) -> Vec<Arc<RowGroup>> {
        self.index.groups.read().clone()
    }

    /// The index this snapshot reads.
    pub fn index(&self) -> &Arc<ColumnIndex> {
        &self.index
    }

    /// Pin one group's visibility at this snapshot's CSN. Returns
    /// `None` for reclaimed groups and groups with no visible rows, so
    /// callers never dispatch empty morsels.
    pub fn pin_group(&self, group: &Arc<RowGroup>) -> Option<PinnedGroup> {
        if group.is_reclaimed() {
            return None;
        }
        let visible = group.visible_offsets(self.csn);
        if visible.is_empty() {
            return None;
        }
        Some(PinnedGroup {
            group: group.clone(),
            visible,
        })
    }

    /// Pin every group's visibility (see [`Snapshot::pin_group`]) —
    /// the snapshot/visibility handoff for morsel-driven scans.
    pub fn pin_groups(&self) -> Vec<PinnedGroup> {
        self.groups()
            .iter()
            .filter_map(|g| self.pin_group(g))
            .collect()
    }

    /// Point lookup by PK (visibility-checked).
    pub fn get_by_pk(&self, pk: i64) -> Option<Vec<Value>> {
        let rid = self.index.locator.get(pk)?;
        let (g, off) = self.index.rid_pos(rid);
        let groups = self.index.groups.read();
        let group = groups.get(g)?;
        if !group.visible(off, self.csn) {
            return None;
        }
        Some((0..group.width()).map(|c| group.value_at(c, off)).collect())
    }
}

impl ColumnIndex {
    /// Build an index covering `schema`'s declared column-index columns
    /// (plus the PK, added implicitly when absent).
    pub fn for_schema(schema: &Schema, group_cap: usize) -> Arc<ColumnIndex> {
        let mut covered: Vec<usize> = schema.column_index_cols().to_vec();
        if covered.is_empty() {
            // No explicit column list: cover the whole table.
            covered = (0..schema.width()).collect();
        }
        let pk = schema.pk_col();
        if !covered.contains(&pk) {
            covered.insert(0, pk);
        }
        let col_types = covered.iter().map(|&c| schema.columns[c].ty).collect();
        let pk_pos = covered.iter().position(|&c| c == pk).unwrap();
        Arc::new(ColumnIndex {
            table_id: schema.table_id,
            covered,
            col_types,
            pk_pos,
            group_cap: group_cap.max(4),
            groups: RwLock::new(Vec::new()),
            next_rid: AtomicU64::new(0),
            locator: RidLocator::new(64 * 1024),
            visible_vid: AtomicU64::new(0),
            active: Mutex::new(BTreeMap::new()),
            rows_inserted: AtomicU64::new(0),
            rows_deleted: AtomicU64::new(0),
        })
    }

    /// Row group capacity.
    pub fn group_capacity(&self) -> usize {
        self.group_cap
    }

    /// The RID locator.
    pub fn locator(&self) -> &RidLocator {
        &self.locator
    }

    /// Split a RID into (group index, offset).
    #[inline]
    pub fn rid_pos(&self, rid: Rid) -> (usize, usize) {
        let r = rid.get() as usize;
        (r / self.group_cap, r % self.group_cap)
    }

    fn group_for(&self, g: usize) -> Arc<RowGroup> {
        {
            let groups = self.groups.read();
            if let Some(grp) = groups.get(g) {
                return grp.clone();
            }
        }
        let mut groups = self.groups.write();
        while groups.len() <= g {
            let id = groups.len() as u32;
            groups.push(Arc::new(RowGroup::new(id, self.group_cap, &self.col_types)));
        }
        groups[g].clone()
    }

    /// Allocate `n` consecutive RIDs (used by the large-transaction
    /// pre-commit path, §5.5: "request a continuous RID for all rows").
    pub fn alloc_rids(&self, n: usize) -> Rid {
        Rid(self.next_rid.fetch_add(n as u64, Ordering::SeqCst))
    }

    /// Extract covered column values from a full table row.
    pub fn project_row(&self, full_row: &[Value]) -> Vec<Value> {
        self.covered.iter().map(|&c| full_row[c].clone()).collect()
    }

    /// §4.2 Insert. `values` are the covered columns (via
    /// [`Self::project_row`]); returns the RID.
    pub fn insert(&self, vid: Vid, values: &[Value]) -> Result<Rid> {
        let pk = values[self.pk_pos]
            .as_int()
            .ok_or_else(|| Error::Storage("column index insert without integer pk".into()))?;
        let rid = self.alloc_rids(1);
        // Step 2 of §4.2: record the PK→RID mapping.
        self.locator.insert(pk, rid);
        // Step 3: write the row data into the empty slot.
        let (g, off) = self.rid_pos(rid);
        let group = self.group_for(g);
        group.write_row(off, values)?;
        // Step 4: stamp the insert VID (commit sequence number).
        group.set_insert_vid(off, vid);
        group.seal_if_full();
        self.rows_inserted.fetch_add(1, Ordering::Relaxed);
        Ok(rid)
    }

    /// Insert at a pre-allocated RID with invalid VIDs (pre-commit of a
    /// large transaction, §5.5). The row stays invisible until
    /// [`Self::rectify_vid`].
    pub fn insert_precommitted(&self, rid: Rid, values: &[Value]) -> Result<()> {
        let (g, off) = self.rid_pos(rid);
        let group = self.group_for(g);
        group.write_row(off, values)?;
        // VIDs left unset == invalid == invisible.
        self.rows_inserted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rectify a pre-committed row's insert VID at commit time (§5.5).
    pub fn rectify_vid(&self, rid: Rid, vid: Vid) {
        let (g, off) = self.rid_pos(rid);
        let group = self.group_for(g);
        group.set_insert_vid(off, vid);
        group.seal_if_full();
    }

    /// Publish a pre-committed row's PK→RID mapping (merge of the
    /// temporary locator into the global one, §5.5).
    pub fn publish_mapping(&self, pk: i64, rid: Rid) {
        self.locator.insert(pk, rid);
    }

    /// §4.2 Delete: locator lookup → stamp delete VID → drop mapping.
    pub fn delete(&self, vid: Vid, pk: i64) -> Result<Rid> {
        let rid = self
            .locator
            .get(pk)
            .ok_or_else(|| Error::Storage(format!("column index delete: pk {pk} not found")))?;
        let (g, off) = self.rid_pos(rid);
        let group = self.group_for(g);
        group.set_delete_vid(off, vid);
        self.locator.remove(pk);
        self.rows_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(rid)
    }

    /// §4.2 Update: out-of-place delete + insert.
    pub fn update(&self, vid: Vid, pk: i64, new_values: &[Value]) -> Result<Rid> {
        self.delete(vid, pk)?;
        self.insert(vid, new_values)
    }

    /// Advance the visible watermark (Phase-2 batch commit).
    pub fn advance_visible(&self, vid: Vid) {
        self.visible_vid.fetch_max(vid.get(), Ordering::SeqCst);
    }

    /// Current visible watermark.
    pub fn visible_vid(&self) -> u64 {
        self.visible_vid.load(Ordering::SeqCst)
    }

    /// Open a read snapshot at the current watermark.
    pub fn snapshot(self: &Arc<Self>) -> Snapshot {
        let csn = self.visible_vid();
        *self.active.lock().entry(csn).or_insert(0) += 1;
        Snapshot {
            csn,
            index: self.clone(),
        }
    }

    /// Oldest CSN any active snapshot reads at (or the watermark when
    /// idle) — the GC horizon for compaction and VID-map dropping.
    pub fn min_active_csn(&self) -> u64 {
        self.active
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.visible_vid())
    }

    /// Row groups (for scans, compaction, checkpointing).
    pub fn groups(&self) -> Vec<Arc<RowGroup>> {
        self.groups.read().clone()
    }

    /// The group holding RIDs `[g*cap, (g+1)*cap)`, growing the group
    /// list if needed (used by writers that pre-allocated RIDs).
    pub fn group_at(&self, g: usize) -> Arc<RowGroup> {
        self.group_for(g)
    }

    /// Install a rebuilt group list (checkpoint load).
    pub fn install_groups(&self, groups: Vec<Arc<RowGroup>>, next_rid: u64) {
        *self.groups.write() = groups;
        self.next_rid.store(next_rid, Ordering::SeqCst);
    }

    /// Bulk-load PK→RID mappings (checkpoint load).
    pub fn install_locator_entries(&self, entries: &[(i64, Rid)]) {
        for (pk, rid) in entries {
            self.locator.insert(*pk, *rid);
        }
        self.locator.freeze();
    }

    /// Highest allocated RID bound.
    pub fn next_rid(&self) -> u64 {
        self.next_rid.load(Ordering::SeqCst)
    }

    /// Total rows ever inserted (statistics).
    pub fn rows_inserted(&self) -> u64 {
        self.rows_inserted.load(Ordering::Relaxed)
    }

    /// Approximate live row count (statistics for the optimizer).
    pub fn approx_live_rows(&self) -> u64 {
        self.rows_inserted
            .load(Ordering::Relaxed)
            .saturating_sub(self.rows_deleted.load(Ordering::Relaxed))
    }

    /// Run the §4.3 insert-map drop optimization over sealed groups;
    /// returns how many maps were dropped.
    pub fn drop_old_insert_maps(&self) -> usize {
        let min_active = self.min_active_csn();
        self.groups
            .read()
            .iter()
            .filter(|g| g.maybe_drop_insert_vids(min_active))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, IndexDef, IndexKind, TableId};

    fn test_schema() -> Schema {
        Schema::new(
            TableId(1),
            "t",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Str),
                ColumnDef::new("c", DataType::Double),
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
                    columns: vec![1, 3], // a and c; pk added implicitly
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn covered_includes_pk_implicitly() {
        let idx = ColumnIndex::for_schema(&test_schema(), 8);
        assert_eq!(idx.covered, vec![0, 1, 3]);
        assert_eq!(idx.pk_pos, 0);
    }

    #[test]
    fn pin_groups_freezes_visibility_per_snapshot() {
        let idx = ColumnIndex::for_schema(&test_schema(), 4);
        for i in 0..10i64 {
            idx.insert(
                Vid(1),
                &[Value::Int(i), Value::Int(i * 2), Value::Double(0.0)],
            )
            .unwrap();
        }
        idx.advance_visible(Vid(1));
        let before = idx.snapshot();
        // Wipe out the first group (rows 0..4) entirely.
        for i in 0..4i64 {
            idx.delete(Vid(2), i).unwrap();
        }
        idx.advance_visible(Vid(2));
        let after = idx.snapshot();
        // The older snapshot still pins all three groups with every row.
        let pinned = before.pin_groups();
        assert_eq!(pinned.len(), 3);
        assert_eq!(pinned.iter().map(|p| p.visible.len()).sum::<usize>(), 10);
        for p in &pinned {
            let offs: Vec<u32> = p.visible.iter().collect();
            let mut sorted = offs.clone();
            sorted.sort_unstable();
            assert_eq!(offs, sorted, "visible offsets must ascend");
        }
        // The newer snapshot skips the fully-deleted group: no empty
        // morsels are ever dispatched.
        let pinned = after.pin_groups();
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned.iter().map(|p| p.visible.len()).sum::<usize>(), 6);
    }

    #[test]
    fn insert_visible_after_watermark() {
        let idx = ColumnIndex::for_schema(&test_schema(), 8);
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Str("x".into()),
            Value::Double(0.5),
        ];
        idx.insert(Vid(1), &idx.project_row(&row)).unwrap();
        // Watermark not advanced: snapshot at 0 sees nothing.
        assert!(idx.snapshot().get_by_pk(1).is_none());
        idx.advance_visible(Vid(1));
        let snap = idx.snapshot();
        let got = snap.get_by_pk(1).unwrap();
        assert_eq!(got, vec![Value::Int(1), Value::Int(10), Value::Double(0.5)]);
    }

    #[test]
    fn update_is_out_of_place() {
        let idx = ColumnIndex::for_schema(&test_schema(), 8);
        let mk = |a: i64| vec![Value::Int(1), Value::Int(a), Value::Double(0.0)];
        let rid1 = idx.insert(Vid(1), &mk(10)).unwrap();
        idx.advance_visible(Vid(1));
        let old_snap = idx.snapshot();
        let rid2 = idx.update(Vid(2), 1, &mk(20)).unwrap();
        idx.advance_visible(Vid(2));
        assert_ne!(rid1, rid2, "update appends a new version");
        // New snapshot sees the new version; the pinned old snapshot
        // still sees the old one (MVCC).
        let new_snap = idx.snapshot();
        assert_eq!(new_snap.get_by_pk(1).unwrap()[1], Value::Int(20));
        // Old snapshot: locator now points at the new rid, whose insert
        // vid (2) is beyond csn 1, so the lookup reports no row — but
        // the old version remains physically present for scans.
        let groups = old_snap.groups();
        let (g, off) = idx.rid_pos(rid1);
        assert!(groups[g].visible(off, old_snap.csn));
    }

    #[test]
    fn delete_then_lookup_fails() {
        let idx = ColumnIndex::for_schema(&test_schema(), 8);
        let row = vec![Value::Int(7), Value::Int(1), Value::Double(0.0)];
        idx.insert(Vid(1), &row).unwrap();
        idx.advance_visible(Vid(1));
        idx.delete(Vid(2), 7).unwrap();
        idx.advance_visible(Vid(2));
        assert!(idx.snapshot().get_by_pk(7).is_none());
        assert!(idx.delete(Vid(3), 7).is_err(), "mapping removed");
    }

    #[test]
    fn groups_seal_as_they_fill() {
        let idx = ColumnIndex::for_schema(&test_schema(), 4);
        for pk in 0..10 {
            idx.insert(
                Vid(1),
                &[Value::Int(pk), Value::Int(pk), Value::Double(0.0)],
            )
            .unwrap();
        }
        let groups = idx.groups();
        assert_eq!(groups.len(), 3);
        assert!(groups[0].is_sealed());
        assert!(groups[1].is_sealed());
        assert!(!groups[2].is_sealed(), "partial group stays mutable");
        assert_eq!(groups[2].rows_written(), 2);
    }

    #[test]
    fn precommit_rows_invisible_until_rectified() {
        let idx = ColumnIndex::for_schema(&test_schema(), 8);
        let base = idx.alloc_rids(2);
        idx.insert_precommitted(base, &[Value::Int(1), Value::Int(0), Value::Double(0.0)])
            .unwrap();
        idx.insert_precommitted(
            Rid(base.get() + 1),
            &[Value::Int(2), Value::Int(0), Value::Double(0.0)],
        )
        .unwrap();
        idx.advance_visible(Vid(10));
        assert!(idx.snapshot().get_by_pk(1).is_none());
        // Commit: publish mappings + rectify VIDs.
        idx.publish_mapping(1, base);
        idx.publish_mapping(2, Rid(base.get() + 1));
        idx.rectify_vid(base, Vid(11));
        idx.rectify_vid(Rid(base.get() + 1), Vid(11));
        idx.advance_visible(Vid(11));
        assert!(idx.snapshot().get_by_pk(1).is_some());
        assert!(idx.snapshot().get_by_pk(2).is_some());
    }

    #[test]
    fn min_active_tracks_open_snapshots() {
        let idx = ColumnIndex::for_schema(&test_schema(), 8);
        idx.advance_visible(Vid(10));
        let s1 = idx.snapshot();
        idx.advance_visible(Vid(20));
        let s2 = idx.snapshot();
        assert_eq!(idx.min_active_csn(), 10);
        drop(s1);
        assert_eq!(idx.min_active_csn(), 20);
        drop(s2);
        assert_eq!(idx.min_active_csn(), 20);
    }

    #[test]
    fn insert_map_drop_via_index() {
        let idx = ColumnIndex::for_schema(&test_schema(), 4);
        for pk in 0..4 {
            idx.insert(Vid(1), &[Value::Int(pk), Value::Int(0), Value::Double(0.0)])
                .unwrap();
        }
        idx.advance_visible(Vid(1));
        assert_eq!(idx.drop_old_insert_maps(), 1);
        let snap = idx.snapshot();
        assert!(snap.get_by_pk(0).is_some(), "still visible after drop");
    }
}
