//! Row groups: the unit of columnar storage (paper §4.1, Fig. 4).
//!
//! A row group holds up to `capacity` rows across all covered columns.
//! The last group of an index is *partial*: its columns are mutable
//! [`ColumnData`] ("Partial Packs"). When the group fills it is sealed:
//! every column is compressed copy-on-write into an immutable
//! [`Pack`] and the pointer is swapped (§4.3 Compression).
//!
//! Visibility is controlled by the per-group insert/delete VID maps.

use crate::column::ColumnData;
use crate::pack::Pack;
use crate::selvec::SelVec;
use crate::vidmap::{row_visible, VidMap, VID_UNSET};
use imci_common::{DataType, Error, Result, Value, Vid};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One column's storage within a row group.
pub enum ColumnSlot {
    /// Mutable partial pack.
    Partial(ColumnData),
    /// Sealed compressed pack.
    Sealed(Arc<Pack>),
    /// Physically reclaimed after compaction (§4.3): data gone, slot
    /// kept so RIDs remain stable.
    Reclaimed,
}

/// A row group.
pub struct RowGroup {
    /// Group ordinal within its column index.
    pub id: u32,
    capacity: usize,
    cols: Vec<Mutex<ColumnSlot>>,
    col_types: Vec<DataType>,
    /// Insert VID map; dropped (None) under the §4.3 memory optimization
    /// once no active snapshot can be older than any row in the group.
    insert_vids: RwLock<Option<Arc<VidMap>>>,
    delete_vids: VidMap,
    /// Rows whose columns are fully written.
    written: AtomicUsize,
    sealed: AtomicBool,
    /// All rows deleted and reclaimed.
    reclaimed: AtomicBool,
}

impl RowGroup {
    /// Create an empty (partial) group.
    pub fn new(id: u32, capacity: usize, col_types: &[DataType]) -> RowGroup {
        RowGroup {
            id,
            capacity,
            cols: col_types
                .iter()
                .map(|t| Mutex::new(ColumnSlot::Partial(ColumnData::new(*t))))
                .collect(),
            col_types: col_types.to_vec(),
            insert_vids: RwLock::new(Some(Arc::new(VidMap::new(capacity)))),
            delete_vids: VidMap::new(capacity),
            written: AtomicUsize::new(0),
            sealed: AtomicBool::new(false),
            reclaimed: AtomicBool::new(false),
        }
    }

    /// Row capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column data types.
    pub fn col_types(&self) -> &[DataType] {
        &self.col_types
    }

    /// Whether the group has been sealed (compressed).
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    /// Whether the group's data has been reclaimed.
    pub fn is_reclaimed(&self) -> bool {
        self.reclaimed.load(Ordering::Acquire)
    }

    /// Write all covered column values of one row at `offset`.
    /// The caller owns the slot (RIDs are allocated uniquely), so no two
    /// writers ever target the same offset.
    pub fn write_row(&self, offset: usize, values: &[Value]) -> Result<()> {
        if values.len() != self.cols.len() {
            return Err(Error::Storage(format!(
                "row group {} expects {} columns, got {}",
                self.id,
                self.cols.len(),
                values.len()
            )));
        }
        if offset >= self.capacity {
            return Err(Error::Storage("row offset beyond group capacity".into()));
        }
        for (slot, v) in self.cols.iter().zip(values) {
            let mut s = slot.lock();
            match &mut *s {
                ColumnSlot::Partial(col) => col.set(offset, v)?,
                ColumnSlot::Sealed(_) | ColumnSlot::Reclaimed => {
                    return Err(Error::Storage(format!(
                        "write into sealed row group {}",
                        self.id
                    )))
                }
            }
        }
        self.written.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Stamp the insert VID of `offset` (makes the row visible).
    pub fn set_insert_vid(&self, offset: usize, vid: Vid) {
        if let Some(m) = self.insert_vids.read().as_ref() {
            m.set(offset, vid);
        }
    }

    /// Stamp the delete VID of `offset` (logical delete, out-of-place).
    pub fn set_delete_vid(&self, offset: usize, vid: Vid) {
        self.delete_vids.set(offset, vid);
    }

    /// Insert VID of `offset` (0 if the map was dropped: "visible since
    /// forever").
    pub fn insert_vid(&self, offset: usize) -> u64 {
        match self.insert_vids.read().as_ref() {
            Some(m) => m.get(offset),
            None => 0,
        }
    }

    /// Delete VID of `offset` ([`VID_UNSET`] = live).
    pub fn delete_vid(&self, offset: usize) -> u64 {
        self.delete_vids.get(offset)
    }

    /// Is row `offset` visible at snapshot `csn`?
    pub fn visible(&self, offset: usize, csn: u64) -> bool {
        row_visible(self.insert_vid(offset), self.delete_vid(offset), csn)
    }

    /// Offsets of rows visible at `csn` — the scan's initial selection
    /// vector, refined by predicate kernels before any column data is
    /// materialized.
    pub fn visible_offsets(&self, csn: u64) -> SelVec {
        if self.reclaimed.load(Ordering::Acquire) {
            return SelVec::new();
        }
        let n = self.rows_written();
        let mut out = Vec::with_capacity(n);
        match self.insert_vids.read().as_ref() {
            Some(m) => {
                for i in 0..n {
                    if row_visible(m.get(i), self.delete_vids.get(i), csn) {
                        out.push(i as u32);
                    }
                }
            }
            None => {
                for i in 0..n {
                    if csn < self.delete_vids.get(i) {
                        out.push(i as u32);
                    }
                }
            }
        }
        SelVec::from_sorted(out)
    }

    /// Number of rows fully written so far.
    pub fn rows_written(&self) -> usize {
        self.written.load(Ordering::Acquire).min(self.capacity)
    }

    /// Live (not logically deleted) row count.
    pub fn live_rows(&self) -> usize {
        let n = self.rows_written();
        (0..n)
            .filter(|&i| self.delete_vids.get(i) == VID_UNSET && self.insert_vid(i) != VID_UNSET)
            .count()
    }

    /// Read one value.
    pub fn value_at(&self, col: usize, offset: usize) -> Value {
        let s = self.cols[col].lock();
        match &*s {
            ColumnSlot::Partial(c) => c.get(offset),
            ColumnSlot::Sealed(p) => p.get(offset),
            ColumnSlot::Reclaimed => Value::Null,
        }
    }

    /// Materialize a column for scanning: cheap `Arc` clone when sealed,
    /// copy when partial.
    pub fn read_column(&self, col: usize) -> ColumnRead {
        let s = self.cols[col].lock();
        match &*s {
            ColumnSlot::Partial(c) => ColumnRead::Materialized(c.clone()),
            ColumnSlot::Sealed(p) => ColumnRead::Pack(p.clone()),
            ColumnSlot::Reclaimed => ColumnRead::Materialized(ColumnData::new(self.col_types[col])),
        }
    }

    /// The sealed pack of a column, if sealed (for min/max pruning).
    pub fn column_pack(&self, col: usize) -> Option<Arc<Pack>> {
        let s = self.cols[col].lock();
        match &*s {
            ColumnSlot::Sealed(p) => Some(p.clone()),
            _ => None,
        }
    }

    /// Seal the group if every slot has been written: compress each
    /// column copy-on-write and swap the pointer (§4.3). Returns true if
    /// this call performed the seal.
    pub fn seal_if_full(&self) -> bool {
        if self.written.load(Ordering::Acquire) < self.capacity {
            return false;
        }
        if self.sealed.swap(true, Ordering::AcqRel) {
            return false;
        }
        for slot in &self.cols {
            // Compress outside the lock (copy-on-write), then swap.
            let source = {
                let s = slot.lock();
                match &*s {
                    ColumnSlot::Partial(c) => c.clone(),
                    _ => continue,
                }
            };
            let pack = Arc::new(Pack::seal(&source));
            *slot.lock() = ColumnSlot::Sealed(pack);
        }
        true
    }

    /// §4.3 memory optimization: drop the insert VID map once no active
    /// snapshot (`min_active`) predates any insert in a sealed group.
    pub fn maybe_drop_insert_vids(&self, min_active: u64) -> bool {
        if !self.is_sealed() {
            return false;
        }
        let drop_it = {
            let g = self.insert_vids.read();
            match g.as_ref() {
                None => return false,
                Some(m) => {
                    // Every slot must be committed (set) and old enough.
                    let n = self.rows_written();
                    (0..n).all(|i| {
                        let v = m.get(i);
                        v != VID_UNSET && v <= min_active
                    }) && n == self.capacity
                }
            }
        };
        if drop_it {
            *self.insert_vids.write() = None;
        }
        drop_it
    }

    /// Physically reclaim a fully-dead group (every row deleted before
    /// `min_active`). Returns true on reclamation.
    pub fn try_reclaim(&self, min_active: u64) -> bool {
        if self.reclaimed.load(Ordering::Acquire) || !self.is_sealed() {
            return false;
        }
        let n = self.rows_written();
        // A snapshot at csn sees rows with delete_vid > csn; a row
        // deleted at min_active is already invisible to every active
        // snapshot, so `<=` is the exact safety bound.
        let all_dead = (0..n).all(|i| {
            let d = self.delete_vids.get(i);
            d != VID_UNSET && d <= min_active
        });
        if !all_dead || n == 0 {
            return false;
        }
        for slot in &self.cols {
            *slot.lock() = ColumnSlot::Reclaimed;
        }
        self.reclaimed.store(true, Ordering::Release);
        true
    }

    /// Whether the insert VID map is still held (tests).
    pub fn has_insert_vids(&self) -> bool {
        self.insert_vids.read().is_some()
    }

    /// Raw VID maps for checkpointing: `(insert, delete)`; entries with
    /// VID > `csn` are masked per paper §7.
    pub fn checkpoint_vids(&self, csn: u64) -> (Vec<u64>, Vec<u64>) {
        let ins = match self.insert_vids.read().as_ref() {
            Some(m) => m
                .snapshot_raw()
                .into_iter()
                .map(|v| {
                    if v != VID_UNSET && v > csn {
                        VID_UNSET
                    } else {
                        v
                    }
                })
                .collect(),
            None => vec![0; self.capacity],
        };
        let del = self
            .delete_vids
            .snapshot_raw()
            .into_iter()
            .map(|v| {
                if v != VID_UNSET && v > csn {
                    VID_UNSET
                } else {
                    v
                }
            })
            .collect();
        (ins, del)
    }

    /// Rebuild a group from checkpoint state.
    #[allow(clippy::too_many_arguments)]
    pub fn from_checkpoint(
        id: u32,
        capacity: usize,
        col_types: &[DataType],
        columns: Vec<ColumnSlot>,
        insert_raw: &[u64],
        delete_raw: &[u64],
        sealed: bool,
        written: usize,
    ) -> RowGroup {
        RowGroup {
            id,
            capacity,
            cols: columns.into_iter().map(Mutex::new).collect(),
            col_types: col_types.to_vec(),
            insert_vids: RwLock::new(Some(Arc::new(VidMap::from_raw(insert_raw)))),
            delete_vids: VidMap::from_raw(delete_raw),
            written: AtomicUsize::new(written),
            sealed: AtomicBool::new(sealed),
            reclaimed: AtomicBool::new(false),
        }
    }
}

/// Result of [`RowGroup::read_column`].
pub enum ColumnRead {
    /// Sealed pack (zero-copy).
    Pack(Arc<Pack>),
    /// Copied partial column.
    Materialized(ColumnData),
}

impl ColumnRead {
    /// Value at `offset`.
    pub fn get(&self, offset: usize) -> Value {
        match self {
            ColumnRead::Pack(p) => p.get(offset),
            ColumnRead::Materialized(c) => c.get(offset),
        }
    }

    /// Length in rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnRead::Pack(p) => p.len(),
            ColumnRead::Materialized(c) => c.len(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gather rows at `idx` into a typed column (late materialization's
    /// single post-filter gather).
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        match self {
            ColumnRead::Pack(p) => p.gather(idx),
            ColumnRead::Materialized(c) => c.gather(idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types() -> Vec<DataType> {
        vec![DataType::Int, DataType::Str]
    }

    #[test]
    fn write_stamp_read() {
        let g = RowGroup::new(0, 8, &types());
        g.write_row(0, &[Value::Int(1), Value::Str("a".into())])
            .unwrap();
        g.set_insert_vid(0, Vid(5));
        assert!(g.visible(0, 5));
        assert!(!g.visible(0, 4));
        assert_eq!(g.value_at(0, 0), Value::Int(1));
        assert_eq!(g.value_at(1, 0), Value::Str("a".into()));
    }

    #[test]
    fn unstamped_rows_invisible() {
        let g = RowGroup::new(0, 8, &types());
        g.write_row(0, &[Value::Int(1), Value::Null]).unwrap();
        assert!(!g.visible(0, u64::MAX - 1));
        assert!(g.visible_offsets(100).is_empty());
    }

    #[test]
    fn delete_hides_from_later_snapshots_only() {
        let g = RowGroup::new(0, 8, &types());
        g.write_row(0, &[Value::Int(1), Value::Null]).unwrap();
        g.set_insert_vid(0, Vid(5));
        g.set_delete_vid(0, Vid(10));
        assert!(g.visible(0, 9), "old snapshot still sees the row");
        assert!(!g.visible(0, 10));
        assert_eq!(g.live_rows(), 0);
    }

    #[test]
    fn seal_preserves_data_and_blocks_writes() {
        let cap = 16;
        let g = RowGroup::new(0, cap, &types());
        for i in 0..cap {
            g.write_row(i, &[Value::Int(i as i64), Value::Str(format!("s{i}"))])
                .unwrap();
            g.set_insert_vid(i, Vid(1));
        }
        assert!(g.seal_if_full());
        assert!(!g.seal_if_full(), "second seal is a no-op");
        assert!(g.is_sealed());
        for i in 0..cap {
            assert_eq!(g.value_at(0, i), Value::Int(i as i64));
        }
        assert!(g.write_row(0, &[Value::Int(0), Value::Null]).is_err());
        assert!(g.column_pack(0).is_some());
    }

    #[test]
    fn seal_requires_all_rows_written() {
        let g = RowGroup::new(0, 4, &types());
        g.write_row(0, &[Value::Int(1), Value::Null]).unwrap();
        assert!(!g.seal_if_full());
    }

    #[test]
    fn insert_vid_map_drop_optimization() {
        let cap = 4;
        let g = RowGroup::new(0, cap, &types());
        for i in 0..cap {
            g.write_row(i, &[Value::Int(i as i64), Value::Null])
                .unwrap();
            g.set_insert_vid(i, Vid(3));
        }
        g.seal_if_full();
        assert!(!g.maybe_drop_insert_vids(2), "active snapshot too old");
        assert!(g.maybe_drop_insert_vids(3));
        assert!(!g.has_insert_vids());
        // Rows remain visible after the drop.
        assert!(g.visible(0, 100));
        assert_eq!(g.visible_offsets(100).len(), 4);
    }

    #[test]
    fn reclaim_fully_dead_group() {
        let cap = 4;
        let g = RowGroup::new(0, cap, &types());
        for i in 0..cap {
            g.write_row(i, &[Value::Int(0), Value::Null]).unwrap();
            g.set_insert_vid(i, Vid(1));
            g.set_delete_vid(i, Vid(2));
        }
        g.seal_if_full();
        assert!(!g.try_reclaim(1), "snapshot at 1 still sees the rows");
        assert!(g.try_reclaim(2), "deleted at 2 is invisible at csn 2");
        assert!(g.is_reclaimed());
        assert!(g.visible_offsets(1).is_empty());
    }

    #[test]
    fn checkpoint_vid_masking() {
        let g = RowGroup::new(0, 4, &types());
        g.write_row(0, &[Value::Int(1), Value::Null]).unwrap();
        g.set_insert_vid(0, Vid(5));
        g.write_row(1, &[Value::Int(2), Value::Null]).unwrap();
        g.set_insert_vid(1, Vid(15)); // after the checkpoint CSN
        g.set_delete_vid(0, Vid(20)); // delete after CSN
        let (ins, del) = g.checkpoint_vids(10);
        assert_eq!(ins[0], 5);
        assert_eq!(ins[1], VID_UNSET, "post-CSN insert masked");
        assert_eq!(del[0], VID_UNSET, "post-CSN delete masked");
    }
}
