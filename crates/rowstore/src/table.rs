//! Runtime table object: B+tree + secondary indexes + write serialization.

use crate::btree::BTree;
use imci_common::{Error, Result, Row, Schema, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::ops::Bound;

/// An in-memory secondary index: `(key value, pk) -> ()`.
///
/// Secondary indexes are node-local acceleration structures for the
/// row-based executor (point and low-selectivity queries, the kind the
/// paper's Q2 discussion covers). They are rebuilt on node start and
/// maintained by DML (RW) or Phase-1 replay (RO).
pub struct SecondaryIndex {
    /// Indexed column ordinal.
    pub col: usize,
    /// Index name.
    pub name: String,
    map: RwLock<BTreeMap<(Value, i64), ()>>,
}

impl SecondaryIndex {
    fn new(name: String, col: usize) -> SecondaryIndex {
        SecondaryIndex {
            col,
            name,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Insert an entry.
    pub fn add(&self, key: Value, pk: i64) {
        self.map.write().insert((key, pk), ());
    }

    /// Remove an entry.
    pub fn remove(&self, key: &Value, pk: i64) {
        self.map.write().remove(&(key.clone(), pk));
    }

    /// Primary keys whose indexed value lies in `[lo, hi]`.
    pub fn lookup_range(&self, lo: &Value, hi: &Value) -> Vec<i64> {
        let m = self.map.read();
        m.range((
            Bound::Included((lo.clone(), i64::MIN)),
            Bound::Included((hi.clone(), i64::MAX)),
        ))
        .map(|((_, pk), _)| *pk)
        .collect()
    }

    /// Primary keys whose indexed value equals `v`.
    pub fn lookup_eq(&self, v: &Value) -> Vec<i64> {
        self.lookup_range(v, v)
    }

    /// Estimated entries one equality probe returns, for the cost
    /// model: `entries / (max_key − min_key + 1)` with the span taken
    /// over the non-NULL `Int`/`Date` keys, at least 1, and 1 for any
    /// other key type or an empty index. The key span bounds the number
    /// of distinct keys from above, so this bounds the mean matches per
    /// probe from below (NULL entries, which no probe matches, still
    /// count in `entries`). Reads only the map's ends: O(log n).
    pub fn fanout(&self) -> f64 {
        let m = self.map.read();
        let first = m
            .range((Bound::Excluded((Value::Null, i64::MAX)), Bound::Unbounded))
            .next();
        match (first, m.last_key_value()) {
            (
                Some(((Value::Int(lo) | Value::Date(lo), _), _)),
                Some(((Value::Int(hi) | Value::Date(hi), _), _)),
            ) => {
                let span = (*hi as f64 - *lo as f64) + 1.0;
                (m.len() as f64 / span).max(1.0)
            }
            _ => 1.0,
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runtime state of one table on one node.
pub struct TableRt {
    /// Approximate live row count (maintained by DML and replay; feeds
    /// the optimizer's cardinality estimates).
    pub row_counter: std::sync::atomic::AtomicU64,
    /// Schema (with table id).
    pub schema: Schema,
    /// Primary B+tree.
    pub tree: BTree,
    /// Secondary indexes (one per declared secondary index).
    pub secondaries: Vec<SecondaryIndex>,
    /// Serializes writers on this table (single-writer-per-table; the
    /// single-RW-node design means there is no cross-node writer).
    pub write_lock: Mutex<()>,
    /// Set (under `write_lock`) by `DROP TABLE` before its DDL record
    /// is appended. A DML that resolved this runtime before the drop
    /// must observe the flag under the same lock and fail instead of
    /// appending log entries *after* the drop's DDL record — replicas
    /// treat a DML following its table's drop as a replay error.
    pub dropped: std::sync::atomic::AtomicBool,
}

impl TableRt {
    /// Build runtime state from a schema and an opened tree.
    pub fn new(schema: Schema, tree: BTree) -> TableRt {
        let secondaries = schema
            .secondary_indexes()
            .map(|idx| SecondaryIndex::new(idx.name.clone(), idx.columns[0]))
            .collect();
        TableRt {
            row_counter: std::sync::atomic::AtomicU64::new(0),
            schema,
            tree,
            secondaries,
            write_lock: Mutex::new(()),
            dropped: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Fail if `DROP TABLE` has claimed this table. Callers must hold
    /// `write_lock` (the flag is set under it) so the check and the
    /// subsequent log appends are atomic with respect to the drop.
    pub fn ensure_live(&self) -> Result<()> {
        if self.dropped.load(std::sync::atomic::Ordering::Acquire) {
            return Err(Error::Catalog(format!(
                "table {} was dropped",
                self.schema.name
            )));
        }
        Ok(())
    }

    /// Approximate live rows (cheap, lock-free).
    pub fn approx_rows(&self) -> u64 {
        self.row_counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bump the row counter.
    pub fn count_insert(&self) {
        self.row_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Decrement the row counter.
    pub fn count_delete(&self) {
        let _ = self.row_counter.fetch_update(
            std::sync::atomic::Ordering::Relaxed,
            std::sync::atomic::Ordering::Relaxed,
            |v| Some(v.saturating_sub(1)),
        );
    }

    /// Maintain secondaries for an inserted row.
    pub fn sec_add(&self, pk: i64, values: &[Value]) {
        for s in &self.secondaries {
            s.add(values[s.col].clone(), pk);
        }
    }

    /// Maintain secondaries for a deleted row.
    pub fn sec_remove(&self, pk: i64, values: &[Value]) {
        for s in &self.secondaries {
            s.remove(&values[s.col], pk);
        }
    }

    /// Maintain secondaries across an update.
    pub fn sec_update(&self, pk: i64, old: &[Value], new: &[Value]) {
        for s in &self.secondaries {
            if old[s.col] != new[s.col] {
                s.remove(&old[s.col], pk);
                s.add(new[s.col].clone(), pk);
            }
        }
    }

    /// Rebuild all secondary indexes from a full scan (node start).
    pub fn rebuild_secondaries(&self) -> Result<()> {
        if self.secondaries.is_empty() {
            return Ok(());
        }
        self.tree.scan_all(|pk, img| {
            if let Ok(row) = Row::decode(img) {
                self.sec_add(pk, &row.values);
            }
        })?;
        Ok(())
    }

    /// Find a secondary index on `col`.
    pub fn secondary_on(&self, col: usize) -> Option<&SecondaryIndex> {
        self.secondaries.iter().find(|s| s.col == col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secondary_index_range_and_eq() {
        let idx = SecondaryIndex::new("s".into(), 1);
        idx.add(Value::Int(10), 1);
        idx.add(Value::Int(10), 2);
        idx.add(Value::Int(20), 3);
        idx.add(Value::Int(30), 4);
        assert_eq!(idx.lookup_eq(&Value::Int(10)), vec![1, 2]);
        assert_eq!(
            idx.lookup_range(&Value::Int(10), &Value::Int(20)),
            vec![1, 2, 3]
        );
        idx.remove(&Value::Int(10), 1);
        assert_eq!(idx.lookup_eq(&Value::Int(10)), vec![2]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn fanout_of_dense_int_keys_is_entries_per_key() {
        let idx = SecondaryIndex::new("s".into(), 1);
        // 100 keys (0..=99), 300 entries each.
        for pk in 0..30_000 {
            idx.add(Value::Int(pk % 100), pk);
        }
        assert_eq!(idx.fanout(), 300.0);
        // Dates count like ints; NULL keys do not widen the span.
        let dates = SecondaryIndex::new("d".into(), 1);
        for pk in 0..40 {
            dates.add(Value::Date(10_000 + pk % 4), pk);
        }
        dates.add(Value::Null, 40);
        assert_eq!(dates.fanout(), 41.0 / 4.0);
    }

    #[test]
    fn fanout_of_sparse_keys_is_clamped_to_one() {
        let idx = SecondaryIndex::new("s".into(), 1);
        for pk in 0..10 {
            idx.add(Value::Int(pk * 1_000), pk);
        }
        assert_eq!(idx.fanout(), 1.0);
        // The widest span does not overflow.
        idx.add(Value::Int(i64::MIN), 10);
        idx.add(Value::Int(i64::MAX), 11);
        assert_eq!(idx.fanout(), 1.0);
    }

    #[test]
    fn fanout_of_string_keys_and_empty_index_is_one() {
        let idx = SecondaryIndex::new("s".into(), 0);
        assert_eq!(idx.fanout(), 1.0, "empty index");
        for pk in 0..50 {
            idx.add(Value::Str(format!("k{}", pk % 2)), pk);
        }
        assert_eq!(idx.fanout(), 1.0, "string keys");
        let nulls = SecondaryIndex::new("n".into(), 0);
        nulls.add(Value::Null, 1);
        assert_eq!(nulls.fanout(), 1.0, "only NULL keys");
    }

    #[test]
    fn secondary_handles_string_keys() {
        let idx = SecondaryIndex::new("s".into(), 0);
        idx.add(Value::Str("alpha".into()), 1);
        idx.add(Value::Str("beta".into()), 2);
        assert_eq!(idx.lookup_eq(&Value::Str("beta".into())), vec![2]);
        assert!(idx
            .lookup_range(&Value::Str("a".into()), &Value::Str("b".into()))
            .contains(&1));
    }
}
