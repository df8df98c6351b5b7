//! The RID locator: a two-layer LSM tree mapping primary keys to RIDs
//! (paper §4.1 "RID Locator").
//!
//! Layer 1 is a mutable memtable; layer 2 is a list of immutable sorted
//! runs, newest first. Deletes are tombstones. When the memtable fills
//! it is frozen into a run; when runs accumulate they are merged into a
//! single base run (dropping tombstones — the two-layer shape of the
//! paper).
//!
//! Checkpointing (paper §7) snapshots the locator by freezing the
//! memtable and cloning the run list — runs are immutable `Arc`s, so the
//! snapshot is O(1) and "subsequent transactions will not stain the
//! checkpoint" (the functional-data-structure trick the paper cites).
//! The paper's rule that checkpoints are "only triggered when the
//! MemTable is filled" corresponds to snapshots always freezing first.

use imci_common::codec::{put_i64, put_u64};
use imci_common::{ByteReader, Rid};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An immutable sorted run; `None` = tombstone.
#[derive(Debug)]
pub struct Run {
    entries: Vec<(i64, Option<Rid>)>,
}

impl Run {
    fn get(&self, pk: i64) -> Option<Option<Rid>> {
        self.entries
            .binary_search_by_key(&pk, |(k, _)| *k)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of entries (incl. tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the run holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A consistent point-in-time view of the locator.
#[derive(Clone)]
pub struct LocatorSnapshot {
    runs: Arc<Vec<Arc<Run>>>,
}

impl LocatorSnapshot {
    /// Look up a pk in the snapshot.
    pub fn get(&self, pk: i64) -> Option<Rid> {
        for run in self.runs.iter() {
            if let Some(v) = run.get(pk) {
                return v;
            }
        }
        None
    }

    /// Iterate live `(pk, rid)` pairs (newest version wins).
    pub fn iter_live(&self) -> Vec<(i64, Rid)> {
        let mut seen = imci_common::FxHashSet::default();
        let mut out = Vec::new();
        for run in self.runs.iter() {
            for (pk, rid) in &run.entries {
                if seen.insert(*pk) {
                    if let Some(r) = rid {
                        out.push((*pk, *r));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|(pk, _)| *pk);
        out
    }

    /// Serialize (checkpointing).
    pub fn encode(&self) -> Vec<u8> {
        let live = self.iter_live();
        let mut out = Vec::with_capacity(live.len() * 16 + 8);
        put_u64(&mut out, live.len() as u64);
        for (pk, rid) in live {
            put_i64(&mut out, pk);
            put_u64(&mut out, rid.get());
        }
        out
    }
}

/// The two-layer LSM locator.
pub struct RidLocator {
    memtable: RwLock<BTreeMap<i64, Option<Rid>>>,
    runs: RwLock<Arc<Vec<Arc<Run>>>>,
    memtable_cap: usize,
    /// Merge the run list down to one base run past this many runs.
    max_runs: usize,
}

impl RidLocator {
    /// Create with the given memtable capacity.
    pub fn new(memtable_cap: usize) -> RidLocator {
        RidLocator {
            memtable: RwLock::new(BTreeMap::new()),
            runs: RwLock::new(Arc::new(Vec::new())),
            memtable_cap: memtable_cap.max(16),
            max_runs: 4,
        }
    }

    /// Map `pk` to `rid` (insert or overwrite).
    pub fn insert(&self, pk: i64, rid: Rid) {
        let freeze = {
            let mut mt = self.memtable.write();
            mt.insert(pk, Some(rid));
            mt.len() >= self.memtable_cap
        };
        if freeze {
            self.freeze();
        }
    }

    /// Remove the mapping for `pk` ("the mapping between the PK and RID
    /// is removed from the locator", §4.2 Delete).
    pub fn remove(&self, pk: i64) {
        let freeze = {
            let mut mt = self.memtable.write();
            mt.insert(pk, None);
            mt.len() >= self.memtable_cap
        };
        if freeze {
            self.freeze();
        }
    }

    /// Look up the RID for `pk`.
    pub fn get(&self, pk: i64) -> Option<Rid> {
        {
            let mt = self.memtable.read();
            if let Some(v) = mt.get(&pk) {
                return *v;
            }
        }
        let runs = self.runs.read().clone();
        for run in runs.iter() {
            if let Some(v) = run.get(pk) {
                return v;
            }
        }
        None
    }

    /// Freeze the memtable into an immutable run.
    pub fn freeze(&self) {
        let mut mt = self.memtable.write();
        if mt.is_empty() {
            return;
        }
        let entries: Vec<(i64, Option<Rid>)> = std::mem::take(&mut *mt).into_iter().collect();
        // Take the run list before releasing the memtable: a lookup that
        // misses the memtable then waits for this run to be installed,
        // and racing freezes keep the runs newest-first.
        let mut runs = self.runs.write();
        drop(mt);
        let mut list: Vec<Arc<Run>> = (**runs).clone();
        list.insert(0, Arc::new(Run { entries }));
        if list.len() > self.max_runs {
            list = vec![Arc::new(Self::merge(&list))];
        }
        *runs = Arc::new(list);
    }

    fn merge(runs: &[Arc<Run>]) -> Run {
        // Newest-first list: first occurrence of a pk wins; tombstones
        // are dropped in the merged base run.
        let mut map: BTreeMap<i64, Option<Rid>> = BTreeMap::new();
        for run in runs {
            for (pk, rid) in &run.entries {
                map.entry(*pk).or_insert(*rid);
            }
        }
        Run {
            entries: map.into_iter().filter(|(_, rid)| rid.is_some()).collect(),
        }
    }

    /// O(1)-ish consistent snapshot: freeze, then clone the run list.
    pub fn snapshot(&self) -> LocatorSnapshot {
        self.freeze();
        LocatorSnapshot {
            runs: self.runs.read().clone(),
        }
    }

    /// Rebuild from a serialized snapshot.
    pub fn decode(bytes: &[u8], memtable_cap: usize) -> imci_common::Result<RidLocator> {
        let mut r = ByteReader::new(bytes, "locator snapshot");
        let entries = r.list_u64(16, |r| Ok((r.i64()?, Some(Rid(r.u64()?)))))?;
        // Lookups binary-search the run.
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(r.error("keys are not strictly ascending"));
        }
        let loc = RidLocator::new(memtable_cap);
        *loc.runs.write() = Arc::new(vec![Arc::new(Run { entries })]);
        Ok(loc)
    }

    /// Number of immutable runs (tests / stats).
    pub fn run_count(&self) -> usize {
        self.runs.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let l = RidLocator::new(1024);
        l.insert(10, Rid(1));
        l.insert(20, Rid(2));
        assert_eq!(l.get(10), Some(Rid(1)));
        assert_eq!(l.get(20), Some(Rid(2)));
        assert_eq!(l.get(30), None);
        l.remove(10);
        assert_eq!(l.get(10), None);
    }

    #[test]
    fn freeze_preserves_lookups_and_tombstones() {
        let l = RidLocator::new(1024);
        for pk in 0..100 {
            l.insert(pk, Rid(pk as u64));
        }
        l.remove(50);
        l.freeze();
        assert_eq!(l.get(49), Some(Rid(49)));
        assert_eq!(l.get(50), None, "tombstone survives freeze");
        // Newer layer shadows older.
        l.insert(49, Rid(999));
        assert_eq!(l.get(49), Some(Rid(999)));
    }

    #[test]
    fn memtable_cap_triggers_freeze_and_merge() {
        let l = RidLocator::new(16);
        for pk in 0..200 {
            l.insert(pk, Rid(pk as u64));
        }
        assert!(l.run_count() >= 1);
        assert!(l.run_count() <= 4, "runs merge down to the two-layer shape");
        for pk in 0..200 {
            assert_eq!(l.get(pk), Some(Rid(pk as u64)));
        }
    }

    #[test]
    fn snapshot_is_immune_to_later_writes() {
        let l = RidLocator::new(1024);
        for pk in 0..50 {
            l.insert(pk, Rid(pk as u64));
        }
        let snap = l.snapshot();
        l.insert(7, Rid(777));
        l.remove(8);
        l.insert(1000, Rid(1));
        assert_eq!(snap.get(7), Some(Rid(7)), "snapshot sees old mapping");
        assert_eq!(snap.get(8), Some(Rid(8)));
        assert_eq!(snap.get(1000), None);
        assert_eq!(l.get(7), Some(Rid(777)), "live locator sees new mapping");
    }

    #[test]
    fn snapshot_codec_roundtrip() {
        let l = RidLocator::new(64);
        for pk in (0..500).step_by(3) {
            l.insert(pk, Rid(pk as u64 * 2));
        }
        l.remove(3);
        let snap = l.snapshot();
        let restored = RidLocator::decode(&snap.encode(), 64).unwrap();
        assert_eq!(restored.get(0), Some(Rid(0)));
        assert_eq!(restored.get(3), None);
        assert_eq!(restored.get(498), Some(Rid(996)));
        assert_eq!(restored.get(499), None);
        // Lookups binary-search the run, so keys out of order are corrupt.
        let mut unsorted = Vec::new();
        for v in [2u64, 5, 1, 3, 2] {
            imci_common::codec::put_u64(&mut unsorted, v);
        }
        assert!(RidLocator::decode(&unsorted, 64).is_err());
    }

    #[test]
    fn iter_live_respects_latest_versions() {
        let l = RidLocator::new(8); // tiny: force lots of runs
        for pk in 0..40 {
            l.insert(pk, Rid(pk as u64));
        }
        for pk in 0..10 {
            l.insert(pk, Rid(1000 + pk as u64)); // re-point
        }
        l.remove(39);
        let live = l.snapshot().iter_live();
        assert_eq!(live.len(), 39);
        assert!(live.contains(&(0, Rid(1000))));
        assert!(live.contains(&(38, Rid(38))));
        assert!(!live.iter().any(|(pk, _)| *pk == 39));
    }

    #[test]
    fn concurrent_access_smoke() {
        let l = Arc::new(RidLocator::new(128));
        let mut hs = Vec::new();
        for t in 0..4i64 {
            let l = l.clone();
            hs.push(std::thread::spawn(move || {
                for i in 0..1000i64 {
                    let pk = t * 1000 + i;
                    l.insert(pk, Rid(pk as u64));
                    assert_eq!(l.get(pk), Some(Rid(pk as u64)));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(l.get(3999), Some(Rid(3999)));
    }
}
