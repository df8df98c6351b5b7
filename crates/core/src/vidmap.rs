//! Insert / delete Version-ID maps (paper §4.1 "Version Id (VID) Map").
//!
//! Each row group carries two maps: the insert VID map records the
//! commit sequence number that created each row version, the delete VID
//! map the one that logically deleted it (`u64::MAX` = live). A read
//! with snapshot `csn` sees a row iff
//! `insert_vid <= csn && csn < delete_vid`.
//!
//! Rows written by the large-transaction pre-commit path (§5.5) carry
//! [`INVALID_VID`] in the insert map, making them invisible to every
//! snapshot until the commit rectifies them.
//!
//! Memory optimization (§4.3): once a row group is sealed and the oldest
//! active snapshot is newer than every insert VID in it, the insert map
//! is dropped — all rows are trivially "inserted in the past".

use imci_common::Vid;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel meaning "not set / invisible" in the insert map and
/// "not deleted" in the delete map.
pub const VID_UNSET: u64 = u64::MAX;

/// A fixed-capacity array of atomically-updated VIDs.
pub struct VidMap {
    vids: Vec<AtomicU64>,
}

impl VidMap {
    /// Create with all slots unset.
    pub fn new(capacity: usize) -> VidMap {
        let mut vids = Vec::with_capacity(capacity);
        vids.resize_with(capacity, || AtomicU64::new(VID_UNSET));
        VidMap { vids }
    }

    /// Capacity in rows.
    pub fn capacity(&self) -> usize {
        self.vids.len()
    }

    /// Set slot `i` to `vid` (release ordering: pairs with readers'
    /// acquire so a row's column data — written before the VID — is
    /// visible once the VID is).
    #[inline]
    pub fn set(&self, i: usize, vid: Vid) {
        self.vids[i].store(vid.get(), Ordering::Release);
    }

    /// Read slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.vids[i].load(Ordering::Acquire)
    }

    /// Largest set VID (None when nothing set).
    pub fn max_set(&self) -> Option<u64> {
        self.vids
            .iter()
            .map(|v| v.load(Ordering::Acquire))
            .filter(|&v| v != VID_UNSET)
            .max()
    }

    /// Copy out raw values (checkpointing).
    pub fn snapshot_raw(&self) -> Vec<u64> {
        self.vids
            .iter()
            .map(|v| v.load(Ordering::Acquire))
            .collect()
    }

    /// Rebuild from raw values (checkpoint load).
    pub fn from_raw(raw: &[u64]) -> VidMap {
        VidMap {
            vids: raw.iter().map(|&v| AtomicU64::new(v)).collect(),
        }
    }
}

/// Visibility test for one row.
///
/// `insert_vid` of [`VID_UNSET`] means "not yet committed-visible"
/// (either mid-append or pre-committed, §5.5); `delete_vid` of
/// [`VID_UNSET`] means live.
#[inline]
pub fn row_visible(insert_vid: u64, delete_vid: u64, csn: u64) -> bool {
    insert_vid != VID_UNSET && insert_vid <= csn && csn < delete_vid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_rows_are_invisible() {
        let m = VidMap::new(4);
        assert!(!row_visible(m.get(0), VID_UNSET, 100));
    }

    #[test]
    fn visibility_window() {
        // Row inserted at vid 10, deleted at vid 20.
        assert!(!row_visible(10, 20, 9));
        assert!(row_visible(10, 20, 10));
        assert!(row_visible(10, 20, 19));
        assert!(!row_visible(10, 20, 20));
        assert!(!row_visible(10, 20, 25));
        // Live row.
        assert!(row_visible(10, VID_UNSET, u64::MAX - 1));
    }

    #[test]
    fn set_get() {
        let m = VidMap::new(8);
        assert_eq!(m.max_set(), None);
        m.set(3, Vid(42));
        assert_eq!(m.get(3), 42);
        assert_eq!(m.get(2), VID_UNSET);
        assert_eq!(m.max_set(), Some(42));
    }

    #[test]
    fn raw_roundtrip() {
        let m = VidMap::new(5);
        m.set(0, Vid(1));
        m.set(4, Vid(9));
        let raw = m.snapshot_raw();
        let m2 = VidMap::from_raw(&raw);
        assert_eq!(m2.get(0), 1);
        assert_eq!(m2.get(1), VID_UNSET);
        assert_eq!(m2.get(4), 9);
        assert_eq!(m2.capacity(), 5);
    }

    #[test]
    fn concurrent_sets_are_safe() {
        use std::sync::Arc;
        let m = Arc::new(VidMap::new(1000));
        let mut hs = Vec::new();
        for t in 0..4 {
            let m = m.clone();
            hs.push(std::thread::spawn(move || {
                for i in (t..1000).step_by(4) {
                    m.set(i, Vid(i as u64));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        for i in 0..1000 {
            assert_eq!(m.get(i), i as u64);
        }
    }
}
