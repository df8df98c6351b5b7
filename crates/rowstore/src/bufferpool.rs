//! LRU buffer pool over the simulated shared storage.
//!
//! Both the RW node and every RO node keep one. The RO-side pool is the
//! optimization called out in paper §5.3: Phase-1 replay reads old row
//! images from pages, and "REDO logs under real workloads always act on
//! hot pages so that the buffer pool has a hit rate close to 99%" — the
//! hit/miss counters here let the benches verify that claim in the repro.

use crate::page::Page;
use bytes::Bytes;
use imci_common::{Error, FxHashMap, PageId, Result};
use parking_lot::{Mutex, RwLock};
use polarfs_sim::PolarFs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared-storage namespace for row-store pages. All nodes read the
/// same space — that is the "shared storage" in the architecture figure.
pub const PAGE_SPACE: &str = "rowstore-pages";

struct Frame {
    page: Arc<RwLock<Page>>,
    last_used: AtomicU64,
}

/// A fixed-capacity page cache with LRU eviction; dirty pages are
/// written back to shared storage on eviction or explicit flush.
pub struct BufferPool {
    fs: PolarFs,
    frames: Mutex<FxHashMap<PageId, Arc<Frame>>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// Create a pool holding up to `capacity` pages.
    pub fn new(fs: PolarFs, capacity: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            fs,
            frames: Mutex::new(FxHashMap::default()),
            capacity: capacity.max(8),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Shared storage behind this pool.
    pub fn fs(&self) -> &PolarFs {
        &self.fs
    }

    fn touch(&self, f: &Frame) {
        f.last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Fetch a page, loading from shared storage on miss.
    pub fn get(&self, id: PageId) -> Result<Arc<RwLock<Page>>> {
        {
            let frames = self.frames.lock();
            if let Some(f) = frames.get(&id) {
                self.touch(f);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(f.page.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let bytes = self.fs.read_page(PAGE_SPACE, id)?;
        let page = Page::decode(&bytes)?;
        if page.id != id {
            return Err(Error::Storage(format!(
                "page store returned page {} for request {}",
                page.id, id
            )));
        }
        Ok(self.install(page))
    }

    /// Fetch a page only if it is resident in this pool (no fallback to
    /// shared storage). Replay uses this: an RO node's pages are created
    /// exclusively by its own log replay (or checkpoint load), so a miss
    /// here means the log is being consumed out of order.
    pub fn get_local(&self, id: PageId) -> Option<Arc<RwLock<Page>>> {
        let frames = self.frames.lock();
        frames.get(&id).map(|f| {
            self.touch(f);
            f.page.clone()
        })
    }

    /// Install a brand-new page (e.g. the right sibling of a split, or a
    /// page materialized by replay).
    pub fn install(&self, page: Page) -> Arc<RwLock<Page>> {
        let id = page.id;
        let mut frames = self.frames.lock();
        if let Some(existing) = frames.get(&id) {
            // Racing loads of the same page: keep the first copy.
            self.touch(existing);
            return existing.page.clone();
        }
        let frame = Arc::new(Frame {
            page: Arc::new(RwLock::new(page)),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
        });
        let out = frame.page.clone();
        frames.insert(id, frame);
        if frames.len() > self.capacity {
            self.evict_one(&mut frames);
        }
        out
    }

    fn evict_one(&self, frames: &mut FxHashMap<PageId, Arc<Frame>>) {
        // O(n) coldest-victim scan; pools in this repro are small enough
        // that a heap would be noise. Skip pages currently borrowed.
        let victim = frames
            .iter()
            .filter(|(_, f)| Arc::strong_count(&f.page) == 1)
            .min_by_key(|(_, f)| f.last_used.load(Ordering::Relaxed))
            .map(|(id, _)| *id);
        if let Some(id) = victim {
            if let Some(f) = frames.remove(&id) {
                let page = f.page.read();
                if page.dirty {
                    self.fs
                        .write_page(PAGE_SPACE, id, Bytes::from(page.encode()));
                }
            }
        }
    }

    /// Write every dirty page back to shared storage (RW checkpoint /
    /// pre-scale-out flush). Pages stay cached.
    pub fn flush_all(&self) {
        let frames: Vec<Arc<Frame>> = self.frames.lock().values().cloned().collect();
        for f in frames {
            let mut page = f.page.write();
            if page.dirty {
                self.fs
                    .write_page(PAGE_SPACE, page.id, Bytes::from(page.encode()));
                page.dirty = false;
            }
        }
    }

    /// Encode every resident page (checkpointing an RO replica whose
    /// pages exist only locally — they were materialized by log replay).
    pub fn export_pages(&self) -> Vec<(PageId, Vec<u8>)> {
        let frames: Vec<(PageId, Arc<Frame>)> = self
            .frames
            .lock()
            .iter()
            .map(|(id, f)| (*id, f.clone()))
            .collect();
        frames
            .into_iter()
            .map(|(id, f)| (id, f.page.read().encode()))
            .collect()
    }

    /// Install a page from an encoded image (checkpoint load).
    pub fn import_page(&self, bytes: &[u8]) -> Result<()> {
        let page = Page::decode(bytes)?;
        self.install(page);
        Ok(())
    }

    /// Drop a page from the pool without writing it back. Used when a
    /// table's pages are recycled (`DROP TABLE`): the stale frame must
    /// not shadow a future [`BufferPool::install`] of the reused id.
    pub fn discard(&self, id: PageId) {
        self.frames.lock().remove(&id);
    }

    /// Number of buffered pages.
    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    /// True when no pages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit rate in [0, 1]; 1.0 when no accesses yet.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            1.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    #[test]
    fn install_then_get_hits() {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs, 16);
        bp.install(Page::new_leaf(PageId(1)));
        assert!(bp.get(PageId(1)).is_ok());
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 0);
    }

    #[test]
    fn miss_loads_from_shared_storage() {
        let fs = PolarFs::instant();
        let p = Page::new_leaf(PageId(9));
        fs.write_page(PAGE_SPACE, PageId(9), Bytes::from(p.encode()));
        let bp = BufferPool::new(fs, 16);
        let got = bp.get(PageId(9)).unwrap();
        assert_eq!(got.read().id, PageId(9));
        assert_eq!(bp.misses(), 1);
        assert!(bp.get(PageId(99)).is_err());
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs.clone(), 8);
        for i in 0..40u64 {
            let mut p = Page::new_leaf(PageId(i));
            if let PageKind::Leaf { entries, .. } = &mut p.kind {
                entries.push((i as i64, vec![i as u8]));
            }
            bp.install(p);
        }
        assert!(bp.len() <= 9, "capacity respected (one transient over)");
        // Early pages were evicted and must be readable from storage.
        let reloaded = bp.get(PageId(0)).unwrap();
        assert_eq!(reloaded.read().leaf_entries().unwrap()[0].0, 0);
    }

    #[test]
    fn flush_all_clears_dirty_and_persists() {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs.clone(), 16);
        bp.install(Page::new_leaf(PageId(3)));
        bp.flush_all();
        assert!(fs.page_exists(PAGE_SPACE, PageId(3)));
        // Another pool (another node) can now read it.
        let bp2 = BufferPool::new(fs, 16);
        assert!(bp2.get(PageId(3)).is_ok());
    }

    #[test]
    fn install_is_idempotent_under_races() {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs, 16);
        let a = bp.install(Page::new_leaf(PageId(5)));
        let b = bp.install(Page::new_leaf(PageId(5)));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn hit_rate_reported() {
        let fs = PolarFs::instant();
        let bp = BufferPool::new(fs, 16);
        assert_eq!(bp.hit_rate(), 1.0);
        bp.install(Page::new_leaf(PageId(1)));
        for _ in 0..99 {
            bp.get(PageId(1)).unwrap();
        }
        let _ = bp.get(PageId(2));
        assert!(bp.hit_rate() > 0.98);
    }
}
