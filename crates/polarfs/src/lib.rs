//! Simulated PolarFS: the shared storage layer of PolarDB-IMCI.
//!
//! The real PolarFS (Cao et al., VLDB'18) is a user-space distributed
//! file system reached over RDMA. Every experiment in the paper depends
//! only on its *interface* and *relative* latencies, so this crate
//! provides an in-process stand-in with three facilities:
//!
//! * **append-only log files** — the REDO log and Binlog live here;
//!   writers append, readers read from arbitrary offsets, `fsync` incurs
//!   a configurable latency (this is what makes the Binlog baseline in
//!   Fig. 11 measurably slower);
//! * **a page store** — the row store spills/loads 16 KiB pages;
//! * **an object store** — column-index checkpoints (sealed packs, VID
//!   map snapshots, locator snapshots) are persisted as named objects,
//!   which is what new RO nodes load during scale-out (Fig. 14).
//!
//! All state is shared via `Arc`, so the RW node and every RO node in a
//! simulated cluster literally share storage, like the real system.

pub mod latency;
pub mod stats;

use bytes::Bytes;
use imci_common::{Error, PageId, Result};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use latency::LatencyProfile;
pub use stats::IoStats;

/// Size of one log segment. Every segment is allocated at this
/// capacity and never reallocated.
pub const LOG_SEGMENT_BYTES: usize = 1 << 20;

/// Contents of an append-only log: fixed-size segments filled in order,
/// so a growing log never copies what it holds and never reserves more
/// than one segment beyond its length. Reads copy the requested range
/// across segment boundaries.
#[derive(Default)]
struct Segments {
    /// Every segment but the last is full.
    segs: Vec<Vec<u8>>,
    /// Total bytes appended.
    len: u64,
}

impl Segments {
    fn append(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        while !bytes.is_empty() {
            let room = match self.segs.last() {
                Some(seg) if seg.len() < LOG_SEGMENT_BYTES => LOG_SEGMENT_BYTES - seg.len(),
                _ => {
                    self.segs.push(Vec::with_capacity(LOG_SEGMENT_BYTES));
                    LOG_SEGMENT_BYTES
                }
            };
            let (head, rest) = bytes.split_at(room.min(bytes.len()));
            self.segs.last_mut().unwrap().extend_from_slice(head);
            bytes = rest;
        }
    }

    /// Copy of `[off, off + max)` clipped to the log's end.
    fn read(&self, off: u64, max: usize) -> Vec<u8> {
        if off >= self.len {
            return Vec::new();
        }
        let end = self.len.min(off.saturating_add(max as u64));
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut pos = off;
        while pos < end {
            let seg = &self.segs[(pos / LOG_SEGMENT_BYTES as u64) as usize];
            let start = (pos % LOG_SEGMENT_BYTES as u64) as usize;
            let take = ((end - pos) as usize).min(seg.len() - start);
            out.extend_from_slice(&seg[start..start + take]);
            pos += take as u64;
        }
        out
    }

    /// Bytes the segments occupy, reserved capacity included.
    fn bytes_held(&self) -> u64 {
        self.segs.iter().map(|s| s.capacity() as u64).sum()
    }
}

/// A single append-only file (e.g. the REDO log).
struct LogFile {
    /// Contents; appends fill the tail segment.
    data: Mutex<Segments>,
    /// Bytes made durable by the last fsync.
    synced_len: Mutex<u64>,
    /// Signalled on every append so tail-readers can block.
    grew: Condvar,
}

/// Handle to the simulated shared storage. Cheap to clone.
#[derive(Clone)]
pub struct PolarFs {
    inner: Arc<FsInner>,
}

/// Writer-liveness register state ([`PolarFs::heartbeat`]).
struct LeaseState {
    /// Epoch of the writer that stamped the last beat.
    epoch: u64,
    /// Monotonic beat counter; waiters key off it, not wall time.
    beats: u64,
    /// When the last beat landed (`None` before the first beat).
    last_beat: Option<std::time::Instant>,
}

/// Snapshot of the lease register, returned by [`PolarFs::lease`].
#[derive(Debug, Clone, Copy)]
pub struct LeaseInfo {
    /// Epoch of the writer that stamped the last beat.
    pub epoch: u64,
    /// Total beats stamped since the volume was created.
    pub beats: u64,
    /// Time since the last beat (`None` before the first beat).
    pub age: Option<std::time::Duration>,
}

struct FsInner {
    logs: RwLock<BTreeMap<String, Arc<LogFile>>>,
    pages: RwLock<BTreeMap<(String, PageId), Bytes>>,
    objects: RwLock<BTreeMap<String, Bytes>>,
    latency: LatencyProfile,
    stats: IoStats,
    /// Volume-wide writer epoch — the I/O fencing register of the real
    /// PolarFS. Log appends carry the writer's epoch; an append with a
    /// stale epoch is rejected, so after a failover bumps the register
    /// a deposed ("zombie") RW can never extend the REDO log again.
    writer_epoch: std::sync::atomic::AtomicU64,
    /// Writer-liveness lease register, fenced by the same epoch as log
    /// appends. The RW stamps it periodically; the cluster supervisor
    /// watches it to detect writer death.
    lease: Mutex<LeaseState>,
    /// Signalled on every accepted heartbeat so watchers can block.
    lease_beat: Condvar,
}

impl PolarFs {
    /// Create a fresh volume with the given latency profile.
    pub fn new(latency: LatencyProfile) -> PolarFs {
        PolarFs {
            inner: Arc::new(FsInner {
                logs: RwLock::new(BTreeMap::new()),
                pages: RwLock::new(BTreeMap::new()),
                objects: RwLock::new(BTreeMap::new()),
                latency,
                stats: IoStats::default(),
                writer_epoch: std::sync::atomic::AtomicU64::new(0),
                lease: Mutex::new(LeaseState {
                    epoch: 0,
                    beats: 0,
                    last_beat: None,
                }),
                lease_beat: Condvar::new(),
            }),
        }
    }

    /// Create a volume with zero injected latency (unit tests).
    pub fn instant() -> PolarFs {
        PolarFs::new(LatencyProfile::zero())
    }

    /// I/O statistics counters.
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// The latency profile in force.
    pub fn latency(&self) -> &LatencyProfile {
        &self.inner.latency
    }

    fn log(&self, name: &str) -> Arc<LogFile> {
        if let Some(f) = self.inner.logs.read().get(name) {
            return f.clone();
        }
        let mut w = self.inner.logs.write();
        w.entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(LogFile {
                    data: Mutex::new(Segments::default()),
                    synced_len: Mutex::new(0),
                    grew: Condvar::new(),
                })
            })
            .clone()
    }

    // ---- writer epoch (I/O fencing) ----

    /// The volume's current writer epoch.
    pub fn current_epoch(&self) -> u64 {
        self.inner
            .writer_epoch
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Advance the writer epoch and return the new value. Called by
    /// crash recovery and RO→RW promotion *before* the new writer is
    /// built: from this point every append carrying an older epoch is
    /// rejected, so the drained log tail is final.
    pub fn bump_epoch(&self) -> u64 {
        self.inner
            .writer_epoch
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1
    }

    // ---- writer lease (liveness register) ----

    /// Stamp the writer-liveness lease. Fenced exactly like
    /// [`PolarFs::append_fenced`]: a beat carrying an epoch older than
    /// the volume's writer epoch is rejected with [`Error::Failover`],
    /// so a deposed RW cannot keep looking alive (the epoch check and
    /// the stamp happen under the lease lock, so a concurrent
    /// [`PolarFs::bump_epoch`] either fences this beat or happens
    /// strictly after it). Returns the new beat counter.
    pub fn heartbeat(&self, epoch: u64) -> Result<u64> {
        let beats;
        {
            let mut lease = self.inner.lease.lock();
            let current = self.current_epoch();
            if epoch < current {
                return Err(Error::Failover(format!(
                    "heartbeat fenced: writer epoch {epoch} < volume epoch {current}"
                )));
            }
            lease.epoch = epoch;
            lease.beats += 1;
            lease.last_beat = Some(std::time::Instant::now());
            beats = lease.beats;
        }
        self.inner.lease_beat.notify_all();
        Ok(beats)
    }

    /// Snapshot the lease register: epoch and beat counter of the last
    /// accepted heartbeat, plus its age. `age == None` means no writer
    /// has ever stamped the lease.
    pub fn lease(&self) -> LeaseInfo {
        let lease = self.inner.lease.lock();
        LeaseInfo {
            epoch: lease.epoch,
            beats: lease.beats,
            age: lease.last_beat.map(|t| t.elapsed()),
        }
    }

    /// Block until the lease beat counter advances past `seen` (or the
    /// timeout elapses) and return the current counter. The cluster
    /// supervisor parks here between liveness checks instead of
    /// polling.
    pub fn wait_beat(&self, seen: u64, timeout: std::time::Duration) -> u64 {
        let mut lease = self.inner.lease.lock();
        if lease.beats > seen {
            return lease.beats;
        }
        let _ = self.inner.lease_beat.wait_for(&mut lease, timeout);
        lease.beats
    }

    // ---- append-only log files ----

    /// Append `bytes` to log `name`; returns the offset of the first
    /// written byte. Latency: per-append cost + per-KiB streaming cost.
    pub fn append(&self, name: &str, bytes: &[u8]) -> u64 {
        let f = self.log(name);
        let off;
        {
            let mut data = f.data.lock();
            off = data.len;
            data.append(bytes);
        }
        f.grew.notify_all();
        self.inner.stats.record_append(bytes.len());
        self.inner.latency.append(bytes.len());
        off
    }

    /// Fenced append: like [`PolarFs::append`] but rejected with a
    /// [`Error::Failover`] when `epoch` is older than the volume's
    /// writer epoch. The epoch check happens under the log's data lock,
    /// so a concurrent [`PolarFs::bump_epoch`] either fences this
    /// append entirely or happens strictly after it — a stale append
    /// can never slip in *during* a promotion.
    pub fn append_fenced(&self, name: &str, bytes: &[u8], epoch: u64) -> Result<u64> {
        let f = self.log(name);
        let off;
        {
            let mut data = f.data.lock();
            let current = self.current_epoch();
            if epoch < current {
                return Err(Error::Failover(format!(
                    "append to {name} fenced: writer epoch {epoch} < volume epoch {current}"
                )));
            }
            off = data.len;
            data.append(bytes);
        }
        f.grew.notify_all();
        self.inner.stats.record_append(bytes.len());
        self.inner.latency.append(bytes.len());
        Ok(off)
    }

    /// Current length of log `name` (0 if absent).
    pub fn log_len(&self, name: &str) -> u64 {
        self.log(name).data.lock().len
    }

    /// Bytes the segments of log `name` occupy (0 if absent): its
    /// length rounded up to whole segments.
    pub fn log_bytes_held(&self, name: &str) -> u64 {
        self.log(name).data.lock().bytes_held()
    }

    /// Force log `name` durable; models the fsync on the commit path.
    pub fn fsync(&self, name: &str) {
        let f = self.log(name);
        {
            let data = f.data.lock();
            *f.synced_len.lock() = data.len;
        }
        self.inner.stats.record_fsync();
        self.inner.latency.fsync();
    }

    /// Durable (fsynced) length of log `name`.
    pub fn synced_len(&self, name: &str) -> u64 {
        *self.log(name).synced_len.lock()
    }

    /// Read up to `max` bytes from `offset`; returns an owned copy.
    /// Empty result means the reader caught up with the tail.
    pub fn read_log(&self, name: &str, offset: u64, max: usize) -> Vec<u8> {
        let out = self.log(name).data.lock().read(offset, max);
        if out.is_empty() {
            return out;
        }
        self.inner.stats.record_log_read(out.len());
        self.inner.latency.read(out.len());
        out
    }

    /// Block until log `name` grows beyond `offset` (with timeout), then
    /// return its new length. Used by RO nodes tailing the REDO log —
    /// this models the "RW broadcasts its up-to-date LSN" notification
    /// (paper §5.1) without a real network.
    pub fn wait_for_growth(&self, name: &str, offset: u64, timeout: std::time::Duration) -> u64 {
        let f = self.log(name);
        let mut data = f.data.lock();
        if data.len > offset {
            return data.len;
        }
        let _ = f.grew.wait_for(&mut data, timeout);
        data.len
    }

    /// Wake every reader parked in [`PolarFs::wait_for_growth`] on log
    /// `name` without appending, so it re-checks its own exit flags
    /// now rather than after its timeout. The notify is taken under the
    /// log's lock: a reader is either already parked and wakes, or
    /// has not checked the length yet. One that read its flags just
    /// before they were raised still parks for its timeout.
    pub fn wake_log_readers(&self, name: &str) {
        let f = self.log(name);
        let _data = f.data.lock();
        f.grew.notify_all();
    }

    // ---- page store ----

    /// Persist a page image under `(space, page)`.
    pub fn write_page(&self, space: &str, page: PageId, bytes: Bytes) {
        self.inner
            .pages
            .write()
            .insert((space.to_string(), page), bytes.clone());
        self.inner.stats.record_page_write(bytes.len());
        self.inner.latency.page_write();
    }

    /// Load a page image.
    pub fn read_page(&self, space: &str, page: PageId) -> Result<Bytes> {
        let out = self
            .inner
            .pages
            .read()
            .get(&(space.to_string(), page))
            .cloned()
            .ok_or_else(|| Error::PolarFs(format!("page {page} not found in space {space}")))?;
        self.inner.stats.record_page_read(out.len());
        self.inner.latency.page_read();
        Ok(out)
    }

    /// Whether a page exists.
    pub fn page_exists(&self, space: &str, page: PageId) -> bool {
        self.inner
            .pages
            .read()
            .contains_key(&(space.to_string(), page))
    }

    // ---- object store (checkpoints) ----

    /// Store an object (overwrite allowed).
    pub fn put_object(&self, key: &str, bytes: Bytes) {
        self.inner
            .objects
            .write()
            .insert(key.to_string(), bytes.clone());
        self.inner.stats.record_object_put(bytes.len());
        self.inner.latency.object_put(bytes.len());
    }

    /// Fetch an object.
    pub fn get_object(&self, key: &str) -> Result<Bytes> {
        let out = self
            .inner
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| Error::PolarFs(format!("object {key} not found")))?;
        self.inner.stats.record_object_get(out.len());
        self.inner.latency.object_get(out.len());
        Ok(out)
    }

    /// List object keys with a given prefix, sorted.
    pub fn list_objects(&self, prefix: &str) -> Vec<String> {
        self.inner
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Delete an object if present.
    pub fn delete_object(&self, key: &str) {
        self.inner.objects.write().remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn append_and_read_back() {
        let fs = PolarFs::instant();
        let o1 = fs.append("redo", b"hello");
        let o2 = fs.append("redo", b" world");
        assert_eq!(o1, 0);
        assert_eq!(o2, 5);
        assert_eq!(fs.read_log("redo", 0, 1024), b"hello world");
        assert_eq!(fs.read_log("redo", 6, 1024), b"world");
        assert_eq!(fs.read_log("redo", 100, 1024), Vec::<u8>::new());
        assert_eq!(fs.log_len("redo"), 11);
    }

    #[test]
    fn fsync_tracks_durable_prefix() {
        let fs = PolarFs::instant();
        fs.append("redo", b"abc");
        assert_eq!(fs.synced_len("redo"), 0);
        fs.fsync("redo");
        assert_eq!(fs.synced_len("redo"), 3);
        fs.append("redo", b"d");
        assert_eq!(fs.synced_len("redo"), 3);
        assert_eq!(fs.stats().fsyncs(), 1);
    }

    #[test]
    fn page_store_roundtrip() {
        let fs = PolarFs::instant();
        let img = Bytes::from_static(b"page-image");
        fs.write_page("t1", PageId(7), img.clone());
        assert!(fs.page_exists("t1", PageId(7)));
        assert!(!fs.page_exists("t2", PageId(7)));
        assert_eq!(fs.read_page("t1", PageId(7)).unwrap(), img);
        assert!(fs.read_page("t1", PageId(8)).is_err());
    }

    #[test]
    fn object_store_roundtrip_and_listing() {
        let fs = PolarFs::instant();
        fs.put_object("ckpt/5/meta", Bytes::from_static(b"m"));
        fs.put_object("ckpt/5/pack0", Bytes::from_static(b"p0"));
        fs.put_object("other", Bytes::from_static(b"x"));
        let keys = fs.list_objects("ckpt/5/");
        assert_eq!(
            keys,
            vec!["ckpt/5/meta".to_string(), "ckpt/5/pack0".to_string()]
        );
        assert_eq!(
            fs.get_object("ckpt/5/pack0").unwrap(),
            Bytes::from_static(b"p0")
        );
        fs.delete_object("ckpt/5/meta");
        assert!(fs.get_object("ckpt/5/meta").is_err());
    }

    #[test]
    fn wait_for_growth_returns_quickly_when_data_present() {
        let fs = PolarFs::instant();
        fs.append("redo", b"xyz");
        let len = fs.wait_for_growth("redo", 0, Duration::from_millis(10));
        assert_eq!(len, 3);
    }

    #[test]
    fn wait_for_growth_wakes_on_append() {
        let fs = PolarFs::instant();
        let fs2 = fs.clone();
        let h = std::thread::spawn(move || fs2.wait_for_growth("redo", 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        fs.append("redo", b"grow");
        assert_eq!(h.join().unwrap(), 4);
    }

    #[test]
    fn epoch_fences_stale_appends() {
        let fs = PolarFs::instant();
        assert_eq!(fs.current_epoch(), 0);
        assert_eq!(fs.append_fenced("redo", b"ok", 0).unwrap(), 0);
        // Promotion bumps the register; the old epoch is fenced out.
        assert_eq!(fs.bump_epoch(), 1);
        let err = fs.append_fenced("redo", b"zombie", 0).unwrap_err();
        assert!(matches!(err, Error::Failover(_)), "got {err}");
        assert!(err.is_retryable());
        // The new writer (and any later epoch) appends fine.
        assert_eq!(fs.append_fenced("redo", b"new", 1).unwrap(), 2);
        assert_eq!(fs.read_log("redo", 0, 64), b"oknew");
        // The fenced append left no trace and counted no I/O latency.
        assert_eq!(fs.log_len("redo"), 5);
    }

    #[test]
    fn heartbeat_is_fenced_by_the_writer_epoch() {
        let fs = PolarFs::instant();
        assert!(fs.lease().age.is_none(), "no beat stamped yet");
        assert_eq!(fs.heartbeat(0).unwrap(), 1);
        assert_eq!(fs.heartbeat(0).unwrap(), 2);
        let info = fs.lease();
        assert_eq!((info.epoch, info.beats), (0, 2));
        assert!(info.age.is_some());
        // Promotion bumps the register; the deposed writer's beats are
        // rejected and leave the register untouched.
        fs.bump_epoch();
        let err = fs.heartbeat(0).unwrap_err();
        assert!(matches!(err, Error::Failover(_)), "got {err}");
        assert_eq!(fs.lease().beats, 2);
        // The new writer stamps fine.
        assert_eq!(fs.heartbeat(1).unwrap(), 3);
        assert_eq!(fs.lease().epoch, 1);
    }

    #[test]
    fn wait_beat_wakes_on_heartbeat() {
        let fs = PolarFs::instant();
        let fs2 = fs.clone();
        let h = std::thread::spawn(move || fs2.wait_beat(0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        fs.heartbeat(0).unwrap();
        assert_eq!(h.join().unwrap(), 1);
        // Already-seen beats return immediately.
        assert_eq!(fs.wait_beat(0, Duration::from_millis(1)), 1);
    }

    /// `n` bytes of a pattern that differs at every segment offset.
    fn pattern(from: usize, n: usize) -> Vec<u8> {
        (from..from + n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn append_straddling_a_segment_boundary_reads_back_whole() {
        let fs = PolarFs::instant();
        let head = LOG_SEGMENT_BYTES - 10;
        fs.append("redo", &pattern(0, head));
        assert_eq!(fs.log_bytes_held("redo"), LOG_SEGMENT_BYTES as u64);
        // 10 bytes close the first segment, 90 open the second.
        assert_eq!(fs.append("redo", &pattern(head, 100)), head as u64);
        assert_eq!(fs.log_len("redo"), head as u64 + 100);
        assert_eq!(fs.log_bytes_held("redo"), 2 * LOG_SEGMENT_BYTES as u64);
        assert_eq!(fs.read_log("redo", head as u64, 100), pattern(head, 100));
        assert_eq!(
            fs.read_log("redo", head as u64 - 5, 20),
            pattern(head - 5, 20)
        );
    }

    #[test]
    fn read_log_copies_across_three_segments() {
        let fs = PolarFs::instant();
        let total = 3 * LOG_SEGMENT_BYTES - 7;
        // Uneven appends so no append lines up with a boundary.
        let mut at = 0;
        for n in [
            LOG_SEGMENT_BYTES / 3,
            LOG_SEGMENT_BYTES,
            LOG_SEGMENT_BYTES + 5,
        ] {
            fs.append("redo", &pattern(at, n));
            at += n;
        }
        fs.append("redo", &pattern(at, total - at));
        assert_eq!(fs.log_len("redo"), total as u64);
        let from = LOG_SEGMENT_BYTES - 3;
        let n = LOG_SEGMENT_BYTES + 9;
        assert_eq!(fs.read_log("redo", from as u64, n), pattern(from, n));
        // The whole log in one read, and a read clipped at the tail.
        assert_eq!(fs.read_log("redo", 0, usize::MAX), pattern(0, total));
        assert_eq!(
            fs.read_log("redo", total as u64 - 4, 1 << 30),
            pattern(total - 4, 4)
        );
        assert_eq!(fs.stats().bytes_log_read(), (n + total + 4) as u64);
    }

    #[test]
    fn fenced_append_at_a_segment_boundary_leaves_the_log_alone() {
        let fs = PolarFs::instant();
        fs.append_fenced("redo", &pattern(0, LOG_SEGMENT_BYTES), 0)
            .unwrap();
        let held = fs.log_bytes_held("redo");
        fs.bump_epoch();
        assert!(fs.append_fenced("redo", b"zombie", 0).is_err());
        assert_eq!(fs.log_len("redo"), LOG_SEGMENT_BYTES as u64);
        assert_eq!(fs.log_bytes_held("redo"), held, "no segment opened");
        assert_eq!(
            fs.append_fenced("redo", b"new", 1).unwrap(),
            LOG_SEGMENT_BYTES as u64
        );
        assert_eq!(
            fs.read_log("redo", LOG_SEGMENT_BYTES as u64 - 1, 64),
            [pattern(LOG_SEGMENT_BYTES - 1, 1), b"new".to_vec()].concat()
        );
    }

    #[test]
    fn segments_hold_at_most_one_segment_beyond_the_length() {
        let fs = PolarFs::instant();
        let mut expect = Vec::new();
        assert_eq!(fs.log_bytes_held("redo"), 0);
        // xorshift64: random append sizes in [0, 200k) without a dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while expect.len() < 4 * LOG_SEGMENT_BYTES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (x % 200_000) as usize;
            let bytes = pattern(expect.len(), n);
            fs.append("redo", &bytes);
            expect.extend_from_slice(&bytes);
            let (len, held) = (fs.log_len("redo"), fs.log_bytes_held("redo"));
            assert_eq!(len, expect.len() as u64);
            assert!(
                held >= len && held <= len + LOG_SEGMENT_BYTES as u64,
                "{held} for {len}"
            );
        }
        assert_eq!(fs.read_log("redo", 0, usize::MAX), expect);
    }

    #[test]
    fn shared_view_across_clones() {
        let fs = PolarFs::instant();
        let other = fs.clone();
        fs.append("redo", b"shared");
        assert_eq!(other.log_len("redo"), 6);
    }
}
