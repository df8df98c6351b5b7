//! Replication pipeline counters and watermarks.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shared metrics of one RO node's replication pipeline. Watermarks are
/// what the proxy's consistency levels (paper §6.4) and the Fig. 14 LSN
/// delay plot read.
#[derive(Default, Debug)]
pub struct ReplicationMetrics {
    /// REDO entries read off shared storage.
    pub entries_read: AtomicU64,
    /// Logical DMLs reconstructed by Phase 1.
    pub dmls_extracted: AtomicU64,
    /// Commit records applied.
    pub txns_committed: AtomicU64,
    /// Transactions dropped by abort records.
    pub txns_aborted: AtomicU64,
    /// Read batches applied and published.
    pub batches: AtomicU64,
    /// Large-transaction pre-commits (§5.5).
    pub precommits: AtomicU64,
    /// DDL log records applied to this node's catalog (versioned
    /// catalog replication; idempotent replays are not counted).
    pub ddls_applied: AtomicU64,
    /// Highest LSN read from the log (reader progress).
    pub read_lsn: AtomicU64,
    /// Highest transaction id seen in the log. A promoted node resumes
    /// TID assignment above this so the log never sees a TID reused.
    pub max_tid: AtomicU64,
    /// Highest commit-record LSN fully applied to the column store —
    /// the node's **applied LSN** (§6.4).
    pub applied_lsn: AtomicU64,
    /// Highest VID visible to readers.
    pub visible_vid: AtomicU64,
    /// Waiters parked on applied-LSN advance (strong-consistency
    /// routing, `wait_sync`, visibility-delay probes). Notified by
    /// [`ReplicationMetrics::advance_applied`] so nobody spins.
    applied_mutex: Mutex<()>,
    applied_cv: Condvar,
}

impl ReplicationMetrics {
    /// Applied LSN (strong-consistency routing input).
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::SeqCst)
    }

    /// Publish a new applied LSN and wake every parked waiter. The
    /// notification happens under the waiter mutex, so a waiter that
    /// checked the watermark before this store cannot miss the wakeup.
    pub fn advance_applied(&self, lsn: u64) {
        let prev = self.applied_lsn.fetch_max(lsn, Ordering::SeqCst);
        if lsn > prev {
            let _guard = self.applied_mutex.lock();
            self.applied_cv.notify_all();
        }
    }

    /// Block (without spinning) until the applied LSN reaches `lsn`;
    /// returns `false` on timeout. Replaces the yield/spin loops that
    /// used to burn a full core during strong-consistency waits.
    pub fn wait_applied_at_least(&self, lsn: u64, timeout: Duration) -> bool {
        if self.applied_lsn() >= lsn {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut guard = self.applied_mutex.lock();
        while self.applied_lsn() < lsn {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.applied_cv.wait_for(&mut guard, deadline - now);
        }
        true
    }

    /// Reader progress LSN.
    pub fn read_lsn(&self) -> u64 {
        self.read_lsn.load(Ordering::SeqCst)
    }

    /// Visible VID watermark.
    pub fn visible_vid(&self) -> u64 {
        self.visible_vid.load(Ordering::SeqCst)
    }

    /// One-line summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "entries={} dmls={} committed={} aborted={} batches={} precommits={} ddls={} read_lsn={} applied_lsn={}",
            self.entries_read.load(Ordering::Relaxed),
            self.dmls_extracted.load(Ordering::Relaxed),
            self.txns_committed.load(Ordering::Relaxed),
            self.txns_aborted.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.precommits.load(Ordering::Relaxed),
            self.ddls_applied.load(Ordering::Relaxed),
            self.read_lsn(),
            self.applied_lsn(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_applied_blocks_until_advance() {
        use std::sync::Arc;
        let m = Arc::new(ReplicationMetrics::default());
        assert!(!m.wait_applied_at_least(5, Duration::from_millis(20)));
        let waiter = {
            let m = m.clone();
            std::thread::spawn(move || m.wait_applied_at_least(5, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        m.advance_applied(3);
        m.advance_applied(7);
        assert!(waiter.join().unwrap());
        // Watermark never regresses.
        m.advance_applied(2);
        assert_eq!(m.applied_lsn(), 7);
        // Already-satisfied waits return immediately.
        assert!(m.wait_applied_at_least(7, Duration::from_millis(1)));
    }

    #[test]
    fn summary_contains_counters() {
        let m = ReplicationMetrics::default();
        m.txns_committed.store(7, Ordering::Relaxed);
        m.applied_lsn.store(42, Ordering::SeqCst);
        let s = m.summary();
        assert!(s.contains("committed=7"));
        assert!(s.contains("applied_lsn=42"));
    }
}
