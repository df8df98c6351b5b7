//! I/O accounting for the simulated shared storage.
//!
//! The perturbation experiment (Fig. 11) attributes OLTP throughput loss
//! to *extra fsyncs and log volume* on the commit path; these counters
//! are how the bench harness proves that attribution in the repro.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic I/O counters. All methods are lock-free.
#[derive(Default, Debug)]
pub struct IoStats {
    appends: AtomicU64,
    bytes_appended: AtomicU64,
    fsyncs: AtomicU64,
    log_reads: AtomicU64,
    bytes_log_read: AtomicU64,
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    object_puts: AtomicU64,
    object_gets: AtomicU64,
    object_bytes: AtomicU64,
}

impl IoStats {
    pub(crate) fn record_append(&self, bytes: usize) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes_appended
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_log_read(&self, bytes: usize) {
        self.log_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_log_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_page_read(&self, _bytes: usize) {
        self.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_page_write(&self, _bytes: usize) {
        self.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_object_put(&self, bytes: usize) {
        self.object_puts.fetch_add(1, Ordering::Relaxed);
        self.object_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_object_get(&self, bytes: usize) {
        self.object_gets.fetch_add(1, Ordering::Relaxed);
        self.object_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Number of append calls.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Total bytes appended across all logs.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended.load(Ordering::Relaxed)
    }

    /// Number of fsync calls.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Number of log read calls.
    pub fn log_reads(&self) -> u64 {
        self.log_reads.load(Ordering::Relaxed)
    }

    /// Total bytes returned by log reads.
    pub fn bytes_log_read(&self) -> u64 {
        self.bytes_log_read.load(Ordering::Relaxed)
    }

    /// Number of page reads served by shared storage (buffer-pool misses).
    pub fn page_reads(&self) -> u64 {
        self.page_reads.load(Ordering::Relaxed)
    }

    /// Number of page write-backs.
    pub fn page_writes(&self) -> u64 {
        self.page_writes.load(Ordering::Relaxed)
    }

    /// Number of checkpoint-object writes.
    pub fn object_puts(&self) -> u64 {
        self.object_puts.load(Ordering::Relaxed)
    }

    /// Number of checkpoint-object reads.
    pub fn object_gets(&self) -> u64 {
        self.object_gets.load(Ordering::Relaxed)
    }

    /// One-line summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "appends={} bytes={} fsyncs={} log_reads={} page_reads={} page_writes={} obj_puts={} obj_gets={}",
            self.appends(),
            self.bytes_appended(),
            self.fsyncs(),
            self.log_reads(),
            self.page_reads(),
            self.page_writes(),
            self.object_puts(),
            self.object_gets(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.record_append(100);
        s.record_append(28);
        s.record_fsync();
        assert_eq!(s.appends(), 2);
        assert_eq!(s.bytes_appended(), 128);
        assert_eq!(s.fsyncs(), 1);
        assert!(s.summary().contains("fsyncs=1"));
        s.record_log_read(40);
        s.record_log_read(2);
        assert_eq!((s.log_reads(), s.bytes_log_read()), (2, 42));
    }
}
