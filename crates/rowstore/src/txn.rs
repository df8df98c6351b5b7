//! Transactions on the RW node.
//!
//! TIDs are assigned at `begin`; commit sequence numbers ([`Vid`]) are
//! assigned at commit, under a commit mutex, so that the order of commit
//! records in the REDO log equals VID order — Phase-2 replay processes
//! transactions "in the commit order" (paper §5.4) and stamps their VIDs
//! into the column index, so the two orders must agree.
//!
//! Rollback is undo-based: the engine records inverse operations while a
//! transaction executes and applies them (as SYSTEM_TID page changes) if
//! it aborts. RO nodes therefore "simply free the transaction buffer and
//! no data need to be rolled back" on the column side (paper §5.1) while
//! their row pages are fixed up by the logged undo application.

use imci_common::{Result, Row, TableId, Tid, Vid};
use imci_wal::LogWriter;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Inverse of one executed DML, replayed on abort.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// Undo an insert: delete `pk`.
    Insert { table: TableId, pk: i64 },
    /// Undo an update: restore the old row.
    Update { table: TableId, pk: i64, old: Row },
    /// Undo a delete: re-insert the old row.
    Delete { table: TableId, pk: i64, old: Row },
}

/// An open transaction handle.
pub struct Txn {
    /// Transaction id.
    pub tid: Tid,
    /// Undo log, in execution order.
    pub(crate) undo: Vec<UndoOp>,
}

/// Issues TIDs and commit sequence numbers; owns the commit path.
pub struct TxnManager {
    next_tid: AtomicU64,
    commit_seq: AtomicU64,
    /// Serializes VID assignment with commit-record append (see module
    /// docs). The fsync inside also rides under this lock, which models
    /// a serialized group-commit pipeline.
    commit_mutex: Mutex<()>,
    /// Behind a lock so a replica engine can be flipped into writer
    /// mode in place (RO→RW promotion attaches a log writer to a
    /// manager that started unlogged).
    log: RwLock<Option<Arc<LogWriter>>>,
}

impl TxnManager {
    /// Create a manager; `log` is None for unlogged (test) engines.
    pub fn new(log: Option<Arc<LogWriter>>) -> TxnManager {
        TxnManager {
            // TID 0 is SYSTEM_TID; start user transactions at 1.
            next_tid: AtomicU64::new(1),
            commit_seq: AtomicU64::new(0),
            commit_mutex: Mutex::new(()),
            log: RwLock::new(log),
        }
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Txn {
        Txn {
            tid: Tid(self.next_tid.fetch_add(1, Ordering::SeqCst)),
            undo: Vec::new(),
        }
    }

    /// Commit: assign the VID, write + fsync the commit record. A
    /// fenced writer (deposed by failover) fails here with the commit
    /// record unwritten — the VID is not consumed and the transaction
    /// is not durable anywhere, so the client can safely retry on the
    /// new RW.
    pub fn commit(&self, txn: Txn) -> Result<Vid> {
        let _g = self.commit_mutex.lock();
        let vid = Vid(self.commit_seq.load(Ordering::SeqCst) + 1);
        if let Some(log) = self.log.read().as_ref() {
            log.commit(txn.tid, vid)?;
        }
        self.commit_seq.store(vid.get(), Ordering::SeqCst);
        Ok(vid)
    }

    /// Write the abort record (the engine has already applied undo).
    /// Best-effort on a fenced writer: the abort gates nothing.
    pub fn log_abort(&self, tid: Tid) {
        if let Some(log) = self.log.read().as_ref() {
            let _ = log.abort(tid);
        }
    }

    /// Highest commit sequence number issued.
    pub fn last_commit_vid(&self) -> Vid {
        Vid(self.commit_seq.load(Ordering::SeqCst))
    }

    /// The attached log writer, if any.
    pub fn log(&self) -> Option<Arc<LogWriter>> {
        self.log.read().clone()
    }

    /// Attach a log writer and fast-forward the counters — the
    /// writer-mode flip of crash recovery / RO→RW promotion. `next_tid`
    /// must exceed every TID in the log (a reused TID would corrupt the
    /// prev-LSN chains); `commit_seq` is the highest committed VID, so
    /// the first post-promotion commit continues the VID sequence the
    /// column-store watermarks advance on.
    pub fn promote(&self, log: Arc<LogWriter>, next_tid: u64, commit_seq: u64) {
        let _g = self.commit_mutex.lock();
        self.next_tid.fetch_max(next_tid, Ordering::SeqCst);
        self.commit_seq.fetch_max(commit_seq, Ordering::SeqCst);
        *self.log.write() = Some(log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_wal::{PropagationMode, RedoPayload};
    use polarfs_sim::PolarFs;

    #[test]
    fn tids_and_vids_are_dense() {
        let m = TxnManager::new(None);
        let t1 = m.begin();
        let t2 = m.begin();
        assert_eq!(t1.tid, Tid(1));
        assert_eq!(t2.tid, Tid(2));
        assert_eq!(m.commit(t1).unwrap(), Vid(1));
        assert_eq!(m.commit(t2).unwrap(), Vid(2));
        assert_eq!(m.last_commit_vid(), Vid(2));
    }

    #[test]
    fn fenced_commit_burns_no_vid_and_is_retryable() {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let m = TxnManager::new(Some(log));
        m.commit(m.begin()).unwrap();
        fs.bump_epoch(); // a new writer took over
        let err = m.commit(m.begin()).unwrap_err();
        assert!(err.is_retryable(), "failover errors are retryable");
        assert_eq!(
            m.last_commit_vid(),
            Vid(1),
            "a fenced commit must not consume a VID: the next writer \
             resumes the VID sequence from the log"
        );
    }

    #[test]
    fn commit_records_appear_in_vid_order() {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let m = Arc::new(TxnManager::new(Some(log)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let t = m.begin();
                    m.commit(t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = 0u64;
        for e in crate::redo_entries(fs) {
            if let RedoPayload::Commit { commit_vid } = e.payload {
                assert!(
                    commit_vid.get() > last,
                    "VIDs must be monotone in log order"
                );
                last = commit_vid.get();
            }
        }
        assert_eq!(last, 400);
    }
}
