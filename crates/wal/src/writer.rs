//! The REDO log writer living on the RW node.
//!
//! Responsibilities:
//! * assign LSNs and maintain per-transaction `prev_lsn` chains;
//! * append encoded entries to the shared-storage log file — entries are
//!   visible to RO nodes *immediately*, before commit, which is what
//!   makes commit-ahead log shipping possible (paper §5.1);
//! * on commit, write the decision record and fsync (group-commit
//!   boundary); in [`PropagationMode::Binlog`] also write the logical
//!   binlog and fsync it too — the strawman's extra cost (§3.2, Fig. 11).

use crate::record::{RedoEntry, RedoPayload};
use imci_common::{FxHashMap, Lsn, PageId, Result, TableId, Tid, Vid, SYSTEM_TID};
use parking_lot::Mutex;
use polarfs_sim::PolarFs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared-storage file name of the REDO log.
pub const REDO_LOG_NAME: &str = "redo.log";

/// How updates are propagated to RO nodes (ablated in Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Reuse the physical REDO log (the paper's design).
    #[default]
    ReuseRedo,
    /// Additionally ship a logical Binlog (the strawman baseline): one
    /// more log stream to append to and one more fsync per commit.
    Binlog,
}

struct WriterState {
    next_lsn: u64,
    /// prev-LSN chain per open transaction.
    txn_last_lsn: FxHashMap<Tid, Lsn>,
}

/// REDO log writer. One per RW node; thread-safe.
pub struct LogWriter {
    fs: PolarFs,
    state: Mutex<WriterState>,
    /// Highest LSN whose commit record has been made durable — the
    /// proxy's "written LSN" for strong consistency (paper §6.4).
    written_lsn: AtomicU64,
    mode: PropagationMode,
    /// Writer epoch stamped into every shared-storage append. The
    /// volume rejects appends whose epoch is older than its fencing
    /// register, so a writer deposed by recovery/promotion errors out
    /// instead of corrupting the log ([`imci_common::Error::Failover`]).
    epoch: u64,
    binlog: crate::binlog::BinlogWriter,
}

impl LogWriter {
    /// Create a writer over a fresh volume, adopting its current epoch.
    pub fn new(fs: PolarFs, mode: PropagationMode) -> Arc<LogWriter> {
        let epoch = fs.current_epoch();
        Arc::new(LogWriter {
            binlog: crate::binlog::BinlogWriter::new(fs.clone(), epoch),
            fs,
            state: Mutex::new(WriterState {
                next_lsn: 1,
                txn_last_lsn: FxHashMap::default(),
            }),
            written_lsn: AtomicU64::new(0),
            mode,
            epoch,
        })
    }

    /// Resume writing over an existing log: LSN assignment continues at
    /// `next_lsn` and the written-LSN watermark starts at
    /// `written_lsn` (the last durable commit found by replay), so
    /// strong-consistency fences never regress across a failover. The
    /// writer adopts the volume's *current* epoch — the caller must
    /// have bumped it already — and announces the ownership change with
    /// an [`RedoPayload::EpochBump`] record, the resumed log's first
    /// entry.
    pub fn resume(
        fs: PolarFs,
        mode: PropagationMode,
        next_lsn: u64,
        written_lsn: u64,
    ) -> Result<Arc<LogWriter>> {
        let epoch = fs.current_epoch();
        let w = Arc::new(LogWriter {
            binlog: crate::binlog::BinlogWriter::new(fs.clone(), epoch),
            fs,
            state: Mutex::new(WriterState {
                next_lsn: next_lsn.max(1),
                txn_last_lsn: FxHashMap::default(),
            }),
            written_lsn: AtomicU64::new(written_lsn),
            mode,
            epoch,
        });
        w.append(
            SYSTEM_TID,
            TableId::ZERO,
            PageId::ZERO,
            0,
            RedoPayload::EpochBump { epoch },
        )?;
        Ok(w)
    }

    /// Propagation mode in force.
    pub fn mode(&self) -> PropagationMode {
        self.mode
    }

    /// This writer's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Shared storage handle.
    pub fn fs(&self) -> &PolarFs {
        &self.fs
    }

    /// Append one entry; returns its LSN. The append is immediately
    /// readable by RO nodes tailing the log (CALS). Fails with a
    /// [`imci_common::Error::Failover`] when this writer has been
    /// epoch-fenced by a newer one.
    pub fn append(
        &self,
        tid: Tid,
        table_id: TableId,
        page_id: PageId,
        slot_id: u32,
        payload: RedoPayload,
    ) -> Result<Lsn> {
        let is_decision = payload.is_decision();
        // Hold the LSN lock across the storage append: LSN order must
        // equal log byte order, and a fenced append must not burn an
        // LSN (the next writer resumes from the log's true tail).
        let mut st = self.state.lock();
        let lsn = Lsn(st.next_lsn);
        let prev = if is_decision {
            st.txn_last_lsn.remove(&tid).unwrap_or(Lsn::ZERO)
        } else {
            st.txn_last_lsn.insert(tid, lsn).unwrap_or(Lsn::ZERO)
        };
        let entry = RedoEntry {
            lsn,
            prev_lsn: prev,
            tid,
            table_id,
            page_id,
            slot_id,
            payload,
        };
        match self
            .fs
            .append_fenced(REDO_LOG_NAME, &entry.encode(), self.epoch)
        {
            Ok(_) => {
                st.next_lsn += 1;
                Ok(lsn)
            }
            Err(e) => {
                // Roll the prev-LSN chain back: nothing was written.
                if is_decision {
                    if prev != Lsn::ZERO {
                        st.txn_last_lsn.insert(tid, prev);
                    }
                } else if prev == Lsn::ZERO {
                    st.txn_last_lsn.remove(&tid);
                } else {
                    st.txn_last_lsn.insert(tid, prev);
                }
                Err(e)
            }
        }
    }

    /// Write the commit record for `tid`, fsync the log(s), and publish
    /// the new written-LSN. Returns the commit record's LSN. A fenced
    /// writer fails here *before* the fsync: the transaction is not
    /// durable anywhere and the client must retry against the new RW.
    pub fn commit(&self, tid: Tid, commit_vid: Vid) -> Result<Lsn> {
        let lsn = self.append(
            tid,
            TableId::ZERO,
            PageId::ZERO,
            0,
            RedoPayload::Commit { commit_vid },
        )?;
        self.fs.fsync(REDO_LOG_NAME);
        if self.mode == PropagationMode::Binlog {
            self.binlog.commit(tid)?;
        }
        self.written_lsn.fetch_max(lsn.get(), Ordering::SeqCst);
        Ok(lsn)
    }

    /// Write an abort record for `tid` (no fsync required: aborts don't
    /// gate durability of anything).
    pub fn abort(&self, tid: Tid) -> Result<Lsn> {
        let lsn = self.append(tid, TableId::ZERO, PageId::ZERO, 0, RedoPayload::Abort)?;
        if self.mode == PropagationMode::Binlog {
            self.binlog.abort(tid)?;
        }
        Ok(lsn)
    }

    /// Logical binlog writer (used by the row engine in Binlog mode).
    pub fn binlog(&self) -> &crate::binlog::BinlogWriter {
        &self.binlog
    }

    /// Highest durably-committed LSN (the proxy's written LSN, §6.4).
    pub fn written_lsn(&self) -> Lsn {
        Lsn(self.written_lsn.load(Ordering::SeqCst))
    }

    /// Highest assigned LSN (for monitoring / LSN-delay plots, Fig. 14).
    pub fn tail_lsn(&self) -> Lsn {
        Lsn(self.state.lock().next_lsn - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::LogReader;
    use crate::record::RedoEntry;
    use polarfs_sim::PolarFs;

    fn entries(fs: PolarFs) -> Vec<RedoEntry> {
        let mut out = Vec::new();
        LogReader::new(fs, 0)
            .read_frames_until(u64::MAX, &mut out)
            .unwrap();
        out.into_iter().map(|(e, _)| e).collect()
    }

    #[test]
    fn lsns_are_dense_and_prev_chains_link() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let t = Tid(7);
        let l1 = w
            .append(
                t,
                TableId(1),
                PageId(1),
                0,
                RedoPayload::Insert {
                    pk: 1,
                    image: vec![1],
                },
            )
            .unwrap();
        let l2 = w
            .append(
                t,
                TableId(1),
                PageId(1),
                1,
                RedoPayload::Insert {
                    pk: 2,
                    image: vec![2],
                },
            )
            .unwrap();
        let l3 = w.commit(t, Vid(1)).unwrap();
        assert_eq!((l1, l2, l3), (Lsn(1), Lsn(2), Lsn(3)));

        let es = entries(fs);
        assert_eq!(es.len(), 3);
        assert_eq!(es[0].prev_lsn, Lsn::ZERO);
        assert_eq!(es[1].prev_lsn, Lsn(1));
        assert_eq!(es[2].prev_lsn, Lsn(2));
        assert_eq!(w.written_lsn(), l3);
    }

    #[test]
    fn commit_fsyncs_once_in_redo_mode() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        w.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Insert {
                pk: 1,
                image: vec![],
            },
        )
        .unwrap();
        w.commit(Tid(1), Vid(1)).unwrap();
        assert_eq!(fs.stats().fsyncs(), 1);
    }

    #[test]
    fn commit_fsyncs_twice_in_binlog_mode() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::Binlog);
        w.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Insert {
                pk: 1,
                image: vec![],
            },
        )
        .unwrap();
        w.commit(Tid(1), Vid(1)).unwrap();
        // One redo fsync + one binlog fsync: the Fig. 11 overhead.
        assert_eq!(fs.stats().fsyncs(), 2);
    }

    #[test]
    fn interleaved_transactions_keep_separate_chains() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let a = Tid(1);
        let b = Tid(2);
        w.append(a, TableId(1), PageId(1), 0, RedoPayload::Delete { pk: 1 })
            .unwrap();
        w.append(b, TableId(1), PageId(2), 0, RedoPayload::Delete { pk: 2 })
            .unwrap();
        w.append(a, TableId(1), PageId(1), 0, RedoPayload::Delete { pk: 3 })
            .unwrap();
        let es = entries(fs);
        assert_eq!(es[2].prev_lsn, es[0].lsn);
        assert_eq!(es[1].prev_lsn, Lsn::ZERO);
    }

    #[test]
    fn abort_does_not_advance_written_lsn() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs, PropagationMode::ReuseRedo);
        w.append(
            Tid(9),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Insert {
                pk: 1,
                image: vec![],
            },
        )
        .unwrap();
        w.abort(Tid(9)).unwrap();
        assert_eq!(w.written_lsn(), Lsn::ZERO);
        assert_eq!(w.tail_lsn(), Lsn(2));
    }

    #[test]
    fn fenced_writer_cannot_append_or_commit() {
        let fs = PolarFs::instant();
        let old = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        old.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Delete { pk: 1 },
        )
        .unwrap();
        let committed_before = old.commit(Tid(1), Vid(1)).unwrap();
        fs.bump_epoch();
        // The zombie writer is fenced on both paths, burns no LSN, and
        // leaves the log byte-identical.
        let len_before = fs.log_len(REDO_LOG_NAME);
        assert!(old
            .append(
                Tid(2),
                TableId(1),
                PageId(1),
                0,
                RedoPayload::Delete { pk: 2 },
            )
            .unwrap_err()
            .is_retryable());
        assert!(old.commit(Tid(2), Vid(2)).unwrap_err().is_retryable());
        assert_eq!(fs.log_len(REDO_LOG_NAME), len_before);
        assert_eq!(old.tail_lsn(), committed_before);
    }

    #[test]
    fn resume_continues_lsns_and_stamps_epoch_bump() {
        let fs = PolarFs::instant();
        let old = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        old.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Delete { pk: 1 },
        )
        .unwrap();
        let last = old.commit(Tid(1), Vid(1)).unwrap();
        fs.bump_epoch();
        let new = LogWriter::resume(
            fs.clone(),
            PropagationMode::ReuseRedo,
            last.get() + 1,
            last.get(),
        )
        .unwrap();
        assert_eq!(new.epoch(), 1);
        assert_eq!(new.written_lsn(), last, "fence floor carried over");
        new.append(
            Tid(2),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Delete { pk: 9 },
        )
        .unwrap();
        new.commit(Tid(2), Vid(2)).unwrap();
        let es = entries(fs);
        // Dense LSNs across the ownership change, with the bump record
        // marking where the new writer takes over.
        for (i, e) in es.iter().enumerate() {
            assert_eq!(e.lsn.get(), (i + 1) as u64);
        }
        assert_eq!(
            es[2].payload,
            RedoPayload::EpochBump { epoch: 1 },
            "first resumed record announces the new writer"
        );
    }
}
