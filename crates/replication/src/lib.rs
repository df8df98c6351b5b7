//! Update propagation: CALS + 2P-COFFER (paper §5).
//!
//! The pipeline that keeps an RO node's dual-format storage fresh:
//!
//! ```text
//!   REDO log (shared storage)
//!      │  reader thread (tails the log; CALS: entries ship pre-commit)
//!      ▼
//!   Phase-1 workers        ── hash(page_id) % N, conflict-free ──
//!      │  apply page changes to the RO row replica,
//!      │  reconstruct logical DMLs with old/new images
//!      ▼
//!   collector thread       ── re-sorts by LSN, fills transaction
//!      │                      buffers, pre-commits large txns (§5.5)
//!      ▼  (commit record seen → buffer becomes a committed txn)
//!   Phase-2 dispatcher     ── hash(primary key) % M, conflict-free ──
//!      ▼
//!   Phase-2 workers        ── §4.2 DML on the column indexes,
//!                             batch commit advances the watermark
//! ```
//!
//! * [`buffer`] — transaction buffers and the large-transaction
//!   pre-commit path;
//! * [`pipeline`] — the threaded 2P-COFFER implementation;
//! * [`mod@replay`] — rebuilding state from shared storage: the checkpoint
//!   seed, single-threaded replay, checkpointing, RW crash recovery and
//!   the promotion step it shares with RO failover;
//! * [`metrics`] — counters the benches report (applied LSN, VD inputs).

pub mod buffer;
pub mod metrics;
pub mod pipeline;
pub mod replay;

pub use buffer::{CommittedTxn, TxnBuffers, TxnOp};
pub use imci_core::LogPosition;
pub use metrics::ReplicationMetrics;
pub use pipeline::{Pipeline, ReplicationConfig, ShipMode};
pub use replay::{
    promote, recover_writer, replay, seed, take_checkpoint, RecoveryReport, Replayed, ReplicaState,
    Stop,
};
