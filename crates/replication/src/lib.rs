//! Update propagation: CALS + 2P-COFFER (paper §5).
//!
//! One apply path keeps an RO node's dual-format storage fresh, and
//! rebuilds node state from shared storage:
//!
//! ```text
//!   REDO log (shared storage)
//!      │  reader thread (tails the log; CALS: entries ship pre-commit)
//!      ▼
//!   apply step, per read batch, in LSN order:
//!      Phase 1   page changes to the row replica + logical DMLs
//!      buffers   §5.1 transaction buffers, §5.5 pre-commit; commit
//!                records release transactions, aborts drop them
//!      Phase 2   §4.2 DML on the column indexes
//!      DDL       both formats, with nothing in flight
//!      │  all on the reader thread
//!      ▼
//!   publish: visible VID, then applied LSN (wakes strong readers)
//! ```
//!
//! * [`buffer`] — transaction buffers and the large-transaction
//!   pre-commit path;
//! * [`pipeline`] — the live reader that drives the apply step;
//! * [`mod@replay`] — rebuilding state from shared storage: the checkpoint
//!   seed, replay (the same step on one thread), checkpointing, RW crash
//!   recovery and the promotion step it shares with RO failover;
//! * [`metrics`] — counters the benches report (applied LSN, VD inputs).

mod apply;
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
