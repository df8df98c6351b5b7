//! Row-based OLTP storage engine (the "PolarDB row store" substrate).
//!
//! This crate implements the row side of the dual-format design:
//!
//! * B+tree-organized tables with 16 KiB slotted leaf pages ([`page`],
//!   [`btree`]);
//! * an LRU buffer pool over the simulated shared storage ([`bufferpool`]);
//! * a transaction manager issuing TIDs and commit sequence numbers,
//!   with undo-based rollback ([`txn`]);
//! * physiological REDO emission for every page change — user DMLs carry
//!   the user TID, B+tree structure changes carry [`imci_common::SYSTEM_TID`]
//!   (this distinction is what Phase-1 replay filters on, paper §5.3);
//! * page-level REDO application used by RO nodes' Phase-1 replay
//!   ([`apply`]), which also extracts logical DMLs with old/new images.
//!
//! The same [`engine::RowEngine`] type serves as the RW node's storage
//! engine (with a log writer attached) and as an RO node's row-store
//! replica (without one).

pub mod alloc;
pub mod apply;
pub mod btree;
pub mod bufferpool;
pub mod engine;
pub mod page;
pub mod table;
pub mod txn;

pub use alloc::PageAllocator;
pub use apply::{apply_entry, LogicalChange, LogicalDml};
pub use bufferpool::BufferPool;
pub use engine::RowEngine;
pub use page::{Page, PageKind, PAGE_BYTE_CAPACITY};
pub use table::TableRt;
pub use txn::{Txn, TxnManager, UndoOp};

/// Every entry in the shared REDO log, in order.
#[cfg(test)]
fn redo_entries(fs: polarfs_sim::PolarFs) -> Vec<imci_wal::RedoEntry> {
    let mut frames = Vec::new();
    imci_wal::LogReader::new(fs, 0)
        .read_frames_until(u64::MAX, &mut frames)
        .unwrap();
    frames.into_iter().map(|(e, _)| e).collect()
}
