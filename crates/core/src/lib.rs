//! In-Memory Column Index (IMCI) — the primary contribution of
//! *PolarDB-IMCI: A Cloud-Native HTAP Database System at Alibaba*
//! (SIGMOD 2023), reimplemented as a standalone Rust library.
//!
//! The column index is *complementary storage* beside a row store
//! (paper §4): tables are divided into append-only **row groups** of
//! 64 Ki rows; within a group each column forms a **Data Pack**
//! (compressed when the group seals, mutable "Partial Pack" while it is
//! the tail). Rows live in *insertion order* and are addressed by dense
//! **RIDs**; a two-layer LSM **RID locator** maps primary keys to RIDs.
//! MVCC visibility is provided by per-group **insert/delete VID maps**:
//! updates are out-of-place (delete + append), so writers never contend
//! on a row slot and ingestion stays fast — the property the paper's
//! freshness results (Figs. 12/13) rest on.
//!
//! Module map:
//! * [`column`] — mutable typed columns (Partial Packs);
//! * [`pack`] — compressed immutable packs + min/max/histogram metadata;
//! * [`selvec`] — sorted selection vectors for late-materialized scans;
//! * [`vidmap`] — insert/delete version maps and the visibility rule;
//! * [`locator`] — the two-layer LSM RID locator;
//! * [`rowgroup`] — row groups tying the above together;
//! * [`index`] — the per-table [`ColumnIndex`] with §4.2 DML semantics;
//! * [`compaction`] — §4.3 hole reclamation;
//! * [`checkpoint`] — §7 checkpoints on shared storage;
//! * [`store`] — the per-node collection of indexes.

pub mod checkpoint;
pub mod column;
pub mod compaction;
pub mod index;
pub mod locator;
pub mod pack;
pub mod rowgroup;
pub mod selvec;
pub mod store;
pub mod vidmap;

pub use checkpoint::{
    build_from_rows, ckpt_catalog_key, ckpt_rowpages_prefix, decode_vids, encode_vids,
    latest_checkpoint, load_index, read_meta, write_checkpoint, CheckpointMeta, LogPosition,
};
pub use column::{ColumnData, Dictionary};
pub use compaction::{compact, CompactionReport};
pub use index::{ColumnIndex, PinnedGroup, Snapshot, DEFAULT_GROUP_CAPACITY};
pub use locator::{LocatorSnapshot, RidLocator};
pub use pack::{BitPacked, Bitmap, Pack, PackData, PackMeta};
pub use rowgroup::{ColumnRead, ColumnSlot, RowGroup};
pub use selvec::SelVec;
pub use store::ColumnStore;
pub use vidmap::{row_visible, VidMap, VID_UNSET};
