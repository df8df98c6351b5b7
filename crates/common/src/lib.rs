//! Shared foundation types for the PolarDB-IMCI reproduction.
//!
//! Every other crate in the workspace builds on the types defined here:
//! SQL values and data types ([`Value`], [`DataType`]), table schemas
//! ([`Schema`], [`ColumnDef`]), strongly-typed identifiers ([`Lsn`],
//! [`Tid`], [`PageId`], [`Rid`], [`Vid`]), the workspace-wide error type
//! ([`Error`]), the byte codec every stored format decodes through
//! ([`codec`]), and a fast non-cryptographic hasher for hot in-memory
//! maps.

pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod row;
pub mod schema;
pub mod value;

pub use codec::ByteReader;
pub use error::{Error, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{Csn, Lsn, PageId, Rid, TableId, Tid, Vid, INVALID_VID, SYSTEM_TID};
pub use row::{Row, RowDiff};
pub use schema::{ColumnDef, DdlOp, IndexDef, IndexKind, Schema};
pub use value::{DataType, Value};
