//! Strongly-typed identifiers used throughout the system.
//!
//! The paper's update-propagation pipeline (§5) relies on four ordered
//! identifier spaces:
//!
//! * [`Lsn`] — log sequence number, the total order of REDO entries;
//! * [`Tid`] — transaction id, assigned by the RW node;
//! * [`Rid`] — row id inside a column index, assigned in insertion order;
//! * [`Vid`] — version id (a transaction commit sequence number) used by
//!   the insert/delete VID maps for MVCC visibility (§4.1).
//!
//! All are thin wrappers over `u64` so that they stay `Copy` and cheap,
//! while the newtypes prevent the classic bug of mixing, say, an LSN
//! with a RID when comparing watermarks or keying a map.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Zero value (start of the identifier space).
            pub const ZERO: $name = $name(0);
            /// Maximum value; used as a sentinel ("not yet deleted").
            pub const MAX: $name = $name(u64::MAX);

            /// Raw integer value.
            #[inline]
            pub fn get(self) -> u64 {
                self.0
            }

            /// Next identifier in sequence.
            #[inline]
            pub fn next(self) -> $name {
                $name(self.0 + 1)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Log sequence number: position of an entry in the REDO log.
    Lsn
);
id_type!(
    /// Transaction identifier assigned by the RW node.
    Tid
);
id_type!(
    /// Physical page identifier in the row store / shared storage.
    PageId
);
id_type!(
    /// Row id inside a column index: dense, assigned in insertion order
    /// (paper §4.1 — "each row is assigned an increasing and unique
    /// Row-ID by its insertion order").
    Rid
);
id_type!(
    /// Version id: the commit sequence number stamped into the insert /
    /// delete VID maps (paper §4.1).
    Vid
);
id_type!(
    /// Checkpoint sequence number (a committed-transaction [`Vid`] chosen
    /// by the RO leader, paper §7).
    Csn
);
id_type!(
    /// Table identifier in the catalog.
    TableId
);

/// TID reserved for page changes generated by the storage engine itself
/// (B+tree splits/merges, consolidations). Phase-1 replay must filter
/// these out: they are not user DMLs (paper §5.3).
pub const SYSTEM_TID: Tid = Tid(0);

/// Sentinel VID meaning "invalid / not visible" — used by the
/// large-transaction pre-commit path (paper §5.5) which writes rows with
/// invalid VIDs to keep them temporarily invisible.
pub const INVALID_VID: Vid = Vid(u64::MAX);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_increments() {
        assert_eq!(Lsn(41).next(), Lsn(42));
        assert_eq!(Rid::ZERO.next().get(), 1);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Vid(5) < Vid(7));
        assert!(Tid::MAX > Tid(12345));
    }

    #[test]
    fn sentinels() {
        assert_eq!(SYSTEM_TID, Tid(0));
        assert_eq!(INVALID_VID, Vid::MAX);
    }

    #[test]
    fn display_and_from() {
        let l: Lsn = 9u64.into();
        assert_eq!(l.to_string(), "9");
    }
}
