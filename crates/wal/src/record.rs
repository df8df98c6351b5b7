//! REDO record types and their binary codec.

use imci_common::codec::{encode_frame, put_bytes, put_i64, put_u32, put_u64, split_frame};
use imci_common::{ByteReader, DdlOp, Lsn, PageId, Result, RowDiff, TableId, Tid, Vid};

/// Payload of a REDO entry, discriminated by record type.
///
/// `Insert`/`Update`/`Delete` act on a leaf page slot identified by the
/// row's primary key. `Smo*` records describe structure modification
/// operations; each touches exactly one page, so replay can test each
/// record against that page's `last_lsn` alone and re-applying a
/// prefix of the log is a no-op (paper §5.2: "Phase #1 is
/// page-grained").
#[derive(Debug, Clone, PartialEq)]
pub enum RedoPayload {
    /// Insert `row image` at key `pk` into a leaf page.
    Insert { pk: i64, image: Vec<u8> },
    /// Byte-differential update of the row at key `pk`.
    Update { pk: i64, diff: RowDiff },
    /// Delete the row at key `pk`.
    Delete { pk: i64 },
    /// SMO: drop all entries with key >= `from_pk` from a leaf (they
    /// moved to a sibling during a split).
    SmoTruncate { from_pk: i64 },
    /// SMO: bulk-write entries into a (possibly fresh) leaf page; used
    /// for the right sibling of a split. `next_leaf` rewires the leaf
    /// chain.
    SmoLeafWrite {
        entries: Vec<(i64, Vec<u8>)>,
        next_leaf: Option<PageId>,
    },
    /// SMO: set a leaf's next-leaf pointer.
    SmoSetNext { next_leaf: Option<PageId> },
    /// SMO: insert a separator `key`/`child` pair into an internal page.
    SmoParentInsert { key: i64, child: PageId },
    /// SMO: (re)initialize an internal page with full content.
    SmoInternalWrite {
        keys: Vec<i64>,
        children: Vec<PageId>,
    },
    /// SMO: table metadata change — new root page. `page_id` is the
    /// table's meta page.
    SmoSetRoot { root: PageId },
    /// Transaction committed; `commit_vid` is its commit sequence number
    /// (becomes the version id stamped into the column index VID maps).
    Commit { commit_vid: Vid },
    /// Transaction aborted; RO nodes drop its buffered DMLs (§5.1).
    Abort,
    /// Catalog change (CREATE/DROP/ALTER), shipped through the REDO
    /// stream so replicas apply DDL in LSN order with the data changes.
    /// `version` is the monotonically increasing catalog version; replay
    /// is idempotent (records at or below a node's version are skipped).
    Ddl {
        /// Catalog version this record advances the catalog to.
        version: u64,
        /// The catalog change itself (full serialized schema payloads).
        op: DdlOp,
    },
    /// Writer-ownership change: the first record a resumed writer
    /// (crash recovery or RO→RW promotion) appends. Purely
    /// informational for replicas — the *enforcement* is the shared
    /// storage epoch fence — but it makes ownership transitions visible
    /// in the log and pins where each writer's records start.
    EpochBump {
        /// The new writer's epoch (matches the volume's fencing
        /// register at promotion time).
        epoch: u64,
    },
}

impl RedoPayload {
    /// Numeric record-type tag (Fig. 7's "Record Type" field).
    pub fn kind_tag(&self) -> u8 {
        match self {
            RedoPayload::Insert { .. } => 1,
            RedoPayload::Update { .. } => 2,
            RedoPayload::Delete { .. } => 3,
            RedoPayload::SmoTruncate { .. } => 10,
            RedoPayload::SmoLeafWrite { .. } => 11,
            RedoPayload::SmoSetNext { .. } => 12,
            RedoPayload::SmoParentInsert { .. } => 13,
            RedoPayload::SmoInternalWrite { .. } => 14,
            RedoPayload::SmoSetRoot { .. } => 15,
            RedoPayload::Commit { .. } => 20,
            RedoPayload::Abort => 21,
            RedoPayload::Ddl { .. } => 30,
            RedoPayload::EpochBump { .. } => 40,
        }
    }

    /// Whether this is a structure-modification (system) record.
    pub fn is_smo(&self) -> bool {
        (10..20).contains(&self.kind_tag())
    }

    /// Whether this is a transaction decision record.
    pub fn is_decision(&self) -> bool {
        matches!(self, RedoPayload::Commit { .. } | RedoPayload::Abort)
    }

    /// Whether this is a catalog (DDL) record.
    pub fn is_ddl(&self) -> bool {
        matches!(self, RedoPayload::Ddl { .. })
    }
}

/// One REDO log entry (paper Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct RedoEntry {
    /// Log sequence number: order of this entry in the log.
    pub lsn: Lsn,
    /// LSN of the previous entry of the same transaction (0 = none).
    pub prev_lsn: Lsn,
    /// Transaction that produced this entry; [`imci_common::SYSTEM_TID`]
    /// for SMO records.
    pub tid: Tid,
    /// Table whose page is modified.
    pub table_id: TableId,
    /// Physical page modified by this entry.
    pub page_id: PageId,
    /// Slot hint within the page (position at emit time; replay relies
    /// on the pk instead, which is robust to concurrent reordering).
    pub slot_id: u32,
    /// Record type + differential payload.
    pub payload: RedoPayload,
}

// ---- binary codec ----
//
// Entry frame: u32 body_len | body. Body:
//   u64 lsn | u64 prev_lsn | u64 tid | u64 table_id | u64 page_id
//   | u32 slot_id | u8 kind | payload bytes.

impl RedoEntry {
    /// Encode to the framed wire format.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(68, |body| {
            put_u64(body, self.lsn.get());
            put_u64(body, self.prev_lsn.get());
            put_u64(body, self.tid.get());
            put_u64(body, self.table_id.get());
            put_u64(body, self.page_id.get());
            put_u32(body, self.slot_id);
            body.push(self.payload.kind_tag());
            match &self.payload {
                RedoPayload::Insert { pk, image } => {
                    put_i64(body, *pk);
                    put_bytes(body, image);
                }
                RedoPayload::Update { pk, diff } => {
                    put_i64(body, *pk);
                    put_u32(body, diff.new_len);
                    put_u32(body, diff.splices.len() as u32);
                    for (off, bytes) in &diff.splices {
                        put_u32(body, *off);
                        put_bytes(body, bytes);
                    }
                }
                RedoPayload::Delete { pk } => put_i64(body, *pk),
                RedoPayload::SmoTruncate { from_pk } => put_i64(body, *from_pk),
                RedoPayload::SmoLeafWrite { entries, next_leaf } => {
                    put_u32(body, entries.len() as u32);
                    for (pk, img) in entries {
                        put_i64(body, *pk);
                        put_bytes(body, img);
                    }
                    put_next_leaf(body, *next_leaf);
                }
                RedoPayload::SmoSetNext { next_leaf } => put_next_leaf(body, *next_leaf),
                RedoPayload::SmoParentInsert { key, child } => {
                    put_i64(body, *key);
                    put_u64(body, child.get());
                }
                RedoPayload::SmoInternalWrite { keys, children } => {
                    put_u32(body, keys.len() as u32);
                    for k in keys {
                        put_i64(body, *k);
                    }
                    put_u32(body, children.len() as u32);
                    for c in children {
                        put_u64(body, c.get());
                    }
                }
                RedoPayload::SmoSetRoot { root } => put_u64(body, root.get()),
                RedoPayload::Commit { commit_vid } => put_u64(body, commit_vid.get()),
                RedoPayload::Abort => {}
                RedoPayload::Ddl { version, op } => {
                    put_u64(body, *version);
                    put_bytes(body, &op.encode());
                }
                RedoPayload::EpochBump { epoch } => put_u64(body, *epoch),
            }
        })
    }

    /// Decode one framed entry from the front of `buf`.
    /// Returns `(entry, bytes_consumed)`, or `Ok(None)` if the frame is
    /// incomplete (reader should fetch more bytes). A complete frame
    /// that does not decode is an error.
    #[inline]
    pub fn decode(buf: &[u8]) -> Result<Option<(RedoEntry, usize)>> {
        let Some((body, used)) = split_frame(buf) else {
            return Ok(None);
        };
        let mut r = ByteReader::new(body, "redo entry");
        let lsn = Lsn(r.u64()?);
        let prev_lsn = Lsn(r.u64()?);
        let tid = Tid(r.u64()?);
        let table_id = TableId(r.u64()?);
        let page_id = PageId(r.u64()?);
        let slot_id = r.u32()?;
        let payload = match r.u8()? {
            1 => RedoPayload::Insert {
                pk: r.i64()?,
                image: r.bytes()?.to_vec(),
            },
            2 => RedoPayload::Update {
                pk: r.i64()?,
                diff: RowDiff {
                    new_len: r.u32()?,
                    // Offset + byte-string length.
                    splices: r.list_u32(8, |r| Ok((r.u32()?, r.bytes()?.to_vec())))?,
                },
            },
            3 => RedoPayload::Delete { pk: r.i64()? },
            10 => RedoPayload::SmoTruncate { from_pk: r.i64()? },
            11 => RedoPayload::SmoLeafWrite {
                // Key + image length.
                entries: r.list_u32(12, |r| Ok((r.i64()?, r.bytes()?.to_vec())))?,
                next_leaf: next_leaf(&mut r)?,
            },
            12 => RedoPayload::SmoSetNext {
                next_leaf: next_leaf(&mut r)?,
            },
            13 => RedoPayload::SmoParentInsert {
                key: r.i64()?,
                child: PageId(r.u64()?),
            },
            14 => {
                let keys = r.list_u32(8, |r| r.i64())?;
                let children = r.list_u32(8, |r| Ok(PageId(r.u64()?)))?;
                if children.len() != keys.len() + 1 {
                    return Err(r.error(format_args!(
                        "internal write has {} keys but {} children",
                        keys.len(),
                        children.len()
                    )));
                }
                RedoPayload::SmoInternalWrite { keys, children }
            }
            15 => RedoPayload::SmoSetRoot {
                root: PageId(r.u64()?),
            },
            20 => RedoPayload::Commit {
                commit_vid: Vid(r.u64()?),
            },
            21 => RedoPayload::Abort,
            30 => RedoPayload::Ddl {
                version: r.u64()?,
                op: DdlOp::decode(r.bytes()?)?.0,
            },
            40 => RedoPayload::EpochBump { epoch: r.u64()? },
            t => return Err(r.error(format_args!("unknown record type {t}"))),
        };
        let entry = RedoEntry {
            lsn,
            prev_lsn,
            tid,
            table_id,
            page_id,
            slot_id,
            payload,
        };
        Ok(Some((entry, used)))
    }
}

fn put_next_leaf(out: &mut Vec<u8>, next_leaf: Option<PageId>) {
    put_u64(out, next_leaf.map_or(u64::MAX, |p| p.get()));
}

fn next_leaf(r: &mut ByteReader<'_>) -> Result<Option<PageId>> {
    let nl = r.u64()?;
    Ok((nl != u64::MAX).then_some(PageId(nl)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::SYSTEM_TID;

    fn roundtrip(p: RedoPayload) {
        let e = RedoEntry {
            lsn: Lsn(42),
            prev_lsn: Lsn(17),
            tid: Tid(5),
            table_id: TableId(3),
            page_id: PageId(99),
            slot_id: 7,
            payload: p,
        };
        let enc = e.encode();
        let (dec, used) = RedoEntry::decode(&enc).unwrap().unwrap();
        assert_eq!(used, enc.len());
        assert_eq!(dec, e);
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(RedoPayload::Insert {
            pk: -5,
            image: vec![1, 2, 3],
        });
        roundtrip(RedoPayload::Update {
            pk: 10,
            diff: RowDiff {
                new_len: 20,
                splices: vec![(3, vec![9, 9])],
            },
        });
        roundtrip(RedoPayload::Delete { pk: 123 });
        roundtrip(RedoPayload::SmoTruncate { from_pk: 50 });
        roundtrip(RedoPayload::SmoLeafWrite {
            entries: vec![(1, vec![0xA]), (2, vec![0xB, 0xC])],
            next_leaf: Some(PageId(4)),
        });
        roundtrip(RedoPayload::SmoLeafWrite {
            entries: vec![],
            next_leaf: None,
        });
        roundtrip(RedoPayload::SmoSetNext { next_leaf: None });
        roundtrip(RedoPayload::SmoParentInsert {
            key: 7,
            child: PageId(8),
        });
        roundtrip(RedoPayload::SmoInternalWrite {
            keys: vec![10, 20],
            children: vec![PageId(1), PageId(2), PageId(3)],
        });
        roundtrip(RedoPayload::SmoSetRoot { root: PageId(77) });
        roundtrip(RedoPayload::Commit {
            commit_vid: Vid(1000),
        });
        roundtrip(RedoPayload::Abort);
        roundtrip(RedoPayload::EpochBump { epoch: 7 });
        let bump = RedoPayload::EpochBump { epoch: 7 };
        assert!(!bump.is_smo());
        assert!(!bump.is_decision());
        assert!(!bump.is_ddl());
    }

    #[test]
    fn roundtrip_ddl_records() {
        use imci_common::{ColumnDef, DataType, DdlOp, IndexDef, IndexKind, Schema};
        let schema = Schema::new(
            TableId(9),
            "tenant_t",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("payload", DataType::Str),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Column,
                    name: "ci".into(),
                    columns: vec![0, 1],
                },
            ],
        )
        .unwrap();
        roundtrip(RedoPayload::Ddl {
            version: 1,
            op: DdlOp::CreateTable {
                schema: schema.clone(),
                meta_page: PageId(12),
            },
        });
        roundtrip(RedoPayload::Ddl {
            version: 2,
            op: DdlOp::ReplaceSchema {
                schema: schema.clone(),
            },
        });
        roundtrip(RedoPayload::Ddl {
            version: 3,
            op: DdlOp::DropTable {
                table_id: TableId(9),
                name: "tenant_t".into(),
            },
        });
        let p = RedoPayload::Ddl {
            version: 3,
            op: DdlOp::DropTable {
                table_id: TableId(9),
                name: "tenant_t".into(),
            },
        };
        assert!(p.is_ddl());
        assert!(!p.is_smo());
        assert!(!p.is_decision());
    }

    #[test]
    fn incomplete_frames_return_none() {
        let e = RedoEntry {
            lsn: Lsn(1),
            prev_lsn: Lsn(0),
            tid: SYSTEM_TID,
            table_id: TableId(1),
            page_id: PageId(1),
            slot_id: 0,
            payload: RedoPayload::Abort,
        };
        let enc = e.encode();
        assert!(RedoEntry::decode(&enc[..3]).unwrap().is_none());
        assert!(RedoEntry::decode(&enc[..enc.len() - 1]).unwrap().is_none());
    }

    #[test]
    fn smo_classification() {
        assert!(RedoPayload::SmoTruncate { from_pk: 0 }.is_smo());
        assert!(!RedoPayload::Insert {
            pk: 0,
            image: vec![]
        }
        .is_smo());
        assert!(RedoPayload::Commit { commit_vid: Vid(1) }.is_decision());
        assert!(!RedoPayload::Delete { pk: 0 }.is_decision());
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut enc = RedoEntry {
            lsn: Lsn(1),
            prev_lsn: Lsn(0),
            tid: Tid(1),
            table_id: TableId(1),
            page_id: PageId(1),
            slot_id: 0,
            payload: RedoPayload::Abort,
        }
        .encode();
        // Corrupt the kind byte (last byte of the body for Abort).
        let n = enc.len();
        enc[n - 1] = 200;
        assert!(RedoEntry::decode(&enc).is_err());
    }
}
