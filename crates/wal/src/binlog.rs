//! Logical Binlog — the strawman propagation baseline (paper §3.2).
//!
//! MySQL's Binlog records row events logically (table + row values). If
//! PolarDB-IMCI shipped updates this way, the RW node would pay an
//! *extra* log stream and an *extra* fsync per commit. This module
//! implements exactly that so the Fig. 11 experiment can measure the
//! perturbation honestly.

use imci_common::codec::{encode_frame, put_bytes, put_i64, put_u64, split_frame};
use imci_common::{ByteReader, DdlOp, Result, Row, TableId, Tid};
use polarfs_sim::PolarFs;

/// Shared-storage file name of the binlog.
pub const BINLOG_NAME: &str = "binlog";

/// Kind of a logical row event.
#[derive(Debug, Clone, PartialEq)]
pub enum BinlogKind {
    /// Full new-row image.
    Insert { row: Row },
    /// Primary key + full new-row image (MySQL ROW format ships both
    /// images; we ship the key and the after-image).
    Update { pk: i64, row: Row },
    /// Primary key of the deleted row.
    Delete { pk: i64 },
    /// Transaction committed.
    Commit,
    /// Transaction rolled back.
    Abort,
    /// Catalog change (CREATE/DROP/ALTER): logical binlogs ship DDL as
    /// statements; we ship the structured op with its catalog version.
    Ddl {
        /// Catalog version this event advances the catalog to.
        version: u64,
        /// The catalog change.
        op: DdlOp,
    },
}

/// A logical binlog event.
#[derive(Debug, Clone, PartialEq)]
pub struct BinlogEvent {
    /// Producing transaction.
    pub tid: Tid,
    /// Affected table (zero for decision events).
    pub table_id: TableId,
    /// Event payload.
    pub kind: BinlogKind,
}

impl BinlogEvent {
    /// Encode to the framed wire format (u32 len + body).
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(36, |body| {
            put_u64(body, self.tid.get());
            put_u64(body, self.table_id.get());
            match &self.kind {
                BinlogKind::Insert { row } => {
                    body.push(1);
                    put_bytes(body, &row.encode());
                }
                BinlogKind::Update { pk, row } => {
                    body.push(2);
                    put_i64(body, *pk);
                    put_bytes(body, &row.encode());
                }
                BinlogKind::Delete { pk } => {
                    body.push(3);
                    put_i64(body, *pk);
                }
                BinlogKind::Commit => body.push(4),
                BinlogKind::Abort => body.push(5),
                BinlogKind::Ddl { version, op } => {
                    body.push(6);
                    put_u64(body, *version);
                    put_bytes(body, &op.encode());
                }
            }
        })
    }

    /// Decode one framed event; `Ok(None)` when the frame is incomplete.
    pub fn decode(buf: &[u8]) -> Result<Option<(BinlogEvent, usize)>> {
        let Some((body, used)) = split_frame(buf) else {
            return Ok(None);
        };
        let mut r = ByteReader::new(body, "binlog event");
        let tid = Tid(r.u64()?);
        let table_id = TableId(r.u64()?);
        let kind = match r.u8()? {
            1 => BinlogKind::Insert {
                row: Row::decode(r.bytes()?)?,
            },
            2 => BinlogKind::Update {
                pk: r.i64()?,
                row: Row::decode(r.bytes()?)?,
            },
            3 => BinlogKind::Delete { pk: r.i64()? },
            4 => BinlogKind::Commit,
            5 => BinlogKind::Abort,
            6 => BinlogKind::Ddl {
                version: r.u64()?,
                op: DdlOp::decode(r.bytes()?)?.0,
            },
            t => return Err(r.error(format_args!("unknown kind {t}"))),
        };
        Ok(Some((
            BinlogEvent {
                tid,
                table_id,
                kind,
            },
            used,
        )))
    }
}

/// Appender for the logical binlog. Appends are fenced with the
/// writer's epoch, same as the REDO stream — a deposed RW must not be
/// able to pollute *either* log (the REDO fence alone would leave the
/// Fig. 11 baseline stream writable by zombies).
pub struct BinlogWriter {
    fs: PolarFs,
    /// Writer epoch stamped on every append; stale epochs are fenced
    /// by [`PolarFs::append_fenced`].
    epoch: u64,
}

impl BinlogWriter {
    /// Create a writer over shared storage, fencing its appends with
    /// `epoch` (the owning redo writer's epoch).
    pub fn new(fs: PolarFs, epoch: u64) -> BinlogWriter {
        BinlogWriter { fs, epoch }
    }

    /// Append a row event (no fsync; that happens at commit). Fails
    /// with [`imci_common::Error::Failover`] when this writer has been
    /// fenced by a promotion.
    pub fn log_event(&self, ev: &BinlogEvent) -> Result<()> {
        self.fs
            .append_fenced(BINLOG_NAME, &ev.encode(), self.epoch)?;
        Ok(())
    }

    /// Append the commit event and fsync — the extra commit-path cost.
    pub fn commit(&self, tid: Tid) -> Result<()> {
        self.log_event(&BinlogEvent {
            tid,
            table_id: TableId::ZERO,
            kind: BinlogKind::Commit,
        })?;
        self.fs.fsync(BINLOG_NAME);
        Ok(())
    }

    /// Append an abort event.
    pub fn abort(&self, tid: Tid) -> Result<()> {
        self.log_event(&BinlogEvent {
            tid,
            table_id: TableId::ZERO,
            kind: BinlogKind::Abort,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{Error, Value};

    #[test]
    fn event_roundtrip() {
        let evs = vec![
            BinlogEvent {
                tid: Tid(1),
                table_id: TableId(2),
                kind: BinlogKind::Insert {
                    row: Row::new(vec![Value::Int(1), Value::Str("x".into())]),
                },
            },
            BinlogEvent {
                tid: Tid(1),
                table_id: TableId(2),
                kind: BinlogKind::Update {
                    pk: 1,
                    row: Row::new(vec![Value::Int(1), Value::Str("y".into())]),
                },
            },
            BinlogEvent {
                tid: Tid(1),
                table_id: TableId(2),
                kind: BinlogKind::Delete { pk: 1 },
            },
            BinlogEvent {
                tid: Tid(1),
                table_id: TableId::ZERO,
                kind: BinlogKind::Commit,
            },
            BinlogEvent {
                tid: Tid(2),
                table_id: TableId(3),
                kind: BinlogKind::Ddl {
                    version: 4,
                    op: DdlOp::DropTable {
                        table_id: TableId(3),
                        name: "t3".into(),
                    },
                },
            },
        ];
        let mut buf = Vec::new();
        for e in &evs {
            buf.extend_from_slice(&e.encode());
        }
        let mut pos = 0;
        let mut out = Vec::new();
        while let Some((e, used)) = BinlogEvent::decode(&buf[pos..]).unwrap() {
            out.push(e);
            pos += used;
        }
        assert_eq!(out, evs);
    }

    #[test]
    fn ddl_event_roundtrips_full_schema() {
        use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, PageId, Schema};
        let schema = Schema::new(
            TableId(5),
            "t5",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("d", DataType::Date),
                ColumnDef::new("x", DataType::Double),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Secondary,
                    name: "d_idx".into(),
                    columns: vec![1],
                },
            ],
        )
        .unwrap();
        for op in [
            DdlOp::CreateTable {
                schema: schema.clone(),
                meta_page: PageId(77),
            },
            DdlOp::ReplaceSchema { schema },
        ] {
            let ev = BinlogEvent {
                tid: Tid(9),
                table_id: op.table_id(),
                kind: BinlogKind::Ddl { version: 11, op },
            };
            let enc = ev.encode();
            let (dec, used) = BinlogEvent::decode(&enc).unwrap().unwrap();
            assert_eq!(used, enc.len());
            assert_eq!(dec, ev);
        }
    }

    #[test]
    fn stale_epoch_binlog_appends_are_fenced() {
        let fs = PolarFs::instant();
        let w = BinlogWriter::new(fs.clone(), fs.current_epoch());
        let ev = BinlogEvent {
            tid: Tid(1),
            table_id: TableId(2),
            kind: BinlogKind::Delete { pk: 1 },
        };
        w.log_event(&ev).unwrap();
        w.commit(Tid(1)).unwrap();
        let len_before = fs.log_len(BINLOG_NAME);
        // A promotion bumps the volume epoch: the zombie's event,
        // commit, and abort appends are all rejected and leave the
        // binlog untouched.
        fs.bump_epoch();
        for err in [
            w.log_event(&ev).unwrap_err(),
            w.commit(Tid(2)).unwrap_err(),
            w.abort(Tid(2)).unwrap_err(),
        ] {
            assert!(matches!(err, Error::Failover(_)), "got {err}");
        }
        assert_eq!(fs.log_len(BINLOG_NAME), len_before);
        // The promoted writer's binlog appends go through.
        let w2 = BinlogWriter::new(fs.clone(), fs.current_epoch());
        w2.commit(Tid(3)).unwrap();
        assert!(fs.log_len(BINLOG_NAME) > len_before);
    }

    #[test]
    fn binlog_is_larger_than_diff_logging_for_updates() {
        // The core of the paper's argument: logical events carry full
        // after-images; redo diffs carry only the changed bytes.
        let wide_row = Row::new(vec![
            Value::Int(1),
            Value::Str("a".repeat(150)),
            Value::Int(2),
        ]);
        let ev = BinlogEvent {
            tid: Tid(1),
            table_id: TableId(1),
            kind: BinlogKind::Update {
                pk: 1,
                row: wide_row.clone(),
            },
        };
        let mut new_row = wide_row.clone();
        new_row.values[2] = Value::Int(3);
        let diff = imci_common::RowDiff::between(&wide_row.encode(), &new_row.encode());
        assert!(ev.encode().len() > 4 * diff.payload_size());
    }
}
