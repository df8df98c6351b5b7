//! Column-index checkpoints on shared storage (paper §7).
//!
//! A checkpoint is a named set of objects under `ckpt/<seq>/...`:
//!
//! * `meta` — the [`LogPosition`] covered (CSN, REDO cursor, last and
//!   applied LSN, max TID), group layout, next RID;
//! * `t<table>/g<gid>/c<col>` — each column of each group, stored as an
//!   encoded [`Pack`] (partial packs are sealed copy-on-write for the
//!   snapshot — the live group is untouched);
//! * `t<table>/g<gid>/vids` — insert/delete VID maps, masked at the CSN
//!   ("if VIDs exceed the CSN, the elements will be marked as invalid");
//! * `t<table>/locator` — the RID locator snapshot (immutable-run clone).
//!
//! New RO nodes load the newest checkpoint and replay the REDO suffix
//! from the recorded cursor — the tens-of-seconds scale-out of Fig. 14
//! (`imci_replication::replay` builds and loads checkpoints).

use crate::index::ColumnIndex;
use crate::locator::RidLocator;
use crate::pack::Pack;
use crate::rowgroup::{ColumnSlot, RowGroup};
use bytes::Bytes;
use imci_common::codec::put_u64;
use imci_common::{ByteReader, Error, Result, Rid, Schema, TableId};
use polarfs_sim::PolarFs;
use std::sync::Arc;

/// Where a rebuilt state sits in the REDO log. The byte `offset` is
/// always a transaction boundary — no transaction has entries on both
/// sides of it — and the counters cover every entry before it, so a
/// node resuming from here needs nothing from the log prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogPosition {
    /// REDO byte offset of the first entry not covered.
    pub offset: u64,
    /// LSN of the last entry covered.
    pub last_lsn: u64,
    /// LSN of the last commit record covered (the applied LSN).
    pub applied_lsn: u64,
    /// Highest transaction id covered.
    pub max_tid: u64,
    /// Highest committed VID covered — a checkpoint's CSN (§7).
    pub max_vid: u64,
}

/// Checkpoint descriptor (parsed `meta` object).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    /// Log position the checkpointed state covers.
    pub position: LogPosition,
    /// Per-table group layout: (table, group count, next_rid, rows
    /// written in the last partial group).
    pub tables: Vec<CkptTable>,
}

/// Per-table layout inside a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptTable {
    /// Table id.
    pub table_id: TableId,
    /// Number of row groups captured.
    pub n_groups: u32,
    /// RID allocation high-water mark.
    pub next_rid: u64,
    /// Sealed flags per group.
    pub sealed: Vec<bool>,
    /// Rows written per group.
    pub written: Vec<u32>,
}

fn prefix(seq: u64) -> String {
    format!("ckpt/{seq:012}/")
}

/// Object key of checkpoint `seq`'s catalog snapshot (written by the
/// checkpointing replayer, read at node bring-up). The snapshot embeds
/// the catalog version so DDL records after the checkpoint's redo
/// cursor apply exactly once.
pub fn ckpt_catalog_key(seq: u64) -> String {
    format!("{}catalog", prefix(seq))
}

/// Object-key prefix of checkpoint `seq`'s row-page images (written by
/// the checkpointing replayer; read by scale-out and RW crash
/// recovery).
pub fn ckpt_rowpages_prefix(seq: u64) -> String {
    format!("{}rowpages/", prefix(seq))
}

/// Write a checkpoint of `indexes` covering `position`; the meta object
/// is written last, so write the catalog and row pages first.
///
/// The caller must have applied exactly the log up to `position` and
/// nothing after it, so that the visible state equals its CSN.
pub fn write_checkpoint(
    fs: &PolarFs,
    seq: u64,
    position: &LogPosition,
    indexes: &[Arc<ColumnIndex>],
) -> Result<()> {
    let p = prefix(seq);
    let csn = position.max_vid;
    let mut meta = format!(
        "csn\t{csn}\nredo\t{}\nlast_lsn\t{}\napplied_lsn\t{}\nmax_tid\t{}\n",
        position.offset, position.last_lsn, position.applied_lsn, position.max_tid
    );
    for index in indexes {
        let groups = index.groups();
        meta.push_str(&format!(
            "table\t{}\t{}\t{}\t",
            index.table_id.get(),
            groups.len(),
            index.next_rid()
        ));
        let sealed: Vec<String> = groups
            .iter()
            .map(|g| {
                if g.is_sealed() {
                    "1".into()
                } else {
                    "0".into()
                }
            })
            .collect();
        meta.push_str(&sealed.join(","));
        meta.push('\t');
        let written: Vec<String> = groups
            .iter()
            .map(|g| g.rows_written().to_string())
            .collect();
        meta.push_str(&written.join(","));
        meta.push('\n');

        for g in &groups {
            // Packs are immutable once sealed; partial groups are sealed
            // copy-on-write just for the snapshot.
            for c in 0..g.width() {
                let pack = match g.column_pack(c) {
                    Some(p) => p,
                    None => {
                        let col = match g.read_column(c) {
                            crate::rowgroup::ColumnRead::Materialized(col) => col,
                            crate::rowgroup::ColumnRead::Pack(p) => {
                                Arc::new(Pack::clone(&p));
                                continue;
                            }
                        };
                        Arc::new(Pack::seal(&col))
                    }
                };
                fs.put_object(
                    &format!("{p}t{}/g{}/c{}", index.table_id.get(), g.id, c),
                    Bytes::from(pack.encode()),
                );
            }
            let (ins, del) = g.checkpoint_vids(csn);
            fs.put_object(
                &format!("{p}t{}/g{}/vids", index.table_id.get(), g.id),
                Bytes::from(encode_vids(&ins, &del)),
            );
        }
        let snap = index.locator().snapshot();
        fs.put_object(
            &format!("{p}t{}/locator", index.table_id.get()),
            Bytes::from(snap.encode()),
        );
    }
    // Meta written last: its presence marks the checkpoint complete,
    // and its closing `end` line tells a whole meta from a torn one.
    meta.push_str("end\n");
    fs.put_object(&format!("{p}meta"), Bytes::from(meta));
    Ok(())
}

/// Sequence number of the newest complete checkpoint, if any.
pub fn latest_checkpoint(fs: &PolarFs) -> Option<u64> {
    fs.list_objects("ckpt/")
        .into_iter()
        .filter(|k| k.ends_with("/meta"))
        .filter_map(|k| k.split('/').nth(1).and_then(|s| s.parse::<u64>().ok()))
        .max()
}

/// Parse a checkpoint's `meta` object. A torn or corrupt meta is an
/// error: guessing a field would resume replay at the wrong offset.
pub fn read_meta(fs: &PolarFs, seq: u64) -> Result<CheckpointMeta> {
    let bytes = fs.get_object(&format!("{}meta", prefix(seq)))?;
    std::str::from_utf8(&bytes)
        .map_err(|e| e.to_string())
        .and_then(parse_meta)
        .map_err(|why| Error::Storage(format!("checkpoint {seq} meta: {why}")))
}

fn parse_meta(text: &str) -> std::result::Result<CheckpointMeta, String> {
    fn num<T: std::str::FromStr>(s: &str) -> std::result::Result<T, String> {
        s.parse().map_err(|_| format!("bad number {s:?}"))
    }
    fn list<T>(
        s: &str,
        item: impl Fn(&str) -> std::result::Result<T, String>,
    ) -> std::result::Result<Vec<T>, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',').map(item).collect()
    }
    let body = text
        .strip_suffix("end\n")
        .ok_or("missing end line (torn meta)")?;
    let mut scalars: Vec<(&str, u64)> = Vec::new();
    let mut tables = Vec::new();
    for line in body.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f[..] {
            ["table", id, n_groups, next_rid, sealed, written] => {
                let t = CkptTable {
                    table_id: TableId(num(id)?),
                    n_groups: num(n_groups)?,
                    next_rid: num(next_rid)?,
                    sealed: list(sealed, |s| match s {
                        "0" => Ok(false),
                        "1" => Ok(true),
                        _ => Err(format!("bad sealed flag {s:?}")),
                    })?,
                    written: list(written, num)?,
                };
                let n = t.n_groups as usize;
                if t.sealed.len() != n || t.written.len() != n {
                    return Err(format!("table {id}: group lists do not match {n} groups"));
                }
                tables.push(t);
            }
            [key, value] => scalars.push((key, num(value)?)),
            _ => return Err(format!("malformed line {line:?}")),
        }
    }
    let get = |key: &str| {
        scalars
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing {key}"))
    };
    Ok(CheckpointMeta {
        position: LogPosition {
            offset: get("redo")?,
            last_lsn: get("last_lsn")?,
            applied_lsn: get("applied_lsn")?,
            max_tid: get("max_tid")?,
            max_vid: get("csn")?,
        },
        tables,
    })
}

/// Load one table's column index from checkpoint `seq`.
pub fn load_index(
    fs: &PolarFs,
    seq: u64,
    schema: &Schema,
    group_cap: usize,
) -> Result<Arc<ColumnIndex>> {
    let meta = read_meta(fs, seq)?;
    let t = meta
        .tables
        .iter()
        .find(|t| t.table_id == schema.table_id)
        .ok_or_else(|| {
            Error::Storage(format!("checkpoint {seq} has no table {}", schema.table_id))
        })?;
    let p = prefix(seq);
    let index = ColumnIndex::for_schema(schema, group_cap);
    let mut groups = Vec::with_capacity(t.n_groups as usize);
    for gid in 0..t.n_groups {
        let mut slots = Vec::with_capacity(index.covered.len());
        let sealed = t.sealed.get(gid as usize).copied().unwrap_or(false);
        for c in 0..index.covered.len() {
            let key = format!("{p}t{}/g{}/c{}", schema.table_id.get(), gid, c);
            let pack = Pack::decode_bytes(&fs.get_object(&key)?)?;
            if sealed {
                slots.push(ColumnSlot::Sealed(Arc::new(pack)));
            } else {
                // Partial groups go back to mutable form.
                slots.push(ColumnSlot::Partial(pack.decode()));
            }
        }
        let vbytes = fs.get_object(&format!("{p}t{}/g{}/vids", schema.table_id.get(), gid))?;
        let (ins, del) = decode_vids(&vbytes)?;
        // Scans index the maps by row offset in the group.
        if ins.len() != group_cap || del.len() != group_cap {
            return Err(Error::Storage(format!(
                "checkpoint {seq} group {gid}: VID maps hold {}/{} slots, not {group_cap}",
                ins.len(),
                del.len()
            )));
        }
        groups.push(Arc::new(RowGroup::from_checkpoint(
            gid,
            group_cap,
            &index.col_types,
            slots,
            &ins,
            &del,
            sealed,
            t.written.get(gid as usize).copied().unwrap_or(0) as usize,
        )));
    }
    index.install_groups(groups, t.next_rid);
    let lbytes = fs.get_object(&format!("{p}t{}/locator", schema.table_id.get()))?;
    let loc = RidLocator::decode(&lbytes, 64 * 1024)?;
    let entries: Vec<(i64, Rid)> = loc.snapshot().iter_live();
    index.install_locator_entries(&entries);
    index.advance_visible(imci_common::Vid(meta.position.max_vid));
    Ok(index)
}

/// Encode a group's insert and delete VID maps (`u64`-counted lists).
pub fn encode_vids(ins: &[u64], del: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + (ins.len() + del.len()) * 8);
    for map in [ins, del] {
        put_u64(&mut out, map.len() as u64);
        for &v in map {
            put_u64(&mut out, v);
        }
    }
    out
}

/// Decode what [`encode_vids`] wrote.
pub fn decode_vids(bytes: &[u8]) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut r = ByteReader::new(bytes, "vid map");
    let ins = r.list_u64(8, |r| r.u64())?;
    let del = r.list_u64(8, |r| r.u64())?;
    Ok((ins, del))
}

/// Build a fresh column index by scanning base data (the cold path of
/// scale-out / `ALTER TABLE ADD COLUMN INDEX`, §3.3): rows arrive in PK
/// order from the row store and are bulk-appended at `vid`.
pub fn build_from_rows(
    schema: &Schema,
    group_cap: usize,
    vid: imci_common::Vid,
    rows: impl Iterator<Item = Vec<imci_common::Value>>,
) -> Result<Arc<ColumnIndex>> {
    let index = ColumnIndex::for_schema(schema, group_cap);
    for full_row in rows {
        let projected = index.project_row(&full_row);
        index.insert(vid, &projected)?;
    }
    index.advance_visible(vid);
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, Value, Vid};

    fn schema() -> Schema {
        Schema::new(
            TableId(3),
            "t",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
                ColumnDef::new("s", DataType::Str),
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
                    columns: vec![0, 1, 2],
                },
            ],
        )
        .unwrap()
    }

    fn at(csn: u64, offset: u64) -> LogPosition {
        LogPosition {
            offset,
            last_lsn: 40,
            applied_lsn: 39,
            max_tid: 7,
            max_vid: csn,
        }
    }

    fn populated_index() -> Arc<ColumnIndex> {
        let idx = ColumnIndex::for_schema(&schema(), 8);
        for pk in 0..20i64 {
            idx.insert(
                Vid(pk as u64 + 1),
                &[
                    Value::Int(pk),
                    Value::Int(pk * 2),
                    Value::Str(format!("s{pk}")),
                ],
            )
            .unwrap();
        }
        idx.advance_visible(Vid(20));
        idx.delete(Vid(21), 5).unwrap();
        idx.advance_visible(Vid(21));
        idx
    }

    #[test]
    fn checkpoint_roundtrip() {
        let fs = PolarFs::instant();
        let idx = populated_index();
        write_checkpoint(&fs, 1, &at(21, 12345), std::slice::from_ref(&idx)).unwrap();
        assert_eq!(latest_checkpoint(&fs), Some(1));
        let meta = read_meta(&fs, 1).unwrap();
        assert_eq!(meta.position, at(21, 12345));

        let restored = load_index(&fs, 1, &schema(), 8).unwrap();
        assert_eq!(restored.visible_vid(), 21);
        assert_eq!(restored.next_rid(), idx.next_rid());
        let snap = restored.snapshot();
        for pk in 0..20i64 {
            if pk == 5 {
                assert!(snap.get_by_pk(pk).is_none(), "deleted row stays gone");
            } else {
                let row = snap.get_by_pk(pk).unwrap();
                assert_eq!(row[1], Value::Int(pk * 2));
                assert_eq!(row[2], Value::Str(format!("s{pk}")));
            }
        }
    }

    #[test]
    fn restored_index_accepts_new_dml() {
        let fs = PolarFs::instant();
        let idx = populated_index();
        write_checkpoint(&fs, 7, &at(21, 0), &[idx]).unwrap();
        let restored = load_index(&fs, 7, &schema(), 8).unwrap();
        restored
            .insert(
                Vid(22),
                &[Value::Int(100), Value::Int(1), Value::Str("new".into())],
            )
            .unwrap();
        restored
            .update(Vid(23), 0, &[Value::Int(0), Value::Int(999), Value::Null])
            .unwrap();
        restored.advance_visible(Vid(23));
        let snap = restored.snapshot();
        assert_eq!(snap.get_by_pk(100).unwrap()[1], Value::Int(1));
        assert_eq!(snap.get_by_pk(0).unwrap()[1], Value::Int(999));
    }

    #[test]
    fn vid_masking_respected_on_load() {
        // Take the checkpoint at csn=20: the delete at 21 must be masked
        // out, so the restored index still shows pk 5.
        let fs = PolarFs::instant();
        let idx = populated_index();
        write_checkpoint(&fs, 2, &at(20, 0), &[idx]).unwrap();
        let restored = load_index(&fs, 2, &schema(), 8).unwrap();
        // Scans go through the VID maps: the post-CSN delete is masked,
        // so row 5 (RID 5 → group 0, offset 5) is visible at csn 20.
        // (The point-lookup path via the locator legitimately lost the
        // mapping — replaying the REDO suffix from the checkpoint's
        // cursor re-applies the delete and re-converges both paths.)
        let groups = restored.groups();
        let (g, off) = restored.rid_pos(imci_common::Rid(5));
        assert!(
            groups[g].visible(off, 20),
            "post-CSN delete must not leak into checkpointed VID maps"
        );
    }

    #[test]
    fn short_vid_map_is_an_error() {
        let fs = PolarFs::instant();
        write_checkpoint(&fs, 1, &at(21, 0), &[populated_index()]).unwrap();
        let key = "ckpt/000000000001/t3/g0/vids";
        let (ins, del) = decode_vids(&fs.get_object(key).unwrap()).unwrap();
        fs.put_object(key, Bytes::from(encode_vids(&ins[1..], &del)));
        assert!(load_index(&fs, 1, &schema(), 8).is_err());
    }

    #[test]
    fn torn_or_corrupt_meta_is_an_error() {
        let fs = PolarFs::instant();
        write_checkpoint(&fs, 1, &at(21, 12345), &[populated_index()]).unwrap();
        let whole = fs.get_object("ckpt/000000000001/meta").unwrap();
        let text = std::str::from_utf8(&whole).unwrap().to_string();
        let bad = [
            // Torn at every length short of the whole object.
            (1..text.len()).map(|n| text[..n].to_string()).collect(),
            vec![
                text.replace("redo\t12345", "redo\tx2345"),
                text.replace("csn\t21", "csn\t-1"),
                text.replace("max_tid\t7\n", ""),
                text.replace("\t1,1,0\t", "\t1,0\t"),
                text.replace("\t8,8,4\n", "\t8,8,x\n"),
                text.replace("\t1,1,0\t", "\t1,2,0\t"),
                text.replace("applied_lsn\t39", "applied_lsn"),
            ],
        ]
        .concat();
        for meta in bad {
            fs.put_object("ckpt/000000000001/meta", Bytes::from(meta.clone()));
            assert!(read_meta(&fs, 1).is_err(), "accepted {meta:?}");
        }
        fs.put_object("ckpt/000000000001/meta", whole);
        assert_eq!(read_meta(&fs, 1).unwrap().position, at(21, 12345));
    }

    #[test]
    fn latest_checkpoint_picks_max() {
        let fs = PolarFs::instant();
        let idx = populated_index();
        write_checkpoint(&fs, 3, &at(21, 0), std::slice::from_ref(&idx)).unwrap();
        write_checkpoint(&fs, 10, &at(21, 0), &[idx]).unwrap();
        assert_eq!(latest_checkpoint(&fs), Some(10));
        assert_eq!(latest_checkpoint(&PolarFs::instant()), None);
    }

    #[test]
    fn build_from_rows_bulk_load() {
        let rows =
            (0..100i64).map(|pk| vec![Value::Int(pk), Value::Int(pk), Value::Str("x".into())]);
        let idx = build_from_rows(&schema(), 16, Vid(1), rows).unwrap();
        let snap = idx.snapshot();
        assert_eq!(snap.get_by_pk(42).unwrap()[1], Value::Int(42));
        assert_eq!(idx.groups().len(), 100usize.div_ceil(16));
    }
}
