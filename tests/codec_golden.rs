//! Golden bytes for every binary format that reaches shared storage:
//! the REDO and binlog frames, row images, schemas and DDL ops, row
//! pages, the checkpoint catalog, packs, the RID locator snapshot and
//! the VID maps. A codec change that moves a single byte fails here, so
//! a refactor of the codecs is proven byte-identical by this file
//! passing unchanged; each pin also decodes back to its value.

use polardb_imci::common::{
    ColumnDef, DataType, DdlOp, IndexDef, IndexKind, Lsn, PageId, Rid, Row, RowDiff, Schema,
    TableId, Tid, Value, Vid,
};
use polardb_imci::imci::{
    build_from_rows, write_checkpoint, ColumnData, LogPosition, Pack, RidLocator,
};
use polardb_imci::polarfs::PolarFs;
use polardb_imci::rowstore::{Page, PageKind, RowEngine};
use polardb_imci::wal::{
    BinlogEvent, BinlogKind, LogWriter, PropagationMode, RedoEntry, RedoPayload,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn pin(name: &str, bytes: &[u8], golden: &str) {
    assert_eq!(hex(bytes), golden, "{name}: encoding moved");
}

fn schema() -> Schema {
    Schema::new(
        TableId(7),
        "t",
        vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("v", DataType::Str),
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
    .unwrap()
}

fn row() -> Row {
    Row::new(vec![
        Value::Int(42),
        Value::Null,
        Value::Double(1.25),
        Value::Str("hi".into()),
        Value::Date(9000),
    ])
}

#[test]
fn row_schema_and_ddl_bytes_are_pinned() {
    let r = row();
    pin(
        "row",
        &r.encode(),
        "05000000012a000000000000000002000000000000f43f03020000006869042823000000000000",
    );
    assert_eq!(Row::decode(&r.encode()).unwrap(), r);

    let s = schema();
    pin("schema", &s.encode(), "07000000000000000100000074020000000200000069640000010000007602010200000000070000005052494d415259010000000000000002020000006369020000000000000001000000");
    assert_eq!(Schema::decode(&s.encode()).unwrap().0, s);

    let ops = [
        (
            DdlOp::CreateTable {
                schema: s.clone(),
                meta_page: PageId(3),
            },
            "01030000000000000007000000000000000100000074020000000200000069640000010000007602010200000000070000005052494d415259010000000000000002020000006369020000000000000001000000",
        ),
        (
            DdlOp::DropTable {
                table_id: TableId(7),
                name: "t".into(),
            },
            "0207000000000000000100000074",
        ),
        (DdlOp::ReplaceSchema { schema: s }, "0307000000000000000100000074020000000200000069640000010000007602010200000000070000005052494d415259010000000000000002020000006369020000000000000001000000"),
    ];
    for (op, golden) in ops {
        pin(&format!("{op:?}"), &op.encode(), golden);
        assert_eq!(DdlOp::decode(&op.encode()).unwrap().0, op);
    }
}

#[test]
fn redo_entry_bytes_are_pinned_for_every_payload_kind() {
    let payloads = [
        (RedoPayload::Insert { pk: -5, image: vec![1, 2, 3] }, "3c0000002a0000000000000011000000000000000500000000000000030000000000000063000000000000000700000001fbffffffffffffff03000000010203"),
        (
            RedoPayload::Update {
                pk: 10,
                diff: RowDiff {
                    new_len: 20,
                    splices: vec![(3, vec![9, 9])],
                },
            },
            "470000002a00000000000000110000000000000005000000000000000300000000000000630000000000000007000000020a00000000000000140000000100000003000000020000000909",
        ),
        (RedoPayload::Delete { pk: 123 }, "350000002a00000000000000110000000000000005000000000000000300000000000000630000000000000007000000037b00000000000000"),
        (RedoPayload::SmoTruncate { from_pk: 50 }, "350000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000000a3200000000000000"),
        (
            RedoPayload::SmoLeafWrite {
                entries: vec![(1, vec![0xA]), (2, vec![0xB, 0xC])],
                next_leaf: Some(PageId(4)),
            },
            "540000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000000b020000000100000000000000010000000a0200000000000000020000000b0c0400000000000000",
        ),
        (RedoPayload::SmoSetNext { next_leaf: None }, "350000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000000cffffffffffffffff"),
        (
            RedoPayload::SmoParentInsert {
                key: 7,
                child: PageId(8),
            },
            "3d0000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000000d07000000000000000800000000000000",
        ),
        (
            RedoPayload::SmoInternalWrite {
                keys: vec![10, 20],
                children: vec![PageId(1), PageId(2), PageId(3)],
            },
            "5d0000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000000e020000000a00000000000000140000000000000003000000010000000000000002000000000000000300000000000000",
        ),
        (RedoPayload::SmoSetRoot { root: PageId(77) }, "350000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000000f4d00000000000000"),
        (RedoPayload::Commit { commit_vid: Vid(1000) }, "350000002a0000000000000011000000000000000500000000000000030000000000000063000000000000000700000014e803000000000000"),
        (RedoPayload::Abort, "2d0000002a0000000000000011000000000000000500000000000000030000000000000063000000000000000700000015"),
        (
            RedoPayload::Ddl {
                version: 2,
                op: DdlOp::DropTable {
                    table_id: TableId(7),
                    name: "t".into(),
                },
            },
            "470000002a000000000000001100000000000000050000000000000003000000000000006300000000000000070000001e02000000000000000e0000000207000000000000000100000074",
        ),
        (RedoPayload::EpochBump { epoch: 9 }, "350000002a00000000000000110000000000000005000000000000000300000000000000630000000000000007000000280900000000000000"),
    ];
    for (payload, golden) in payloads {
        let e = RedoEntry {
            lsn: Lsn(42),
            prev_lsn: Lsn(17),
            tid: Tid(5),
            table_id: TableId(3),
            page_id: PageId(99),
            slot_id: 7,
            payload,
        };
        let enc = e.encode();
        pin(&format!("{:?}", e.payload), &enc, golden);
        assert_eq!(RedoEntry::decode(&enc).unwrap(), Some((e, enc.len())));
    }
}

#[test]
fn binlog_event_bytes_are_pinned() {
    let kinds = [
        (BinlogKind::Insert { row: row() }, "3c00000005000000000000000700000000000000012700000005000000012a000000000000000002000000000000f43f03020000006869042823000000000000"),
        (BinlogKind::Update { pk: 4, row: row() }, "44000000050000000000000007000000000000000204000000000000002700000005000000012a000000000000000002000000000000f43f03020000006869042823000000000000"),
        (BinlogKind::Delete { pk: 4 }, "1900000005000000000000000700000000000000030400000000000000"),
        (BinlogKind::Commit, "110000000500000000000000070000000000000004"),
        (BinlogKind::Abort, "110000000500000000000000070000000000000005"),
        (
            BinlogKind::Ddl {
                version: 3,
                op: DdlOp::DropTable {
                    table_id: TableId(7),
                    name: "t".into(),
                },
            },
            "2b000000050000000000000007000000000000000603000000000000000e0000000207000000000000000100000074",
        ),
    ];
    for (kind, golden) in kinds {
        let ev = BinlogEvent {
            tid: Tid(5),
            table_id: TableId(7),
            kind,
        };
        let enc = ev.encode();
        pin(&format!("{:?}", ev.kind), &enc, golden);
        assert_eq!(BinlogEvent::decode(&enc).unwrap(), Some((ev, enc.len())));
    }
}

#[test]
fn page_and_catalog_bytes_are_pinned() {
    let pages = [
        (
            PageKind::Leaf {
                entries: vec![(1, vec![0xA]), (2, vec![0xB, 0xC])],
                next: Some(PageId(6)),
            },
            "03000000000000000b0000000000000001020000000100000000000000010000000a0200000000000000020000000b0c0600000000000000",
        ),
        (
            PageKind::Internal {
                keys: vec![10],
                children: vec![PageId(4), PageId(5)],
            },
            "03000000000000000b0000000000000002010000000a000000000000000200000004000000000000000500000000000000",
        ),
        (PageKind::Meta { root: PageId(4) }, "03000000000000000b00000000000000030400000000000000"),
    ];
    for (kind, golden) in pages {
        let page = Page {
            id: PageId(3),
            last_lsn: Lsn(11),
            dirty: false,
            kind,
        };
        pin(&format!("{:?}", page.kind), &page.encode(), golden);
        assert_eq!(Page::decode(&page.encode()).unwrap(), page);
    }

    let fs = PolarFs::instant();
    let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
    let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
    let s = schema();
    rw.create_table("t", s.columns.clone(), s.indexes.clone())
        .unwrap();
    let catalog = rw.export_catalog();
    pin("catalog", &catalog, "010000000000000003000000000000000100000001000000000000004b00000001000000000000000100000074020000000200000069640000010000007602010200000000070000005052494d415259010000000000000002020000006369020000000000000001000000");
    let replica = RowEngine::new_replica(fs, 1 << 20);
    replica.import_catalog(&catalog).unwrap();
    assert_eq!(replica.export_catalog(), catalog);
}

#[test]
fn pack_locator_and_vid_map_bytes_are_pinned() {
    let columns = [
        (
            DataType::Int,
            vec![Value::Int(100), Value::Null, Value::Int(103)],
            "0164000000000000000300000000000000020100000030000000000000000300000000000000010000000200000000000000",
        ),
        (
            DataType::Double,
            vec![Value::Double(0.5), Value::Null],
            "020200000000000000000000000000e03f00000000000000000200000000000000010000000200000000000000",
        ),
        (
            DataType::Str,
            vec![Value::Str("b".into()), Value::Str("a".into()), Value::Null],
            "0303000000000000000101000000020000000000000002000000010000006201000000610300000000000000010000000400000000000000",
        ),
    ];
    for (ty, values, golden) in columns {
        let mut col = ColumnData::new(ty);
        for (i, v) in values.iter().enumerate() {
            col.set(i, v).unwrap();
        }
        let enc = Pack::seal(&col).encode();
        pin(&format!("{ty:?} pack"), &enc, golden);
        let back = Pack::decode_bytes(&enc).unwrap();
        assert_eq!(back.encode(), enc);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&back.get(i), v);
        }
    }

    let loc = RidLocator::new(16);
    for (pk, rid) in [(5, 50), (-1, 10), (9, 90)] {
        loc.insert(pk, Rid(rid));
    }
    let enc = loc.snapshot().encode();
    pin("locator", &enc, "0300000000000000ffffffffffffffff0a000000000000000500000000000000320000000000000009000000000000005a00000000000000");
    assert_eq!(
        RidLocator::decode(&enc, 16).unwrap().snapshot().encode(),
        enc
    );

    // VID maps reach storage only inside a checkpoint: pin the object.
    let s = schema();
    let rows = (1..=3).map(|i| vec![Value::Int(i), Value::Str(format!("r{i}"))]);
    let index = build_from_rows(&s, 4, Vid(2), rows).unwrap();
    index.delete(Vid(3), 2).unwrap();
    let fs = PolarFs::instant();
    let position = LogPosition {
        max_vid: 3,
        ..LogPosition::default()
    };
    write_checkpoint(&fs, 1, &position, &[index]).unwrap();
    pin("vids", &fs.get_object("ckpt/000000000001/t7/g0/vids").unwrap(), "0400000000000000020000000000000002000000000000000200000000000000ffffffffffffffff0400000000000000ffffffffffffffff0300000000000000ffffffffffffffffffffffffffffffff");
}
