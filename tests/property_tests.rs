//! Property-based tests over core invariants (proptest).

use polardb_imci::common::{
    ColumnDef, DataType, DdlOp, IndexDef, IndexKind, Lsn, PageId, Rid, Row, RowDiff, Schema,
    TableId, Tid, Value, Vid,
};
use polardb_imci::imci::{
    decode_vids, encode_vids, row_visible, ColumnData, Pack, RidLocator, VID_UNSET,
};
use polardb_imci::polarfs::PolarFs;
use polardb_imci::rowstore::{Page, PageKind, RowEngine};
use polardb_imci::wal::{
    BinlogEvent, BinlogKind, LogWriter, PropagationMode, RedoEntry, RedoPayload,
};
use proptest::prelude::*;

fn demo_schema() -> Schema {
    Schema::new(
        TableId(1),
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

fn catalog() -> Vec<u8> {
    let fs = PolarFs::instant();
    let rw = RowEngine::new_rw(
        fs.clone(),
        LogWriter::new(fs, PropagationMode::ReuseRedo),
        1 << 20,
    );
    let s = demo_schema();
    rw.create_table("t", s.columns.clone(), s.indexes.clone())
        .unwrap();
    rw.export_catalog()
}

/// Decode every strict prefix of `enc`, and `enc` with each 8-byte
/// window set to 0xFF: the decoder may accept or reject each, but must
/// not panic.
fn check(format: &str, enc: &[u8], decode: impl Fn(&[u8])) {
    let prefixes = (0..enc.len()).map(|n| enc[..n].to_vec());
    let windows = (0..=enc.len().saturating_sub(8)).map(|i| {
        let mut b = enc.to_vec();
        let end = (i + 8).min(b.len());
        b[i..end].fill(0xFF);
        b
    });
    for bytes in prefixes.chain(windows) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&bytes)));
        assert!(outcome.is_ok(), "{format} decoder panicked on {bytes:02x?}");
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Double),
        "[a-z0-9 ]{0,24}".prop_map(Value::Str),
        (-100_000i64..100_000).prop_map(Value::Date),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_codec_roundtrips(values in prop::collection::vec(arb_value(), 0..12)) {
        let row = Row::new(values);
        let decoded = Row::decode(&row.encode()).unwrap();
        prop_assert_eq!(row, decoded);
    }

    #[test]
    fn corrupt_encodings_decode_or_fail_cleanly(
        values in prop::collection::vec(arb_value(), 0..6),
        pks in prop::collection::vec(any::<i64>(), 0..4),
    ) {
        let image = Row::new(values.clone()).encode();
        let schema = demo_schema();
        let ddl = DdlOp::CreateTable { schema: schema.clone(), meta_page: PageId(3) };
        check("row", &image, |b| drop(Row::decode(b)));
        check("schema", &schema.encode(), |b| drop(Schema::decode(b)));
        check("ddl", &ddl.encode(), |b| drop(DdlOp::decode(b)));

        let entries: Vec<(i64, Vec<u8>)> = pks.iter().map(|&pk| (pk, image.clone())).collect();
        let keys: Vec<i64> = pks.clone();
        let children: Vec<PageId> = (0..=pks.len() as u64).map(PageId).collect();
        for payload in [
            RedoPayload::Insert { pk: 1, image: image.clone() },
            RedoPayload::Update { pk: 1, diff: RowDiff::between(&[], &image) },
            RedoPayload::SmoLeafWrite { entries: entries.clone(), next_leaf: None },
            RedoPayload::SmoInternalWrite { keys: keys.clone(), children: children.clone() },
            RedoPayload::Ddl { version: 1, op: ddl.clone() },
        ] {
            let e = RedoEntry {
                lsn: Lsn(1), prev_lsn: Lsn(0), tid: Tid(1), table_id: TableId(1),
                page_id: PageId(1), slot_id: 0, payload,
            };
            check("redo", &e.encode(), |b| drop(RedoEntry::decode(b)));
        }
        for kind in [
            BinlogKind::Insert { row: Row::new(values.clone()) },
            BinlogKind::Update { pk: 1, row: Row::new(values.clone()) },
            BinlogKind::Ddl { version: 1, op: ddl.clone() },
        ] {
            let ev = BinlogEvent { tid: Tid(1), table_id: TableId(1), kind };
            check("binlog", &ev.encode(), |b| drop(BinlogEvent::decode(b)));
        }
        for kind in [
            PageKind::Leaf { entries, next: Some(PageId(9)) },
            PageKind::Internal { keys, children },
        ] {
            let page = Page { id: PageId(1), last_lsn: Lsn(1), dirty: false, kind };
            check("page", &page.encode(), |b| drop(Page::decode(b)));
        }

        for ty in [DataType::Int, DataType::Double, DataType::Str] {
            let mut col = ColumnData::new(ty);
            for (i, v) in values.iter().enumerate() {
                let v = if v.data_type() == Some(ty) { v.clone() } else { Value::Null };
                col.set(i, &v).unwrap();
            }
            check("pack", &Pack::seal(&col).encode(), |b| drop(Pack::decode_bytes(b)));
        }
        let loc = RidLocator::new(16);
        for (i, &pk) in pks.iter().enumerate() {
            loc.insert(pk, Rid(i as u64));
        }
        check("locator", &loc.snapshot().encode(), |b| drop(RidLocator::decode(b, 16)));
        let vids: Vec<u64> = pks.iter().map(|&pk| pk as u64).collect();
        check("vid map", &encode_vids(&vids, &vids), |b| drop(decode_vids(b)));
        check("catalog", &catalog(), |b| {
            let replica = RowEngine::new_replica(PolarFs::instant(), 1 << 20);
            drop(replica.import_catalog(b))
        });
    }

    #[test]
    fn row_diff_reconstructs_new_image(
        a in prop::collection::vec(arb_value(), 1..8),
        b in prop::collection::vec(arb_value(), 1..8),
    ) {
        let (ra, rb) = (Row::new(a).encode(), Row::new(b).encode());
        let diff = RowDiff::between(&ra, &rb);
        prop_assert_eq!(diff.apply(&ra).unwrap(), rb);
    }

    #[test]
    fn pack_seal_preserves_values(values in prop::collection::vec(arb_value(), 1..200)) {
        // Packs are typed; test per-type by filtering to one type.
        let ints: Vec<Value> = values.iter()
            .map(|v| match v { Value::Int(x) => Value::Int(*x), _ => Value::Null })
            .collect();
        let mut col = ColumnData::new(polardb_imci::common::DataType::Int);
        for (i, v) in ints.iter().enumerate() {
            col.set(i, v).unwrap();
        }
        let pack = Pack::seal(&col);
        for (i, v) in ints.iter().enumerate() {
            prop_assert_eq!(&pack.get(i), v);
        }
        // And the checkpoint codec roundtrips too.
        let restored = Pack::decode_bytes(&pack.encode()).unwrap();
        for (i, v) in ints.iter().enumerate() {
            prop_assert_eq!(&restored.get(i), v);
        }
    }

    #[test]
    fn visibility_rule_is_a_window(insert in 0u64..1000, delete in 0u64..1000, csn in 0u64..1000) {
        let delete = delete.max(insert); // deletes happen after inserts
        let visible = row_visible(insert, delete, csn);
        prop_assert_eq!(visible, insert <= csn && csn < delete);
        // Unset insert is never visible; unset delete means "live".
        prop_assert!(!row_visible(VID_UNSET, delete, csn));
        prop_assert_eq!(row_visible(insert, VID_UNSET, csn), insert <= csn);
    }

    #[test]
    fn locator_acts_like_a_map(ops in prop::collection::vec((0i64..200, prop::option::of(0u64..10_000)), 1..300)) {
        let loc = RidLocator::new(32); // tiny memtable: force runs + merges
        let mut model = std::collections::HashMap::new();
        for (pk, rid) in &ops {
            match rid {
                Some(r) => { loc.insert(*pk, Rid(*r)); model.insert(*pk, Some(Rid(*r))); }
                None => { loc.remove(*pk); model.insert(*pk, None); }
            }
        }
        for (pk, expect) in &model {
            prop_assert_eq!(loc.get(*pk), *expect);
        }
    }

    #[test]
    fn column_index_updates_converge(updates in prop::collection::vec((0i64..20, 0i64..1000), 1..100)) {
        let schema = Schema::new(
            TableId(1), "t",
            vec![ColumnDef::not_null("id", DataType::Int), ColumnDef::new("v", DataType::Int)],
            vec![
                IndexDef { kind: IndexKind::Primary, name: "PRIMARY".into(), columns: vec![0] },
                IndexDef { kind: IndexKind::Column, name: "ci".into(), columns: vec![0, 1] },
            ],
        ).unwrap();
        let idx = polardb_imci::imci::ColumnIndex::for_schema(&schema, 8);
        let mut model = std::collections::HashMap::new();
        let mut vid = 1u64;
        for (pk, v) in &updates {
            if model.contains_key(pk) {
                idx.update(Vid(vid), *pk, &[Value::Int(*pk), Value::Int(*v)]).unwrap();
            } else {
                idx.insert(Vid(vid), &[Value::Int(*pk), Value::Int(*v)]).unwrap();
            }
            model.insert(*pk, *v);
            vid += 1;
        }
        idx.advance_visible(Vid(vid));
        let snap = idx.snapshot();
        for (pk, v) in &model {
            let row = snap.get_by_pk(*pk).unwrap();
            prop_assert_eq!(&row[1], &Value::Int(*v));
        }
    }
}
