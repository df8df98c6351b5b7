//! Model-based tests: the storage structures against reference models,
//! and a randomized end-to-end replication equivalence check.

use polardb_imci::common::{ColumnDef, DataType, IndexDef, IndexKind, Value};
use polardb_imci::polarfs::PolarFs;
use polardb_imci::rowstore::RowEngine;
use polardb_imci::wal::{LogWriter, PropagationMode};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn table_parts() -> (Vec<ColumnDef>, Vec<IndexDef>) {
    (
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
                kind: IndexKind::Secondary,
                name: "v_idx".into(),
                columns: vec![1],
            },
            IndexDef {
                kind: IndexKind::Column,
                name: "ci".into(),
                columns: vec![0, 1, 2],
            },
        ],
    )
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    Abort(Vec<(i64, i64)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..400, any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..400, any::<i64>()).prop_map(|(k, v)| Op::Update(k, v)),
        (0i64..400).prop_map(Op::Delete),
        prop::collection::vec((400i64..500, any::<i64>()), 1..4).prop_map(Op::Abort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The row engine behaves like a BTreeMap under random DML (incl.
    /// splits from large payloads), and a replica replaying its REDO log
    /// converges to identical content — the §5 end-to-end invariant.
    #[test]
    fn rowstore_matches_model_and_replica_converges(
        ops in prop::collection::vec(arb_op(), 1..150)
    ) {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        let (cols, idxs) = table_parts();
        rw.create_table("t", cols, idxs).unwrap();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let payload = "p".repeat(64); // forces leaf splits

        for op in &ops {
            let mut txn = rw.begin();
            match op {
                Op::Insert(k, v) => {
                    let r = rw.insert(&mut txn, "t", vec![
                        Value::Int(*k), Value::Int(*v), Value::Str(payload.clone()),
                    ]);
                    if model.contains_key(k) {
                        prop_assert!(r.is_err(), "duplicate pk {k} must fail");
                        rw.abort(txn).unwrap();
                        continue;
                    }
                    prop_assert!(r.is_ok());
                    model.insert(*k, *v);
                }
                Op::Update(k, v) => {
                    let r = rw.update(&mut txn, "t", *k, vec![
                        Value::Int(*k), Value::Int(*v), Value::Str(payload.clone()),
                    ]);
                    if model.contains_key(k) {
                        prop_assert!(r.is_ok());
                        model.insert(*k, *v);
                    } else {
                        prop_assert!(r.is_err());
                        rw.abort(txn).unwrap();
                        continue;
                    }
                }
                Op::Delete(k) => {
                    let r = rw.delete(&mut txn, "t", *k);
                    prop_assert_eq!(r.is_ok(), model.remove(k).is_some());
                    if r.is_err() {
                        rw.abort(txn).unwrap();
                        continue;
                    }
                }
                Op::Abort(rows) => {
                    for (k, v) in rows {
                        if !model.contains_key(k) {
                            let _ = rw.insert(&mut txn, "t", vec![
                                Value::Int(*k), Value::Int(*v), Value::Null,
                            ]);
                        }
                    }
                    rw.abort(txn).unwrap();
                    continue;
                }
            }
            rw.commit(txn).unwrap();
        }

        // RW content == model.
        let mut got = BTreeMap::new();
        rw.scan("t", i64::MIN, i64::MAX, |pk, row| {
            got.insert(pk, row.values[1].as_int().unwrap());
        }).unwrap();
        prop_assert_eq!(&got, &model);

        // Replica replay == model (pages, secondaries, and extraction).
        use polardb_imci::replication::{replay, seed, Stop};
        let mut state = seed(&fs, 64).unwrap();
        let replayed = replay(&fs, &mut state, Stop::LogEnd).unwrap();
        prop_assert!(replayed.inflight.is_empty(), "every transaction decided");
        let mut replica = BTreeMap::new();
        state.engine.scan("t", i64::MIN, i64::MAX, |pk, row| {
            replica.insert(pk, row.values[1].as_int().unwrap());
        }).unwrap();
        prop_assert_eq!(&replica, &model);

        // Column index content == model (via PK lookups at the final
        // watermark).
        let idx = state.store.index(polardb_imci::common::TableId(1)).unwrap();
        let snap = idx.snapshot();
        for (k, v) in &model {
            let row = snap.get_by_pk(*k);
            prop_assert!(row.is_some(), "pk {k} missing from column index");
            prop_assert_eq!(&row.unwrap()[1], &Value::Int(*v));
        }
        // And nothing extra is visible.
        let visible: usize = idx.groups().iter()
            .map(|g| g.visible_offsets(snap.csn).len()).sum();
        prop_assert_eq!(visible, model.len());
    }

    /// REDO entries survive arbitrary chunked framing (reader never
    /// tears an entry regardless of chunk boundaries).
    #[test]
    fn redo_frames_survive_any_chunking(
        n_entries in 1usize..40,
        chunk in 1usize..64,
    ) {
        use polardb_imci::wal::{RedoEntry, RedoPayload};
        use polardb_imci::common::{Lsn, PageId, TableId, Tid};
        let mut buf = Vec::new();
        let mut expect = Vec::new();
        for i in 0..n_entries {
            let e = RedoEntry {
                lsn: Lsn(i as u64 + 1),
                prev_lsn: Lsn(i as u64),
                tid: Tid(i as u64 % 5),
                table_id: TableId(1),
                page_id: PageId(i as u64 % 7),
                slot_id: i as u32,
                payload: RedoPayload::Insert { pk: i as i64, image: vec![i as u8; i % 11] },
            };
            buf.extend_from_slice(&e.encode());
            expect.push(e);
        }
        // Feed the decoder in fixed-size chunks.
        let mut pending = Vec::new();
        let mut decoded = Vec::new();
        for piece in buf.chunks(chunk) {
            pending.extend_from_slice(piece);
            let mut pos = 0;
            while let Some((e, used)) = RedoEntry::decode(&pending[pos..]).unwrap() {
                decoded.push(e);
                pos += used;
            }
            pending.drain(..pos);
        }
        prop_assert_eq!(decoded, expect);
        prop_assert!(pending.is_empty());
    }
}
