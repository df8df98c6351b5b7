//! Oracle for the one REDO apply path: on random logs, a live pipeline
//! that tails the log while it is written (many small read batches), a
//! live pipeline started on the finished log (one read batch holding
//! every entry) and `replay` must end in the same state: row contents,
//! column contents, log position and in-flight undo. That state must
//! also match the writer's own: its rows, and its committed rows in the
//! column indexes.
//!
//! The logs mix committed and aborted transactions, transactions that
//! cross the pipelines' pre-commit threshold (some of them aborted), an
//! ALTER and a DROP + re-create mid-stream, a promotion of a drained
//! RO pipeline (compensations + epoch marker in the log, then traffic
//! from the new writer) and transactions still in flight at the end.
//!
//! A second oracle loads ascending keys, where leaves split at the
//! insertion point: replicas must replay the writer's leaf layout page
//! by page.

use polardb_imci::common::{ColumnDef, DataType, IndexDef, IndexKind, PageId, Schema, Value};
use polardb_imci::imci::ColumnStore;
use polardb_imci::polarfs::PolarFs;
use polardb_imci::replication::{
    promote, replay, seed, LogPosition, Pipeline, ReplicationConfig, ReplicationMetrics, Stop,
};
use polardb_imci::rowstore::{PageKind, RowEngine, Txn, PAGE_BYTE_CAPACITY};
use polardb_imci::wal::{LogWriter, PropagationMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const GROUP_CAP: usize = 64;
/// The pipelines' §5.5 pre-commit threshold; large transactions here
/// run to a few times this many DMLs.
const THRESHOLD: usize = 24;
/// Primary keys of committed and aborted traffic; in-flight
/// transactions write above this range so they never conflict.
const HOT_KEYS: i64 = 150;

fn parts(wide_column_index: bool) -> (Vec<ColumnDef>, Vec<IndexDef>) {
    let covered = if wide_column_index {
        vec![0, 1, 2]
    } else {
        vec![0, 1]
    };
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
                kind: IndexKind::Column,
                name: "ci".into(),
                columns: covered,
            },
        ],
    )
}

fn row(pk: i64, v: i64) -> Vec<Value> {
    vec![
        Value::Int(pk),
        Value::Int(v),
        Value::Str(format!("s{}", v % 13)),
    ]
}

/// One random DML on a hot key of `table`: insert when absent, else
/// update or delete.
fn hot_dml(rw: &RowEngine, txn: &mut Txn, table: &str, rng: &mut StdRng) {
    let pk = rng.gen_range(0..HOT_KEYS);
    let v = rng.gen_range(0..1_000i64);
    let present = rw.get_row(table, pk).unwrap().is_some();
    match (present, rng.gen_range(0..3u32)) {
        (false, _) => rw.insert(txn, table, row(pk, v)).unwrap(),
        (true, 0) => rw.delete(txn, table, pk).unwrap(),
        (true, _) => rw.update(txn, table, pk, row(pk, v)).unwrap(),
    }
}

/// `rounds` random transactions on tables "a" and "b" of `rw`. Keys at
/// `fresh..` are unused so far; returns the next unused one.
fn traffic(rw: &RowEngine, rng: &mut StdRng, rounds: usize, mut fresh: i64) -> i64 {
    let alter_at = rng.gen_range(0..rounds);
    let drop_at = rng.gen_range(0..rounds);
    for round in 0..rounds {
        let table = if rng.gen_bool(0.5) { "a" } else { "b" };
        let mut txn = rw.begin();
        match rng.gen_range(0..10u32) {
            // A transaction past the pre-commit threshold, on fresh keys
            // (plus updates of some of them); one in four aborts.
            0 => {
                let n = rng.gen_range(THRESHOLD + 1..3 * THRESHOLD);
                for pk in fresh..fresh + n as i64 {
                    rw.insert(&mut txn, table, row(pk, pk)).unwrap();
                }
                for pk in (fresh..fresh + n as i64).step_by(5) {
                    rw.update(&mut txn, table, pk, row(pk, -pk)).unwrap();
                }
                fresh += n as i64;
                if rng.gen_bool(0.25) {
                    rw.abort(txn).unwrap();
                } else {
                    rw.commit(txn).unwrap();
                }
            }
            1 => {
                for _ in 0..rng.gen_range(1..6) {
                    hot_dml(rw, &mut txn, table, rng);
                }
                rw.abort(txn).unwrap();
            }
            _ => {
                for _ in 0..rng.gen_range(1..6) {
                    hot_dml(rw, &mut txn, table, rng);
                }
                rw.commit(txn).unwrap();
            }
        }
        if round == alter_at {
            // Widen "a"'s column index: replicas rebuild it from rows.
            let old = rw.table("a").unwrap().schema.clone();
            let (cols, idxs) = parts(true);
            let schema = Schema::new(old.table_id, "a", cols, idxs).unwrap();
            rw.replace_table_schema("a", schema).unwrap();
        }
        if round == drop_at {
            rw.drop_table("b").unwrap();
            let (cols, idxs) = parts(false);
            rw.create_table("b", cols, idxs).unwrap();
        }
    }
    fresh
}

/// Open a transaction on `fresh..` keys of "a" and leave it in flight;
/// returns it with the next unused key.
fn in_flight(rw: &RowEngine, fresh: i64, n: i64) -> (Txn, i64) {
    let mut txn = rw.begin();
    for pk in fresh..fresh + n {
        rw.insert(&mut txn, "a", row(pk, 1)).unwrap();
    }
    (txn, fresh + n)
}

fn rows(engine: &RowEngine) -> BTreeMap<String, Vec<(i64, Vec<Value>)>> {
    let mut out = BTreeMap::new();
    for name in engine.table_names() {
        let mut table = Vec::new();
        engine
            .scan(&name, i64::MIN, i64::MAX, |pk, r| {
                table.push((pk, r.values))
            })
            .unwrap();
        out.insert(name, table);
    }
    out
}

/// Every visible row of every column index, by table name and PK.
fn columns(engine: &RowEngine, store: &ColumnStore) -> BTreeMap<String, BTreeMap<i64, Vec<Value>>> {
    let mut out = BTreeMap::new();
    for name in engine.table_names() {
        let id = engine.table(&name).unwrap().schema.table_id;
        let Ok(idx) = store.index(id) else { continue };
        let snap = idx.snapshot();
        let mut visible = BTreeMap::new();
        for g in idx.groups() {
            for off in g.visible_offsets(snap.csn).iter() {
                let r: Vec<Value> = (0..idx.covered.len())
                    .map(|c| g.value_at(c, off as usize))
                    .collect();
                let pk = r[idx.pk_pos].as_int().unwrap();
                assert!(
                    visible.insert(pk, r).is_none(),
                    "{name}: pk {pk} visible twice"
                );
            }
        }
        out.insert(name, visible);
    }
    out
}

/// What the column indexes of a node caught up with `writer`'s log must
/// hold: `writer`'s rows minus the in-flight keys, projected onto each
/// index's covered columns (`store` supplies the index layouts).
fn committed_columns(
    writer: &RowEngine,
    store: &ColumnStore,
    in_flight: &std::ops::Range<i64>,
) -> BTreeMap<String, BTreeMap<i64, Vec<Value>>> {
    let mut out = BTreeMap::new();
    for (name, table) in rows(writer) {
        let id = writer.table(&name).unwrap().schema.table_id;
        let Ok(idx) = store.index(id) else { continue };
        let committed = table
            .into_iter()
            .filter(|(pk, _)| !in_flight.contains(pk))
            .map(|(pk, r)| (pk, idx.covered.iter().map(|&c| r[c].clone()).collect()))
            .collect();
        out.insert(name, committed);
    }
    out
}

/// The end state of one apply path, in comparable form.
#[derive(Debug, PartialEq)]
struct End {
    rows: BTreeMap<String, Vec<(i64, Vec<Value>)>>,
    columns: BTreeMap<String, BTreeMap<i64, Vec<Value>>>,
    position: LogPosition,
    inflight: String,
}

fn pipeline_config() -> ReplicationConfig {
    ReplicationConfig {
        large_txn_threshold: THRESHOLD,
        ..ReplicationConfig::default()
    }
}

/// Drain `pipe` (the log must be fenced) and return the end state of
/// the node it fed, and its metrics.
fn drain(
    pipe: Pipeline,
    engine: &RowEngine,
    store: &ColumnStore,
) -> (End, Arc<ReplicationMetrics>) {
    let state = pipe.stop_after_drain().unwrap();
    assert_eq!(pipe.error_count(), 0, "{}", pipe.metrics().summary());
    let end = End {
        rows: rows(engine),
        columns: columns(engine, store),
        position: state.position,
        inflight: format!("{:?}", state.inflight),
    };
    (end, pipe.metrics().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tailing_whole_log_and_replay_apply_to_the_same_state(seed_value in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed_value);
        let fs = PolarFs::instant();
        let rw = RowEngine::new_rw(
            fs.clone(),
            LogWriter::new(fs.clone(), PropagationMode::ReuseRedo),
            1 << 20,
        );
        for name in ["a", "b"] {
            let (cols, idxs) = parts(false);
            rw.create_table(name, cols, idxs).unwrap();
        }
        // One RO tails the whole log as it is written, across the
        // promotion below.
        let tail_engine = RowEngine::new_replica(fs.clone(), usize::MAX / 2);
        let tail_store = Arc::new(ColumnStore::new(GROUP_CAP));
        let tailer = Pipeline::start(
            fs.clone(),
            tail_engine.clone(),
            tail_store.clone(),
            pipeline_config(),
            LogPosition::default(),
        );
        // Another live RO tails the first writer's traffic ...
        let ro = RowEngine::new_replica(fs.clone(), usize::MAX / 2);
        let live = Pipeline::start(
            fs.clone(),
            ro.clone(),
            Arc::new(ColumnStore::new(GROUP_CAP)),
            ReplicationConfig::default(),
            LogPosition::default(),
        );
        let fresh = traffic(&rw, &mut rng, 150, 10_000);
        let (doomed, fresh) = in_flight(&rw, fresh, 5);
        // ... and is drained and promoted while a transaction is open:
        // its rollback ships compensations, then the new writer's
        // traffic follows an epoch marker.
        fs.bump_epoch();
        let drained_ro = live.stop_after_drain().unwrap();
        prop_assert_eq!(drained_ro.inflight.len(), 5);
        drop((doomed, rw));
        promote(&fs, PropagationMode::ReuseRedo, &ro, &drained_ro.position, &drained_ro.inflight)
            .unwrap();
        let fresh = traffic(&ro, &mut rng, 150, fresh);
        // The second writer dies with two transactions in flight.
        let (open_a, after_a) = in_flight(&ro, fresh, 3);
        let (open_b, after_b) = in_flight(&ro, after_a, 2);
        fs.bump_epoch();

        let mut state = seed(&fs, GROUP_CAP).unwrap();
        let replayed = replay(&fs, &mut state, Stop::LogEnd).unwrap();
        let by_replay = End {
            rows: rows(&state.engine),
            columns: columns(&state.engine, &state.store),
            position: state.position,
            inflight: format!("{:?}", replayed.inflight),
        };
        prop_assert_eq!(replayed.inflight.len(), 5);
        // The writer itself is the ground truth the paths are held to:
        // its pages hold every commit plus the in-flight inserts, its
        // committed rows are what the column indexes must show.
        prop_assert_eq!(&by_replay.rows, &rows(&ro));
        prop_assert_eq!(&by_replay.columns, &committed_columns(&ro, &state.store, &(fresh..after_b)));

        let (tailed, m) = drain(tailer, &tail_engine, &tail_store);
        prop_assert!(m.precommits.load(Ordering::Relaxed) >= 1, "no transaction crossed the threshold");
        prop_assert_eq!(&tailed, &by_replay);

        let engine = RowEngine::new_replica(fs.clone(), usize::MAX / 2);
        let store = Arc::new(ColumnStore::new(GROUP_CAP));
        let whole = Pipeline::start(
            fs.clone(),
            engine.clone(),
            store.clone(),
            pipeline_config(),
            LogPosition::default(),
        );
        let (at_once, m) = drain(whole, &engine, &store);
        prop_assert_eq!(m.batches.load(Ordering::Relaxed), 1, "a drain reads the whole log at once");
        prop_assert_eq!(&at_once, &by_replay);
        drop((open_a, open_b));
    }
}

/// Page id, byte size and keys of every leaf of `table`, in chain order.
fn leaf_layout(engine: &RowEngine, table: &str) -> Vec<(PageId, usize, Vec<i64>)> {
    let bp = engine.buffer_pool();
    let mut out = Vec::new();
    let mut cur = Some(engine.table(table).unwrap().tree.first_leaf().unwrap());
    while let Some(id) = cur {
        let arc = bp.get(id).unwrap();
        let page = arc.read();
        let keys = page
            .leaf_entries()
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        out.push((id, page.byte_size(), keys));
        cur = match &page.kind {
            PageKind::Leaf { next, .. } => *next,
            _ => None,
        };
    }
    out
}

#[test]
fn ascending_bulk_load_replays_to_the_writers_leaf_layout() {
    let fs = PolarFs::instant();
    let rw = RowEngine::new_rw(
        fs.clone(),
        LogWriter::new(fs.clone(), PropagationMode::ReuseRedo),
        1 << 20,
    );
    let (cols, idxs) = parts(false);
    rw.create_table("a", cols, idxs).unwrap();
    let tail_engine = RowEngine::new_replica(fs.clone(), usize::MAX / 2);
    let tailer = Pipeline::start(
        fs.clone(),
        tail_engine.clone(),
        Arc::new(ColumnStore::new(GROUP_CAP)),
        ReplicationConfig::default(),
        LogPosition::default(),
    );
    // 6,000 rows of ~150 bytes in ascending keys, 500 per transaction.
    for chunk in (0..6_000i64).collect::<Vec<_>>().chunks(500) {
        let mut txn = rw.begin();
        for &pk in chunk {
            let wide = vec![
                Value::Int(pk),
                Value::Int(-pk),
                Value::Str(format!("{pk:0>120}")),
            ];
            rw.insert(&mut txn, "a", wide).unwrap();
        }
        rw.commit(txn).unwrap();
    }
    fs.bump_epoch();

    let written = leaf_layout(&rw, "a");
    assert!(written.len() > 40, "{} leaves", written.len());
    for (id, size, _) in &written[..written.len() - 1] {
        assert!(
            size * 10 >= PAGE_BYTE_CAPACITY * 9,
            "leaf {id} holds {size} of {PAGE_BYTE_CAPACITY} bytes"
        );
    }
    let mut state = seed(&fs, GROUP_CAP).unwrap();
    replay(&fs, &mut state, Stop::LogEnd).unwrap();
    assert_eq!(leaf_layout(&state.engine, "a"), written, "replay");
    tailer.stop_after_drain().unwrap();
    assert_eq!(tailer.error_count(), 0);
    assert_eq!(leaf_layout(&tail_engine, "a"), written, "tailing pipeline");
}
