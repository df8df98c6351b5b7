//! A REDO frame that is complete but does not decode must fail loudly.
//! Skipping it would drop a change; waiting on it forever would stall a
//! replica with no error; replaying only the prefix before it would
//! make recovery drop every commit after it.

use polardb_imci::common::{
    ColumnDef, DataType, IndexDef, IndexKind, Lsn, PageId, TableId, Value, SYSTEM_TID,
};
use polardb_imci::imci::ColumnStore;
use polardb_imci::polarfs::PolarFs;
use polardb_imci::replication::{replay, seed, LogPosition, Pipeline, ReplicationConfig, Stop};
use polardb_imci::rowstore::RowEngine;
use polardb_imci::wal::{LogWriter, PropagationMode, RedoEntry, RedoPayload, REDO_LOG_NAME};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn insert_committed(rw: &RowEngine, pks: std::ops::Range<i64>) {
    let mut txn = rw.begin();
    for pk in pks {
        rw.insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(pk)])
            .unwrap();
    }
    rw.commit(txn).unwrap();
}

/// A writer over fresh storage with table `t` (column-indexed).
fn writer() -> (PolarFs, Arc<RowEngine>) {
    let fs = PolarFs::instant();
    let rw = RowEngine::new_rw(
        fs.clone(),
        LogWriter::new(fs.clone(), PropagationMode::ReuseRedo),
        1 << 20,
    );
    rw.create_table(
        "t",
        vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("v", DataType::Int),
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
    (fs, rw)
}

#[test]
fn undecodable_frame_stops_replication_and_fails_replay() {
    let (fs, rw) = writer();
    insert_committed(&rw, 0..10);
    let before_bad = rw.log().unwrap().written_lsn().get();

    // A well-framed entry whose record type does not exist.
    let mut bad = RedoEntry {
        lsn: Lsn(before_bad + 1),
        prev_lsn: Lsn::ZERO,
        tid: SYSTEM_TID,
        table_id: TableId(1),
        page_id: PageId(1),
        slot_id: 0,
        payload: RedoPayload::Abort,
    }
    .encode();
    *bad.last_mut().unwrap() = 200;
    fs.append(REDO_LOG_NAME, &bad);
    insert_committed(&rw, 10..20);

    let pipe = Pipeline::start(
        fs.clone(),
        RowEngine::new_replica(fs.clone(), 1 << 20),
        Arc::new(ColumnStore::new(1024)),
        ReplicationConfig::default(),
        LogPosition::default(),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while pipe.error_count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(pipe.error_count() > 0, "the bad frame was not reported");
    // Everything before the frame applied; the commit behind it never.
    assert_eq!(pipe.metrics().applied_lsn(), before_bad);
    assert!(pipe.stop_after_drain().is_err());

    let mut state = seed(&fs, 1024).unwrap();
    assert!(replay(&fs, &mut state, Stop::LogEnd).is_err());
}

#[test]
fn replay_to_the_log_end_rejects_a_frame_that_overruns_it() {
    let (fs, rw) = writer();
    insert_committed(&rw, 0..10);
    // A length prefix far larger than what follows it: the frame can
    // never complete, and every commit behind it would be lost.
    fs.append(REDO_LOG_NAME, &[0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3]);
    insert_committed(&rw, 10..20);
    let mut state = seed(&fs, 1024).unwrap();
    assert!(replay(&fs, &mut state, Stop::LogEnd).is_err());
}
