//! Checkpoints record a full log position at a transaction boundary,
//! and every node built from one — a scaled-out RO, a recovered RW, the
//! next checkpoint — resumes from exactly that position.
//!
//! The scenarios pin what goes wrong when a checkpoint cursor can split
//! a transaction or when a node re-derives its position on its own: a
//! transaction open at checkpoint time must land whole in a booted RO's
//! column index once it commits, must vanish everywhere if it never
//! commits, and a checkpoint with nothing after it must leave a new RO
//! caught up the moment it boots.

use polardb_imci::cluster::RoNode;
use polardb_imci::replication::take_checkpoint;
use polardb_imci::sql::QueryOptions;
use polardb_imci::wal::LogReader;
use polardb_imci::{Cluster, ClusterConfig, EngineChoice, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DDL: &str = "CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY(id),
                   KEY COLUMN_INDEX(id, v))";

fn cluster() -> Arc<Cluster> {
    let c = Cluster::start(ClusterConfig {
        n_ro: 1,
        group_cap: 16,
        ..Default::default()
    });
    c.execute(DDL).unwrap();
    c.execute("INSERT INTO t VALUES (0, 0)").unwrap();
    c
}

fn count(node: &RoNode, engine: EngineChoice) -> Value {
    let res = node
        .query
        .run(
            "SELECT COUNT(*) FROM t",
            &QueryOptions::forced(Some(engine)),
        )
        .unwrap();
    assert_eq!(res.engine, engine);
    res.rows[0][0].clone()
}

fn newest_ro(c: &Cluster) -> Arc<RoNode> {
    c.ros.read().last().unwrap().clone()
}

/// Open a transaction and insert `pks` into it, without committing.
fn insert_open(
    rw: &polardb_imci::rowstore::RowEngine,
    txn: &mut polardb_imci::rowstore::Txn,
    pks: std::ops::Range<i64>,
) {
    for pk in pks {
        rw.insert(txn, "t", vec![Value::Int(pk), Value::Int(pk)])
            .unwrap();
    }
}

#[test]
fn transaction_open_at_checkpoint_lands_whole_in_a_booted_ro() {
    let c = cluster();
    let rw = c.rw().unwrap();
    let mut txn = rw.begin();
    insert_open(&rw, &mut txn, 100..110);
    c.checkpoint_now().unwrap();
    insert_open(&rw, &mut txn, 110..120);
    rw.commit(txn).unwrap();

    let report = c.scale_out().unwrap();
    assert!(report.from_checkpoint);
    let ro = newest_ro(&c);
    assert!(ro
        .pipeline
        .wait_applied(c.written_lsn(), Duration::from_secs(10)));
    assert_eq!(count(&ro, EngineChoice::Row), Value::Int(21));
    assert_eq!(count(&ro, EngineChoice::Column), Value::Int(21));
    assert_eq!(ro.pipeline.error_count(), 0);
    c.shutdown();
}

#[test]
fn transaction_open_at_checkpoint_never_survives_recovery() {
    let c = cluster();
    c.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    let rw = c.rw().unwrap();
    let mut doomed = rw.begin();
    insert_open(&rw, &mut doomed, 100..110);
    c.checkpoint_now().unwrap();
    drop((rw, doomed));

    c.crash_rw();
    let report = c.recover_rw().unwrap();
    assert!(report.from_checkpoint);
    assert_eq!(report.rolled_back_txns, 1);
    assert_eq!(report.rolled_back_ops, 10);
    assert_eq!(c.rw().unwrap().row_count("t").unwrap(), 2);

    // A committed write pushes the written LSN past the rollback, so
    // waiting for it covers the compensations on every RO.
    c.execute("INSERT INTO t VALUES (2, 2)").unwrap();
    c.scale_out().unwrap();
    assert!(c.wait_sync(Duration::from_secs(10)));
    for ro in c.ros.read().iter() {
        assert_eq!(count(ro, EngineChoice::Row), Value::Int(3), "{}", ro.name);
        assert_eq!(
            count(ro, EngineChoice::Column),
            Value::Int(3),
            "{}",
            ro.name
        );
        assert_eq!(ro.pipeline.error_count(), 0);
    }
    c.shutdown();
}

#[test]
fn scale_out_after_a_final_checkpoint_is_caught_up_at_boot() {
    let c = cluster();
    c.checkpoint_now().unwrap();
    let t0 = Instant::now();
    let report = c.scale_out().unwrap();
    assert!(report.from_checkpoint);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "took {:?}",
        t0.elapsed()
    );
    assert_eq!(newest_ro(&c).applied_lsn(), c.written_lsn());
    c.shutdown();
}

#[test]
fn next_checkpoint_replays_only_the_entries_after_the_last_cursor() {
    let c = cluster();
    let first = c.checkpoint_now().unwrap();
    let cursor = polardb_imci::imci::read_meta(&c.fs, first)
        .unwrap()
        .position
        .offset;
    for pk in 1..40 {
        c.execute(&format!("INSERT INTO t VALUES ({pk}, {pk})"))
            .unwrap();
    }
    let frames_from = |offset| {
        let mut frames = Vec::new();
        LogReader::new(c.fs.clone(), offset)
            .read_frames_until(u64::MAX, &mut frames)
            .unwrap();
        frames
    };
    let (suffix, whole) = (frames_from(cursor), frames_from(0));
    let (state, replayed) = take_checkpoint(&c.fs, first + 1, None, 16).unwrap();
    assert_eq!(state.checkpoint, Some(first));
    assert_eq!(replayed.entries, suffix.len());
    assert!(replayed.entries < whole.len());
    assert_eq!(replayed.committed_txns, 39);
    assert_eq!(state.engine.row_count("t").unwrap(), 40);
    c.shutdown();
}
