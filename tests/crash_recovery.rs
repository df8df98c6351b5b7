//! Crash recovery and RO→RW failover, pinned against a map oracle.
//!
//! The contract under test (paper §2.2/§7): because the REDO log,
//! pages, and checkpoints all live in shared storage, an RW crash loses
//! **nothing committed** and **nothing uncommitted survives** — whether
//! the cluster restarts the RW in place (`recover_rw`) or promotes an
//! RO (`failover`). The proptest runs a random workload prefix
//! (CREATE/DROP/INSERT/UPDATE/DELETE/checkpoint), crashes at a random
//! point — with transactions left in flight, right after DDL, and with
//! a torn (meta-less) checkpoint on storage — recovers either way, and
//! verifies against a plain map of what was committed:
//!
//! * every committed write is present, on the new RW and on every RO;
//! * no uncommitted write is visible anywhere;
//! * the catalog version never regresses;
//! * the cluster serves reads and writes afterwards, with zero
//!   replication errors.

use polardb_imci::sql::{QueryOptions, COST_THRESHOLD};
use polardb_imci::{
    Cluster, ClusterConfig, Consistency, EngineChoice, Error, ExecOpts, SupervisorConfig, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn strong() -> ExecOpts {
    ExecOpts {
        consistency: Some(Consistency::Strong),
        ..Default::default()
    }
}

const N_TABLES: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(usize),
    Drop(usize),
    Insert(usize, i64, i64),
    Update(usize, i64, i64),
    Delete(usize, i64),
    Checkpoint,
}

fn decode_op((kind, t, pk, v): (u8, u8, i64, i64)) -> Op {
    let t = t as usize % N_TABLES;
    match kind {
        0 => Op::Create(t),
        1 => Op::Drop(t),
        2..=5 => Op::Insert(t, pk, v),
        6..=8 => Op::Update(t, pk, v),
        9 => Op::Delete(t, pk),
        _ => Op::Checkpoint,
    }
}

/// Shared verification: the new RW and every RO agree with the oracle.
#[allow(clippy::type_complexity)]
fn verify_against_oracle(
    c: &Arc<Cluster>,
    oracle: &[Option<BTreeMap<i64, i64>>],
    names: &[String],
) {
    let rw = c.rw().expect("writer role filled after recovery");
    for (t, slot) in oracle.iter().enumerate() {
        match slot {
            Some(rows) => {
                assert_eq!(
                    rw.row_count(&names[t]).unwrap(),
                    rows.len(),
                    "row count of {} on the recovered RW",
                    names[t]
                );
                for (&pk, &v) in rows {
                    let row = rw
                        .get_row(&names[t], pk)
                        .unwrap()
                        .unwrap_or_else(|| panic!("{}: committed pk {pk} lost", names[t]));
                    assert_eq!(row.values[1], Value::Int(v), "{} pk {pk}", names[t]);
                }
            }
            None => assert!(
                rw.table(&names[t]).is_err(),
                "dropped table {} resurrected",
                names[t]
            ),
        }
    }
    // Replicas converge through the log (including the recovery's
    // compensation records) to the same committed state.
    assert!(c.wait_sync(Duration::from_secs(30)), "ROs must catch up");
    for ro in c.ros.read().iter() {
        for (t, slot) in oracle.iter().enumerate() {
            match slot {
                Some(rows) => {
                    assert_eq!(
                        ro.engine.row_count(&names[t]).unwrap(),
                        rows.len(),
                        "{}: {} diverged",
                        ro.name,
                        names[t]
                    );
                    for (&pk, &v) in rows {
                        let row = ro
                            .engine
                            .get_row(&names[t], pk)
                            .unwrap()
                            .unwrap_or_else(|| {
                                panic!("{}: {} lost committed pk {pk}", ro.name, names[t])
                            });
                        assert_eq!(row.values[1], Value::Int(v));
                    }
                }
                None => assert!(ro.engine.table(&names[t]).is_err(), "{}", ro.name),
            }
        }
        assert_eq!(ro.pipeline.error_count(), 0, "{} pipeline errors", ro.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_workload_survives_crash_and_failover(
        raw in prop::collection::vec((0u8..12, 0u8..4, 0i64..30, -999i64..999), 1..40),
        promote in any::<bool>(),
        torn_checkpoint in any::<bool>(),
        inflight_ops in 0usize..4,
    ) {
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 32,
            ..Default::default()
        });
        // Oracle: per-slot live table contents; None = dropped/never
        // created. Generation suffixes make re-created slots new tables.
        let mut oracle: Vec<Option<BTreeMap<i64, i64>>> = vec![None; N_TABLES];
        let mut names: Vec<String> = (0..N_TABLES).map(|t| format!("c{t}_g0")).collect();
        let mut gen = [0usize; N_TABLES];
        for op in raw.into_iter().map(decode_op) {
            match op {
                Op::Create(t) => {
                    if oracle[t].is_none() {
                        gen[t] += 1;
                        names[t] = format!("c{t}_g{}", gen[t]);
                        c.execute(&format!(
                            "CREATE TABLE {} (id INT NOT NULL, v INT, PRIMARY KEY(id),
                             KEY COLUMN_INDEX(id, v))",
                            names[t]
                        ))
                        .unwrap();
                        oracle[t] = Some(BTreeMap::new());
                    }
                }
                Op::Drop(t) => {
                    if oracle[t].is_some() {
                        c.execute(&format!("DROP TABLE {}", names[t])).unwrap();
                        oracle[t] = None;
                    }
                }
                Op::Insert(t, pk, v) => {
                    if let Some(rows) = oracle[t].as_mut() {
                        if let std::collections::btree_map::Entry::Vacant(slot) = rows.entry(pk) {
                            c.execute(&format!("INSERT INTO {} VALUES ({pk}, {v})", names[t]))
                                .unwrap();
                            slot.insert(v);
                        }
                    }
                }
                Op::Update(t, pk, v) => {
                    if let Some(rows) = oracle[t].as_mut() {
                        if rows.contains_key(&pk) {
                            c.execute(&format!("UPDATE {} SET v = {v} WHERE id = {pk}", names[t]))
                                .unwrap();
                            rows.insert(pk, v);
                        }
                    }
                }
                Op::Delete(t, pk) => {
                    if let Some(rows) = oracle[t].as_mut() {
                        if rows.remove(&pk).is_some() {
                            c.execute(&format!("DELETE FROM {} WHERE id = {pk}", names[t]))
                                .unwrap();
                        }
                    }
                }
                Op::Checkpoint => {
                    c.checkpoint_now().unwrap();
                }
            }
        }

        // Leave a transaction in flight at the crash: its CALS-shipped
        // entries are in the log and on the replicas, but no commit
        // record exists — nothing of it may survive recovery.
        let rw = c.rw().unwrap();
        let live: Vec<usize> = (0..N_TABLES).filter(|&t| oracle[t].is_some()).collect();
        let mut doomed = rw.begin();
        let mut doomed_pks: Vec<(usize, i64)> = Vec::new();
        if !live.is_empty() {
            for i in 0..inflight_ops {
                let t = live[i % live.len()];
                // PKs outside the oracle's 0..30 range: unambiguous.
                let pk = 1_000 + i as i64;
                rw.insert(&mut doomed, &names[t], vec![Value::Int(pk), Value::Int(-1)])
                    .unwrap();
                doomed_pks.push((t, pk));
            }
        }
        // A torn checkpoint (crash mid-checkpoint: objects written,
        // meta — which is written last — missing) must be ignored.
        if torn_checkpoint {
            c.fs.put_object(
                "ckpt/999999999990/rowpages/00000000000000000001",
                bytes::Bytes::from_static(b"torn"),
            );
            c.fs.put_object("ckpt/999999999990/catalog", bytes::Bytes::from_static(b"torn"));
        }
        let catalog_version_before = rw.catalog_version();
        let written_before = c.written_lsn();
        drop((rw, doomed));

        // Crash, then recover in place or promote an RO.
        let zombie = c.crash_rw().expect("RW was up");
        assert!(matches!(
            c.execute("INSERT INTO nowhere VALUES (1, 1)").unwrap_err(),
            Error::Failover(_)
        ));
        if promote {
            let report = c.failover().unwrap();
            prop_assert!(report.epoch >= 1);
            prop_assert!(report.column_caught_up, "column rebuild timed out");
        } else {
            c.recover_rw().unwrap();
        }

        // The zombie is fenced out of shared storage for good.
        if let Some(t) = live.first() {
            let mut ztxn = zombie.begin();
            let zerr = zombie
                .insert(&mut ztxn, &names[*t], vec![Value::Int(5_000), Value::Int(0)])
                .unwrap_err();
            prop_assert!(zerr.is_retryable(), "zombie write must be fenced: {zerr}");
        }

        // Catalog version is monotonic across the ownership change, and
        // the strong-consistency fence never regressed.
        let rw = c.rw().unwrap();
        prop_assert!(
            rw.catalog_version() >= catalog_version_before,
            "catalog version regressed: {} < {catalog_version_before}",
            rw.catalog_version()
        );
        prop_assert!(c.written_lsn() >= written_before);

        // The cluster serves writes again. This also acts as a fence:
        // recovery's compensation + abort records advance no commit
        // watermark (nothing committed!), so one committed statement
        // pushes the written LSN past them and `wait_sync` then covers
        // the rollback when we inspect the replicas below.
        if let Some(t) = live.first() {
            c.execute(&format!("INSERT INTO {} VALUES (2000, 7)", names[*t]))
                .unwrap();
            oracle[*t].as_mut().unwrap().insert(2000, 7);
        } else {
            c.execute("CREATE TABLE fence (id INT NOT NULL, PRIMARY KEY(id))")
                .unwrap();
        }

        // No committed write lost, no uncommitted write visible.
        verify_against_oracle(&c, &oracle, &names);
        for (t, pk) in &doomed_pks {
            if oracle[*t].is_some() {
                prop_assert!(
                    rw.get_row(&names[*t], *pk).unwrap().is_none(),
                    "in-flight pk {pk} of {} survived the crash",
                    names[*t]
                );
                for ro in c.ros.read().iter() {
                    prop_assert!(
                        ro.engine.get_row(&names[*t], *pk).unwrap().is_none(),
                        "{}: in-flight pk {pk} of {} survived on the replica",
                        ro.name,
                        names[*t]
                    );
                }
            }
        }

        // Strong reads work end to end on whatever RO remains (or the
        // RW directly if the promotion consumed the last one).
        if let Some(t) = live.first() {
            let res = c
                .execute_opts(
                    &format!("SELECT v FROM {} WHERE id = 2000", names[*t]),
                    strong(),
                )
                .unwrap();
            prop_assert_eq!(res.rows.len(), 1);
            prop_assert_eq!(res.rows[0][0].clone(), Value::Int(7));
        }
        c.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Auto-detection schedules: with the supervisor running, either
    /// the writer dies (lease expiry — the supervisor must detect and
    /// promote with **no caller invoking `failover()`**) or the writer
    /// is merely slow (heartbeat interval a large fraction of the lease
    /// — the supervisor must NOT depose a live writer, for any jitter
    /// seed). Both schedules end with the cluster serving reads and
    /// writes with nothing lost.
    #[test]
    fn supervisor_detection_schedules_promote_only_dead_writers(
        kill in any::<bool>(),
        lease_ms in 50u64..90,
        seed in any::<u64>(),
    ) {
        // Dead-writer schedules beat fast (the lease expires because
        // nobody beats); slow-writer schedules beat at half the lease,
        // so every expiry check sees a fresh-enough beat.
        let hb_ms = if kill { 4 } else { lease_ms / 2 };
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 32,
            heartbeat_interval: Duration::from_millis(hb_ms),
            supervisor: Some(SupervisorConfig {
                lease_timeout: Duration::from_millis(lease_ms),
                jitter: Duration::from_millis(lease_ms / 4),
                seed,
            }),
            ..Default::default()
        });
        c.execute(
            "CREATE TABLE sched (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO sched VALUES ({i}, {i})")).unwrap();
        }
        if kill {
            c.crash_rw();
            let deadline = Instant::now() + Duration::from_secs(30);
            while c.auto_failovers() == 0 {
                prop_assert!(Instant::now() < deadline, "supervisor never promoted");
                std::thread::sleep(Duration::from_millis(5));
            }
            prop_assert!(c.wait_for_writer(Duration::from_secs(30)), "no writer after promotion");
            // Detection can't be faster than the lease itself.
            prop_assert!(
                c.detection_ms_last() as u128 >= Duration::from_millis(lease_ms).as_millis(),
                "detection {}ms under the {lease_ms}ms lease",
                c.detection_ms_last()
            );
        } else {
            // Three lease periods of grace: plenty of chances to flap.
            std::thread::sleep(Duration::from_millis(lease_ms * 3));
            prop_assert_eq!(c.auto_failovers(), 0, "deposed a live writer");
        }
        c.execute("INSERT INTO sched VALUES (100, 100)").unwrap();
        let res = c.execute_opts("SELECT COUNT(*) FROM sched", strong()).unwrap();
        prop_assert_eq!(res.rows[0][0].clone(), Value::Int(51));
        // Whatever the schedule, exactly one writer epoch history: no
        // further promotions happen once the cluster is stable again.
        let before = c.auto_failovers();
        std::thread::sleep(Duration::from_millis(lease_ms * 2));
        prop_assert_eq!(c.auto_failovers(), before, "supervisor flapped after recovery");
        c.shutdown();
    }
}

/// Crash immediately after a DDL statement (commit record in the log):
/// the created table must survive recovery even with no checkpoint, on
/// both recovery paths.
#[test]
fn crash_right_after_ddl_keeps_the_table() {
    for promote in [false, true] {
        let c = Cluster::start(ClusterConfig {
            n_ro: 1,
            group_cap: 32,
            ..Default::default()
        });
        c.execute(
            "CREATE TABLE fresh (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        c.crash_rw();
        if promote {
            assert!(c.failover().unwrap().column_caught_up);
        } else {
            c.recover_rw().unwrap();
        }
        c.execute("INSERT INTO fresh VALUES (1, 1)").unwrap();
        let res = c
            .execute_opts("SELECT COUNT(*) FROM fresh", strong())
            .unwrap();
        assert_eq!(res.rows[0][0], Value::Int(1), "promote={promote}");
        c.shutdown();
    }
}

/// Back-to-back crash cycles with traffic in between: state survives an
/// arbitrary chain of ownership changes (recover → crash → promote).
#[test]
fn repeated_crash_cycles_accumulate_no_loss() {
    let c = Cluster::start(ClusterConfig {
        n_ro: 2,
        group_cap: 32,
        ..Default::default()
    });
    c.execute(
        "CREATE TABLE walk (id INT NOT NULL, v INT, PRIMARY KEY(id),
         KEY COLUMN_INDEX(id, v))",
    )
    .unwrap();
    let mut expected = 0i64;
    for cycle in 0..4 {
        for i in 0..25 {
            c.execute(&format!(
                "INSERT INTO walk VALUES ({}, {cycle})",
                expected + i
            ))
            .unwrap();
        }
        expected += 25;
        if cycle == 1 {
            c.checkpoint_now().unwrap();
        }
        c.crash_rw();
        if cycle % 2 == 0 {
            c.recover_rw().unwrap();
        } else {
            assert!(c.failover().unwrap().column_caught_up, "cycle {cycle}");
        }
        assert_eq!(
            c.rw().unwrap().row_count("walk").unwrap() as i64,
            expected,
            "cycle {cycle}"
        );
    }
    let res = c
        .execute_opts("SELECT COUNT(*) FROM walk", strong())
        .unwrap();
    assert_eq!(res.rows[0][0], Value::Int(expected));
    c.shutdown();
}

/// Strong reads never regress across a failover. On a default cluster
/// (one RO), each INSERT is visible to the Strong `COUNT(*)` right after
/// it, with the column engine pinned and on default routing over a
/// table above the router's cost threshold. The rounds before the
/// failover are the control.
#[test]
fn strong_reads_see_every_insert_across_failover() {
    let c = Cluster::start(ClusterConfig::default());
    c.execute(
        "CREATE TABLE big (id INT NOT NULL, v INT, PRIMARY KEY(id),
         KEY COLUMN_INDEX(id, v))",
    )
    .unwrap();
    // COUNT(*) over 15,000 rows costs above COST_THRESHOLD, so default
    // routing picks the column engine on an RO.
    let mut next = 15_000i64;
    assert!(next as f64 > COST_THRESHOLD);
    for start in (0..next).step_by(500) {
        let rows: Vec<String> = (start..start + 500).map(|i| format!("({i}, 0)")).collect();
        c.execute(&format!("INSERT INTO big VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let mut rounds = |phase: &str| {
        for engine in [Some(EngineChoice::Column), None] {
            let opts = ExecOpts {
                consistency: Some(Consistency::Strong),
                query: QueryOptions::forced(engine),
            };
            for round in 0..200 {
                c.execute(&format!("INSERT INTO big VALUES ({next}, 1)"))
                    .unwrap();
                next += 1;
                let res = c.execute_opts("SELECT COUNT(*) FROM big", opts).unwrap();
                assert_eq!(
                    res.rows[0][0],
                    Value::Int(next),
                    "{phase}, engine {engine:?}, round {round}"
                );
            }
        }
    };
    rounds("before failover");
    c.crash_rw();
    c.failover().unwrap();
    rounds("after failover");
    c.shutdown();
}
