//! Versioned catalog replication: DDL ships through the REDO stream and
//! is applied by RO nodes in LSN order with the data changes. These
//! tests pin the end-to-end guarantees: no DML is lost to a table a
//! replica does not know yet, and no RO node serves a stale catalog.

use polardb_imci::{Cluster, ClusterConfig, Consistency, Error, ExecOpts, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

fn strong() -> ExecOpts {
    ExecOpts {
        consistency: Some(Consistency::Strong),
        ..Default::default()
    }
}

/// The headline guarantee: `CREATE TABLE; INSERT; SELECT @strong` must
/// never lose the row, on any RO node, no matter how soon the read
/// follows the DDL. The CREATE's record precedes the INSERT's entries
/// in the log, so every replica knows the table before its first DML,
/// and the strong read fences on the DDL's commit like on the INSERT's.
#[test]
fn create_insert_strong_select_never_loses_rows() {
    let c = Cluster::start(ClusterConfig {
        n_ro: 3,
        group_cap: 64,
        ..Default::default()
    });
    for round in 0..8i64 {
        let t = format!("churn_{round}");
        c.execute(&format!(
            "CREATE TABLE {t} (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))"
        ))
        .unwrap();
        c.execute(&format!(
            "INSERT INTO {t} VALUES (1, {round}), (2, {round})"
        ))
        .unwrap();
        // Immediately round-robin strong reads across the replicas.
        for i in 0..6 {
            let res = c
                .execute_opts(&format!("SELECT v FROM {t} WHERE id = 1"), strong())
                .unwrap_or_else(|e| panic!("round {round} read {i}: {e}"));
            assert_eq!(res.rows.len(), 1, "round {round} read {i}: lost row");
            assert_eq!(res.rows[0][0], Value::Int(round));
        }
        // And every sibling replica individually — not just whichever
        // node the proxy happened to route. Siblings converge through
        // the log (the old design left them stale until they were
        // routed a failing query), so after a sync all must agree.
        assert!(c.wait_sync(Duration::from_secs(20)));
        for ro in c.ros.read().iter() {
            assert_eq!(
                ro.engine.row_count(&t).unwrap(),
                2,
                "round {round}: {} is stale",
                ro.name
            );
        }
    }
    for ro in c.ros.read().iter() {
        assert_eq!(ro.pipeline.error_count(), 0, "{}", ro.name);
    }
    c.shutdown();
}

/// `DROP TABLE` → strong reads error with a catalog failure on every RO
/// node, and never return stale rows.
#[test]
fn drop_then_strong_select_errors_everywhere() {
    let c = Cluster::start(ClusterConfig {
        n_ro: 2,
        group_cap: 64,
        ..Default::default()
    });
    c.execute(
        "CREATE TABLE gone (id INT NOT NULL, v INT, PRIMARY KEY(id),
         KEY COLUMN_INDEX(id, v))",
    )
    .unwrap();
    c.execute("INSERT INTO gone VALUES (1, 1)").unwrap();
    c.execute("DROP TABLE gone").unwrap();
    assert!(c.wait_sync(Duration::from_secs(20)));
    for _ in 0..4 {
        match c.execute_opts("SELECT v FROM gone WHERE id = 1", strong()) {
            Err(Error::Catalog(_)) => {}
            other => panic!("expected catalog error after DROP, got {other:?}"),
        }
    }
    c.shutdown();
}

// ---- randomized interleavings vs. a single-node oracle ----

const N_TABLES: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(usize),
    Drop(usize),
    Insert(usize, i64, i64),
    Update(usize, i64, i64),
    Delete(usize, i64),
    ScaleOut,
}

fn decode_op((kind, t, pk, v): (u8, u8, i64, i64)) -> Op {
    let t = t as usize % N_TABLES;
    match kind {
        0 => Op::Create(t),
        1 => Op::Drop(t),
        2..=5 => Op::Insert(t, pk, v),
        6..=8 => Op::Update(t, pk, v),
        9 => Op::Delete(t, pk),
        _ => Op::ScaleOut,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random CREATE/DROP/INSERT/UPDATE/DELETE/scale-out schedules,
    /// executed through the proxy; the oracle is a plain in-process map
    /// of what each live table must contain. After the schedule, every
    /// RO node (including any scaled-out mid-schedule) must agree with
    /// the oracle on row counts and contents, with zero pipeline
    /// errors. Invalid ops (inserting into a dropped table, duplicate
    /// CREATE, ...) are skipped — every executed statement is expected
    /// to succeed, so any error is a real regression.
    #[test]
    fn random_ddl_dml_schedules_converge(
        raw in prop::collection::vec((0u8..11, 0u8..4, 0i64..30, -999i64..999), 1..40)
    ) {
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 32,
            ..Default::default()
        });
        // Oracle: per-slot live table contents; None = dropped/never
        // created. Table names get a generation suffix so a re-created
        // slot is a genuinely new table (fresh table id on the RW too).
        let mut oracle: Vec<Option<BTreeMap<i64, i64>>> = vec![None; N_TABLES];
        let mut names: Vec<String> = (0..N_TABLES).map(|t| format!("p{t}_g0")).collect();
        let mut gen = [0usize; N_TABLES];
        let mut scaled = false;
        for op in raw.into_iter().map(decode_op) {
            match op {
                Op::Create(t) => {
                    if oracle[t].is_none() {
                        gen[t] += 1;
                        names[t] = format!("p{t}_g{}", gen[t]);
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
                            c.execute(&format!(
                                "UPDATE {} SET v = {v} WHERE id = {pk}",
                                names[t]
                            ))
                            .unwrap();
                            rows.insert(pk, v);
                        }
                    }
                }
                Op::Delete(t, pk) => {
                    if let Some(rows) = oracle[t].as_mut() {
                        if rows.remove(&pk).is_some() {
                            c.execute(&format!(
                                "DELETE FROM {} WHERE id = {pk}",
                                names[t]
                            ))
                            .unwrap();
                        }
                    }
                }
                Op::ScaleOut => {
                    // At most one mid-schedule scale-out per case keeps
                    // the test cheap; the new node must replay all DDL
                    // from the log (no checkpoint exists here).
                    if !scaled {
                        c.scale_out().unwrap();
                        scaled = true;
                    }
                }
            }
        }
        prop_assert!(c.wait_sync(Duration::from_secs(30)), "replicas must catch up");
        for (t, slot) in oracle.iter().enumerate() {
            match slot {
                Some(rows) => {
                    // Through the proxy, strong.
                    let res = c
                        .execute_opts(&format!("SELECT COUNT(*) FROM {}", names[t]), strong())
                        .unwrap();
                    prop_assert_eq!(res.rows[0][0].clone(), Value::Int(rows.len() as i64));
                    // On every node directly, contents included.
                    for ro in c.ros.read().iter() {
                        prop_assert_eq!(
                            ro.engine.row_count(&names[t]).unwrap(),
                            rows.len(),
                            "{} row count for {}", ro.name, names[t]
                        );
                        for (&pk, &v) in rows {
                            let row = ro.engine.get_row(&names[t], pk).unwrap();
                            let row = row.unwrap_or_else(|| {
                                panic!("{}: {} lost pk {pk}", ro.name, names[t])
                            });
                            prop_assert_eq!(row.values[1].clone(), Value::Int(v));
                        }
                    }
                }
                None => {
                    for ro in c.ros.read().iter() {
                        prop_assert!(
                            ro.engine.table(&names[t]).is_err(),
                            "{}: dropped table {} still visible", ro.name, names[t]
                        );
                    }
                }
            }
        }
        for ro in c.ros.read().iter() {
            prop_assert_eq!(ro.pipeline.error_count(), 0, "{} had pipeline errors", ro.name);
        }
        c.shutdown();
    }
}
