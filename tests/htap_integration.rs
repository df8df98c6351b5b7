//! Cross-crate integration tests: full HTAP paths through the cluster.

use polardb_imci::sql::QueryOptions;
use polardb_imci::{Cluster, ClusterConfig, Consistency, EngineChoice, Value};
use std::time::Duration;

/// Compare result sets, treating doubles as equal within a relative
/// epsilon (parallel aggregation sums in a different order than the
/// row-at-a-time engine, so last-bit differences are expected).
fn assert_rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: row counts differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len(), "{ctx}: widths differ");
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Double(x), Value::Double(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() / scale < 1e-9, "{ctx}: {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "{ctx}"),
            }
        }
    }
}

fn cluster() -> std::sync::Arc<Cluster> {
    Cluster::start(ClusterConfig {
        group_cap: 128,
        ..Default::default()
    })
}

#[test]
fn tpch_mini_engines_agree_on_all_22_queries() {
    let c = cluster();
    polardb_imci::workloads::tpch::load(&c, 0.0005, 11).unwrap();
    assert!(c.wait_sync(Duration::from_secs(120)));
    let node = c.ros.read()[0].clone();
    for (name, sql) in polardb_imci::workloads::tpch::queries() {
        let col = node
            .query
            .run(&sql, &QueryOptions::forced(Some(EngineChoice::Column)))
            .unwrap();
        assert_eq!(col.engine, EngineChoice::Column, "{name}");
        let row = node
            .query
            .run(&sql, &QueryOptions::forced(Some(EngineChoice::Row)))
            .unwrap();
        assert_rows_approx_eq(&col.rows, &row.rows, name);
    }
    c.shutdown();
}

#[test]
fn mixed_workload_stays_consistent() {
    let c = cluster();
    c.execute(
        "CREATE TABLE acct (id INT NOT NULL, bal DOUBLE, tag VARCHAR(8),
         PRIMARY KEY(id), KEY COLUMN_INDEX(id, bal, tag))",
    )
    .unwrap();
    for i in 0..500 {
        c.execute(&format!(
            "INSERT INTO acct VALUES ({i}, 100.0, 't{}')",
            i % 4
        ))
        .unwrap();
    }
    // Transfer-style updates: total balance must be invariant.
    for i in 0..200 {
        let a = i % 500;
        let b = (i * 7 + 1) % 500;
        if a == b {
            continue;
        }
        let rw = c.rw().expect("RW node is up");
        let mut txn = rw.begin();
        let mut ra = rw.get_row("acct", a).unwrap().unwrap();
        let mut rb = rw.get_row("acct", b).unwrap().unwrap();
        ra.values[1] = Value::Double(ra.values[1].as_f64().unwrap() - 5.0);
        rb.values[1] = Value::Double(rb.values[1].as_f64().unwrap() + 5.0);
        rw.update(&mut txn, "acct", a, ra.values).unwrap();
        rw.update(&mut txn, "acct", b, rb.values).unwrap();
        rw.commit(txn).unwrap();
    }
    assert!(c.wait_sync(Duration::from_secs(60)));
    let res = c.execute("SELECT SUM(bal), COUNT(*) FROM acct").unwrap();
    assert_eq!(res.rows[0][1], Value::Int(500));
    let total = res.rows[0][0].as_f64().unwrap();
    assert!((total - 50_000.0).abs() < 1e-6, "money conserved: {total}");
    c.shutdown();
}

#[test]
fn aborted_transfer_leaves_no_trace_in_analytics() {
    let c = cluster();
    c.execute("CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY(id), KEY COLUMN_INDEX(id, v))")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    let rw = c.rw().expect("RW node is up");
    let mut bad = rw.begin();
    let mut row = rw.get_row("t", 1).unwrap().unwrap();
    row.values[1] = Value::Int(-999);
    rw.update(&mut bad, "t", 1, row.values).unwrap();
    rw.abort(bad).unwrap();
    c.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    assert!(c.wait_sync(Duration::from_secs(30)));
    let res = c.execute("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(60));
    c.shutdown();
}

#[test]
fn strong_consistency_end_to_end() {
    let c = Cluster::start(ClusterConfig {
        group_cap: 128,
        consistency: Consistency::Strong,
        ..Default::default()
    });
    c.execute("CREATE TABLE kv (id INT NOT NULL, v INT, PRIMARY KEY(id), KEY COLUMN_INDEX(id, v))")
        .unwrap();
    for i in 0..100 {
        c.execute(&format!("INSERT INTO kv VALUES ({i}, {i})"))
            .unwrap();
        let res = c
            .execute(&format!("SELECT v FROM kv WHERE id = {i}"))
            .unwrap();
        assert_eq!(res.rows[0][0], Value::Int(i), "read-your-write at {i}");
    }
    c.shutdown();
}

#[test]
fn scale_out_preserves_query_results() {
    let c = cluster();
    c.execute("CREATE TABLE s (id INT NOT NULL, g INT, PRIMARY KEY(id), KEY COLUMN_INDEX(id, g))")
        .unwrap();
    for i in 0..400 {
        c.execute(&format!("INSERT INTO s VALUES ({i}, {})", i % 4))
            .unwrap();
    }
    assert!(c.wait_sync(Duration::from_secs(30)));
    c.checkpoint_now().unwrap();
    for i in 400..500 {
        c.execute(&format!("INSERT INTO s VALUES ({i}, {})", i % 4))
            .unwrap();
    }
    let report = c.scale_out().unwrap();
    assert!(report.from_checkpoint);
    // `scale_out` waits only for the new RO; the older one must also
    // have applied rows 400..500 before an Eventual read counts them.
    assert!(c.wait_sync(Duration::from_secs(30)));
    // Route enough queries that both nodes serve some.
    for _ in 0..8 {
        let res = c.execute("SELECT COUNT(*) FROM s").unwrap();
        assert_eq!(res.rows[0][0], Value::Int(500));
    }
    c.shutdown();
}
