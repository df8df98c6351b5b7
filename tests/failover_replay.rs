//! Transparent statement replay across automatic failover, end to end
//! through the server tier.
//!
//! The contract (paper §7 + the availability design in DESIGN.md): with
//! the cluster supervisor running and replay enabled, a client driving
//! pipelined traffic through an RW kill never observes the `failover`
//! error category — reads are transparently re-executed, `STMT`-tagged
//! writes are replayed exactly-once against the promoted writer, and
//! column plans keep running on the ROs (`STATUS` role `rw`: the
//! promoted writer is row-only, and a backfilled RO replaces it).

use polardb_imci::{
    Client, Cluster, ClusterConfig, Consistency, EngineChoice, Server, ServerConfig,
    SupervisorConfig, Value,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn supervised_cluster() -> Arc<Cluster> {
    Cluster::start(ClusterConfig {
        n_ro: 2,
        group_cap: 64,
        heartbeat_interval: Duration::from_millis(5),
        supervisor: Some(SupervisorConfig {
            lease_timeout: Duration::from_millis(60),
            jitter: Duration::from_millis(20),
            seed: 0x5eed_f011,
        }),
        ..Default::default()
    })
}

#[test]
fn pipelined_client_sees_zero_errors_across_kill_promote() {
    let cluster = supervised_cluster();
    let server = Server::start(cluster.clone(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.execute(
        "CREATE TABLE r (id INT NOT NULL, v INT, PRIMARY KEY(id),
         KEY COLUMN_INDEX(id, v))",
    )
    .unwrap();
    for i in 0..100 {
        c.execute(&format!("INSERT INTO r VALUES ({i}, {i})"))
            .unwrap();
    }

    // STATUS before the kill: a plain row-only writer, no promotions.
    let before = c.status().unwrap();
    assert_eq!(before.rows[0][0], Value::Str("rw".into()));
    assert_eq!(before.rows[0][4], Value::Int(0), "no auto-failovers yet");

    // Kill the writer, then drive a pipelined mix of tagged writes and
    // reads straight through the vacancy. Nobody calls failover(): the
    // supervisor must detect the silent lease and promote while these
    // statements are queued, and the server must replay them against
    // the new writer. The client recv loop asserts zero errors.
    cluster.crash_rw();
    for i in 0..40u64 {
        c.send(&format!("STMT {i} INSERT INTO r VALUES ({}, 1)", 100 + i))
            .unwrap();
        c.send("SELECT COUNT(*) FROM r").unwrap();
    }
    for k in 0..40 {
        let w = c.recv().unwrap_or_else(|e| panic!("tagged write {k}: {e}"));
        assert_eq!(w.affected, 1, "tagged write {k}");
        let r = c
            .recv()
            .unwrap_or_else(|e| panic!("pipelined read {k}: {e}"));
        assert_eq!(r.rows.len(), 1, "pipelined read {k}");
    }
    assert_eq!(cluster.auto_failovers(), 1, "promotion must be automatic");
    assert!(
        server.stats().replayed_stmts.load(Ordering::Relaxed) > 0,
        "at least the first in-flight statement must have been replayed"
    );

    // Exactly-once: resending an already-journaled id answers from the
    // journal without re-executing (the count below would drift by one
    // otherwise — or the insert would fail on the duplicate key).
    let again = c
        .execute_tagged(0, "INSERT INTO r VALUES (100, 1)")
        .unwrap();
    assert_eq!(again.affected, 1);
    c.set_consistency(Consistency::Strong).unwrap();
    let count = c.execute("SELECT COUNT(*) FROM r").unwrap();
    assert_eq!(count.rows[0][0], Value::Int(140));

    // Full HTAP after promotion: the new writer is a plain row writer,
    // and a forced-column plan executes on the column engine of an RO.
    let after = c.status().unwrap();
    assert_eq!(after.rows[0][0], Value::Str("rw".into()));
    assert_eq!(after.rows[0][4], Value::Int(1), "one auto-failover");
    c.set_force_engine(Some(EngineChoice::Column)).unwrap();
    let agg = c.execute("SELECT v, COUNT(*) FROM r GROUP BY v").unwrap();
    assert_eq!(agg.engine, EngineChoice::Column);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn status_reports_vacancy_and_journal_survives_errors() {
    let cluster = supervised_cluster();
    cluster.stop_supervisor();
    let server = Server::start(cluster.clone(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.execute(
        "CREATE TABLE j (id INT NOT NULL, v INT, PRIMARY KEY(id),
         KEY COLUMN_INDEX(id, v))",
    )
    .unwrap();

    // A decided error (duplicate key) is journaled too: the resend
    // replays the same constraint error instead of re-executing.
    c.execute_tagged(1, "INSERT INTO j VALUES (1, 1)").unwrap();
    let e1 = c
        .execute_tagged(2, "INSERT INTO j VALUES (1, 2)")
        .unwrap_err();
    let e2 = c
        .execute_tagged(2, "INSERT INTO j VALUES (1, 2)")
        .unwrap_err();
    assert_eq!(e1.kind(), "constraint");
    assert_eq!(e2.kind(), "constraint");

    // With the supervisor stopped and the writer down, STATUS still
    // answers (zero admission cost) and reports the vacancy.
    cluster.crash_rw();
    let status = c.status().unwrap();
    assert_eq!(status.rows[0][0], Value::Str("vacant".into()));
    assert_eq!(status.rows[0][3], Value::Str("off".into()));

    // An untagged write during the vacancy keeps surfacing the
    // retryable failover category — only tagged/read statements are
    // transparently replayed while no writer is installed.
    let err = c.execute("INSERT INTO j VALUES (9, 9)").unwrap_err();
    assert_eq!(err.kind(), "failover");

    cluster.failover().unwrap();
    // The journal survives the promotion: the duplicate-key outcome is
    // still replayed, and fresh tagged writes work on the new writer.
    let e3 = c
        .execute_tagged(2, "INSERT INTO j VALUES (1, 2)")
        .unwrap_err();
    assert_eq!(e3.kind(), "constraint");
    c.execute_tagged(3, "INSERT INTO j VALUES (2, 2)").unwrap();
    c.set_consistency(Consistency::Strong).unwrap();
    let count = c.execute("SELECT COUNT(*) FROM j").unwrap();
    assert_eq!(count.rows[0][0], Value::Int(2));

    server.shutdown();
    cluster.shutdown();
}
