//! `imci-server`: the concurrent multi-client SQL service layer over
//! the simulated PolarDB-IMCI cluster.
//!
//! The paper serves transactional and analytical traffic through a
//! stateless proxy that does read/write splitting, session-count load
//! balancing across RO nodes (§6.1, Fig. 2), and consistency-level
//! enforcement — strong reads wait until an RO's applied LSN reaches
//! the RW's written LSN (§6.4). This crate exposes that tier as an
//! actual network service:
//!
//! * [`protocol`] — the wire protocol: text request lines (SQL plus
//!   per-session `SET CONSISTENCY STRONG|EVENTUAL`,
//!   `SET FORCE_ENGINE ROW|COLUMN|AUTO`, `SET PARALLELISM <n>` and
//!   `SET TENANT <name>`),
//!   `HELLO` version negotiation, `BATCH <n>` framing, and two response
//!   encodings — v1 text (netcat friendly) and v2 length-prefixed
//!   binary rows;
//! * [`wire`] — varint / tagged-value primitives behind the v2
//!   encoding;
//! * [`server`] — the protocol hosted on the [`imci_net`] reactor tier
//!   ([`Server`]): epoll readiness loops plus a shared worker pool map
//!   sessions onto [`imci_cluster::Cluster`]'s proxy routing, with
//!   pipelining (many requests in flight per connection, responses
//!   strictly ordered), one answer function for pipelined requests and
//!   `BATCH` bodies alike (each run of plain queries through one
//!   [`imci_cluster::Cluster::execute_many`]), and admission control
//!   that sheds overload with retryable `busy` errors instead of
//!   queueing unboundedly;
//! * [`client`] — a blocking client ([`Client`]) for tests, examples,
//!   and the `server_throughput` bench, supporting `send`/`recv`
//!   pipelining, `execute_batch`, and opt-in automatic retry
//!   ([`RetryPolicy`]) of the retryable error categories (`failover`,
//!   `busy`).

pub mod client;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{Client, RetryPolicy};
pub use protocol::{Request, Response, SessionSetting};
pub use server::{Server, ServerConfig, ServerStats};

#[cfg(test)]
mod tests {
    use super::*;
    use imci_cluster::{Cluster, ClusterConfig, Consistency};
    use imci_common::Value;
    use imci_sql::EngineChoice;
    use std::sync::Arc;

    fn serve_small_cluster() -> (Server, Arc<Cluster>) {
        let cluster = Cluster::start(ClusterConfig {
            group_cap: 64,
            ..Default::default()
        });
        let server = Server::start(cluster.clone(), ServerConfig::default()).unwrap();
        (server, cluster)
    }

    #[test]
    fn ddl_dml_select_over_the_wire() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.execute(
            "CREATE TABLE kv (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        assert_eq!(
            c.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
                .unwrap()
                .affected,
            2
        );
        c.set_consistency(Consistency::Strong).unwrap();
        let res = c.execute("SELECT v FROM kv WHERE id = 2").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(20)]]);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn sql_with_embedded_newline_roundtrips() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.execute("CREATE TABLE nl (id INT NOT NULL, note VARCHAR(64), PRIMARY KEY(id))")
            .unwrap();
        // A literal newline inside a SQL string value must survive the
        // line-oriented framing byte-exactly.
        c.execute("INSERT INTO nl VALUES (1, 'line1\nline2')")
            .unwrap();
        c.set_consistency(Consistency::Strong).unwrap();
        let res = c.execute("SELECT note FROM nl WHERE id = 1").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Str("line1\nline2".into())]]);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn shutdown_terminates_busy_sessions() {
        let (server, cluster) = serve_small_cluster();
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE busy (id INT NOT NULL, PRIMARY KEY(id))")
            .unwrap();
        // A client that never stops issuing statements must not be able
        // to hang Server::shutdown: sessions end at the next request
        // boundary.
        let h = std::thread::spawn(move || {
            let mut i = 0i64;
            loop {
                i += 1;
                if c.execute(&format!("INSERT INTO busy VALUES ({i})"))
                    .is_err()
                {
                    break i;
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(200));
        server.shutdown(); // must return even though the client is mid-stream
        let issued = h.join().unwrap();
        assert!(issued > 0, "client never got going");
        cluster.shutdown();
    }

    #[test]
    fn session_errors_do_not_kill_the_session() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert!(c.execute("SELECT * FROM missing").is_err());
        c.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY(id))")
            .unwrap();
        assert_eq!(c.execute("INSERT INTO t VALUES (1)").unwrap().affected, 1);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn oversized_batch_is_rejected_without_executing_its_body() {
        use std::io::{BufRead, BufReader, Write};
        let (server, cluster) = serve_small_cluster();
        let mut admin = Client::connect(server.local_addr()).unwrap();
        admin
            .execute("CREATE TABLE ob (id INT NOT NULL, PRIMARY KEY(id))")
            .unwrap();
        // Hand-rolled v1 session: announce an over-limit batch, then
        // send body lines anyway. The server must reply with one error
        // and close the connection — the body statements must never
        // execute as stray individual requests.
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        writeln!(w, "BATCH 999999").unwrap();
        writeln!(w, "INSERT INTO ob VALUES (1)").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR execution batch of"), "got {line:?}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "must close");
        admin
            .set_consistency(imci_cluster::Consistency::Strong)
            .unwrap();
        let res = admin.execute("SELECT COUNT(*) FROM ob").unwrap();
        assert_eq!(res.rows[0][0], Value::Int(0), "body must not execute");
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn batch_header_pipelined_behind_unread_response_does_not_deadlock() {
        use std::io::{BufRead, BufReader, Write};
        let (server, cluster) = serve_small_cluster();
        // Raw v1 session: pipeline a statement AND a BATCH header in
        // one write, then wait for the statement's response before
        // sending the batch body. The server must flush the buffered
        // response while blocked on the body, or both sides deadlock.
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        write!(
            w,
            "CREATE TABLE dl (id INT NOT NULL, PRIMARY KEY(id))\nBATCH 1\n"
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // would time out before the fix
        assert_eq!(line.trim(), "OK 0");
        writeln!(w, "INSERT INTO dl VALUES (1)").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "BATCH 1");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK 1");
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn batch_refused_while_pipelined_responses_pending() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.execute("CREATE TABLE bp (id INT NOT NULL, PRIMARY KEY(id))")
            .unwrap();
        c.send("INSERT INTO bp VALUES (1)").unwrap();
        // Batching now would misread the pending insert's response as
        // the batch reply; the client must refuse without touching the
        // wire, and the session must stay fully usable.
        assert!(c.execute_batch(&["SELECT COUNT(*) FROM bp"]).is_err());
        assert_eq!(c.recv().unwrap().affected, 1);
        let results = c.execute_batch(&["SELECT COUNT(*) FROM bp"]).unwrap();
        assert!(results[0].is_ok());
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn pipelining_100_requests_before_reading() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.protocol_version(), 2);
        c.execute("CREATE TABLE p (id INT NOT NULL, v INT, PRIMARY KEY(id))")
            .unwrap();
        c.set_consistency(Consistency::Strong).unwrap();
        // Write 100 requests before reading a single response.
        for i in 0..50 {
            c.send(&format!("INSERT INTO p VALUES ({i}, {i})")).unwrap();
        }
        for i in 0..50 {
            c.send(&format!("SELECT v FROM p WHERE id = {i}")).unwrap();
        }
        assert_eq!(c.pending(), 100);
        // Responses come back strictly in request order.
        for _ in 0..50 {
            assert_eq!(c.recv().unwrap().affected, 1);
        }
        for i in 0..50 {
            let res = c.recv().unwrap();
            assert_eq!(res.rows, vec![vec![Value::Int(i)]]);
        }
        assert_eq!(c.pending(), 0);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn batch_executes_in_one_roundtrip() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.execute(
            "CREATE TABLE b (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        let mut stmts: Vec<String> = vec!["SET CONSISTENCY STRONG".into()];
        for i in 0..30 {
            stmts.push(format!("INSERT INTO b VALUES ({i}, {i})"));
        }
        stmts.push("SELECT COUNT(*) FROM b".into());
        stmts.push("INSERT INTO b VALUES (0, 0)".into()); // dup pk -> error
        stmts.push("SELECT MAX(v) FROM b".into());
        let results = c.execute_batch(&stmts).unwrap();
        assert_eq!(results.len(), 34);
        assert!(results[0].as_ref().unwrap().rows.is_empty(), "SET ok");
        for r in &results[1..31] {
            assert_eq!(r.as_ref().unwrap().affected, 1);
        }
        // Read-your-writes inside the batch.
        assert_eq!(
            results[31].as_ref().unwrap().rows,
            vec![vec![Value::Int(30)]]
        );
        // The duplicate-key failure keeps its category and does not
        // void the statements after it.
        assert!(matches!(
            results[32],
            Err(imci_common::Error::Constraint(_))
        ));
        assert_eq!(
            results[33].as_ref().unwrap().rows,
            vec![vec![Value::Int(29)]]
        );
        server.shutdown();
        cluster.shutdown();
    }

    /// One mixed request sequence against table `t`, with everything a
    /// response carries that must not depend on how it was sent: the
    /// table name is masked out of error messages, and `STATUS` is
    /// compared by its column names.
    fn mixed_sequence(t: &str) -> Vec<String> {
        [
            "SET CONSISTENCY STRONG",
            "INSERT INTO {t} VALUES (1, 10)",
            "SELECT v FROM {t} WHERE id = 1",
            "STATUS",
            "STMT 7 INSERT INTO {t} VALUES (2, 20)",
            "STMT 7 INSERT INTO {t} VALUES (2, 20)",
            "SELECT v FROM no_such_table WHERE id = 1",
            "INSERT INTO {t} VALUES (1, 10)",
        ]
        .iter()
        .map(|s| s.replace("{t}", t))
        .collect()
    }

    fn comparable(t: &str, r: imci_common::Result<imci_sql::QueryResult>) -> String {
        match r {
            Ok(q) if q.columns.first().map(String::as_str) == Some("role") => {
                format!("STATUS {:?}", q.columns)
            }
            Ok(q) => format!("{:?} {:?} {}", q.columns, q.rows, q.affected),
            Err(e) => format!("ERR {} {}", e.kind(), e.message().replace(t, "<t>")),
        }
    }

    #[test]
    fn pipelined_and_batched_requests_get_the_same_answers() {
        let (server, cluster) = serve_small_cluster();
        let mut answers = Vec::new();
        for (t, batched) in [("one_path_pipe", false), ("one_path_batch", true)] {
            let mut admin = Client::connect(server.local_addr()).unwrap();
            admin
                .execute(&format!(
                    "CREATE TABLE {t} (id INT NOT NULL, v INT, PRIMARY KEY(id))"
                ))
                .unwrap();
            // A fresh session per run: the STMT journal is per session.
            let mut c = Client::connect(server.local_addr()).unwrap();
            let seq = mixed_sequence(t);
            let results = if batched {
                c.execute_batch(&seq).unwrap()
            } else {
                for line in &seq {
                    c.send(line).unwrap();
                }
                seq.iter().map(|_| c.recv()).collect()
            };
            let results: Vec<_> = results.into_iter().map(|r| comparable(t, r)).collect();
            // The resent STMT id was answered from the journal: one row
            // with id 2, not two.
            let count = c.execute(&format!("SELECT COUNT(*) FROM {t}")).unwrap();
            assert_eq!(count.rows, vec![vec![Value::Int(2)]], "{t}");
            answers.push(results);
        }
        assert_eq!(answers[0].len(), 8);
        assert_eq!(answers[0], answers[1]);
        assert!(answers[0][3].starts_with("STATUS [\"role\""), "{answers:?}");
        assert_eq!(answers[0][2], "[\"v\"] [[Int(10)]] 0");
        assert_eq!(answers[0][5], answers[0][4]);
        assert!(answers[0][6].starts_with("ERR catalog "), "{answers:?}");
        assert!(answers[0][7].starts_with("ERR constraint "), "{answers:?}");

        // HELLO inside a batch answers an error sub-response; the batch
        // and the session go on.
        let mut c = Client::connect(server.local_addr()).unwrap();
        let results = c
            .execute_batch(&["HELLO 2", "SELECT COUNT(*) FROM one_path_pipe"])
            .unwrap();
        assert!(matches!(results[0], Err(imci_common::Error::Execution(_))));
        assert!(results[1].is_ok());
        assert!(c
            .execute("SELECT v FROM one_path_pipe WHERE id = 1")
            .is_ok());
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn v1_text_client_interoperates_with_v2_server() {
        let (server, cluster) = serve_small_cluster();
        // No HELLO: the session stays on the v1 text protocol.
        let mut c = Client::connect_v1(server.local_addr()).unwrap();
        assert_eq!(c.protocol_version(), 1);
        c.execute("CREATE TABLE iv (id INT NOT NULL, note VARCHAR(64), PRIMARY KEY(id))")
            .unwrap();
        c.execute("INSERT INTO iv VALUES (1, 'text\nstill works')")
            .unwrap();
        c.set_consistency(Consistency::Strong).unwrap();
        let res = c.execute("SELECT note FROM iv WHERE id = 1").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Str("text\nstill works".into())]]);
        // v1 and v2 sessions coexist on one server.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        c2.set_consistency(Consistency::Strong).unwrap();
        let res2 = c2.execute("SELECT note FROM iv WHERE id = 1").unwrap();
        assert_eq!(res2.rows, res.rows);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn raw_v1_line_session_like_netcat() {
        use std::io::{BufRead, BufReader, Write};
        let (server, cluster) = serve_small_cluster();
        // Hand-rolled text session: no Client involved at all.
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut line = String::new();
        writeln!(w, "CREATE TABLE nc (id INT NOT NULL, PRIMARY KEY(id))").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK 0");
        line.clear();
        writeln!(w, "INSERT INTO nc VALUES (7)").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK 1");
        line.clear();
        writeln!(w, "SET CONSISTENCY STRONG").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK 0");
        line.clear();
        writeln!(w, "SELECT id FROM nc").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ROWS 1"), "got {line:?}");
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn error_categories_reach_the_client() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Parse failure.
        assert!(matches!(
            c.execute("SELEC 1"),
            Err(imci_common::Error::Parse(_))
        ));
        c.execute("CREATE TABLE ec (id INT NOT NULL, PRIMARY KEY(id))")
            .unwrap();
        c.execute("INSERT INTO ec VALUES (1)").unwrap();
        // Constraint violation.
        assert!(matches!(
            c.execute("INSERT INTO ec VALUES (1)"),
            Err(imci_common::Error::Constraint(_))
        ));
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn failover_errors_are_retryable_over_the_wire() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.execute(
            "CREATE TABLE ha (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        c.execute("INSERT INTO ha VALUES (1, 10)").unwrap();

        // RW goes down mid-session: the write fails with the retryable
        // failover category — the session itself stays alive.
        cluster.crash_rw();
        let err = c.execute("INSERT INTO ha VALUES (2, 20)").unwrap_err();
        assert!(
            matches!(err, imci_common::Error::Failover(_)),
            "category must survive the wire: {err}"
        );
        assert!(err.is_retryable());
        // Reads still serve from the RO while the writer is vacant.
        c.set_consistency(Consistency::Strong).unwrap();
        c.set_force_engine(Some(EngineChoice::Column)).unwrap();
        let res = c.execute("SELECT v FROM ha WHERE id = 1").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(10)]]);
        c.set_force_engine(None).unwrap();

        // Promotion completes while the client is already retrying with
        // backoff: one `execute` call rides through the failover window
        // on the same connection and lands exactly once.
        c.set_retry_policy(Some(RetryPolicy::default()));
        let promoting = cluster.clone();
        let promoter = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            promoting.failover().unwrap();
        });
        assert_eq!(
            c.execute("INSERT INTO ha VALUES (2, 20)").unwrap().affected,
            1
        );
        promoter.join().unwrap();
        let res = c.execute("SELECT COUNT(*) FROM ha").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(2)]]);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn commented_select_routes_to_ro_through_server() {
        let (server, cluster) = serve_small_cluster();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.execute(
            "CREATE TABLE cr (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        for i in 0..20 {
            c.execute(&format!("INSERT INTO cr VALUES ({i}, {i})"))
                .unwrap();
        }
        c.set_consistency(Consistency::Strong).unwrap();
        // Only RO nodes have a column store: COLUMN proves RO routing
        // even with the SELECT hidden behind a comment.
        c.set_force_engine(Some(EngineChoice::Column)).unwrap();
        let res = c
            .execute("-- routed through the proxy\nSELECT SUM(v) FROM cr")
            .unwrap();
        assert_eq!(res.engine, EngineChoice::Column);
        assert_eq!(res.rows, vec![vec![Value::Int((0..20).sum::<i64>())]]);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn force_engine_is_per_session() {
        let (server, cluster) = serve_small_cluster();
        let mut a = Client::connect(server.local_addr()).unwrap();
        let mut b = Client::connect(server.local_addr()).unwrap();
        a.execute(
            "CREATE TABLE ft (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
        for i in 0..50 {
            a.execute(&format!("INSERT INTO ft VALUES ({i}, {i})"))
                .unwrap();
        }
        a.set_consistency(Consistency::Strong).unwrap();
        b.set_consistency(Consistency::Strong).unwrap();
        a.set_force_engine(Some(EngineChoice::Column)).unwrap();
        b.set_force_engine(Some(EngineChoice::Row)).unwrap();
        let ra = a.execute("SELECT SUM(v) FROM ft").unwrap();
        let rb = b.execute("SELECT SUM(v) FROM ft").unwrap();
        assert_eq!(
            ra.engine,
            EngineChoice::Column,
            "session A pinned to column"
        );
        assert_eq!(rb.engine, EngineChoice::Row, "session B pinned to row");
        assert_eq!(ra.rows, rb.rows);
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn session_parallelism_reaches_the_executor() {
        let (server, cluster) = serve_small_cluster();
        let mut a = Client::connect(server.local_addr()).unwrap();
        let mut b = Client::connect(server.local_addr()).unwrap();
        a.execute(
            "CREATE TABLE pt (id INT NOT NULL, g INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, g))",
        )
        .unwrap();
        for i in 0..20 {
            a.execute(&format!("INSERT INTO pt VALUES ({i}, {})", i % 4))
                .unwrap();
        }
        for (c, n) in [(&mut a, 1), (&mut b, 3)] {
            c.set_consistency(Consistency::Strong).unwrap();
            c.set_force_engine(Some(EngineChoice::Column)).unwrap();
            c.execute(&format!("SET PARALLELISM {n}")).unwrap();
        }
        // Interleaved twice: neither session's setting leaks into the
        // other's statements.
        let explain = "EXPLAIN SELECT g, COUNT(*) FROM pt GROUP BY g";
        for _ in 0..2 {
            for (c, n) in [(&mut a, 1), (&mut b, 3)] {
                let res = c.execute(explain).unwrap();
                assert_eq!(res.engine, EngineChoice::Column);
                let Value::Str(head) = &res.rows[0][0] else {
                    panic!("{:?}", res.rows[0]);
                };
                assert!(
                    head.starts_with("engine=column")
                        && head.ends_with(&format!(" parallelism={n}")),
                    "{head}"
                );
            }
        }
        server.shutdown();
        cluster.shutdown();
    }
}
