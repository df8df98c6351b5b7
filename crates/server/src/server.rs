//! The `imci-server` service: the line protocol hosted on the
//! [`imci_net`] reactor tier.
//!
//! This is the paper's stateless proxy tier (§6.1) made concrete: the
//! server owns no data, it only holds per-session state (consistency
//! level, forced engine) and maps each statement onto the cluster's
//! routing rules — writes to the RW node, reads load-balanced across
//! RO nodes, with strong-consistency reads held until an RO's applied
//! LSN catches the RW's written LSN (§6.4).
//!
//! Connections are no longer one-thread-each: reactor threads decode
//! requests into ordered units, a shared worker pool executes them
//! against the cluster, and the admission layer sheds overload with
//! retryable `busy` errors (see [`crate::protocol`] for the wire shape
//! and `imci_net` for the threading model). Thousands of mostly idle
//! sessions cost file descriptors, not threads.

use crate::protocol::{
    encode_response_v2, parse_request, response_of, unescape_request, write_response, Request,
    Response, SessionSetting, MAX_BATCH, MAX_VERSION,
};
use imci_cluster::{Cluster, ExecOpts};
use imci_common::{Error, Result, Value};
use imci_net::{Goodbye, InputBuf, NetServer, Proto, RunOutcome, ServiceStats, Step};
use imci_sql::{EngineChoice, QueryResult};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest single request line the server will buffer while waiting
/// for its terminator. Guards reactor memory against a peer that
/// streams bytes without ever sending a newline.
pub const MAX_REQUEST_LINE: usize = 8 << 20;

/// Longest the proxy will mask a writer vacancy by transparently
/// replaying a statement before surfacing the failover error after
/// all. Comfortably above any supervisor detection + promotion cycle,
/// but bounded so a cluster that truly lost its last candidate does
/// not hang clients forever.
pub const REPLAY_DEADLINE: Duration = Duration::from_secs(10);

/// Decided responses remembered per session for `STMT`-tagged
/// statements (exactly-once resend window).
const STMT_JOURNAL_CAP: usize = 1024;

/// Server construction knobs: the reactor tier's own configuration
/// (bind address, reactor and worker threads, connection and queue
/// budgets, idle and drain timeouts).
pub use imci_net::NetConfig as ServerConfig;

/// Service counters (observability for benches and tests). The
/// connection-level counters are maintained by the service tier, the
/// statement-level ones by the protocol executor.
pub type ServerStats = ServiceStats;

/// A running server; dropping it (or calling [`Server::shutdown`])
/// drains sessions gracefully and joins all threads.
pub struct Server {
    net: NetServer<ImciProto>,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Bind and start serving `cluster` on the reactor tier.
    pub fn start(cluster: Arc<Cluster>, config: ServerConfig) -> Result<Server> {
        let stats = Arc::new(ServerStats::default());
        let proto = Arc::new(ImciProto {
            cluster,
            stats: stats.clone(),
        });
        let addr = config.addr.clone();
        let net = NetServer::start(proto, config, stats.clone())
            .map_err(|e| Error::Execution(format!("bind {addr}: {e}")))?;
        Ok(Server { net, stats })
    }

    /// The bound address (use this to connect when the port was 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Service counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Shared handle to the counters (for watcher threads that outlive
    /// a borrow of the server).
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        self.stats.clone()
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// queued, send each session a final retryable `busy` frame, close,
    /// and join all threads. Sessions still open after the configured
    /// drain timeout are force-closed.
    pub fn shutdown(mut self) {
        self.net.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The line protocol as an imci_net Proto
// ---------------------------------------------------------------------------

/// The imci line protocol plugged into the reactor tier: framing state
/// on the reactor side, an [`ExecOpts`] session plus negotiated
/// version on the worker side.
struct ImciProto {
    cluster: Arc<Cluster>,
    stats: Arc<ServerStats>,
}

/// Reactor-side framing state: a batch header whose body lines are
/// still arriving.
struct ParseState {
    batch: Option<(usize, Vec<Request>)>,
}

/// Worker-side session state.
struct ExecState {
    session: ExecOpts,
    version: u32,
    /// Exactly-once journal for `STMT`-tagged statements: client
    /// statement id → the decided response. A resend of a journaled id
    /// is answered from here without re-executing.
    journal: StmtJournal,
}

/// Bounded FIFO journal of decided `STMT` responses. Only *decided*
/// outcomes are stored — a retryable error (`failover`, `busy`) means
/// the statement never took effect, and journaling it would wrongly
/// pin a later resend to the transient error.
struct StmtJournal {
    by_id: HashMap<u64, Response>,
    order: VecDeque<u64>,
}

impl StmtJournal {
    fn new() -> StmtJournal {
        StmtJournal {
            by_id: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, id: u64) -> Option<&Response> {
        self.by_id.get(&id)
    }

    fn put(&mut self, id: u64, resp: Response) {
        if self.by_id.insert(id, resp).is_none() {
            self.order.push_back(id);
            if self.order.len() > STMT_JOURNAL_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_id.remove(&evicted);
                }
            }
        }
    }
}

/// One ordered unit of work decoded off a connection.
enum Unit {
    Hello(u32),
    Set(SessionSetting),
    /// `STATUS`: answered by the proxy itself from cluster metadata,
    /// zero admission cost — it must work precisely when the cluster
    /// is saturated or failing over.
    Status,
    /// `STMT <id> <sql>`: a statement tagged for exactly-once replay.
    Stmt(u64, String),
    Query(String),
    Batch(Vec<Request>),
    /// Admission shed this statement: answer with a retryable `busy`
    /// error in its response slot.
    Busy,
    /// Report an error, then close (protocol violations, goodbyes).
    Fatal {
        kind: &'static str,
        msg: String,
    },
    /// Close silently (`quit` / `exit`).
    Quit,
}

impl Proto for ImciProto {
    type Parse = ParseState;
    type Exec = ExecState;
    type Unit = Unit;

    fn open(&self) -> (ParseState, ExecState) {
        (
            ParseState { batch: None },
            ExecState {
                session: ExecOpts::default(),
                version: 1,
                journal: StmtJournal::new(),
            },
        )
    }

    fn decode(&self, p: &mut ParseState, buf: &mut InputBuf) -> Step<Unit> {
        loop {
            let Some(raw) = buf.take_line() else {
                if buf.len() > MAX_REQUEST_LINE {
                    return Step::Poison(Unit::Fatal {
                        kind: "execution",
                        msg: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    });
                }
                return Step::NeedMore;
            };
            let Ok(line) = std::str::from_utf8(&raw) else {
                // The line framing can't be trusted after this: tell the
                // client why, then close.
                return Step::Poison(Unit::Fatal {
                    kind: "execution",
                    msg: "request was not valid UTF-8".to_string(),
                });
            };
            let line = unescape_request(line);
            let trimmed = line.trim();
            if let Some((n, mut reqs)) = p.batch.take() {
                reqs.push(parse_request(trimmed));
                if reqs.len() == n {
                    return Step::Unit(Unit::Batch(reqs));
                }
                p.batch = Some((n, reqs));
                continue;
            }
            if trimmed.is_empty() {
                continue;
            }
            if trimmed.eq_ignore_ascii_case("quit") || trimmed.eq_ignore_ascii_case("exit") {
                return Step::Poison(Unit::Quit);
            }
            match parse_request(trimmed) {
                Request::Hello(v) => return Step::Unit(Unit::Hello(v)),
                Request::Batch(count) => {
                    if count > MAX_BATCH {
                        // The batch body is in flight and cannot be
                        // skipped without buffering `count` lines we
                        // refuse to hold — report and close, exactly
                        // like the non-UTF-8 case.
                        return Step::Poison(Unit::Fatal {
                            kind: "execution",
                            msg: format!("batch of {count} exceeds limit {MAX_BATCH}"),
                        });
                    }
                    if count == 0 {
                        return Step::Unit(Unit::Batch(Vec::new()));
                    }
                    p.batch = Some((count, Vec::with_capacity(count.min(1024))));
                }
                Request::Set(setting) => return Step::Unit(Unit::Set(setting)),
                Request::Status => return Step::Unit(Unit::Status),
                Request::Stmt(id, sql) => return Step::Unit(Unit::Stmt(id, sql)),
                Request::Query(sql) => return Step::Unit(Unit::Query(sql)),
            }
        }
    }

    fn cost(&self, unit: &Unit) -> usize {
        match unit {
            Unit::Query(_) | Unit::Stmt(..) => 1,
            // A batch's admission cost is its statement count; pure
            // control batches still occupy one slot.
            Unit::Batch(reqs) => reqs
                .iter()
                .filter(|r| matches!(r, Request::Query(_) | Request::Stmt(..)))
                .count()
                .max(1),
            // STATUS (and the other control units) bypass admission:
            // cost 0 means they are answered even when the statement
            // queue is saturated.
            _ => 0,
        }
    }

    fn tenant_of<'u>(&self, unit: &'u Unit) -> Option<&'u str> {
        match unit {
            Unit::Set(SessionSetting::Tenant(t)) => Some(t),
            Unit::Batch(reqs) => reqs.iter().rev().find_map(|r| match r {
                Request::Set(SessionSetting::Tenant(t)) => Some(t.as_str()),
                _ => None,
            }),
            _ => None,
        }
    }

    fn reject(&self, _unit: Unit) -> Unit {
        Unit::Busy
    }

    fn goodbye(&self, why: Goodbye) -> Unit {
        match why {
            // Retryable: reconnecting (to this node after it restarts,
            // or to a peer) and re-issuing is safe, mirroring failover.
            Goodbye::Drain => Unit::Fatal {
                kind: "busy",
                msg: "server shutting down".to_string(),
            },
            Goodbye::IdleTimeout => Unit::Fatal {
                kind: "execution",
                msg: "idle connection closed".to_string(),
            },
        }
    }

    fn over_budget_frame(&self) -> Vec<u8> {
        // No session exists yet, so no negotiated version: the refusal
        // is a v1 text line, readable by every client.
        let mut out = Vec::new();
        emit(
            &mut out,
            &Response::Err {
                kind: "busy".to_string(),
                msg: "connection budget exhausted; retry later".to_string(),
            },
            1,
        );
        out
    }

    fn run(&self, exec: &mut ExecState, units: Vec<Unit>, out: &mut Vec<u8>) -> RunOutcome {
        let mut outcome = RunOutcome::default();
        let mut iter = units.into_iter().peekable();
        while let Some(unit) = iter.next() {
            match unit {
                Unit::Hello(v) => {
                    // Negotiate down to what both sides speak. The
                    // reply is always a text line — the encoding switch
                    // applies from the *next* response on.
                    exec.version = v.clamp(1, MAX_VERSION);
                    out.extend_from_slice(format!("HELLO {}\n", exec.version).as_bytes());
                }
                Unit::Set(setting) => {
                    apply_setting(&mut exec.session, setting);
                    emit(out, &Response::Ok { affected: 0 }, exec.version);
                }
                Unit::Status => {
                    let resp = status_response(&self.cluster, &self.stats);
                    emit(out, &resp, exec.version);
                }
                Unit::Stmt(id, sql) => {
                    let resp = execute_stmt(
                        &self.cluster,
                        exec.session,
                        &mut exec.journal,
                        id,
                        &sql,
                        &self.stats,
                    );
                    emit(out, &resp, exec.version);
                }
                Unit::Query(sql) => {
                    // Greedily group the pipelined run of plain queries
                    // behind this one: `execute_many` resolves proxy
                    // routing once per run instead of once per query.
                    let mut sqls = vec![sql];
                    while let Some(Unit::Query(_)) = iter.peek() {
                        if let Some(Unit::Query(s)) = iter.next() {
                            sqls.push(s);
                        }
                    }
                    let refs: Vec<&str> = sqls.iter().map(|s| s.as_str()).collect();
                    self.stats
                        .queries
                        .fetch_add(refs.len() as u64, Ordering::Relaxed);
                    let results = self.cluster.execute_many(&refs, exec.session);
                    for (k, result) in results.into_iter().enumerate() {
                        let resp = finish_result(
                            &self.cluster,
                            exec.session,
                            refs[k],
                            result,
                            &self.stats,
                        );
                        emit(out, &resp, exec.version);
                    }
                }
                Unit::Batch(reqs) => {
                    let resp = execute_batch(&self.cluster, exec, reqs, &self.stats);
                    emit(out, &resp, exec.version);
                }
                Unit::Busy => {
                    emit(
                        out,
                        &Response::Err {
                            kind: "busy".to_string(),
                            msg: "statement queue full; retry after backoff".to_string(),
                        },
                        exec.version,
                    );
                }
                Unit::Fatal { kind, msg } => {
                    emit(
                        out,
                        &Response::Err {
                            kind: kind.to_string(),
                            msg,
                        },
                        exec.version,
                    );
                    outcome.close = true;
                }
                Unit::Quit => outcome.close = true,
            }
        }
        outcome
    }
}

/// Encode one response in the session's negotiated encoding, appended
/// to the connection's output.
fn emit(out: &mut Vec<u8>, resp: &Response, version: u32) {
    if version >= 2 {
        encode_response_v2(out, resp);
    } else {
        write_response(out, resp).expect("writing to a Vec cannot fail");
    }
}

/// Apply one `SET` to the session state. `TENANT` is a scheduling hint
/// consumed by the service tier (`Proto::tenant_of`), not session
/// state.
fn apply_setting(session: &mut ExecOpts, setting: SessionSetting) {
    match setting {
        SessionSetting::Consistency(c) => session.consistency = Some(c),
        SessionSetting::ForceEngine(f) => session.query.engine = f,
        SessionSetting::Tenant(_) => {}
        SessionSetting::Parallelism(n) => session.query.parallelism = Some(n),
        SessionSetting::LateMaterialization(b) => session.query.late_materialization = Some(b),
    }
}

/// Execute a batch: `SET`s apply in order, and **consecutive** SQL
/// statements go through [`Cluster::execute_many`], which resolves
/// proxy routing once per run instead of once per statement. One
/// sub-response per request, in order.
fn execute_batch(
    cluster: &Arc<Cluster>,
    exec: &mut ExecState,
    reqs: Vec<Request>,
    stats: &ServerStats,
) -> Response {
    let mut parts = Vec::with_capacity(reqs.len());
    let mut i = 0;
    while i < reqs.len() {
        match &reqs[i] {
            Request::Set(setting) => {
                apply_setting(&mut exec.session, setting.clone());
                parts.push(Response::Ok { affected: 0 });
                i += 1;
            }
            Request::Hello(_) | Request::Batch(_) => {
                parts.push(Response::Err {
                    kind: "execution".into(),
                    msg: "HELLO/BATCH cannot appear inside a batch".into(),
                });
                i += 1;
            }
            Request::Status => {
                parts.push(status_response(cluster, stats));
                i += 1;
            }
            Request::Stmt(id, sql) => {
                parts.push(execute_stmt(
                    cluster,
                    exec.session,
                    &mut exec.journal,
                    *id,
                    sql,
                    stats,
                ));
                i += 1;
            }
            Request::Query(_) => {
                let mut sqls: Vec<&str> = Vec::new();
                while let Some(Request::Query(sql)) = reqs.get(i) {
                    sqls.push(sql);
                    i += 1;
                }
                stats
                    .queries
                    .fetch_add(sqls.len() as u64, Ordering::Relaxed);
                let results = cluster.execute_many(&sqls, exec.session);
                for (k, result) in results.into_iter().enumerate() {
                    parts.push(finish_result(cluster, exec.session, sqls[k], result, stats));
                }
                debug_assert_eq!(parts.len(), i, "one response per request");
            }
        }
    }
    Response::Batch(parts)
}

/// Turn one execution result into its response, transparently
/// replaying **read-only** statements that hit a failover error: a
/// read never took effect, so re-executing it against the promoted
/// writer (or a surviving RO) is invisible to the client. Writes are
/// only replayed when the client tagged them (`STMT`, see
/// [`execute_stmt`]) — an untagged client that timed out and resent on
/// its own could otherwise double-apply.
fn finish_result(
    cluster: &Cluster,
    session: ExecOpts,
    sql: &str,
    result: Result<QueryResult>,
    stats: &ServerStats,
) -> Response {
    let read_only = imci_sql::is_read_only(sql);
    let result = match result {
        Err(e @ Error::Failover(_)) if read_only => replay_execute(cluster, sql, session, stats, e),
        other => other,
    };
    match result {
        Ok(r) => response_of(r, read_only),
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::from_error(&e)
        }
    }
}

/// Re-execute `sql` after a failover error: wait (bounded by
/// [`REPLAY_DEADLINE`]) for a writer to be installed, then retry.
/// Safe for reads (no effect to duplicate) and for `STMT`-tagged
/// writes — in this system a statement that failed with the failover
/// category provably did **not** commit: the epoch fence rejects the
/// append before the commit fsync, and the failed append burns no LSN.
fn replay_execute(
    cluster: &Cluster,
    sql: &str,
    session: ExecOpts,
    stats: &ServerStats,
    first_err: Error,
) -> Result<QueryResult> {
    let deadline = Instant::now() + REPLAY_DEADLINE;
    let mut last = first_err;
    loop {
        let now = Instant::now();
        if now >= deadline || !cluster.wait_for_writer(deadline - now) {
            return Err(last);
        }
        stats.replayed_stmts.fetch_add(1, Ordering::Relaxed);
        match cluster.execute_opts(sql, session) {
            // The writer we waited for may itself have died; keep
            // retrying until the deadline.
            Err(e @ Error::Failover(_)) => last = e,
            other => return other,
        }
    }
}

/// Execute one `STMT <id> <sql>` with exactly-once semantics: a
/// journaled id replays the decided response without re-executing;
/// a fresh id executes with transparent failover replay (tagged
/// statements are replayable whether or not they are reads), and the
/// decided outcome is journaled for future resends.
fn execute_stmt(
    cluster: &Cluster,
    session: ExecOpts,
    journal: &mut StmtJournal,
    id: u64,
    sql: &str,
    stats: &ServerStats,
) -> Response {
    if let Some(resp) = journal.get(id) {
        return resp.clone();
    }
    stats.queries.fetch_add(1, Ordering::Relaxed);
    let result = match cluster.execute_opts(sql, session) {
        Err(e @ Error::Failover(_)) => replay_execute(cluster, sql, session, stats, e),
        other => other,
    };
    let resp = match result {
        Ok(r) => response_of(r, imci_sql::is_read_only(sql)),
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::from_error(&e)
        }
    };
    // Journal only decided outcomes: retryable errors mean the
    // statement never took effect, so a resend should re-attempt it,
    // not replay the transient error.
    let decided =
        !matches!(&resp, Response::Err { kind, .. } if kind == "failover" || kind == "busy");
    if decided {
        journal.put(id, resp.clone());
    }
    resp
}

/// Build the `STATUS` report: a one-row result set with the node role,
/// writer epoch, applied LSN and supervisor state, plus the
/// fault-tolerance counters. Also mirrors the cluster's supervisor
/// counters into the service stats so watchers holding only a
/// [`ServerStats`] handle observe them.
fn status_response(cluster: &Cluster, stats: &ServerStats) -> Response {
    let auto = cluster.auto_failovers();
    let detect = cluster.detection_ms_last();
    stats.auto_failovers.store(auto, Ordering::Relaxed);
    stats.detection_ms_last.store(detect, Ordering::Relaxed);
    let columns = [
        "role",
        "writer_epoch",
        "applied_lsn",
        "supervisor",
        "auto_failovers",
        "replayed_stmts",
        "detection_ms_last",
    ]
    .map(String::from)
    .to_vec();
    let row = vec![
        Value::Str(cluster.writer_role().to_string()),
        Value::Int(cluster.fs.current_epoch() as i64),
        Value::Int(cluster.applied_lsn() as i64),
        Value::Str(cluster.supervisor_state().to_string()),
        Value::Int(auto as i64),
        Value::Int(stats.replayed_stmts.load(Ordering::Relaxed) as i64),
        Value::Int(detect as i64),
    ];
    Response::Rows {
        columns,
        rows: vec![row],
        engine: EngineChoice::Row,
    }
}
