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
//! sessions cost file descriptors, not threads. Pipelined requests and
//! `BATCH` bodies are answered by one function, `ImciProto::answer`.

use crate::protocol::{
    encode_response_v1, encode_response_v2, parse_request, response_of, unescape_request, Request,
    Response, SessionSetting, MAX_BATCH, MAX_VERSION,
};
use imci_cluster::{Cluster, ExecOpts};
use imci_common::{Error, Result, Value};
use imci_net::{Goodbye, InputBuf, NetServer, Proto, RunOutcome, ServiceStats, Step};
use imci_sql::EngineChoice;
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

    /// Remember `resp` for `id` unless it is a retryable error.
    fn record(&mut self, id: u64, resp: &Response) {
        if matches!(resp, Response::Err { kind, .. } if kind == "failover" || kind == "busy") {
            return;
        }
        if self.by_id.insert(id, resp.clone()).is_none() {
            self.order.push_back(id);
            if self.order.len() > STMT_JOURNAL_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_id.remove(&evicted);
                }
            }
        }
    }
}

/// One ordered unit of work decoded off a connection: a request, or
/// what the connection needs besides requests.
enum Unit {
    /// A `SET`, `STATUS`, `STMT` or plain SQL request, answered by
    /// [`ImciProto::answer`].
    Request(Request),
    /// A `BATCH` body: its requests answered by [`ImciProto::answer`],
    /// the responses wrapped in one [`Response::Batch`].
    Batch(Vec<Request>),
    /// `HELLO <v>`: switches the response encoding, so it is never part
    /// of a batch.
    Hello(u32),
    /// Admission shed this statement: answer with a retryable `busy`
    /// error in its response slot.
    Busy,
    /// Report an error, then close (protocol violations, goodbyes).
    Fatal { kind: &'static str, msg: String },
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
                req => return Step::Unit(Unit::Request(req)),
            }
        }
    }

    fn cost(&self, unit: &Unit) -> usize {
        // Statements cost one slot each. STATUS, SET and the other
        // control units bypass admission: cost 0 means they are
        // answered even when the statement queue is saturated.
        let statement = |r: &Request| matches!(r, Request::Query(_) | Request::Stmt(..));
        match unit {
            Unit::Request(r) => usize::from(statement(r)),
            // A batch's admission cost is its statement count; pure
            // control batches still occupy one slot.
            Unit::Batch(reqs) => reqs.iter().filter(|r| statement(r)).count().max(1),
            _ => 0,
        }
    }

    fn tenant_of<'u>(&self, unit: &'u Unit) -> Option<&'u str> {
        let reqs = match unit {
            Unit::Request(r) => std::slice::from_ref(r),
            Unit::Batch(reqs) => reqs,
            _ => return None,
        };
        reqs.iter().rev().find_map(|r| match r {
            Request::Set(SessionSetting::Tenant(t)) => Some(t.as_str()),
            _ => None,
        })
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
        let mut units = units.into_iter().peekable();
        while let Some(unit) = units.next() {
            let resp = match unit {
                Unit::Request(first) => {
                    // The pipelined run of requests behind this one is
                    // answered together, so its plain queries group.
                    let rest = std::iter::from_fn(|| {
                        match units.next_if(|u| matches!(u, Unit::Request(_))) {
                            Some(Unit::Request(r)) => Some(r),
                            _ => None,
                        }
                    });
                    let version = exec.version;
                    self.answer(exec, std::iter::once(first).chain(rest), |resp| {
                        emit(out, &resp, version)
                    });
                    continue;
                }
                Unit::Batch(reqs) => {
                    let mut parts = Vec::with_capacity(reqs.len());
                    self.answer(exec, reqs, |resp| parts.push(resp));
                    Response::Batch(parts)
                }
                Unit::Hello(v) => {
                    // Negotiate down to what both sides speak. The
                    // reply is always a text line — the encoding switch
                    // applies from the *next* response on.
                    exec.version = v.clamp(1, MAX_VERSION);
                    out.extend_from_slice(format!("HELLO {}\n", exec.version).as_bytes());
                    continue;
                }
                Unit::Busy => Response::Err {
                    kind: "busy".to_string(),
                    msg: "statement queue full; retry after backoff".to_string(),
                },
                Unit::Fatal { kind, msg } => {
                    outcome.close = true;
                    Response::Err {
                        kind: kind.to_string(),
                        msg,
                    }
                }
                Unit::Quit => {
                    outcome.close = true;
                    continue;
                }
            };
            emit(out, &resp, exec.version);
        }
        outcome
    }
}

impl ImciProto {
    /// Answer a run of requests in order, handing one response per
    /// request to `sink` — the one way a request becomes a response,
    /// for pipelined units and batch bodies alike. `SET`s change the
    /// session for the requests after them; each run of consecutive
    /// plain queries goes through one [`Cluster::execute_many`], which
    /// resolves proxy routing once per run; `STMT`s are answered from
    /// or recorded in the session's journal.
    fn answer(
        &self,
        exec: &mut ExecState,
        reqs: impl IntoIterator<Item = Request>,
        mut sink: impl FnMut(Response),
    ) {
        let mut reqs = reqs.into_iter().peekable();
        while let Some(req) = reqs.next() {
            let resp = match req {
                Request::Query(sql) => {
                    let mut sqls = vec![sql];
                    while let Some(Request::Query(sql)) =
                        reqs.next_if(|r| matches!(r, Request::Query(_)))
                    {
                        sqls.push(sql);
                    }
                    self.stats
                        .queries
                        .fetch_add(sqls.len() as u64, Ordering::Relaxed);
                    let results = self.cluster.execute_many(&sqls, exec.session);
                    for (sql, result) in sqls.iter().zip(results) {
                        sink(self.settle(exec.session, sql, result, false));
                    }
                    continue;
                }
                Request::Stmt(id, sql) => match exec.journal.get(id) {
                    Some(resp) => resp.clone(),
                    None => {
                        self.stats.queries.fetch_add(1, Ordering::Relaxed);
                        let result = self.cluster.execute_opts(&sql, exec.session);
                        let resp = self.settle(exec.session, &sql, result, true);
                        exec.journal.record(id, &resp);
                        resp
                    }
                },
                Request::Set(setting) => {
                    apply_setting(&mut exec.session, setting);
                    Response::Ok { affected: 0 }
                }
                // Zero admission cost: STATUS must work precisely when
                // the cluster is saturated or failing over.
                Request::Status => status_response(&self.cluster, &self.stats),
                Request::Hello(_) | Request::Batch(_) => Response::Err {
                    kind: "execution".into(),
                    msg: "HELLO/BATCH cannot appear inside a batch".into(),
                },
            };
            sink(resp);
        }
    }

    /// Turn one statement's result into its response. A failover error
    /// is replayed: wait (bounded by [`REPLAY_DEADLINE`]) for a writer
    /// to be installed, then execute again. That is safe for reads (no
    /// effect to duplicate) and for `STMT`-tagged writes (`tagged`) — in
    /// this system a statement that failed with the failover category
    /// provably did **not** commit: the epoch fence rejects the append
    /// before the commit fsync, and the failed append burns no LSN. An
    /// untagged write is never replayed: a client that timed out and
    /// resent on its own could otherwise double-apply.
    fn settle(
        &self,
        session: ExecOpts,
        sql: &str,
        mut result: Result<imci_sql::QueryResult>,
        tagged: bool,
    ) -> Response {
        if matches!(result, Err(Error::Failover(_))) && (tagged || imci_sql::is_read_only(sql)) {
            let deadline = Instant::now() + REPLAY_DEADLINE;
            // The writer we waited for may itself die; keep retrying
            // until the deadline.
            while matches!(result, Err(Error::Failover(_))) {
                let now = Instant::now();
                if now >= deadline || !self.cluster.wait_for_writer(deadline - now) {
                    break;
                }
                self.stats.replayed_stmts.fetch_add(1, Ordering::Relaxed);
                result = self.cluster.execute_opts(sql, session);
            }
        }
        match result {
            Ok(r) => response_of(r),
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::from_error(&e)
            }
        }
    }
}

/// Encode one response in the session's negotiated encoding, appended
/// to the connection's output.
fn emit(out: &mut Vec<u8>, resp: &Response, version: u32) {
    if version >= 2 {
        encode_response_v2(out, resp);
    } else {
        encode_response_v1(out, resp);
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
    }
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
