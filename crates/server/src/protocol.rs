//! The `imci-server` wire protocol: text requests, text (v1) or binary
//! (v2) responses.
//!
//! ## Requests (all versions)
//!
//! Requests are single lines (the client escapes embedded newlines,
//! tabs and backslashes via [`escape_request`] so SQL survives the
//! framing byte-exactly; the server undoes it with
//! [`unescape_request`]):
//!
//! ```text
//! HELLO <version>                      negotiate the response encoding
//! SET CONSISTENCY STRONG|EVENTUAL
//! SET FORCE_ENGINE ROW|COLUMN|AUTO
//! SET TENANT <name>                    fairness lane for scheduling
//! SET PARALLELISM <n>                  morsel-parallelism cap (n >= 1)
//! BATCH <n>                            the next n lines are one batch
//! <any SQL statement>
//! ```
//!
//! Clients may **pipeline**: send many request lines before reading a
//! single response. The server executes in order and writes exactly
//! one response per request, in order. Depth is bounded by socket
//! buffering: the server blocks writing responses once the client's
//! receive window fills, so a client that pipelines unboundedly
//! without reading deadlocks itself. Keep roughly a few hundred
//! point-read-sized requests in flight, or use `BATCH` (whose reply
//! is a single frame) for bigger units.
//!
//! ## Responses, v1 (default — what netcat users see)
//!
//! ```text
//! OK <affected>
//! ROWS <nrows> ROW|COLUMN
//! <tab-separated column names>
//! <tab-separated typed values>        (nrows lines)
//! END
//! ERR <kind> <escaped message>
//! BATCH <n>                           (then n responses, one per stmt)
//! ```
//!
//! Values carry a one-letter type tag so the client can reconstruct
//! [`Value`]s exactly: `N` (null), `I:<i64>`, `F:<f64 bits as hex>`,
//! `T:<days>` (date), `S:<escaped utf-8>`. `<kind>` is the
//! [`imci_common::Error::kind`] tag, so clients keep the error category.
//!
//! ## Responses, v2 (after `HELLO 2` / `HELLO 2` handshake)
//!
//! Length-prefixed binary frames (see [`crate::wire`] for the varint
//! and tagged-value primitives) — no per-cell formatting, no escaping:
//!
//! ```text
//! frame     := 0x01 uv(affected)                                 OK
//!            | 0x02 str(kind) str(message)                       ERR
//!            | 0x03 engine:u8 uv(ncols) str* uv(nrows) row*      ROWS
//!            | 0x04 uv(n) frame*                                 BATCH
//! row       := value*ncols
//! value     := 0x00 | 0x01 iv | 0x02 f64le | 0x03 iv | 0x04 str
//! str       := uv(len) byte*len
//! ```
//!
//! `uv`/`iv` are LEB128 varints (`iv` zigzag-signed); `engine` is 0 for
//! ROW, 1 for COLUMN. The `HELLO <v>` reply itself is always a text
//! line, so the handshake is debuggable from netcat and a v1 client
//! that never sends `HELLO` keeps getting text forever.

use crate::wire;
use imci_cluster::Consistency;
use imci_common::{Error, Result, Value};
use imci_sql::{EngineChoice, QueryResult};
use std::io::BufRead;

/// Highest response-protocol version this build speaks.
pub const MAX_VERSION: u32 = 2;

/// Largest statement count one `BATCH` may carry.
pub const MAX_BATCH: usize = 65_536;

/// Cap on any single length-prefixed string read off the wire (guards
/// against a corrupt length prefix allocating unbounded memory).
const MAX_WIRE_STR: u64 = 1 << 28;

// v2 frame tags.
const FRAME_OK: u8 = 0x01;
const FRAME_ERR: u8 = 0x02;
const FRAME_ROWS: u8 = 0x03;
const FRAME_BATCH: u8 = 0x04;

/// A per-session setting change (paper §6.4: the proxy enforces the
/// consistency level per session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionSetting {
    /// `SET CONSISTENCY ...` — routing constraint for this session's
    /// reads.
    Consistency(Consistency),
    /// `SET FORCE_ENGINE ...` — pin this session's SELECTs to one
    /// engine; `None` restores cost-based routing (`AUTO`).
    ForceEngine(Option<EngineChoice>),
    /// `SET TENANT <name>` — assign the session to a fairness lane in
    /// the service tier's scheduler; one tenant pipelining heavily
    /// cannot starve another. Purely a scheduling hint, never touches
    /// query semantics.
    Tenant(String),
    /// `SET PARALLELISM <n>` — cap morsel parallelism for this
    /// session's column-engine SELECTs (n ≥ 1).
    Parallelism(usize),
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `HELLO <version>` — negotiate the response encoding.
    Hello(u32),
    /// `BATCH <n>` — the next `n` request lines form one batch with a
    /// single aggregate reply.
    Batch(usize),
    Set(SessionSetting),
    /// `STATUS` — zero-cost control statement answered by the proxy
    /// itself (bypasses admission control): reports the node role,
    /// writer epoch, applied LSN and supervisor state as a one-row
    /// result set. Usable even when the cluster is saturated, which is
    /// exactly when an operator needs it.
    Status,
    /// `STMT <id> <sql>` — a statement tagged with a client-chosen id
    /// for exactly-once replay across failover: if the client resends
    /// the same id on a new connection, the server answers from its
    /// journal instead of re-executing.
    Stmt(u64, String),
    Query(String),
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// DML/DDL/SET acknowledged; `affected` rows changed.
    Ok { affected: usize },
    /// SELECT result set.
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
        engine: EngineChoice,
    },
    /// Execution error (the session stays usable). `kind` is the
    /// [`Error::kind`] tag so clients can rebuild the exact category.
    Err { kind: String, msg: String },
    /// Aggregate reply to `BATCH <n>`: one sub-response per statement.
    Batch(Vec<Response>),
}

impl Response {
    /// Build the error response for `e`, preserving its category.
    pub fn from_error(e: &Error) -> Response {
        Response::Err {
            kind: e.kind().to_string(),
            msg: e.message().to_string(),
        }
    }
}

/// Parse one request line. `HELLO`/`BATCH` framing and the `SET`
/// statements the proxy handles itself are recognized here; everything
/// else is passed through as SQL.
pub fn parse_request(line: &str) -> Request {
    let trimmed = line.trim();
    // Allocation-free dispatch on the first word: this runs once per
    // request on the hot path, and almost every request is plain SQL.
    let mut words = trimmed.split_whitespace();
    let w0 = words.next().unwrap_or("");
    if w0.eq_ignore_ascii_case("HELLO") {
        if let (Some(v), None) = (words.next(), words.next()) {
            if let Ok(v) = v.parse::<u32>() {
                return Request::Hello(v);
            }
        }
    } else if w0.eq_ignore_ascii_case("BATCH") {
        if let (Some(n), None) = (words.next(), words.next()) {
            if let Ok(n) = n.parse::<usize>() {
                return Request::Batch(n);
            }
        }
    } else if w0.eq_ignore_ascii_case("STATUS") {
        if words.next().is_none() {
            return Request::Status;
        }
    } else if w0.eq_ignore_ascii_case("STMT") {
        // `STMT <id> <sql...>` — everything after the id is the SQL.
        let rest = trimmed[w0.len()..].trim_start();
        if let Some((id_str, sql)) = rest.split_once(char::is_whitespace) {
            if let Ok(id) = id_str.parse::<u64>() {
                let sql = sql.trim();
                if !sql.is_empty() {
                    return Request::Stmt(id, sql.to_string());
                }
            }
        }
    } else if w0.eq_ignore_ascii_case("SET") {
        if let (Some(w1), Some(w2), None) = (words.next(), words.next(), words.next()) {
            if w1.eq_ignore_ascii_case("CONSISTENCY") {
                if w2.eq_ignore_ascii_case("STRONG") {
                    return Request::Set(SessionSetting::Consistency(Consistency::Strong));
                }
                if w2.eq_ignore_ascii_case("EVENTUAL") {
                    return Request::Set(SessionSetting::Consistency(Consistency::Eventual));
                }
            } else if w1.eq_ignore_ascii_case("FORCE_ENGINE") {
                if w2.eq_ignore_ascii_case("ROW") {
                    return Request::Set(SessionSetting::ForceEngine(Some(EngineChoice::Row)));
                }
                if w2.eq_ignore_ascii_case("COLUMN") {
                    return Request::Set(SessionSetting::ForceEngine(Some(EngineChoice::Column)));
                }
                if w2.eq_ignore_ascii_case("AUTO") {
                    return Request::Set(SessionSetting::ForceEngine(None));
                }
            } else if w1.eq_ignore_ascii_case("TENANT") {
                // Tenant names are case-sensitive opaque identifiers.
                return Request::Set(SessionSetting::Tenant(w2.to_string()));
            } else if w1.eq_ignore_ascii_case("PARALLELISM") {
                if let Ok(n) = w2.parse::<usize>() {
                    if n >= 1 {
                        return Request::Set(SessionSetting::Parallelism(n));
                    }
                }
            }
        }
    }
    Request::Query(trimmed.to_string())
}

/// Escape a request line before sending (client side): `\`, tab and
/// newline become two-character sequences so SQL containing literal
/// newlines survives the line framing. Symmetric with
/// [`unescape_request`].
pub fn escape_request(sql: &str) -> String {
    escape(sql)
}

/// Undo [`escape_request`] (server side). Requests typed by hand (e.g.
/// over netcat) without backslashes pass through unchanged — and
/// without copying, which matters on the per-request hot path.
pub fn unescape_request(line: &str) -> std::borrow::Cow<'_, str> {
    if line.contains('\\') {
        std::borrow::Cow::Owned(unescape(line))
    } else {
        std::borrow::Cow::Borrowed(line)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "N".to_string(),
        Value::Int(i) => format!("I:{i}"),
        // Hex bit pattern: exact roundtrip, no float-formatting loss.
        Value::Double(d) => format!("F:{:016x}", d.to_bits()),
        Value::Date(d) => format!("T:{d}"),
        Value::Str(s) => format!("S:{}", escape(s)),
    }
}

fn decode_value(s: &str) -> Result<Value> {
    if s == "N" {
        return Ok(Value::Null);
    }
    let (tag, body) = s
        .split_once(':')
        .ok_or_else(|| Error::Execution(format!("malformed value {s:?}")))?;
    match tag {
        "I" => body
            .parse()
            .map(Value::Int)
            .map_err(|e| Error::Execution(format!("bad int: {e}"))),
        "F" => u64::from_str_radix(body, 16)
            .map(|bits| Value::Double(f64::from_bits(bits)))
            .map_err(|e| Error::Execution(format!("bad double: {e}"))),
        "T" => body
            .parse()
            .map(Value::Date)
            .map_err(|e| Error::Execution(format!("bad date: {e}"))),
        "S" => Ok(Value::Str(unescape(body))),
        _ => Err(Error::Execution(format!("unknown value tag {tag:?}"))),
    }
}

fn engine_name(e: EngineChoice) -> &'static str {
    match e {
        EngineChoice::Row => "ROW",
        EngineChoice::Column => "COLUMN",
    }
}

/// Encode one response in the v1 text encoding, appended to `out`.
/// Does **not** flush: the session loop flushes once no further
/// pipelined requests are pending, which is what makes pipelining pay
/// off.
pub fn encode_response_v1(out: &mut Vec<u8>, resp: &Response) {
    // Cells of one line, tab-separated, then the newline.
    fn line<I: IntoIterator<Item = String>>(out: &mut Vec<u8>, cells: I) {
        for (i, cell) in cells.into_iter().enumerate() {
            if i > 0 {
                out.push(b'\t');
            }
            out.extend_from_slice(cell.as_bytes());
        }
        out.push(b'\n');
    }
    match resp {
        Response::Ok { affected } => line(out, [format!("OK {affected}")]),
        Response::Err { kind, msg } => line(out, [format!("ERR {kind} {}", escape(msg))]),
        Response::Rows {
            columns,
            rows,
            engine,
        } => {
            line(
                out,
                [format!("ROWS {} {}", rows.len(), engine_name(*engine))],
            );
            line(out, columns.iter().map(|c| escape(c)));
            for row in rows {
                line(out, row.iter().map(encode_value));
            }
            out.extend_from_slice(b"END\n");
        }
        Response::Batch(parts) => {
            line(out, [format!("BATCH {}", parts.len())]);
            for part in parts {
                encode_response_v1(out, part);
            }
        }
    }
}

/// Read one v1 text response from a buffered reader (client side).
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Response> {
    read_response_depth(r, 0)
}

fn read_response_depth<R: BufRead>(r: &mut R, depth: u32) -> Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)
        .map_err(|e| Error::Execution(format!("connection read failed: {e}")))?
        == 0
    {
        return Err(Error::Execution("server closed the connection".into()));
    }
    let line = line.trim_end_matches(['\n', '\r']);
    if let Some(rest) = line.strip_prefix("OK ") {
        let affected = rest
            .trim()
            .parse()
            .map_err(|e| Error::Execution(format!("bad OK line: {e}")))?;
        return Ok(Response::Ok { affected });
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        // `ERR <kind> <escaped message>`; a lone token is a bare
        // message from some hand-rolled peer — treat it as the message.
        let (kind, msg) = match rest.split_once(' ') {
            Some((k, m)) => (k.to_string(), unescape(m)),
            None => ("execution".to_string(), unescape(rest)),
        };
        return Ok(Response::Err { kind, msg });
    }
    if let Some(rest) = line.strip_prefix("BATCH ") {
        // The server never nests batches; a nested one in the stream is
        // a protocol violation, and recursing on it unguarded would let
        // a malicious peer overflow the stack (mirrors the v2 reader).
        if depth > 0 {
            return Err(Error::Execution("nested BATCH responses".into()));
        }
        let n: usize = rest
            .trim()
            .parse()
            .map_err(|e| Error::Execution(format!("bad BATCH line: {e}")))?;
        if n > MAX_BATCH {
            return Err(Error::Execution(format!("batch of {n} exceeds limit")));
        }
        let mut parts = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            parts.push(read_response_depth(r, depth + 1)?);
        }
        return Ok(Response::Batch(parts));
    }
    let rest = line
        .strip_prefix("ROWS ")
        .ok_or_else(|| Error::Execution(format!("unexpected response line {line:?}")))?;
    let mut parts = rest.split_whitespace();
    let nrows: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::Execution("bad ROWS count".into()))?;
    let engine = match parts.next() {
        Some("ROW") => EngineChoice::Row,
        Some("COLUMN") => EngineChoice::Column,
        other => return Err(Error::Execution(format!("bad engine tag {other:?}"))),
    };
    let mut header = String::new();
    r.read_line(&mut header)
        .map_err(|e| Error::Execution(format!("connection read failed: {e}")))?;
    let header = header.trim_end_matches(['\n', '\r']);
    let columns: Vec<String> = if header.is_empty() {
        Vec::new()
    } else {
        header.split('\t').map(unescape).collect()
    };
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut rl = String::new();
        if r.read_line(&mut rl)
            .map_err(|e| Error::Execution(format!("connection read failed: {e}")))?
            == 0
        {
            return Err(Error::Execution("truncated result set".into()));
        }
        let rl = rl.trim_end_matches(['\n', '\r']);
        let row: Vec<Value> = if rl.is_empty() {
            Vec::new()
        } else {
            rl.split('\t').map(decode_value).collect::<Result<_>>()?
        };
        rows.push(row);
    }
    let mut end = String::new();
    r.read_line(&mut end)
        .map_err(|e| Error::Execution(format!("connection read failed: {e}")))?;
    if end.trim_end_matches(['\n', '\r']) != "END" {
        return Err(Error::Execution("missing END marker".into()));
    }
    Ok(Response::Rows {
        columns,
        rows,
        engine,
    })
}

/// Encode one response as a v2 binary frame, appended to `out`.
pub fn encode_response_v2(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Ok { affected } => {
            out.push(FRAME_OK);
            wire::put_uvarint(out, *affected as u64);
        }
        Response::Err { kind, msg } => {
            out.push(FRAME_ERR);
            wire::put_bytes(out, kind.as_bytes());
            wire::put_bytes(out, msg.as_bytes());
        }
        Response::Rows {
            columns,
            rows,
            engine,
        } => {
            out.push(FRAME_ROWS);
            out.push(match engine {
                EngineChoice::Row => 0,
                EngineChoice::Column => 1,
            });
            wire::put_uvarint(out, columns.len() as u64);
            for c in columns {
                wire::put_bytes(out, c.as_bytes());
            }
            wire::put_uvarint(out, rows.len() as u64);
            for row in rows {
                debug_assert_eq!(row.len(), columns.len());
                for v in row {
                    wire::put_value(out, v);
                }
            }
        }
        Response::Batch(parts) => {
            out.push(FRAME_BATCH);
            wire::put_uvarint(out, parts.len() as u64);
            for part in parts {
                encode_response_v2(out, part);
            }
        }
    }
}

/// Read one v2 binary response frame (client side).
pub fn read_response_v2<R: BufRead>(r: &mut R) -> Result<Response> {
    read_response_v2_depth(r, 0)
}

fn read_response_v2_depth<R: BufRead>(r: &mut R, depth: u32) -> Result<Response> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)
        .map_err(|e| Error::Execution(format!("connection read failed: {e}")))?;
    match tag[0] {
        FRAME_OK => Ok(Response::Ok {
            affected: wire::get_uvarint(r)? as usize,
        }),
        FRAME_ERR => Ok(Response::Err {
            kind: wire::get_string(r, 256)?,
            msg: wire::get_string(r, MAX_WIRE_STR)?,
        }),
        FRAME_ROWS => {
            let mut eng = [0u8; 1];
            r.read_exact(&mut eng)
                .map_err(|e| Error::Execution(format!("connection read failed: {e}")))?;
            let engine = match eng[0] {
                0 => EngineChoice::Row,
                1 => EngineChoice::Column,
                e => return Err(Error::Execution(format!("bad engine byte {e:#x}"))),
            };
            let ncols = wire::get_uvarint(r)? as usize;
            if ncols > 4096 {
                return Err(Error::Execution(format!("{ncols} columns exceeds limit")));
            }
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                columns.push(wire::get_string(r, MAX_WIRE_STR)?);
            }
            let nrows = wire::get_uvarint(r)? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1 << 20));
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    row.push(wire::get_value(r, MAX_WIRE_STR)?);
                }
                rows.push(row);
            }
            Ok(Response::Rows {
                columns,
                rows,
                engine,
            })
        }
        FRAME_BATCH => {
            if depth > 0 {
                return Err(Error::Execution("nested BATCH frames".into()));
            }
            let n = wire::get_uvarint(r)? as usize;
            if n > MAX_BATCH {
                return Err(Error::Execution(format!("batch of {n} exceeds limit")));
            }
            let mut parts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                parts.push(read_response_v2_depth(r, depth + 1)?);
            }
            Ok(Response::Batch(parts))
        }
        t => Err(Error::Execution(format!("unknown response frame {t:#x}"))),
    }
}

/// Convert a [`QueryResult`] into the wire response: a result with
/// columns becomes `ROWS` even when it has zero rows, one without
/// becomes `OK`. Every read (`SELECT`, `EXPLAIN`) names at least one
/// output column, so an empty read result is never mistaken for a DML
/// acknowledgment.
pub fn response_of(result: QueryResult) -> Response {
    if !result.columns.is_empty() {
        Response::Rows {
            columns: result.columns,
            rows: result.rows,
            engine: result.engine,
        }
    } else {
        Response::Ok {
            affected: result.affected,
        }
    }
}

/// Convert a wire response back into a [`QueryResult`] (client side),
/// rebuilding the server's error category from its kind tag.
pub fn result_of(resp: Response) -> Result<QueryResult> {
    match resp {
        Response::Ok { affected } => Ok(QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            engine: EngineChoice::Row,
            affected,
        }),
        Response::Rows {
            columns,
            rows,
            engine,
        } => Ok(QueryResult {
            columns,
            rows,
            engine,
            affected: 0,
        }),
        Response::Err { kind, msg } => Err(Error::from_kind(&kind, msg)),
        Response::Batch(_) => Err(Error::Execution(
            "unexpected BATCH reply to a single statement".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn set_statements_parse() {
        assert_eq!(
            parse_request("set consistency strong"),
            Request::Set(SessionSetting::Consistency(Consistency::Strong))
        );
        assert_eq!(
            parse_request("SET FORCE_ENGINE column"),
            Request::Set(SessionSetting::ForceEngine(Some(EngineChoice::Column)))
        );
        assert_eq!(
            parse_request("SET FORCE_ENGINE AUTO"),
            Request::Set(SessionSetting::ForceEngine(None))
        );
        assert_eq!(
            parse_request("SET TENANT analytics"),
            Request::Set(SessionSetting::Tenant("analytics".to_string()))
        );
        assert_eq!(
            parse_request("SET PARALLELISM 4"),
            Request::Set(SessionSetting::Parallelism(4))
        );
        assert_eq!(
            parse_request("SELECT 1"),
            Request::Query("SELECT 1".to_string())
        );
        // Unknown SET shapes fall through to SQL.
        assert_eq!(
            parse_request("SET foo bar"),
            Request::Query("SET foo bar".to_string())
        );
        // PARALLELISM 0 and non-numeric args fall through to SQL.
        assert_eq!(
            parse_request("SET PARALLELISM 0"),
            Request::Query("SET PARALLELISM 0".to_string())
        );
        assert_eq!(
            parse_request("SET PARALLELISM lots"),
            Request::Query("SET PARALLELISM lots".to_string())
        );
    }

    #[test]
    fn framing_requests_parse() {
        assert_eq!(parse_request("HELLO 2"), Request::Hello(2));
        assert_eq!(parse_request("hello 17"), Request::Hello(17));
        assert_eq!(parse_request("BATCH 32"), Request::Batch(32));
        assert_eq!(parse_request("batch 0"), Request::Batch(0));
        // Non-numeric arguments fall through to SQL.
        assert_eq!(
            parse_request("HELLO world"),
            Request::Query("HELLO world".to_string())
        );
        assert_eq!(
            parse_request("BATCH job"),
            Request::Query("BATCH job".to_string())
        );
    }

    #[test]
    fn status_and_stmt_parse() {
        assert_eq!(parse_request("STATUS"), Request::Status);
        assert_eq!(parse_request("  status  "), Request::Status);
        // A STATUS with trailing words is SQL, not the control statement.
        assert_eq!(
            parse_request("STATUS now"),
            Request::Query("STATUS now".to_string())
        );
        assert_eq!(
            parse_request("STMT 42 INSERT INTO t VALUES (1)"),
            Request::Stmt(42, "INSERT INTO t VALUES (1)".to_string())
        );
        assert_eq!(
            parse_request("stmt 7 SELECT 1"),
            Request::Stmt(7, "SELECT 1".to_string())
        );
        // Malformed ids or missing SQL fall through to SQL.
        assert_eq!(
            parse_request("STMT abc SELECT 1"),
            Request::Query("STMT abc SELECT 1".to_string())
        );
        assert_eq!(
            parse_request("STMT 42"),
            Request::Query("STMT 42".to_string())
        );
    }

    fn roundtrip_v1(resp: &Response) -> Response {
        let mut buf = Vec::new();
        encode_response_v1(&mut buf, resp);
        let mut r = BufReader::new(&buf[..]);
        read_response(&mut r).unwrap()
    }

    fn roundtrip_v2(resp: &Response) -> Response {
        let mut buf = Vec::new();
        encode_response_v2(&mut buf, resp);
        let mut r = BufReader::new(&buf[..]);
        read_response_v2(&mut r).unwrap()
    }

    fn sample_rows() -> Response {
        Response::Rows {
            columns: vec!["id".into(), "note".into()],
            rows: vec![
                vec![Value::Int(1), Value::Str("tab\there".into())],
                vec![Value::Double(1.5), Value::Null],
                vec![Value::Date(19000), Value::Str("multi\nline".into())],
            ],
            engine: EngineChoice::Column,
        }
    }

    #[test]
    fn responses_roundtrip_both_encodings() {
        let samples = [
            Response::Ok { affected: 7 },
            Response::Err {
                kind: "constraint".into(),
                msg: "boom\nwith newline".into(),
            },
            sample_rows(),
            Response::Batch(vec![
                Response::Ok { affected: 1 },
                sample_rows(),
                Response::Err {
                    kind: "parse".into(),
                    msg: "nope".into(),
                },
            ]),
        ];
        for resp in &samples {
            assert_eq!(&roundtrip_v1(resp), resp, "v1");
            assert_eq!(&roundtrip_v2(resp), resp, "v2");
        }
    }

    #[test]
    fn v2_is_smaller_than_v1_for_rows() {
        let resp = sample_rows();
        let (mut t, mut b) = (Vec::new(), Vec::new());
        encode_response_v1(&mut t, &resp);
        encode_response_v2(&mut b, &resp);
        assert!(
            b.len() < t.len(),
            "binary ({}) should undercut text ({})",
            b.len(),
            t.len()
        );
    }

    #[test]
    fn double_encoding_is_exact() {
        for d in [0.1, -1.0 / 3.0, f64::MAX, 1e-300] {
            let v = decode_value(&encode_value(&Value::Double(d))).unwrap();
            assert_eq!(v, Value::Double(d));
        }
    }

    #[test]
    fn error_category_survives_the_wire() {
        let e = Error::Constraint("duplicate key 7".into());
        let resp = Response::from_error(&e);
        for got in [roundtrip_v1(&resp), roundtrip_v2(&resp)] {
            match result_of(got) {
                Err(back) => assert_eq!(back, e),
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_select_is_not_conflated_with_ok() {
        // A read that returns no rows must stay a ROWS response; only a
        // result without columns (DML, DDL) collapses to OK.
        let empty_read = QueryResult {
            columns: vec!["id".into()],
            rows: Vec::new(),
            engine: EngineChoice::Row,
            affected: 0,
        };
        assert!(matches!(
            response_of(empty_read),
            Response::Rows { ref rows, .. } if rows.is_empty()
        ));
        let dml = QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            engine: EngineChoice::Row,
            affected: 0,
        };
        assert!(matches!(response_of(dml), Response::Ok { affected: 0 }));
        // And both encodings preserve the zero-column ROWS shape.
        let zero_cols = Response::Rows {
            columns: Vec::new(),
            rows: Vec::new(),
            engine: EngineChoice::Row,
        };
        assert_eq!(roundtrip_v1(&zero_cols), zero_cols);
        assert_eq!(roundtrip_v2(&zero_cols), zero_cols);
    }
}
