//! The analytic client shared by `tpch_olap` and `htap_chbench`: one v2
//! connection running a fixed query list in order, in a closed loop, in
//! whole passes.

use crate::quiet::{quietest_half, StealLog};
use crate::stats::{geomean, median};
use crate::trace::{request_id, Tracer};
use crate::{exec_metric, Layers, Outcome};
use imci_common::{Result, Value};
use imci_server::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub struct OlapOut {
    pub attempted: u64,
    pub failed: u64,
    /// Results whose row count differed from the verified reference.
    pub wrong: u64,
    /// Queries completed in the measured passes and their wall time.
    pub done: u64,
    pub elapsed: Duration,
    /// The untraced passes.
    pub passes: Vec<Pass>,
    /// Client latency in ms per query of the traced passes.
    pub lat_traced: Vec<Vec<f64>>,
    /// EXPLAIN ANALYZE `wall_ms` per query (traced passes only).
    pub exec_ms: Vec<Vec<f64>>,
    /// Operator row and morsel counts of the first traced pass.
    pub scan_rows: f64,
    pub join_rows: f64,
    pub morsels: f64,
}

/// One pass over the query list.
pub struct Pass {
    pub start: Instant,
    pub end: Instant,
    /// Client latency in ms of each query that succeeded, by position.
    pub lat: Vec<(usize, f64)>,
}

impl Pass {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn qps(&self) -> f64 {
        self.lat.len() as f64 / self.secs()
    }
}

/// Geomean over queries of each query's median latency, in ms.
pub fn geomean_ms(lat: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = lat
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect();
    geomean(&medians)
}

impl OlapOut {
    /// The untraced passes during which the host stole the least CPU
    /// (see `quiet`).
    pub fn quiet_passes(&self, log: &StealLog) -> Vec<&Pass> {
        let steal: Vec<f64> = self
            .passes
            .iter()
            .map(|p| log.pct(p.start, p.end))
            .collect();
        let keep = quietest_half(&steal);
        self.passes
            .iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(p, _)| p)
            .collect()
    }

    /// Latencies per query over some passes.
    pub fn by_query(&self, passes: &[&Pass]) -> Vec<Vec<f64>> {
        let mut lat = vec![Vec::new(); self.lat_traced.len()];
        for (i, ms) in passes.iter().flat_map(|p| &p.lat) {
            lat[*i].push(*ms);
        }
        lat
    }

    /// Summed EXPLAIN ANALYZE wall time over summed client time, for the
    /// traced passes.
    pub fn exec_share(&self) -> f64 {
        let exec: f64 = self.exec_ms.iter().flatten().sum();
        let client: f64 = self.lat_traced.iter().flatten().sum();
        if client > 0.0 {
            exec / client
        } else {
            0.0
        }
    }
}

fn field(line: &str, key: &str) -> Option<f64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// Run the queries in whole passes for `seconds` after one untimed
/// warm-up pass. With `expected` row counts, every result is checked
/// against them. With tracing on, passes alternate between untraced
/// (the base of `trace.overhead_pct`) and traced; in a traced pass every
/// query is followed by its EXPLAIN ANALYZE, which times the executor
/// alone.
pub fn run(
    addr: SocketAddr,
    queries: &[(&str, String)],
    expected: Option<&[usize]>,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<OlapOut> {
    let traced = tr.enabled();
    let n = queries.len();
    let mut out = OlapOut {
        attempted: 0,
        failed: 0,
        wrong: 0,
        done: 0,
        elapsed: Duration::ZERO,
        passes: Vec::new(),
        lat_traced: vec![Vec::new(); n],
        exec_ms: vec![Vec::new(); n],
        scan_rows: 0.0,
        join_rows: 0.0,
        morsels: 0.0,
    };
    let mut client = Client::connect(addr)?;
    tr.set_enabled(false);
    for (_, sql) in queries {
        out.attempted += 1;
        if client.execute(sql).is_err() {
            out.failed += 1;
        }
    }
    let start = Instant::now();
    let mut first_traced_pass = true;
    let mut passes = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let tracing = traced && passes % 2 == 1;
        passes += 1;
        tr.set_enabled(tracing);
        let mut pass = Pass {
            start: Instant::now(),
            end: Instant::now(),
            lat: Vec::new(),
        };
        for (i, (_, sql)) in queries.iter().enumerate() {
            out.attempted += 1;
            let req = request_id();
            let t0 = Instant::now();
            let r = tr.span("net.execute", req, |_| client.execute(sql));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match r {
                Ok(res) => {
                    if expected.is_some_and(|e| e[i] != res.rows.len()) {
                        out.wrong += 1;
                    }
                    if tracing {
                        out.lat_traced[i].push(ms);
                    } else {
                        pass.lat.push((i, ms));
                    }
                    out.done += 1;
                }
                Err(_) => out.failed += 1,
            }
            if !tracing {
                continue;
            }
            out.attempted += 1;
            let plan = match tr.span("exec.explain_analyze", req, |_| {
                client.execute(&format!("EXPLAIN ANALYZE {sql}"))
            }) {
                Ok(p) => p,
                Err(_) => {
                    out.failed += 1;
                    continue;
                }
            };
            for row in &plan.rows {
                let Some(Value::Str(line)) = row.first() else {
                    continue;
                };
                let op = line.trim_start();
                if op.starts_with("total:") {
                    if let Some(ms) = field(op, "wall_ms=") {
                        out.exec_ms[i].push(ms);
                    }
                    if first_traced_pass {
                        out.morsels += field(op, "morsels=").unwrap_or(0.0);
                    }
                } else if first_traced_pass && op.starts_with("ColumnScan") {
                    out.scan_rows += field(op, "rows=").unwrap_or(0.0);
                } else if first_traced_pass && op.starts_with("HashJoin") {
                    out.join_rows += field(op, "rows=").unwrap_or(0.0);
                }
            }
        }
        if tracing {
            first_traced_pass = false;
        } else {
            pass.end = Instant::now();
            out.passes.push(pass);
        }
        out.elapsed = start.elapsed();
    }
    tr.set_enabled(traced);
    Ok(out)
}

/// End-to-end figures of an analytic workload, given the passes and the
/// throughput measured over them, and the write latencies and visibility
/// delays of the kept seconds. The caller sets `fg_p50_ms`.
pub fn end_to_end(
    out: &mut Outcome,
    olap: &OlapOut,
    passes: &[&Pass],
    qps: f64,
    write_us: &[f64],
    vd_us: &[f64],
) {
    let lat = olap.by_query(passes);
    let medians: Vec<String> = lat.iter().map(|l| format!("{:.2}", median(l))).collect();
    println!(
        "# {} of {} passes kept; median client ms per query: {}",
        passes.len(),
        olap.passes.len(),
        medians.join(" ")
    );
    out.e2e.insert("ops_s", qps);
    println!("# query geomean {:.3} ms", geomean_ms(&lat));
    out.e2e.insert("write_p50_us", median(write_us));
    out.e2e.insert("vd_p50_us", median(vd_us));
}

/// Executor figures of a traced analytic run.
pub fn exec_layer_metrics(olap: &OlapOut, queries: &[(&str, String)], l: &mut Layers) {
    for ((name, _), ms) in queries.iter().zip(&olap.exec_ms) {
        l.set(exec_metric(name), median(ms));
    }
    l.set("exec.share", olap.exec_share());
    l.set("exec.scan_rows", olap.scan_rows);
    l.set("exec.join_rows", olap.join_rows);
    l.set("exec.morsels", olap.morsels);
    let all: Vec<&Pass> = olap.passes.iter().collect();
    let untraced = geomean_ms(&olap.by_query(&all));
    let traced = geomean_ms(&olap.lat_traced);
    if untraced > 0.0 {
        l.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    }
}
