//! End-to-end and per-layer benchmark of the PolarDB-IMCI reproduction.
//!
//! ```text
//! imci_perfbench --workload <tpch_olap|oltp_point|htap_chbench> --seed <n>
//!                --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics, derived from spans the
//! benchmark records around its own calls into each layer, and write
//! the spans to `--spans`. The last line of standard output is the JSON
//! result. See `README.md` in this directory for the workloads and the
//! meaning of every metric.

mod bed;
mod htap_chbench;
mod olap;
mod oltp_point;
mod quiet;
mod stats;
mod tpch_olap;
mod trace;
mod verify;

use stats::Report;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("fg_p50_ms", "ms"),
    ("write_p50_us", "us"),
    ("vd_p50_us", "us"),
    ("heap_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not exercise a layer call reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.loopback_rt_us", "us"),
    ("net.status_rt_us", "us"),
    ("net.read_overhead_us", "us"),
    ("net.write_overhead_us", "us"),
    ("net.read_p99_us", "us"),
    ("net.write_p99_us", "us"),
    ("net.errors", "count"),
    ("net.busy_rejected_stmts", "count"),
    ("cluster.route_us", "us"),
    ("sql.point_parse_us", "us"),
    ("sql.point_run_us", "us"),
    ("sql.update_run_us", "us"),
    ("sql.tpch_parse_us", "us"),
    ("sql.tpch_plan_us", "us"),
    ("exec.share", "ratio"),
    ("exec.scan_rows", "count"),
    ("exec.join_rows", "count"),
    ("exec.morsels", "count"),
    ("core.live_ratio.order_line", "ratio"),
    ("core.live_ratio.chstock", "ratio"),
    ("core.live_ratio.chcustomer", "ratio"),
    ("core.groups.order_line", "count"),
    ("core.groups.chstock", "count"),
    ("core.groups.chcustomer", "count"),
    ("rowstore.new_order_us", "us"),
    ("rowstore.payment_us", "us"),
    ("rowstore.commit_us", "us"),
    ("polarfs.append_bytes_per_txn", "B/txn"),
    ("polarfs.appends_per_txn", "count/txn"),
    ("polarfs.fsyncs_per_txn", "count/txn"),
    ("polarfs.log_reads_per_txn", "count/txn"),
    ("polarfs.log_bytes_read_per_txn", "B/txn"),
    ("polarfs.page_reads", "count"),
    ("repl.txns_per_batch", "count"),
    ("repl.entries_per_txn", "count"),
    ("repl.dmls_per_txn", "count"),
    ("repl.precommits", "count"),
    ("repl.lag_lsn_p50", "lsn"),
    ("repl.lag_lsn_max", "lsn"),
    ("repl.wait_applied_us", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_max_ms", "ms"),
    ("gen.steal_pct", "%"),
    ("gen.kept_steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Queries whose executor time is reported as `exec.<name>_ms`.
fn exec_query_names() -> Vec<&'static str> {
    imci_workloads::tpch::queries()
        .into_iter()
        .chain(imci_workloads::chbench::analytical_queries())
        .map(|(name, _)| name)
        .collect()
}

pub fn exec_metric(query: &str) -> String {
    format!("exec.{query}_ms")
}

/// Per-layer values gathered by a traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// What a workload hands back: end-to-end values, per-layer values, and
/// the verdict and counts of the run.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: Layers,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("imci_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut tracer = trace::Tracer::new(args.trace, epoch);
    let outcome = match args.workload.as_str() {
        "tpch_olap" => tpch_olap::run(&args, &mut tracer),
        "oltp_point" => oltp_point::run(&args, &mut tracer),
        "htap_chbench" => htap_chbench::run(&args, &mut tracer),
        other => {
            eprintln!("imci_perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("imci_perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.write(path) {
            eprintln!("imci_perfbench: writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "# {} spans written to {}",
            tracer.spans.len(),
            path.display()
        );
    }
    let mut report = Report {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        ..Report::default()
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            report.put(
                *name,
                outcome.layers.0.get(*name).copied().unwrap_or(0.0),
                unit,
            );
        }
        for q in exec_query_names() {
            let name = exec_metric(q);
            let v = outcome.layers.0.get(&name).copied().unwrap_or(0.0);
            report.put(name, v, "ms");
        }
    } else {
        for (name, unit) in END_TO_END {
            report.put(*name, outcome.e2e.get(name).copied().unwrap_or(0.0), unit);
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name} = {value:.6} {unit}");
    }
    println!("{}", report.json());
}
