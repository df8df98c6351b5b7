//! `tpch_olap`: the 22 TPC-H queries at SF 0.05 over one v2 connection,
//! in a closed loop at Eventual consistency with default routing, while
//! a second thread commits a marker transaction every 20 ms to
//! measure commit latency and freshness under analytic load.

use crate::bed::{
    commit_samples, floor_probes, lag_grows, probe_writer, vd_layer_metrics, vd_samples, Bed,
    Counters,
};
use crate::olap::{self, end_to_end, exec_layer_metrics, geomean_ms};
use crate::quiet::{self, steal_metrics, QuietSeconds};
use crate::stats::median;
use crate::trace::{request_id, Tracer};
use crate::{Args, Layers, Outcome};
use imci_cluster::Cluster;
use imci_common::Result;
use imci_sql::Statement;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const SCALE_FACTOR: f64 = 0.05;

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome> {
    let queries = imci_workloads::tpch::queries();
    let mut load = |c: &Cluster| imci_workloads::tpch::load(c, SCALE_FACTOR, args.seed);
    let (bed, rows, first_setup_s) = Bed::setup(&mut load)?;
    println!("# tpch_olap: SF {SCALE_FACTOR}, {rows} rows loaded");

    let t0 = Instant::now();
    let verdict = crate::verify::engines_agree(&bed.ro().query, &queries);
    verdict.print("tpch row vs column");
    println!("# verify took {:.2}s", t0.elapsed().as_secs_f64());

    let before = Counters::read(&bed);
    let stop = AtomicBool::new(false);
    let probe_tracer = tr.fork();
    let start = Instant::now();
    let (olap, mut probe, steal) = std::thread::scope(|s| {
        let monitor = s.spawn(|| quiet::monitor(&stop));
        let writer = s.spawn(|| probe_writer(&bed.cluster, &stop, probe_tracer));
        let olap = olap::run(
            bed.addr,
            &queries,
            Some(&verdict.column_rows),
            args.seconds,
            tr,
        );
        stop.store(true, Ordering::Relaxed);
        let probe = writer.join().expect("probe thread panicked");
        (
            olap,
            probe,
            monitor.join().expect("monitor thread panicked"),
        )
    });
    let seconds = QuietSeconds::new(&steal, start, Instant::now());
    let olap = olap?;
    let after = Counters::read(&bed);
    tr.absorb(&mut probe.tracer);

    let mut out = Outcome {
        correct: verdict.ok() && olap.wrong == 0 && !lag_grows(&probe.samples),
        attempted: olap.attempted + probe.attempted,
        failed: olap.failed + probe.failed,
        ..Outcome::default()
    };
    println!(
        "# tpch_olap: {} queries in {:.2}s, {} wrong row counts, {} marker commits",
        olap.done,
        olap.elapsed.as_secs_f64(),
        olap.wrong,
        probe.samples.len()
    );
    // The data is static, so every pass does the same work.
    let passes = olap.quiet_passes(&steal);
    let qps = median(&passes.iter().map(|p| p.qps()).collect::<Vec<_>>());
    let writes = seconds.filter(&commit_samples(&probe.samples));
    let vd = seconds.filter(&vd_samples(&probe.samples));
    end_to_end(&mut out, &olap, &passes, qps, &writes, &vd);
    out.e2e
        .insert("fg_p50_ms", geomean_ms(&olap.by_query(&passes)));
    steal_metrics(&steal, start, &seconds, &mut out.layers);
    if args.trace {
        let l = &mut out.layers;
        before.layer_metrics(&after, probe.samples.len() as u64, l);
        vd_layer_metrics(&probe.samples, &probe.late_us, tr, l);
        exec_layer_metrics(&olap, &queries, l);
        floor_probes(&bed, tr, l)?;
        plan_probes(&bed, &queries, tr, l)?;
    }
    let (setup_s, heap) = bed.finish(first_setup_s, &mut load)?;
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("heap_mib", heap);
    Ok(out)
}

/// Parse and column-plan time of the 22 queries, summed over the list
/// and taken as the median over repetitions.
fn plan_probes(
    bed: &Bed,
    queries: &[(&str, String)],
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<()> {
    const REPS: usize = 20;
    let ro = bed.ro();
    let (mut parse_us, mut plan_us) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut parse, mut plan) = (0.0, 0.0);
        for (_, sql) in queries {
            let req = request_id();
            let t0 = Instant::now();
            let stmt = tr.span("sql.parse", req, |_| imci_sql::parse(sql))?;
            parse += t0.elapsed().as_secs_f64() * 1e6;
            if let Statement::Select(s) = stmt {
                let t1 = Instant::now();
                // Queries the column engine cannot plan fall back to the
                // row engine at run time; they add their failed attempt.
                let _ = tr.span("sql.column_plan", req, |_| ro.query.column_plan(&s));
                plan += t1.elapsed().as_secs_f64() * 1e6;
            }
        }
        parse_us.push(parse);
        plan_us.push(plan);
    }
    l.set("sql.tpch_parse_us", median(&parse_us));
    l.set("sql.tpch_plan_us", median(&plan_us));
    Ok(())
}
