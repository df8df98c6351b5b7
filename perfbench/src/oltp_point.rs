//! `oltp_point`: a sysbench table of 100k rows (≈188 B each) and one v2
//! connection running a closed loop of 80% `SELECT c … WHERE id = ?` and
//! 20% `UPDATE … SET k = ? WHERE id = ?` on uniform keys at Eventual
//! consistency, while a second thread commits a marker transaction every
//! 20 ms to measure freshness under light writes.

use crate::bed::{
    floor_probes, lag_grows, p50_p99, probe_writer, vd_layer_metrics, vd_samples, Bed, Counters,
};
use crate::quiet::{self, steal_metrics, QuietSeconds};
use crate::stats::{geomean, median};
use crate::trace::{request_id, Tracer};
use crate::{Args, Layers, Outcome};
use imci_cluster::Cluster;
use imci_common::{Error, Result, Value};
use imci_server::Client;
use imci_sql::{EngineChoice, QueryOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const ROWS: i64 = 100_000;
const READ_SHARE: f64 = 0.8;
const TRACE_BLOCK: u64 = 256;

fn read_sql(id: i64) -> String {
    format!("SELECT c FROM sbtest1 WHERE id = {id}")
}

fn update_sql(id: i64, k: i64) -> String {
    format!("UPDATE sbtest1 SET k = {k} WHERE id = {id}")
}

struct ClientOut {
    attempted: u64,
    failed: u64,
    wrong: u64,
    done: u64,
    elapsed_s: f64,
    /// Latency in µs of reads and updates, stamped with their completion
    /// time, untraced and traced parts.
    read_us: Vec<(Instant, f64)>,
    write_us: Vec<(Instant, f64)>,
    read_traced_us: Vec<f64>,
    write_traced_us: Vec<f64>,
}

/// The closed loop. `k` is the benchmark's model of column `k`, kept up
/// to date with every acknowledged update. With tracing on, blocks of
/// [`TRACE_BLOCK`] statements alternate between untraced (the base of
/// `trace.overhead_pct`) and traced.
fn client_loop(
    bed: &Bed,
    rng: &mut StdRng,
    k: &mut [i64],
    seconds: f64,
    tr: &mut Tracer,
) -> Result<ClientOut> {
    let traced = tr.enabled();
    let mut client = Client::connect(bed.addr)?;
    let mut out = ClientOut {
        attempted: 0,
        failed: 0,
        wrong: 0,
        done: 0,
        elapsed_s: 0.0,
        read_us: Vec::new(),
        write_us: Vec::new(),
        read_traced_us: Vec::new(),
        write_traced_us: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            out.elapsed_s = elapsed;
            break;
        }
        let tracing = traced && (out.attempted / TRACE_BLOCK) % 2 == 1;
        tr.set_enabled(tracing);
        let id = rng.gen_range(0..ROWS);
        let read = rng.gen::<f64>() < READ_SHARE;
        let new_k = rng.gen_range(0..1_000_000i64);
        let sql = if read {
            read_sql(id)
        } else {
            update_sql(id, new_k)
        };
        out.attempted += 1;
        let name = if read {
            "net.execute_read"
        } else {
            "net.execute_update"
        };
        let t0 = Instant::now();
        let r = tr.span(name, request_id(), |_| client.execute(&sql));
        let end = Instant::now();
        let us = end.duration_since(t0).as_secs_f64() * 1e6;
        let Ok(res) = r else {
            out.failed += 1;
            continue;
        };
        out.done += 1;
        match (read, tracing) {
            (true, false) => out.read_us.push((end, us)),
            (true, true) => out.read_traced_us.push(us),
            (false, false) => out.write_us.push((end, us)),
            (false, true) => out.write_traced_us.push(us),
        }
        if read {
            if res.rows.len() != 1 {
                out.wrong += 1;
            }
        } else if res.affected == 1 {
            k[id as usize] = new_k;
        } else {
            out.wrong += 1;
        }
    }
    tr.set_enabled(traced);
    Ok(out)
}

/// After the window: quiesce, then the RW, the RO row replica and the
/// RO column index must agree with the model on `COUNT(*)` and `SUM(k)`.
fn verify(cluster: &Cluster, k: &[i64]) -> Result<bool> {
    if !cluster.wait_sync(std::time::Duration::from_secs(60)) {
        return Err(Error::Execution(
            "RO did not catch up after the window".into(),
        ));
    }
    let sql = "SELECT COUNT(*), SUM(k) FROM sbtest1";
    let want = [k.len() as f64, k.iter().sum::<i64>() as f64];
    let ro = cluster.ros.read()[0].clone();
    let answers = [
        ("rw", cluster.rw()?.row_count("sbtest1").map(|n| n as i64)),
        ("ro", ro.engine.row_count("sbtest1").map(|n| n as i64)),
    ];
    let mut ok = true;
    for (who, n) in answers {
        if n? != k.len() as i64 {
            println!("# verify oltp: {who} row count differs from the model");
            ok = false;
        }
    }
    for engine in [EngineChoice::Row, EngineChoice::Column] {
        let got = ro.query.run(sql, &QueryOptions::forced(Some(engine)))?;
        let have: Vec<Option<f64>> = got
            .rows
            .first()
            .map(|r| r.iter().map(Value::as_f64).collect())
            .unwrap_or_default();
        if have != [Some(want[0]), Some(want[1])] {
            println!("# verify oltp: RO {engine:?} engine has {have:?}, model {want:?}");
            ok = false;
        }
    }
    println!(
        "# verify oltp: COUNT(*) and SUM(k) on RW, RO row and RO column: {}",
        if ok { "ok" } else { "MISMATCH" }
    );
    Ok(ok)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome> {
    let mut load = |c: &Cluster| imci_workloads::sysbench::Sysbench::setup(c, 1, ROWS);
    let (bed, _, first_setup_s) = Bed::setup(&mut load)?;
    let mut k: Vec<i64> = (0..ROWS).map(|i| i % 1000).collect();
    let mut rng = StdRng::seed_from_u64(args.seed);

    let before = Counters::read(&bed);
    let stop = AtomicBool::new(false);
    let probe_tracer = tr.fork();
    let start = Instant::now();
    let (client, mut probe, steal) = std::thread::scope(|s| {
        let monitor = s.spawn(|| quiet::monitor(&stop));
        let writer = s.spawn(|| probe_writer(&bed.cluster, &stop, probe_tracer));
        let client = client_loop(&bed, &mut rng, &mut k, args.seconds, tr);
        stop.store(true, Ordering::Relaxed);
        let probe = writer.join().expect("probe thread panicked");
        (
            client,
            probe,
            monitor.join().expect("monitor thread panicked"),
        )
    });
    let seconds = QuietSeconds::new(&steal, start, Instant::now());
    let client = client?;
    let after = Counters::read(&bed);
    tr.absorb(&mut probe.tracer);
    println!(
        "# oltp_point: {} statements in {:.2}s, {} wrong results, {} marker commits",
        client.done,
        client.elapsed_s,
        client.wrong,
        probe.samples.len()
    );

    let mut out = Outcome {
        attempted: client.attempted + probe.attempted,
        failed: client.failed + probe.failed,
        ..Outcome::default()
    };
    let mut per_second = vec![0.0; seconds.kept()];
    for (at, _) in client.read_us.iter().chain(&client.write_us) {
        if let Some(i) = seconds.kept_index(*at) {
            per_second[i] += 1.0;
        }
    }
    let read_p50 = median(&seconds.filter(&client.read_us));
    let write_p50 = median(&seconds.filter(&client.write_us));
    out.e2e.insert("ops_s", median(&per_second));
    out.e2e
        .insert("fg_p50_ms", geomean(&[read_p50, write_p50]) / 1e3);
    out.e2e.insert("write_p50_us", write_p50);
    out.e2e.insert(
        "vd_p50_us",
        median(&seconds.filter(&vd_samples(&probe.samples))),
    );
    steal_metrics(&steal, start, &seconds, &mut out.layers);
    if args.trace {
        let l = &mut out.layers;
        let updates = client.write_us.len() + client.write_traced_us.len();
        before.layer_metrics(&after, (updates + probe.samples.len()) as u64, l);
        vd_layer_metrics(&probe.samples, &probe.late_us, tr, l);
        let all = |v: &[(Instant, f64)]| median(&v.iter().map(|s| s.1).collect::<Vec<_>>());
        let untraced = geomean(&[all(&client.read_us), all(&client.write_us)]);
        let traced = geomean(&[
            median(&client.read_traced_us),
            median(&client.write_traced_us),
        ]);
        l.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        floor_probes(&bed, tr, l)?;
        statement_probes(&bed, &mut rng, &mut k, tr, l)?;
    }
    let verified = verify(&bed.cluster, &k)?;
    out.correct = verified && client.wrong == 0 && !lag_grows(&probe.samples);
    let (setup_s, heap) = bed.finish(first_setup_s, &mut load)?;
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("heap_mib", heap);
    Ok(out)
}

/// The same statement shapes without the wire: in-process through the
/// proxy, and parse and run on the RO alone. The difference between the
/// client's and the proxy's p50 is what the network tier adds.
fn statement_probes(
    bed: &Bed,
    rng: &mut StdRng,
    k: &mut [i64],
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<()> {
    const N: usize = 5_000;
    let ro = bed.ro();
    for _ in 0..N {
        let id = rng.gen_range(0..ROWS);
        let sql = read_sql(id);
        let req = request_id();
        tr.span("cluster.execute_read", req, |_| bed.cluster.execute(&sql))?;
        tr.span("sql.parse", req, |_| imci_sql::parse(&sql))?;
        tr.span("sql.run", req, |_| {
            ro.query.run(&sql, &QueryOptions::default())
        })?;
    }
    for _ in 0..N / 4 {
        let id = rng.gen_range(0..ROWS);
        let new_k = rng.gen_range(0..1_000_000i64);
        let r = tr.span("cluster.execute_update", request_id(), |_| {
            bed.cluster.execute(&update_sql(id, new_k))
        })?;
        if r.affected == 1 {
            k[id as usize] = new_k;
        }
    }
    let (client_read, read_p99) = p50_p99(tr, "net.execute_read");
    let (client_write, write_p99) = p50_p99(tr, "net.execute_update");
    let proxy_read = median(&tr.micros("cluster.execute_read"));
    let proxy_write = median(&tr.micros("cluster.execute_update"));
    l.set("net.read_overhead_us", client_read - proxy_read);
    l.set("net.write_overhead_us", client_write - proxy_write);
    l.set("net.read_p99_us", read_p99);
    l.set("net.write_p99_us", write_p99);
    l.set("sql.point_parse_us", median(&tr.micros("sql.parse")));
    l.set("sql.point_run_us", median(&tr.micros("sql.run")));
    l.set("sql.update_run_us", proxy_write);
    Ok(())
}
