//! `htap_chbench`: CH-benCH with 4 warehouses and 2,000 NewOrders
//! preloaded. One generator thread runs NewOrder and Payment 1:1 on the
//! RW row engine, open loop at a fixed 2,000 txn/s, and samples the
//! visibility delay every 20 ms; one v2 connection runs the 5 CH queries
//! in a closed loop. REDO apply and column scans compete for the same
//! cores and the same indexes here.

use crate::bed::{
    lag_grows, vd_layer_metrics, vd_probe, vd_samples, Bed, Counters, Pacer, VdSample, VD_EVERY,
};
use crate::olap::{self, end_to_end, exec_layer_metrics, Pass};
use crate::quiet::{self, steal_metrics, QuietSeconds};
use crate::stats::{geomean, median};
use crate::trace::{request_id, Tracer};
use crate::{Args, Layers, Outcome};
use imci_cluster::Cluster;
use imci_common::{Error, Result};
use imci_workloads::chbench::ChBench;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WAREHOUSES: i64 = 4;
const PRELOADED_ORDERS: usize = 2_000;
const TXN_PER_S: u32 = 2_000;
const TABLES: [&str; 7] = [
    "warehouse",
    "district",
    "chcustomer",
    "chitem",
    "chstock",
    "chorder",
    "order_line",
];

struct GenOut {
    attempted: u64,
    failed: u64,
    /// Latency in µs of each transaction from its due time, less the
    /// pacer's own oversleep.
    new_order_us: Vec<(Instant, f64)>,
    payment_us: Vec<(Instant, f64)>,
    late_us: Vec<f64>,
    vd: Vec<VdSample>,
    tracer: Tracer,
}

/// Run `slots` transactions on the open-loop schedule, or fewer if
/// `stop` is raised first. A fixed count, not "until the analytic client
/// is done", so every run ends with the same amount of data.
fn generator(
    cluster: &Cluster,
    ch: &ChBench,
    seed: u64,
    slots: u64,
    stop: &AtomicBool,
    mut tr: Tracer,
) -> GenOut {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = GenOut {
        attempted: 0,
        failed: 0,
        new_order_us: Vec::new(),
        payment_us: Vec::new(),
        late_us: Vec::new(),
        vd: Vec::new(),
        tracer: Tracer::new(false, Instant::now()),
    };
    let vd_every = (VD_EVERY.as_secs_f64() * f64::from(TXN_PER_S)) as u64;
    let mut pacer = Pacer::new(Duration::from_secs(1) / TXN_PER_S);
    let mut n = 0u64;
    while n < slots && !stop.load(Ordering::Relaxed) {
        let slot = pacer.next();
        out.late_us.push(slot.late_us);
        out.attempted += 1;
        let req = request_id();
        let (r, samples) = if n.is_multiple_of(2) {
            let r = tr.span("rowstore.new_order", req, |_| {
                ch.new_order(cluster, &mut rng).map(|_| ())
            });
            (r, &mut out.new_order_us)
        } else {
            let r = tr.span("rowstore.payment", req, |_| ch.payment(cluster, &mut rng));
            (r, &mut out.payment_us)
        };
        match r {
            Ok(()) => {
                let now = Instant::now();
                samples.push((now, now.duration_since(slot.origin).as_secs_f64() * 1e6));
            }
            Err(_) => out.failed += 1,
        }
        if n.is_multiple_of(vd_every) {
            out.attempted += 1;
            match vd_probe(cluster, &mut tr) {
                Ok(s) => out.vd.push(s),
                Err(_) => out.failed += 1,
            }
        }
        n += 1;
    }
    out.tracer = tr;
    out
}

fn load(cluster: &Cluster, seed: u64) -> Result<ChBench> {
    let ch = ChBench::setup(cluster, WAREHOUSES)?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..PRELOADED_ORDERS {
        ch.new_order(cluster, &mut rng)?;
    }
    Ok(ch)
}

/// Live share and row-group count of three column indexes that updates
/// rewrite out of place.
fn core_metrics(bed: &Bed, l: &mut Layers) -> Result<()> {
    let ro = bed.ro();
    for table in ["order_line", "chstock", "chcustomer"] {
        let id = ro.engine.table(table)?.schema.table_id;
        let index = ro.store.index(id)?;
        let inserted = index.rows_inserted().max(1) as f64;
        l.set(
            format!("core.live_ratio.{table}"),
            index.approx_live_rows() as f64 / inserted,
        );
        l.set(format!("core.groups.{table}"), index.groups().len() as f64);
    }
    Ok(())
}

/// With the generator stopped and the RO caught up: the RO's row and
/// column engines must agree on every CH query, and RW and RO must hold
/// the same number of rows in every table.
fn verify(cluster: &Cluster, queries: &[(&str, String)]) -> Result<bool> {
    if !cluster.wait_sync(Duration::from_secs(60)) {
        return Err(Error::Execution(
            "RO did not catch up after the window".into(),
        ));
    }
    let ro = cluster.ros.read()[0].clone();
    let verdict = crate::verify::engines_agree(&ro.query, queries);
    verdict.print("ch row vs column");
    let rw = cluster.rw()?;
    let mut counts_ok = true;
    for t in TABLES {
        let (a, b) = (rw.row_count(t)?, ro.engine.row_count(t)?);
        if a != b {
            println!("# verify ch: {t} has {a} rows on RW, {b} on RO");
            counts_ok = false;
        }
    }
    println!(
        "# verify ch: RW and RO row counts {}",
        if counts_ok { "agree" } else { "DIFFER" }
    );
    Ok(verdict.ok() && counts_ok)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome> {
    let queries = imci_workloads::chbench::analytical_queries();
    let mut load = |c: &Cluster| load(c, args.seed);
    let (bed, ch, first_setup_s) = Bed::setup(&mut load)?;

    let before = Counters::read(&bed);
    let stop = AtomicBool::new(false);
    let gen_tracer = tr.fork();
    let gen_seed = args.seed.wrapping_add(1);
    let start = Instant::now();
    let slots = (args.seconds * f64::from(TXN_PER_S)) as u64;
    let (olap, mut gen, steal) = std::thread::scope(|s| {
        let monitor = s.spawn(|| quiet::monitor(&stop));
        let gen = s.spawn(|| generator(&bed.cluster, &ch, gen_seed, slots, &stop, gen_tracer));
        let olap = olap::run(bed.addr, &queries, None, args.seconds, tr);
        stop.store(true, Ordering::Relaxed);
        let gen = gen.join().expect("generator thread panicked");
        (olap, gen, monitor.join().expect("monitor thread panicked"))
    });
    let seconds = QuietSeconds::new(&steal, start, Instant::now());
    let olap = olap?;
    let after = Counters::read(&bed);
    tr.absorb(&mut gen.tracer);
    let backlog = lag_grows(&gen.vd);
    if backlog {
        println!(
            "# htap_chbench: BACKLOG: apply lag grew through the window; vd_p50_us measures it"
        );
    }
    println!(
        "# htap_chbench: {} CH queries in {:.2}s, {} txns, {} VD samples",
        olap.done,
        olap.elapsed.as_secs_f64(),
        gen.new_order_us.len() + gen.payment_us.len(),
        gen.vd.len()
    );

    let mut out = Outcome {
        attempted: olap.attempted + gen.attempted,
        failed: olap.failed + gen.failed,
        ..Outcome::default()
    };
    // The tables grow through the window, so passes are not alike: the
    // quieter passes would be the shorter, earlier ones, and the median
    // pass would carry one pass's noise. Pool every pass instead.
    let passes: Vec<&Pass> = olap.passes.iter().collect();
    let done: usize = passes.iter().map(|p| p.lat.len()).sum();
    let qps = done as f64 / passes.iter().map(|p| p.secs()).sum::<f64>();
    let new_order_us = seconds.filter(&gen.new_order_us);
    let payment_us = seconds.filter(&gen.payment_us);
    let txn_us = [new_order_us.as_slice(), payment_us.as_slice()].concat();
    let vd_us = seconds.filter(&vd_samples(&gen.vd));
    end_to_end(&mut out, &olap, &passes, qps, &txn_us, &vd_us);
    // The transactions are the latency-sensitive side of an HTAP system,
    // and the host's memory-bandwidth drift moves the scan-bound CH query
    // latencies by more than any bound can absorb (see README.md).
    let fg_ms = geomean(&[median(&new_order_us), median(&payment_us)]) / 1e3;
    out.e2e.insert("fg_p50_ms", fg_ms);
    steal_metrics(&steal, start, &seconds, &mut out.layers);
    if args.trace {
        let l = &mut out.layers;
        let txns = gen.new_order_us.len() + gen.payment_us.len();
        before.layer_metrics(&after, (txns + gen.vd.len()) as u64, l);
        vd_layer_metrics(&gen.vd, &gen.late_us, tr, l);
        exec_layer_metrics(&olap, &queries, l);
        l.set(
            "rowstore.new_order_us",
            median(&tr.micros("rowstore.new_order")),
        );
        l.set(
            "rowstore.payment_us",
            median(&tr.micros("rowstore.payment")),
        );
        core_metrics(&bed, l)?;
        crate::bed::floor_probes(&bed, tr, l)?;
    }
    out.correct = verify(&bed.cluster, &queries)? && !backlog;
    let (setup_s, heap) = bed.finish(first_setup_s, &mut load)?;
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("heap_mib", heap);
    Ok(out)
}
