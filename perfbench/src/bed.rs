//! The test bed every workload shares: set-up, the freshness probe, the
//! open-loop pacer, layer counters and the per-layer probes of traced
//! runs.

use crate::stats::{median, percentile};
use crate::trace::{request_id, Tracer};
use imci_cluster::{Cluster, ClusterConfig, Consistency, RoNode};
use imci_common::{Error, Result};
use imci_server::{Client, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times each run sets the bed up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Cadence of the freshness probe.
pub const VD_EVERY: Duration = Duration::from_millis(20);

/// A booted cluster (1 RW + 1 RO, default configuration) behind a
/// server.
pub struct Bed {
    pub cluster: Arc<Cluster>,
    server: Option<Server>,
    pub addr: SocketAddr,
}

impl Bed {
    /// Boot, load with `load`, wait for the RO to catch up, start the
    /// server.
    fn boot<T>(load: &mut impl FnMut(&Cluster) -> Result<T>) -> Result<(Bed, T)> {
        let cluster = Cluster::start(ClusterConfig::default());
        let loaded = load(&cluster)?;
        if !cluster.wait_sync(Duration::from_secs(120)) {
            return Err(Error::Execution("RO did not catch up after load".into()));
        }
        let server = Server::start(cluster.clone(), ServerConfig::default())?;
        let addr = server.local_addr();
        Ok((
            Bed {
                cluster,
                server: Some(server),
                addr,
            },
            loaded,
        ))
    }

    /// Set up the bed the run measures, timed. More set-ups are timed
    /// by [`Bed::finish`] once this bed is gone, so that they leave the
    /// measured bed's memory alone.
    pub fn setup<T>(load: &mut impl FnMut(&Cluster) -> Result<T>) -> Result<(Bed, T, f64)> {
        let t0 = Instant::now();
        let (bed, loaded) = Bed::boot(load)?;
        Ok((bed, loaded, t0.elapsed().as_secs_f64()))
    }

    /// Read the heap in use, tear the bed down, then set up and tear down
    /// [`SETUPS`]` - 1` more times. Returns the median set-up time over
    /// all set-ups (`first_s` is the measured bed's) and the heap in MiB.
    pub fn finish<T>(
        self,
        first_s: f64,
        load: &mut impl FnMut(&Cluster) -> Result<T>,
    ) -> Result<(f64, f64)> {
        println!(
            "# peak rss (VmHWM) {:.1} MiB, resident {:.1} MiB",
            crate::stats::status_mib("VmHWM"),
            crate::stats::status_mib("VmRSS")
        );
        let heap = crate::stats::heap_in_use_mib();
        self.teardown();
        let mut times = vec![first_s];
        for _ in 1..SETUPS {
            let t0 = Instant::now();
            let (bed, _) = Bed::boot(load)?;
            times.push(t0.elapsed().as_secs_f64());
            bed.teardown();
        }
        println!("# setup_s samples: {times:?}");
        Ok((median(&times), heap))
    }

    pub fn ro(&self) -> Arc<RoNode> {
        self.cluster.ros.read()[0].clone()
    }

    pub fn server_stats(&self) -> (u64, u64) {
        let s = self
            .server
            .as_ref()
            .expect("server runs until teardown")
            .stats();
        (
            s.errors.load(Ordering::Relaxed),
            s.busy_rejected_stmts.load(Ordering::Relaxed),
        )
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.cluster.shutdown();
    }
}

/// One freshness sample: the marker transaction's commit time, its
/// visibility delay, and the apply lag seen just before it.
pub struct VdSample {
    /// When the marker became visible.
    pub at: Instant,
    pub commit_us: f64,
    pub vd_us: f64,
    pub lag_lsn: f64,
}

/// Commit an empty marker transaction on the RW and time until the RO
/// has applied it. The same steps as `Cluster::measure_visibility_delay`,
/// spelled out so the commit (update shipping) and the apply wait
/// (update application) are timed apart.
pub fn vd_probe(cluster: &Cluster, tr: &mut Tracer) -> Result<VdSample> {
    let req = request_id();
    let ro = tr.span("cluster.route", req, |_| cluster.route_ro())?;
    let rw = cluster.rw()?;
    let lag_lsn = cluster.written_lsn().saturating_sub(ro.applied_lsn()) as f64;
    let txn = rw.begin();
    let t0 = Instant::now();
    tr.span("rowstore.commit", req, |_| rw.commit(txn))?;
    let commit = t0.elapsed();
    let target = cluster.written_lsn();
    if !tr.span("repl.wait_applied", req, |_| {
        ro.pipeline.wait_applied(target, Duration::from_secs(10))
    }) {
        return Err(Error::Execution("visibility wait timed out".into()));
    }
    Ok(VdSample {
        at: Instant::now(),
        commit_us: commit.as_secs_f64() * 1e6,
        vd_us: t0.elapsed().as_secs_f64() * 1e6,
        lag_lsn,
    })
}

/// Marker commit times, stamped with when each was taken.
pub fn commit_samples(samples: &[VdSample]) -> Vec<(Instant, f64)> {
    samples.iter().map(|s| (s.at, s.commit_us)).collect()
}

/// Visibility delays, stamped with when each was taken.
pub fn vd_samples(samples: &[VdSample]) -> Vec<(Instant, f64)> {
    samples.iter().map(|s| (s.at, s.vd_us)).collect()
}

/// The freshness probe thread of the closed-loop workloads: a marker
/// commit every [`VD_EVERY`] until `stop`.
pub struct ProbeOut {
    pub samples: Vec<VdSample>,
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

pub fn probe_writer(cluster: &Cluster, stop: &AtomicBool, mut tracer: Tracer) -> ProbeOut {
    let mut out = ProbeOut {
        samples: Vec::new(),
        late_us: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(false, Instant::now()),
    };
    let mut pacer = Pacer::new(VD_EVERY);
    while !stop.load(Ordering::Relaxed) {
        let slot = pacer.next();
        out.late_us.push(slot.late_us);
        out.attempted += 1;
        match vd_probe(cluster, &mut tracer) {
            Ok(s) => out.samples.push(s),
            Err(_) => out.failed += 1,
        }
    }
    out.tracer = tracer;
    out
}

/// An open-loop schedule: slot `n` is due at `start + n * interval`,
/// whatever happened before it.
pub struct Pacer {
    start: Instant,
    interval: Duration,
    n: u32,
}

/// One slot of the schedule. `origin` is when the request counts as
/// sent: its due time if the generator was still busy then (a stall of
/// the system under test delays later requests, and that wait counts),
/// or the moment the generator woke if it was asleep, because the
/// timer's own oversleep is the generator's error, not the system's.
pub struct Slot {
    pub origin: Instant,
    /// How late the generator started the request, in µs.
    pub late_us: f64,
}

impl Pacer {
    pub fn new(interval: Duration) -> Pacer {
        Pacer {
            start: Instant::now(),
            interval,
            n: 0,
        }
    }

    pub fn next(&mut self) -> Slot {
        let due = self.start + self.interval * self.n;
        self.n += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let started = Instant::now();
        Slot {
            origin: if now < due { started } else { due },
            late_us: started.duration_since(due).as_secs_f64() * 1e6,
        }
    }
}

/// Shipping and application counters, read before and after a window.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    appends: f64,
    bytes_appended: f64,
    fsyncs: f64,
    log_reads: f64,
    log_bytes_read: f64,
    page_reads: f64,
    entries: f64,
    dmls: f64,
    txns: f64,
    batches: f64,
    precommits: f64,
    net_errors: f64,
    busy_stmts: f64,
}

/// `IoStats` has no getter for bytes read from the log; its `Debug`
/// output carries the counter.
fn log_bytes_read(stats: &polarfs_sim::IoStats) -> f64 {
    let dbg = format!("{stats:?}");
    dbg.split("bytes_log_read: ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

impl Counters {
    pub fn read(bed: &Bed) -> Counters {
        let io = bed.cluster.fs.stats();
        let ro = bed.ro();
        let m = ro.pipeline.metrics();
        let (net_errors, busy_stmts) = bed.server_stats();
        Counters {
            appends: io.appends() as f64,
            bytes_appended: io.bytes_appended() as f64,
            fsyncs: io.fsyncs() as f64,
            log_reads: io.log_reads() as f64,
            log_bytes_read: log_bytes_read(io),
            page_reads: io.page_reads() as f64,
            entries: m.entries_read.load(Ordering::Relaxed) as f64,
            dmls: m.dmls_extracted.load(Ordering::Relaxed) as f64,
            txns: m.txns_committed.load(Ordering::Relaxed) as f64,
            batches: m.batches.load(Ordering::Relaxed) as f64,
            precommits: m.precommits.load(Ordering::Relaxed) as f64,
            net_errors: net_errors as f64,
            busy_stmts: busy_stmts as f64,
        }
    }

    /// Per-layer metrics of the window between `self` and `after`;
    /// `commits` is the number of RW commits the benchmark made in it.
    pub fn layer_metrics(&self, after: &Counters, commits: u64, out: &mut crate::Layers) {
        let d = |f: fn(&Counters) -> f64| f(after) - f(self);
        let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
        let c = commits as f64;
        out.set(
            "polarfs.append_bytes_per_txn",
            per(d(|c| c.bytes_appended), c),
        );
        out.set("polarfs.appends_per_txn", per(d(|c| c.appends), c));
        out.set("polarfs.fsyncs_per_txn", per(d(|c| c.fsyncs), c));
        out.set("polarfs.log_reads_per_txn", per(d(|c| c.log_reads), c));
        out.set(
            "polarfs.log_bytes_read_per_txn",
            per(d(|c| c.log_bytes_read), c),
        );
        out.set("polarfs.page_reads", d(|c| c.page_reads));
        let txns = d(|c| c.txns);
        out.set("repl.txns_per_batch", per(txns, d(|c| c.batches)));
        out.set("repl.entries_per_txn", per(d(|c| c.entries), txns));
        out.set("repl.dmls_per_txn", per(d(|c| c.dmls), txns));
        out.set("repl.precommits", d(|c| c.precommits));
        out.set("net.errors", d(|c| c.net_errors));
        out.set("net.busy_rejected_stmts", d(|c| c.busy_stmts));
    }
}

/// Whether the apply lag grew through the window: the last quarter's
/// median lag is both far above the first quarter's and large in
/// absolute terms. A visibility delay measured then is a backlog.
pub fn lag_grows(samples: &[VdSample]) -> bool {
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_lsn).collect();
    let q = lags.len() / 4;
    if q < 4 {
        return false;
    }
    let first = median(&lags[..q]);
    let last = median(&lags[lags.len() - q..]);
    last > 4.0 * first.max(1.0) && last > 1_000.0
}

/// Freshness-probe figures common to every workload.
pub fn vd_layer_metrics(
    samples: &[VdSample],
    late_us: &[f64],
    tr: &Tracer,
    out: &mut crate::Layers,
) {
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_lsn).collect();
    out.set("repl.lag_lsn_p50", median(&lags));
    out.set("repl.lag_lsn_max", crate::stats::max(&lags));
    out.set(
        "repl.wait_applied_us",
        median(&tr.micros("repl.wait_applied")),
    );
    out.set("rowstore.commit_us", median(&tr.micros("rowstore.commit")));
    out.set("gen.late_p50_us", median(late_us));
    out.set("gen.late_max_ms", crate::stats::max(late_us) / 1e3);
}

/// Probes of the wire and routing floors: a plain std TCP echo (the
/// kernel floor), the server's zero-cost `STATUS` roundtrip, and the
/// proxy's RO routing decision.
pub fn floor_probes(bed: &Bed, tr: &mut Tracer, out: &mut crate::Layers) -> Result<()> {
    const N: usize = 2_000;
    let io = |e: std::io::Error| Error::Execution(format!("loopback probe: {e}"));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let echo_addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut line = String::new();
        while reader.read_line(&mut line)? > 0 {
            writer.write_all(line.as_bytes())?;
            line.clear();
        }
        Ok(())
    });
    {
        let stream = TcpStream::connect(echo_addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut writer = stream;
        let mut line = String::new();
        for _ in 0..N {
            tr.span("net.loopback", request_id(), |_| {
                writer.write_all(b"STATUS\n")?;
                line.clear();
                reader.read_line(&mut line)
            })
            .map_err(io)?;
        }
    }
    echo.join()
        .map_err(|_| Error::Execution("echo thread panicked".into()))?
        .map_err(io)?;

    let mut client = Client::connect(bed.addr)?;
    for _ in 0..N {
        tr.span("net.status", request_id(), |_| client.status())?;
    }
    for _ in 0..N {
        tr.span("cluster.route", request_id(), |_| {
            bed.cluster.route_ro_with(Consistency::Eventual)
        })?;
    }
    out.set("net.loopback_rt_us", median(&tr.micros("net.loopback")));
    out.set("net.status_rt_us", median(&tr.micros("net.status")));
    out.set("cluster.route_us", median(&tr.micros("cluster.route")));
    Ok(())
}

/// p50 and p99 in µs of one span name.
pub fn p50_p99(tr: &Tracer, name: &str) -> (f64, f64) {
    let xs = tr.micros(name);
    (median(&xs), percentile(&xs, 99.0))
}
