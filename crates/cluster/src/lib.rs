//! Cloud-native cluster topology (paper §3, §6.1, §6.4, §7).
//!
//! A [`Cluster`] is a single-process simulation of the deployment in
//! Fig. 2: one RW node, N RO nodes, and a stateless proxy, all over one
//! shared [`PolarFs`] volume. RO nodes hold dual-format storage (row
//! replica + column indexes) kept fresh by the CALS/2P-COFFER pipeline;
//! the proxy does inter-node routing (read/write splitting with
//! session-count load balancing) and consistency-level enforcement
//! (eventual, or strong via written-LSN ≥ applied-LSN, §6.4); scale-out
//! clones a new RO from the latest checkpoint and lets it catch up
//! (§7 / Fig. 14).

use imci_common::{Error, Result};
use imci_core::ColumnStore;
use imci_replication::{Pipeline, RecoveryReport, ReplicationConfig};
use imci_sql::{QueryEngine, QueryOptions, QueryResult};
use imci_wal::{LogWriter, PropagationMode};
use parking_lot::{Condvar, Mutex, RwLock};
use polarfs_sim::{LatencyProfile, PolarFs};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rowstore::RowEngine;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Consistency level applied by the proxy (paper §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Route to any RO node immediately.
    #[default]
    Eventual,
    /// Only serve from an RO whose applied LSN ≥ the RW's written LSN
    /// at query arrival (read-your-writes across the cluster).
    Strong,
}

/// Cluster construction knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of initial RO nodes.
    pub n_ro: usize,
    /// Row-group capacity of column indexes.
    pub group_cap: usize,
    /// RW buffer-pool capacity (pages).
    pub bp_capacity: usize,
    /// Propagation mode (REDO reuse vs Binlog strawman, Fig. 11).
    pub propagation: PropagationMode,
    /// Replication pipeline tuning.
    pub replication: ReplicationConfig,
    /// Shared-storage latency profile.
    pub latency: LatencyProfile,
    /// Proxy consistency level.
    pub consistency: Consistency,
    /// How often the RW stamps the shared-storage liveness lease.
    pub heartbeat_interval: Duration,
    /// Start the cluster supervisor (automatic failure detection +
    /// promotion) with this config; `None` leaves failover manual.
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            n_ro: 1,
            group_cap: 4096,
            bp_capacity: 1 << 20,
            propagation: PropagationMode::ReuseRedo,
            replication: ReplicationConfig::default(),
            latency: LatencyProfile::zero(),
            consistency: Consistency::Eventual,
            heartbeat_interval: Duration::from_millis(20),
            supervisor: None,
        }
    }
}

/// Tuning for the cluster supervisor (automatic failure detection).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Lease expiry: no accepted heartbeat for this long means the
    /// writer is presumed dead and promotion is triggered.
    pub lease_timeout: Duration,
    /// Upper bound of the random extra wait added to every expiry
    /// check. Jitter decorrelates detection across supervisors (and,
    /// with the arming rule, gives a slow-but-alive writer one more
    /// beat's worth of grace before it is deposed).
    pub jitter: Duration,
    /// Seed for the jitter RNG — detection schedules are deterministic
    /// per seed, which the crash-schedule proptests rely on.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            lease_timeout: Duration::from_millis(150),
            jitter: Duration::from_millis(40),
            seed: 0x1ec0_5eed,
        }
    }
}

/// A read-only node: dual-format storage + replication pipeline.
pub struct RoNode {
    /// Node name (e.g. `ro-1`).
    pub name: String,
    /// Row-store replica.
    pub engine: Arc<RowEngine>,
    /// Column indexes.
    pub store: Arc<ColumnStore>,
    /// Per-node query engine (router + both executors).
    pub query: QueryEngine,
    /// The running replication pipeline.
    pub pipeline: Pipeline,
    /// Active proxy sessions (load-balancing signal, §6.1).
    pub sessions: AtomicUsize,
}

impl RoNode {
    /// This node's applied LSN (§6.4).
    pub fn applied_lsn(&self) -> u64 {
        self.pipeline.metrics().applied_lsn()
    }
}

/// The RW node: storage engine + query engine. Behind [`Cluster::rw`]'s
/// lock so crash/recovery/failover can replace it atomically while
/// sessions keep running. Every writer is row-only: column indexes live
/// on RO nodes, where strong reads fence on their applied LSN.
struct RwNode {
    engine: Arc<RowEngine>,
    query: QueryEngine,
    /// Liveness stamper; dropping the node (crash) stops the beats,
    /// which is exactly how a real process death looks to the lease.
    _heartbeat: Option<Heartbeat>,
}

/// A background thread that runs until its handle drops: the drop sets
/// the stop flag, wakes the thread's condvar and joins it.
struct StopHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StopHandle {
    fn spawn(
        name: &str,
        body: impl FnOnce(&(Mutex<bool>, Condvar)) + Send + 'static,
    ) -> StopHandle {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || body(&flag))
            .expect("spawn background thread");
        StopHandle {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for StopHandle {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock() = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Background thread stamping [`PolarFs::heartbeat`] with the writer's
/// epoch every `interval`. Stops when dropped (condvar, no polling
/// sleep) or as soon as a beat is fenced — a deposed writer goes
/// silent instead of spamming rejected beats.
struct Heartbeat {
    _thread: StopHandle,
}

impl Heartbeat {
    fn start(fs: PolarFs, epoch: u64, interval: Duration) -> Heartbeat {
        // The first beat lands before the writer serves anything: the
        // supervisor arms on a beat of the current epoch, so a writer
        // that died before its thread first ran would go undetected.
        let alive = fs.heartbeat(epoch).is_ok();
        let thread = StopHandle::spawn("rw-heartbeat", move |(lock, cv)| {
            let mut stopped = lock.lock();
            // Check the flag before each wait: a drop that lands
            // before this thread first takes the lock has already
            // notified, and must not cost a whole interval.
            while alive && !*stopped {
                let _ = cv.wait_for(&mut stopped, interval);
                if *stopped || fs.heartbeat(epoch).is_err() {
                    return;
                }
            }
        });
        Heartbeat { _thread: thread }
    }
}

/// Timing + bookkeeping of one RO→RW promotion (ablation E's metrics).
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Name of the promoted (former RO) node.
    pub promoted: String,
    /// The new writer epoch fencing the deposed RW.
    pub epoch: u64,
    /// In-flight transactions rolled back with logged compensations.
    pub rolled_back_txns: usize,
    /// Individual undecided DMLs undone.
    pub rolled_back_ops: usize,
    /// Time to drain the promoted node's pipeline to the log tail.
    pub drain_time: Duration,
    /// Time to backfill the consumed RO with a [`Cluster::scale_out`]
    /// (checkpoint load + REDO tail catch-up). Row service resumes
    /// *before* this: it overlaps with live write traffic.
    pub column_rebuild_time: Duration,
    /// Crash-to-backfilled wall time (the paper's seconds-scale claim).
    pub total_time: Duration,
    /// Whether the backfilled RO joined the routing set. When false the
    /// writer still serves, and column plans run on the remaining ROs,
    /// or fall back to the writer's row engine when none is left.
    pub column_caught_up: bool,
}

/// The simulated PolarDB-IMCI cluster.
pub struct Cluster {
    /// Shared storage volume.
    pub fs: PolarFs,
    /// The RW node, absent between a crash and the next
    /// recovery/promotion (statements then fail with the retryable
    /// [`Error::Failover`] category).
    rw: RwLock<Option<RwNode>>,
    /// RO nodes (the proxy's routing targets).
    pub ros: RwLock<Vec<Arc<RoNode>>>,
    /// Configuration.
    pub config: ClusterConfig,
    next_ro_id: AtomicU64,
    next_ckpt: AtomicU64,
    /// Highest written LSN ever observed — the strong-consistency
    /// fence floor while the writer role is vacant or moving, so reads
    /// acknowledged before a crash stay read-your-writes after it.
    written_floor: AtomicU64,
    /// Gate + condvar for [`Cluster::wait_for_writer`]: notified every
    /// time a writer is installed (boot, recovery, promotion).
    writer_gate: Mutex<()>,
    writer_cv: Condvar,
    /// Supervisor thread handle (when running).
    supervisor: Mutex<Option<StopHandle>>,
    /// Promotions triggered by the supervisor (not by a caller).
    auto_failovers: AtomicU64,
    /// Detection latency of the last auto-failover: ms from the last
    /// accepted heartbeat to the promotion trigger.
    detection_ms_last: AtomicU64,
    /// Supervisor state code (see [`Cluster::supervisor_state`]).
    supervisor_state: AtomicU64,
    /// Serializes promotions: the supervisor and a manual caller must
    /// not race two concurrent [`Cluster::failover`]s (each would burn
    /// an epoch and drain a different RO).
    promotion_lock: Mutex<()>,
}

/// Supervisor state codes (stored in an atomic, reported by `STATUS`).
const SUP_OFF: u64 = 0;
const SUP_ARMING: u64 = 1;
const SUP_WATCHING: u64 = 2;
const SUP_PROMOTING: u64 = 3;

/// Per-statement overrides, carried by proxy sessions
/// (`imci_server`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// Consistency level for reads (paper §6.4); `None` uses
    /// `ClusterConfig::consistency`. Resolved by the proxy's routing.
    pub consistency: Option<Consistency>,
    /// Engine pin and executor tuning, handed to [`QueryEngine::run`]
    /// on whichever node the statement routes to.
    pub query: QueryOptions,
}

/// RAII hold on an RO node's active-session counter (the §6.1
/// load-balancing signal). A plain `fetch_add`/`fetch_sub` pair leaks
/// the increment if the query panics in between, permanently skewing
/// routing away from the node; the drop guard decrements on every exit
/// path, panic included.
struct SessionGuard {
    node: Arc<RoNode>,
}

impl SessionGuard {
    fn enter(node: &Arc<RoNode>) -> SessionGuard {
        node.sessions.fetch_add(1, Ordering::Relaxed);
        SessionGuard { node: node.clone() }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.node.sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Timing breakdown of one scale-out operation (Fig. 14).
#[derive(Debug, Clone)]
pub struct ScaleOutReport {
    /// Node name.
    pub name: String,
    /// Whether a checkpoint was available and used.
    pub from_checkpoint: bool,
    /// Time to build in-memory state (checkpoint load or full replay).
    pub load_time: Duration,
    /// Time to catch up to the RW's written LSN at start.
    pub catchup_time: Duration,
}

impl Cluster {
    /// Boot a cluster: RW + `n_ro` RO nodes over a fresh volume.
    pub fn start(config: ClusterConfig) -> Arc<Cluster> {
        let fs = PolarFs::new(config.latency.clone());
        let log = LogWriter::new(fs.clone(), config.propagation);
        let epoch = log.epoch();
        let engine = RowEngine::new_rw(fs.clone(), log, config.bp_capacity);
        let query = QueryEngine::new(engine.clone(), None);
        let heartbeat = Heartbeat::start(fs.clone(), epoch, config.heartbeat_interval);
        let cluster = Arc::new(Cluster {
            fs,
            rw: RwLock::new(Some(RwNode {
                engine,
                query,
                _heartbeat: Some(heartbeat),
            })),
            ros: RwLock::new(Vec::new()),
            config,
            next_ro_id: AtomicU64::new(1),
            next_ckpt: AtomicU64::new(1),
            written_floor: AtomicU64::new(0),
            writer_gate: Mutex::new(()),
            writer_cv: Condvar::new(),
            supervisor: Mutex::new(None),
            auto_failovers: AtomicU64::new(0),
            detection_ms_last: AtomicU64::new(0),
            supervisor_state: AtomicU64::new(SUP_OFF),
            promotion_lock: Mutex::new(()),
        });
        for _ in 0..cluster.config.n_ro {
            cluster.scale_out().expect("initial RO boot");
        }
        if let Some(sc) = cluster.config.supervisor.clone() {
            cluster.start_supervisor(sc);
        }
        cluster
    }

    /// The RW node's storage engine; a retryable [`Error::Failover`]
    /// while the writer role is vacant (crashed, not yet recovered).
    pub fn rw(&self) -> Result<Arc<RowEngine>> {
        self.rw
            .read()
            .as_ref()
            .map(|n| n.engine.clone())
            .ok_or_else(|| Error::Failover("RW node is down; retry after recovery".into()))
    }

    /// The writer role as reported by the proxy's `STATUS` statement:
    /// `"rw"` while a writer is installed, `"vacant"` between a crash
    /// and the next recovery/promotion.
    pub fn writer_role(&self) -> &'static str {
        match self.rw.read().as_ref() {
            Some(_) => "rw",
            None => "vacant",
        }
    }

    /// Crash the RW node: drop every piece of its in-process state —
    /// buffer pool, catalog maps, transaction counters — with no flush
    /// of any kind. Everything durable lives in shared storage, which
    /// is the whole §2.2 point. Returns the old engine handle so tests
    /// can keep a "zombie" alive and prove the epoch fence holds.
    /// Until [`Cluster::recover_rw`] or [`Cluster::failover`] installs
    /// a new writer, write statements fail with the retryable
    /// [`Error::Failover`] category.
    pub fn crash_rw(&self) -> Option<Arc<RowEngine>> {
        let taken = self.rw.write().take()?;
        // Snapshot the durable-commit floor *after* acquiring the
        // writer lock: a commit in flight when the crash begins holds
        // the read lock, finishes (and acks its client) before the
        // take — so it must be inside the strong-consistency fence for
        // the whole vacancy.
        if let Some(log) = taken.engine.log() {
            self.written_floor
                .fetch_max(log.written_lsn().get(), Ordering::SeqCst);
        }
        // The heartbeat thread stops with the node's drop — the lease
        // goes silent exactly like a process death.
        Some(taken.engine)
    }

    /// Restart the RW in place: rebuild a writer from the newest
    /// checkpoint plus REDO replay from its cursor, roll back whatever
    /// never committed, and start serving again under a bumped writer
    /// epoch. See [`imci_replication::recover_writer`].
    pub fn recover_rw(&self) -> Result<RecoveryReport> {
        if self.rw.read().is_some() {
            return Err(Error::Execution(
                "RW node is alive; crash_rw() before recover_rw()".into(),
            ));
        }
        // Rebuild outside the writer lock (sessions fail fast instead
        // of stalling behind a long replay), install atomically after.
        let (engine, report) = imci_replication::recover_writer(
            &self.fs,
            self.config.propagation,
            self.config.group_cap,
        )?;
        let query = QueryEngine::new(engine.clone(), None);
        let heartbeat = engine.log().map(|log| {
            Heartbeat::start(self.fs.clone(), log.epoch(), self.config.heartbeat_interval)
        });
        *self.rw.write() = Some(RwNode {
            engine,
            query,
            _heartbeat: heartbeat,
        });
        self.notify_writer_change();
        Ok(report)
    }

    /// Promote the most-caught-up RO node to RW (§7: "an up-to-date RO
    /// can be promoted in seconds"). Sequence:
    ///
    /// 1. depose any current writer and **bump the storage epoch** —
    ///    from here the old RW is a fenced zombie and the log tail is
    ///    final;
    /// 2. pick the RO with the highest applied LSN and remove it from
    ///    the proxy's routing set;
    /// 3. **drain** its pipeline to the log's end: every committed
    ///    transaction applied, every undecided DML captured with its
    ///    undo image;
    /// 4. flip its row replica into writer mode (resumed LSN/TID/VID
    ///    counters, epoch-stamped log writer announcing itself with an
    ///    `EpochBump` record) and roll back the in-flight transactions
    ///    with logged compensations, so sibling ROs converge through
    ///    the log as if a live abort had happened;
    /// 5. re-point the proxy: the node serves as the RW, remaining ROs
    ///    keep tailing the same log;
    /// 6. release the promotion lock and [`Cluster::scale_out`] a fresh
    ///    RO to replace the one consumed.
    ///
    /// The promoted writer is row-only, like every writer: its drained
    /// column store retires with the RO role. Row/write service resumes
    /// *before* the backfill. Until the new RO joins, reads with no RO
    /// left run on the writer's row engine, which is always fresh (a
    /// column pin falls back to it). The call returns `Ok` once the
    /// writer is installed; [`FailoverReport::column_caught_up`] says
    /// whether the backfill joined.
    pub fn failover(&self) -> Result<FailoverReport> {
        self.promote(None)
    }

    /// [`Cluster::failover`]; `detected` is the lease age when the
    /// supervisor promotes on its own.
    fn promote(&self, detected: Option<Duration>) -> Result<FailoverReport> {
        let promotion = self.promotion_lock.lock();
        let t0 = Instant::now();
        // Depose (no-op if already crashed); the floor snapshot runs
        // under the writer lock for the same last-commit race
        // crash_rw() documents.
        drop(self.crash_rw());
        let epoch = self.fs.bump_epoch();
        let mut ros = self.ros.write();
        let best = ros
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.applied_lsn())
            .map(|(i, _)| i)
            .ok_or_else(|| Error::Failover("no RO node available to promote".into()))?;
        let node = ros.remove(best);
        drop(ros);
        let t_drain = Instant::now();
        let state = node.pipeline.stop_after_drain()?;
        let drain_time = t_drain.elapsed();
        let rolled_back_txns = imci_replication::promote(
            &self.fs,
            self.config.propagation,
            &node.engine,
            &state.position,
            &state.inflight,
        )?;

        let query = QueryEngine::new(node.engine.clone(), None);
        let heartbeat = Heartbeat::start(self.fs.clone(), epoch, self.config.heartbeat_interval);
        // Counted before the new writer is visible: whoever sees it (a
        // replayed statement, `STATUS`) also sees the promotion.
        if let Some(age) = detected {
            self.detection_ms_last
                .store(age.as_millis() as u64, Ordering::SeqCst);
            self.auto_failovers.fetch_add(1, Ordering::SeqCst);
        }
        *self.rw.write() = Some(RwNode {
            engine: node.engine.clone(),
            query,
            _heartbeat: Some(heartbeat),
        });
        self.notify_writer_change();
        // Backfill outside the promotion lock: the checkpoint load and
        // catch-up overlap with live writes, and a concurrent failover
        // is not held up behind them.
        drop(promotion);
        let t_col = Instant::now();
        let column_caught_up = self.scale_out().is_ok();
        let column_rebuild_time = t_col.elapsed();
        Ok(FailoverReport {
            promoted: node.name.clone(),
            epoch,
            rolled_back_txns,
            rolled_back_ops: state.inflight.len(),
            drain_time,
            column_rebuild_time,
            total_time: t0.elapsed(),
            column_caught_up,
        })
    }

    /// Add an RO node (paper §7): load the newest checkpoint if one
    /// exists, otherwise rebuild from the log, then catch up to the
    /// RW's written LSN. A node that has not caught up within 60 s is
    /// not added, and the call fails.
    pub fn scale_out(&self) -> Result<ScaleOutReport> {
        let id = self.next_ro_id.fetch_add(1, Ordering::SeqCst);
        let name = format!("ro-{id}");
        let t0 = Instant::now();
        // Seed from the newest checkpoint, or cold from log offset 0
        // ([`imci_replication::seed`]), and tail the log from there.
        let state = imci_replication::seed(&self.fs, self.config.group_cap)?;
        let from_checkpoint = state.checkpoint.is_some();
        let pipeline = Pipeline::start(
            self.fs.clone(),
            state.engine.clone(),
            state.store.clone(),
            self.config.replication.clone(),
            state.position,
        );
        let load_time = t0.elapsed();

        // Catch up to the RW's current commit point before serving.
        let t1 = Instant::now();
        let target = self.written_lsn();
        if !pipeline.wait_applied(target, Duration::from_secs(60)) {
            pipeline.stop();
            return Err(Error::Execution(format!(
                "scale-out: {name} did not reach LSN {target} within 60 s ({})",
                pipeline.metrics().summary()
            )));
        }
        let catchup_time = t1.elapsed();

        let query = QueryEngine::new(state.engine.clone(), Some(state.store.clone()));
        let node = Arc::new(RoNode {
            name: name.clone(),
            engine: state.engine,
            store: state.store,
            query,
            pipeline,
            sessions: AtomicUsize::new(0),
        });
        self.ros.write().push(node);
        Ok(ScaleOutReport {
            name,
            from_checkpoint,
            load_time,
            catchup_time,
        })
    }

    /// Remove the most recently added RO node (scale-in). The node's
    /// replication pipeline is stopped here, unconditionally: sessions
    /// may still hold `Arc`s to the node (their in-flight queries keep
    /// working against its frozen state), but its threads must not keep
    /// tailing the log after the node left the routing set.
    pub fn scale_in(&self) -> Option<String> {
        let node = self.ros.write().pop()?;
        node.pipeline.stop();
        Some(node.name.clone())
    }

    /// RW's durable commit LSN ("written LSN", §6.4). While the writer
    /// role is vacant this returns the highest value ever observed, so
    /// strong reads keep fencing on everything acknowledged before the
    /// crash.
    pub fn written_lsn(&self) -> u64 {
        let current = self
            .rw
            .read()
            .as_ref()
            .and_then(|n| n.engine.log())
            .map(|l| l.written_lsn().get())
            .unwrap_or(0);
        let floor = self.written_floor.fetch_max(current, Ordering::SeqCst);
        current.max(floor)
    }

    /// Highest applied LSN across the RO nodes — what the server's
    /// `STATUS` statement reports.
    pub fn applied_lsn(&self) -> u64 {
        self.ros
            .read()
            .iter()
            .map(|n| n.applied_lsn())
            .max()
            .unwrap_or(0)
    }

    /// Wake anything parked in [`Cluster::wait_for_writer`]. Callers
    /// must NOT hold the `rw` lock (the waiter acquires it under the
    /// gate; locking the gate with `rw` held would invert that order).
    fn notify_writer_change(&self) {
        let _g = self.writer_gate.lock();
        self.writer_cv.notify_all();
    }

    /// Block until a writer is installed (or the timeout elapses);
    /// returns whether one is up. The server tier parks here before
    /// replaying a statement that hit the failover window.
    pub fn wait_for_writer(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let mut g = self.writer_gate.lock();
            // Checked under the gate: an install between the check and
            // the wait would otherwise be a lost wakeup.
            if self.rw.read().is_some() {
                return true;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            let _ = self.writer_cv.wait_for(&mut g, remaining);
        }
    }

    // ---- cluster supervisor (automatic failure detection) ----

    /// Start the supervisor: a thread watching the shared-storage lease
    /// and triggering [`Cluster::failover`] by itself when the writer
    /// stops stamping it. Detection protocol:
    ///
    /// * **arming** — the supervisor only watches an epoch after seeing
    ///   at least one accepted beat from it, so it never deposes a
    ///   writer that hasn't had a chance to stamp;
    /// * **expiry** — armed, it parks on the lease condvar for the
    ///   remaining lease budget *plus a random jitter*; a beat landing
    ///   in that window re-arms the clock;
    /// * **no flapping** — promotion bumps the volume epoch, a deposed
    ///   epoch's beats are fenced by storage, and the supervisor
    ///   re-arms only on a beat from the *new* epoch — so one slow
    ///   writer triggers at most one promotion, and the promoted
    ///   writer gets the same full arming grace.
    ///
    /// Idempotent: a second call replaces the previous supervisor.
    pub fn start_supervisor(self: &Arc<Cluster>, cfg: SupervisorConfig) {
        let weak = Arc::downgrade(self);
        self.supervisor_state.store(SUP_ARMING, Ordering::SeqCst);
        let handle =
            StopHandle::spawn("cluster-supervisor", move |stop| supervise(weak, cfg, stop));
        *self.supervisor.lock() = Some(handle);
    }

    /// Stop the supervisor thread (no-op when none is running).
    pub fn stop_supervisor(&self) {
        *self.supervisor.lock() = None;
        self.supervisor_state.store(SUP_OFF, Ordering::SeqCst);
    }

    /// Promotions triggered by the supervisor (not by a caller).
    pub fn auto_failovers(&self) -> u64 {
        self.auto_failovers.load(Ordering::SeqCst)
    }

    /// Detection latency of the last auto-failover, in milliseconds
    /// (time from the last accepted heartbeat to the promotion
    /// trigger). Zero until the first auto-failover.
    pub fn detection_ms_last(&self) -> u64 {
        self.detection_ms_last.load(Ordering::SeqCst)
    }

    /// Human-readable supervisor state (reported by the server's
    /// `STATUS` statement).
    pub fn supervisor_state(&self) -> &'static str {
        match self.supervisor_state.load(Ordering::SeqCst) {
            SUP_ARMING => "arming",
            SUP_WATCHING => "watching",
            SUP_PROMOTING => "promoting",
            _ => "off",
        }
    }

    /// Take a checkpoint covering the log up to its last transaction
    /// boundary, built from the previous checkpoint plus the REDO since
    /// (the RO-leader duty of §7; see DESIGN.md for the quiescing
    /// substitution).
    pub fn checkpoint_now(&self) -> Result<u64> {
        let seq = self.next_ckpt.fetch_add(1, Ordering::SeqCst);
        imci_replication::take_checkpoint(&self.fs, seq, None, self.config.group_cap)?;
        Ok(seq)
    }

    /// Pick the RO node with the fewest active sessions (proxy
    /// load-balancing, §6.1), honoring the cluster's default
    /// consistency level.
    pub fn route_ro(&self) -> Result<Arc<RoNode>> {
        self.route_ro_with(self.config.consistency)
    }

    /// Like [`Cluster::route_ro`] but with an explicit consistency
    /// level — the per-session enforcement point of §6.4.
    pub fn route_ro_with(&self, consistency: Consistency) -> Result<Arc<RoNode>> {
        let ros = self.ros.read();
        let target = self.written_lsn();
        let least_loaded = |caught_up_only: bool| {
            ros.iter()
                .filter(|n| !caught_up_only || n.applied_lsn() >= target)
                .min_by_key(|n| n.sessions.load(Ordering::Relaxed))
                .cloned()
        };
        if let Some(node) = least_loaded(consistency == Consistency::Strong) {
            return Ok(node);
        }
        // Strong consistency with lagging ROs: fence on the least
        // loaded one.
        let node =
            least_loaded(false).ok_or_else(|| Error::Execution("no RO nodes available".into()))?;
        drop(ros);
        self.fence(&node, target)?;
        Ok(node)
    }

    /// The §6.4 strong-consistency fence: park (condvar, not a spin — a
    /// busy-wait here burns a core per blocked read) until `node` has
    /// applied the log up to `target`.
    fn fence(&self, node: &RoNode, target: u64) -> Result<()> {
        if node.pipeline.wait_applied(target, Duration::from_secs(30)) {
            Ok(())
        } else {
            Err(Error::Execution("strong consistency wait timed out".into()))
        }
    }

    /// Execute one SQL statement through the proxy: SELECTs go to an RO
    /// node, everything else to the RW node (§6.1 inter-node routing,
    /// via the rough classifier + full parse).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_opts(sql, ExecOpts::default())
    }

    /// [`Cluster::execute`] with per-statement overrides. This is what
    /// proxy sessions (`imci_server`) call: each session carries its
    /// own consistency level and engine pin without touching
    /// cluster-global or node-global state.
    pub fn execute_opts(&self, sql: &str, opts: ExecOpts) -> Result<QueryResult> {
        self.execute_routed(sql, opts, &mut None)
    }

    /// Execute a run of statements (pipelined or batched) in one proxy
    /// call: routing is resolved **once per run** (one `route_ro_with`,
    /// one session-counter update), and per-statement errors are
    /// returned in place. Under `Strong`, each read still waits for
    /// every write committed so far, earlier ones in the run included.
    pub fn execute_many(
        &self,
        stmts: &[impl AsRef<str>],
        opts: ExecOpts,
    ) -> Vec<Result<QueryResult>> {
        let mut held = None;
        stmts
            .iter()
            .map(|sql| self.execute_routed(sql.as_ref(), opts, &mut held))
            .collect()
    }

    /// Route, fence and run one statement: writes on the RW node, reads
    /// on the RO `held` carries or, when it holds none, on a freshly
    /// routed one it then carries. No catalog-miss retry: an RO's
    /// catalog is versioned with the log, and strong reads fence on DDL
    /// commits, so they always see the catalog their session expects.
    fn execute_routed(
        &self,
        sql: &str,
        opts: ExecOpts,
        held: &mut Option<SessionGuard>,
    ) -> Result<QueryResult> {
        if !imci_sql::is_read_only(sql) || self.ros.read().is_empty() {
            return self.execute_rw(sql, opts);
        }
        let consistency = opts.consistency.unwrap_or(self.config.consistency);
        let (node, fenced) = match held {
            // A held route fences again: statements since it was
            // resolved may have advanced the written LSN.
            Some(guard) if consistency == Consistency::Strong => (
                guard.node.clone(),
                self.fence(&guard.node, self.written_lsn()),
            ),
            Some(guard) => (guard.node.clone(), Ok(())),
            None => {
                let node = self.route_ro_with(consistency)?;
                *held = Some(SessionGuard::enter(&node));
                (node, Ok(()))
            }
        };
        let result = fenced.and_then(|()| node.query.run(sql, &opts.query));
        self.absolve_retired_ro(&node, result)
    }

    /// Re-categorize a read error as retryable when the RO it ran on
    /// has been retired from the routing set mid-statement (promotion
    /// or scale-in drains and converts the node under the read's feet,
    /// so it can surface arbitrary storage errors). A read has no
    /// effect to duplicate, so the retryable failover category is the
    /// truthful one: re-executing on a live node gives the real answer.
    fn absolve_retired_ro(
        &self,
        node: &Arc<RoNode>,
        result: Result<QueryResult>,
    ) -> Result<QueryResult> {
        match result {
            Err(e) if !e.is_retryable() && self.ro_retired(node) => Err(Error::Failover(format!(
                "read ran on {} while it was being promoted/retired: {e}",
                node.name
            ))),
            other => other,
        }
    }

    /// Whether `node` is no longer in the proxy's routing set.
    fn ro_retired(&self, node: &Arc<RoNode>) -> bool {
        !self.ros.read().iter().any(|n| Arc::ptr_eq(n, node))
    }

    /// Run one write/DDL statement on the RW node. DDL (CREATE / DROP /
    /// ALTER) needs no per-replica fan-out: it ships through the REDO
    /// stream as a versioned record and every RO applies it in LSN
    /// order with the data changes. With the writer role vacant
    /// (crash/failover window) the statement fails fast with the
    /// retryable failover category instead of stalling. A column pin
    /// reports `ColumnEngineUnsupported` on the row-only writer and
    /// `run` falls back to the row engine.
    fn execute_rw(&self, sql: &str, opts: ExecOpts) -> Result<QueryResult> {
        let rw = self.rw.read();
        match rw.as_ref() {
            Some(node) => node.query.run(sql, &opts.query),
            None => Err(Error::Failover(
                "RW node is down; retry after recovery".into(),
            )),
        }
    }

    /// Block until every RO has applied the RW's current written LSN.
    pub fn wait_sync(&self, timeout: Duration) -> bool {
        let target = self.written_lsn();
        let deadline = Instant::now() + timeout;
        let nodes: Vec<Arc<RoNode>> = self.ros.read().iter().cloned().collect();
        for ro in nodes {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !ro.pipeline.wait_applied(target, remaining) {
                return false;
            }
        }
        true
    }

    /// Visibility delay measurement: commit a marker transaction on RW
    /// and time how long until a chosen RO node has applied it (the VD
    /// metric of Figs. 12/16). Tolerates a promotion landing
    /// mid-measurement: on a [`Error::Failover`] (writer vacant, or the
    /// marker commit fenced) it re-resolves the writer and measures
    /// again instead of propagating the retryable error to monitoring.
    pub fn measure_visibility_delay(&self) -> Result<Duration> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let attempt = (|| {
                let ro = self.route_ro()?;
                let rw = self.rw()?;
                let txn = rw.begin();
                let t0 = Instant::now();
                rw.commit(txn)?;
                let target = self.written_lsn();
                if !ro.pipeline.wait_applied(target, Duration::from_secs(10)) {
                    return Err(Error::Execution("VD wait timed out".into()));
                }
                Ok(t0.elapsed())
            })();
            match attempt {
                Err(Error::Failover(_)) if Instant::now() < deadline => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    self.wait_for_writer(remaining);
                }
                other => return other,
            }
        }
    }

    /// Stop the supervisor, all RO pipelines and the writer's heartbeat
    /// (drops the nodes). Pipelines are stopped
    /// explicitly — not via `Arc::try_unwrap`, which fails (and used to
    /// silently leak running threads) whenever a session still holds a
    /// node.
    pub fn shutdown(&self) {
        // Supervisor first: it must not interpret the heartbeat
        // stopping below as a writer death and promote mid-shutdown.
        self.stop_supervisor();
        let nodes: Vec<Arc<RoNode>> = self.ros.write().drain(..).collect();
        for node in &nodes {
            node.pipeline.stop();
        }
        if let Some(node) = self.rw.write().as_mut() {
            node._heartbeat = None;
        }
    }
}

/// Supervisor thread body: watch the storage lease, trigger promotion
/// on expiry. See [`Cluster::start_supervisor`] for the protocol.
fn supervise(weak: Weak<Cluster>, cfg: SupervisorConfig, stop: &(Mutex<bool>, Condvar)) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let jitter_us = cfg.jitter.as_micros().max(1) as u64;
    // Armed only after seeing a beat from the current volume epoch —
    // both at startup and after every promotion (the no-flapping rule).
    let mut armed = false;
    loop {
        if *stop.0.lock() {
            return;
        }
        let Some(c) = weak.upgrade() else { return };
        let lease = c.fs.lease();
        let vol_epoch = c.fs.current_epoch();
        if !armed {
            c.supervisor_state.store(SUP_ARMING, Ordering::SeqCst);
            if lease.age.is_some() && lease.epoch >= vol_epoch {
                armed = true;
                continue;
            }
            c.fs.wait_beat(lease.beats, cfg.lease_timeout);
            continue;
        }
        c.supervisor_state.store(SUP_WATCHING, Ordering::SeqCst);
        let age = lease.age.unwrap_or(Duration::ZERO);
        if age < cfg.lease_timeout {
            // Healthy: park on the beat condvar for the remaining
            // lease budget plus jitter. A beat landing in that window
            // wakes us early and re-arms the clock.
            let wait = cfg.lease_timeout - age + Duration::from_micros(rng.gen_range(0..jitter_us));
            c.fs.wait_beat(lease.beats, wait);
            continue;
        }
        if lease.epoch < vol_epoch {
            // Someone else (manual failover / recovery) already fenced
            // the epoch that went silent — never depose it twice.
            armed = false;
            continue;
        }
        c.supervisor_state.store(SUP_PROMOTING, Ordering::SeqCst);
        if c.promote(Some(age)).is_err() {
            // Nothing to promote (no RO), or the promotion raced a
            // manual recovery. Park until fresh beats say there is a
            // writer to watch again.
            c.fs.wait_beat(lease.beats, cfg.lease_timeout);
        }
        armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::Value;
    use imci_sql::EngineChoice;

    const DDL: &str = "CREATE TABLE demo (
        id INT NOT NULL, grp INT, val DOUBLE, note VARCHAR(32),
        PRIMARY KEY(id), KEY grp_idx(grp),
        KEY COLUMN_INDEX(id, grp, val, note))";

    fn small_cluster() -> Arc<Cluster> {
        Cluster::start(ClusterConfig {
            group_cap: 64,
            ..Default::default()
        })
    }

    #[test]
    fn end_to_end_htap_path() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        for i in 0..300 {
            c.execute(&format!(
                "INSERT INTO demo VALUES ({i}, {}, {}, 'n{}')",
                i % 3,
                i as f64 * 0.5,
                i % 5
            ))
            .unwrap();
        }
        assert!(c.wait_sync(Duration::from_secs(20)), "ROs must catch up");
        // Analytical query routes to RO; pin column for determinism.
        let res = c
            .execute_opts(
                "SELECT grp, COUNT(*), SUM(val) FROM demo GROUP BY grp ORDER BY grp",
                ExecOpts {
                    query: QueryOptions::forced(Some(EngineChoice::Column)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(res.rows.len(), 3);
        assert_eq!(res.rows[0][1], Value::Int(100));
        assert_eq!(res.engine, EngineChoice::Column);
        // Point query stays on the row path.
        let res = c.execute("SELECT note FROM demo WHERE id = 7").unwrap();
        assert_eq!(res.engine, EngineChoice::Row);
        assert_eq!(res.rows[0][0], Value::Str("n2".into()));
        c.shutdown();
    }

    #[test]
    fn updates_and_deletes_propagate() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'x')"))
                .unwrap();
        }
        c.execute("UPDATE demo SET val = 99.0 WHERE id = 10")
            .unwrap();
        c.execute("DELETE FROM demo WHERE id = 20").unwrap();
        assert!(c.wait_sync(Duration::from_secs(20)));
        let res = c.execute("SELECT COUNT(*), MAX(val) FROM demo").unwrap();
        assert_eq!(res.rows[0][0], Value::Int(49));
        assert_eq!(res.rows[0][1], Value::Double(99.0));
        c.shutdown();
    }

    #[test]
    fn strong_consistency_reads_own_writes() {
        let mut cfg = ClusterConfig {
            group_cap: 64,
            ..Default::default()
        };
        cfg.consistency = Consistency::Strong;
        let c = Cluster::start(cfg);
        c.execute(DDL).unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 1, 1.0, 'y')"))
                .unwrap();
            // Immediately readable: strong consistency must wait for the
            // RO to apply this write.
            if i % 50 == 0 {
                let res = c
                    .execute(&format!("SELECT id FROM demo WHERE id = {i}"))
                    .unwrap();
                assert_eq!(res.rows.len(), 1, "write {i} must be visible");
            }
        }
        c.shutdown();
    }

    #[test]
    fn scale_out_uses_checkpoint_and_serves() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        for i in 0..500 {
            c.execute(&format!(
                "INSERT INTO demo VALUES ({i}, {}, 2.0, 'z')",
                i % 7
            ))
            .unwrap();
        }
        assert!(c.wait_sync(Duration::from_secs(20)));
        c.checkpoint_now().unwrap();
        // More traffic after the checkpoint.
        for i in 500..600 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 2.0, 'z')"))
                .unwrap();
        }
        let report = c.scale_out().unwrap();
        assert!(report.from_checkpoint, "checkpoint must be used");
        assert_eq!(c.ros.read().len(), 2);
        // The new node answers queries with fresh data.
        let node = c.ros.read()[1].clone();
        let res = node
            .query
            .run(
                "SELECT COUNT(*) FROM demo",
                &imci_sql::QueryOptions::forced(Some(EngineChoice::Column)),
            )
            .unwrap();
        assert_eq!(res.rows[0][0], Value::Int(600));
        c.shutdown();
    }

    #[test]
    fn alter_add_column_index_online() {
        let c = small_cluster();
        c.execute("CREATE TABLE plain (id INT NOT NULL, v INT, PRIMARY KEY(id))")
            .unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO plain VALUES ({i}, {i})"))
                .unwrap();
        }
        assert!(c.wait_sync(Duration::from_secs(20)));
        c.execute("ALTER TABLE plain ADD COLUMN INDEX (id, v)")
            .unwrap();
        // The ALTER ships as a DDL record whose commit advances the
        // written LSN, so wait_sync covers the RO-side index rebuild.
        assert!(c.wait_sync(Duration::from_secs(20)));
        let res = c
            .execute_opts(
                "SELECT SUM(v) FROM plain",
                ExecOpts {
                    query: QueryOptions::forced(Some(EngineChoice::Column)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(res.rows[0][0], Value::Int((0..100).sum::<i64>()));
        assert_eq!(
            res.engine,
            EngineChoice::Column,
            "replicated ALTER must make the column index servable"
        );
        c.shutdown();
    }

    #[test]
    fn ddl_immediately_visible_on_every_ro_node() {
        // Regression for two lazy-refresh races:
        // (1) the pipeline's mid-apply table pickup could drop committed
        //     DMLs for a table created after node start;
        // (2) `execute_opts`'s catalog-miss retry refreshed only the
        //     routed node, leaving sibling replicas stale until they
        //     happened to be routed a failing query.
        // With DDL in the log, a strong read after CREATE;INSERT must
        // succeed on whichever of the 3 RO nodes it round-robins to,
        // with no retry path in the proxy at all.
        let c = Cluster::start(ClusterConfig {
            n_ro: 3,
            group_cap: 64,
            ..Default::default()
        });
        let opts = ExecOpts {
            consistency: Some(Consistency::Strong),
            ..Default::default()
        };
        for round in 0..5 {
            let t = format!("tenant_{round}");
            c.execute(&format!(
                "CREATE TABLE {t} (id INT NOT NULL, v INT, PRIMARY KEY(id),
                 KEY COLUMN_INDEX(id, v))"
            ))
            .unwrap();
            c.execute(&format!("INSERT INTO {t} VALUES (1, {round})"))
                .unwrap();
            // Round-robin immediately after the DDL: every RO must
            // serve the row (strong reads spread across the
            // least-loaded node, and all three see the DDL in order).
            for _ in 0..6 {
                let res = c
                    .execute_opts(&format!("SELECT v FROM {t} WHERE id = 1"), opts)
                    .unwrap();
                assert_eq!(res.rows.len(), 1, "round {round}: row must be visible");
                assert_eq!(res.rows[0][0], Value::Int(round));
            }
            // Every node individually (not just the routed one). The
            // siblings converge through the log — the old design left
            // them stale until they happened to be routed a *failing*
            // query — so after a sync they must all know the table.
            assert!(c.wait_sync(Duration::from_secs(20)));
            for ro in c.ros.read().iter() {
                assert!(
                    ro.engine.table(&t).is_ok(),
                    "round {round}: {} must know {t}",
                    ro.name
                );
                assert_eq!(ro.engine.row_count(&t).unwrap(), 1, "{}", ro.name);
            }
        }
        for ro in c.ros.read().iter() {
            assert_eq!(ro.pipeline.error_count(), 0, "{}", ro.name);
        }
        c.shutdown();
    }

    #[test]
    fn drop_table_errors_on_every_ro_node() {
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 64,
            ..Default::default()
        });
        c.execute(DDL).unwrap();
        c.execute("INSERT INTO demo VALUES (1, 0, 1.0, 'x')")
            .unwrap();
        let opts = ExecOpts {
            consistency: Some(Consistency::Strong),
            ..Default::default()
        };
        assert_eq!(
            c.execute_opts("SELECT id FROM demo WHERE id = 1", opts)
                .unwrap()
                .rows
                .len(),
            1
        );
        c.execute("DROP TABLE demo").unwrap();
        // The drop's commit advances the written LSN, so strong reads
        // fence on it: after the drop every RO must report the table
        // gone (a catalog error), never stale rows.
        assert!(c.wait_sync(Duration::from_secs(20)));
        for _ in 0..4 {
            let err = c
                .execute_opts("SELECT id FROM demo WHERE id = 1", opts)
                .unwrap_err();
            assert!(matches!(err, Error::Catalog(_)), "got {err}");
        }
        for ro in c.ros.read().iter() {
            assert!(ro.engine.table("demo").is_err(), "{}", ro.name);
            assert_eq!(ro.pipeline.error_count(), 0, "{}", ro.name);
        }
        // A write to the dropped table fails on the RW too.
        assert!(c
            .execute("INSERT INTO demo VALUES (2, 0, 1.0, 'y')")
            .is_err());
        c.shutdown();
    }

    #[test]
    fn commented_and_parenthesized_selects_route_to_ro() {
        // Regression: `is_read_only` used to look only at the first six
        // bytes, so a SELECT behind a comment or paren was misrouted to
        // the RW node — bypassing RO load balancing and FORCE_ENGINE.
        let c = small_cluster();
        c.execute(DDL).unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'x')"))
                .unwrap();
        }
        let opts = ExecOpts {
            consistency: Some(Consistency::Strong),
            // The RW node has no column store: a result on the COLUMN
            // engine proves the statement ran on an RO node.
            query: QueryOptions::forced(Some(EngineChoice::Column)),
        };
        for sql in [
            "-- comment\nSELECT COUNT(*) FROM demo",
            "/* hint */ SELECT COUNT(*) FROM demo",
            "(SELECT COUNT(*) FROM demo)",
        ] {
            let res = c.execute_opts(sql, opts).unwrap();
            assert_eq!(res.rows[0][0], Value::Int(50), "{sql}");
            assert_eq!(res.engine, EngineChoice::Column, "{sql} must hit an RO");
        }
        c.shutdown();
    }

    #[test]
    fn execute_many_batches_reads_and_writes() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        let stmts: Vec<String> = (0..20)
            .map(|i| format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'b')"))
            .chain(std::iter::once("SELECT COUNT(*) FROM demo".to_string()))
            .chain(std::iter::once("SELECT bogus FROM nowhere".to_string()))
            .chain(std::iter::once("SELECT MAX(id) FROM demo".to_string()))
            .collect();
        let results = c.execute_many(
            &stmts,
            ExecOpts {
                consistency: Some(Consistency::Strong),
                ..Default::default()
            },
        );
        assert_eq!(results.len(), 23);
        for r in &results[..20] {
            assert_eq!(r.as_ref().unwrap().affected, 1);
        }
        // Read-your-writes within the batch: the count sees all 20
        // inserts issued moments earlier in the same call.
        assert_eq!(results[20].as_ref().unwrap().rows[0][0], Value::Int(20));
        assert!(results[21].is_err(), "bad statement errors in place");
        assert_eq!(results[22].as_ref().unwrap().rows[0][0], Value::Int(19));
        c.shutdown();
    }

    #[test]
    fn session_counters_return_to_zero() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        c.execute("INSERT INTO demo VALUES (1, 0, 1.0, 'x')")
            .unwrap();
        for _ in 0..10 {
            let _ = c.execute("SELECT COUNT(*) FROM demo");
            // Errors (parse failures on the RO) must not leak the
            // session count either.
            let _ = c.execute("SELECT FROM demo WHERE");
        }
        let _ = c.execute_many(
            &["SELECT COUNT(*) FROM demo", "SELECT * FROM missing"],
            ExecOpts::default(),
        );
        for ro in c.ros.read().iter() {
            assert_eq!(ro.sessions.load(Ordering::SeqCst), 0);
        }
        c.shutdown();
    }

    #[test]
    fn scale_in_stops_pipeline_with_live_arcs() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        c.scale_out().unwrap();
        // A "session" still holds the node when it is scaled in.
        let held = c.ros.read().last().unwrap().clone();
        let before = held.applied_lsn();
        assert!(c.scale_in().is_some());
        // The pipeline was stopped even though `held` kept the Arc
        // alive: new writes must no longer advance its applied LSN.
        for i in 100..160 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'x')"))
                .unwrap();
        }
        assert!(c.wait_sync(Duration::from_secs(20)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            held.applied_lsn(),
            before,
            "stopped pipeline must not apply"
        );
        c.shutdown();
    }

    #[test]
    fn crash_then_recover_restores_every_committed_transaction() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        for i in 0..300 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'a')"))
                .unwrap();
        }
        assert!(c.wait_sync(Duration::from_secs(20)));
        c.checkpoint_now().unwrap();
        // Post-checkpoint traffic: must come back from REDO replay.
        for i in 300..400 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 1, 2.0, 'b')"))
                .unwrap();
        }
        c.execute("UPDATE demo SET val = 99.0 WHERE id = 7")
            .unwrap();
        c.execute("DELETE FROM demo WHERE id = 8").unwrap();
        // An in-flight transaction dies with the node.
        let rw = c.rw().unwrap();
        let mut doomed = rw.begin();
        rw.insert(
            &mut doomed,
            "demo",
            vec![
                Value::Int(9999),
                Value::Int(0),
                Value::Double(0.0),
                Value::Null,
            ],
        )
        .unwrap();
        let written_before = c.written_lsn();

        let zombie = c.crash_rw().expect("RW was up");
        // Writes fail fast with the retryable category while down...
        let err = c
            .execute("INSERT INTO demo VALUES (400, 0, 1.0, 'x')")
            .unwrap_err();
        assert!(matches!(err, Error::Failover(_)), "got {err}");
        assert!(err.is_retryable());
        // ...but reads keep serving from the ROs, fencing on the
        // pre-crash written LSN.
        assert!(c.written_lsn() >= written_before);
        // Commit-gated visibility lives on the column side (the row
        // replica physically holds CALS-shipped uncommitted rows), so
        // read through the column engine.
        let opts = ExecOpts {
            consistency: Some(Consistency::Strong),
            query: QueryOptions::forced(Some(EngineChoice::Column)),
        };
        let res = c.execute_opts("SELECT COUNT(*) FROM demo", opts).unwrap();
        assert_eq!(res.rows[0][0], Value::Int(399));

        let report = c.recover_rw().unwrap();
        assert!(report.from_checkpoint, "newest checkpoint must seed");
        assert_eq!(report.rolled_back_txns, 1, "the in-flight txn");
        // Every committed transaction restored, none of the
        // uncommitted ones.
        let rec = c.rw().unwrap();
        assert_eq!(rec.row_count("demo").unwrap(), 399);
        assert_eq!(
            rec.get_row("demo", 7).unwrap().unwrap().values[2],
            Value::Double(99.0)
        );
        assert!(rec.get_row("demo", 8).unwrap().is_none());
        assert!(rec.get_row("demo", 9999).unwrap().is_none());
        // The recovered RW serves writes; the zombie is fenced.
        c.execute("INSERT INTO demo VALUES (400, 0, 1.0, 'x')")
            .unwrap();
        let mut ztxn = zombie.begin();
        let zerr = zombie
            .insert(
                &mut ztxn,
                "demo",
                vec![
                    Value::Int(7777),
                    Value::Int(0),
                    Value::Double(0.0),
                    Value::Null,
                ],
            )
            .unwrap_err();
        assert!(zerr.is_retryable(), "zombie append must be fenced");
        // ROs tail through the crash: compensations + new writes land.
        assert!(c.wait_sync(Duration::from_secs(20)));
        for ro in c.ros.read().iter() {
            assert_eq!(ro.engine.row_count("demo").unwrap(), 400, "{}", ro.name);
            assert!(ro.engine.get_row("demo", 9999).unwrap().is_none());
            assert_eq!(ro.pipeline.error_count(), 0, "{}", ro.name);
        }
        c.shutdown();
    }

    #[test]
    fn failover_promotes_an_ro_and_fences_the_old_rw() {
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 64,
            ..Default::default()
        });
        c.execute(DDL).unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'a')"))
                .unwrap();
        }
        // In flight at the crash: shipped by CALS, must be rolled back
        // by the promotion on every surviving node.
        let rw = c.rw().unwrap();
        let mut doomed = rw.begin();
        rw.update(
            &mut doomed,
            "demo",
            5,
            vec![
                Value::Int(5),
                Value::Int(0),
                Value::Double(-1.0),
                Value::Null,
            ],
        )
        .unwrap();
        rw.insert(
            &mut doomed,
            "demo",
            vec![
                Value::Int(5000),
                Value::Int(0),
                Value::Double(0.0),
                Value::Null,
            ],
        )
        .unwrap();

        let zombie = c.crash_rw().expect("RW was up");
        let report = c.failover().unwrap();
        assert!(report.promoted.starts_with("ro-"), "{}", report.promoted);
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.rolled_back_ops, 2);
        assert!(report.column_caught_up);
        let names: Vec<String> = c.ros.read().iter().map(|n| n.name.clone()).collect();
        assert_eq!(names.len(), 2, "a backfilled RO replaced the promoted one");
        assert!(!names.contains(&report.promoted), "{names:?}");

        // The committed prefix survived, the in-flight txn did not.
        let new_rw = c.rw().unwrap();
        assert_eq!(new_rw.row_count("demo").unwrap(), 200);
        assert_eq!(
            new_rw.get_row("demo", 5).unwrap().unwrap().values[2],
            Value::Double(1.0),
            "in-flight update rolled back on the promoted node"
        );
        assert!(new_rw.get_row("demo", 5000).unwrap().is_none());

        // The deposed RW can never append again (epoch fence).
        let mut ztxn = zombie.begin();
        assert!(zombie
            .insert(
                &mut ztxn,
                "demo",
                vec![
                    Value::Int(6000),
                    Value::Int(0),
                    Value::Double(0.0),
                    Value::Null
                ],
            )
            .unwrap_err()
            .is_retryable());

        // The cluster serves writes + strong reads through the new RW;
        // the surviving RO converges through the same log, including
        // the promotion's compensation records.
        c.execute("INSERT INTO demo VALUES (201, 1, 2.0, 'post')")
            .unwrap();
        assert!(c.wait_sync(Duration::from_secs(20)));
        let opts = ExecOpts {
            consistency: Some(Consistency::Strong),
            ..Default::default()
        };
        let res = c.execute_opts("SELECT COUNT(*) FROM demo", opts).unwrap();
        assert_eq!(res.rows[0][0], Value::Int(201));
        for ro in c.ros.read().iter() {
            assert_eq!(ro.engine.row_count("demo").unwrap(), 201, "{}", ro.name);
            assert_eq!(
                ro.engine.get_row("demo", 5).unwrap().unwrap().values[2],
                Value::Double(1.0),
                "{}: rollback replicated",
                ro.name
            );
            assert_eq!(ro.pipeline.error_count(), 0, "{}", ro.name);
        }
        c.shutdown();
    }

    #[test]
    fn failover_with_no_ro_reports_failover_error() {
        let c = Cluster::start(ClusterConfig {
            n_ro: 0,
            group_cap: 64,
            ..Default::default()
        });
        c.execute("CREATE TABLE solo (id INT NOT NULL, PRIMARY KEY(id))")
            .unwrap();
        c.crash_rw();
        let err = c.failover().unwrap_err();
        assert!(matches!(err, Error::Failover(_)), "got {err}");
        // Recovery still brings the cluster back.
        c.recover_rw().unwrap();
        c.execute("INSERT INTO solo VALUES (1)").unwrap();
        c.shutdown();
    }

    #[test]
    fn repeated_failovers_keep_epochs_monotonic() {
        // One RO: each round promotes the RO the previous round
        // backfilled.
        let c = Cluster::start(ClusterConfig {
            n_ro: 1,
            group_cap: 64,
            ..Default::default()
        });
        c.execute(DDL).unwrap();
        let mut last_epoch = 0;
        for round in 0..3 {
            c.execute(&format!("INSERT INTO demo VALUES ({round}, 0, 1.0, 'r')"))
                .unwrap();
            c.crash_rw();
            let report = c.failover().unwrap();
            assert!(report.epoch > last_epoch, "epochs strictly increase");
            assert!(report.column_caught_up);
            last_epoch = report.epoch;
        }
        assert_eq!(c.ros.read().len(), 1, "each round backfilled its RO");
        // All three rounds' writes survived three ownership changes.
        let res = c.execute("SELECT COUNT(*) FROM demo").unwrap();
        assert_eq!(res.rows[0][0], Value::Int(3));
        c.shutdown();
    }

    #[test]
    fn backfilled_ro_serves_column_plans() {
        // The writer stays row-only after failover: the RO that
        // replaces the promoted one answers COLUMN-engine plans and
        // tails the new writer's commits.
        let c = small_cluster();
        c.execute(DDL).unwrap();
        for i in 0..300 {
            c.execute(&format!(
                "INSERT INTO demo VALUES ({i}, {}, 1.0, 'a')",
                i % 3
            ))
            .unwrap();
        }
        assert!(c.wait_sync(Duration::from_secs(20)));
        c.checkpoint_now().unwrap();
        // Traffic after the checkpoint: the backfill must cover the
        // REDO tail, not just the checkpoint image.
        for i in 300..350 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'b')"))
                .unwrap();
        }
        c.crash_rw();
        let report = c.failover().unwrap();
        assert!(report.column_rebuild_time > Duration::ZERO);
        assert!(report.column_caught_up);
        let backfill = c.ros.read()[0].clone();
        assert_ne!(backfill.name, report.promoted, "the single RO was replaced");

        let opts = ExecOpts {
            consistency: Some(Consistency::Strong),
            query: QueryOptions::forced(Some(EngineChoice::Column)),
        };
        let res = c
            .execute_opts(
                "SELECT grp, COUNT(*) FROM demo GROUP BY grp ORDER BY grp",
                opts,
            )
            .unwrap();
        assert_eq!(res.engine, EngineChoice::Column, "the backfill serves IMCI");
        assert_eq!(res.rows[0][1], Value::Int(150));
        // A post-promotion commit reaches the backfill through the log.
        c.execute("INSERT INTO demo VALUES (999, 0, 1.0, 'c')")
            .unwrap();
        let res = c.execute_opts("SELECT COUNT(*) FROM demo", opts).unwrap();
        assert_eq!(res.engine, EngineChoice::Column);
        assert_eq!(res.rows[0][0], Value::Int(351));
        assert_eq!(backfill.pipeline.error_count(), 0);
        c.shutdown();
    }

    #[test]
    fn supervisor_detects_writer_death_and_promotes() {
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 64,
            heartbeat_interval: Duration::from_millis(5),
            supervisor: Some(SupervisorConfig {
                lease_timeout: Duration::from_millis(60),
                jitter: Duration::from_millis(20),
                seed: 7,
            }),
            ..Default::default()
        });
        c.execute(DDL).unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO demo VALUES ({i}, 0, 1.0, 'x')"))
                .unwrap();
        }
        // Kill the writer. Nobody calls failover(): the lease expires
        // and the supervisor promotes on its own.
        drop(c.crash_rw());
        let deadline = Instant::now() + Duration::from_secs(10);
        while c.auto_failovers() == 0 {
            assert!(Instant::now() < deadline, "supervisor never promoted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(c.wait_for_writer(Duration::from_secs(10)));
        assert_eq!(c.auto_failovers(), 1);
        assert!(
            c.detection_ms_last() >= 60,
            "detection can't beat the lease timeout: {}ms",
            c.detection_ms_last()
        );
        // Committed data survived and the promoted writer serves. The
        // count reads Strong: an eventual read could race the surviving
        // RO's replay of the post-promotion insert.
        c.execute("INSERT INTO demo VALUES (100, 0, 1.0, 'y')")
            .unwrap();
        let res = c
            .execute_opts(
                "SELECT COUNT(*) FROM demo",
                ExecOpts {
                    consistency: Some(Consistency::Strong),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(res.rows[0][0], Value::Int(101));
        // No flapping: the promoted writer keeps beating; several lease
        // windows later there is still exactly one auto-failover.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(c.auto_failovers(), 1, "slow-path supervisor must not flap");
        c.shutdown();
    }

    #[test]
    fn supervisor_does_not_depose_twice_after_manual_failover() {
        // A manual promotion bumps the epoch while the supervisor is
        // armed for the old one. The expired old lease must not
        // trigger a second (automatic) promotion.
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 64,
            heartbeat_interval: Duration::from_millis(5),
            supervisor: Some(SupervisorConfig {
                lease_timeout: Duration::from_millis(60),
                jitter: Duration::from_millis(20),
                seed: 11,
            }),
            ..Default::default()
        });
        c.execute(DDL).unwrap();
        c.execute("INSERT INTO demo VALUES (1, 0, 1.0, 'x')")
            .unwrap();
        c.crash_rw();
        let epoch = c.failover().unwrap().epoch;
        // Give the supervisor several full lease windows to (wrongly)
        // react to the deposed epoch's silence.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(c.auto_failovers(), 0, "manual failover must not be doubled");
        assert_eq!(
            c.fs.current_epoch(),
            epoch,
            "only the manual promotion bumped the epoch"
        );
        c.execute("INSERT INTO demo VALUES (2, 0, 1.0, 'y')")
            .unwrap();
        c.shutdown();
    }

    #[test]
    fn visibility_delay_survives_mid_measurement_promotion() {
        // Crash the writer, then measure VD while a promotion lands
        // concurrently: the probe must re-resolve the writer instead
        // of propagating the retryable failover error.
        let c = Cluster::start(ClusterConfig {
            n_ro: 2,
            group_cap: 64,
            ..Default::default()
        });
        c.execute(DDL).unwrap();
        c.execute("INSERT INTO demo VALUES (1, 0, 1.0, 'x')")
            .unwrap();
        c.crash_rw();
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.measure_visibility_delay());
        std::thread::sleep(Duration::from_millis(30));
        c.failover().unwrap();
        let vd = h
            .join()
            .unwrap()
            .expect("VD probe must ride through the promotion");
        assert!(vd < Duration::from_secs(10));
        c.shutdown();
    }

    #[test]
    fn visibility_delay_is_measurable() {
        let c = small_cluster();
        c.execute(DDL).unwrap();
        c.execute("INSERT INTO demo VALUES (1, 1, 1.0, 'a')")
            .unwrap();
        let vd = c.measure_visibility_delay().unwrap();
        assert!(vd < Duration::from_secs(5));
        c.shutdown();
    }

    #[test]
    fn ddl_writes_no_storage_object() {
        // The REDO record is the only persisted trace of a DDL; storage
        // objects are written by checkpoints alone.
        let c = Cluster::start(ClusterConfig::default());
        let puts = c.fs.stats().object_puts();
        c.execute("CREATE TABLE plain (id INT NOT NULL, v INT, PRIMARY KEY(id))")
            .unwrap();
        c.execute("ALTER TABLE plain ADD COLUMN INDEX (id, v)")
            .unwrap();
        c.execute("DROP TABLE plain").unwrap();
        assert!(c.wait_sync(Duration::from_secs(20)));
        assert_eq!(c.fs.stats().object_puts(), puts);
        c.shutdown();
    }

    #[test]
    fn backfilled_ro_takes_ddl_into_its_column_store_only_from_the_log() {
        // The RO that replaces a promoted one gets its DDL from the new
        // writer's log alone. A DDL applied to its store beside its
        // pipeline would race the still-buffered ops for the table, and
        // each op that lost the race would be a silent apply error.
        let c = small_cluster();
        c.crash_rw();
        c.failover().unwrap();
        let backfill = c.ros.read()[0].clone();
        for round in 0..10 {
            let t = format!("churn_{round}");
            c.execute(&format!(
                "CREATE TABLE {t} (id INT NOT NULL, v INT, PRIMARY KEY(id),
                 KEY COLUMN_INDEX(id, v))"
            ))
            .unwrap();
            // 200 rows in four transactions; the DROP follows the last
            // commit at once, so the RO still holds its ops.
            for batch in 0..4 {
                let rows: Vec<String> = (batch * 50..(batch + 1) * 50)
                    .map(|i| format!("({i}, {round})"))
                    .collect();
                c.execute(&format!("INSERT INTO {t} VALUES {}", rows.join(", ")))
                    .unwrap();
            }
            c.execute(&format!("DROP TABLE {t}")).unwrap();
            assert!(c.wait_sync(Duration::from_secs(20)));
            assert_eq!(backfill.pipeline.error_count(), 0, "round {round}");
        }

        // ALTER under inserts the RO has not applied yet: the
        // index is built once, at the record's place in the log.
        c.execute("CREATE TABLE grow (id INT NOT NULL, v INT, PRIMARY KEY(id))")
            .unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO grow VALUES ({i}, {i})"))
                .unwrap();
        }
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for i in 100..2100 {
                    c.execute(&format!("INSERT INTO grow VALUES ({i}, {i})"))
                        .unwrap();
                }
            })
        };
        c.execute("ALTER TABLE grow ADD COLUMN INDEX (id, v)")
            .unwrap();
        writer.join().unwrap();
        assert!(c.wait_sync(Duration::from_secs(20)));
        let res = c
            .execute_opts(
                "SELECT COUNT(*) FROM grow",
                ExecOpts {
                    query: QueryOptions::forced(Some(EngineChoice::Column)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(res.engine, EngineChoice::Column);
        assert_eq!(res.rows[0][0], Value::Int(2100));
        assert_eq!(backfill.pipeline.error_count(), 0);
        c.shutdown();
    }
}
