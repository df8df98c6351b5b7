//! imci_net — epoll-based reactor service tier with admission control
//! and overload shedding.
//!
//! The service tier that fronts the database (paper §3: proxy nodes
//! route traffic to RW/RO nodes; a node must hold thousands of mostly
//! idle connections without a thread per connection). It is protocol
//! agnostic: a [`Proto`] implementation supplies framing, execution,
//! and the wire shape of rejections; this crate supplies the threads,
//! the readiness loop, ordering, fairness, and the budgets.
//!
//! ```text
//!                 ┌──────────┐  accept + connection budget
//!      clients ──▶│ acceptor │──────────────┐ round-robin
//!                 └──────────┘              ▼
//!            ┌────────────────────────────────────────────┐
//!            │ reactor threads (one epoll instance each)  │
//!            │   read → decode → admission → unit queue   │
//!            │   write-backpressure, idle timer wheel     │
//!            └───────────────┬───────────▲────────────────┘
//!                    fair    │           │ dirty tokens +
//!                    queue   ▼           │ waker pipe
//!            ┌────────────────────────────────────────────┐
//!            │ workers: pop conn → run units → flush      │
//!            └────────────────────────────────────────────┘
//! ```
//!
//! Per-connection life cycle (driven by readiness, never by blocking):
//!
//! ```text
//!   read ──▶ decode ──▶ admit ──▶ queue ──▶ run ──▶ flush ─┐
//!    ▲                    │ full                           │ backlog
//!    │                    ▼                                ▼
//!    │                 reject (retryable busy,        pause reads
//!    │                 in response order)             until drained
//!    └─────────────────────────────────────────────────────┘
//! ```
//!
//! Overload policy: budgets shed work instead of queueing it. A full
//! connection budget answers with one busy frame at accept; a full
//! statement queue turns the statement into an in-order retryable
//! rejection; a drain or idle timeout injects a farewell unit that is
//! answered after all accepted work, then the socket closes.

mod admission;
mod buf;
mod conn;
mod reactor;
mod timer;

pub use buf::InputBuf;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Interest, Poller};

use admission::{Admission, FairQueue};
use reactor::{Shared, WAKE_TOKEN};

/// One step of frame decoding.
pub enum Step<U> {
    /// The buffer does not hold a full frame yet.
    NeedMore,
    /// One decoded unit of work.
    Unit(U),
    /// A final unit after which no more input is decodable (protocol
    /// violation, or an explicit quit): run it, then close.
    Poison(U),
}

/// Why the service tier is saying goodbye to a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Goodbye {
    /// Graceful shutdown: accepted work ran; the server is going away.
    Drain,
    /// The connection sat idle past the configured timeout.
    IdleTimeout,
}

/// What `Proto::run` decided about the connection's future.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOutcome {
    /// Close the connection once the produced output is flushed.
    pub close: bool,
}

/// A wire protocol hosted by the reactor tier.
///
/// Decoding runs on reactor threads and must never block; execution
/// runs on worker threads and may. Units flow strictly in arrival
/// order per connection, so responses are ordered even under
/// pipelining.
pub trait Proto: Send + Sync + 'static {
    /// Reactor-side framing state (one per connection).
    type Parse: Send + 'static;
    /// Worker-side session state (one per connection).
    type Exec: Send + 'static;
    /// One ordered, executable request.
    type Unit: Send + 'static;

    /// Fresh per-connection state.
    fn open(&self) -> (Self::Parse, Self::Exec);

    /// Carve the next unit off the front of `buf`.
    fn decode(&self, parse: &mut Self::Parse, buf: &mut InputBuf) -> Step<Self::Unit>;

    /// Admission cost of a unit (0 = control-plane, always admitted).
    fn cost(&self, unit: &Self::Unit) -> usize;

    /// Tenant this unit switches the connection to, if any, for fair
    /// scheduling.
    fn tenant_of<'u>(&self, _unit: &'u Self::Unit) -> Option<&'u str> {
        None
    }

    /// Replace a shed unit with one that produces the protocol's
    /// retryable busy response in its place.
    fn reject(&self, unit: Self::Unit) -> Self::Unit;

    /// A final unit that tells the client why the server is closing.
    fn goodbye(&self, why: Goodbye) -> Self::Unit;

    /// Raw bytes written to a connection rejected by the connection
    /// budget, before any session exists.
    fn over_budget_frame(&self) -> Vec<u8>;

    /// Execute a batch of ordered units, appending responses to `out`.
    fn run(&self, exec: &mut Self::Exec, units: Vec<Self::Unit>, out: &mut Vec<u8>) -> RunOutcome;
}

/// Service-tier configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Event-loop threads. Connections are spread round-robin.
    pub reactors: usize,
    /// Execution threads shared by all connections.
    pub workers: usize,
    /// Hard cap on concurrently open sessions.
    pub max_connections: usize,
    /// Cap on total queued admission cost; beyond it statements are
    /// shed with a retryable busy error.
    pub max_queued_statements: usize,
    /// Close connections with no inbound traffic for this long.
    pub idle_timeout: Option<Duration>,
    /// How long a graceful shutdown waits for sessions to finish
    /// before force-closing them.
    pub drain_timeout: Duration,
    /// Max admission cost one worker turn drains from one connection
    /// before rotating to the next tenant (fairness granularity).
    pub worker_quantum: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: cores.clamp(1, 4),
            workers: 16,
            max_connections: 4096,
            max_queued_statements: 1024,
            idle_timeout: Some(Duration::from_secs(300)),
            drain_timeout: Duration::from_secs(5),
            worker_quantum: 64,
        }
    }
}

/// Counters exposed by the service tier. The embedding server shares
/// this struct with its protocol so `queries`/`errors` sit next to the
/// connection-level counters.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Connections ever accepted (including ones later shed).
    pub connections: AtomicU64,
    /// Statements executed (maintained by the protocol).
    pub queries: AtomicU64,
    /// Statements that returned an error (maintained by the protocol).
    pub errors: AtomicU64,
    /// Currently open sessions.
    pub active_sessions: AtomicUsize,
    /// Connections refused by the connection budget.
    pub busy_rejected_conns: AtomicU64,
    /// Statements shed by the statement-queue budget.
    pub busy_rejected_stmts: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections sent a drain goodbye during graceful shutdown.
    pub drained: AtomicU64,
    /// Automatic promotions observed (maintained by the protocol,
    /// mirrored from the cluster supervisor).
    pub auto_failovers: AtomicU64,
    /// Statements transparently replayed against a new writer after a
    /// failover error (maintained by the protocol).
    pub replayed_stmts: AtomicU64,
    /// Detection latency of the last auto-failover, in milliseconds
    /// (maintained by the protocol, mirrored from the supervisor).
    pub detection_ms_last: AtomicU64,
}

/// A running reactor service. Dropping it shuts down gracefully.
pub struct NetServer<P: Proto> {
    shared: Arc<Shared<P>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<SocketAddr>>>,
    /// Clone of the acceptor's listener (same open file description),
    /// kept so shutdown can flip it nonblocking if the self-connect
    /// wake fails — see [`NetServer::shutdown`].
    wake_listener: Option<TcpListener>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    done: bool,
}

impl<P: Proto> NetServer<P> {
    /// Bind, spawn acceptor + reactor + worker threads, and serve
    /// `proto` until [`NetServer::shutdown`].
    pub fn start(
        proto: Arc<P>,
        config: NetConfig,
        stats: Arc<ServiceStats>,
    ) -> io::Result<NetServer<P>> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let nreactors = config.reactors.max(1);
        let nworkers = config.workers.max(1);

        let mut reactor_shared = Vec::with_capacity(nreactors);
        let mut reactor_parts = Vec::with_capacity(nreactors);
        for _ in 0..nreactors {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let mut poller = Poller::new()?;
            poller.add(rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
            reactor_shared.push(Arc::new(reactor::ReactorShared::new(tx)));
            reactor_parts.push((poller, rx));
        }

        let shared = Arc::new(Shared {
            proto,
            admission: Admission::new(config.max_connections, config.max_queued_statements),
            queue: FairQueue::new(),
            reactors: reactor_shared,
            epoch: Instant::now(),
            next_token: AtomicU64::new(0),
            stop_accept: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            force_close: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            stats,
            config,
        });

        let mut reactors = Vec::with_capacity(nreactors);
        for (i, (poller, rx)) in reactor_parts.into_iter().enumerate() {
            let shared = shared.clone();
            let rs = shared.reactors[i].clone();
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("imci-reactor-{i}"))
                    .spawn(move || reactor::reactor_loop(shared, rs, poller, rx))?,
            );
        }
        let mut workers = Vec::with_capacity(nworkers);
        for i in 0..nworkers {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("imci-worker-{i}"))
                    .spawn(move || reactor::worker_loop(shared))?,
            );
        }
        let wake_listener = listener.try_clone().ok();
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("imci-acceptor".to_string())
                .spawn(move || reactor::acceptor_loop(shared, listener))?
        };

        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            wake_listener,
            reactors,
            workers,
            done: false,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn stats(&self) -> &ServiceStats {
        &self.shared.stats
    }

    /// Graceful shutdown: stop accepting, let queued statements finish,
    /// send every session a farewell frame, then close. Sessions still
    /// open after `drain_timeout` are force-closed.
    pub fn shutdown(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let shared = &self.shared;

        shared.stop_accept.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway
        // connection (it re-checks the flag before serving it).
        // Loopback connects can transiently fail — SYN backlog full,
        // ephemeral-port exhaustion — and a lost wake here used to
        // leave the join below parked forever. Retry briefly, then
        // fall back to flipping the shared listener nonblocking: the
        // clone shares the open file description, so once any queued
        // connection (or spurious readiness) returns, every later
        // accept yields WouldBlock and the loop sees the stop flag.
        let mut woke = None;
        for attempt in 0..3 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            if let Ok(wake) = TcpStream::connect(self.local_addr) {
                woke = wake.local_addr().ok();
                break;
            }
        }
        if woke.is_none() {
            if let Some(l) = &self.wake_listener {
                let _ = l.set_nonblocking(true);
            }
        }
        if let Some(h) = self.acceptor.take() {
            // Bounded: a wedged acceptor must not hang shutdown. Past
            // the deadline the thread is abandoned — stop_accept makes
            // it exit the moment its accept ever returns.
            let join_deadline = Instant::now() + Duration::from_secs(1);
            while !h.is_finished() && Instant::now() < join_deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if h.is_finished() {
                // Sessions still in the backlog got the goodbye; the
                // wake connection is not a session.
                let greeted = h.join().unwrap_or_default();
                let sessions = greeted.iter().filter(|&&peer| Some(peer) != woke);
                shared
                    .stats
                    .drained
                    .fetch_add(sessions.count() as u64, Ordering::SeqCst);
            }
        }

        shared.draining.store(true, Ordering::SeqCst);
        shared.wake_all();
        let deadline = Instant::now() + shared.config.drain_timeout;
        while shared.stats.active_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if shared.stats.active_sessions.load(Ordering::SeqCst) > 0 {
            shared.force_close.store(true, Ordering::SeqCst);
            let force_deadline = Instant::now() + Duration::from_secs(1);
            while shared.stats.active_sessions.load(Ordering::SeqCst) > 0
                && Instant::now() < force_deadline
            {
                shared.wake_all();
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        // Workers first (they may still be flushing final frames), then
        // the reactors that own the sockets.
        shared.queue.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        shared.stop.store(true, Ordering::SeqCst);
        shared.wake_all();
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

impl<P: Proto> Drop for NetServer<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// Line-echo protocol exercising every service-tier hook: `echo:`
    /// replies, `slow` statements that occupy a worker, `tenant <t>`
    /// switches the fairness lane, `quit` closes.
    struct EchoProto {
        slow_ms: u64,
    }

    enum EchoUnit {
        Line(String),
        Busy,
        Bye(&'static str),
        Quit,
    }

    impl Proto for EchoProto {
        type Parse = ();
        type Exec = u64;
        type Unit = EchoUnit;

        fn open(&self) -> ((), u64) {
            ((), 0)
        }

        fn decode(&self, _p: &mut (), buf: &mut InputBuf) -> Step<EchoUnit> {
            match buf.take_line() {
                None => Step::NeedMore,
                Some(raw) => {
                    let line = String::from_utf8_lossy(&raw).trim().to_string();
                    if line == "quit" {
                        Step::Poison(EchoUnit::Quit)
                    } else {
                        Step::Unit(EchoUnit::Line(line))
                    }
                }
            }
        }

        fn cost(&self, unit: &EchoUnit) -> usize {
            match unit {
                EchoUnit::Line(l) if !l.starts_with("tenant ") => 1,
                _ => 0,
            }
        }

        fn tenant_of<'u>(&self, unit: &'u EchoUnit) -> Option<&'u str> {
            match unit {
                EchoUnit::Line(l) => l.strip_prefix("tenant "),
                _ => None,
            }
        }

        fn reject(&self, _unit: EchoUnit) -> EchoUnit {
            EchoUnit::Busy
        }

        fn goodbye(&self, why: Goodbye) -> EchoUnit {
            EchoUnit::Bye(match why {
                Goodbye::Drain => "drain",
                Goodbye::IdleTimeout => "idle",
            })
        }

        fn over_budget_frame(&self) -> Vec<u8> {
            b"busy: connection budget\n".to_vec()
        }

        fn run(&self, exec: &mut u64, units: Vec<EchoUnit>, out: &mut Vec<u8>) -> RunOutcome {
            let mut outcome = RunOutcome::default();
            for unit in units {
                match unit {
                    EchoUnit::Line(l) => {
                        if l.starts_with("slow") {
                            std::thread::sleep(Duration::from_millis(self.slow_ms));
                        }
                        *exec += 1;
                        out.extend_from_slice(format!("echo: {l}\n").as_bytes());
                    }
                    EchoUnit::Busy => out.extend_from_slice(b"busy: queue full\n"),
                    EchoUnit::Bye(why) => {
                        out.extend_from_slice(format!("bye: {why}\n").as_bytes());
                        outcome.close = true;
                    }
                    EchoUnit::Quit => outcome.close = true,
                }
            }
            outcome
        }
    }

    fn echo_server(slow_ms: u64, tweak: impl FnOnce(&mut NetConfig)) -> NetServer<EchoProto> {
        let mut config = NetConfig {
            reactors: 1,
            workers: 2,
            ..NetConfig::default()
        };
        tweak(&mut config);
        NetServer::start(
            Arc::new(EchoProto { slow_ms }),
            config,
            Arc::new(ServiceStats::default()),
        )
        .expect("start echo server")
    }

    fn read_line(r: &mut impl BufRead) -> String {
        let mut s = String::new();
        r.read_line(&mut s).expect("read line");
        s
    }

    #[test]
    fn echoes_pipelined_lines_in_order() {
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut req = String::new();
        for i in 0..100 {
            req.push_str(&format!("msg-{i}\n"));
        }
        conn.write_all(req.as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for i in 0..100 {
            assert_eq!(read_line(&mut reader), format!("echo: msg-{i}\n"));
        }
        conn.write_all(b"quit\n").unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "quit closes without a frame");
        srv.shutdown();
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn half_close_after_burst_still_answers_every_request() {
        // Write-then-shutdown(Write) clients deliver their requests and
        // the FIN in the same epoll pass (EPOLLIN|EPOLLRDHUP in one
        // event). The reactor once pre-set eof from the hangup flag,
        // which skipped the read loop and closed without answering the
        // buffered requests.
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut req = String::new();
        for i in 0..20 {
            req.push_str(&format!("fin-{i}\n"));
        }
        conn.write_all(req.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(conn);
        for i in 0..20 {
            assert_eq!(read_line(&mut reader), format!("echo: fin-{i}\n"));
        }
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "server closes cleanly after the final reply");
        srv.shutdown();
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn saturated_statement_queue_sheds_with_ordered_busy_replies() {
        let mut srv = echo_server(300, |c| {
            c.workers = 1;
            c.max_queued_statements = 2;
        });
        // Occupy the single worker with a slow statement.
        let mut hog = TcpStream::connect(srv.local_addr()).unwrap();
        hog.write_all(b"slow-1\n").unwrap();
        std::thread::sleep(Duration::from_millis(60));

        // Burst past the queue budget on a second connection.
        let mut burst = TcpStream::connect(srv.local_addr()).unwrap();
        for i in 0..10 {
            burst.write_all(format!("b-{i}\n").as_bytes()).unwrap();
        }
        let mut reader = BufReader::new(burst.try_clone().unwrap());
        let replies: Vec<String> = (0..10).map(|_| read_line(&mut reader)).collect();
        let busy = replies.iter().filter(|r| r.starts_with("busy:")).count();
        let echoed = replies.iter().filter(|r| r.starts_with("echo:")).count();
        assert!(busy > 0, "queue budget must shed: {replies:?}");
        assert_eq!(busy + echoed, 10, "every request gets a reply in order");
        assert!(
            srv.stats().busy_rejected_stmts.load(Ordering::SeqCst) >= busy as u64,
            "shed statements are counted"
        );

        // The shed connection is still usable once load passes.
        let mut reader2 = BufReader::new(BufReader::into_inner(reader));
        drop(hog);
        std::thread::sleep(Duration::from_millis(350));
        burst.write_all(b"after\n").unwrap();
        assert_eq!(read_line(&mut reader2), "echo: after\n");
        srv.shutdown();
    }

    #[test]
    fn connection_budget_refuses_with_busy_frame_and_frees_on_close() {
        let mut srv = echo_server(0, |c| c.max_connections = 1);
        let mut first = TcpStream::connect(srv.local_addr()).unwrap();
        first.write_all(b"hi\n").unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        assert_eq!(read_line(&mut reader), "echo: hi\n");

        let mut second = TcpStream::connect(srv.local_addr()).unwrap();
        let mut refusal = String::new();
        second.read_to_string(&mut refusal).unwrap();
        assert_eq!(refusal, "busy: connection budget\n");
        assert_eq!(srv.stats().busy_rejected_conns.load(Ordering::SeqCst), 1);

        // Budget is released once the first connection closes.
        first.write_all(b"quit\n").unwrap();
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut third_reply = String::new();
        while Instant::now() < deadline {
            let mut third = TcpStream::connect(srv.local_addr()).unwrap();
            third.write_all(b"again\n").unwrap();
            third_reply.clear();
            let mut r = BufReader::new(third);
            r.read_line(&mut third_reply).unwrap();
            if third_reply == "echo: again\n" {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(third_reply, "echo: again\n");
        srv.shutdown();
    }

    #[test]
    fn idle_connections_get_a_goodbye_then_eof() {
        let mut srv = echo_server(0, |c| c.idle_timeout = Some(Duration::from_millis(100)));
        let conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(conn);
        let start = Instant::now();
        assert_eq!(read_line(&mut reader), "bye: idle\n");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "not closed before the timeout"
        );
        assert_eq!(srv.stats().idle_closed.load(Ordering::SeqCst), 1);
        srv.shutdown();
    }

    #[test]
    fn active_traffic_is_not_idle_closed() {
        let mut srv = echo_server(0, |c| c.idle_timeout = Some(Duration::from_millis(150)));
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        // Keep touching the connection for 3 timeout-lengths.
        for i in 0..9 {
            std::thread::sleep(Duration::from_millis(50));
            conn.write_all(format!("ping-{i}\n").as_bytes()).unwrap();
            assert_eq!(read_line(&mut reader), format!("echo: ping-{i}\n"));
        }
        assert_eq!(srv.stats().idle_closed.load(Ordering::SeqCst), 0);
        srv.shutdown();
    }

    #[test]
    fn graceful_drain_answers_queued_work_then_says_goodbye() {
        let mut srv = echo_server(100, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(b"slow-before-drain\n").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let handle = std::thread::spawn(move || {
            srv.shutdown();
            srv
        });
        let mut reader = BufReader::new(conn);
        assert_eq!(read_line(&mut reader), "echo: slow-before-drain\n");
        assert_eq!(read_line(&mut reader), "bye: drain\n");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
        let srv = handle.join().unwrap();
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
        assert_eq!(srv.stats().drained.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_says_goodbye_to_connections_parked_in_the_backlog() {
        let srv = echo_server(0, |_| {});
        let addr = srv.local_addr();
        let shared = srv.shared.clone();
        // Holding the reactor's inbox parks the acceptor right after
        // its first accept, so every later connection waits in the
        // kernel backlog, handshake complete, until shutdown.
        let inbox = shared.reactors[0].inbox.lock();
        let conns: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut srv = srv;
        let shutter = std::thread::spawn(move || {
            srv.shutdown();
            srv
        });
        while !shared.stop_accept.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(inbox);
        for conn in conns {
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(conn);
            assert_eq!(read_line(&mut reader), "bye: drain\n");
            let mut rest = String::new();
            reader.read_to_string(&mut rest).unwrap();
            assert_eq!(rest, "");
        }
        let srv = shutter.join().unwrap();
        assert_eq!(srv.stats().drained.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn light_tenant_is_not_starved_by_heavy_pipeliner() {
        let mut srv = echo_server(40, |c| {
            c.workers = 1;
            c.worker_quantum = 1;
        });
        let mut heavy = TcpStream::connect(srv.local_addr()).unwrap();
        heavy.write_all(b"tenant heavy\n").unwrap();
        let mut req = String::new();
        for i in 0..20 {
            req.push_str(&format!("slow-h{i}\n"));
        }
        heavy.write_all(req.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(60));

        let mut light = TcpStream::connect(srv.local_addr()).unwrap();
        light.write_all(b"tenant light\nslow-l0\n").unwrap();
        let start = Instant::now();
        let mut reader = BufReader::new(light);
        assert_eq!(read_line(&mut reader), "echo: tenant light\n");
        assert_eq!(read_line(&mut reader), "echo: slow-l0\n");
        let waited = start.elapsed();
        // Round-robin lanes: the light tenant waits O(one quantum), not
        // for the heavy tenant's whole 20 × 40ms backlog.
        assert!(
            waited < Duration::from_millis(400),
            "light tenant starved for {waited:?}"
        );
        srv.shutdown();
    }

    #[test]
    fn slow_loris_byte_at_a_time_still_gets_served() {
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        for b in b"dripfeed\n" {
            conn.write_all(&[*b]).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = BufReader::new(conn);
        assert_eq!(read_line(&mut reader), "echo: dripfeed\n");
        srv.shutdown();
    }

    #[test]
    fn shutdown_wake_fallback_unblocks_a_nonblocking_acceptor() {
        let mut srv = echo_server(0, |_| {});
        // Simulate the fallback wake: flip the shared listener
        // nonblocking while the acceptor is parked in accept(). The
        // clone shares the open file description, so this reaches the
        // acceptor's fd.
        srv.wake_listener
            .as_ref()
            .expect("wake listener clone")
            .set_nonblocking(true)
            .unwrap();
        // One real connection pops the already-parked blocking accept;
        // every accept after it returns WouldBlock.
        drop(TcpStream::connect(srv.local_addr()).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        srv.shared.stop_accept.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(2);
        while !srv.acceptor.as_ref().unwrap().is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            srv.acceptor.as_ref().unwrap().is_finished(),
            "acceptor must exit via the WouldBlock path once stop_accept is set"
        );
        srv.shutdown();
    }
}
