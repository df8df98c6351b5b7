//! The reactor threads, the blocking acceptor, and the worker pool.
//!
//! Threading model:
//!
//! - One acceptor thread blocks in `accept`, applies the connection
//!   budget, and hands admitted sockets to a reactor round-robin.
//! - `reactors` threads each own an epoll instance, a token→connection
//!   map, and a timer wheel. Only the owning reactor calls `epoll_ctl`
//!   for its fds; workers reach it through a dirty-token list plus a
//!   socketpair waker.
//! - `workers` threads block on the per-tenant fair queue and execute
//!   decoded units. A connection is held by at most one worker at a
//!   time (the `scheduled` flag), which gives strict per-connection
//!   response ordering without per-connection threads.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use epoll::{Interest, Poller};
use parking_lot::Mutex;

use crate::admission::{Admission, FairQueue};
use crate::conn::{Conn, OutBuf, ParseState, Queue};
use crate::{Goodbye, NetConfig, Proto, ServiceStats, Step};

/// Reserved token for each reactor's waker pipe.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

const READ_CHUNK: usize = 16 * 1024;
/// Per-event-loop-pass read cap per connection, so one firehose peer
/// cannot monopolise a reactor (level-triggered epoll re-reports).
const READ_BURST: usize = 256 * 1024;
/// Write backpressure: pause reads above HIGH, resume below LOW.
const HIGH_WATER: usize = 256 * 1024;
const LOW_WATER: usize = 64 * 1024;

/// Everything shared by the acceptor, reactors, and workers.
pub(crate) struct Shared<P: Proto> {
    pub proto: Arc<P>,
    pub config: NetConfig,
    pub stats: Arc<ServiceStats>,
    pub admission: Admission,
    pub queue: FairQueue<P>,
    pub reactors: Vec<Arc<ReactorShared<P>>>,
    pub epoch: Instant,
    pub next_token: AtomicU64,
    pub stop_accept: AtomicBool,
    /// Graceful shutdown: stop reading, run queued work, say goodbye.
    pub draining: AtomicBool,
    /// Drain deadline passed: reap every connection immediately.
    pub force_close: AtomicBool,
    /// Reactor threads exit.
    pub stop: AtomicBool,
}

impl<P: Proto> Shared<P> {
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    pub fn wake_all(&self) {
        for r in &self.reactors {
            r.wake();
        }
    }
}

/// The cross-thread face of one reactor: new connections and dirty
/// tokens go in, a waker byte makes the epoll wait return.
pub(crate) struct ReactorShared<P: Proto> {
    waker_tx: UnixStream,
    pub dirty: Mutex<Vec<u64>>,
    pub inbox: Mutex<Vec<Arc<Conn<P>>>>,
}

impl<P: Proto> ReactorShared<P> {
    pub fn new(waker_tx: UnixStream) -> Self {
        ReactorShared {
            waker_tx,
            dirty: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
        }
    }

    pub fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker_tx).write(&[1]);
    }

    pub fn nudge(&self, token: u64) {
        self.dirty.lock().push(token);
        self.wake();
    }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

/// Accept connections until `stop_accept`; then say the drain goodbye to
/// every connection still waiting and return their peer addresses (the
/// caller tells its own wake connection apart from client sessions).
pub(crate) fn acceptor_loop<P: Proto>(
    shared: Arc<Shared<P>>,
    listener: TcpListener,
) -> Vec<SocketAddr> {
    let mut next = 0usize;
    loop {
        let incoming = listener.accept().map(|(s, _)| s);
        if shared.stop_accept.load(Ordering::SeqCst) {
            // The kernel already completed the handshake of this
            // connection and of every one still in the backlog: each
            // gets the drain goodbye before the listener drops, never a
            // silent close. Like the over-budget frame, it fits the
            // send buffer, so a non-reading peer cannot block us.
            let (_, mut exec) = shared.proto.open();
            let mut goodbye = Vec::new();
            shared.proto.run(
                &mut exec,
                vec![shared.proto.goodbye(Goodbye::Drain)],
                &mut goodbye,
            );
            let nonblocking = listener.set_nonblocking(true).is_ok();
            let backlog = std::iter::from_fn(|| {
                nonblocking
                    .then(|| listener.accept().ok().map(|(s, _)| s))
                    .flatten()
            });
            let mut greeted = Vec::new();
            for mut s in incoming.ok().into_iter().chain(backlog) {
                let _ = s.set_nodelay(true);
                let _ = s.write_all(&goodbye);
                let _ = s.shutdown(Shutdown::Both);
                greeted.extend(s.peer_addr());
            }
            return greeted;
        }
        let stream = match incoming {
            Ok(s) => s,
            Err(e) => {
                // WouldBlock only happens after shutdown flipped the
                // listener nonblocking (the fallback wake); don't spin
                // on it while the stop flag is still unset.
                if e.kind() == std::io::ErrorKind::WouldBlock {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                continue;
            }
        };
        shared.stats.connections.fetch_add(1, Ordering::SeqCst);
        let admitted = !shared.draining.load(Ordering::SeqCst) && shared.admission.try_conn();
        if !admitted {
            // Over budget: a one-frame busy refusal, then close. The
            // frame is small enough to fit the kernel send buffer, so a
            // non-reading peer cannot block the acceptor.
            shared
                .stats
                .busy_rejected_conns
                .fetch_add(1, Ordering::SeqCst);
            let mut s = stream;
            let _ = s.set_nodelay(true);
            let _ = s.write_all(&shared.proto.over_budget_frame());
            let _ = s.shutdown(Shutdown::Both);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            shared.admission.release_conn();
            continue;
        }
        let _ = stream.set_nodelay(true);
        let reactor = shared.reactors[next % shared.reactors.len()].clone();
        next += 1;
        let token = shared.next_token.fetch_add(1, Ordering::SeqCst);
        let (parse, exec) = shared.proto.open();
        let conn = Arc::new(Conn {
            token,
            stream,
            reactor: reactor.clone(),
            parse: Mutex::new(ParseState {
                parse,
                inbuf: crate::buf::InputBuf::new(),
                poisoned: false,
            }),
            q: Mutex::new(Queue {
                units: std::collections::VecDeque::new(),
                exec: Some(exec),
                scheduled: false,
                finalized: false,
            }),
            out: Mutex::new(OutBuf::default()),
            tenant: Mutex::new(Arc::from("")),
            eof: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(shared.now_ms()),
            interest_cache: std::sync::atomic::AtomicU8::new(0b01),
        });
        shared.stats.active_sessions.fetch_add(1, Ordering::SeqCst);
        reactor.inbox.lock().push(conn);
        reactor.wake();
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

pub(crate) fn reactor_loop<P: Proto>(
    shared: Arc<Shared<P>>,
    rs: Arc<ReactorShared<P>>,
    mut poller: Poller,
    waker_rx: UnixStream,
) {
    let idle = shared.config.idle_timeout;
    let mut wheel = idle.map(|d| crate::timer::TimerWheel::new(d.as_millis() as u64));
    let mut conns: HashMap<u64, Arc<Conn<P>>> = HashMap::new();
    let mut events = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut expired = Vec::new();
    let mut drain_started = false;

    loop {
        let timeout = match &wheel {
            Some(w) => w
                .next_timeout_ms(shared.now_ms())
                .map(|t| t.clamp(1, 60_000))
                .unwrap_or(60_000),
            None => 60_000,
        } as i32;
        events.clear();
        let _ = poller.wait(&mut events, timeout);

        for ev in &events {
            if ev.token == WAKE_TOKEN {
                while let Ok(n) = (&waker_rx).read(&mut scratch) {
                    if n < scratch.len() {
                        break;
                    }
                }
                continue;
            }
            let Some(conn) = conns.get(&ev.token).cloned() else {
                continue;
            };
            if conn.is_closed() {
                continue;
            }
            if ev.writable {
                conn.try_flush();
            }
            if ev.readable || ev.hangup {
                // EPOLLHUP/RDHUP often arrives in the same pass as the
                // peer's final bytes (write-then-close clients). eof is
                // set from read results inside handle_read, never
                // pre-set here, so those bytes are still drained and
                // answered.
                handle_read(&shared, &conn, &mut scratch, ev.hangup);
            }
            refresh(&shared, &mut poller, &mut conns, &conn);
        }

        // Register newcomers handed over by the acceptor.
        let newcomers: Vec<_> = std::mem::take(&mut *rs.inbox.lock());
        for conn in newcomers {
            use std::os::fd::AsRawFd;
            let now = shared.now_ms();
            conn.last_activity_ms.store(now, Ordering::SeqCst);
            if poller
                .add(conn.stream.as_raw_fd(), conn.token, Interest::READ)
                .is_err()
            {
                release_conn_resources(&shared, &conn);
                continue;
            }
            if let (Some(w), Some(d)) = (wheel.as_mut(), idle) {
                w.insert(conn.token, now + d.as_millis() as u64);
            }
            if shared.draining.load(Ordering::SeqCst) {
                begin_goodbye(&shared, &conn, Goodbye::Drain);
            }
            conns.insert(conn.token, conn);
        }

        // Tokens nudged by workers (flush transitions, closes).
        let dirty: Vec<u64> = std::mem::take(&mut *rs.dirty.lock());
        for token in dirty {
            let Some(conn) = conns.get(&token).cloned() else {
                continue;
            };
            refresh(&shared, &mut poller, &mut conns, &conn);
        }

        // Idle deadlines.
        if let (Some(w), Some(d)) = (wheel.as_mut(), idle) {
            let now = shared.now_ms();
            expired.clear();
            w.expire(now, &mut expired);
            let idle_ms = d.as_millis() as u64;
            for &token in &expired {
                let Some(conn) = conns.get(&token).cloned() else {
                    continue;
                };
                let last = conn.last_activity_ms.load(Ordering::SeqCst);
                let busy = {
                    let q = conn.q.lock();
                    q.scheduled || !q.units.is_empty()
                } || conn.out.lock().pending() > 0;
                if busy || now < last.saturating_add(idle_ms) {
                    // Lazy re-arm at the true (possibly moved) deadline.
                    w.insert(token, last.saturating_add(idle_ms).max(now + 1));
                } else {
                    shared.stats.idle_closed.fetch_add(1, Ordering::SeqCst);
                    begin_goodbye(&shared, &conn, Goodbye::IdleTimeout);
                    refresh(&shared, &mut poller, &mut conns, &conn);
                }
            }
        }

        // Graceful drain: one goodbye per live connection.
        if shared.draining.load(Ordering::SeqCst) && !drain_started {
            drain_started = true;
            for conn in conns.values().cloned().collect::<Vec<_>>() {
                begin_goodbye(&shared, &conn, Goodbye::Drain);
                refresh(&shared, &mut poller, &mut conns, &conn);
            }
        }

        if shared.force_close.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst) {
            for conn in conns.values().cloned().collect::<Vec<_>>() {
                finalize(&shared, &mut poller, &mut conns, &conn);
            }
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}

/// Read, decode, and enqueue as much as the socket and backpressure
/// allow. `hangup` means the poller reported HUP/RDHUP for this event:
/// the peer sends nothing further, but bytes already buffered in the
/// kernel must still be drained before the connection may close.
fn handle_read<P: Proto>(
    shared: &Arc<Shared<P>>,
    conn: &Arc<Conn<P>>,
    scratch: &mut [u8],
    hangup: bool,
) {
    {
        let mut ps = conn.parse.lock();
        let mut read_total = 0usize;
        while !ps.poisoned && !conn.eof.load(Ordering::SeqCst) {
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    conn.eof.store(true, Ordering::SeqCst);
                }
                Ok(n) => {
                    conn.last_activity_ms
                        .store(shared.now_ms(), Ordering::SeqCst);
                    ps.inbuf.append(&scratch[..n]);
                    read_total += n;
                    decode_all(shared, conn, &mut ps);
                    if conn.out.lock().pending() > HIGH_WATER {
                        conn.paused.store(true, Ordering::SeqCst);
                        break;
                    }
                    if read_total >= READ_BURST || n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Post-hangup the socket is fully drained once it
                    // would block; no later readable event delivers the
                    // final 0, so this is the EOF.
                    if hangup {
                        conn.eof.store(true, Ordering::SeqCst);
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.eof.store(true, Ordering::SeqCst);
                }
            }
        }
        if hangup && ps.poisoned {
            // Decoding already stopped (goodbye/poison queued); with
            // the peer gone there is nothing left to read, so record
            // the EOF the skipped loop would have seen.
            conn.eof.store(true, Ordering::SeqCst);
        }
    }
    if conn.eof.load(Ordering::SeqCst) {
        // No more requests will arrive; once the unit queue is idle the
        // close belongs to whoever notices last (here, or the worker
        // that drains the final unit).
        let q = conn.q.lock();
        if q.units.is_empty() && !q.scheduled {
            drop(q);
            conn.out.lock().closing = true;
            conn.try_flush();
        }
    }
}

fn decode_all<P: Proto>(
    shared: &Arc<Shared<P>>,
    conn: &Arc<Conn<P>>,
    ps: &mut crate::conn::ParseState<P>,
) {
    while !ps.poisoned {
        match shared.proto.decode(&mut ps.parse, &mut ps.inbuf) {
            Step::NeedMore => break,
            Step::Unit(u) => enqueue(shared, conn, u),
            Step::Poison(u) => {
                ps.poisoned = true;
                enqueue(shared, conn, u);
            }
        }
    }
}

/// Admission-check a decoded unit and append it to the connection's
/// ordered queue, scheduling the connection if it wasn't already.
fn enqueue<P: Proto>(shared: &Arc<Shared<P>>, conn: &Arc<Conn<P>>, unit: P::Unit) {
    if let Some(t) = shared.proto.tenant_of(&unit) {
        let mut tenant = conn.tenant.lock();
        if &**tenant != t {
            *tenant = Arc::from(t);
        }
    }
    let want = shared.proto.cost(&unit);
    let (unit, cost) = if shared.admission.try_stmts(want) {
        (unit, want)
    } else {
        // Shed: replace with the protocol's retryable rejection, which
        // stays in order so the client sees it exactly where the
        // statement's response would have been.
        shared
            .stats
            .busy_rejected_stmts
            .fetch_add(1, Ordering::SeqCst);
        (shared.proto.reject(unit), 0)
    };
    let mut q = conn.q.lock();
    if q.finalized {
        drop(q);
        shared.admission.release_stmts(cost);
        return;
    }
    q.units.push_back((unit, cost));
    if !q.scheduled {
        q.scheduled = true;
        shared.queue.push(conn.clone());
    }
}

/// Enqueue the protocol's farewell unit (which responds and closes) and
/// stop decoding further input.
fn begin_goodbye<P: Proto>(shared: &Arc<Shared<P>>, conn: &Arc<Conn<P>>, why: Goodbye) {
    conn.parse.lock().poisoned = true;
    let mut q = conn.q.lock();
    if q.finalized {
        return;
    }
    q.finalized = true;
    if why == Goodbye::Drain {
        shared.stats.drained.fetch_add(1, Ordering::SeqCst);
    }
    q.units.push_back((shared.proto.goodbye(why), 0));
    if !q.scheduled {
        q.scheduled = true;
        shared.queue.push(conn.clone());
    }
}

/// Recompute a connection's epoll interest from its current state, or
/// finalize it if its flush finished (or failed) with `closing` set.
fn refresh<P: Proto>(
    shared: &Arc<Shared<P>>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Arc<Conn<P>>>,
    conn: &Arc<Conn<P>>,
) {
    use std::os::fd::AsRawFd;
    if conn.is_closed() {
        return;
    }
    let (close_now, want_write, pending) = {
        let o = conn.out.lock();
        (o.close_now, o.want_write, o.pending())
    };
    if close_now {
        finalize(shared, poller, conns, conn);
        return;
    }
    if conn.paused.load(Ordering::SeqCst) && pending <= LOW_WATER {
        conn.paused.store(false, Ordering::SeqCst);
    }
    let readable = !shared.draining.load(Ordering::SeqCst)
        && !conn.eof.load(Ordering::SeqCst)
        && !conn.paused.load(Ordering::SeqCst)
        && !conn.parse.lock().poisoned;
    let desired = (readable as u8) | ((want_write as u8) << 1);
    // Only the reactor thread touches the cache, and only after the
    // kernel accepted the change — a failed epoll_ctl must leave the
    // cache on the old value so the next refresh retries instead of
    // silently desyncing from the kernel.
    if conn.interest_cache.load(Ordering::SeqCst) != desired
        && poller
            .modify(
                conn.stream.as_raw_fd(),
                conn.token,
                Interest {
                    readable,
                    writable: want_write,
                },
            )
            .is_ok()
    {
        conn.interest_cache.store(desired, Ordering::SeqCst);
    }
    if readable {
        // Backpressure may have lifted with bytes already buffered:
        // decode them now, since epoll will not re-report old data.
        let mut ps = conn.parse.lock();
        if !ps.inbuf.is_empty() {
            decode_all(shared, conn, &mut ps);
        }
    }
}

/// Deregister, release budgets, and drop the connection. Terminal and
/// idempotent.
fn finalize<P: Proto>(
    shared: &Arc<Shared<P>>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Arc<Conn<P>>>,
    conn: &Arc<Conn<P>>,
) {
    use std::os::fd::AsRawFd;
    if conn.closed.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = poller.delete(conn.stream.as_raw_fd());
    conns.remove(&conn.token);
    let _ = conn.stream.shutdown(Shutdown::Both);
    release_conn_resources(shared, conn);
}

fn release_conn_resources<P: Proto>(shared: &Arc<Shared<P>>, conn: &Arc<Conn<P>>) {
    let freed: usize = {
        let mut q = conn.q.lock();
        let freed = q.units.iter().map(|&(_, c)| c).sum();
        q.units.clear();
        q.finalized = true;
        freed
    };
    shared.admission.release_stmts(freed);
    shared.admission.release_conn();
    shared.stats.active_sessions.fetch_sub(1, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

pub(crate) fn worker_loop<P: Proto>(shared: Arc<Shared<P>>) {
    let quantum = shared.config.worker_quantum.max(1);
    let mut out = Vec::new();
    while let Some(conn) = shared.queue.pop() {
        if conn.is_closed() {
            conn.q.lock().scheduled = false;
            continue;
        }
        // Take the session state and up to one quantum of ordered units.
        let (mut exec, units, cost) = {
            let mut q = conn.q.lock();
            let Some(exec) = q.exec.take() else {
                q.scheduled = false;
                continue;
            };
            let mut units = Vec::new();
            let mut cost = 0usize;
            while q
                .units
                .front()
                .is_some_and(|&(_, c)| units.is_empty() || cost + c <= quantum)
            {
                let Some((u, c)) = q.units.pop_front() else {
                    break;
                };
                cost += c;
                units.push(u);
            }
            (exec, units, cost)
        };
        let outcome = if units.is_empty() {
            crate::RunOutcome::default()
        } else {
            out.clear();
            let outcome = shared.proto.run(&mut exec, units, &mut out);
            shared.admission.release_stmts(cost);
            let mut o = conn.out.lock();
            if !conn.is_closed() {
                o.buf.extend_from_slice(&out);
            }
            if outcome.close {
                o.closing = true;
            }
            drop(o);
            conn.try_flush();
            outcome
        };
        let mut q = conn.q.lock();
        q.exec = Some(exec);
        if outcome.close {
            // Close supersedes anything the client pipelined behind it.
            let freed: usize = q.units.iter().map(|&(_, c)| c).sum();
            q.units.clear();
            q.finalized = true;
            q.scheduled = false;
            drop(q);
            shared.admission.release_stmts(freed);
        } else if !q.units.is_empty() {
            // More ordered work: go back to the tenant lane, keeping
            // the scheduled flag (still exactly one queue entry).
            drop(q);
            shared.queue.push(conn.clone());
        } else {
            q.scheduled = false;
            let eof = conn.eof.load(Ordering::SeqCst);
            drop(q);
            if eof {
                conn.out.lock().closing = true;
                conn.try_flush();
            }
        }
        // Wake the owning reactor only when this turn left something
        // it must act on: a finished/broken connection to finalize, a
        // short write to re-arm EPOLLOUT for, or a backpressure pause
        // to lift now that the buffer drained. The common fully-flushed
        // turn changes none of these, and skipping the waker write
        // spares a syscall plus a reactor pass per worker turn.
        // (`closing` with a drained buffer became `close_now` inside
        // `try_flush` above, so checking the flags after the flush is
        // exhaustive. If the reactor pauses this connection
        // concurrently with our check reading `false`, its same-pass
        // `refresh` observes the already-drained buffer and unpauses
        // without our nudge.)
        let needs_reactor = {
            let o = conn.out.lock();
            o.close_now || o.want_write || o.closing
        } || conn.paused.load(Ordering::SeqCst);
        if needs_reactor {
            conn.nudge();
        }
    }
}
