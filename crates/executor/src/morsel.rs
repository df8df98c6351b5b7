//! Shared morsel worker pool (paper §6.2 executor fan-out).
//!
//! One process-global pool, sized by `available_parallelism`, executes
//! *morsels* on behalf of every concurrently running query. A morsel is
//! one pipeline run over one unit of input — a pinned row group (or a
//! breaker's output) taken through the pipeline's filters,
//! projections and join probes into its sink's partial — or one
//! partition of a join's key maps. Two scheduling rules keep the
//! shared pool deadlock-free no matter how many queries overlap:
//!
//! * only a query's orchestrator thread (the `execute` caller) ever
//!   blocks waiting for results; pool tasks never wait on other tasks
//!   or dispatch nested morsel runs, so every submitted job completes.
//!   The executor keeps this by running every build side and breaker
//!   a pipeline depends on from the orchestrator before it dispatches
//!   the pipeline;
//! * a query dispatches at most `ExecContext::parallelism` *runner*
//!   tasks. Each runner pulls morsel indices from a shared counter
//!   (dynamic load balancing across uneven morsels) and writes its
//!   result into the morsel's own slot, so output order is a function
//!   of morsel index, never of thread scheduling.
//!
//! The pool keeps one thread per core, but a query's default
//! `parallelism` is one less (at least one), leaving a core to the write
//! path; an explicit `parallelism` may still use every thread.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Pending jobs. This lock is a leaf: it is never taken while any
    /// other lock is held, and no job runs under it.
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
}

/// The process-global worker pool behind morsel-driven execution.
pub struct WorkerPool {
    state: Arc<PoolState>,
    threads: usize,
}

impl WorkerPool {
    fn with_threads(n: usize) -> WorkerPool {
        let state = Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        });
        let mut threads = 0;
        for i in 0..n.max(1) {
            let st = state.clone();
            if std::thread::Builder::new()
                .name(format!("morsel-{i}"))
                .spawn(move || worker_loop(st))
                .is_ok()
            {
                threads += 1;
            }
        }
        // If no worker thread could be spawned, `run_morsels` falls
        // back to inline execution — degraded, never stuck.
        WorkerPool { state, threads }
    }

    /// The shared pool, created on first use and sized by the machine
    /// (`available_parallelism`). Queries cap their own share of it via
    /// `ExecContext::parallelism`, which by default leaves one thread
    /// idle.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            WorkerPool::with_threads(n)
        })
    }

    /// Worker threads actually running.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, job: Job) {
        self.state.queue.lock().push_back(job);
        self.state.work.notify_one();
    }
}

fn worker_loop(state: Arc<PoolState>) {
    loop {
        let job = {
            let mut q = state.queue.lock();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                state.work.wait(&mut q);
            }
        };
        // A panicking morsel must not take the pool thread down with
        // it: the morsel's slot stays empty and the orchestrator turns
        // that into an execution error.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

struct RunState<T> {
    /// One slot per morsel, filled in whatever order morsels finish but
    /// read back in morsel order.
    slots: Vec<Option<T>>,
    /// Runner tasks still live (a runner counts until its exit guard
    /// drops, panic included).
    runners: usize,
}

struct MorselRun<T> {
    next: AtomicUsize,
    done: Mutex<RunState<T>>,
    finished: Condvar,
}

/// Decrements the live-runner count on every exit path. Without this a
/// panic inside a morsel would leave the orchestrator waiting forever.
struct RunnerExit<T> {
    run: Arc<MorselRun<T>>,
}

impl<T> Drop for RunnerExit<T> {
    fn drop(&mut self) {
        let mut st = self.run.done.lock();
        st.runners -= 1;
        if st.runners == 0 {
            self.run.finished.notify_all();
        }
    }
}

/// Run morsels `f(0)..f(n-1)` on the shared pool with at most `par` in
/// flight, returning the results in morsel order. A `None` slot means
/// that morsel's worker panicked. Runs inline — no pool round trip —
/// when `par <= 1`, there is at most one morsel, or the pool has no
/// threads.
pub fn run_morsels<T, F>(par: usize, n: usize, f: F) -> Vec<Option<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let pool = WorkerPool::global();
    if par <= 1 || n <= 1 || pool.threads() == 0 {
        return (0..n).map(|i| Some(f(i))).collect();
    }
    let run = Arc::new(MorselRun {
        next: AtomicUsize::new(0),
        done: Mutex::new(RunState {
            slots: (0..n).map(|_| None).collect(),
            runners: par.min(n),
        }),
        finished: Condvar::new(),
    });
    let f = Arc::new(f);
    for _ in 0..par.min(n) {
        let run = run.clone();
        let f = f.clone();
        pool.submit(Box::new(move || {
            let _exit = RunnerExit { run: run.clone() };
            loop {
                let i = run.next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                run.done.lock().slots[i] = Some(v);
            }
        }));
    }
    let mut st = run.done.lock();
    while st.runners > 0 {
        run.finished.wait(&mut st);
    }
    std::mem::take(&mut st.slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_morsel_order() {
        for par in [1, 2, 4, 7] {
            let out = run_morsels(par, 40, |i| i * i);
            let got: Vec<usize> = out.into_iter().map(|v| v.unwrap()).collect();
            let want: Vec<usize> = (0..40).map(|i| i * i).collect();
            assert_eq!(got, want, "par={par}");
        }
    }

    #[test]
    fn zero_and_one_morsel_run_inline() {
        assert!(run_morsels(4, 0, |i| i).is_empty());
        assert_eq!(run_morsels(4, 1, |i| i + 1), vec![Some(1)]);
    }

    #[test]
    fn panicking_morsel_leaves_an_empty_slot() {
        let out = run_morsels(2, 8, |i| {
            assert!(i != 5, "boom");
            i
        });
        assert_eq!(out.len(), 8);
        for (i, slot) in out.iter().enumerate() {
            if i == 5 {
                assert!(slot.is_none(), "panicked morsel must stay empty");
            } else {
                assert_eq!(*slot, Some(i));
            }
        }
    }

    #[test]
    fn concurrent_runs_share_the_pool() {
        let handles: Vec<_> = (0..4)
            .map(|q| {
                std::thread::spawn(move || {
                    let out = run_morsels(3, 25, move |i| q * 100 + i);
                    out.into_iter()
                        .enumerate()
                        .all(|(i, v)| v == Some(q * 100 + i))
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
