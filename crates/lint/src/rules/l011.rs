//! L011 — no lock guard live across a call that reaches a blocking
//! sink.
//!
//! The static complement to PR 7's dynamic lock-order sentinel: the
//! sentinel catches inversions on paths tests *execute*; this rule
//! catches the other shape of lock trouble — a guard held while the
//! thread parks (sleep, condvar wait, channel recv, file IO, thread
//! join) — on every path, including the ones no test drives. Holding
//! a `parking_lot` shim guard across a park means every other thread
//! needing that lock waits out the park too; under the reactor it
//! turns one slow fd into a server-wide stall, in failover it extends
//! the detection window the lease math assumes is bounded.
//!
//! Per fn: guard live ranges from [`crate::intra::guards`]; within a
//! range, flag (a) a direct blocking site, unless it is a
//! condvar-style `.wait*(...)` that *consumes* the guard (those
//! release the lock while parked — that is their point), or (b) a
//! resolved call whose callee reaches a blocking sink per the call
//! graph's `blocking_next`, witness chain included.
//!
//! Bench/workload/example code is exempt: drivers hold locks across
//! sleeps deliberately (pacing), and nothing multiplexes behind them.

use super::{l009, Rule};
use crate::resolve::Ctx;
use crate::{intra, Finding, Workspace};

/// Path prefixes/components whose code may park while holding locks.
const EXEMPT_PREFIXES: &[&str] = &["crates/bench/", "crates/workloads/", "examples/"];

pub struct NoGuardAcrossBlocking;

impl Rule for NoGuardAcrossBlocking {
    fn id(&self) -> &'static str {
        "L011"
    }

    fn summary(&self) -> &'static str {
        "no lock guard held across a call that (transitively) blocks"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let a = ws.analysis();
        let mut out = Vec::new();
        for fid in 0..a.idx.fns.len() {
            let d = &a.idx.fns[fid];
            if d.is_test {
                continue;
            }
            let f = &ws.files[d.file];
            if EXEMPT_PREFIXES.iter().any(|p| f.rel_path.starts_with(p)) {
                continue;
            }
            let ctx = Ctx {
                file: d.file,
                crate_name: &d.crate_name,
                impl_type: d.impl_type.as_deref(),
                is_test: d.is_test,
            };
            let raw = crate::resolve::raw_calls(f, d.start, d.end);
            for g in intra::guards(f, d.start, d.end) {
                // The guard must be this fn's own binding, not a
                // nested fn's.
                let owner = f
                    .fns
                    .iter()
                    .filter(|s| s.start <= g.start && g.start <= s.end)
                    .min_by_key(|s| s.end - s.start);
                if owner.map(|s| s.start) != Some(d.start) {
                    continue;
                }
                for i in g.start..=g.end {
                    // (a) Direct blocking site under the guard.
                    if let Some(what) = l009::blocking_call_at(f, i) {
                        if consumes_guard(f, i, &g.name) {
                            continue; // condvar wait releases the lock
                        }
                        out.push(f.finding(
                            "L011",
                            f.toks[i].line,
                            format!(
                                "guard `{}` (.{}() at line {}) is held across {} — every \
                                 thread contending on that lock waits out the park",
                                g.name, g.acquire, g.line, what
                            ),
                        ));
                        continue;
                    }
                    // (b) A call whose callee transitively blocks.
                    let Some(call) = raw.iter().find(|c| c.tok == i) else {
                        continue;
                    };
                    let Some(callee) = a.idx.resolve(ws, call, &ctx) else {
                        continue;
                    };
                    if let Some((chain, sink)) = a.blocking_chain(callee) {
                        out.push(f.finding(
                            "L011",
                            call.line,
                            format!(
                                "guard `{}` (.{}() at line {}) is held across `{}`, which \
                                 reaches {} ({}) — every thread contending on that lock \
                                 waits out the park",
                                g.name,
                                g.acquire,
                                g.line,
                                call.name,
                                sink.what,
                                chain.join(" -> ")
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Does the blocking call at token `i` take `guard` as an argument
/// (condvar style: `cv.wait(guard)` / `cv.wait_while(&mut guard, ..)`)?
fn consumes_guard(f: &crate::SourceFile, i: usize, guard: &str) -> bool {
    let toks = &f.toks;
    let Some(open) = f.next_code(i + 1).filter(|&j| toks[j].is_punct('(')) else {
        return false;
    };
    let mut depth = 0i32;
    for (_, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident(guard) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace::from_files(
            std::path::PathBuf::new(),
            files
                .into_iter()
                .map(|(p, s)| SourceFile::new(p.into(), s.into()))
                .collect(),
        )
    }

    #[test]
    fn direct_block_under_guard_fires_after_drop_does_not() {
        let w = ws(vec![(
            "crates/server/src/s.rs",
            "pub fn bad(m: &Mutex<u8>) {\n  let g = m.lock();\n  \
             std::thread::sleep(d);\n}\n\
             pub fn good(m: &Mutex<u8>) {\n  let g = m.lock();\n  drop(g);\n  \
             std::thread::sleep(d);\n}\n\
             pub fn scoped(m: &Mutex<u8>) {\n  { let g = m.lock(); }\n  \
             std::thread::sleep(d);\n}\n",
        )]);
        let found = NoGuardAcrossBlocking.check(&w);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn condvar_wait_consuming_the_guard_is_exempt() {
        let w = ws(vec![(
            "crates/server/src/s.rs",
            "pub fn park(m: &Mutex<bool>, cv: &Condvar) {\n  let mut g = m.lock();\n  \
             while !*g { g = cv.wait(g); }\n}\n\
             pub fn wrong(m: &Mutex<bool>, cv: &Condvar, other: G) {\n  \
             let g = m.lock();\n  cv.wait(other);\n}\n",
        )]);
        let found = NoGuardAcrossBlocking.check(&w);
        // Waiting *on* g releases it; waiting on some other guard while
        // holding g is the bug.
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].msg.contains("guard `g`"));
        assert_eq!(found[0].line, 7);
    }

    #[test]
    fn transitive_block_through_resolved_call_fires_with_witness() {
        let w = ws(vec![
            (
                "crates/server/src/s.rs",
                "pub fn flush_all(m: &Mutex<u8>) {\n  let g = m.lock();\n  \
                 write_back(&g);\n}\n",
            ),
            (
                "crates/rowstore/src/spill.rs",
                "pub fn write_back(v: &u8) { deep(); }\npub fn deep() { \
                 std::fs::write(p, b); }\n",
            ),
        ]);
        let found = NoGuardAcrossBlocking.check(&w);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(
            found[0].msg.contains("write_back -> deep"),
            "{}",
            found[0].msg
        );
    }

    #[test]
    fn bench_drivers_are_exempt() {
        let w = ws(vec![(
            "crates/bench/src/bin/driver.rs",
            "pub fn pace(m: &Mutex<u8>) {\n  let g = m.lock();\n  \
             std::thread::sleep(d);\n}\n",
        )]);
        assert!(NoGuardAcrossBlocking.check(&w).is_empty());
    }
}
