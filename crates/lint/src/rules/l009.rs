//! L009 — no blocking sink reachable, in the call graph, from
//! reactor-thread fns.
//!
//! Bug class: the reactor thread multiplexes every connection; one
//! blocking call (sleep, condvar wait, thread join, file IO, connect)
//! stalls all of them and shows up as a cross-tenant p99 cliff that no
//! unit test catches. The admission/overload PR documents the
//! contract: reactor code may only block in the poller itself — and a
//! blocking helper the reactor calls in `imci_common` or
//! `imci_rowstore` stalls it just the same.
//!
//! Roots are a module map, not a whole crate: every non-test fn in
//! `reactor.rs` (minus the dedicated `acceptor_loop`/`worker_loop`
//! thread bodies, which own their threads and may block), `conn.rs`,
//! `buf.rs` and `timer.rs`. From there the rule follows resolved call
//! edges anywhere, and a root reaches its own body. Short critical
//! sections under `parking_lot` locks are *not* denied here — lock
//! discipline is L011's and the dynamic sentinel's job (the
//! `lock-order` feature); this rule is about unbounded waits.

use std::collections::BTreeSet;

use super::Rule;
use crate::{Finding, SourceFile, Workspace};

/// Files whose code runs on the reactor thread: the roots are exactly
/// the non-test fns of these modules.
pub(crate) const REACTOR_MODULES: &[&str] = &[
    "crates/net/src/reactor.rs",
    "crates/net/src/conn.rs",
    "crates/net/src/buf.rs",
    "crates/net/src/timer.rs",
];

/// Functions inside those files that own a dedicated thread and are
/// therefore allowed to block (they are not roots).
pub(crate) const DEDICATED_THREAD_FNS: &[&str] = &["acceptor_loop", "worker_loop"];

/// Method names that block unboundedly when called as `.name(...)`.
const BLOCKING_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "read_to_end",
    "read_to_string",
];

pub struct NoBlockingReachableFromReactor;

impl Rule for NoBlockingReachableFromReactor {
    fn id(&self) -> &'static str {
        "L009"
    }

    fn summary(&self) -> &'static str {
        "no blocking sink reachable in the call graph from reactor-thread fns"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let a = ws.analysis();
        let roots: Vec<usize> = (0..a.idx.fns.len())
            .filter(|&i| {
                let d = &a.idx.fns[i];
                !d.is_test
                    && !DEDICATED_THREAD_FNS.contains(&d.name.as_str())
                    && REACTOR_MODULES
                        .iter()
                        .any(|m| ws.files[d.file].rel_path.ends_with(m))
            })
            .collect();
        let pred = a.forward_reach(&roots);
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for fid in 0..a.idx.fns.len() {
            if !pred.contains_key(&fid) {
                continue;
            }
            let d = &a.idx.fns[fid];
            let f = &ws.files[d.file];
            for site in &a.facts[fid].blocks {
                if !seen.insert((d.file, site.line)) {
                    continue;
                }
                let chain = a.chain_to(&pred, fid);
                let via = if chain.len() == 1 {
                    format!("in reactor-thread fn `{}`", chain[0])
                } else {
                    format!("via {}", chain.join(" -> "))
                };
                out.push(f.finding(
                    "L009",
                    site.line,
                    format!(
                        "{} blocks the reactor thread ({}) — every connection multiplexed \
                         onto it stalls",
                        site.what, via
                    ),
                ));
            }
        }
        out
    }
}

/// If token `i` starts a blocking construct, say which. The call-graph
/// pass ([`crate::graph`]) records these as each fn's blocking sites,
/// which L009 and L011 both read.
pub(crate) fn blocking_call_at(f: &SourceFile, i: usize) -> Option<String> {
    let toks = &f.toks;
    let t = &toks[i];
    let prev_dot = || {
        f.prev_code(i.wrapping_sub(1))
            .is_some_and(|j| toks[j].is_punct('.'))
    };
    let prev_path = || i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
    let called = || f.next_code(i + 1).is_some_and(|j| toks[j].is_punct('('));

    if super::is_thread_sleep_call(f, i) {
        return Some("thread::sleep".to_string());
    }
    if t.is_ident("join") && prev_dot() && called() {
        // `.join()` with no argument is a thread join; `join(sep)` on
        // slices takes one.
        let open = f.next_code(i + 1)?;
        if f.next_code(open + 1).is_some_and(|j| toks[j].is_punct(')')) {
            return Some(".join() (thread join)".to_string());
        }
    }
    if t.kind == crate::lexer::TokKind::Ident
        && BLOCKING_METHODS.contains(&t.text.as_str())
        && prev_dot()
        && called()
    {
        return Some(format!(".{}(...)", t.text));
    }
    if t.is_ident("fs") && f.next_code(i + 1).is_some_and(|j| toks[j].is_punct(':')) {
        return Some("std::fs file IO".to_string());
    }
    if t.is_ident("File") && f.next_code(i + 1).is_some_and(|j| toks[j].is_punct(':')) {
        return Some("File IO".to_string());
    }
    if t.is_ident("connect") && prev_path() && called() {
        return Some("::connect(...)".to_string());
    }
    None
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
    fn reaches_blocking_helpers_across_crates() {
        let w = ws(vec![
            ("crates/net/src/timer.rs", "pub fn on_tick() { spill(); }\n"),
            (
                "crates/rowstore/src/spill.rs",
                "pub fn spill() { std::fs::write(p, b); }\n\
                 pub fn unrelated() { std::thread::sleep(d); }\n",
            ),
        ]);
        let found = NoBlockingReachableFromReactor.check(&w);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].path.ends_with("spill.rs"));
        assert!(
            found[0].msg.contains("on_tick -> spill"),
            "{}",
            found[0].msg
        );
    }

    #[test]
    fn dedicated_thread_fns_are_not_roots_but_their_helpers_are() {
        let w = ws(vec![(
            "crates/net/src/reactor.rs",
            "pub fn reactor_loop() { poller.wait_timeout(e, t); }\n\
             pub fn acceptor_loop() { listener_accept(); }\n\
             fn listener_accept() { std::thread::sleep(d); }\n",
        )]);
        let found = NoBlockingReachableFromReactor.check(&w);
        // reactor_loop's own wait fires; acceptor_loop owns its thread,
        // and listener_accept is only reachable from it... but
        // listener_accept is itself a non-test fn in a reactor module,
        // hence a root, like every helper defined in these files.
        let sites: Vec<&str> = found.iter().map(|f| f.src_line.as_str()).collect();
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(sites.iter().any(|s| s.contains("wait_timeout")));
        assert!(sites.iter().any(|s| s.contains("sleep")));
    }

    #[test]
    fn reactor_module_map_and_thread_fn_exemption() {
        let w = ws(vec![
            (
                "crates/net/src/reactor.rs",
                "fn reactor_loop() { cv.wait(g);\n\
                 h.join(); parts.join(\",\"); }\n\
                 fn acceptor_loop() { std::thread::sleep(d); }\n\
                 fn worker_loop() { rx.recv(); }\n",
            ),
            (
                "crates/net/src/conn.rs",
                "fn flush() { std::fs::write(p, b); }",
            ),
            (
                "crates/server/src/server.rs",
                "fn main_loop() { cv.wait(g); }",
            ),
        ]);
        let found = NoBlockingReachableFromReactor.check(&w);
        // reactor_loop: wait + zero-arg join (the `join(",")` is not a
        // thread join); conn.rs: fs. Dedicated thread fns are exempt,
        // server.rs is out of scope.
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| !f.path.contains("server")));
    }
}
