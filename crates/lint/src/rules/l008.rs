//! L008 — no panic site reachable, in the call graph, from
//! reactor/worker code.
//!
//! Bug class: a panic on a reactor or worker thread takes down every
//! connection multiplexed onto it, and (since the server holds locks
//! across request handling) can poison state for the rest. Fallible
//! paths must return `Error`, which the wire maps to a client-visible
//! failure instead of a dead server. A helper one call away in
//! `imci_common` panics the same thread as an `.unwrap()` written in
//! the handler, so L008 roots the search at every non-test fn in
//! `crates/net` and `crates/server` and walks resolved call edges
//! anywhere in the workspace; a root reaches its own body.
//! Provably-infallible uses (e.g. writes into a `Vec`) can be
//! allowlisted with the proof as the reason.
//!
//! `spawn(...)` arguments are a thread boundary (the closure's panics
//! belong to the thread that runs it, whose entry fn is itself a
//! root if it lives in these crates), and `catch_unwind(...)` stops
//! propagation; neither contributes sites or edges.

use std::collections::BTreeSet;

use super::Rule;
use crate::{Finding, Workspace};

/// Crates whose non-test fns are reactor/worker-reachable roots.
const ROOT_CRATES: &[&str] = &["crates/net/", "crates/server/"];

pub struct NoPanicReachable;

impl Rule for NoPanicReachable {
    fn id(&self) -> &'static str {
        "L008"
    }

    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable! reachable in the call graph from crates/net + crates/server"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let a = ws.analysis();
        let roots: Vec<usize> = (0..a.idx.fns.len())
            .filter(|&i| {
                let d = &a.idx.fns[i];
                !d.is_test
                    && ROOT_CRATES
                        .iter()
                        .any(|p| ws.files[d.file].rel_path.starts_with(p))
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
            for site in &a.facts[fid].panics {
                if !seen.insert((d.file, site.line)) {
                    continue;
                }
                let chain = a.chain_to(&pred, fid);
                let via = if chain.len() == 1 {
                    format!("in reactor/worker-scoped fn `{}`", chain[0])
                } else {
                    format!("via {}", chain.join(" -> "))
                };
                out.push(f.finding(
                    "L008",
                    site.line,
                    format!(
                        "{} can panic a reactor/worker thread ({}) — return an Error instead",
                        site.what, via
                    ),
                ));
            }
        }
        out
    }
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
    fn flags_cross_crate_panics_but_not_unreachable_ones() {
        let w = ws(vec![
            (
                "crates/net/src/handler.rs",
                "pub fn on_frame(b: &[u8]) { decode(b); }\n",
            ),
            (
                "crates/common/src/codec.rs",
                "pub fn decode(b: &[u8]) -> u64 { u64_of(b).unwrap() }\n\
                 pub fn island() { x.unwrap(); }\n",
            ),
        ]);
        let found = NoPanicReachable.check(&w);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].path.ends_with("codec.rs"));
        assert!(
            found[0].msg.contains("on_frame -> decode"),
            "{}",
            found[0].msg
        );
    }

    #[test]
    fn own_body_sites_and_panic_macros_count_spawn_does_not() {
        let w = ws(vec![(
            "crates/server/src/s.rs",
            "pub fn handle() { match x { _ => unreachable!(\"tag\") } }\n\
             pub fn start() { thread::spawn(|| v.unwrap()); }\n",
        )]);
        let found = NoPanicReachable.check(&w);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].msg.contains("unreachable!"));
        assert!(found[0].msg.contains("`handle`"));
    }
}
