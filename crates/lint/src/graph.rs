//! Whole-workspace call graph and reachability.
//!
//! Nodes are [`crate::resolve::FnDef`]s; edges come from resolved
//! [`crate::resolve::RawCall`]s. Each node also carries its *local*
//! sinks: panic sites (`.unwrap()`, `.expect()`, `panic!`,
//! `unreachable!`, `todo!`, `unimplemented!`) and blocking sites
//! ([`crate::rules::l009::blocking_call_at`], the one definition of
//! what blocking *is*). Thread boundaries (`spawn(...)`
//! arguments) and `catch_unwind(...)` contribute neither edges nor
//! sinks.

use std::collections::HashMap;

use crate::resolve::{self, Ctx, DefIndex};
use crate::rules::l009;
use crate::Workspace;

/// A panic or blocking site inside one fn body.
#[derive(Debug, Clone)]
pub struct Site {
    pub line: u32,
    /// Human description (`.unwrap()`, `panic!`, `.wait(...)`, ...).
    pub what: String,
}

/// Per-fn analysis results, parallel to `DefIndex::fns`.
pub struct FnFacts {
    /// Resolved outgoing edges: (callee fn id, call line).
    pub calls: Vec<(usize, u32)>,
    pub panics: Vec<Site>,
    pub blocks: Vec<Site>,
}

/// One step of a blocking-reachability witness.
#[derive(Debug, Clone)]
pub enum BlockStep {
    /// This fn itself contains a blocking site.
    Local(Site),
    /// The chain continues through a call: (callee fn id, call line).
    Via(usize, u32),
}

pub struct Analysis {
    pub idx: DefIndex,
    pub facts: Vec<FnFacts>,
    /// (file index, fn start token) -> fn id.
    pub fn_of: HashMap<(usize, usize), usize>,
    /// For each fn: the first step toward a blocking sink, if one is
    /// reachable (shortest chain, deterministic tie-break by fn id).
    pub blocking_next: Vec<Option<BlockStep>>,
}

/// Panic-macro names (ident followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl Analysis {
    pub fn build(ws: &Workspace) -> Analysis {
        let idx = resolve::build(ws);
        let mut fn_of = HashMap::new();
        for (id, d) in idx.fns.iter().enumerate() {
            fn_of.insert((d.file, d.start), id);
        }
        let mut facts = Vec::with_capacity(idx.fns.len());
        for d in &idx.fns {
            let f = &ws.files[d.file];
            // Body only: skip past the signature so a `Result` return
            // type or parameter name never reads as a call.
            let ctx = Ctx {
                file: d.file,
                crate_name: &d.crate_name,
                impl_type: d.impl_type.as_deref(),
                is_test: d.is_test,
            };
            let raw = resolve::raw_calls(f, d.start, d.end);
            let mut calls = Vec::new();
            for c in &raw {
                // A nested fn's body belongs to the nested fn, not to
                // this one (fn spans nest; facts must not).
                if inner_fn_owns(&idx, &fn_of, d.file, d.start, d.end, c.tok) {
                    continue;
                }
                if let Some(callee) = idx.resolve(ws, c, &ctx) {
                    if callee != fn_of[&(d.file, d.start)] {
                        calls.push((callee, c.line));
                    }
                }
            }
            let (panics, blocks) = local_sites(ws, &idx, &fn_of, d);
            facts.push(FnFacts {
                calls,
                panics,
                blocks,
            });
        }
        let blocking_next = blocking_reach(&idx, &facts);
        Analysis {
            idx,
            facts,
            fn_of,
            blocking_next,
        }
    }

    /// Fn id for a (file index, fn start token) pair.
    pub fn fn_id(&self, file: usize, start: usize) -> Option<usize> {
        self.fn_of.get(&(file, start)).copied()
    }

    /// Multi-source forward BFS. Returns, for every reachable fn, the
    /// predecessor on a shortest chain from some root: `(caller fn id,
    /// call line)`, or `None` for the roots themselves. Deterministic:
    /// roots seed in the given order, edges expand in stored order.
    pub fn forward_reach(&self, roots: &[usize]) -> HashMap<usize, Option<(usize, u32)>> {
        use std::collections::hash_map::Entry;
        let mut pred: HashMap<usize, Option<(usize, u32)>> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let Entry::Vacant(e) = pred.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(fid) = queue.pop_front() {
            for &(callee, line) in &self.facts[fid].calls {
                if let Entry::Vacant(e) = pred.entry(callee) {
                    e.insert(Some((fid, line)));
                    queue.push_back(callee);
                }
            }
        }
        pred
    }

    /// Human-readable call chain `root_name -> ... -> fn_name` for a
    /// fn reached by [`Analysis::forward_reach`].
    pub fn chain_to(
        &self,
        pred: &HashMap<usize, Option<(usize, u32)>>,
        mut fid: usize,
    ) -> Vec<String> {
        let mut names = vec![self.fn_name(fid)];
        while let Some(Some((caller, _))) = pred.get(&fid) {
            fid = *caller;
            names.push(self.fn_name(fid));
        }
        names.reverse();
        names
    }

    /// `Type::name` or bare `name`, for witness chains.
    pub fn fn_name(&self, fid: usize) -> String {
        let d = &self.idx.fns[fid];
        match &d.impl_type {
            Some(t) => format!("{t}::{}", d.name),
            None => d.name.clone(),
        }
    }

    /// Follow `blocking_next` from `fid` to its sink; returns the
    /// chain of fn names plus the sink description, or `None`.
    pub fn blocking_chain(&self, mut fid: usize) -> Option<(Vec<String>, Site)> {
        let mut names = vec![self.fn_name(fid)];
        // The chain is acyclic by construction (BFS tree), but cap it
        // anyway so a future bug degrades to a truncated message.
        for _ in 0..64 {
            match self.blocking_next[fid].as_ref()? {
                BlockStep::Local(site) => return Some((names, site.clone())),
                BlockStep::Via(callee, _) => {
                    fid = *callee;
                    names.push(self.fn_name(fid));
                }
            }
        }
        None
    }
}

/// Does a *nested* fn inside `[start, end]` (other than the one
/// starting at `start`) contain token `tok`? Used to keep a nested
/// fn's body out of its parent's facts.
fn inner_fn_owns(
    idx: &DefIndex,
    fn_of: &HashMap<(usize, usize), usize>,
    file: usize,
    start: usize,
    end: usize,
    tok: usize,
) -> bool {
    idx.fns.iter().any(|d| {
        d.file == file
            && d.start > start
            && d.end <= end
            && d.start <= tok
            && tok <= d.end
            && fn_of.contains_key(&(d.file, d.start))
    })
}

/// Collect the panic and blocking sites local to one fn body.
fn local_sites(
    ws: &Workspace,
    idx: &DefIndex,
    fn_of: &HashMap<(usize, usize), usize>,
    d: &crate::resolve::FnDef,
) -> (Vec<Site>, Vec<Site>) {
    let f = &ws.files[d.file];
    let toks = &f.toks;
    let skips = resolve::thread_boundary_ranges(f, d.start, d.end);
    let mut panics = Vec::new();
    let mut blocks = Vec::new();
    for i in d.start..=d.end.min(toks.len().saturating_sub(1)) {
        if skips.iter().any(|&(a, b)| a < i && i <= b) {
            continue;
        }
        if inner_fn_owns(idx, fn_of, d.file, d.start, d.end, i) {
            continue;
        }
        let t = &toks[i];
        let dotted = f
            .prev_code(i.wrapping_sub(1))
            .is_some_and(|j| toks[j].is_punct('.'));
        let called = f.next_code(i + 1).is_some_and(|j| toks[j].is_punct('('));
        if (t.is_ident("unwrap") || t.is_ident("expect")) && dotted && called {
            panics.push(Site {
                line: t.line,
                what: format!(".{}()", t.text),
            });
            continue;
        }
        if PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && f.next_code(i + 1).is_some_and(|j| toks[j].is_punct('!'))
        {
            panics.push(Site {
                line: t.line,
                what: format!("{}!", t.text),
            });
            continue;
        }
        if let Some(what) = l009::blocking_call_at(f, i) {
            blocks.push(Site { line: t.line, what });
        }
    }
    (panics, blocks)
}

/// Reverse BFS from every fn with a local blocking site: for each fn,
/// the first step of a shortest chain to a sink.
fn blocking_reach(idx: &DefIndex, facts: &[FnFacts]) -> Vec<Option<BlockStep>> {
    let n = idx.fns.len();
    // Reverse adjacency: callee -> [(caller, call line)].
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (caller, ff) in facts.iter().enumerate() {
        for &(callee, line) in &ff.calls {
            rev[callee].push((caller, line));
        }
    }
    let mut next: Vec<Option<BlockStep>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for (fid, ff) in facts.iter().enumerate() {
        if let Some(site) = ff.blocks.first() {
            next[fid] = Some(BlockStep::Local(site.clone()));
            queue.push_back(fid);
        }
    }
    while let Some(fid) = queue.pop_front() {
        for &(caller, line) in &rev[fid] {
            if next[caller].is_none() {
                next[caller] = Some(BlockStep::Via(fid, line));
                queue.push_back(caller);
            }
        }
    }
    next
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

    fn fid(a: &Analysis, name: &str) -> usize {
        a.idx.by_name[name][0]
    }

    #[test]
    fn edges_cross_files_and_crates() {
        let w = ws(vec![
            (
                "crates/net/src/reactor.rs",
                "pub fn reactor_loop() { step(); imci_common::validate(x); }\n\
                 fn step() {}\n",
            ),
            ("crates/common/src/lib.rs", "pub fn validate(x: u8) {}\n"),
        ]);
        let a = w.analysis();
        let rl = fid(a, "reactor_loop");
        let callees: Vec<usize> = a.facts[rl].calls.iter().map(|&(c, _)| c).collect();
        assert!(callees.contains(&fid(a, "step")));
        assert!(callees.contains(&fid(a, "validate")), "cross-crate edge");
    }

    #[test]
    fn local_sites_respect_thread_boundaries_and_nested_fns() {
        let w = ws(vec![(
            "crates/net/src/a.rs",
            "fn outer() {\n  thread::spawn(|| v.unwrap());\n  \
             fn nested() { w.unwrap(); }\n  x.expect(\"m\");\n}\n",
        )]);
        let a = w.analysis();
        let outer = fid(a, "outer");
        let nested = fid(a, "nested");
        let descr: Vec<&str> = a.facts[outer]
            .panics
            .iter()
            .map(|s| s.what.as_str())
            .collect();
        assert_eq!(descr, vec![".expect()"], "spawn + nested fn excluded");
        assert_eq!(a.facts[nested].panics.len(), 1);
    }

    #[test]
    fn blocking_reach_crosses_the_graph_with_witness() {
        let w = ws(vec![
            (
                "crates/net/src/reactor.rs",
                "fn reactor_loop() { helper(); }\nfn helper() { deep(); }\n",
            ),
            (
                "crates/common/src/lib.rs",
                "pub fn deep() { std::thread::sleep(d); }\npub fn clean() {}\n",
            ),
        ]);
        let a = w.analysis();
        let (chain, sink) = a.blocking_chain(fid(a, "reactor_loop")).unwrap();
        assert_eq!(chain, vec!["reactor_loop", "helper", "deep"]);
        assert_eq!(sink.what, "thread::sleep");
        assert!(a.blocking_next[fid(a, "clean")].is_none());
    }

    #[test]
    fn forward_reach_yields_shortest_predecessor_chains() {
        let w = ws(vec![(
            "crates/net/src/a.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let a = w.analysis();
        let pred = a.forward_reach(&[fid(a, "root")]);
        let chain = a.chain_to(&pred, fid(a, "leaf"));
        assert_eq!(chain, vec!["root", "mid", "leaf"]);
        assert!(!pred.contains_key(&fid(a, "island")));
    }
}
