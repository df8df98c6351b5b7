//! The rule catalogue. Each rule guards one project invariant that the
//! compiler cannot: see the per-module docs for the bug class each one
//! exists to stop (most were near-misses in earlier PRs).

pub mod l001;
pub mod l002;
pub mod l003;
pub mod l005;
pub mod l007;
pub mod l008;
pub mod l009;
pub mod l010;
pub mod l011;

use crate::lexer::TokKind;
use crate::{Finding, SourceFile, Workspace};

/// One invariant check.
pub trait Rule {
    /// Stable id, `"L001"`..`"L011"` — what allowlist entries key on.
    fn id(&self) -> &'static str;
    /// One-line description for `--list`.
    fn summary(&self) -> &'static str;
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Every rule, in id order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(l001::WireTagCoverage),
        Box::new(l002::ErrorKindCoverage),
        Box::new(l003::SleepInLoop),
        Box::new(l005::SafetyComments),
        Box::new(l007::BenchMetricsGated),
        Box::new(l008::NoPanicReachable),
        Box::new(l009::NoBlockingReachableFromReactor),
        Box::new(l010::NoDiscardedFencingResults),
        Box::new(l011::NoGuardAcrossBlocking),
    ]
}

// ---- shared structural helpers ----

/// A parsed enum variant.
pub struct Variant {
    pub name: String,
    pub line: u32,
    /// Token index of the name, for span queries.
    pub tok: usize,
    /// Carries a `///` doc comment.
    pub documented: bool,
}

/// Variants of `enum name { ... }` in `f`, if the enum exists.
pub fn enum_variants(f: &SourceFile, name: &str) -> Option<Vec<Variant>> {
    let toks = &f.toks;
    let mut decl = None;
    for i in 0..toks.len() {
        if toks[i].is_ident("enum") && f.next_code(i + 1).is_some_and(|j| toks[j].is_ident(name)) {
            decl = Some(i);
            break;
        }
    }
    let decl = decl?;
    let open = (decl..toks.len()).find(|&i| toks[i].is_punct('{'))?;
    let close = crate::match_brace(toks, open)?;

    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.kind == TokKind::Ident {
            // A variant name sits at body depth 0 right after the open
            // brace, a comma, or an attribute's closing `]`.
            let starts_variant = f
                .prev_code(i.saturating_sub(1))
                .map(|p| p < open + 1 || toks[p].is_punct(',') || toks[p].is_punct(']'))
                .unwrap_or(true)
                || i == open + 1;
            if starts_variant {
                // Doc'd iff a `///` comment sits among the tokens
                // immediately above (between it and the previous code).
                let mut j = i;
                let mut documented = false;
                while j > open {
                    j -= 1;
                    let p = &toks[j];
                    if p.is_comment() {
                        if p.kind == TokKind::LineComment && p.text.starts_with("///") {
                            documented = true;
                        }
                        continue;
                    }
                    if p.is_punct(']') || p.is_punct('[') || p.is_punct('#') {
                        continue; // attribute — keep scanning upward
                    }
                    break;
                }
                out.push(Variant {
                    name: t.text.clone(),
                    line: t.line,
                    tok: i,
                    documented,
                });
            }
        }
        i += 1;
    }
    Some(out)
}

/// Token-index span (start..=end) of `fn name`, if present.
pub fn fn_span(f: &SourceFile, name: &str) -> Option<(usize, usize)> {
    f.fns
        .iter()
        .find(|s| s.name == name)
        .map(|s| (s.start, s.end))
}

/// Does `Enum::Variant` appear anywhere in the token range?
pub fn mentions_variant(f: &SourceFile, range: (usize, usize), enum_name: &str, var: &str) -> bool {
    let (a, b) = range;
    let toks = &f.toks;
    (a..=b.min(toks.len().saturating_sub(1))).any(|i| {
        toks[i].is_ident(enum_name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(var))
    })
}

/// Token-index spans of every `loop`/`while`/`for` body in `f`.
pub fn loop_bodies(f: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &f.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let kw = toks[i].is_ident("loop") || toks[i].is_ident("while") || toks[i].is_ident("for");
        if !kw {
            continue;
        }
        // `for<'a> Fn(..)` in bounds is not a loop.
        if toks[i].is_ident("for") && f.next_code(i + 1).is_some_and(|j| toks[j].is_punct('<')) {
            continue;
        }
        // The body is the first `{` past the header, at bracket depth 0.
        let mut depth = 0i32;
        let mut j = i + 1;
        let open = loop {
            let Some(t) = toks.get(j) else { break None };
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                break Some(j);
            } else if t.is_punct(';') && depth == 0 {
                break None; // malformed / not actually a loop header
            }
            j += 1;
        };
        if let Some(open) = open {
            if let Some(close) = crate::match_brace(toks, open) {
                out.push((open, close));
            }
        }
    }
    out
}

/// Is `thread::sleep(`/`std::thread::sleep(` being called at ident
/// token `i` (which must be `sleep`)?
pub fn is_thread_sleep_call(f: &SourceFile, i: usize) -> bool {
    let toks = &f.toks;
    if !toks[i].is_ident("sleep") {
        return false;
    }
    let called = f.next_code(i + 1).is_some_and(|j| toks[j].is_punct('('));
    let pathed = i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].is_ident("thread");
    called && pathed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variants_parse_fields_and_docs() {
        let f = SourceFile::new(
            "x.rs".into(),
            "/// E.\npub enum E {\n    /// documented\n    A { x: Vec<(i64, u8)> },\n    \
             B(i64),\n    #[allow(dead_code)]\n    /// also documented\n    C,\n}\n"
                .into(),
        );
        let vars = enum_variants(&f, "E").unwrap();
        let names: Vec<&str> = vars.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        assert!(vars[0].documented);
        assert!(!vars[1].documented);
        assert!(vars[2].documented);
    }

    #[test]
    fn loop_bodies_cover_all_three_forms() {
        let f = SourceFile::new(
            "x.rs".into(),
            "fn f() {\n  before();\n  loop { a(); }\n  while x < (y) { b(); }\n  \
             for i in 0..n { c(); }\n  after();\n}\n"
                .into(),
        );
        let bodies = loop_bodies(&f);
        assert_eq!(bodies.len(), 3);
        let inside = |name: &str| {
            let i = f.toks.iter().position(|t| t.is_ident(name)).unwrap();
            bodies.iter().any(|&(a, b)| a <= i && i <= b)
        };
        assert!(inside("a") && inside("b") && inside("c"));
        assert!(!inside("before") && !inside("after"));
    }

    #[test]
    fn sleep_detection_requires_thread_path() {
        let f = SourceFile::new(
            "x.rs".into(),
            "fn f() { std::thread::sleep(d); conn.sleep(); sleep(d); }".into(),
        );
        let hits: Vec<usize> = (0..f.toks.len())
            .filter(|&i| is_thread_sleep_call(&f, i))
            .collect();
        assert_eq!(hits.len(), 1);
    }
}
