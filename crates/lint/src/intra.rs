//! Intra-procedural facts: lock-guard live ranges and discarded
//! `Result` values.
//!
//! Both passes work on one fn body at a time, over tokens plus brace
//! structure. Like the resolver, they prefer missing a fact to
//! inventing one: a guard bound through a helper (`let g =
//! self.guard();`) is invisible, but `let g = m.lock();` — the idiom
//! this workspace actually uses everywhere — is tracked exactly.

use crate::lexer::TokKind;
use crate::SourceFile;

/// A lock guard binding and the token range it is live over.
#[derive(Debug)]
pub struct GuardLive {
    /// The bound identifier (`g` in `let g = m.lock();`).
    pub name: String,
    /// `lock` / `read` / `write`.
    pub acquire: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// Token index just after the binding's `;`.
    pub start: usize,
    /// Token index where the guard dies: matching `}` of the
    /// enclosing block, or the `drop(name)` call, whichever first.
    pub end: usize,
}

/// Guard bindings in the fn spanning tokens `[start, end]`.
///
/// Recognized shape: `let [mut] NAME = ... .lock();` and the
/// `.read()` / `.write()` zero-argument forms (argument-taking
/// `read(&mut buf)` is io::Read, not a lock). The acquire call must
/// be the *final* call of the initializer — in
/// `let out = map.read().get(k).cloned();` or
/// `match pin.or(*self.default.lock())` the guard is a temporary that
/// dies at the end of the statement, and NAME (if any) binds the
/// extracted value, not the guard. `let (a, b) = ...` patterns and
/// `if let` are skipped — none bind bare guards in this workspace.
pub fn guards(f: &SourceFile, start: usize, end: usize) -> Vec<GuardLive> {
    let toks = &f.toks;
    let mut out = Vec::new();
    let mut i = start;
    while i <= end.min(toks.len().saturating_sub(1)) {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        // Reject `if let` / `while let`.
        if f.prev_code(i.wrapping_sub(1))
            .is_some_and(|p| toks[p].is_ident("if") || toks[p].is_ident("while"))
        {
            i += 1;
            continue;
        }
        let mut j = match f.next_code(i + 1) {
            Some(j) => j,
            None => break,
        };
        if toks[j].is_ident("mut") {
            j = match f.next_code(j + 1) {
                Some(j) => j,
                None => break,
            };
        }
        if toks[j].kind != TokKind::Ident || toks[j].text == "_" {
            i += 1;
            continue;
        }
        let name = toks[j].text.clone();
        let Some(eq) = f.next_code(j + 1).filter(|&k| toks[k].is_punct('=')) else {
            i += 1;
            continue;
        };
        // Scan the initializer to its `;` (depth-tracked), looking for
        // a dotted zero-or-any-arg `.lock()` / zero-arg `.read()` /
        // `.write()` call.
        let mut k = eq + 1;
        let mut depth = 0i32;
        let mut acquire: Option<String> = None;
        let stmt_end = loop {
            let Some(t) = toks.get(k) else {
                break None;
            };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                break Some(k);
            } else if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && f.prev_code(k.wrapping_sub(1))
                    .is_some_and(|p| toks[p].is_punct('.'))
            {
                if let Some(open) = f.next_code(k + 1).filter(|&o| toks[o].is_punct('(')) {
                    let zero_arg = f.next_code(open + 1).is_some_and(|c| toks[c].is_punct(')'));
                    // The guard only outlives the statement when the
                    // acquire call ends the initializer (`...lock();`).
                    let terminal = match_paren_from(f, open)
                        .and_then(|close| f.next_code(close + 1))
                        .is_some_and(|after| toks[after].is_punct(';'));
                    if (t.text == "lock" || zero_arg) && terminal {
                        acquire = Some(t.text.clone());
                    }
                }
            }
            k += 1;
        };
        let Some(stmt_end) = stmt_end else {
            break;
        };
        if let Some(acquire) = acquire {
            let live_end = guard_death(f, &name, stmt_end + 1, end);
            out.push(GuardLive {
                name,
                acquire,
                line: toks[i].line,
                start: stmt_end + 1,
                end: live_end,
            });
        }
        i = stmt_end + 1;
    }
    out
}

/// Where the guard named `name` dies: `drop(name)`, or the `}` closing
/// the block it was bound in (tracked by brace depth), capped at `end`.
fn guard_death(f: &SourceFile, name: &str, from: usize, end: usize) -> usize {
    let toks = &f.toks;
    let mut depth = 0i32;
    let mut i = from;
    while i <= end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if t.is_ident("drop")
            && f.next_code(i + 1).is_some_and(|o| toks[o].is_punct('('))
            && f.next_code(i + 1)
                .and_then(|o| f.next_code(o + 1))
                .is_some_and(|a| toks[a].is_ident(name))
        {
            return i;
        }
        i += 1;
    }
    end.min(toks.len().saturating_sub(1))
}

/// A call whose `Result` is discarded.
#[derive(Debug)]
pub struct Discard {
    /// Token index of the callee name (aligns with
    /// [`crate::resolve::RawCall::tok`]).
    pub tok: usize,
    pub line: u32,
    /// `"let _ ="` or `"statement position"`.
    pub how: &'static str,
}

/// Call sites in `[start, end]` whose value is syntactically dropped:
/// `let _ = call(...)` (without a `?` anywhere in the initializer) or
/// a call in statement position (`call(...);` where the token before
/// the callee path begins a statement).
pub fn discards(f: &SourceFile, start: usize, end: usize) -> Vec<Discard> {
    let toks = &f.toks;
    let mut out = Vec::new();
    let last = end.min(toks.len().saturating_sub(1));
    for i in start..=last {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(open) = f.next_code(i + 1).filter(|&j| toks[j].is_punct('(')) else {
            continue;
        };
        // Must be a call, not a macro or definition.
        if f.prev_code(i.wrapping_sub(1))
            .is_some_and(|p| toks[p].is_ident("fn") || toks[p].is_punct('!'))
        {
            continue;
        }
        let Some(close) = match_paren_from(f, open) else {
            continue;
        };
        // Only the *outermost* call of the statement counts: its close
        // paren must be followed by `;` (possibly through more dotted
        // calls — keep it simple: require `;` directly or `?;`).
        let Some(after) = f.next_code(close + 1) else {
            continue;
        };
        if toks[after].is_punct('?') {
            continue; // propagated, not discarded
        }
        if !toks[after].is_punct(';') {
            continue;
        }
        // Back-scan from the callee through only path/receiver tokens
        // (`ident`, `.`, `:`): hitting `;`/`{`/`}` first means the call
        // starts a statement; hitting `= _ let` means `let _ = ...`.
        let mut j = i;
        let verdict = loop {
            let Some(p) = f.prev_code(j.wrapping_sub(1)) else {
                break Some("statement position");
            };
            let pt = &toks[p];
            if pt.kind == TokKind::Ident {
                // `return f();` / `break f();` consume the value.
                if matches!(pt.text.as_str(), "let" | "return" | "break" | "yield") {
                    break None;
                }
                j = p;
                continue;
            }
            if pt.is_punct('.') || pt.is_punct(':') || pt.is_punct('&') {
                j = p;
                continue;
            }
            if pt.is_punct(';') || pt.is_punct('{') || pt.is_punct('}') {
                break Some("statement position");
            }
            if pt.is_punct('=') {
                // `let _ = ...` — require the `_` and `let` behind it.
                let underscore = f.prev_code(p.wrapping_sub(1));
                let letk = underscore.and_then(|u| f.prev_code(u.wrapping_sub(1)));
                if underscore.is_some_and(|u| toks[u].is_ident("_"))
                    && letk.is_some_and(|l| toks[l].is_ident("let"))
                {
                    break Some("let _ =");
                }
                break None;
            }
            break None;
        };
        if let Some(how) = verdict {
            out.push(Discard {
                tok: i,
                line: t.line,
                how,
            });
        }
    }
    out
}

fn match_paren_from(f: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in f.toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/a.rs".into(), src.into())
    }

    #[test]
    fn guard_live_range_ends_at_block_close_or_drop() {
        let f = file(
            "fn a() {\n  let g = m.lock();\n  use_it(&g);\n}\n\
             fn b() {\n  {\n    let h = m.lock();\n  }\n  after();\n}\n\
             fn c() {\n  let k = m.lock();\n  drop(k);\n  after();\n}\n",
        );
        let all: Vec<GuardLive> = f
            .fns
            .iter()
            .flat_map(|s| guards(&f, s.start, s.end))
            .collect();
        assert_eq!(all.len(), 3, "{all:?}");
        let use_it = f.toks.iter().position(|t| t.is_ident("use_it")).unwrap();
        assert!(all[0].start <= use_it && use_it <= all[0].end);
        // b: dies at the inner `}`, before after().
        let after_b = f.toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(all[1].end < after_b);
        // c: dies at drop(k), before after().
        let after_c = f.toks.iter().rposition(|t| t.is_ident("after")).unwrap();
        assert!(all[2].end < after_c);
    }

    #[test]
    fn read_write_guards_need_zero_args_lock_does_not() {
        let f = file(
            "fn a() {\n  let g = rw.read();\n  let n = io.read(&mut buf);\n  \
             let w = rw.write();\n  let m = io.write(&buf);\n  let l = mu.lock();\n}\n",
        );
        let gs = guards(&f, f.fns[0].start, f.fns[0].end);
        let names: Vec<&str> = gs.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, vec!["g", "w", "l"], "{gs:?}");
    }

    #[test]
    fn discards_catch_let_underscore_and_statement_position() {
        let f = file(
            "fn a() {\n  let _ = fallible();\n  let _ = fallible()?;\n  \
             self.log.append(e);\n  let x = fallible();\n  outer(fallible());\n  \
             fallible()?;\n}\n",
        );
        let ds = discards(&f, f.fns[0].start, f.fns[0].end);
        let hows: Vec<(&str, u32)> = ds.iter().map(|d| (d.how, d.line)).collect();
        // Line 6: the *outer* call's result is dropped (the inner
        // `fallible()` is consumed as its argument, so only `outer`
        // registers).
        assert_eq!(
            hows,
            vec![
                ("let _ =", 2),
                ("statement position", 4),
                ("statement position", 6)
            ],
            "{ds:?}"
        );
    }
}
