//! The committed allowlist: suppressions with mandatory reasons.
//!
//! Format is a TOML subset (the workspace builds offline, so no toml
//! crate): `[[allow]]` tables with `key = "string"` pairs and `#`
//! comments. An entry matches a finding when the rule matches, the
//! finding's path ends with `path`, and — if given — the finding's
//! source line contains `contains`. Matching on source text instead of
//! line numbers keeps entries stable across unrelated edits; an entry
//! whose code is deleted goes stale and is reported.

use crate::Finding;

/// One suppression.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    /// Rule id this entry suppresses (`"L003"`). Required.
    pub rule: String,
    /// Path suffix the finding must match. Required.
    pub path: String,
    /// Substring of the offending source line; empty = any line in the
    /// file (use sparingly).
    pub contains: String,
    /// Why this violation is deliberate. Required — an allowlist entry
    /// without a justification is itself a finding.
    pub reason: String,
    /// Line in the allowlist file, for diagnostics.
    pub defined_at: u32,
}

impl AllowEntry {
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && f.path.ends_with(&self.path)
            && (self.contains.is_empty() || f.src_line.contains(&self.contains))
    }
}

/// Parse the allowlist. Errors are strings naming the offending line.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut open = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(last) = entries.last() {
                validate(last)?;
            }
            entries.push(AllowEntry {
                defined_at: lineno,
                ..AllowEntry::default()
            });
            open = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "allowlist line {lineno}: expected `key = \"value\"`"
            ));
        };
        if !open {
            return Err(format!(
                "allowlist line {lineno}: key outside any [[allow]] table"
            ));
        }
        let value = unquote(value.trim())
            .ok_or_else(|| format!("allowlist line {lineno}: value must be a quoted string"))?;
        let entry = entries.last_mut().expect("open table exists");
        match key.trim() {
            "rule" => entry.rule = value,
            "path" => entry.path = value,
            "contains" => entry.contains = value,
            "reason" => entry.reason = value,
            other => {
                return Err(format!("allowlist line {lineno}: unknown key `{other}`"));
            }
        }
    }
    if let Some(last) = entries.last() {
        validate(last)?;
    }
    Ok(entries)
}

fn validate(e: &AllowEntry) -> Result<(), String> {
    if e.rule.is_empty() || e.path.is_empty() {
        return Err(format!(
            "allowlist entry at line {}: `rule` and `path` are required",
            e.defined_at
        ));
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "allowlist entry at line {}: a `reason` is required — suppressions must be justified",
            e.defined_at
        ));
    }
    Ok(())
}

/// Strip a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => {
                prev_escape = !prev_escape;
                continue;
            }
            '"' if !prev_escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_escape = false;
    }
    line
}

fn unquote(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Split findings into (unsuppressed, suppressed) and report stale
/// allowlist entries (matched nothing) as strings.
pub fn apply(
    findings: Vec<Finding>,
    entries: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
    let mut used = vec![false; entries.len()];
    let mut live = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        match entries.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed.push(f);
            }
            None => live.push(f),
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| {
            format!(
                "stale allowlist entry (line {}): rule {} path {} matches nothing",
                e.defined_at, e.rule, e.path
            )
        })
        .collect();
    (live, suppressed, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, src: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line: 1,
            msg: String::new(),
            src_line: src.into(),
        }
    }

    #[test]
    fn parses_and_matches() {
        let text = r#"
# repo allowlist
[[allow]]
rule = "L003"
path = "crates/server/src/client.rs"
contains = "std::thread::sleep(backoff)"
reason = "capped exponential backoff, bounded by RetryPolicy"
"#;
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 1);
        let hit = finding(
            "L003",
            "crates/server/src/client.rs",
            "std::thread::sleep(backoff);",
        );
        let miss = finding("L003", "crates/server/src/client.rs", "other code");
        assert!(entries[0].matches(&hit));
        assert!(!entries[0].matches(&miss));
        let (live, supp, stale) = apply(vec![hit, miss], &entries);
        assert_eq!((live.len(), supp.len(), stale.len()), (1, 1, 0));
    }

    #[test]
    fn reason_is_mandatory() {
        let text = "[[allow]]\nrule = \"L008\"\npath = \"x.rs\"\n";
        assert!(parse(text).unwrap_err().contains("reason"));
    }

    #[test]
    fn stale_entries_are_reported() {
        let text = "[[allow]]\nrule = \"L008\"\npath = \"gone.rs\"\nreason = \"was fixed\"\n";
        let entries = parse(text).unwrap();
        let (_, _, stale) = apply(vec![], &entries);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn comments_respect_strings() {
        let text = "[[allow]]\nrule = \"L005\"\npath = \"a#b.rs\" # trailing\nreason = \"x\"\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries[0].path, "a#b.rs");
    }
}
