//! End-to-end self-test: every rule fires on its seeded fixture, the
//! fixture allowlist suppresses all of them, and the real workspace is
//! clean under the committed allowlist.

use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_rule_fires_exactly_once_on_fixtures() {
    let ws = imci_lint::Workspace::load(&fixtures_root()).unwrap();
    let findings = imci_lint::run_all(&ws);
    let ids: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    // One seeded violation per rule; L008 and L009 each get two — a
    // site in a root fn's own body and one a call away in another
    // crate.
    assert_eq!(
        ids,
        ["L001", "L002", "L003", "L005", "L007", "L008", "L008", "L009", "L009", "L010", "L011"],
        "seeded violations, in id order: {findings:#?}"
    );
    // Findings carry enough context to act on.
    for f in &findings {
        assert!(
            !f.msg.is_empty() && !f.src_line.is_empty() && f.line > 0,
            "{f}"
        );
    }
}

#[test]
fn fixture_allowlist_suppresses_every_seeded_finding() {
    let ws = imci_lint::Workspace::load(&fixtures_root()).unwrap();
    let findings = imci_lint::run_all(&ws);
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/allow_seeded.toml"),
    )
    .unwrap();
    let entries = imci_lint::allow::parse(&text).unwrap();
    let (live, suppressed, stale) = imci_lint::allow::apply(findings, &entries);
    assert!(live.is_empty(), "unsuppressed: {live:#?}");
    assert_eq!(suppressed.len(), 11);
    assert!(stale.is_empty(), "stale: {stale:?}");
}

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let root = workspace_root();
    let ws = imci_lint::Workspace::load(&root).unwrap();
    assert!(ws.files.len() > 50, "workspace walk looks truncated");
    let findings = imci_lint::run_all(&ws);
    let text = std::fs::read_to_string(root.join("crates/lint/allow.toml")).unwrap();
    let entries = imci_lint::allow::parse(&text).unwrap();
    let (live, _suppressed, stale) = imci_lint::allow::apply(findings, &entries);
    assert!(
        live.is_empty(),
        "new unsuppressed findings — fix them or add a justified allowlist entry:\n{}",
        live.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        stale.is_empty(),
        "stale allowlist entries — the violations were fixed, delete them: {stale:?}"
    );
}
