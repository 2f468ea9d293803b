//! End-to-end lint tests: a fixture mini-workspace seeded with one of
//! every violation (`tests/fixtures/ws`), false-positive guards, pragma
//! semantics, and a self-check that the live repository audits clean.
//!
//! The fixture sources are never compiled — they sit under a `fixtures/`
//! path segment precisely so the auditor itself would classify them as
//! test code if they ever leaked into a real workspace scan; here they are
//! loaded explicitly with the fixture directory as the workspace root, so
//! their relative paths (`crates/noftl/src/lib.rs`, ...) look live.

use std::path::{Path, PathBuf};

use ipa_audit::findings::{Report, Severity};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture_report() -> Report {
    ipa_audit::run(&fixture_root()).expect("fixture workspace loads")
}

fn has(report: &Report, code: &str, file: &str, line: u32) -> bool {
    report.findings.iter().any(|f| f.code == code && f.file == file && f.line == line)
}

fn count(report: &Report, code: &str) -> usize {
    report.findings.iter().filter(|f| f.code == code).count()
}

#[test]
fn seeded_violations_are_all_reported() {
    let r = fixture_report();
    // L001 — raw cell access outside ipa-flash.
    assert!(has(&r, "L001", "crates/noftl/src/lib.rs", 5), ".peek() backdoor");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 3), "use ipa_flash::Chip");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 5), "PageData in signature");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 6), ".main() raw view");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 10), ".oob() raw view");
    // L004 — submit without a completion path.
    assert!(has(&r, "L004", "crates/noftl/src/lib.rs", 9), "fire_and_forget leaks");
    // L006 — span opened without a close path.
    assert!(has(&r, "L006", "crates/noftl/src/lib.rs", 39), "leaky_episode leaks a span");
}

#[test]
fn cfg_aware_pairing_catches_textually_present_completions() {
    let r = fixture_report();
    // The completion/close call exists in all three, but the CFG shows it
    // is not reached on every path.
    assert!(has(&r, "L004", "crates/noftl/src/lib.rs", 64), "early ? leaks the submit");
    let leak =
        r.findings.iter().find(|f| f.code == "L004" && f.line == 64).expect("risky_write finding");
    assert!(leak.message.contains("line 65"), "leak names the exit line: {}", leak.message);
    assert!(has(&r, "L004", "crates/noftl/src/lib.rs", 71), "one-armed completion");
    assert!(has(&r, "L006", "crates/noftl/src/lib.rs", 99), "one-armed span close");
    // FP guards: both-arm completion, ? on the submit statement itself,
    // and a close after a loop are all Closed.
    assert!(!has(&r, "L004", "crates/noftl/src/lib.rs", 78), "both arms complete");
    assert!(!has(&r, "L004", "crates/noftl/src/lib.rs", 87), "? on the submit is exempt");
    assert!(!has(&r, "L006", "crates/noftl/src/lib.rs", 106), "close after loop");
}

#[test]
fn false_positive_guards_hold() {
    let r = fixture_report();
    // The clean core crate fires nothing: doc comments and string
    // literals naming peek/PageData are not tokens, a `fn main()`
    // definition and an `x.main(7)` call are not the zero-argument
    // `.main()` raw view. The flash crate may touch its own cells.
    for krate in ["crates/core/", "crates/flash/"] {
        let hits: Vec<_> = r.findings.iter().filter(|f| f.file.starts_with(krate)).collect();
        assert!(hits.is_empty(), "{krate} fixture must stay clean, got: {hits:?}");
    }
    // `use ipa_flash::{FlashDevice, Ppa}` and everything under
    // #[cfg(test)] are exempt (L001).
    assert_eq!(count(&r, "L001"), 6, "L001: the five seeded sites + one unsuppressed .peek()");
    // Paired submit+drain, submit_*-named producers, a CmdId handed back
    // and test code are exempt (L004).
    assert_eq!(count(&r, "L004"), 3, "L004: fire_and_forget + two CFG leaks");
    // Paired open+close, begin_*-named producers, SpanId-in-signature
    // handoffs and test code are exempt (L006).
    assert_eq!(count(&r, "L006"), 2, "L006: leaky_episode + flaky_span");
    assert_eq!(count(&r, "L000"), 2, "L000: the unused and the malformed engine pragma");
    assert_eq!(r.errors(), 11);
    assert_eq!(r.warnings(), 2);
    assert!(!r.clean(false));
}

#[test]
fn pragma_suppresses_exactly_one_finding() {
    let r = fixture_report();
    // Line 23 of the noftl fixture holds two .peek() calls under one
    // audit:allow(L001) pragma: one is suppressed, one stays live.
    assert_eq!(r.suppressed.len(), 1);
    let s = &r.suppressed[0];
    assert_eq!(s.finding.code, "L001");
    assert_eq!(s.finding.file, "crates/noftl/src/lib.rs");
    assert_eq!(s.finding.line, 23);
    assert!(s.reason.contains("single suppression"), "reason is carried: {}", s.reason);
    assert!(has(&r, "L001", "crates/noftl/src/lib.rs", 23), "second peek stays live");
}

#[test]
fn unused_and_malformed_pragmas_become_l000_warnings() {
    let r = fixture_report();
    let l000: Vec<_> = r.findings.iter().filter(|f| f.code == "L000").collect();
    assert_eq!(l000.len(), 2);
    assert!(l000.iter().all(|f| f.file == "crates/engine/src/lib.rs"));
    assert!(l000.iter().all(|f| f.severity == Severity::Warning));
    assert_eq!(l000[0].line, 13);
    assert!(l000[0].message.contains("suppresses nothing"));
    assert_eq!(l000[1].line, 16);
    assert!(l000[1].message.contains("malformed"), "{}", l000[1].message);
}

#[test]
fn json_report_reflects_the_fixture() {
    let r = fixture_report();
    let json = r.to_json(true);
    assert!(json.contains("\"experiment\": \"ipa-audit\""));
    assert!(json.contains("\"errors\": 11"));
    assert!(json.contains("\"warnings\": 2"));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"lint\": \"L001\""));
    assert!(json.contains("\"lint\": \"L004\""));
    assert!(json.contains("\"lint\": \"L006\""));
    assert_eq!(json.matches("\"code\": ").count(), 3, "the catalog lists exactly three lints");
    assert!(json.contains("single suppression"));
}

#[test]
fn sarif_report_reflects_the_fixture() {
    let r = fixture_report();
    let sarif = r.to_sarif();
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    for id in ["L001", "L004", "L006"] {
        assert!(sarif.contains(&format!("\"id\": \"{id}\"")), "rule catalog lists {id}");
    }
    assert_eq!(sarif.matches("\"id\": ").count(), 3);
    assert!(sarif.contains("crates/noftl/src/lib.rs"), "locations use workspace-relative URIs");
    // Every live finding becomes a result; suppressed ones do not.
    assert_eq!(sarif.matches("\"ruleId\"").count(), r.findings.len());
}

#[test]
fn reports_are_byte_stable_across_runs() {
    // Deterministic finding order is a hard requirement for the CI
    // double-run assert; pin it at the library level too.
    let a = fixture_report();
    let b = fixture_report();
    assert_eq!(a.to_json(true), b.to_json(true));
    assert_eq!(a.to_sarif(), b.to_sarif());
}

#[test]
fn live_workspace_audits_clean() {
    // The real repository two levels up must pass its own gate — the same
    // invariant CI enforces with `ipa-audit check --deny-warnings`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = ipa_audit::run(&root).expect("live workspace loads");
    assert!(r.files_scanned >= 80, "workspace walk found {} files", r.files_scanned);
    let rendered: Vec<String> = r.findings.iter().map(|f| f.render()).collect();
    assert!(r.clean(true), "live workspace has findings:\n{}", rendered.join("\n"));
    // The one deliberate exception in the live tree: `start_tx` opens the
    // transaction span that `finish_tx` closes.
    let allowed: Vec<_> = r.suppressed.iter().map(|s| (s.finding.code, &*s.finding.file)).collect();
    assert_eq!(allowed, [("L006", "crates/engine/src/db.rs")]);
    assert!(!r.suppressed[0].reason.is_empty());
}
