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
    assert!(has(&r, "L001", "crates/noftl/src/lib.rs", 7), ".peek() backdoor");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 3), "use ipa_flash::Chip");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 5), "PageData in signature");
    assert!(has(&r, "L001", "crates/engine/src/lib.rs", 6), ".main() raw view");
    // L002 — panics in hot crates.
    assert!(has(&r, "L002", "crates/engine/src/lib.rs", 7), "panic! macro");
    assert!(has(&r, "L002", "crates/engine/src/lib.rs", 11), ".expect() call");
    // L003 — layering, both manifest and source sides.
    assert!(has(&r, "L003", "crates/noftl/Cargo.toml", 9), "noftl -> ipa-engine dep");
    assert!(has(&r, "L003", "crates/noftl/src/lib.rs", 4), "use ipa_engine in noftl");
    assert!(has(&r, "L003", "crates/engine/src/lib.rs", 3), "use ipa_flash in engine");
    // L004 — submit without a completion path.
    assert!(has(&r, "L004", "crates/noftl/src/lib.rs", 11), "fire_and_forget leaks");
    // L005 — public measurement type without #[must_use].
    assert!(has(&r, "L005", "crates/flash/src/lib.rs", 13), "EraseStats lacks must_use");
    // L006 — span opened without a close path.
    assert!(has(&r, "L006", "crates/noftl/src/lib.rs", 40), "leaky_episode leaks a span");
    // L007 — transaction discipline outside ipa-engine.
    assert!(has(&r, "L007", "crates/noftl/src/lib.rs", 64), "raw TxId construction");
    assert!(has(&r, "L007", "crates/noftl/src/lib.rs", 65), "deprecated .begin() shim");
    assert!(has(&r, "L007", "crates/noftl/src/lib.rs", 66), "id-threading .commit(tx)");
    assert!(has(&r, "L007", "crates/noftl/src/lib.rs", 67), "id-threading .abort(ghost)");
    // L008 — hash-order iteration and ambient time in the core.
    assert!(has(&r, "L008", "crates/noftl/src/lib.rs", 91), "hmap.iter() in a for header");
    assert!(has(&r, "L008", "crates/noftl/src/lib.rs", 99), "for .. in &hmap");
    assert!(has(&r, "L008", "crates/noftl/src/lib.rs", 106), "Instant::now");
    // L009 — swallowed Results, resolved fallible through the call graph.
    assert!(has(&r, "L009", "crates/noftl/src/lib.rs", 131), "let _ = flush_meta()");
    assert!(has(&r, "L009", "crates/noftl/src/lib.rs", 135), "flush_meta().ok();");
    assert!(has(&r, "L009", "crates/noftl/src/lib.rs", 139), "empty is_err arm");
    // L011 — lock discipline via the call graph.
    assert!(has(&r, "L011", "crates/noftl/src/lib.rs", 168), "foreign-crate acquire");
    assert!(has(&r, "L011", "crates/engine/src/lib.rs", 45), "side-door acquire");
    assert!(has(&r, "L011", "crates/engine/src/lib.rs", 37), "re-entrant acquire path");
}

#[test]
fn cfg_aware_pairing_catches_textually_present_completions() {
    let r = fixture_report();
    // The completion/close call exists in all three, but the CFG shows it
    // is not reached on every path.
    assert!(has(&r, "L004", "crates/noftl/src/lib.rs", 175), "early ? leaks the submit");
    let leak =
        r.findings.iter().find(|f| f.code == "L004" && f.line == 175).expect("risky_write finding");
    assert!(leak.message.contains("line 176"), "leak names the exit line: {}", leak.message);
    assert!(has(&r, "L004", "crates/noftl/src/lib.rs", 182), "one-armed completion");
    assert!(has(&r, "L006", "crates/noftl/src/lib.rs", 206), "one-armed span close");
    // FP guards: both-arm completion, ? on the submit statement itself,
    // and a close after a loop are all Closed.
    assert!(!has(&r, "L004", "crates/noftl/src/lib.rs", 189), "both arms complete");
    assert!(!has(&r, "L004", "crates/noftl/src/lib.rs", 198), "? on the submit is exempt");
    assert!(!has(&r, "L006", "crates/noftl/src/lib.rs", 213), "close after loop");
}

#[test]
fn false_positive_guards_hold() {
    let r = fixture_report();
    // The clean core crate fires nothing: doc comments and string
    // literals naming unwrap/peek/PageData/panic! are not tokens, a
    // `fn main()` definition and an `x.main(7)` call are not the
    // zero-argument `.main()` raw view.
    assert!(
        r.findings.iter().all(|f| !f.file.starts_with("crates/core/")),
        "core fixture must stay clean, got: {:?}",
        r.findings.iter().filter(|f| f.file.starts_with("crates/core/")).collect::<Vec<_>>()
    );
    // PageData/.main() inside the flash crate are its own business.
    assert_eq!(count(&r, "L001"), 4, "L001: exactly the four seeded sites");
    // Paired submit+drain and submit_*-named producers are exempt (L004);
    // unwrap under #[cfg(test)] is exempt (L002); ipa-flash dep and
    // dev-dependencies are allowed (L003); #[must_use]'d and private
    // measurement types are exempt (L005).
    assert_eq!(count(&r, "L002"), 3, "L002: panic!, .expect, one unsuppressed .unwrap");
    assert_eq!(count(&r, "L003"), 3, "L003: one manifest + two source edges");
    assert_eq!(count(&r, "L004"), 3, "L004: fire_and_forget + two CFG leaks");
    assert_eq!(count(&r, "L005"), 1, "L005: only EraseStats");
    // Paired open+close, begin_*-named producers, and SpanId-in-signature
    // handoffs are exempt (L006).
    assert_eq!(count(&r, "L006"), 2, "L006: leaky_episode + flaky_span");
    // The guard's zero-argument tx.commit(), TxId in type position, plain
    // `begin`-named functions, and TxId construction inside ipa-engine are
    // all exempt (L007).
    assert_eq!(count(&r, "L007"), 4, "L007: exactly the four seeded shims");
    // BTreeMap scans, .iter().count()/sum-style reductions, and the
    // pragma'd xor fold are exempt (L008).
    assert_eq!(count(&r, "L008"), 3, "L008: two hash scans + one wall clock");
    // Infallible callees, `let _ = f()?`, a kept `.ok()` value, and a
    // non-empty is_err arm are exempt (L009).
    assert_eq!(count(&r, "L009"), 3, "L009: exactly the three swallow shapes");
    // Database methods own the lock manager legitimately (L011).
    assert_eq!(count(&r, "L011"), 3, "L011: foreign, side-door, re-entrant");
    assert_eq!(count(&r, "L000"), 1, "L000: only the unused engine pragma");
    assert_eq!(r.errors(), 29);
    assert_eq!(r.warnings(), 1);
    assert!(!r.clean(false));
}

#[test]
fn pragma_suppresses_exactly_one_finding() {
    let r = fixture_report();
    // Line 25 of the noftl fixture holds two .unwrap() calls under one
    // audit:allow(L002) pragma: one is suppressed, one stays live.  The
    // deliberate_scan fixture adds a pragma'd L008 hash scan at line 121.
    assert_eq!(r.suppressed.len(), 2);
    let l002 = r
        .suppressed
        .iter()
        .find(|s| s.finding.code == "L002")
        .expect("the unwrap suppression survives");
    assert_eq!(l002.finding.file, "crates/noftl/src/lib.rs");
    assert_eq!(l002.finding.line, 25);
    assert!(l002.reason.contains("single suppression"), "reason is carried: {}", l002.reason);
    assert!(has(&r, "L002", "crates/noftl/src/lib.rs", 25), "second unwrap stays live");
    let l008 = r
        .suppressed
        .iter()
        .find(|s| s.finding.code == "L008")
        .expect("the hash-scan suppression survives");
    assert_eq!(l008.finding.file, "crates/noftl/src/lib.rs");
    assert_eq!(l008.finding.line, 121);
    assert!(l008.reason.contains("order-insensitive"), "reason is carried: {}", l008.reason);
    assert!(!has(&r, "L008", "crates/noftl/src/lib.rs", 121), "pragma'd scan stays quiet");
}

#[test]
fn unused_pragma_becomes_l000_warning() {
    let r = fixture_report();
    let l000 = r
        .findings
        .iter()
        .find(|f| f.code == "L000")
        .expect("the engine fixture's dangling pragma is reported");
    assert_eq!(l000.file, "crates/engine/src/lib.rs");
    assert_eq!(l000.line, 14);
    assert_eq!(l000.severity, Severity::Warning);
    assert!(l000.message.contains("suppresses nothing"));
}

#[test]
fn json_report_reflects_the_fixture() {
    let r = fixture_report();
    let json = r.to_json(true);
    assert!(json.contains("\"experiment\": \"ipa-audit\""));
    assert!(json.contains("\"errors\": 29"));
    assert!(json.contains("\"warnings\": 1"));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"lint\": \"L004\""));
    assert!(json.contains("\"lint\": \"L006\""));
    assert!(json.contains("\"lint\": \"L011\""));
    assert!(json.contains("single suppression"));
}

#[test]
fn sarif_report_reflects_the_fixture() {
    let r = fixture_report();
    let sarif = r.to_sarif();
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"id\": \"L008\""), "rule catalog covers new lints");
    assert!(sarif.contains("\"id\": \"L011\""));
    assert!(sarif.contains("crates/flash/src/lib.rs"), "locations use workspace-relative URIs");
    // Every error finding becomes a result; suppressed ones do not.
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
    // Every suppression in the live tree must carry a reason (the pragma
    // grammar requires it; this pins it end to end).
    assert!(r.suppressed.iter().all(|s| !s.reason.is_empty()));
}
