//! `ipa-audit` — workspace-wide static analysis for the IPA stack.
//!
//! The simulator's correctness rests on three code-level rules that
//! neither `rustc` nor clippy knows: cell contents change only through
//! `ipa-flash`'s ISPP-checked program path (L001), every queued command
//! that is submitted is completed (L004), and every causal span that is
//! opened is closed (L006). This crate is a dependency-free auditor that
//! pins those three as machine-checked lints, run in CI as
//! `cargo run -p ipa-audit -- check --deny-warnings`. The generic rules
//! (no panicking shortcut, no swallowed `Result`, no hash-order or host
//! state in the deterministic core, layering) are held by the compiler,
//! the manifests and clippy — see DESIGN.md.
//!
//! Pipeline: [`workspace::Workspace::load`] lexes every `crates/*/src`
//! file ([`lexer`], [`source`]); each registered [`lints::Lint`] walks the
//! token streams appending [`findings::Finding`]s; [`run`] then applies
//! `// audit:allow(Lxxx, reason = "...")` pragmas ([`pragma`]) — each
//! pragma suppresses exactly one finding on its own or the following
//! line — and emits unused/malformed pragmas as `L000` warnings. The
//! result is a [`findings::Report`] with a bench-results-style JSON
//! rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod pragma;
pub mod source;
pub mod workspace;

use std::io;
use std::path::Path;

use findings::{Finding, Report, Severity, Suppressed};
use workspace::Workspace;

/// Load the workspace rooted at `root` and audit it.
pub fn run(root: &Path) -> io::Result<Report> {
    let ws = Workspace::load(root)?;
    Ok(audit(&ws))
}

/// Audit an already-loaded workspace: run every registered lint, apply
/// suppression pragmas, and assemble the report.
pub fn audit(ws: &Workspace) -> Report {
    let mut report = Report { files_scanned: ws.files.len(), ..Report::default() };
    let mut live: Vec<Finding> = Vec::new();
    for lint in lints::all() {
        let before = live.len();
        lint.check(ws, &mut live);
        report.lints.push((lint.code(), lint.name(), live.len() - before));
    }
    apply_pragmas(ws, &mut live, &mut report);
    live.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    // Refresh per-lint counts to the post-suppression numbers.
    for entry in &mut report.lints {
        entry.2 = live.iter().filter(|f| f.code == entry.0).count();
    }
    report.findings = live;
    report
}

/// Apply `audit:allow` pragmas file by file. Each well-formed pragma
/// suppresses **exactly one** finding of its code located on the pragma's
/// line or the immediately following line; pragmas that suppress nothing,
/// and malformed pragmas, become `L000` warnings so allows cannot rot.
fn apply_pragmas(ws: &Workspace, live: &mut Vec<Finding>, report: &mut Report) {
    for file in &ws.files {
        let (pragmas, malformed) = pragma::scan(&file.comments);
        for p in pragmas {
            let slot = live.iter().position(|f| {
                f.file == file.path
                    && f.code == p.code
                    && (f.line == p.line || f.line == p.line + 1)
            });
            match slot {
                Some(idx) => {
                    let finding = live.remove(idx);
                    report.suppressed.push(Suppressed { finding, reason: p.reason });
                }
                None => live.push(Finding {
                    code: "L000",
                    severity: Severity::Warning,
                    file: file.path.clone(),
                    line: p.line,
                    message: format!(
                        "unused audit:allow({}) pragma — it suppresses nothing; remove it",
                        p.code
                    ),
                }),
            }
        }
        for m in malformed {
            live.push(Finding {
                code: "L000",
                severity: Severity::Warning,
                file: file.path.clone(),
                line: m.line,
                message: format!("malformed audit:allow pragma: {}", m.problem),
            });
        }
    }
}
