//! Findings, the audit report, and its JSON serialization.
//!
//! The report follows the repo's `bench-results` convention (one
//! self-describing JSON document per run, written next to the benchmark
//! reports) but is hand-serialized — the auditor takes no dependencies,
//! not even `serde`.

use std::fmt::Write as _;

/// How severe a finding is for gating purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit unconditionally.
    Error,
    /// Fails the audit only under `--deny-warnings` (pragma hygiene).
    Warning,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint code (`L000`, `L001`, `L004`, `L006`).
    pub code: &'static str,
    /// Gating severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The conventional `file:line: [code] message` rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.code, self.message)
    }
}

/// A finding that was suppressed by an `audit:allow` pragma.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The suppressed finding.
    pub finding: Finding,
    /// The pragma's recorded justification.
    pub reason: String,
}

/// Full result of an audit run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Live findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by pragmas, with their reasons.
    pub suppressed: Vec<Suppressed>,
    /// Per-lint catalog entries `(code, name, finding count)`.
    pub lints: Vec<(&'static str, &'static str, usize)>,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warning).count()
    }

    /// Whether the audit gate passes.
    pub fn clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Serialize the report as a JSON document (bench-results style).
    pub fn to_json(&self, deny_warnings: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"experiment\": \"ipa-audit\",\n");
        s.push_str("  \"schema\": 1,\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"errors\": {},", self.errors());
        let _ = writeln!(s, "  \"warnings\": {},", self.warnings());
        let _ = writeln!(s, "  \"clean\": {},", self.clean(deny_warnings));
        s.push_str("  \"lints\": [\n");
        for (i, (code, name, count)) in self.lints.iter().enumerate() {
            let comma = if i + 1 == self.lints.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"code\": {}, \"name\": {}, \"findings\": {}}}{}",
                json_str(code),
                json_str(name),
                count,
                comma
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 == self.findings.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"lint\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}",
                json_str(f.code),
                json_str(match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                }),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                comma
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"suppressed\": [\n");
        for (i, sup) in self.suppressed.iter().enumerate() {
            let comma = if i + 1 == self.suppressed.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}{}",
                json_str(sup.finding.code),
                json_str(&sup.finding.file),
                sup.finding.line,
                json_str(&sup.reason),
                comma
            );
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Serialize the report as a SARIF 2.1.0 document for code-scanning
    /// upload. Deterministic: findings are already sorted by
    /// (file, line, code), and rules render in registry order.
    pub fn to_sarif(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        s.push_str("  \"version\": \"2.1.0\",\n");
        s.push_str("  \"runs\": [\n    {\n");
        s.push_str("      \"tool\": {\n        \"driver\": {\n");
        s.push_str("          \"name\": \"ipa-audit\",\n");
        s.push_str("          \"informationUri\": \"https://example.invalid/ipa-audit\",\n");
        s.push_str("          \"rules\": [\n");
        for (i, (code, name, _)) in self.lints.iter().enumerate() {
            let comma = if i + 1 == self.lints.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "            {{\"id\": {}, \"name\": {}}}{}",
                json_str(code),
                json_str(name),
                comma
            );
        }
        s.push_str("          ]\n        }\n      },\n");
        s.push_str("      \"results\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 == self.findings.len() { "" } else { "," };
            let level = match f.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let _ = writeln!(
                s,
                "        {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}",
                json_str(f.code),
                json_str(level),
                json_str(&f.message),
                json_str(&f.file),
                f.line,
                comma
            );
        }
        s.push_str("      ]\n    }\n  ]\n}\n");
        s
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let mut r = Report { files_scanned: 2, ..Default::default() };
        r.lints.push(("L001", "raw-cell-access", 1));
        r.findings.push(Finding {
            code: "L001",
            severity: Severity::Error,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
        });
        let j = r.to_json(true);
        assert!(j.contains("\"experiment\": \"ipa-audit\""));
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"clean\": false"));
        // Balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn sarif_names_rule_file_and_line() {
        let mut r = Report::default();
        r.lints.push(("L006", "span-pairing", 1));
        r.findings.push(Finding {
            code: "L006",
            severity: Severity::Error,
            file: "crates/engine/src/lock.rs".into(),
            line: 7,
            message: "leaked span".into(),
        });
        let s = r.to_sarif();
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"L006\""));
        assert!(s.contains("\"uri\": \"crates/engine/src/lock.rs\""));
        assert!(s.contains("\"startLine\": 7"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn clean_depends_on_deny_warnings() {
        let mut r = Report::default();
        r.findings.push(Finding {
            code: "L000",
            severity: Severity::Warning,
            file: "f".into(),
            line: 1,
            message: "unused pragma".into(),
        });
        assert!(r.clean(false));
        assert!(!r.clean(true));
    }
}
