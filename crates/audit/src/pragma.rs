//! `// audit:allow(Lxxx, reason = "...")` suppression pragmas.
//!
//! A pragma suppresses **exactly one** finding of the named lint, on the
//! pragma's own line (trailing comment) or on the immediately following
//! line (comment above the offending statement). A `reason` is mandatory —
//! an allow without a recorded justification is itself a finding — and a
//! pragma that suppresses nothing is reported as unused so stale allows
//! cannot accumulate.

use crate::lexer::Comment;

/// A parsed suppression pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-indexed line the pragma comment starts on.
    pub line: u32,
    /// Lint code it targets (`L001`, `L004`, `L006`).
    pub code: String,
    /// The mandatory justification.
    pub reason: String,
}

/// A pragma that could not be parsed (missing reason, bad syntax).
#[derive(Debug, Clone)]
pub struct MalformedPragma {
    /// 1-indexed line.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// Scan a file's comments for pragmas. Doc comments (`///`, `//!`,
/// `/** */`) are ignored: documentation *about* the pragma syntax must not
/// act as a suppression, so pragmas are only honored in plain comments.
pub fn scan(comments: &[Comment]) -> (Vec<Pragma>, Vec<MalformedPragma>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        if matches!(c.text.chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let Some(start) = c.text.find("audit:allow") else { continue };
        let rest = &c.text[start + "audit:allow".len()..];
        match parse_args(rest) {
            Ok((code, reason)) => ok.push(Pragma { line: c.line, code, reason }),
            Err(problem) => bad.push(MalformedPragma { line: c.line, problem }),
        }
    }
    (ok, bad)
}

/// Parse `(Lxxx, reason = "...")`.
fn parse_args(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("expected `(` after audit:allow".to_string());
    };
    let Some(close) = inner.find(')') else {
        return Err("unterminated audit:allow(...)".to_string());
    };
    let inner = &inner[..close];
    let mut parts = inner.splitn(2, ',');
    let code = parts.next().unwrap_or("").trim().to_string();
    if code.len() != 4 || !code.starts_with('L') || !code[1..].chars().all(|c| c.is_ascii_digit()) {
        return Err(format!("bad lint code `{code}` (expected Lxxx)"));
    }
    let Some(reason_part) = parts.next() else {
        return Err("missing `reason = \"...\"` argument".to_string());
    };
    let reason_part = reason_part.trim();
    let Some(eq) = reason_part.strip_prefix("reason") else {
        return Err("second argument must be `reason = \"...\"`".to_string());
    };
    let eq = eq.trim_start();
    let Some(val) = eq.strip_prefix('=') else {
        return Err("second argument must be `reason = \"...\"`".to_string());
    };
    let val = val.trim();
    let reason = val.trim_matches('"').trim();
    if reason.is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((code, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pragmas(src: &str) -> (Vec<Pragma>, Vec<MalformedPragma>) {
        scan(&lex(src).comments)
    }

    #[test]
    fn well_formed_pragma_parses() {
        let (ok, bad) = pragmas("x(); // audit:allow(L004, reason = \"drained by the caller\")");
        assert!(bad.is_empty());
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].code, "L004");
        assert_eq!(ok[0].reason, "drained by the caller");
        assert_eq!(ok[0].line, 1);
    }

    #[test]
    fn missing_reason_is_malformed() {
        let (ok, bad) = pragmas("// audit:allow(L001)");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].problem.contains("reason"));
    }

    #[test]
    fn empty_reason_is_malformed() {
        let (ok, bad) = pragmas("// audit:allow(L001, reason = \"\")");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn bad_code_is_malformed() {
        let (ok, bad) = pragmas("// audit:allow(FOO, reason = \"x\")");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].problem.contains("lint code"));
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (ok, bad) = pragmas("// nothing to see here\n/* audit is great */");
        assert!(ok.is_empty() && bad.is_empty());
    }

    #[test]
    fn doc_comments_never_carry_pragmas() {
        let src = "/// write audit:allow(L004, reason = \"x\") above the line\n//! audit:allow(L001)\nfn f() {}";
        let (ok, bad) = pragmas(src);
        assert!(ok.is_empty() && bad.is_empty());
    }
}
