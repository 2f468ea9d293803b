//! L006 — every opened trace span must be closed on all exit paths.
//!
//! The causal-tracing API (`open_span` / `open_span_under` -> `SpanId`,
//! then `close_span`) can leak spans: a function that opens a span but
//! never closes it leaves the span on the device's span stack forever, so
//! every later I/O is mis-attributed to the leaked span and the offline
//! analyzer reports the transaction as unclosed. This lint requires that
//! every `open_span` / `open_span_under` call site in non-test code
//! satisfies one of:
//!
//! * every path from the open reaches `close_span` before the function
//!   can exit — checked over the per-function CFG skeleton
//!   ([`crate::cfg`]), so an early `return` / `?` between open and close,
//!   or a close on only one branch arm, is a finding even when the
//!   `close_span` call is textually present;
//! * the enclosing function's name starts with `open` or `begin` — it
//!   *is* the producer-side API, deferring the close to its caller by
//!   convention (e.g. `Database::begin` opens the transaction span that
//!   `commit` / `abort` close);
//! * `SpanId` appears in its signature — it hands the span id back to the
//!   caller, who owns the close.
//!
//! The opening statement itself is outside the checked window: a `?` on
//! `let sp = obs.open_span(..)?;` is not a leak (the open failed — there
//! is nothing to close).

use super::Lint;
use crate::cfg::{self, Outcome};
use crate::findings::{Finding, Severity};
use crate::lexer::Token;
use crate::workspace::Workspace;

/// See module docs.
pub struct SpanPairing;

impl Lint for SpanPairing {
    fn code(&self) -> &'static str {
        "L006"
    }
    fn name(&self) -> &'static str {
        "span-pairing"
    }
    fn description(&self) -> &'static str {
        "every open_span/open_span_under call reaches close_span on all CFG \
         paths of its function, or the function visibly defers the close \
         (open*/begin* name, SpanId in signature)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let is_close = |tok: &Token| tok.is_ident("close_span");
        for file in &ws.files {
            if file.krate == "audit" || file.test_file {
                continue;
            }
            let t = &file.tokens;
            for f in file.functions() {
                if file.is_test(f.body.0) {
                    continue;
                }
                if f.name.starts_with("open") || f.name.starts_with("begin") {
                    continue;
                }
                let sites: Vec<usize> = (f.body.0..f.body.1.min(t.len()))
                    .filter(|&i| {
                        t[i].ident().is_some_and(|id| id == "open_span" || id == "open_span_under")
                            && t.get(i + 1).is_some_and(|n| n.is_punct('('))
                    })
                    .collect();
                if sites.is_empty() {
                    continue;
                }
                if t[f.sig.0..f.sig.1].iter().any(|tok| tok.is_ident("SpanId")) {
                    continue;
                }
                let nodes = cfg::build(t, f.body.0, f.body.1);
                for site in sites {
                    let outcome =
                        cfg::outcome_after(&nodes, t, site, &is_close).unwrap_or(Outcome::Open);
                    if let Some(why) = describe_leak(outcome) {
                        out.push(Finding {
                            code: "L006",
                            severity: Severity::Error,
                            file: file.path.clone(),
                            line: t[site].line,
                            message: format!(
                                "fn `{}` opens a trace span but {why}; pair the open_span \
                                 with close_span on every path, return the SpanId, or \
                                 rename to open_*/begin_* to defer the close to the caller",
                                f.name
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Human phrasing for a non-Closed outcome; `None` when the path is fine.
fn describe_leak(outcome: Outcome) -> Option<String> {
    match outcome {
        Outcome::Closed => None,
        Outcome::Open => Some("never closes it".to_string()),
        Outcome::Leak(line) => {
            Some(format!("an early exit (`return`/`?`) at line {line} can leak it"))
        }
        Outcome::Partial => Some("closes it only on some paths".to_string()),
    }
}
