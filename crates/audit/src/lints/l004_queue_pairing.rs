//! L004 — every queued-I/O submission must have a completion path.
//!
//! The PR-2 queued command API (`submit_* -> CmdId`, then
//! `complete` / `poll_completions` / `drain`) makes it possible to leak
//! commands: a function that submits but never drains leaves work stuck in
//! the device queues forever, and the chip-parallel scheduler stalls once
//! the host queue fills. This lint requires that every `submit` /
//! `submit_*` call site in non-test code satisfies one of:
//!
//! * every path from the submit reaches a completion API (`complete`,
//!   `poll_completions`, `drain`, `drain_completions`, `drain_all`)
//!   before the function can exit — checked over the per-function CFG
//!   skeleton ([`crate::cfg`]), so an early `return` / `?` between
//!   submit and completion, or a completion on only one branch arm, is a
//!   finding even when the completion call is textually present;
//! * the enclosing function's name starts with `submit` or `stage` — it
//!   *is* the producer-side API, deferring the drain to its caller by
//!   convention (e.g. `Db::stage_flush`);
//! * `CmdId` appears in its signature — it hands the command id back to
//!   the caller, who owns completion.
//!
//! The submit statement itself is outside the checked window: a `?` on
//! `let id = self.submit_read(..)?;` is not a leak (the submit failed —
//! there is nothing to complete).

use super::Lint;
use crate::cfg::{self, Outcome};
use crate::findings::{Finding, Severity};
use crate::lexer::Token;
use crate::workspace::Workspace;

/// See module docs.
pub struct QueuePairing;

/// Completion-side API names.
const COMPLETION_FNS: [&str; 5] =
    ["complete", "poll_completions", "drain", "drain_completions", "drain_all"];

impl Lint for QueuePairing {
    fn code(&self) -> &'static str {
        "L004"
    }
    fn name(&self) -> &'static str {
        "queue-pairing"
    }
    fn description(&self) -> &'static str {
        "every submit/submit_* call reaches complete/poll_completions/drain on \
         all CFG paths of its function, or the function visibly defers \
         completion (submit*/stage* name, CmdId in signature)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let is_close = |tok: &Token| tok.ident().is_some_and(|id| COMPLETION_FNS.contains(&id));
        for file in &ws.files {
            if file.krate == "audit" || file.test_file {
                continue;
            }
            let t = &file.tokens;
            for f in file.functions() {
                if file.is_test(f.body.0) {
                    continue;
                }
                if f.name.starts_with("submit") || f.name.starts_with("stage") {
                    continue;
                }
                let sites: Vec<usize> = (f.body.0..f.body.1.min(t.len()))
                    .filter(|&i| {
                        t[i].ident().is_some_and(|id| id == "submit" || id.starts_with("submit_"))
                            && t.get(i + 1).is_some_and(|n| n.is_punct('('))
                    })
                    .collect();
                if sites.is_empty() {
                    continue;
                }
                if t[f.sig.0..f.sig.1].iter().any(|tok| tok.is_ident("CmdId")) {
                    continue;
                }
                let nodes = cfg::build(t, f.body.0, f.body.1);
                for site in sites {
                    let outcome =
                        cfg::outcome_after(&nodes, t, site, &is_close).unwrap_or(Outcome::Open);
                    if let Some(why) = describe_leak(outcome) {
                        out.push(Finding {
                            code: "L004",
                            severity: Severity::Error,
                            file: file.path.clone(),
                            line: t[site].line,
                            message: format!(
                                "fn `{}` submits queued I/O but {why}; pair the submit \
                                 with complete/poll_completions/drain on every path, \
                                 return the CmdId, or rename to submit_*/stage_* to \
                                 defer completion to the caller",
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
        Outcome::Open => Some("never completes it".to_string()),
        Outcome::Leak(line) => {
            Some(format!("an early exit (`return`/`?`) at line {line} can leave it uncompleted"))
        }
        Outcome::Partial => Some("completes it only on some paths".to_string()),
    }
}
