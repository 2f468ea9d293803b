//! L001 — raw flash cell state must not be touched outside `ipa-flash`.
//!
//! The paper's entire correctness story rests on one physical invariant:
//! ISPP programming may only pull bits `1 → 0`, and only
//! `ipa-flash`'s checked `program_*` APIs (`crates/flash/src/page.rs`)
//! enforce it. Any path that reads or mutates raw page bytes from outside
//! the flash crate bypasses that check. This lint forbids, in non-test
//! code of every other crate:
//!
//! * zero-argument `.main()` / `.oob()` calls — the raw cell views of
//!   `PageData` (the zero-argument requirement is the false-positive
//!   guard: `fn main()` definitions and unrelated `x.main(arg)` calls do
//!   not match);
//! * `.peek(` / `.peek_oob(` — the device's diagnostics backdoors, which
//!   bypass timing, statistics and the error model;
//! * any mention of `PageData`, and `use ipa_flash::...` imports of the
//!   raw `Chip` / `Block` / `BlockState` types.

use super::pat;
use super::Lint;
use crate::findings::{Finding, Severity};
use crate::workspace::Workspace;

/// See module docs.
pub struct RawCellAccess;

/// Raw types flagged only inside `use ipa_flash::...` trees — the bare
/// names are too generic to flag everywhere (`Block` is an ordinary word),
/// while `PageData` is distinctive enough to flag at any mention.
const RAW_IMPORT_TYPES: [&str; 3] = ["Chip", "Block", "BlockState"];

impl Lint for RawCellAccess {
    fn code(&self) -> &'static str {
        "L001"
    }
    fn name(&self) -> &'static str {
        "raw-cell-access"
    }
    fn description(&self) -> &'static str {
        "no Page::main/Page::oob/peek or raw chip state outside ipa-flash; \
         all cell mutations go through the ISPP-checked program_* APIs"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if file.krate == "flash" || file.krate == "audit" || file.test_file {
                continue;
            }
            let t = &file.tokens;
            let mut i = 0;
            while i < t.len() {
                if file.is_test(i) {
                    i += 1;
                    continue;
                }
                let hit: Option<String> = if pat::is_nullary_method(t, i, "main") {
                    Some(".main() raw page view".to_string())
                } else if pat::is_nullary_method(t, i, "oob") {
                    Some(".oob() raw page view".to_string())
                } else if pat::is_method_call(t, i, "peek") {
                    Some(".peek() device backdoor".to_string())
                } else if pat::is_method_call(t, i, "peek_oob") {
                    Some(".peek_oob() device backdoor".to_string())
                } else if t[i].is_ident("PageData") {
                    Some("raw page type `PageData`".to_string())
                } else {
                    imported_raw_type(t, i)
                };
                if let Some(what) = hit {
                    out.push(Finding {
                        code: "L001",
                        severity: Severity::Error,
                        file: file.path.clone(),
                        line: t[i].line,
                        message: format!(
                            "{what} accessed outside ipa-flash; cell state must flow through \
                             the ISPP-checked Page/FlashDevice program_* and read APIs"
                        ),
                    });
                }
                i += 1;
            }
        }
    }
}

/// At a `use` keyword: does the use tree import a raw chip-state type
/// from `ipa_flash`? Returns the offending description.
fn imported_raw_type(t: &[crate::lexer::Token], i: usize) -> Option<String> {
    if !t[i].is_ident("use") {
        return None;
    }
    // Only ipa_flash use-trees are interesting.
    let mut j = i + 1;
    let mut saw_flash = false;
    while j < t.len() && !t[j].is_punct(';') {
        if t[j].is_ident("ipa_flash") {
            saw_flash = true;
        } else if saw_flash {
            if let Some(id) = t[j].ident() {
                if RAW_IMPORT_TYPES.contains(&id) {
                    return Some(format!("`use ipa_flash::...::{id}` raw chip-state import"));
                }
            }
        }
        j += 1;
    }
    None
}
