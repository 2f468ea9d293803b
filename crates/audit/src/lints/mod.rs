//! The pluggable lint set.
//!
//! Each lint is a [`Lint`] implementation over the lexed [`Workspace`].
//! Adding a lint means adding a module here, implementing the trait, and
//! registering it in [`all`] — see DESIGN.md ("Static analysis &
//! invariant lints") for the catalog, the conventions a lint must follow
//! (token stream only, test code exempt, findings must name file and
//! line) and the test a rule must pass before it becomes a lint here: no
//! type-aware tool (rustc, clippy, the manifests) can hold it.

use crate::findings::Finding;
use crate::workspace::Workspace;

mod l001_raw_cell_access;
mod l004_queue_pairing;
mod l006_span_pairing;

pub use l001_raw_cell_access::RawCellAccess;
pub use l004_queue_pairing::QueuePairing;
pub use l006_span_pairing::SpanPairing;

/// One audit lint.
pub trait Lint {
    /// Stable code (`L001` ...), the pragma and report key.
    fn code(&self) -> &'static str;
    /// Short kebab-case name.
    fn name(&self) -> &'static str;
    /// One-line description for `ipa-audit lints`.
    fn description(&self) -> &'static str;
    /// Run over the lexed workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// The registered lint set, in code order.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![Box::new(RawCellAccess), Box::new(QueuePairing), Box::new(SpanPairing)]
}

/// Shared token-pattern helpers.
pub(crate) mod pat {
    use crate::lexer::Token;

    /// `t[i..]` starts with `.name()` (a zero-argument method call).
    pub fn is_nullary_method(t: &[Token], i: usize, name: &str) -> bool {
        i + 3 < t.len()
            && t[i].is_punct('.')
            && t[i + 1].is_ident(name)
            && t[i + 2].is_punct('(')
            && t[i + 3].is_punct(')')
    }

    /// `t[i..]` starts with `.name(` (a method call with any arguments).
    pub fn is_method_call(t: &[Token], i: usize, name: &str) -> bool {
        i + 2 < t.len() && t[i].is_punct('.') && t[i + 1].is_ident(name) && t[i + 2].is_punct('(')
    }
}
