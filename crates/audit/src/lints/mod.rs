//! The pluggable lint set.
//!
//! Each lint is a [`Lint`] implementation over the semantic
//! [`Analysis`] context — the lexed workspace plus the item graph and
//! call graph built over it. Adding a lint means adding a module here,
//! implementing the trait, and registering it in [`all`] — see DESIGN.md
//! ("Static analysis & invariant lints") for the catalog and the
//! conventions a lint must follow (token stream only, test code exempt,
//! findings must name file and line).

use crate::findings::Finding;
use crate::Analysis;

mod l001_raw_cell_access;
mod l002_no_panic;
mod l003_layering;
mod l004_queue_pairing;
mod l005_must_use;
mod l006_span_pairing;
mod l007_tx_discipline;
mod l008_determinism;
mod l009_error_flow;
mod l011_lock_discipline;

pub use l001_raw_cell_access::RawCellAccess;
pub use l002_no_panic::NoPanic;
pub use l003_layering::Layering;
pub use l004_queue_pairing::QueuePairing;
pub use l005_must_use::MustUse;
pub use l006_span_pairing::SpanPairing;
pub use l007_tx_discipline::TxDiscipline;
pub use l008_determinism::Determinism;
pub use l009_error_flow::ErrorFlow;
pub use l011_lock_discipline::LockDiscipline;

/// One audit lint.
pub trait Lint {
    /// Stable code (`L001` ...), the pragma and report key.
    fn code(&self) -> &'static str;
    /// Short kebab-case name.
    fn name(&self) -> &'static str;
    /// One-line description for `ipa-audit lints`.
    fn description(&self) -> &'static str;
    /// Run over the analyzed workspace, appending findings.
    fn check(&self, cx: &Analysis<'_>, out: &mut Vec<Finding>);
}

/// The registered lint set, in code order.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(RawCellAccess),
        Box::new(NoPanic),
        Box::new(Layering),
        Box::new(QueuePairing),
        Box::new(MustUse),
        Box::new(SpanPairing),
        Box::new(TxDiscipline),
        Box::new(Determinism),
        Box::new(ErrorFlow),
        Box::new(LockDiscipline),
    ]
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

    /// `t[i..]` starts with `name!` (a macro invocation).
    pub fn is_macro(t: &[Token], i: usize, name: &str) -> bool {
        i + 1 < t.len() && t[i].is_ident(name) && t[i + 1].is_punct('!')
    }
}
