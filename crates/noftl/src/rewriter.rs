//! GC-carried page rewriting (the zero-extra-I/O reconfiguration hook).
//!
//! Garbage collection and wear leveling already move every valid page of a
//! victim block to a new residency (a copy-back read + program). A
//! [`PageRewriter`] installed on the manager is offered each such page on
//! its new residency, right after the move, and may transform the image
//! (and its OOB bytes) in place — e.g. re-encode the page under a newer
//! `[N×M]` scheme after an online advisor re-tune: NAND's copy-back with
//! data change. Because the migration I/O happens anyway, the
//! reconfiguration itself costs no additional flash operations; it simply
//! rides the migrations (Dayan & Bonnet style piggybacking).
//!
//! The trait deliberately speaks raw bytes: this crate manages flash and
//! knows nothing about page layouts (the engine implements the rewriter
//! over its own page format; this crate's manifest declares no engine
//! dependency).

use std::sync::Arc;

/// A hook invoked for every valid page carried by a GC or wear-leveling
/// migration.
pub trait PageRewriter: Send + Sync {
    /// Offered one valid page (`region`, `lba`) as its migration lands:
    /// the full page image and OOB bytes, on the new residency. Mutate
    /// both in place and return `true` to keep the transformed image, or
    /// return `false` (leaving the bytes untouched) to keep the page
    /// verbatim.
    ///
    /// Runs inline on the migration path: implementations must be cheap
    /// and must not call back into the FTL.
    fn rewrite_for_migration(&self, region: u32, lba: u64, page: &mut [u8], oob: &mut [u8])
        -> bool;
}

/// Storage slot for an optional shared rewriter; manual `Debug` because
/// trait objects have none.
#[derive(Clone, Default)]
pub(crate) struct RewriterSlot(pub(crate) Option<Arc<dyn PageRewriter>>);

impl std::fmt::Debug for RewriterSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "RewriterSlot(installed)" } else { "RewriterSlot(none)" })
    }
}
