//! GC-carried page rewriting (the zero-extra-I/O reconfiguration hook).
//!
//! Garbage collection and wear leveling already read every valid page of a
//! victim block and program it to a new residency. A [`PageRewriter`]
//! installed on the manager is offered each such page *between* the read
//! and the program, and may transform the image (and its OOB bytes) in
//! place — e.g. re-encode the page under a newer `[N×M]` scheme after an
//! online advisor re-tune. Because the migration I/O happens anyway, the
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
    /// Offered one valid page (`region`, `lba`) mid-migration with its
    /// full page image and OOB bytes. Mutate both in place and return
    /// `true` to migrate the transformed image, or return `false` (leaving
    /// the buffers untouched) to carry the page verbatim.
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
