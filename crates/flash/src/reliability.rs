//! Bit-error model: retention leakage, program interference and ECC.
//!
//! The paper leans on three reliability facts (§2.3, §6.2, Appendix C):
//!
//! * **Retention errors** — charge leaks over time, so programmed cells
//!   (logical `0`) drift back towards `1`. Correct-and-Refresh \[35\] fixes
//!   them by re-programming the corrected image in place, which is itself an
//!   ISPP append.
//! * **Program interference** — (re-)programming a page capacitively couples
//!   into neighbouring wordlines, slightly *increasing* their charge. Only
//!   cells still erased are meaningfully affected, which is why appends can
//!   disturb only the (unused) delta areas of neighbours; on LSB/SLC reads
//!   the two-threshold distance swallows the shift, on MSB reads it can
//!   surface as bit errors (ignored, since MSB pages never carry deltas).
//! * **ECC** — errors that do surface are corrected on read within the
//!   code's capability.
//!
//! The model keeps *logical* error positions per page (relative to the true
//! stored data) rather than corrupting the stored bytes, so ECC correction
//! and uncorrectable-error reporting are exact.

use std::collections::HashMap;

use crate::geometry::{PageKind, Ppa};

/// Configuration of the bit-error injection model. All defaults are zero
/// (deterministic simulation); experiments that exercise reliability enable
/// the rates they need with a seeded RNG. Retention errors have no rate:
/// a test places them with `FlashDevice::inject_retention`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Probability that one (re-)program disturbs one erased bit in each
    /// neighbouring page.
    pub interference_bit_prob: f64,
    /// Bit errors the ECC can correct per page read.
    pub ecc_correctable_bits: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig { interference_bit_prob: 0.0, ecc_correctable_bits: 40 }
    }
}

/// Direction of an injected error, which determines whether a re-program
/// (refresh) can repair it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Charge loss: programmed `0` reads as `1`. Repairable by refresh.
    Retention,
    /// Charge gain on an erased cell: `1` reads as `0`. Only an erase
    /// removes the charge, but the cell can still be legally programmed to
    /// `0` later (the error "disappears" into the programmed value).
    Interference,
}

/// One injected bit error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitError {
    /// Bit index within the page main area.
    pub bit: usize,
    /// Error direction.
    pub kind: ErrorKind,
}

/// Result classification of a page read after ECC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// No raw bit errors were present.
    Clean,
    /// `corrected` raw bit errors were repaired by ECC.
    Corrected {
        /// Number of repaired bits.
        corrected: u32,
    },
}

/// Per-device error ledger. Empty unless a reliability experiment injects
/// errors, so the per-operation lookups return before hashing anything
/// while it is.
#[derive(Debug, Default)]
pub struct ErrorLedger {
    errors: HashMap<Ppa, Vec<BitError>>,
}

impl ErrorLedger {
    /// Record an injected error. A bit can hold at most one error; when a
    /// second error lands on an already-errored bit the kinds are merged in
    /// the non-refreshable direction: an `Interference` hit upgrades a
    /// stored `Retention` error (the extra charge survives a refresh), while
    /// a `Retention` hit on an `Interference` bit changes nothing.
    pub fn inject(&mut self, ppa: Ppa, err: BitError) {
        let list = self.errors.entry(ppa).or_default();
        match list.iter_mut().find(|e| e.bit == err.bit) {
            Some(existing) => {
                if err.kind == ErrorKind::Interference {
                    existing.kind = ErrorKind::Interference;
                }
            }
            None => list.push(err),
        }
    }

    /// Raw bit-error count currently affecting a page.
    pub fn raw_errors(&self, ppa: Ppa) -> u32 {
        if self.errors.is_empty() {
            return 0;
        }
        self.errors.get(&ppa).map_or(0, |v| v.len() as u32)
    }

    /// Errors affecting a page, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn errors(&self, ppa: Ppa) -> &[BitError] {
        self.errors.get(&ppa).map_or(&[], |v| v.as_slice())
    }

    /// Clear all errors of a page (data overwritten by a fresh program, e.g.
    /// a GC migration target).
    pub fn clear(&mut self, ppa: Ppa) {
        if !self.errors.is_empty() {
            self.errors.remove(&ppa);
        }
    }

    /// Clear all errors of the `pages` pages of a block (block erase).
    pub fn clear_block(&mut self, chip: u32, block: u32, pages: u32) {
        if self.errors.is_empty() {
            return;
        }
        for page in 0..pages {
            self.errors.remove(&Ppa::new(chip, block, page));
        }
    }

    /// Clear retention-direction errors of a page: a refresh re-program
    /// restores lost charge. Interference errors (extra charge) survive.
    pub fn refresh(&mut self, ppa: Ppa) -> u32 {
        let Some(list) = self.errors.get_mut(&ppa) else { return 0 };
        let before = list.len();
        list.retain(|e| e.kind != ErrorKind::Retention);
        let removed = before - list.len();
        if list.is_empty() {
            self.errors.remove(&ppa);
        }
        removed as u32
    }

    /// Decide the read outcome for a page under the given ECC capability.
    /// Returns `Err(raw)` with the raw error count when uncorrectable.
    pub fn classify_read(&self, ppa: Ppa, correctable: u32) -> Result<ReadOutcome, u32> {
        let raw = self.raw_errors(ppa);
        if raw == 0 {
            Ok(ReadOutcome::Clean)
        } else if raw <= correctable {
            Ok(ReadOutcome::Corrected { corrected: raw })
        } else {
            Err(raw)
        }
    }

    /// Whether interference on a neighbour page of the given kind surfaces
    /// as a bit error. LSB/SLC reads distinguish only two widely spaced
    /// thresholds, so the small charge shift stays invisible; MSB reads use
    /// four thresholds and can misread (Appendix C.2).
    pub fn interference_visible(kind: PageKind) -> bool {
        kind == PageKind::Msb
    }

    /// Total errors currently tracked (test/diagnostic aid).
    #[cfg_attr(not(test), allow(dead_code))]
    #[expect(clippy::disallowed_methods, reason = "a sum does not depend on the visit order")]
    pub fn total(&self) -> usize {
        self.errors.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Ppa = Ppa { chip: 0, block: 0, page: 0 };

    #[test]
    fn inject_deduplicates_bits() {
        let mut l = ErrorLedger::default();
        l.inject(P, BitError { bit: 5, kind: ErrorKind::Retention });
        l.inject(P, BitError { bit: 5, kind: ErrorKind::Interference });
        assert_eq!(l.raw_errors(P), 1);
    }

    #[test]
    fn kind_collision_upgrades_to_interference() {
        // Regression: an Interference error landing on a bit already holding
        // a Retention error used to be dropped outright, so refresh() wrongly
        // reported the page fully repaired.
        let mut l = ErrorLedger::default();
        l.inject(P, BitError { bit: 5, kind: ErrorKind::Retention });
        l.inject(P, BitError { bit: 5, kind: ErrorKind::Interference });
        assert_eq!(l.errors(P)[0].kind, ErrorKind::Interference);
        // The merged error must survive a refresh.
        assert_eq!(l.refresh(P), 0);
        assert_eq!(l.raw_errors(P), 1);
        // The reverse direction never downgrades.
        l.inject(P, BitError { bit: 5, kind: ErrorKind::Retention });
        assert_eq!(l.errors(P)[0].kind, ErrorKind::Interference);
        assert_eq!(l.raw_errors(P), 1);
    }

    #[test]
    fn classify_clean_corrected_uncorrectable() {
        let mut l = ErrorLedger::default();
        assert_eq!(l.classify_read(P, 2), Ok(ReadOutcome::Clean));
        l.inject(P, BitError { bit: 1, kind: ErrorKind::Retention });
        l.inject(P, BitError { bit: 2, kind: ErrorKind::Retention });
        assert_eq!(l.classify_read(P, 2), Ok(ReadOutcome::Corrected { corrected: 2 }));
        l.inject(P, BitError { bit: 3, kind: ErrorKind::Interference });
        assert_eq!(l.classify_read(P, 2), Err(3));
    }

    #[test]
    fn refresh_removes_only_retention() {
        let mut l = ErrorLedger::default();
        l.inject(P, BitError { bit: 1, kind: ErrorKind::Retention });
        l.inject(P, BitError { bit: 2, kind: ErrorKind::Interference });
        assert_eq!(l.refresh(P), 1);
        assert_eq!(l.raw_errors(P), 1);
        assert_eq!(l.errors(P)[0].kind, ErrorKind::Interference);
    }

    #[test]
    fn clear_wipes_page() {
        let mut l = ErrorLedger::default();
        l.inject(P, BitError { bit: 1, kind: ErrorKind::Retention });
        l.clear(P);
        assert_eq!(l.raw_errors(P), 0);
        assert_eq!(l.total(), 0);
    }

    #[test]
    fn clear_block_wipes_that_block_only() {
        let mut l = ErrorLedger::default();
        l.clear_block(0, 0, 4); // empty ledger: nothing to do
        let other = Ppa { chip: 0, block: 1, page: 2 };
        for page in 0..4 {
            l.inject(
                Ppa { chip: 0, block: 0, page },
                BitError { bit: 1, kind: ErrorKind::Retention },
            );
        }
        l.inject(other, BitError { bit: 1, kind: ErrorKind::Retention });
        l.clear_block(0, 0, 4);
        assert_eq!(l.total(), 1);
        assert_eq!(l.raw_errors(other), 1);
        assert_eq!(l.classify_read(P, 2), Ok(ReadOutcome::Clean));
    }

    #[test]
    fn interference_visibility_follows_page_kind() {
        assert!(!ErrorLedger::interference_visible(PageKind::Lsb));
        assert!(ErrorLedger::interference_visible(PageKind::Msb));
    }
}
