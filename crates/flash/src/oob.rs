//! The out-of-band (spare) area and its sectioned layout.
//!
//! Paper §6.2, "Flash ECC and Page OOB Area": under IPA the ECC of a page is
//! computed in at most N steps — `ECC_initial` over the initially programmed
//! image plus one `ECC_delta_i` per appended delta record — and the codes are
//! themselves ISPP-appended to the page's OOB area. This module provides the
//! sectioned layout; the codes are computed by `ipa-core` and written through
//! [`crate::FlashDevice::program_oob`].

/// A named section of the OOB area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// ECC over the initial page image (`ECC_initial` in Figure 4).
    EccInitial,
    /// ECC over the i-th appended delta record (`ECC_delta_rec_i`), 0-based.
    EccDelta(u32),
    /// Free-form management metadata (logical address tag, region id, ...).
    Meta,
}

/// Byte layout of the OOB area: one metadata slot plus `1 + max_deltas`
/// fixed-size ECC slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobLayout {
    /// Total OOB bytes available.
    pub oob_size: usize,
    /// Bytes reserved for management metadata at offset 0.
    pub meta_size: usize,
    /// Bytes per ECC slot.
    pub ecc_slot_size: usize,
    /// Maximum number of delta records (N of the [N×M] scheme).
    pub max_deltas: u32,
}

impl OobLayout {
    /// Standard layout: 16 metadata bytes, 8-byte ECC slots.
    ///
    /// Returns `None` when the OOB area is too small for the requested
    /// number of delta slots.
    pub fn standard(oob_size: usize, max_deltas: u32) -> Option<Self> {
        let layout = OobLayout { oob_size, meta_size: 16, ecc_slot_size: 8, max_deltas };
        if layout.required_bytes() <= oob_size {
            Some(layout)
        } else {
            None
        }
    }

    /// Bytes the layout needs.
    pub fn required_bytes(&self) -> usize {
        self.meta_size + self.ecc_slot_size * (1 + self.max_deltas as usize)
    }

    /// Byte range of a section, or `None` when the delta index exceeds the
    /// layout.
    pub fn range(&self, section: Section) -> Option<std::ops::Range<usize>> {
        match section {
            Section::Meta => Some(0..self.meta_size),
            Section::EccInitial => Some(self.meta_size..self.meta_size + self.ecc_slot_size),
            Section::EccDelta(i) => {
                if i >= self.max_deltas {
                    return None;
                }
                let start = self.meta_size + self.ecc_slot_size * (1 + i as usize);
                Some(start..start + self.ecc_slot_size)
            }
        }
    }
}

/// A decoded view over raw OOB bytes using an [`OobLayout`].
#[derive(Debug, Clone)]
pub struct OobArea<'a> {
    layout: OobLayout,
    bytes: &'a [u8],
}

impl<'a> OobArea<'a> {
    /// Wrap raw OOB bytes. Panics if the buffer is smaller than the layout
    /// requires (a configuration error, not a runtime condition).
    pub fn new(layout: OobLayout, bytes: &'a [u8]) -> Self {
        assert!(bytes.len() >= layout.required_bytes(), "OOB buffer smaller than layout");
        OobArea { layout, bytes }
    }

    /// Raw bytes of a section (`None` for out-of-range delta indices).
    pub fn section(&self, section: Section) -> Option<&'a [u8]> {
        self.layout.range(section).map(|r| &self.bytes[r])
    }

    /// Whether a section is still erased (all `0xFF`), i.e. never written.
    pub fn is_erased(&self, section: Section) -> Option<bool> {
        self.section(section).map(|s| s.iter().all(|&b| b == 0xFF))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_fits_and_partitions() {
        let l = OobLayout::standard(128, 3).unwrap();
        assert_eq!(l.required_bytes(), 16 + 8 * 4);
        assert_eq!(l.range(Section::Meta), Some(0..16));
        assert_eq!(l.range(Section::EccInitial), Some(16..24));
        assert_eq!(l.range(Section::EccDelta(0)), Some(24..32));
        assert_eq!(l.range(Section::EccDelta(2)), Some(40..48));
        assert_eq!(l.range(Section::EccDelta(3)), None);
    }

    #[test]
    fn sections_never_overlap() {
        let l = OobLayout::standard(128, 4).unwrap();
        let mut ranges: Vec<_> = [Section::Meta, Section::EccInitial]
            .into_iter()
            .chain((0..4).map(Section::EccDelta))
            .map(|s| l.range(s).unwrap())
            .collect();
        ranges.sort_by_key(|r| r.start);
        for pair in ranges.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn too_small_oob_rejected() {
        assert!(OobLayout::standard(16, 2).is_none());
        assert!(OobLayout::standard(48, 2).is_some());
    }

    #[test]
    fn area_view_reads_sections() {
        let l = OobLayout::standard(64, 2).unwrap();
        let mut raw = vec![0xFF; 64];
        raw[16..24].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let area = OobArea::new(l, &raw);
        assert_eq!(area.section(Section::EccInitial).unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(area.is_erased(Section::EccInitial), Some(false));
        assert_eq!(area.is_erased(Section::EccDelta(0)), Some(true));
        assert_eq!(area.is_erased(Section::EccDelta(5)), None);
    }
}
