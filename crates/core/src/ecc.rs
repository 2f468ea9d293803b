//! Sectioned ECC for IPA pages (paper §6.2, "Flash ECC and Page OOB Area").
//!
//! A conventional page ECC covers the whole page image, which breaks once
//! delta records are appended after the initial program. The paper's fix:
//! compute the code in at most `N + 1` steps — `ECC_initial` over the
//! initially programmed image (everything *except* the delta area) plus one
//! `ECC_delta_i` per appended record — and append each code to the page's
//! OOB area with the same ISPP mechanism.
//!
//! The code itself is a CRC-32 (IEEE 802.3 polynomial) per section. CRC is a
//! *detection* code; in this stack the flash layer's reliability model
//! performs the correction (see `ipa_flash::ReliabilityConfig`) and this
//! module provides end-to-end integrity verification above it. The 8-byte
//! OOB slot format is `crc32 (4B) | covered_len (2B) | magic (2B)`.
//!
//! This module is the only place that knows the byte format of the OOB
//! area: [`OobLayout`] cuts it into a `Meta` section and `1 + N` ECC slots,
//! and the `*_write` functions hand the engine ready `(offset, bytes)` OOB
//! programs, so no caller spells an offset or a length of its own.

use crate::error::CoreError;
use crate::scheme::NxM;
use crate::Result;

/// Magic tag of a written ECC slot. Chosen with many zero bits so it is
/// ISPP-programmable over the erased OOB state.
pub const ECC_MAGIC: u16 = 0x0E0C;
/// Size of one encoded ECC slot.
pub const ECC_SLOT_SIZE: usize = 8;

/// CRC-32 (IEEE) over a byte stream, bitwise implementation with a
/// lazily-built table.
pub fn crc32(data: &[u8]) -> u32 {
    // Table built once; 256 u32 entries.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Encode an ECC slot for a covered byte range.
pub fn encode_slot(covered: &[u8]) -> [u8; ECC_SLOT_SIZE] {
    let mut out = [0u8; ECC_SLOT_SIZE];
    out[0..4].copy_from_slice(&crc32(covered).to_le_bytes());
    out[4..6].copy_from_slice(&(covered.len() as u16).to_le_bytes());
    out[6..8].copy_from_slice(&ECC_MAGIC.to_le_bytes());
    out
}

/// Check whether a slot is still erased (never written).
pub fn slot_is_erased(slot: &[u8]) -> bool {
    slot.iter().take(ECC_SLOT_SIZE).all(|&b| b == 0xFF)
}

/// Verify a covered range against its slot. `section` is only used for the
/// error report (0 = initial image, `i + 1` = delta record `i`).
pub fn verify_slot(covered: &[u8], slot: &[u8], section: u32) -> Result<()> {
    if slot.len() < ECC_SLOT_SIZE {
        return Err(CoreError::EccMismatch { section });
    }
    let magic = u16::from_le_bytes([slot[6], slot[7]]);
    let len = u16::from_le_bytes([slot[4], slot[5]]) as usize;
    let crc = u32::from_le_bytes(slot[0..4].try_into().unwrap());
    if magic != ECC_MAGIC || len != covered.len() || crc != crc32(covered) {
        return Err(CoreError::EccMismatch { section });
    }
    Ok(())
}

/// The portion of a page covered by `ECC_initial`: everything except the
/// delta-record area (which is erased at initial program time and changes
/// afterwards).
pub fn initial_coverage(page: &[u8], layout: &crate::layout::PageLayout) -> Vec<u8> {
    let mut out = Vec::with_capacity(page.len() - layout.scheme.delta_area_size());
    out.extend_from_slice(&page[..layout.delta_area_start()]);
    out.extend_from_slice(&page[layout.delta_area_end()..]);
    out
}

/// Compute the `ECC_initial` slot of a page image about to be programmed.
pub fn initial_code(page: &[u8], layout: &crate::layout::PageLayout) -> [u8; ECC_SLOT_SIZE] {
    encode_slot(&initial_coverage(page, layout))
}

/// Verify a freshly-read page against the codes in its OOB bytes: the
/// initial image and every present delta record (erased slots are skipped).
/// Returns the number of delta records on the page, or `None` when the OOB
/// area is too small to hold the scheme's codes and nothing was checked.
pub fn verify_page(
    page: &[u8],
    layout: &crate::layout::PageLayout,
    oob: &[u8],
) -> Result<Option<u16>> {
    let scheme = &layout.scheme;
    let Some(oob_layout) = OobLayout::standard(oob.len(), scheme.n as u32) else {
        return Ok(None);
    };
    let initial_slot = &oob[oob_layout.initial_slot()];
    if !slot_is_erased(initial_slot) {
        verify_slot(&initial_coverage(page, layout), initial_slot, 0)?;
    }
    let n = crate::delta::count_records(
        &page[layout.delta_area_start()..layout.delta_area_end()],
        scheme,
    )?;
    let size = scheme.delta_record_size();
    for i in 0..n {
        let rec_start = layout.delta_slot_offset(i);
        let rec = &page[rec_start..rec_start + size];
        if let Some(r) = oob_layout.range(Section::EccDelta(i as u32)) {
            let slot = &oob[r];
            if !slot_is_erased(slot) {
                verify_slot(rec, slot, i as u32 + 1)?;
            }
        }
    }
    Ok(Some(n))
}

/// A named section of the OOB area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// ECC over the initial page image (`ECC_initial` in Figure 4).
    EccInitial,
    /// ECC over the i-th appended delta record (`ECC_delta_rec_i`), 0-based.
    EccDelta(u32),
    /// Management metadata: reserved, written by nobody yet (the room for a
    /// flash-management tag a mapping rebuild could read).
    Meta,
}

/// Byte layout of the OOB area: one metadata section plus `1 + max_deltas`
/// fixed-size ECC slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobLayout {
    /// Total OOB bytes.
    pub oob_size: usize,
    /// Metadata bytes at offset 0.
    pub meta_size: usize,
    /// Bytes per ECC slot.
    pub ecc_slot_size: usize,
    /// Maximum delta records (N of the `[N×M]` scheme).
    pub max_deltas: u32,
}

impl OobLayout {
    /// Standard layout: 16 metadata bytes, [`ECC_SLOT_SIZE`]-byte ECC slots.
    /// `None` when the OOB area is too small for `max_deltas` delta slots.
    pub fn standard(oob_size: usize, max_deltas: u32) -> Option<Self> {
        let l = OobLayout { oob_size, meta_size: 16, ecc_slot_size: ECC_SLOT_SIZE, max_deltas };
        (l.meta_size + l.ecc_slot_size * (1 + max_deltas as usize) <= oob_size).then_some(l)
    }

    /// Byte range of the `ECC_initial` slot, which every layout has.
    pub fn initial_slot(&self) -> std::ops::Range<usize> {
        self.meta_size..self.meta_size + self.ecc_slot_size
    }

    /// Byte range of a section, or `None` when the delta index exceeds the
    /// layout.
    pub fn range(&self, section: Section) -> Option<std::ops::Range<usize>> {
        match section {
            Section::Meta => Some(0..self.meta_size),
            Section::EccInitial => Some(self.initial_slot()),
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

/// OOB program `(offset, code)` that seeds `ECC_initial` for a page image
/// about to be programmed, or `None` when the OOB area is too small for the
/// page's scheme.
pub fn initial_write(
    oob_size: usize,
    page: &[u8],
    layout: &crate::layout::PageLayout,
) -> Option<(usize, [u8; ECC_SLOT_SIZE])> {
    let oob_layout = OobLayout::standard(oob_size, layout.scheme.n as u32)?;
    Some((oob_layout.initial_slot().start, initial_code(page, layout)))
}

/// OOB program `(offset, code)` that records `ECC_delta_i` for the encoded
/// delta record just appended in slot `i`, or `None` when the OOB area has
/// no such slot for `scheme`.
pub fn delta_write(
    oob_size: usize,
    scheme: &NxM,
    i: u16,
    encoded_record: &[u8],
) -> Option<(usize, [u8; ECC_SLOT_SIZE])> {
    let slot =
        OobLayout::standard(oob_size, scheme.n as u32)?.range(Section::EccDelta(i as u32))?;
    Some((slot.start, encode_slot(encoded_record)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageLayout;
    use crate::slotted::DbPage;
    use crate::tracking::ChangeTracker;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn slot_roundtrip() {
        let data = b"some covered bytes";
        let slot = encode_slot(data);
        verify_slot(data, &slot, 0).unwrap();
        assert!(!slot_is_erased(&slot));
        assert!(slot_is_erased(&[0xFF; 8]));
    }

    #[test]
    fn corruption_detected() {
        let data = b"some covered bytes".to_vec();
        let slot = encode_slot(&data);
        let mut bad = data.clone();
        bad[3] ^= 0x01;
        assert_eq!(verify_slot(&bad, &slot, 5), Err(CoreError::EccMismatch { section: 5 }));
        // Length mismatch also detected.
        assert!(verify_slot(&data[..10], &slot, 1).is_err());
    }

    #[test]
    fn initial_code_ignores_delta_area() {
        let layout = PageLayout::new(4096, crate::scheme::NxM::tpcc()).unwrap();
        let mut t = ChangeTracker::new(layout.scheme, 0, false);
        let mut page = DbPage::format(1, layout);
        page.insert_tuple(&[1, 2, 3], &mut t).unwrap();
        let code = initial_code(page.bytes(), &layout);
        // Appending a delta record must not invalidate ECC_initial.
        let rec = crate::delta::DeltaRecord::new(
            vec![crate::delta::ChangePair { offset: layout.body_start() as u16, value: 7 }],
            vec![],
        );
        let mut page2 = page.clone();
        page2.append_delta_record(&rec).unwrap();
        let code2 = initial_code(page2.bytes(), &layout);
        assert_eq!(code, code2);
        verify_slot(&initial_coverage(page2.bytes(), &layout), &code, 0).unwrap();
    }

    #[test]
    fn verify_page_covers_all_sections() {
        let layout = PageLayout::new(4096, crate::scheme::NxM::tpcc()).unwrap();
        let mut t = ChangeTracker::new(layout.scheme, 0, false);
        let mut page = DbPage::format(1, layout);
        page.insert_tuple(&[1, 2, 3], &mut t).unwrap();

        let mut oob = vec![0xFF; 128];
        let (at, init) = initial_write(oob.len(), page.bytes(), &layout).unwrap();
        oob[at..at + init.len()].copy_from_slice(&init);

        let rec = crate::delta::DeltaRecord::new(
            vec![crate::delta::ChangePair { offset: layout.body_start() as u16, value: 7 }],
            vec![],
        );
        let (idx, _, encoded) = page.append_delta_record(&rec).unwrap();
        let (at, dc) = delta_write(oob.len(), &layout.scheme, idx, &encoded).unwrap();
        oob[at..at + dc.len()].copy_from_slice(&dc);

        assert_eq!(verify_page(page.bytes(), &layout, &oob).unwrap(), Some(1));

        // Corrupt one delta byte in the page: verification fails on the
        // delta section.
        let mut raw = page.bytes().to_vec();
        let slot_off = layout.delta_slot_offset(0);
        raw[slot_off + 2] ^= 0x01;
        let err = verify_page(&raw, &layout, &oob).unwrap_err();
        assert_eq!(err, CoreError::EccMismatch { section: 1 });

        // An OOB area too small for the scheme's slots checks nothing.
        assert_eq!(verify_page(&raw, &layout, &oob[..24]).unwrap(), None);
    }

    #[test]
    fn layout_partitions_the_oob_area_and_fits_what_is_written_there() {
        let l = OobLayout::standard(128, 3).unwrap();
        assert_eq!(l.range(Section::Meta), Some(0..16));
        assert_eq!(l.range(Section::EccInitial), Some(16..24));
        assert_eq!(l.range(Section::EccDelta(2)), Some(40..48));
        assert_eq!(l.range(Section::EccDelta(3)), None);
        // The codes this module produces fit the slots the layout reserves.
        assert_eq!(encode_slot(b"anything").len(), l.ecc_slot_size);

        // A code needs its slot.
        let layout = PageLayout::new(4096, crate::scheme::NxM::tpcc()).unwrap();
        let page = DbPage::format(1, layout);
        assert!(initial_write(39, page.bytes(), &layout).is_none());
        assert!(initial_write(40, page.bytes(), &layout).is_some());
        assert!(delta_write(128, &layout.scheme, layout.scheme.n, &[0; 8]).is_none());
    }
}
