//! The revised NSM page layout (paper Figure 4).
//!
//! ```text
//! +------------------+  0
//! |   page header    |  fixed 32 bytes (id, PageLSN, slot count, scheme)
//! +------------------+  32
//! | delta-record area|  N * (1 + 3M + 3V) bytes, left ERASED (0xFF) on
//! |                  |  flash by the initial program; absorbs appends
//! +------------------+  body_start
//! |   tuple body     |  grows upward from body_start
//! |   ...free...     |
//! |   slot table     |  grows downward from page_size (the footer)
//! +------------------+  page_size
//! ```
//!
//! The delta-record area sits at a *fixed* offset so that the engine can
//! compute the physical append target of `write_delta` without reading the
//! page first. Header and footer are page *metadata*: their modifications
//! are tracked byte-wise into the `V` portion of delta records (§6.1 —
//! e.g. only the frequently-changing least-significant bytes of the 8-byte
//! PageLSN are recorded).

use crate::error::CoreError;
use crate::scheme::NxM;
use crate::Result;

/// Fixed page-header size in bytes.
pub const HEADER_SIZE: usize = 32;
/// Bytes per slot-table entry (2-byte offset + 2-byte length).
pub const SLOT_SIZE: usize = 4;
/// Page magic, chosen with plenty of zero bits so it is ISPP-programmable
/// over an erased page in all cases.
pub const PAGE_MAGIC: u16 = 0x1D0A;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_PAGE_ID: usize = 2;
const OFF_LSN: usize = 10;
pub(crate) const OFF_SLOT_COUNT: usize = 18;
pub(crate) const OFF_FREE_LOWER: usize = 20;
const OFF_FLAGS: usize = 22;
const OFF_N: usize = 24;
const OFF_M: usize = 25;
const OFF_V: usize = 27;

/// Byte offset of the PageLSN field (public for metadata-tracking tests).
pub const LSN_OFFSET: usize = OFF_LSN;

/// Geometry of one database page under a given `[N×M]` scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    /// Total page size in bytes (4 KiB / 8 KiB in the paper; < 64 KiB so
    /// that 2-byte offsets suffice, footnote 3 of §6.1, with `0xFFFF` left
    /// over as the delta records' "unused pair" offset).
    pub page_size: usize,
    /// The scheme sizing the delta-record area.
    pub scheme: NxM,
}

impl PageLayout {
    /// Create a layout, validating that every byte has a two-byte offset
    /// other than [`crate::delta::OFFSET_UNUSED`] — at 64 KiB the last byte
    /// of slot 0's entry would sit at `0xFFFF`, and a pair `(0xFFFF, 0xFF)`,
    /// which a mark-delete writes there, decodes as "unused" — and that the
    /// delta area leaves room for a minimal body (at least a quarter of the
    /// page) and the footer.
    pub fn new(page_size: usize, scheme: NxM) -> Result<Self> {
        if page_size > u16::MAX as usize {
            return Err(CoreError::PageTooLarge { page_size });
        }
        let delta_area = scheme.delta_area_size();
        if HEADER_SIZE + delta_area + page_size / 4 > page_size {
            return Err(CoreError::SchemeDoesNotFit { page_size, delta_area });
        }
        Ok(PageLayout { page_size, scheme })
    }

    /// First byte of the delta-record area.
    pub fn delta_area_start(&self) -> usize {
        HEADER_SIZE
    }

    /// One-past-last byte of the delta-record area.
    pub fn delta_area_end(&self) -> usize {
        HEADER_SIZE + self.scheme.delta_area_size()
    }

    /// Absolute byte offset of delta slot `i`.
    pub fn delta_slot_offset(&self, i: u16) -> usize {
        self.delta_area_start() + self.scheme.slot_offset(i)
    }

    /// First byte of the tuple body.
    pub fn body_start(&self) -> usize {
        self.delta_area_end()
    }

    /// First byte of the slot-table footer for `slot_count` slots.
    pub fn footer_start(&self, slot_count: u16) -> usize {
        self.page_size - slot_count as usize * SLOT_SIZE
    }

    /// Byte range of slot entry `i` (slot 0 sits at the very end).
    pub fn slot_entry_range(&self, i: u16) -> std::ops::Range<usize> {
        let end = self.page_size - i as usize * SLOT_SIZE;
        end - SLOT_SIZE..end
    }

    /// Whether an absolute offset lies in page *metadata* (header or
    /// footer) as opposed to the tuple body. The delta area itself is
    /// neither: it is never the *source* of tracked changes.
    pub fn is_metadata(&self, offset: usize, slot_count: u16) -> bool {
        offset < HEADER_SIZE || offset >= self.footer_start(slot_count)
    }
}

/// Typed accessors over a raw page buffer. All multi-byte fields are
/// little-endian.
#[derive(Debug)]
pub struct HeaderView;

impl HeaderView {
    /// Read the magic.
    pub fn magic(buf: &[u8]) -> u16 {
        u16::from_le_bytes([buf[OFF_MAGIC], buf[OFF_MAGIC + 1]])
    }

    /// Write the magic.
    pub fn set_magic(buf: &mut [u8]) {
        buf[OFF_MAGIC..OFF_MAGIC + 2].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    }

    /// Read the page id.
    pub fn page_id(buf: &[u8]) -> u64 {
        u64::from_le_bytes(buf[OFF_PAGE_ID..OFF_PAGE_ID + 8].try_into().unwrap())
    }

    /// Write the page id.
    pub fn set_page_id(buf: &mut [u8], id: u64) {
        buf[OFF_PAGE_ID..OFF_PAGE_ID + 8].copy_from_slice(&id.to_le_bytes());
    }

    /// Read the PageLSN.
    pub fn lsn(buf: &[u8]) -> u64 {
        u64::from_le_bytes(buf[OFF_LSN..OFF_LSN + 8].try_into().unwrap())
    }

    /// Write the PageLSN.
    pub fn set_lsn(buf: &mut [u8], lsn: u64) {
        buf[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Read the slot count.
    pub fn slot_count(buf: &[u8]) -> u16 {
        u16::from_le_bytes([buf[OFF_SLOT_COUNT], buf[OFF_SLOT_COUNT + 1]])
    }

    /// Write the slot count.
    pub fn set_slot_count(buf: &mut [u8], count: u16) {
        buf[OFF_SLOT_COUNT..OFF_SLOT_COUNT + 2].copy_from_slice(&count.to_le_bytes());
    }

    /// Read the lower free-space bound (first free body byte).
    pub fn free_lower(buf: &[u8]) -> u16 {
        u16::from_le_bytes([buf[OFF_FREE_LOWER], buf[OFF_FREE_LOWER + 1]])
    }

    /// Write the lower free-space bound.
    pub fn set_free_lower(buf: &mut [u8], off: u16) {
        buf[OFF_FREE_LOWER..OFF_FREE_LOWER + 2].copy_from_slice(&off.to_le_bytes());
    }

    /// Read the flags word.
    pub fn flags(buf: &[u8]) -> u16 {
        u16::from_le_bytes([buf[OFF_FLAGS], buf[OFF_FLAGS + 1]])
    }

    /// Write the flags word.
    pub fn set_flags(buf: &mut [u8], flags: u16) {
        buf[OFF_FLAGS..OFF_FLAGS + 2].copy_from_slice(&flags.to_le_bytes());
    }

    /// Read the stored `[N×M]` scheme.
    pub fn scheme(buf: &[u8]) -> NxM {
        NxM {
            n: buf[OFF_N] as u16,
            m: u16::from_le_bytes([buf[OFF_M], buf[OFF_M + 1]]),
            v: buf[OFF_V] as u16,
        }
    }

    /// Write the `[N×M]` scheme into the header.
    pub fn set_scheme(buf: &mut [u8], scheme: NxM) {
        buf[OFF_N] = scheme.n as u8;
        buf[OFF_M..OFF_M + 2].copy_from_slice(&scheme.m.to_le_bytes());
        buf[OFF_V] = scheme.v as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_partitions_page_without_overlap() {
        let l = PageLayout::new(4096, NxM::tpcc()).unwrap();
        assert_eq!(l.delta_area_start(), 32);
        assert_eq!(l.delta_area_end(), 32 + 92);
        assert_eq!(l.body_start(), 124);
        assert_eq!(l.footer_start(0), 4096);
        assert_eq!(l.footer_start(3), 4096 - 12);
        assert_eq!(l.slot_entry_range(0), 4092..4096);
        assert_eq!(l.slot_entry_range(1), 4088..4092);
    }

    #[test]
    fn oversized_scheme_rejected() {
        // N=50, M=20, V=12: area = 50 * 97 = 4850 > page.
        let err = PageLayout::new(4096, NxM::new(50, 20, 12)).unwrap_err();
        assert!(matches!(err, CoreError::SchemeDoesNotFit { .. }));
    }

    #[test]
    fn page_whose_last_offset_is_the_unused_marker_rejected() {
        let err = PageLayout::new(1 << 16, NxM::tpcc()).unwrap_err();
        assert_eq!(err, CoreError::PageTooLarge { page_size: 65536 });
        let l = PageLayout::new(u16::MAX as usize, NxM::tpcc()).unwrap();
        assert!(l.slot_entry_range(0).end - 1 < crate::delta::OFFSET_UNUSED as usize);
    }

    #[test]
    fn disabled_scheme_has_empty_delta_area() {
        let l = PageLayout::new(4096, NxM::disabled()).unwrap();
        assert_eq!(l.delta_area_start(), l.delta_area_end());
        assert_eq!(l.body_start(), HEADER_SIZE);
    }

    #[test]
    fn metadata_classification() {
        let l = PageLayout::new(4096, NxM::tpcc()).unwrap();
        assert!(l.is_metadata(0, 2)); // header
        assert!(l.is_metadata(31, 2)); // header end
        assert!(!l.is_metadata(200, 2)); // body
        assert!(l.is_metadata(4090, 2)); // footer (2 slots -> from 4088)
        assert!(!l.is_metadata(4087, 2)); // just below footer
        assert!(l.is_metadata(4087, 3)); // footer grew
    }

    #[test]
    fn header_roundtrip() {
        let mut buf = vec![0xFFu8; 4096];
        HeaderView::set_magic(&mut buf);
        HeaderView::set_page_id(&mut buf, 4711);
        HeaderView::set_lsn(&mut buf, 0x0102_0304_0506_0708);
        HeaderView::set_slot_count(&mut buf, 3);
        HeaderView::set_free_lower(&mut buf, 124);
        HeaderView::set_flags(&mut buf, 0);
        HeaderView::set_scheme(&mut buf, NxM::tpcb());
        assert_eq!(HeaderView::magic(&buf), PAGE_MAGIC);
        assert_eq!(HeaderView::page_id(&buf), 4711);
        assert_eq!(HeaderView::lsn(&buf), 0x0102_0304_0506_0708);
        assert_eq!(HeaderView::slot_count(&buf), 3);
        assert_eq!(HeaderView::free_lower(&buf), 124);
        assert_eq!(HeaderView::flags(&buf), 0);
        assert_eq!(HeaderView::scheme(&buf), NxM::tpcb());
    }

    #[test]
    fn lsn_lsb_changes_one_byte() {
        // The paper's observation: incrementing the LSN usually touches
        // only the least-significant byte(s).
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        HeaderView::set_lsn(&mut a, 1000);
        HeaderView::set_lsn(&mut b, 1001);
        let diff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert_eq!(diff, 1);
    }
}
