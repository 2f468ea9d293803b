//! The flash block: the erase unit.

use crate::error::FlashError;
use crate::page::{PageData, SparePages};

/// One erase unit: a run of pages sharing bitlines (paper §3).
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pages: Vec<PageData>,
    erase_count: u64,
    /// Grown-bad marker byte, modelling the manufacturer bad-block marker
    /// area of the spare region — the one record of the block's health. A
    /// permanent program fault, an erase-status failure and an erase past
    /// the endurance limit all set it, through [`Block::retire`]. Real
    /// parts reserve this byte *outside* the host-usable spare bytes, so it
    /// is deliberately not addressable through the host OOB window
    /// (programs' OOB writes, `read_oob`): it never clobbers host metadata
    /// on a retired block's readable pages. `0xFF` means good; anything
    /// else marks the block grown bad.
    bad_marker: u8,
}

impl Block {
    /// A fresh block with `pages_per_block` erased pages.
    pub fn new(pages_per_block: u32, oob_size: usize) -> Self {
        Block {
            pages: (0..pages_per_block).map(|_| PageData::erased(oob_size)).collect(),
            erase_count: 0,
            bad_marker: 0xFF,
        }
    }

    /// Erase cycles performed on this block so far.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Whether the block carries the grown-bad marker.
    pub fn is_retired(&self) -> bool {
        self.bad_marker != 0xFF
    }

    /// Retire the block as grown bad: set the bad-block marker.
    /// Irreversible: the device refuses further programs and erases, and
    /// nothing but this method writes the marker.
    pub(crate) fn retire(&mut self) {
        self.bad_marker = 0x00;
    }

    /// Immutable access to a page (panics on out-of-range index; callers
    /// validate against the geometry first).
    pub fn page(&self, page: u32) -> &PageData {
        &self.pages[page as usize]
    }

    /// Mutable access to a page. No write to a page touches the block's
    /// health: the device refuses writes to a retired block before it gets
    /// here.
    pub(crate) fn page_mut(&mut self, page: u32) -> &mut PageData {
        &mut self.pages[page as usize]
    }

    /// Erase the whole block, resetting every page: main-area buffers still
    /// on its pages — those nobody discarded — move to `spare` (pointer
    /// moves, no refill). The device checks the endurance limit first.
    pub(crate) fn erase(
        &mut self,
        chip: u32,
        block: u32,
        spare: &mut SparePages,
    ) -> Result<(), FlashError> {
        if self.is_retired() {
            return Err(FlashError::BlockRetired { chip, block });
        }
        for p in &mut self.pages {
            p.erase(spare);
        }
        self.erase_count += 1;
        Ok(())
    }

    /// Number of pages currently programmed in this block.
    pub fn programmed_pages(&self) -> u32 {
        self.pages.iter().filter(|p| p.state().is_programmed()).count() as u32
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Ppa;
    use crate::page::PageState;

    fn spare() -> SparePages {
        SparePages::new(128)
    }

    #[test]
    fn new_block_is_good_with_erased_pages() {
        let b = Block::new(4, 8);
        assert!(!b.is_retired());
        assert_eq!(b.erase_count(), 0);
        assert_eq!(b.programmed_pages(), 0);
        for p in 0..4 {
            assert_eq!(b.page(p).state(), PageState::Erased);
        }
    }

    #[test]
    fn erase_resets_programmed_pages_and_counts_wear() {
        let mut b = Block::new(4, 8);
        let mut spare = spare();
        let ppa = Ppa::new(0, 0, 1);
        b.page_mut(1).program(ppa, &[0u8; 128], &[], &mut spare).unwrap();
        assert_eq!(b.programmed_pages(), 1);
        b.erase(0, 0, &mut spare).unwrap();
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.programmed_pages(), 0);
        assert_eq!(spare.len(), 1, "only the programmed page had a buffer to detach");
    }

    #[test]
    fn retired_block_refuses_erase() {
        let mut b = Block::new(1, 4);
        b.retire();
        assert!(b.is_retired());
        let err = b.erase(2, 3, &mut spare()).unwrap_err();
        assert_eq!(err, FlashError::BlockRetired { chip: 2, block: 3 });
        assert_eq!(b.erase_count(), 0);
    }

    #[test]
    fn bad_marker_lives_outside_host_oob() {
        // The grown-bad marker must not alias any byte of the host OOB
        // window: retiring a block with programmed page-0 OOB leaves that
        // metadata untouched.
        let mut b = Block::new(2, 4);
        let ppa = Ppa::new(0, 0, 0);
        b.page_mut(0).program(ppa, &[0xAB; 128], &[(0, &[0x12, 0x34])], &mut spare()).unwrap();
        b.retire();
        assert!(b.is_retired());
        assert_eq!(&b.page(0).oob()[..2], &[0x12, 0x34]);
    }
}
