//! The flash block: the erase unit.

use crate::error::FlashError;
use crate::page::{PageData, SparePages};

/// Coarse state of a block, tracked for the management layer's benefit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockState {
    /// All pages erased.
    Free,
    /// At least one page programmed.
    InUse,
    /// Endurance limit reached; further erases fail.
    WornOut,
    /// Grown bad: a permanent program or erase failure retired the block.
    /// Further programs and erases are refused by the device.
    Retired,
}

/// One erase unit: a run of pages sharing bitlines (paper §3).
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pages: Vec<PageData>,
    erase_count: u64,
    state: BlockState,
    /// Grown-bad marker byte, modelling the manufacturer bad-block marker
    /// area of the spare region. Real parts reserve this byte *outside*
    /// the host-usable spare bytes, so it is deliberately not addressable
    /// through the host OOB window (programs' OOB writes, `read_oob`): it
    /// never clobbers host metadata on a retired block's readable pages.
    /// `0xFF` means good; anything else marks the block grown bad.
    bad_marker: u8,
}

impl Block {
    /// A fresh block with `pages_per_block` erased pages.
    pub fn new(pages_per_block: u32, oob_size: usize) -> Self {
        Block {
            pages: (0..pages_per_block).map(|_| PageData::erased(oob_size)).collect(),
            erase_count: 0,
            state: BlockState::Free,
            bad_marker: 0xFF,
        }
    }

    /// Erase cycles performed on this block so far.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Current coarse state.
    #[cfg(test)]
    pub fn state(&self) -> BlockState {
        self.state
    }

    /// Whether the block has been retired as grown bad.
    pub fn is_retired(&self) -> bool {
        self.state == BlockState::Retired
    }

    /// Retire the block as grown bad after a permanent program or erase
    /// failure. Irreversible: the device refuses further programs/erases.
    /// Persists the bad-block marker in the reserved marker area.
    pub(crate) fn retire(&mut self) {
        self.state = BlockState::Retired;
        self.bad_marker = 0x00;
    }

    /// Whether the block carries the persisted grown-bad marker — the
    /// durable form of [`Block::is_retired`] a management layer scans at
    /// mount time.
    pub fn bad_marked(&self) -> bool {
        self.bad_marker != 0xFF
    }

    /// Immutable access to a page (panics on out-of-range index; callers
    /// validate against the geometry first).
    pub fn page(&self, page: u32) -> &PageData {
        &self.pages[page as usize]
    }

    /// Mutable access to a page that leaves the block's state alone: a
    /// copy-back source or a discarded page gives its buffer up, and a
    /// retired block stays retired.
    pub(crate) fn page_mut(&mut self, page: u32) -> &mut PageData {
        &mut self.pages[page as usize]
    }

    /// Run a program or append `write` on page `page`. Once it has written
    /// the page the block is in use; a refused one changes nothing. The
    /// device refuses writes to a retired block before it gets here.
    pub(crate) fn write(
        &mut self,
        page: u32,
        write: impl FnOnce(&mut PageData) -> Result<(), FlashError>,
    ) -> Result<(), FlashError> {
        write(&mut self.pages[page as usize])?;
        self.state = BlockState::InUse;
        Ok(())
    }

    /// Erase the whole block, resetting every page: main-area buffers still
    /// on its pages — those nobody discarded — move to `spare` (pointer
    /// moves, no refill). Fails once the endurance limit is reached; the
    /// failing erase is counted as the wearing-out cycle.
    pub(crate) fn erase(
        &mut self,
        chip: u32,
        block: u32,
        endurance: u64,
        spare: &mut SparePages,
    ) -> Result<(), FlashError> {
        if self.state == BlockState::Retired {
            return Err(FlashError::BlockRetired { chip, block });
        }
        if self.erase_count >= endurance {
            self.state = BlockState::WornOut;
            return Err(FlashError::BlockWornOut { chip, block, cycles: self.erase_count });
        }
        for p in &mut self.pages {
            p.erase(spare);
        }
        self.erase_count += 1;
        self.state = BlockState::Free;
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
    fn new_block_is_free_with_erased_pages() {
        let b = Block::new(4, 8);
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.erase_count(), 0);
        assert_eq!(b.programmed_pages(), 0);
        for p in 0..4 {
            assert_eq!(b.page(p).state(), PageState::Erased);
        }
    }

    #[test]
    fn programming_marks_in_use_and_erase_resets() {
        let mut b = Block::new(4, 8);
        let mut spare = spare();
        let ppa = Ppa::new(0, 0, 1);
        // A refused program writes nothing, so the block stays free.
        let short = b.write(1, |p| p.program(ppa, &[0u8; 7], &[], &mut spare));
        assert!(matches!(short, Err(FlashError::RangeOutOfPage { .. })));
        assert_eq!(b.state(), BlockState::Free);
        b.write(1, |p| p.program(ppa, &[0u8; 128], &[], &mut spare)).unwrap();
        assert_eq!(b.state(), BlockState::InUse);
        assert_eq!(b.programmed_pages(), 1);
        b.erase(0, 0, 100, &mut spare).unwrap();
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.programmed_pages(), 0);
        assert_eq!(spare.len(), 1, "only the programmed page had a buffer to detach");
    }

    #[test]
    fn retired_block_refuses_erase() {
        let mut b = Block::new(1, 4);
        assert!(!b.bad_marked());
        b.retire();
        assert!(b.is_retired());
        assert!(b.bad_marked());
        assert_eq!(b.state(), BlockState::Retired);
        let err = b.erase(2, 3, 100, &mut spare()).unwrap_err();
        assert_eq!(err, FlashError::BlockRetired { chip: 2, block: 3 });
    }

    #[test]
    fn bad_marker_lives_outside_host_oob() {
        // The grown-bad marker must not alias any byte of the host OOB
        // window: retiring a block with programmed page-0 OOB leaves that
        // metadata untouched.
        let mut b = Block::new(2, 4);
        let ppa = Ppa::new(0, 0, 0);
        b.write(0, |p| p.program(ppa, &[0xAB; 128], &[(0, &[0x12, 0x34])], &mut spare())).unwrap();
        b.retire();
        assert!(b.bad_marked());
        assert_eq!(&b.page(0).oob()[..2], &[0x12, 0x34]);
    }

    #[test]
    fn erase_respects_endurance() {
        let mut b = Block::new(1, 4);
        let mut spare = spare();
        b.erase(0, 0, 2, &mut spare).unwrap();
        b.erase(0, 0, 2, &mut spare).unwrap();
        let err = b.erase(0, 7, 2, &mut spare).unwrap_err();
        assert_eq!(err, FlashError::BlockWornOut { chip: 0, block: 7, cycles: 2 });
        assert_eq!(b.state(), BlockState::WornOut);
    }
}
