//! The physical flash page: byte storage with monotone-charge semantics.
//!
//! A page is the program/read unit. Erased cells read as `0xFF`; programming
//! (ISPP) can only pull bits from `1` to `0` — the physical fact the paper's
//! in-place appends exploit (§3, §4). [`PageData`] owns the main area and the
//! OOB (spare) area of one page and enforces that rule on every program.
//!
//! An erased page holds no main-area buffer: it *is* all ones, so nothing
//! needs storing until the first program. Buffers detached by an erase wait
//! in the device's [`SparePages`] and are handed to the next program or
//! read, so a page-sized buffer is allocated only while that list is empty.
//! A copy-back program ([`PageData::move_from`]) hands a page's buffer to
//! another page whole; the source is then *migrated* — neither erased nor
//! readable — until its block is erased.

use crate::error::FlashError;
use crate::geometry::Ppa;

/// Lifecycle state of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// All cells uncharged (`0xFF`); never programmed since the last erase.
    Erased,
    /// Initial full-page program performed; `appends` partial programs
    /// (in-place appends) have followed it.
    Programmed {
        /// Number of partial programs performed after the initial program.
        appends: u32,
    },
    /// A copy-back program moved the page's contents to another page. The
    /// cells are not erased, and the device refuses to read, program or
    /// append to them until the block is erased.
    Migrated,
}

impl PageState {
    /// Whether the page holds programmed data (a migrated page does not:
    /// its data lives on the copy-back target).
    pub fn is_programmed(self) -> bool {
        matches!(self, PageState::Programmed { .. })
    }
}

/// Check the monotone-charge (ISPP) rule for one byte.
///
/// Allowed bit transitions are `1→1`, `1→0` and `0→0`; a `0→1` transition
/// would require removing charge from a cell, which only a block erase can
/// do. Returns `true` when `new` is programmable over `old`.
#[inline]
pub(crate) fn ispp_allows(old: u8, new: u8) -> bool {
    new & !old == 0
}

/// Detached main-area buffers awaiting reuse, each exactly one page long.
///
/// Filled by block erases and by [`SparePages::put`] (the device's
/// `recycle`), drained by programs and reads. Contents of a spare buffer
/// are stale: every taker overwrites the buffer whole.
#[derive(Debug)]
pub(crate) struct SparePages {
    page_size: usize,
    free: Vec<Vec<u8>>,
}

impl SparePages {
    /// An empty list for pages of `page_size` bytes.
    pub(crate) fn new(page_size: usize) -> Self {
        SparePages { page_size, free: Vec::new() }
    }

    /// Main-area size of every page of the device, in bytes. Kept here,
    /// once per device: an erased page has no buffer to ask.
    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of buffers waiting for reuse.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free.len()
    }

    /// Accept a buffer for reuse. One whose length is not the page size is
    /// dropped: takers rely on every spare being exactly one page long.
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if buf.len() == self.page_size {
            self.free.push(buf);
        }
    }

    /// A buffer holding a copy of `image` (one page long), reusing a spare
    /// when there is one.
    pub(crate) fn take_copy(&mut self, image: &[u8]) -> Vec<u8> {
        debug_assert_eq!(image.len(), self.page_size);
        match self.free.pop() {
            Some(mut buf) => {
                buf.copy_from_slice(image);
                buf
            }
            None => image.to_vec(),
        }
    }

    /// An all-ones buffer, reusing a spare when there is one.
    fn take_erased(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.fill(0xFF);
                buf
            }
            None => vec![0xFF; self.page_size],
        }
    }
}

/// What a page's main area holds.
#[derive(Debug, Clone, Default)]
enum Cells {
    /// Every cell reads `0xFF`; no buffer exists.
    #[default]
    Erased,
    /// The cells, and the number of partial programs since the initial
    /// program.
    Programmed { main: Vec<u8>, appends: u32 },
    /// The buffer went to a copy-back target; nothing is readable here until
    /// the block is erased.
    Migrated,
}

/// One physical page: main area + OOB area + state. The default value (no
/// OOB bytes) is only a placeholder for the length of a copy-back move.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageData {
    cells: Cells,
    oob: Box<[u8]>,
}

impl PageData {
    /// A freshly erased page with an OOB area of `oob_size` bytes.
    pub fn erased(oob_size: usize) -> Self {
        PageData { cells: Cells::Erased, oob: vec![0xFF; oob_size].into_boxed_slice() }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> PageState {
        match self.cells {
            Cells::Erased => PageState::Erased,
            Cells::Programmed { appends, .. } => PageState::Programmed { appends },
            Cells::Migrated => PageState::Migrated,
        }
    }

    /// The main area, as a read returns it: refused for an erased page
    /// (nothing was written) and for a migrated one (its buffer moved on).
    pub fn readable(&self, ppa: Ppa) -> Result<&[u8], FlashError> {
        match &self.cells {
            Cells::Programmed { main, .. } => Ok(main),
            Cells::Erased => Err(FlashError::ReadOfErasedPage(ppa)),
            Cells::Migrated => Err(FlashError::PageMigrated(ppa)),
        }
    }

    /// Read-only view of the OOB area.
    pub fn oob(&self) -> &[u8] {
        &self.oob
    }

    /// Reset the page to the erased state (invoked by block erase): the
    /// main-area buffer is detached into `spare`, not refilled.
    pub(crate) fn erase(&mut self, spare: &mut SparePages) {
        if let Cells::Programmed { main, .. } = std::mem::take(&mut self.cells) {
            spare.put(main);
        }
        self.oob.fill(0xFF);
    }

    /// The target check of a full program: the page must be erased.
    pub(crate) fn check_erased(&self, ppa: Ppa) -> Result<(), FlashError> {
        match self.cells {
            Cells::Erased => Ok(()),
            _ => Err(FlashError::ProgramNotErased(ppa)),
        }
    }

    /// Initial full-page program, plus the `(offset, bytes)` writes `oob`
    /// into the OOB area. The page must be erased; the data may contain
    /// `0xFF` bytes (cells intentionally left unprogrammed — this is how the
    /// delta-record area stays appendable). Both halves are checked first.
    pub(crate) fn program(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: &[(usize, &[u8])],
        spare: &mut SparePages,
    ) -> Result<(), FlashError> {
        if data.len() != spare.page_size() {
            return Err(FlashError::RangeOutOfPage {
                ppa,
                offset: 0,
                len: data.len(),
                area: spare.page_size(),
            });
        }
        self.check_erased(ppa)?;
        check_oob(ppa, &self.oob, oob)?;
        self.cells = Cells::Programmed { main: spare.take_copy(data), appends: 0 };
        charge_oob(&mut self.oob, oob);
        Ok(())
    }

    /// Copy-back program onto this page, which the device has checked is
    /// erased: take `src`'s main-area buffer whole — no byte is copied —
    /// and a copy of its OOB bytes. `src` is left migrated. A source that
    /// holds no programmed data has nothing to move and changes nothing.
    pub(crate) fn move_from(&mut self, src: &mut PageData) {
        match std::mem::replace(&mut src.cells, Cells::Migrated) {
            Cells::Programmed { main, .. } => {
                self.cells = Cells::Programmed { main, appends: 0 };
                self.oob.copy_from_slice(&src.oob);
            }
            other => src.cells = other,
        }
    }

    /// ISPP partial program (in-place append) of `data` at `offset` within
    /// the main area, plus the writes `oob` into the OOB area (per-delta ECC
    /// codes, paper §6.2): one operation, one append of the budget.
    ///
    /// Fails with [`FlashError::IsppViolation`] if any affected bit of
    /// either half would have to transition `0→1`, and with
    /// [`FlashError::AppendBudgetExceeded`] once `max_appends` partial
    /// programs have already been performed. The checks are performed
    /// *before* any cell is modified, so a failed append leaves the page
    /// unchanged (mirroring a controller that validates the program pattern
    /// first).
    pub(crate) fn program_partial(
        &mut self,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        max_appends: u32,
        spare: &mut SparePages,
    ) -> Result<(), FlashError> {
        let area = spare.page_size();
        let Some(end) = offset.checked_add(data.len()).filter(|&end| end <= area) else {
            return Err(FlashError::RangeOutOfPage { ppa, offset, len: data.len(), area });
        };
        match &self.cells {
            &Cells::Programmed { appends, .. } if appends >= max_appends => {
                let max = max_appends;
                return Err(FlashError::AppendBudgetExceeded { ppa, performed: appends, max });
            }
            Cells::Programmed { main, .. } => check_ispp(ppa, offset, &main[offset..end], data)?,
            Cells::Migrated => return Err(FlashError::PageMigrated(ppa)),
            // Hardware would happily program an erased page partially, but
            // a sane management layer always writes the initial image
            // first; we allow it and treat it as the initial program of the
            // range. Every bit may go 1→0 from all ones, so nothing can
            // violate ISPP; the cells outside the range stay erased.
            Cells::Erased => {}
        }
        check_oob(ppa, &self.oob, oob)?;
        match &mut self.cells {
            Cells::Programmed { main, appends } => {
                main[offset..end].copy_from_slice(data);
                *appends += 1;
            }
            cells => {
                let mut main = spare.take_erased();
                main[offset..end].copy_from_slice(data);
                *cells = Cells::Programmed { main, appends: 0 };
            }
        }
        charge_oob(&mut self.oob, oob);
        Ok(())
    }
}

/// The monotone-charge check of programming `data` over `cells`, which
/// start at byte `offset` of their area.
fn check_ispp(ppa: Ppa, offset: usize, cells: &[u8], data: &[u8]) -> Result<(), FlashError> {
    match cells.iter().zip(data).position(|(&old, &new)| !ispp_allows(old, new)) {
        Some(i) => {
            Err(FlashError::IsppViolation { ppa, offset: offset + i, old: cells[i], new: data[i] })
        }
        None => Ok(()),
    }
}

/// The OOB half of a program's checks: every `(offset, bytes)` write lies
/// inside the area and takes only bits its cells can still take.
fn check_oob(ppa: Ppa, area: &[u8], writes: &[(usize, &[u8])]) -> Result<(), FlashError> {
    for &(offset, bytes) in writes {
        let len = bytes.len();
        let cells = offset
            .checked_add(len)
            .and_then(|end| area.get(offset..end))
            .ok_or(FlashError::RangeOutOfPage { ppa, offset, len, area: area.len() })?;
        check_ispp(ppa, offset, cells, bytes)?;
    }
    Ok(())
}

/// Program checked OOB writes; a byte two of them cover takes both.
fn charge_oob(area: &mut [u8], writes: &[(usize, &[u8])]) {
    for &(offset, bytes) in writes {
        area[offset..offset + bytes.len()].iter_mut().zip(bytes).for_each(|(cell, &b)| *cell &= b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPA: Ppa = Ppa { chip: 0, block: 0, page: 0 };

    fn page() -> (PageData, SparePages) {
        (PageData::erased(16), SparePages::new(64))
    }

    #[test]
    fn erased_page_holds_no_buffer() {
        let (p, _) = page();
        assert_eq!(p.readable(PPA), Err(FlashError::ReadOfErasedPage(PPA)));
        assert!(p.oob().iter().all(|&b| b == 0xFF));
        assert_eq!(p.state(), PageState::Erased);
    }

    #[test]
    fn ispp_rule_single_bytes() {
        assert!(ispp_allows(0xFF, 0x00)); // program everything
        assert!(ispp_allows(0xFF, 0xAB)); // program arbitrary value over erased
        assert!(ispp_allows(0xAB, 0xAB)); // identical re-program
        assert!(ispp_allows(0b1010, 0b1000)); // clear a bit
        assert!(!ispp_allows(0b1010, 0b1011)); // set a bit: forbidden
        assert!(!ispp_allows(0x00, 0xFF)); // un-program: forbidden
    }

    #[test]
    fn full_program_requires_erased() {
        let (mut p, mut spare) = page();
        let data = vec![0x55; 64];
        p.program(PPA, &data, &[], &mut spare).unwrap();
        assert_eq!(p.state(), PageState::Programmed { appends: 0 });
        assert_eq!(p.program(PPA, &data, &[], &mut spare), Err(FlashError::ProgramNotErased(PPA)));
    }

    #[test]
    fn full_program_wrong_length_rejected() {
        let (mut p, mut spare) = page();
        let err = p.program(PPA, &[0u8; 10], &[], &mut spare).unwrap_err();
        assert!(matches!(err, FlashError::RangeOutOfPage { .. }));
        assert_eq!(p.state(), PageState::Erased);
    }

    #[test]
    fn append_into_erased_tail_succeeds() {
        let (mut p, mut spare) = page();
        let mut data = vec![0xFF; 64];
        data[..32].fill(0x13);
        p.program(PPA, &data, &[], &mut spare).unwrap();
        p.program_partial(PPA, 48, &[0x77; 8], &[], 4, &mut spare).unwrap();
        assert_eq!(&p.readable(PPA).unwrap()[48..56], &[0x77; 8]);
        assert_eq!(p.state(), PageState::Programmed { appends: 1 });
    }

    #[test]
    fn append_over_programmed_cells_fails_atomically() {
        let (mut p, mut spare) = page();
        let mut data = vec![0xFF; 64];
        data[..32].fill(0x0F);
        p.program(PPA, &data, &[], &mut spare).unwrap();
        // Bytes 30..34: first two are programmed (0x0F), 0xF0 needs 0->1.
        let err = p.program_partial(PPA, 30, &[0xF0; 4], &[], 4, &mut spare).unwrap_err();
        assert!(matches!(err, FlashError::IsppViolation { offset: 30, .. }));
        // Page unchanged, including the erased part of the range.
        assert_eq!(&p.readable(PPA).unwrap()[30..34], &[0x0F, 0x0F, 0xFF, 0xFF]);
        assert_eq!(p.state(), PageState::Programmed { appends: 0 });
    }

    #[test]
    fn append_budget_enforced() {
        let (mut p, mut spare) = page();
        p.program(PPA, &[0xFF; 64], &[], &mut spare).unwrap();
        p.program_partial(PPA, 0, &[0xFE], &[], 2, &mut spare).unwrap();
        p.program_partial(PPA, 1, &[0xFE], &[], 2, &mut spare).unwrap();
        let err = p.program_partial(PPA, 2, &[0xFE], &[], 2, &mut spare).unwrap_err();
        assert_eq!(err, FlashError::AppendBudgetExceeded { ppa: PPA, performed: 2, max: 2 });
    }

    #[test]
    fn append_out_of_range_rejected() {
        let (mut p, mut spare) = page();
        p.program(PPA, &[0xFF; 64], &[], &mut spare).unwrap();
        let err = p.program_partial(PPA, 60, &[0u8; 8], &[], 4, &mut spare).unwrap_err();
        assert!(matches!(err, FlashError::RangeOutOfPage { offset: 60, len: 8, .. }));
        // Overflow-safe.
        let err = p.program_partial(PPA, usize::MAX, &[0u8; 2], &[], 4, &mut spare).unwrap_err();
        assert!(matches!(err, FlashError::RangeOutOfPage { .. }));
    }

    #[test]
    fn erase_detaches_the_buffer_and_resets_everything() {
        let (mut p, mut spare) = page();
        p.program(PPA, &[0x00; 64], &[(0, &[0x12, 0x34])], &mut spare).unwrap();
        p.erase(&mut spare);
        assert_eq!(p.state(), PageState::Erased);
        assert_eq!(p.readable(PPA), Err(FlashError::ReadOfErasedPage(PPA)));
        assert!(p.oob().iter().all(|&b| b == 0xFF));
        assert_eq!(spare.len(), 1);
        // Erasing an erased page has no buffer to detach.
        p.erase(&mut spare);
        assert_eq!(spare.len(), 1);
    }

    #[test]
    fn partial_program_of_an_erased_page_starts_from_all_ones() {
        // The spare buffer the page picks up is stale (all zeroes here): it
        // must read as erased outside the programmed range, and the
        // pre-erase zeroes must not turn the append into an ISPP violation.
        let (mut p, mut spare) = page();
        p.program(PPA, &[0x00; 64], &[], &mut spare).unwrap();
        p.erase(&mut spare);
        p.program_partial(PPA, 8, &[0xA5; 4], &[], 4, &mut spare).unwrap();
        assert_eq!(spare.len(), 0, "the detached buffer was reused");
        assert_eq!(p.state(), PageState::Programmed { appends: 0 });
        let main = p.readable(PPA).unwrap();
        assert_eq!(&main[8..12], &[0xA5; 4]);
        assert!(main[..8].iter().chain(&main[12..]).all(|&b| b == 0xFF));
    }

    #[test]
    fn move_from_hands_the_buffer_over_and_leaves_the_source_migrated() {
        let (mut src, mut spare) = page();
        let mut dst = PageData::erased(16);
        src.program(PPA, &[0x5A; 64], &[(3, &[0x12])], &mut spare).unwrap();
        let buffer = src.readable(PPA).unwrap().as_ptr();
        dst.move_from(&mut src);
        assert_eq!(dst.readable(PPA).unwrap().as_ptr(), buffer, "moved, not copied");
        assert_eq!(dst.readable(PPA).unwrap(), &[0x5A; 64]);
        assert_eq!(dst.state(), PageState::Programmed { appends: 0 });
        assert_eq!((dst.oob()[3], src.oob()[3]), (0x12, 0x12), "the OOB is copied");
        assert_eq!(src.state(), PageState::Migrated);
        assert_eq!(src.readable(PPA), Err(FlashError::PageMigrated(PPA)));
        assert_eq!(
            src.program(PPA, &[0; 64], &[], &mut spare),
            Err(FlashError::ProgramNotErased(PPA))
        );
        assert_eq!(
            src.program_partial(PPA, 0, &[0], &[], 4, &mut spare),
            Err(FlashError::PageMigrated(PPA))
        );
        // A migrated page has nothing left to move.
        let mut other = PageData::erased(16);
        other.move_from(&mut src);
        assert_eq!((other.state(), src.state()), (PageState::Erased, PageState::Migrated));
        // Its erase detaches no buffer: the buffer left with the move.
        src.erase(&mut spare);
        assert_eq!((src.state(), spare.len()), (PageState::Erased, 0));
    }

    #[test]
    fn spare_list_rejects_other_lengths_and_overwrites_on_reuse() {
        let mut spare = SparePages::new(8);
        spare.put(vec![0; 7]);
        spare.put(vec![0; 9]);
        spare.put(Vec::new());
        assert_eq!(spare.len(), 0);
        spare.put(vec![0x11; 8]);
        assert_eq!(spare.len(), 1);
        assert_eq!(spare.take_copy(&[1, 2, 3, 4, 5, 6, 7, 8]), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(spare.len(), 0);
        // An empty list allocates.
        assert_eq!(spare.take_copy(&[9; 8]), [9; 8]);
        assert_eq!(spare.take_erased(), [0xFF; 8]);
    }

    #[test]
    fn oob_program_monotone_and_bounded() {
        let (mut p, mut spare) = page();
        p.program(PPA, &[0xFF; 64], &[(0, &[0xA0]), (1, &[])], &mut spare).unwrap();
        // Clearing further bits is fine.
        p.program_partial(PPA, 0, &[0xFE], &[(0, &[0x80])], 4, &mut spare).unwrap();
        assert_eq!((p.readable(PPA).unwrap()[0], p.oob()[0]), (0xFE, 0x80));
        // Setting bits back is not, and neither is a range past the area:
        // either refuses the main half too.
        let err = p.program_partial(PPA, 1, &[0x00], &[(0, &[0xA0])], 4, &mut spare).unwrap_err();
        assert_eq!(err, FlashError::IsppViolation { ppa: PPA, offset: 0, old: 0x80, new: 0xA0 });
        let err = p.program_partial(PPA, 1, &[0x00], &[(15, &[0; 2])], 4, &mut spare).unwrap_err();
        assert_eq!(err, FlashError::RangeOutOfPage { ppa: PPA, offset: 15, len: 2, area: 16 });
        assert_eq!((p.readable(PPA).unwrap()[1], p.oob()[0]), (0xFF, 0x80));
        assert_eq!(p.state(), PageState::Programmed { appends: 1 });
        // Two writes of one command over the same byte: it takes both.
        p.program_partial(PPA, 1, &[0x00], &[(5, &[0xF0]), (5, &[0x0F])], 4, &mut spare).unwrap();
        assert_eq!(p.oob()[5], 0x00);
    }
}
