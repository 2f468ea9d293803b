//! Slotted-page (NSM) tuple operations over the revised layout.
//!
//! [`DbPage`] manipulates a raw page buffer and routes every byte mutation
//! through a [`ChangeTracker`], classifying it as a *body* change (tuple
//! data) or a *metadata* change (header fields, slot table). This is the
//! byte-level tracking the paper relies on: a fixed-length attribute update
//! typically changes one to four body bytes plus the PageLSN's
//! least-significant byte and nothing else.

use crate::delta;
use crate::error::CoreError;
use crate::layout::{
    HeaderView, PageLayout, OFF_FREE_LOWER, OFF_SLOT_COUNT, PAGE_MAGIC, SLOT_SIZE,
};
use crate::scheme::NxM;
use crate::tracking::{ChangeTracker, FlushPlan};
use crate::Result;

/// Index into a page's slot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u16);

/// Length sentinel marking a deleted slot.
const SLOT_DELETED: u16 = 0xFFFF;

/// One database page: a raw buffer plus its layout.
///
/// Free space and the delta-record area are kept at `0xFF` so that the image
/// programmed to flash leaves those cells erased — the precondition for
/// later in-place appends.
#[derive(Debug, Clone)]
pub struct DbPage {
    buf: Vec<u8>,
    layout: PageLayout,
}

impl DbPage {
    /// Format a fresh page: erased buffer, initialized header.
    pub fn format(page_id: u64, layout: PageLayout) -> Self {
        Self::format_in(Vec::new(), page_id, layout)
    }

    /// [`DbPage::format`] into `buf`, keeping its allocation and nothing of
    /// its contents (a buffer pool formats a fresh page in the buffer of
    /// the frame it just evicted).
    pub fn format_in(mut buf: Vec<u8>, page_id: u64, layout: PageLayout) -> Self {
        buf.clear();
        buf.resize(layout.page_size, 0xFF);
        HeaderView::set_magic(&mut buf);
        HeaderView::set_page_id(&mut buf, page_id);
        HeaderView::set_lsn(&mut buf, 0);
        HeaderView::set_slot_count(&mut buf, 0);
        HeaderView::set_free_lower(&mut buf, layout.body_start() as u16);
        HeaderView::set_flags(&mut buf, 0);
        HeaderView::set_scheme(&mut buf, layout.scheme);
        DbPage { buf, layout }
    }

    /// Adopt a buffer read from storage, validating magic and size.
    pub fn from_bytes(buf: Vec<u8>, layout: PageLayout) -> Result<Self> {
        if buf.len() != layout.page_size {
            return Err(CoreError::InvalidPage(format!(
                "buffer of {} bytes, layout expects {}",
                buf.len(),
                layout.page_size
            )));
        }
        if HeaderView::magic(&buf) != PAGE_MAGIC {
            return Err(CoreError::InvalidPage("bad magic".into()));
        }
        Ok(DbPage { buf, layout })
    }

    /// The page layout.
    pub fn layout(&self) -> &PageLayout {
        &self.layout
    }

    /// The `[N×M]` scheme of this page.
    pub fn scheme(&self) -> &NxM {
        &self.layout.scheme
    }

    /// Raw buffer view.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the page, returning the raw buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Page id from the header.
    pub fn page_id(&self) -> u64 {
        HeaderView::page_id(&self.buf)
    }

    /// PageLSN from the header.
    pub fn lsn(&self) -> u64 {
        HeaderView::lsn(&self.buf)
    }

    /// Update the PageLSN, tracking the changed bytes as metadata. Usually
    /// only the least-significant byte differs — exactly the paper's
    /// motivating observation for byte-level metadata tracking.
    pub fn set_lsn(&mut self, lsn: u64, tracker: &mut ChangeTracker) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&lsn.to_le_bytes());
        self.write_meta(crate::layout::LSN_OFFSET, &bytes, tracker);
    }

    /// Number of slots (including deleted ones).
    pub fn slot_count(&self) -> u16 {
        HeaderView::slot_count(&self.buf)
    }

    /// Contiguous free bytes between the body high-water mark and the slot
    /// table, assuming one more slot entry will be needed.
    pub fn free_space_for_insert(&self) -> usize {
        let lower = HeaderView::free_lower(&self.buf) as usize;
        let upper = self.layout.footer_start(self.slot_count() + 1);
        upper.saturating_sub(lower)
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let r = self.layout.slot_entry_range(slot);
        let off = u16::from_le_bytes([self.buf[r.start], self.buf[r.start + 1]]);
        let len = u16::from_le_bytes([self.buf[r.start + 2], self.buf[r.start + 3]]);
        (off, len)
    }

    fn write_slot_entry(&mut self, slot: u16, off: u16, len: u16, tracker: &mut ChangeTracker) {
        let r = self.layout.slot_entry_range(slot);
        let mut bytes = [0u8; SLOT_SIZE];
        bytes[0..2].copy_from_slice(&off.to_le_bytes());
        bytes[2..4].copy_from_slice(&len.to_le_bytes());
        self.write_meta(r.start, &bytes, tracker);
    }

    /// Read a tuple.
    pub fn tuple(&self, slot: SlotId) -> Result<&[u8]> {
        let (off, len) = self.live_entry(slot)?;
        Ok(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Offset and length of a live tuple; a slot that is out of range or
    /// mark-deleted is a [`CoreError::BadSlot`].
    fn live_entry(&self, slot: SlotId) -> Result<(u16, u16)> {
        if slot.0 < self.slot_count() {
            let (off, len) = self.slot_entry(slot.0);
            if len != SLOT_DELETED {
                return Ok((off, len));
            }
        }
        Err(CoreError::BadSlot(slot.0))
    }

    /// Free bytes at the frontier for a tuple that outgrows its place (its
    /// slot entry exists already).
    fn room_to_grow(&self) -> usize {
        let lower = HeaderView::free_lower(&self.buf) as usize;
        self.layout.footer_start(self.slot_count()).saturating_sub(lower)
    }

    /// Where [`Self::update_tuple`] of `slot` with `len` bytes puts them:
    /// `(from, to)`, the offsets from the start of the body at which the
    /// tuple lies now and will lie — the same unless it grows, when it moves
    /// to the free-space frontier — or `None` when it grows past the room
    /// the page has (it fails with [`CoreError::PageFull`]) and has to move
    /// to another page. The slot must be live. Offsets from the start of
    /// the body stay true when [`Self::relayout`] moves the body.
    pub fn update_place(&self, slot: SlotId, len: usize) -> Result<Option<(u16, u16)>> {
        let (off, old) = self.live_entry(slot)?;
        let body = self.layout.body_start() as u16;
        let to = if len <= old as usize {
            off
        } else if len <= self.room_to_grow() {
            HeaderView::free_lower(&self.buf)
        } else {
            return Ok(None);
        };
        Ok(Some((off - body, to - body)))
    }

    /// Whether a slot refers to a live tuple.
    pub fn is_live(&self, slot: SlotId) -> bool {
        self.live_entry(slot).is_ok()
    }

    /// Insert a tuple, returning its slot.
    pub fn insert_tuple(&mut self, data: &[u8], tracker: &mut ChangeTracker) -> Result<SlotId> {
        let available = self.free_space_for_insert();
        if data.len() > available {
            return Err(CoreError::PageFull { needed: data.len(), available });
        }
        let off = HeaderView::free_lower(&self.buf);
        let slot = self.slot_count();
        self.write_body(off as usize, data, tracker);
        self.write_slot_entry(slot, off, data.len() as u16, tracker);
        self.set_slot_count(slot + 1, tracker);
        self.set_free_lower(off + data.len() as u16, tracker);
        Ok(SlotId(slot))
    }

    /// Update a tuple: [`Self::place_tuple`] where [`Self::update_place`]
    /// puts it.
    ///
    /// Same-length updates overwrite in place (the small-update fast path
    /// that IPA turns into delta records). Shrinking updates overwrite the
    /// prefix and adjust the slot length. Growing updates move the tuple to
    /// the free-space frontier — the paper's Figure 1(c) general case,
    /// which inherently dirties more bytes.
    pub fn update_tuple(
        &mut self,
        slot: SlotId,
        data: &[u8],
        tracker: &mut ChangeTracker,
    ) -> Result<()> {
        let Some((_, to)) = self.update_place(slot, data.len())? else {
            return Err(CoreError::PageFull { needed: data.len(), available: self.room_to_grow() });
        };
        self.place_tuple(slot, to.into(), data, tracker)?;
        Ok(())
    }

    /// Overwrite part of a live tuple: `data` from byte `at` of it on — the
    /// window a same-length update changed — leaving the rest as it is.
    /// Only the window is compared with the page. Returns whether the
    /// window lies inside the tuple; one that does not is written nowhere.
    pub fn patch_tuple(
        &mut self,
        slot: SlotId,
        at: usize,
        data: &[u8],
        tracker: &mut ChangeTracker,
    ) -> Result<bool> {
        let (off, len) = self.live_entry(slot)?;
        if at + data.len() > len as usize {
            return Ok(false);
        }
        self.write_body(off as usize + at, data, tracker);
        Ok(true)
    }

    /// Put a live tuple's new image `data` at offset `to` from the start of
    /// the body — where [`Self::update_place`] said it goes, or where it
    /// lay before (rolling an update back) — and raise the free-space
    /// frontier when the tuple now ends past it. Returns whether the image
    /// lies between the start of the body and the slot table; one that does
    /// not is written nowhere.
    pub fn place_tuple(
        &mut self,
        slot: SlotId,
        to: usize,
        data: &[u8],
        tracker: &mut ChangeTracker,
    ) -> Result<bool> {
        self.live_entry(slot)?;
        let (at, end) = (self.layout.body_start() + to, self.layout.body_start() + to + data.len());
        if end > self.layout.footer_start(self.slot_count()) {
            return Ok(false);
        }
        self.write_body(at, data, tracker);
        self.write_slot_entry(slot.0, at as u16, data.len() as u16, tracker);
        if end > HeaderView::free_lower(&self.buf) as usize {
            self.set_free_lower(end as u16, tracker);
        }
        Ok(true)
    }

    /// Restore a previously mark-deleted tuple (recovery undo of a
    /// delete). The slot's offset is preserved by mark-delete, so the
    /// original bytes are rewritten in place and the length restored.
    pub fn undelete_tuple(
        &mut self,
        slot: SlotId,
        data: &[u8],
        tracker: &mut ChangeTracker,
    ) -> Result<()> {
        if slot.0 >= self.slot_count() {
            return Err(CoreError::BadSlot(slot.0));
        }
        let (off, len) = self.slot_entry(slot.0);
        if len != SLOT_DELETED {
            return Err(CoreError::BadSlot(slot.0));
        }
        self.write_body(off as usize, data, tracker);
        self.write_slot_entry(slot.0, off, data.len() as u16, tracker);
        Ok(())
    }

    /// Mark a tuple deleted (its space becomes garbage until compaction).
    pub fn delete_tuple(&mut self, slot: SlotId, tracker: &mut ChangeTracker) -> Result<()> {
        let (off, _) = self.live_entry(slot)?;
        self.write_slot_entry(slot.0, off, SLOT_DELETED, tracker);
        Ok(())
    }

    /// Iterate over live slots.
    pub fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slot_count()).map(SlotId).filter(move |&s| self.is_live(s))
    }

    /// Low-level body write with byte-diff tracking.
    pub fn write_body(&mut self, offset: usize, data: &[u8], tracker: &mut ChangeTracker) {
        debug_assert!(
            offset >= self.layout.body_start(),
            "body write at {offset} inside header/delta area"
        );
        let dst = &mut self.buf[offset..offset + data.len()];
        tracker.record_body_diff(offset, dst, data);
        dst.copy_from_slice(data);
    }

    /// Low-level metadata write with byte-diff tracking.
    pub fn write_meta(&mut self, offset: usize, data: &[u8], tracker: &mut ChangeTracker) {
        let dst = &mut self.buf[offset..offset + data.len()];
        tracker.record_meta_diff(offset, dst, data);
        dst.copy_from_slice(data);
    }

    fn set_slot_count(&mut self, count: u16, tracker: &mut ChangeTracker) {
        self.write_meta(OFF_SLOT_COUNT, &count.to_le_bytes(), tracker);
    }

    fn set_free_lower(&mut self, off: u16, tracker: &mut ChangeTracker) {
        self.write_meta(OFF_FREE_LOWER, &off.to_le_bytes(), tracker);
    }

    /// Number of delta records currently encoded in the delta area.
    pub fn delta_record_count(&self) -> Result<u16> {
        let start = self.layout.delta_area_start();
        delta::count_records(
            &self.buf[start..start + self.layout.scheme.delta_area_size()],
            &self.layout.scheme,
        )
    }

    /// Apply all resident delta records to the page image (the fetch path).
    /// Returns how many records were applied (`N_E`).
    pub fn apply_deltas(&mut self) -> Result<u16> {
        delta::apply_all(&mut self.buf, self.layout.delta_area_start(), &self.layout.scheme)
    }

    /// Encode the pending changes of `tracker` — this page's tracker, whose
    /// [`ChangeTracker::plan`] is [`FlushPlan::Ipa`] — straight into the
    /// next free delta slots, and return the slots written; each is then
    /// one `write_delta` of `scheme().delta_record_size()` bytes from
    /// [`PageLayout::delta_slot_offset`], borrowed from [`Self::bytes`].
    /// Leaves the delta area byte-equal to [`ChangeTracker::decide`]
    /// followed by [`Self::append_delta_record`] per record, with nothing
    /// built in between. Any other plan appends nothing (an empty range).
    pub fn append_tracked(&mut self, tracker: &ChangeTracker) -> Result<std::ops::Range<u16>> {
        let scheme = self.layout.scheme;
        if *tracker.scheme() != scheme {
            return Err(CoreError::InvalidPage(format!(
                "tracker of a {} page asked to append to a {scheme} page",
                tracker.scheme()
            )));
        }
        let first = self.delta_record_count()?;
        let FlushPlan::Ipa(records) = tracker.plan() else { return Ok(first..first) };
        if first + records > scheme.n {
            return Err(CoreError::TooManyDeltas {
                found: first as u32 + records as u32,
                max: scheme.n as u32,
            });
        }
        delta::encode_in_place(
            &mut self.buf,
            self.layout.delta_slot_offset(first),
            &scheme,
            records as usize,
            tracker.body_offsets(),
            tracker.meta_offsets(),
            tracker.meta_changed(),
        );
        Ok(first..first + records)
    }

    /// Append an encoded delta record into the next free slot of the
    /// buffer's delta area, returning `(slot_index, absolute_offset)` for
    /// the matching `write_delta` device command. The reference for
    /// [`Self::append_tracked`].
    pub fn append_delta_record(
        &mut self,
        record: &crate::delta::DeltaRecord,
    ) -> Result<(u16, usize, Vec<u8>)> {
        let n_existing = self.delta_record_count()?;
        if n_existing >= self.layout.scheme.n {
            return Err(CoreError::TooManyDeltas {
                found: n_existing as u32 + 1,
                max: self.layout.scheme.n as u32,
            });
        }
        let encoded = record.encode(&self.layout.scheme)?;
        let abs = self.layout.delta_slot_offset(n_existing);
        self.buf[abs..abs + encoded.len()].copy_from_slice(&encoded);
        Ok((n_existing, abs, encoded))
    }

    /// Reset the delta area to the erased state — done before every
    /// out-of-place write (§6.2: "we reset the delta-record area and write
    /// the up-to-date page from the buffer to a new location").
    pub fn reset_delta_area(&mut self) {
        let start = self.layout.delta_area_start();
        let end = self.layout.delta_area_end();
        self.buf[start..end].fill(0xFF);
    }

    /// Bytes of live tuple data (diagnostics).
    pub fn live_bytes(&self) -> usize {
        self.live_slots().map(|s| self.tuple(s).map(<[u8]>::len).unwrap_or(0)).sum()
    }

    /// Re-encode the page under a different `[N×M]` layout of the same
    /// page size (online scheme versioning): the tuple body shifts as a
    /// block by the delta-area size difference, every slot offset — live
    /// *and* deleted, so recovery undeletes keep working — is adjusted by
    /// that same shift, and the new delta area is left erased (`0xFF`),
    /// ready to absorb appends under the new scheme.
    ///
    /// Any resident delta records must already be folded into the body
    /// ([`DbPage::apply_deltas`]); relayout discards the delta area.
    /// Fails with [`CoreError::PageFull`] when a grown delta area would
    /// push the body into the slot table — the page is left untouched, so
    /// callers can simply keep the old scheme for crowded pages.
    pub fn relayout(&mut self, new_layout: PageLayout) -> Result<()> {
        assert_eq!(new_layout.page_size, self.layout.page_size, "relayout keeps the page size");
        if new_layout == self.layout {
            return Ok(());
        }
        let old = self.layout;
        let slot_count = self.slot_count();
        let free_lower = HeaderView::free_lower(&self.buf) as usize;
        let body_len = free_lower - old.body_start();
        let new_free_lower = new_layout.body_start() + body_len;
        if new_free_lower > new_layout.footer_start(slot_count) {
            return Err(CoreError::PageFull {
                needed: new_free_lower,
                available: new_layout.footer_start(slot_count),
            });
        }
        let mut buf = vec![0xFF; new_layout.page_size];
        buf[..crate::layout::HEADER_SIZE].copy_from_slice(&self.buf[..crate::layout::HEADER_SIZE]);
        HeaderView::set_scheme(&mut buf, new_layout.scheme);
        HeaderView::set_free_lower(&mut buf, new_free_lower as u16);
        buf[new_layout.body_start()..new_free_lower]
            .copy_from_slice(&self.buf[old.body_start()..free_lower]);
        // Slot entries keep their table position (the footer depends only
        // on the page size); their offsets shift with the body block.
        let shift = new_layout.body_start() as i64 - old.body_start() as i64;
        for slot in 0..slot_count {
            let r = old.slot_entry_range(slot);
            let off = u16::from_le_bytes([self.buf[r.start], self.buf[r.start + 1]]);
            let len = [self.buf[r.start + 2], self.buf[r.start + 3]];
            let new_off = (off as i64 + shift) as u16;
            buf[r.start..r.start + 2].copy_from_slice(&new_off.to_le_bytes());
            buf[r.start + 2..r.start + 4].copy_from_slice(&len);
        }
        self.buf = buf;
        self.layout = new_layout;
        Ok(())
    }
}

/// Report every maximal run of bytes where `new` differs from `old` (at
/// least as long) as `on_run(start, len)`, in ascending order, writing
/// nothing: the one scan the log uses to find what a write changes — the
/// runs a node write holds, the window a tuple update holds. Of a tuple of
/// hundreds of bytes a few differ: eight bytes are compared at a time, and
/// only a word that differs is looked at byte by byte.
pub fn changed_runs(old: &[u8], new: &[u8], mut on_run: impl FnMut(usize, usize)) {
    const WORD: usize = std::mem::size_of::<u64>();
    let len = new.len();
    let old = &old[..len];
    let word = |bytes: &[u8], at: usize| {
        let mut w = [0u8; WORD];
        w.copy_from_slice(&bytes[at..at + WORD]);
        u64::from_ne_bytes(w)
    };
    // Start of the run of differing bytes that reaches up to `i`, if any.
    let mut run: Option<usize> = None;
    let mut i = 0;
    while i < len {
        let chunk = WORD.min(len - i);
        if chunk == WORD && word(old, i) == word(new, i) {
            if let Some(start) = run.take() {
                on_run(start, i - start);
            }
            i += WORD;
            continue;
        }
        for j in i..i + chunk {
            if old[j] != new[j] {
                run.get_or_insert(j);
            } else if let Some(start) = run.take() {
                on_run(start, j - start);
            }
        }
        i += chunk;
    }
    if let Some(start) = run {
        on_run(start, len - start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracking::{ChangeTracker, FlushDecision};

    fn layout() -> PageLayout {
        PageLayout::new(4096, NxM::tpcc()).unwrap()
    }

    fn fresh() -> (DbPage, ChangeTracker) {
        let l = layout();
        (DbPage::format(4711, l), ChangeTracker::new(l.scheme, 0, false))
    }

    #[test]
    fn format_initializes_header_and_erased_areas() {
        let (p, _) = fresh();
        assert_eq!(p.page_id(), 4711);
        assert_eq!(p.lsn(), 0);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.delta_record_count().unwrap(), 0);
        // Delta area and free space erased.
        let l = p.layout();
        assert!(p.bytes()[l.delta_area_start()..l.delta_area_end()].iter().all(|&b| b == 0xFF));
        assert!(p.bytes()[l.body_start()..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn from_bytes_validates() {
        let l = layout();
        assert!(matches!(DbPage::from_bytes(vec![0u8; 100], l), Err(CoreError::InvalidPage(_))));
        assert!(matches!(DbPage::from_bytes(vec![0u8; 4096], l), Err(CoreError::InvalidPage(_))));
        let good = DbPage::format(1, l).into_bytes();
        assert!(DbPage::from_bytes(good, l).is_ok());
    }

    #[test]
    fn insert_read_roundtrip() {
        let (mut p, mut t) = fresh();
        let s1 = p.insert_tuple(b"hello", &mut t).unwrap();
        let s2 = p.insert_tuple(b"world!", &mut t).unwrap();
        assert_eq!(p.tuple(s1).unwrap(), b"hello");
        assert_eq!(p.tuple(s2).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.live_bytes(), 11);
    }

    #[test]
    fn same_length_update_overwrites_in_place() {
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(&[9u8, 7, 7, 7], &mut t).unwrap();
        let mut t2 = ChangeTracker::new(*p.scheme(), 0, true);
        p.update_tuple(s, &[3u8, 7, 7, 7], &mut t2).unwrap();
        assert_eq!(p.tuple(s).unwrap(), &[3, 7, 7, 7]);
        // Exactly one body byte changed, zero metadata so far.
        assert_eq!(t2.body_changed(), 1);
        assert_eq!(t2.meta_changed(), 0);
    }

    #[test]
    fn write_with_an_unchanged_middle_records_two_runs() {
        let mut runs = Vec::new();
        changed_runs(&[1, 2, 3, 4, 5, 6, 7, 8], &[9, 9, 3, 4, 5, 9, 9, 9], |start, len| {
            runs.push((start, len))
        });
        assert_eq!(runs, vec![(0, 2), (5, 3)]);

        // Through the page: exactly the five differing bytes are tracked,
        // at their offsets, and writing the same bytes again adds nothing.
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(&[1, 2, 3, 4, 5, 6, 7, 8], &mut t).unwrap();
        let body = p.layout().body_start() as u16;
        let mut t2 = ChangeTracker::new(*p.scheme(), 0, true);
        for _ in 0..2 {
            p.update_tuple(s, &[9, 9, 3, 4, 5, 9, 9, 9], &mut t2).unwrap();
            assert_eq!((t2.body_changed(), t2.meta_changed()), (5, 0));
        }
        let FlushDecision::Ipa(recs) = t2.decide(p.bytes()) else { panic!("5 bytes fit [2x3]") };
        let offsets: Vec<u16> = recs.iter().flat_map(|r| &r.body).map(|c| c.offset).collect();
        assert_eq!(offsets, [0, 1, 5, 6, 7].map(|i| body + i));
    }

    /// The byte loop a page write was before it compared words: the oracle
    /// of [`changed_runs`] and of the tracking of [`DbPage::write_body`] /
    /// [`DbPage::write_meta`].
    fn overwrite_bytewise(dst: &mut [u8], data: &[u8], mut on_run: impl FnMut(usize, usize)) {
        let mut i = 0;
        while i < data.len() {
            if dst[i] == data[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < data.len() && dst[i] != data[i] {
                i += 1;
            }
            dst[start..i].copy_from_slice(&data[start..i]);
            on_run(start, i - start);
        }
    }

    #[test]
    fn changed_runs_reports_the_runs_of_the_byte_loop() {
        use rand::Rng;
        let mut runs_seen = 0;
        ipa_flash::for_each_case(3_000, |rng| {
            // A slice at any alignment inside a larger buffer, of any
            // length around the word size, into which differing runs of
            // any length are planted: inside a word, across word borders,
            // touching each other's words, at both ends.
            let (lead, len) = (rng.gen_range(0..9), rng.gen_range(0..200));
            let old: Vec<u8> = (0..lead + len + 9).map(|_| rng.gen()).collect();
            let mut new = old[lead..lead + len].to_vec();
            for _ in 0..rng.gen_range(0..6) {
                if len == 0 {
                    break;
                }
                let start = rng.gen_range(0..len);
                let run = match rng.gen_range(0..3) {
                    0 => 1,
                    1 => rng.gen_range(1..10),
                    _ => rng.gen_range(1..60),
                };
                for b in &mut new[start..(start + run).min(len)] {
                    *b = if rng.gen_range(0..8) == 0 { *b } else { !*b };
                }
            }
            let mut expected = old.clone();
            let (mut runs, mut expected_runs) = (Vec::new(), Vec::new());
            overwrite_bytewise(&mut expected[lead..lead + len], &new, |s, l| {
                expected_runs.push((s, l))
            });
            // The bytes of `old` past `new`'s length are not looked at.
            changed_runs(&old[lead..], &new, |s, l| runs.push((s, l)));
            assert_eq!(runs, expected_runs);
            runs_seen += runs.len();
        });
        assert!(runs_seen > 3_000, "{runs_seen} runs");
    }

    #[test]
    fn word_parallel_tracking_records_what_the_byte_loop_records() {
        use rand::Rng;
        let (mut straddled, mut latched, mut offsets_seen) = (0, 0, 0);
        ipa_flash::for_each_case(2_000, |rng| {
            // A page written through `write_body` / `write_meta`, and its
            // bytes written by the byte loop, whose runs go to a second
            // tracker one by one: a scheme roomy or tight, on flash or
            // not, with delta records on flash or none.
            let schemes = [NxM::tpcc(), NxM::tpcb(), NxM::new(1, 2, 2), NxM::disabled()];
            let scheme = schemes[rng.gen_range(0..schemes.len())];
            let (on_flash, n_existing) = (rng.gen_bool(0.8), rng.gen_range(0..=scheme.n));
            let mut t = ChangeTracker::new(scheme, n_existing, on_flash);
            let mut oracle = ChangeTracker::new(scheme, n_existing, on_flash);
            let mut page = DbPage::format(7, layout());
            for slot in 0..rng.gen_range(0..20) {
                let tuple: Vec<u8> = (0..rng.gen_range(1..120)).map(|_| rng.gen()).collect();
                page.insert_tuple(&tuple, &mut ChangeTracker::new(scheme, 0, false)).unwrap();
                assert_eq!(page.slot_count(), slot + 1);
            }
            let mut bytes = page.bytes().to_vec();
            let body_start = page.layout().body_start();
            for _ in 0..rng.gen_range(1..12) {
                let meta = rng.gen_bool(0.3);
                let len = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..4),
                    1 | 2 => rng.gen_range(1..24),
                    _ => rng.gen_range(1..300),
                };
                let from = if meta { 0 } else { body_start };
                // Now and then a write that starts in the last bytes of a
                // word of the bitmap, so its masks straddle two.
                let at = if rng.gen_bool(0.3) {
                    (64 * rng.gen_range(from / 64 + 1..(4096 - len) / 64)
                        - rng.gen_range(1..8usize))
                    .max(from)
                } else {
                    rng.gen_range(from..=4096 - len)
                };
                straddled += usize::from(at % 64 > 56 && len > 64 - at % 64);
                // The bytes there, a few of them changed, or new bytes.
                let mut data = bytes[at..at + len].to_vec();
                if rng.gen_bool(0.2) {
                    data.iter_mut().for_each(|b| *b = rng.gen());
                } else {
                    for _ in 0..rng.gen_range(0..4) {
                        if len > 0 {
                            let i = rng.gen_range(0..len);
                            data[i] ^= 1u8 << rng.gen_range(0..8u32);
                        }
                    }
                }
                if meta {
                    page.write_meta(at, &data, &mut t);
                } else {
                    page.write_body(at, &data, &mut t);
                }
                overwrite_bytewise(&mut bytes[at..at + len], &data, |start, run| {
                    let start = (at + start) as u16;
                    if meta {
                        oracle.record_meta_run(start, run);
                    } else {
                        oracle.record_body_run(start, run);
                    }
                });
                assert_eq!(page.bytes(), &bytes[..]);
                assert!(t.body_offsets().eq(oracle.body_offsets()), "body at {at}+{len}");
                assert!(t.meta_offsets().eq(oracle.meta_offsets()), "meta at {at}+{len}");
                assert_eq!(
                    (t.body_changed(), t.meta_changed(), t.exceeded(), t.is_dirty(), t.plan()),
                    (
                        oracle.body_changed(),
                        oracle.meta_changed(),
                        oracle.exceeded(),
                        oracle.is_dirty(),
                        oracle.plan()
                    ),
                    "after a write at {at}+{len}"
                );
            }
            latched += usize::from(t.exceeded() && on_flash && scheme.is_enabled());
            offsets_seen += t.body_changed() + t.meta_changed();
        });
        assert!(straddled > 300 && latched > 100, "{straddled} straddling writes, {latched}");
        assert!(offsets_seen > 50_000, "{offsets_seen}");
    }

    #[test]
    fn append_tracked_leaves_the_delta_area_decide_and_append_would() {
        use rand::Rng;
        let (mut appended, mut spilled, mut spread, mut onto_existing) = (0, 0, 0, 0);
        ipa_flash::for_each_case(3_000, |rng| {
            let scheme = match rng.gen_range(0..4) {
                0 => NxM::linkbench(),
                1 => NxM::tpcc(),
                _ => NxM::new(rng.gen_range(1..5), rng.gen_range(1..9), rng.gen_range(0..5)),
            };
            let l = PageLayout::new(4096, scheme).unwrap();
            let mut page = DbPage::format(3, l);
            let mut fresh = ChangeTracker::new(scheme, 0, false);
            let mut slots: Vec<SlotId> =
                (0..12).map(|_| page.insert_tuple(&[0u8; 150], &mut fresh).unwrap()).collect();
            // Up to N flushes of one page: each round changes some body
            // bytes (spilling over several records when they exceed M) and
            // some metadata, and appends both ways.
            let mut n_existing = 0;
            for _ in 0..=scheme.n {
                let mut t = ChangeTracker::new(scheme, n_existing, true);
                for _ in 0..rng.gen_range(0..4) {
                    let slot = slots[rng.gen_range(0..slots.len())];
                    let mut tuple = page.tuple(slot).unwrap().to_vec();
                    let (at, run) = (rng.gen_range(0..140usize), rng.gen_range(1..10usize));
                    tuple[at..at + run].iter_mut().for_each(|b| *b = rng.gen());
                    page.update_tuple(slot, &tuple, &mut t).unwrap();
                }
                match rng.gen_range(0..3) {
                    0 => page.set_lsn(rng.gen(), &mut t),
                    // Two metadata bytes at the far end of the page.
                    1 if slots.len() > 1 => {
                        let gone = slots.swap_remove(rng.gen_range(0..slots.len()));
                        page.delete_tuple(gone, &mut t).unwrap();
                    }
                    _ => {}
                }
                let mut reference = page.clone();
                let by_reference: Result<Vec<u16>> = match t.decide(page.bytes()) {
                    FlushDecision::Ipa(records) => records
                        .iter()
                        .map(|r| reference.append_delta_record(r).map(|(slot, _, _)| slot))
                        .collect(),
                    FlushDecision::Clean | FlushDecision::OutOfPlace => Ok(Vec::new()),
                };
                let slots_used: Vec<u16> = page.append_tracked(&t).unwrap().collect();
                assert_eq!(slots_used, by_reference.unwrap());
                assert_eq!(page.bytes(), reference.bytes());
                n_existing += slots_used.len() as u16;
                appended += slots_used.len();
                spilled += (slots_used.len() > 1) as u32;
                spread += (slots_used.len() > 1 && t.meta_changed() > scheme.v as usize) as u32;
                onto_existing += (!slots_used.is_empty() && slots_used[0] > 0) as u32;
            }
        });
        assert!(spilled > 500, "{spilled} appends of several records");
        assert!(spread > 50, "{spread} appends with metadata in more than one record");
        assert!(onto_existing > 500, "{onto_existing} appends behind resident records");
        assert!(appended > 3_000, "{appended} records appended");
    }

    #[test]
    fn append_tracked_refuses_what_does_not_fit_and_writes_nothing() {
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(&[0u8; 8], &mut t).unwrap();
        let body = p.layout().body_start() as u16;
        let rec = crate::delta::DeltaRecord::new(
            vec![crate::delta::ChangePair { offset: body, value: 1 }],
            vec![],
        );
        p.append_delta_record(&rec).unwrap();
        // The tracker believes both slots of [2x3] are free and needs two.
        let mut t2 = ChangeTracker::new(*p.scheme(), 0, true);
        p.update_tuple(s, &[1, 1, 1, 1, 0, 0, 0, 0], &mut t2).unwrap();
        assert_eq!(t2.plan(), FlushPlan::Ipa(2));
        let before = p.bytes().to_vec();
        assert!(matches!(
            p.append_tracked(&t2),
            Err(CoreError::TooManyDeltas { found: 3, max: 2 })
        ));
        assert_eq!(p.bytes(), &before[..]);
        // A tracker of another scheme is not this page's tracker.
        let other = ChangeTracker::new(NxM::tpcb(), 0, true);
        assert!(matches!(p.append_tracked(&other), Err(CoreError::InvalidPage(_))));
        // Nothing pending, nothing appended.
        let clean = ChangeTracker::new(*p.scheme(), 1, true);
        assert_eq!(p.append_tracked(&clean), Ok(1..1));
    }

    #[test]
    fn forged_pair_into_the_delta_area_is_corruption_not_applied() {
        use crate::delta::{ChangePair, DeltaRecord};
        // A record in slot 0 whose pair targets slot 1's control byte: the
        // apply used to poke it, and the page came out claiming a record
        // in a slot nothing was appended to.
        let (mut p, mut t) = fresh();
        p.insert_tuple(&[1, 2, 3], &mut t).unwrap();
        let slot1 = p.layout().delta_slot_offset(1) as u16;
        let forged = DeltaRecord::new(
            vec![ChangePair { offset: slot1, value: crate::delta::CTRL_PRESENT }],
            vec![],
        );
        p.append_delta_record(&forged).unwrap();
        assert!(matches!(p.apply_deltas(), Err(CoreError::CorruptDelta(_))));
        assert_eq!(p.delta_record_count().unwrap(), 1, "control bytes untouched");
    }

    #[test]
    fn mark_delete_of_slot_0_survives_the_delta_path_on_the_largest_page() {
        // The last byte of slot 0's entry has the highest offset a page can
        // have: it must not collide with the unused-pair marker 0xFFFF.
        let l = PageLayout::new(u16::MAX as usize, NxM::tpcc()).unwrap();
        let mut p = DbPage::format(1, l);
        let s = p.insert_tuple(b"abc", &mut ChangeTracker::new(l.scheme, 0, false)).unwrap();
        let mut on_flash = DbPage::from_bytes(p.bytes().to_vec(), l).unwrap();
        let mut t = ChangeTracker::new(l.scheme, 0, true);
        p.delete_tuple(s, &mut t).unwrap();
        let FlushDecision::Ipa(recs) = t.decide(p.bytes()) else { panic!("two metadata bytes") };
        for rec in &recs {
            on_flash.append_delta_record(rec).unwrap();
        }
        on_flash.apply_deltas().unwrap();
        assert!(!on_flash.is_live(s));
        assert_eq!(on_flash.bytes()[l.body_start()..], p.bytes()[l.body_start()..]);
    }

    #[test]
    fn growing_update_relocates() {
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(b"ab", &mut t).unwrap();
        let before_free = HeaderView::free_lower(p.bytes());
        p.update_tuple(s, b"abcdef", &mut t).unwrap();
        assert_eq!(p.tuple(s).unwrap(), b"abcdef");
        assert!(HeaderView::free_lower(p.bytes()) > before_free);
    }

    #[test]
    fn shrinking_update_keeps_offset() {
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(b"abcdef", &mut t).unwrap();
        p.update_tuple(s, b"ab", &mut t).unwrap();
        assert_eq!(p.tuple(s).unwrap(), b"ab");
    }

    #[test]
    fn delete_makes_slot_dead() {
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(b"abc", &mut t).unwrap();
        p.delete_tuple(s, &mut t).unwrap();
        assert!(!p.is_live(s));
        assert!(matches!(p.tuple(s), Err(CoreError::BadSlot(_))));
        assert!(matches!(p.delete_tuple(s, &mut t), Err(CoreError::BadSlot(_))));
        assert_eq!(p.live_slots().count(), 0);
    }

    #[test]
    fn undelete_restores_tuple() {
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(b"abc", &mut t).unwrap();
        p.delete_tuple(s, &mut t).unwrap();
        assert!(!p.is_live(s));
        p.undelete_tuple(s, b"abc", &mut t).unwrap();
        assert!(p.is_live(s));
        assert_eq!(p.tuple(s).unwrap(), b"abc");
        // Undelete of a live slot is rejected.
        assert!(matches!(p.undelete_tuple(s, b"abc", &mut t), Err(CoreError::BadSlot(_))));
    }

    #[test]
    fn page_full_reported() {
        let (mut p, mut t) = fresh();
        let big = vec![0u8; 2000];
        p.insert_tuple(&big, &mut t).unwrap();
        let err = p.insert_tuple(&big, &mut t).unwrap_err();
        assert!(matches!(err, CoreError::PageFull { .. }));
    }

    #[test]
    fn bad_slots_rejected() {
        let (mut p, mut t) = fresh();
        assert!(matches!(p.tuple(SlotId(0)), Err(CoreError::BadSlot(0))));
        assert!(matches!(p.update_tuple(SlotId(3), b"x", &mut t), Err(CoreError::BadSlot(3))));
    }

    #[test]
    fn a_tuple_is_patched_and_placed_only_where_it_fits() {
        let (mut p, mut t) = fresh();
        let a = p.insert_tuple(&[1u8; 100], &mut t).unwrap();
        let b = p.insert_tuple(&[2u8; 10], &mut t).unwrap();
        // A window inside the tuple is written there, and only there.
        assert!(p.patch_tuple(a, 96, &[9, 9, 9, 9], &mut t).unwrap());
        assert_eq!(p.tuple(a).unwrap()[94..], [1, 1, 9, 9, 9, 9]);
        assert_eq!(p.tuple(b).unwrap(), [2u8; 10]);
        // One that reaches past the tuple's end is written nowhere.
        let before = p.bytes().to_vec();
        assert!(!p.patch_tuple(a, 97, &[8, 8, 8, 8], &mut t).unwrap());
        assert!(!p.patch_tuple(b, 0, &[8; 11], &mut t).unwrap());
        assert_eq!(p.bytes(), &before[..]);
        // An image placed back where the tuple lay before it grew: the slot
        // points there again and the frontier does not move.
        let (from, to) = p.update_place(a, 150).unwrap().unwrap();
        assert_eq!((from, to), (0, 110));
        assert!(p.place_tuple(a, to.into(), &[3u8; 150], &mut t).unwrap());
        let lower = p.free_space_for_insert();
        assert!(p.place_tuple(a, from.into(), &[1u8; 100], &mut t).unwrap());
        assert_eq!((p.tuple(a).unwrap(), p.free_space_for_insert()), (&[1u8; 100][..], lower));
        // An image that would reach into the slot table is placed nowhere.
        let room = p.free_space_for_insert() + crate::layout::SLOT_SIZE;
        let before = p.bytes().to_vec();
        assert!(!p.place_tuple(a, 260, &vec![4u8; room + 1], &mut t).unwrap());
        assert_eq!(p.bytes(), &before[..]);
        // A dead slot is a bad slot to both.
        p.delete_tuple(b, &mut t).unwrap();
        assert!(matches!(p.patch_tuple(b, 0, &[1], &mut t), Err(CoreError::BadSlot(1))));
        assert!(matches!(p.place_tuple(b, 0, &[1], &mut t), Err(CoreError::BadSlot(1))));
    }

    #[test]
    fn update_place_says_what_update_tuple_does() {
        // A page with `room` bytes left at the frontier: a 100-byte tuple
        // in slot 0, a mark-deleted one in slot 1, filler behind them.
        let page_with_room = |room: usize| {
            let (mut p, mut t) = fresh();
            let live = p.insert_tuple(&[1u8; 100], &mut t).unwrap();
            let dead = p.insert_tuple(&[2u8; 10], &mut t).unwrap();
            p.delete_tuple(dead, &mut t).unwrap();
            let filler = p.free_space_for_insert() - room;
            p.insert_tuple(&vec![3u8; filler], &mut t).unwrap();
            assert_eq!(p.room_to_grow(), room);
            (p, t, live, dead)
        };
        // (free bytes, new length, fits)
        for (room, len, fits) in [
            (50, 100, true),  // same length
            (0, 100, true),   // ... on a full page
            (0, 40, true),    // shorter
            (0, 0, true),     // empty
            (50, 101, false), // longer: moves to the frontier, whole
            (101, 101, true),
            (100, 101, false),
            (200, 150, true),
            (200, 201, false),
        ] {
            let (mut p, mut t, live, _) = page_with_room(room);
            let place = p.update_place(live, len).unwrap();
            assert_eq!(place.is_some(), fits, "{room} free, {len} bytes");
            let frontier = (p.layout().footer_start(3) - room - p.layout().body_start()) as u16;
            match p.update_tuple(live, &vec![7u8; len], &mut t) {
                Ok(()) => {
                    assert!(fits, "{room} free, {len} bytes: updated");
                    // Slot 0 lies at the start of the body, and stays there
                    // unless it grows, when it moves to the frontier.
                    let to = if len <= 100 { 0 } else { frontier };
                    assert_eq!(place, Some((0, to)), "{room} free, {len} bytes");
                    assert_eq!(p.tuple(live).unwrap(), vec![7u8; len]);
                    let grown = if len > 100 { len } else { 0 };
                    assert_eq!(p.room_to_grow(), room - grown, "{room} free, {len} bytes");
                }
                Err(CoreError::PageFull { needed, available }) => {
                    assert!(!fits, "{room} free, {len} bytes: page full");
                    assert_eq!((needed, available), (len, room));
                }
                Err(e) => panic!("{room} free, {len} bytes: {e}"),
            }
        }
        // Dead and out-of-range slots are bad slots to both, whatever the
        // length.
        let (mut p, mut t, _, dead) = page_with_room(50);
        for slot in [dead, SlotId(3), SlotId(u16::MAX)] {
            for len in [0, 10, 4000] {
                assert!(
                    matches!(p.update_place(slot, len), Err(CoreError::BadSlot(s)) if s == slot.0)
                );
                let updated = p.update_tuple(slot, &vec![7u8; len], &mut t);
                assert!(matches!(updated, Err(CoreError::BadSlot(s)) if s == slot.0));
            }
        }
    }

    #[test]
    fn append_delta_record_fills_slots_in_order() {
        use crate::delta::{ChangePair, DeltaRecord};
        let (mut p, mut t) = fresh();
        let body_off = p.layout().body_start() as u16;
        p.insert_tuple(&[1, 2, 3], &mut t).unwrap();
        let r = DeltaRecord::new(vec![ChangePair { offset: body_off, value: 9 }], vec![]);
        let (i0, off0, bytes0) = p.append_delta_record(&r).unwrap();
        assert_eq!(i0, 0);
        assert_eq!(off0, p.layout().delta_slot_offset(0));
        assert_eq!(bytes0.len(), p.scheme().delta_record_size());
        let (i1, _, _) = p.append_delta_record(&r).unwrap();
        assert_eq!(i1, 1);
        assert_eq!(p.delta_record_count().unwrap(), 2);
        assert!(matches!(p.append_delta_record(&r), Err(CoreError::TooManyDeltas { .. })));
    }

    #[test]
    fn apply_deltas_updates_body() {
        use crate::delta::{ChangePair, DeltaRecord};
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(&[9u8, 7], &mut t).unwrap();
        let off = {
            let (o, _) = (p.layout().body_start() as u16, 0);
            o
        };
        let r = DeltaRecord::new(vec![ChangePair { offset: off, value: 3 }], vec![]);
        p.append_delta_record(&r).unwrap();
        let n = p.apply_deltas().unwrap();
        assert_eq!(n, 1);
        assert_eq!(p.tuple(s).unwrap(), &[3, 7]);
    }

    #[test]
    fn reset_delta_area_erases() {
        use crate::delta::{ChangePair, DeltaRecord};
        let (mut p, mut t) = fresh();
        p.insert_tuple(&[1], &mut t).unwrap();
        let r = DeltaRecord::new(
            vec![ChangePair { offset: p.layout().body_start() as u16, value: 0 }],
            vec![],
        );
        p.append_delta_record(&r).unwrap();
        assert_eq!(p.delta_record_count().unwrap(), 1);
        p.reset_delta_area();
        assert_eq!(p.delta_record_count().unwrap(), 0);
    }

    #[test]
    fn relayout_preserves_tuples_and_slots_both_directions() {
        let (mut p, mut t) = fresh();
        let s1 = p.insert_tuple(b"hello", &mut t).unwrap();
        let s2 = p.insert_tuple(b"world!", &mut t).unwrap();
        let s3 = p.insert_tuple(b"gone", &mut t).unwrap();
        p.delete_tuple(s3, &mut t).unwrap();
        p.set_lsn(77, &mut t);
        // Grow the delta area ([2x3] → [4x24]), then shrink past the
        // original ([4x24] → [1x2]).
        for scheme in [NxM::new(4, 24, 12), NxM::new(1, 2, 4)] {
            let l = PageLayout::new(4096, scheme).unwrap();
            p.relayout(l).unwrap();
            assert_eq!(*p.scheme(), scheme);
            assert_eq!(HeaderView::scheme(p.bytes()), scheme);
            assert_eq!(p.page_id(), 4711);
            assert_eq!(p.lsn(), 77);
            assert_eq!(p.slot_count(), 3);
            assert_eq!(p.tuple(s1).unwrap(), b"hello");
            assert_eq!(p.tuple(s2).unwrap(), b"world!");
            assert!(!p.is_live(s3));
            assert_eq!(p.delta_record_count().unwrap(), 0);
            // New delta area erased, free space erased.
            assert!(p.bytes()[l.delta_area_start()..l.delta_area_end()].iter().all(|&b| b == 0xFF));
        }
        // Deleted slot offsets were shifted too: undelete still lands on
        // the original bytes.
        let mut t2 = ChangeTracker::new(*p.scheme(), 0, true);
        p.undelete_tuple(s3, b"gone", &mut t2).unwrap();
        assert_eq!(p.tuple(s3).unwrap(), b"gone");
        // The image is a valid page for from_bytes under the new layout.
        let reread = DbPage::from_bytes(p.bytes().to_vec(), *p.layout()).unwrap();
        assert_eq!(reread.tuple(s1).unwrap(), b"hello");
    }

    #[test]
    fn relayout_inserts_and_appends_work_after_switch() {
        use crate::delta::{ChangePair, DeltaRecord};
        let (mut p, mut t) = fresh();
        let s = p.insert_tuple(&[9u8, 9], &mut t).unwrap();
        let big = PageLayout::new(4096, NxM::new(4, 24, 12)).unwrap();
        p.relayout(big).unwrap();
        // Appends under the new scheme target the new slot geometry.
        let (off, _) = (p.layout().body_start() as u16, 0);
        let r = DeltaRecord::new(vec![ChangePair { offset: off, value: 1 }], vec![]);
        let (i0, abs, _) = p.append_delta_record(&r).unwrap();
        assert_eq!(i0, 0);
        assert_eq!(abs, big.delta_slot_offset(0));
        assert_eq!(p.apply_deltas().unwrap(), 1);
        assert_eq!(p.tuple(s).unwrap(), &[1, 9]);
        // Inserts keep working from the shifted frontier.
        let mut t2 = ChangeTracker::new(*p.scheme(), 0, true);
        let s2 = p.insert_tuple(b"post", &mut t2).unwrap();
        assert_eq!(p.tuple(s2).unwrap(), b"post");
    }

    #[test]
    fn relayout_rejects_when_body_would_hit_slot_table() {
        let l_small = PageLayout::new(1024, NxM::disabled()).unwrap();
        let mut p = DbPage::format(1, l_small);
        let mut t = ChangeTracker::new(NxM::disabled(), 0, false);
        // Fill the body nearly to the footer.
        let big = vec![7u8; 900];
        p.insert_tuple(&big, &mut t).unwrap();
        let before = p.bytes().to_vec();
        let l_big = PageLayout::new(1024, NxM::new(2, 40, 12)).unwrap();
        let err = p.relayout(l_big).unwrap_err();
        assert!(matches!(err, CoreError::PageFull { .. }));
        // Failed relayout leaves the page untouched.
        assert_eq!(p.bytes(), &before[..]);
        assert_eq!(*p.scheme(), NxM::disabled());
    }

    #[test]
    fn lsn_update_tracks_minimal_meta_bytes() {
        let (mut p, _) = fresh();
        let mut t = ChangeTracker::new(*p.scheme(), 0, true);
        p.set_lsn(1, &mut t);
        assert_eq!(p.lsn(), 1);
        // 0 -> 1 changes exactly one byte of the 8-byte LSN.
        assert_eq!(t.meta_changed(), 1);
    }
}
