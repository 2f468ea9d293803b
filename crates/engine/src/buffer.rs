//! The buffer pool: frames, page lookup and CLOCK eviction.
//!
//! Pure frame management — all I/O (fetch, flush) lives in
//! [`crate::Database`], which owns both this pool and the flash device.
//!
//! The pool owns its dirty state: one bit per frame slot for *dirty*, *free*
//! and the CLOCK *reference* bit, kept current at the only transitions that
//! exist ([`BufferPool::insert`], [`BufferPool::update`],
//! [`BufferPool::touch`], [`BufferPool::mark_flushed`],
//! [`BufferPool::remove`]; a crash drops the pool whole). A frame's tracker is
//! therefore private — nobody can dirty a frame behind the pool's back — and
//! the cleaner, `flush_all` and the checkpointer visit dirty frames only,
//! word by word, never the whole pool. Resident pages are found through a
//! dense per-region table indexed by LBA (the shape of `Region::p2l`): no
//! hashing on the 18 to 62 fetches a transaction makes. Nothing here
//! allocates once the pool exists.

use ipa_core::{ChangeTracker, DbPage, NxM};

use crate::db::PageId;
use crate::wal::Lsn;

/// One buffered page with its IPA change tracker.
#[derive(Debug)]
pub struct Frame {
    /// Which logical page this frame holds.
    pub page_id: PageId,
    /// The page image (with resident delta records already applied).
    pub page: DbPage,
    /// Byte-level change tracking since the last flush. Private: the pool's
    /// dirty set mirrors `tracker.is_dirty()`, so every mutation goes
    /// through [`BufferPool::update`] / [`BufferPool::mark_flushed`].
    tracker: ChangeTracker,
    /// Pin count; pinned frames are not evictable.
    pub pins: u32,
    /// Recovery LSN: the oldest LSN that may have dirtied this page since
    /// its last flush (for the checkpoint dirty-page table).
    pub rec_lsn: Lsn,
}

impl Frame {
    /// An unpinned frame for `page` with its change tracker (a tracker that
    /// is already dirty — a freshly allocated page marked out-of-place —
    /// enters the pool's dirty set at insertion). The pool sets the CLOCK
    /// reference bit of every frame it takes in.
    pub fn new(page_id: PageId, page: DbPage, tracker: ChangeTracker) -> Self {
        Frame { page_id, page, tracker, pins: 0, rec_lsn: Lsn::NULL }
    }

    /// Whether the frame holds unflushed changes.
    pub fn is_dirty(&self) -> bool {
        self.tracker.is_dirty()
    }

    /// The change tracker (read-only: the flush decision and update sizes).
    pub fn tracker(&self) -> &ChangeTracker {
        &self.tracker
    }

    /// Encode the tracked changes into the page's next free delta slots
    /// ([`DbPage::append_tracked`]); the tracker is untouched until
    /// [`BufferPool::mark_flushed`].
    pub fn append_tracked(&mut self) -> ipa_core::Result<std::ops::Range<u16>> {
        self.page.append_tracked(&self.tracker)
    }

    /// Take the frame apart into what the next page to enter the pool
    /// reuses: the page buffer and the tracker's offset bitmaps.
    pub fn into_parts(self) -> (Vec<u8>, ChangeTracker) {
        (self.page.into_bytes(), self.tracker)
    }
}

ipa_noftl::counters! {
    /// Cumulative CLOCK-sweep counters: how hard the replacement algorithm is
    /// working (a rising `frames_scanned`-per-victim ratio signals thrash).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SweepStats {
        /// Occupied frames probed by the CLOCK hand.
        pub frames_scanned: u64,
        /// Reference bits cleared (second-chance grants).
        pub ref_bits_cleared: u64,
        /// Victims found.
        pub victims: u64,
        /// Victims that were dirty — each one puts a write-back flush on the
        /// critical path of the fetch that triggered the eviction.
        pub dirty_victims: u64,
    }
}

/// A set of frame slots: one bit per slot and the number of bits set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotSet {
    words: Vec<u64>,
    count: usize,
}

impl SlotSet {
    /// The empty set over `slots` slots.
    fn new(slots: usize) -> Self {
        SlotSet { words: vec![0; slots.div_ceil(64)], count: 0 }
    }

    fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn insert(&mut self, slot: usize) {
        let (word, bit) = (&mut self.words[slot / 64], 1 << (slot % 64));
        self.count += usize::from(*word & bit == 0);
        *word |= bit;
    }

    fn remove(&mut self, slot: usize) {
        let (word, bit) = (&mut self.words[slot / 64], 1 << (slot % 64));
        self.count -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// The lowest member.
    fn first(&self) -> Option<usize> {
        let (w, word) = self.words.iter().enumerate().find(|(_, &word)| word != 0)?;
        Some(w * 64 + word.trailing_zeros() as usize)
    }
}

/// Marks "no frame" in [`BufferPool::slot_of`].
const NOT_RESIDENT: u32 = u32::MAX;

/// Fixed-capacity buffer pool with CLOCK replacement.
#[derive(Debug)]
pub struct BufferPool {
    frames: Vec<Option<Frame>>,
    /// Per region, the frame slot of every logical page ([`NOT_RESIDENT`]
    /// for the pages not buffered), indexed by LBA.
    slot_of: Vec<Vec<u32>>,
    /// Slots whose frame is dirty. Invariant: `i ∈ dirty` ⇔ `frames[i]` is
    /// occupied and its tracker is dirty.
    dirty: SlotSet,
    /// Unoccupied slots. Invariant: `i ∈ free` ⇔ `frames[i]` is `None`.
    free: SlotSet,
    /// CLOCK reference bits; clear for every unoccupied slot.
    referenced: SlotSet,
    hand: usize,
    capacity: usize,
}

impl BufferPool {
    /// A pool with `capacity` frames over regions of `region_pages[r]`
    /// logical pages each (the page allocators' capacities).
    pub fn new(capacity: usize, region_pages: &[u64]) -> Self {
        assert!(capacity > 0 && capacity < NOT_RESIDENT as usize);
        let mut free = SlotSet::new(capacity);
        (0..capacity).for_each(|slot| free.insert(slot));
        BufferPool {
            frames: (0..capacity).map(|_| None).collect(),
            slot_of: region_pages.iter().map(|&pages| vec![NOT_RESIDENT; pages as usize]).collect(),
            dirty: SlotSet::new(capacity),
            free,
            referenced: SlotSet::new(capacity),
            hand: 0,
            capacity,
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied frames.
    pub fn len(&self) -> usize {
        self.capacity - self.free.count
    }

    /// Number of dirty frames.
    pub fn dirty_count(&self) -> usize {
        self.dirty.count
    }

    /// Fraction of the pool that is dirty (the cleaner's trigger metric).
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_count() as f64 / self.capacity as f64
    }

    /// Whether the page is resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.index_of(pid).is_some()
    }

    /// Frame slot of a resident page.
    pub fn index_of(&self, pid: PageId) -> Option<usize> {
        let slot = *self.slot_of.get(pid.region)?.get(pid.lba.0 as usize)?;
        (slot != NOT_RESIDENT).then_some(slot as usize)
    }

    /// Direct access by frame index (flush paths).
    pub fn frame_mut(&mut self, idx: usize) -> Option<&mut Frame> {
        self.frames.get_mut(idx)?.as_mut()
    }

    /// Set the CLOCK reference bit of an occupied slot (a buffer hit).
    pub fn touch(&mut self, idx: usize) {
        if !self.free.contains(idx) {
            self.referenced.insert(idx);
        }
    }

    /// Run `f` against a frame's page and tracker, pinned for the duration.
    /// The only way to dirty a resident frame: on the clean→dirty
    /// transition the frame joins the dirty set and `rec_lsn` (the LSN of
    /// the next log record) becomes its recovery LSN.
    pub fn update<R>(
        &mut self,
        idx: usize,
        rec_lsn: Lsn,
        f: impl FnOnce(&mut DbPage, &mut ChangeTracker) -> R,
    ) -> Option<R> {
        let frame = self.frames.get_mut(idx)?.as_mut()?;
        frame.pins += 1;
        let was_dirty = frame.tracker.is_dirty();
        let result = f(&mut frame.page, &mut frame.tracker);
        frame.pins -= 1;
        if !was_dirty && frame.tracker.is_dirty() {
            frame.rec_lsn = rec_lsn;
            self.dirty.insert(idx);
        }
        Some(result)
    }

    /// A flush of the frame was submitted — the dirty→clean transition:
    /// restart its tracker in place (no allocation per flush) for a page
    /// that now sits on flash under `scheme` with `n_existing` delta
    /// records, and clear the recovery LSN.
    pub fn mark_flushed(&mut self, idx: usize, scheme: NxM, n_existing: u16) {
        let Some(frame) = self.frames.get_mut(idx).and_then(Option::as_mut) else { return };
        frame.tracker.reset(scheme, n_existing, true);
        frame.rec_lsn = Lsn::NULL;
        self.dirty.remove(idx);
    }

    /// Whether the pool has a free slot.
    pub fn has_free_slot(&self) -> bool {
        self.free.count > 0
    }

    /// Insert a frame into the lowest free slot, returning its index — or
    /// `None` when the pool is full (callers must evict first) or the page
    /// lies outside every region the pool was sized for.
    #[must_use = "a full pool rejects the frame; dropping the result loses the page"]
    pub fn insert(&mut self, frame: Frame) -> Option<usize> {
        let idx = self.free.first()?;
        let pid = frame.page_id;
        *self.slot_of.get_mut(pid.region)?.get_mut(pid.lba.0 as usize)? = idx as u32;
        self.free.remove(idx);
        if frame.is_dirty() {
            self.dirty.insert(idx);
        }
        self.referenced.insert(idx);
        self.frames[idx] = Some(frame);
        Some(idx)
    }

    /// Pick an eviction victim with the CLOCK algorithm: sweep frames,
    /// clearing reference bits; the first unpinned, unreferenced frame
    /// wins. Returns its index (the frame stays in place — the caller
    /// flushes it, then calls [`BufferPool::remove`]); the sweep is counted
    /// in `sweep`.
    pub fn pick_victim(&mut self, sweep: &mut SweepStats) -> Option<usize> {
        for _ in 0..2 * self.capacity {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            if let Some(frame) = &self.frames[idx] {
                sweep.frames_scanned += 1;
                if frame.pins > 0 {
                    continue;
                }
                if self.referenced.contains(idx) {
                    self.referenced.remove(idx);
                    sweep.ref_bits_cleared += 1;
                } else {
                    sweep.victims += 1;
                    if frame.is_dirty() {
                        sweep.dirty_victims += 1;
                    }
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Remove a frame, returning it.
    pub fn remove(&mut self, idx: usize) -> Option<Frame> {
        let frame = self.frames[idx].take()?;
        let pid = frame.page_id;
        self.slot_of[pid.region][pid.lba.0 as usize] = NOT_RESIDENT;
        self.dirty.remove(idx);
        self.referenced.remove(idx);
        self.free.insert(idx);
        Some(frame)
    }

    /// Fill `out` with the first `limit` dirty, unpinned frames in cleaning
    /// order: cold frames (reference bit clear) in CLOCK order from the
    /// hand, then hot ones in the same order. Background cleaners chase
    /// cold dirty pages; hot pages stay buffered and keep accumulating
    /// updates — which is what lets a page's small changes batch into one
    /// flush. Walks `dirty & !referenced`, then `dirty & referenced`, a
    /// word at a time, and stops once `limit` frames are found; `out` is
    /// the caller's scratch, so a cleaner round allocates nothing.
    pub fn cleaner_candidates(&self, limit: usize, out: &mut Vec<usize>) {
        out.clear();
        // From the hand to the end, then from the start to the hand: the
        // hand's word is visited twice, once for each side of it.
        let (hand_word, below_hand) = (self.hand / 64, (1u64 << (self.hand % 64)) - 1);
        let upper = (hand_word..self.dirty.words.len())
            .map(|w| (w, if w == hand_word { !below_hand } else { !0 }));
        let lower = (0..=hand_word).map(|w| (w, if w == hand_word { below_hand } else { !0 }));
        for hot in [false, true] {
            let wanted = |w: usize| {
                let referenced = self.referenced.words[w];
                self.dirty.words[w] & if hot { referenced } else { !referenced }
            };
            for (w, side) in upper.clone().chain(lower.clone()) {
                let mut rest = wanted(w) & side;
                while rest != 0 {
                    if out.len() >= limit {
                        return;
                    }
                    let idx = w * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if self.frames[idx].as_ref().is_some_and(|f| f.pins == 0) {
                        out.push(idx);
                    }
                }
            }
        }
    }

    /// Check the dirty-set, free-set, reference-bit and page-table
    /// invariants against a full scan of the frames.
    /// Panics on divergence — a frame was dirtied, cleaned, added or
    /// dropped without the sets hearing of it.
    pub fn assert_consistent(&self) {
        let scan = |wanted: &dyn Fn(&Option<Frame>) -> bool| {
            let mut set = SlotSet::new(self.capacity);
            self.frames
                .iter()
                .enumerate()
                .filter(|(_, f)| wanted(f))
                .for_each(|(i, _)| set.insert(i));
            set
        };
        let dirty = scan(&|f| f.as_ref().is_some_and(Frame::is_dirty));
        let free = scan(&Option::is_none);
        assert_eq!(self.dirty, dirty, "dirty set diverged from the frames");
        assert_eq!(self.free, free, "free set diverged from the frames");
        for (w, referenced) in self.referenced.words.iter().enumerate() {
            assert_eq!(referenced & free.words[w], 0, "reference bit on a free slot");
        }
        let resident = self.slot_of.iter().flatten().filter(|&&slot| slot != NOT_RESIDENT).count();
        assert_eq!(resident, self.len(), "page table diverged from the frames");
        for (idx, frame) in self.frames.iter().enumerate() {
            if let Some(frame) = frame {
                assert_eq!(self.index_of(frame.page_id), Some(idx), "page table lost a frame");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::PageLayout;
    use ipa_noftl::Counters;

    impl BufferPool {
        /// Look up a page, setting its reference bit.
        fn get_mut(&mut self, pid: PageId) -> Option<&mut Frame> {
            let idx = self.index_of(pid)?;
            self.touch(idx);
            self.frames.get_mut(idx)?.as_mut()
        }

        /// Iterate over occupied frame indices.
        pub(crate) fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
            self.frames.iter().enumerate().filter(|(_, f)| f.is_some()).map(|(i, _)| i)
        }

        /// [`BufferPool::cleaner_candidates`] into a vector of its own.
        pub(crate) fn candidates(&self, limit: usize) -> Vec<usize> {
            let mut out = vec![usize::MAX; 3]; // stale content must not survive
            self.cleaner_candidates(limit, &mut out);
            out
        }

        /// Clear the reference bit of a frame, as a passing CLOCK hand does.
        pub(crate) fn cool(&mut self, idx: usize) {
            self.referenced.remove(idx);
        }

        /// The full-scan cleaning order [`BufferPool::cleaner_candidates`] replaced,
        /// kept as the test oracle.
        pub(crate) fn dirty_indices(&self) -> Vec<usize> {
            let mut cold = Vec::new();
            let mut hot = Vec::new();
            for step in 0..self.capacity {
                let idx = (self.hand + step) % self.capacity;
                if let Some(f) = &self.frames[idx] {
                    if f.is_dirty() && f.pins == 0 {
                        if self.referenced.contains(idx) {
                            hot.push(idx);
                        } else {
                            cold.push(idx);
                        }
                    }
                }
            }
            cold.extend(hot);
            cold
        }
    }

    fn frame(pid: PageId) -> Frame {
        let layout = PageLayout::new(512, NxM::disabled()).unwrap();
        Frame::new(
            pid,
            DbPage::format(pid.lba.0, layout),
            ChangeTracker::new(NxM::disabled(), 0, true),
        )
    }

    fn pid(n: u64) -> PageId {
        PageId::new(0, n)
    }

    #[test]
    fn insert_get_remove() {
        let mut pool = BufferPool::new(3, &[16]);
        let idx = pool.insert(frame(pid(1))).expect("slot");
        assert!(pool.contains(pid(1)));
        assert_eq!(pool.index_of(pid(1)), Some(idx));
        assert_eq!(pool.len(), 1);
        assert!(pool.get_mut(pid(1)).is_some());
        let f = pool.remove(idx).unwrap();
        assert_eq!(f.page_id, pid(1));
        assert!(!pool.contains(pid(1)));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let mut pool = BufferPool::new(2, &[16]);
        pool.insert(frame(pid(1))).expect("slot");
        pool.insert(frame(pid(2))).expect("slot");
        // Touch page 2 so page 1 becomes the victim after one sweep.
        pool.get_mut(pid(2));
        pool.get_mut(pid(1));
        pool.get_mut(pid(2)); // 2 hot
                              // Both referenced: first sweep clears bits; victim is frame 0 (pid 1)
                              // unless re-referenced.
        let v = pool.pick_victim(&mut SweepStats::default()).unwrap();
        let vpid = pool.frames[v].as_ref().unwrap().page_id;
        assert!(vpid == pid(1) || vpid == pid(2));
        // Pinned frames are never victims.
        let other = if vpid == pid(1) { pid(2) } else { pid(1) };
        pool.get_mut(vpid).unwrap().pins = 1;
        let v2 = pool.pick_victim(&mut SweepStats::default()).unwrap();
        assert_eq!(pool.frames[v2].as_ref().unwrap().page_id, other);
    }

    #[test]
    fn all_pinned_means_no_victim() {
        let mut pool = BufferPool::new(2, &[16]);
        pool.insert(frame(pid(1))).expect("slot");
        pool.insert(frame(pid(2))).expect("slot");
        pool.get_mut(pid(1)).unwrap().pins = 1;
        pool.get_mut(pid(2)).unwrap().pins = 1;
        assert!(pool.pick_victim(&mut SweepStats::default()).is_none());
    }

    #[test]
    fn dirty_tracking() {
        let mut pool = BufferPool::new(4, &[16]);
        let a = pool.insert(frame(pid(1))).expect("slot");
        pool.insert(frame(pid(2))).expect("slot");
        assert_eq!(pool.dirty_count(), 0);
        pool.update(a, Lsn(7), |_, tracker| tracker.record_body(200)).expect("resident");
        assert_eq!(pool.dirty_count(), 1);
        assert!((pool.dirty_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(pool.candidates(usize::MAX), vec![a]);
        assert_eq!(pool.frame_mut(a).unwrap().rec_lsn, Lsn(7), "recLSN stamped when dirtied");
        // A second update of an already dirty frame keeps the first recLSN.
        pool.update(a, Lsn(9), |_, tracker| tracker.record_body(201)).expect("resident");
        assert_eq!(pool.frame_mut(a).unwrap().rec_lsn, Lsn(7));
        pool.assert_consistent();
        pool.mark_flushed(a, NxM::disabled(), 0);
        assert_eq!(pool.dirty_count(), 0);
        assert!(pool.frame_mut(a).unwrap().rec_lsn.is_null());
        pool.assert_consistent();
    }

    #[test]
    fn insert_takes_the_lowest_free_slot_and_tracks_dirty_arrivals() {
        let mut pool = BufferPool::new(4, &[16]);
        for n in 0..4 {
            assert_eq!(pool.insert(frame(pid(n))), Some(n as usize));
        }
        pool.remove(2).unwrap();
        pool.remove(0).unwrap();
        pool.assert_consistent();
        // A freshly allocated page arrives dirty (marked out-of-place).
        let mut fresh = frame(pid(9));
        fresh.tracker.mark_out_of_place();
        assert_eq!(pool.insert(fresh), Some(0));
        assert_eq!(pool.dirty_count(), 1);
        assert_eq!(pool.insert(frame(pid(10))), Some(2));
        pool.assert_consistent();
        // Removing a dirty frame takes it out of the dirty set.
        pool.remove(0).unwrap();
        assert_eq!(pool.dirty_count(), 0);
        pool.assert_consistent();
    }

    #[test]
    fn cleaner_candidates_are_a_prefix_of_the_full_scan_order() {
        let mut pool = BufferPool::new(8, &[16]);
        for n in 0..8 {
            pool.insert(frame(pid(n))).expect("slot");
        }
        for idx in [0, 1, 3, 4, 6, 7] {
            pool.update(idx, Lsn(1), |_, tracker| tracker.record_body(200)).expect("resident");
        }
        // Mixed reference bits, one pinned frame, hand in the middle.
        for idx in [1, 4, 7] {
            pool.cool(idx);
        }
        pool.frame_mut(3).unwrap().pins = 1;
        pool.hand = 4;
        let oracle = pool.dirty_indices();
        assert_eq!(oracle, vec![4, 7, 1, 6, 0]);
        for n in 0..=oracle.len() + 1 {
            assert_eq!(pool.candidates(n), oracle[..n.min(oracle.len())], "limit {n}");
        }
        assert_eq!(pool.candidates(usize::MAX), oracle);
    }

    #[test]
    fn sweep_stats_count_scans_clears_and_victims() {
        let mut pool = BufferPool::new(2, &[16]);
        pool.insert(frame(pid(1))).expect("slot");
        pool.insert(frame(pid(2))).expect("slot");
        // Both referenced: the sweep clears two bits and then finds a victim.
        let mut s = SweepStats::default();
        assert!(pool.pick_victim(&mut s).is_some());
        assert_eq!(s.victims, 1);
        assert_eq!(s.dirty_victims, 0);
        assert_eq!(s.ref_bits_cleared, 2);
        assert!(s.frames_scanned >= 3);
        let d = s.delta_since(&s);
        assert_eq!(d, SweepStats::default());
        s.reset();
        assert_eq!(s, SweepStats::default());
    }

    #[test]
    fn insert_into_full_pool_is_rejected() {
        let mut pool = BufferPool::new(1, &[16]);
        pool.insert(frame(pid(1))).expect("slot");
        assert!(pool.insert(frame(pid(2))).is_none());
        assert!(!pool.contains(pid(2)));
    }
}
