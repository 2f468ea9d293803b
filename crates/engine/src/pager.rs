//! The pager: the flash device, the buffer pool over it and the page
//! allocators — fetch, evict and flush, with the IPA decision wired into
//! every dirty-page flush ([`Database::stage_flush`]).
//!
//! The fields of [`Pager`] (what a power loss leaves) and [`Frames`] (what
//! it takes) are private to this file, so this is the only code that
//! submits a page write or a delta append (each carrying its OOB writes),
//! and the only code that moves a frame into or out of the pool.
//! Everyone else reads through [`Database::ftl`], [`Database::layout`],
//! [`Database::profile`] and writes through the methods below.

use ipa_core::layout::HeaderView;
use ipa_core::tracking::FlushPlan;
use ipa_core::{ecc, ChangeTracker, DbPage, NxM, PageLayout, UpdateSizeProfile};
use ipa_noftl::{
    Counters, EventKind, IoCtx, NoFtl, NoFtlConfig, NoFtlError, Observer, RegionId, SpanCategory,
    SpanId,
};

use crate::buffer::{BufferPool, Frame, SweepStats};
use crate::db::{Database, PageId};
use crate::error::EngineError;
use crate::stats::TraceEvent;
use crate::wal::{self, LogPayload, Lsn};
use crate::Result;

/// What an evicted frame leaves to the page that takes its slot: the page
/// buffer and the change tracker (its two offset bitmaps).
type Evicted = (Vec<u8>, ChangeTracker);

/// A tracker for a page entering the pool, in the evicted frame's
/// allocation when there is one.
fn tracker_for(
    evicted: Option<ChangeTracker>,
    scheme: NxM,
    n_existing: u16,
    on_flash: bool,
) -> ChangeTracker {
    match evicted {
        Some(mut tracker) => {
            tracker.reset(scheme, n_existing, on_flash);
            tracker
        }
        None => ChangeTracker::new(scheme, n_existing, on_flash),
    }
}

/// The `(offset, bytes)` OOB write an [`ecc`] builder returned, or an empty
/// one (which writes nothing) when it returned none.
fn oob_write<const N: usize>(write: &Option<(usize, [u8; N])>) -> (usize, &[u8]) {
    write.as_ref().map_or((0, &[]), |(offset, bytes)| (*offset, bytes))
}

/// Per-region page allocator (bump pointer + free list from drops).
#[derive(Debug, Default)]
struct PageAllocator {
    next: u64,
    free: Vec<u64>,
    capacity: u64,
}

/// What a power loss leaves of the pager: the device, the catalog's
/// per-region half and measurement (profiles, tape, sweep counters).
pub(crate) struct Pager {
    /// Cells and OOB, with the observer, clock and stats. TODO (ROADMAP
    /// 1(c)): NoFTL's mapping, cursors and free lists are RAM too.
    ftl: NoFtl,
    /// Catalog: the scheme each region was last tuned to. TODO (ROADMAP
    /// 1(d)): on a catalog page.
    layouts: Vec<PageLayout>,
    /// Catalog. TODO (ROADMAP 1(d)): on a catalog page.
    allocators: Vec<PageAllocator>,
    profiles: Vec<UpdateSizeProfile>,
    /// The fetch/evict tape, while [`Database::enable_tracing`] is on.
    trace: Option<Vec<TraceEvent>>,
    /// The buffer pool's CLOCK-sweep counters.
    sweep: SweepStats,
}

/// What a power loss takes from the pager: the buffer pool (its frames and
/// CLOCK hand) and the cleaner's slot scratch.
pub(crate) struct Frames {
    pool: BufferPool,
    /// Scratch of [`Database::stage_flushes`] and [`Frames::dirty_pages`]:
    /// the frame slots to visit, kept from one walk to the next so a
    /// cleaner round allocates nothing.
    candidates: Vec<usize>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("regions", &self.kept.pager.layouts.len())
            .field("buffered", &self.lost.frames.pool.len())
            .finish_non_exhaustive()
    }
}

impl Pager {
    /// A pager over a new NoFTL device. `schemes[i]` is the `[N×M]`
    /// configuration of region `i`.
    pub(crate) fn new(ftl_config: NoFtlConfig, schemes: &[NxM]) -> Result<Self> {
        if schemes.len() != ftl_config.regions.len() {
            return Err(EngineError::Core(ipa_core::CoreError::InvalidPage(format!(
                "{} schemes for {} regions",
                schemes.len(),
                ftl_config.regions.len()
            ))));
        }
        // The log names a page's region in 16 bits.
        if ftl_config.regions.len() > 1 << 16 {
            return Err(EngineError::Core(ipa_core::CoreError::InvalidPage(format!(
                "{} regions: the log names at most 65 536",
                ftl_config.regions.len()
            ))));
        }
        let page_size = ftl_config.flash.geometry.page_size;
        let layouts = schemes
            .iter()
            .map(|&s| PageLayout::new(page_size, s).map_err(EngineError::Core))
            .collect::<Result<Vec<_>>>()?;
        let ftl = NoFtl::new(ftl_config)?;
        let allocators = (0..schemes.len())
            .map(|i| {
                let capacity = ftl.capacity(RegionId(i))?;
                Ok(PageAllocator { capacity, ..PageAllocator::default() })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Pager {
            ftl,
            layouts,
            allocators,
            profiles: schemes.iter().map(|_| UpdateSizeProfile::default()).collect(),
            trace: None,
            sweep: SweepStats::default(),
        })
    }

    /// The device.
    pub(crate) fn ftl(&self) -> &NoFtl {
        &self.ftl
    }
}

impl Frames {
    /// An empty pool of `buffer_frames` frames over `pager`'s regions.
    pub(crate) fn new(pager: &Pager, buffer_frames: usize) -> Self {
        let region_pages: Vec<u64> = pager.allocators.iter().map(|a| a.capacity).collect();
        Frames { pool: BufferPool::new(buffer_frames, &region_pages), candidates: Vec::new() }
    }
}

impl Database {
    /// Start recording fetch/evict trace events (for baseline replay).
    pub fn enable_tracing(&mut self) {
        self.kept.pager.trace = Some(Vec::new());
    }

    /// Stop recording and take the trace.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.kept.pager.trace.take().unwrap_or_default()
    }

    /// The page layout of a region.
    pub fn layout(&self, region: usize) -> &PageLayout {
        &self.kept.pager.layouts[region]
    }

    /// Move a region to a new layout (a re-tune epoch): pages formatted or
    /// carried over from here on take it.
    pub(crate) fn set_layout(&mut self, region: usize, layout: PageLayout) {
        self.kept.pager.layouts[region] = layout;
    }

    /// Region statistics from the flash-management layer.
    pub fn region_stats(&self, region: usize) -> Result<&ipa_noftl::RegionStats> {
        Ok(self.kept.pager.ftl.region_stats(RegionId(region))?)
    }

    /// The underlying NoFTL device (read access for harnesses).
    pub fn ftl(&self) -> &NoFtl {
        &self.kept.pager.ftl
    }

    /// Mutable access to the NoFTL device for diagnostics and physical
    /// inspection (e.g. reading a page's raw flash image in tests).
    /// Bypassing the buffer pool with writes through this handle will
    /// desynchronize buffered pages from flash — read-only use intended.
    pub fn ftl_mut(&mut self) -> &mut NoFtl {
        &mut self.kept.pager.ftl
    }

    /// Run static wear leveling on a region (relocates cold blocks whose
    /// erase lag exceeds `threshold`). Returns relocated block count.
    pub fn wear_level(&mut self, region: usize, threshold: u64) -> Result<u32> {
        Ok(self.kept.pager.ftl.wear_level(RegionId(region), threshold)?)
    }

    /// Update-size profile collected for a region (feeds the IPA advisor
    /// and the paper's CDF figures).
    pub fn profile(&self, region: usize) -> &UpdateSizeProfile {
        &self.kept.pager.profiles[region]
    }

    /// Restart a region's profile window (a re-tune epoch evaluated it).
    pub(crate) fn restart_profile(&mut self, region: usize) {
        self.kept.pager.profiles[region] = UpdateSizeProfile::default();
    }

    /// Reset engine + device statistics (after warm-up). Profiles are kept.
    pub fn reset_stats(&mut self) {
        self.kept.stats.reset();
        self.kept.pager.sweep.reset();
        self.kept.pager.ftl.reset_stats();
    }

    /// Cumulative CLOCK-sweep counters of the buffer pool.
    pub fn sweep_stats(&self) -> SweepStats {
        self.kept.pager.sweep
    }

    /// Attach a trace observer to the flash device below the engine. The
    /// engine's logical flush/evict decisions are emitted through the same
    /// sequence counter as the physical events they trigger.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.kept.pager.ftl.attach_observer(observer);
    }

    /// Detach the trace observer, returning it.
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.kept.pager.ftl.detach_observer()
    }

    /// Emit a logical trace event through the device's sequence counter
    /// (a no-op without an observer).
    #[inline]
    pub(crate) fn emit(&mut self, kind: EventKind, region: Option<u32>, lba: Option<u64>) {
        self.kept.pager.ftl.emit(kind, region, lba);
    }

    /// The simulated clock.
    pub(crate) fn now_ns(&self) -> u64 {
        self.kept.pager.ftl.device().clock().now_ns()
    }

    /// Advance the simulated clock by transaction CPU/think time.
    pub fn advance_clock(&mut self, delta_ns: u64) {
        self.kept.pager.ftl.advance_clock(delta_ns);
    }

    /// Run `f` under a trace span of category `cat` with parent `parent`;
    /// the span closes when `f` returns, whichever way it returns.
    #[expect(
        clippy::disallowed_methods,
        reason = "the engine's one pairing of a raw open with its close"
    )]
    pub(crate) fn in_span<T>(
        &mut self,
        cat: SpanCategory,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let span = self.kept.pager.ftl.open_span_under(cat, parent);
        let out = f(self, span);
        self.kept.pager.ftl.close_span(span);
        out
    }

    /// Open the root span of a transaction. The close is deferred: the
    /// transaction table keeps the id for [`Self::close_txn_span`] at
    /// commit/abort.
    #[expect(clippy::disallowed_methods, reason = "closed by close_txn_span at commit/abort")]
    pub(crate) fn open_txn_span(&mut self) -> SpanId {
        self.kept.pager.ftl.open_span_under(SpanCategory::Txn, None)
    }

    /// Close the span [`Self::open_txn_span`] opened.
    #[expect(clippy::disallowed_methods, reason = "closes the span open_txn_span opened")]
    pub(crate) fn close_txn_span(&mut self, span: SpanId) {
        self.kept.pager.ftl.close_span(span);
    }

    /// The quiesce points (`flush_all`, `checkpoint`, crash, restart):
    /// debug builds re-derive the pool's dirty and free sets by full scan
    /// and check that the layers below are idle.
    pub(crate) fn debug_check_quiesced(&self) {
        if cfg!(debug_assertions) {
            self.lost.frames.pool.assert_consistent();
        }
        self.debug_check_idle();
    }

    /// Allocate a fresh logical page in a region and materialize it in the
    /// buffer as a formatted, dirty, not-yet-on-flash page. Room is made
    /// before the LBA is taken, so a failed eviction takes none. A region
    /// the database does not have is [`NoFtlError::BadRegion`], and one
    /// whose logical pages are all allocated [`EngineError::OutOfPages`];
    /// either is refused before anything is evicted.
    pub fn new_page(&mut self, region: usize) -> Result<PageId> {
        let Some(alloc) = self.kept.pager.allocators.get(region) else {
            return Err(NoFtlError::BadRegion(region).into());
        };
        if alloc.free.is_empty() && alloc.next >= alloc.capacity {
            return Err(EngineError::OutOfPages { region, capacity: alloc.capacity });
        }
        let evicted = self.ensure_free_frame()?;
        let alloc = &mut self.kept.pager.allocators[region];
        let lba = alloc.free.pop().unwrap_or_else(|| {
            alloc.next += 1;
            alloc.next - 1
        });
        let pid = PageId::new(region, lba);
        self.insert_fresh_frame(pid, evicted)?;
        Ok(pid)
    }

    /// Materialize `pid` in the pool as a formatted page that is not on
    /// flash yet, formatted in the buffer and tracked by the tracker of the
    /// frame just evicted (or new ones). A fresh page is dirty by
    /// construction (it must reach flash at least once), so its tracker is
    /// marked out-of-place and the frame enters the pool's dirty set on
    /// arrival. The caller has made sure a slot is free.
    fn insert_fresh_frame(&mut self, pid: PageId, evicted: Option<Evicted>) -> Result<()> {
        let layout = self.kept.pager.layouts[pid.region];
        let (buf, tracker) = evicted.unzip();
        let mut tracker = tracker_for(tracker, layout.scheme, 0, false);
        tracker.mark_out_of_place();
        let page = DbPage::format_in(buf.unwrap_or_default(), pid.lba.0, layout);
        let frame = Frame::new(pid, page, tracker);
        let inserted = self.lost.frames.pool.insert(frame);
        inserted.ok_or(EngineError::Internal("no free frame for a fresh page"))?;
        Ok(())
    }

    /// Restart redo's way into the pool: a page that never reached flash
    /// and is not buffered is re-materialized as a freshly formatted page
    /// (its entire content will be rebuilt by redo). The victim that makes
    /// room is neither counted as an eviction nor traced as one.
    pub(crate) fn ensure_page(&mut self, pid: PageId) -> Result<()> {
        let rid = RegionId(pid.region);
        if self.lost.frames.pool.contains(pid) || self.kept.pager.ftl.is_mapped(rid, pid.lba) {
            return Ok(());
        }
        self.evict_victim()?;
        self.insert_fresh_frame(pid, None)
    }

    /// Drop a page: trim on flash, forget in the buffer, recycle the LBA.
    pub fn free_page(&mut self, pid: PageId) -> Result<()> {
        if let Some(idx) = self.lost.frames.pool.index_of(pid) {
            self.lost.frames.pool.remove(idx);
        }
        self.trim_page(pid)?;
        self.kept.pager.allocators[pid.region].free.push(pid.lba.0);
        Ok(())
    }

    /// Drop a page's flash residency, if it has one (a dropped page; a
    /// residency restart redo found unreadable).
    pub(crate) fn trim_page(&mut self, pid: PageId) -> Result<()> {
        let rid = RegionId(pid.region);
        if self.kept.pager.ftl.is_mapped(rid, pid.lba) {
            self.kept.pager.ftl.trim(rid, pid.lba)?;
        }
        Ok(())
    }

    /// If the pool is full, flush a CLOCK victim and take it out. The one
    /// place a frame leaves the pool to make room. Eviction-path writes are
    /// synchronous — the fetching transaction waits for them (steal
    /// policy).
    fn evict_victim(&mut self) -> Result<Option<Frame>> {
        if self.lost.frames.pool.has_free_slot() {
            return Ok(None);
        }
        let sweep = &mut self.kept.pager.sweep;
        let victim = self.lost.frames.pool.pick_victim(sweep).ok_or(EngineError::PoolExhausted)?;
        self.flush_frame(victim, IoCtx::host())?;
        Ok(self.lost.frames.pool.remove(victim))
    }

    /// Make sure at least one frame is free, evicting (and flushing) a
    /// CLOCK victim if necessary. Returns what the evicted frame leaves
    /// behind: the caller formats the incoming fresh page in its buffer, or
    /// hands that to [`NoFtl::recycle`] for the read that brings the
    /// incoming page in, and restarts its tracker for the incoming page.
    fn ensure_free_frame(&mut self) -> Result<Option<Evicted>> {
        let evicted = self.evict_victim()?;
        if let Some(pid) = evicted.as_ref().map(|f| f.page_id) {
            self.kept.stats.evictions += 1;
            self.emit(EventKind::Evict, Some(pid.region as u32), Some(pid.lba.0));
        }
        Ok(evicted.map(Frame::into_parts))
    }

    /// Fetch a page into the buffer, returning its frame index.
    fn fetch(&mut self, pid: PageId) -> Result<usize> {
        self.kept.stats.fetches += 1;
        if let Some(idx) = self.lost.frames.pool.index_of(pid) {
            self.kept.stats.hits += 1;
            self.lost.frames.pool.touch(idx);
            return Ok(idx);
        }
        let evicted_tracker = self.ensure_free_frame()?.map(|(buf, tracker)| {
            self.kept.pager.ftl.recycle(buf);
            tracker
        });
        if let Some(trace) = &mut self.kept.pager.trace {
            trace.push(TraceEvent::Fetch { page: pid.lba.0 });
        }
        let region_layout = self.kept.pager.layouts[pid.region];
        let (bytes, _) =
            self.kept.pager.ftl.read_page(RegionId(pid.region), pid.lba, IoCtx::host())?;
        // Adaptive mode: the region's scheme may have moved on since this
        // page was written. The page header carries its own `[N×M]` tag,
        // so old-scheme pages stay readable without any migration I/O.
        let layout = if self.lost.adaptive.is_some() {
            let on_flash = HeaderView::scheme(&bytes);
            if on_flash == region_layout.scheme {
                region_layout
            } else {
                PageLayout::new(region_layout.page_size, on_flash).map_err(EngineError::Core)?
            }
        } else {
            region_layout
        };
        if self.config().verify_ecc {
            let oob = self.kept.pager.ftl.read_oob(RegionId(pid.region), pid.lba)?;
            if ecc::verify_page(&bytes, &layout, &oob)?.is_some() {
                self.kept.stats.ecc_verified += 1;
            }
        }
        let mut page = DbPage::from_bytes(bytes, layout)?;
        // The fetch path of §6.2: apply resident delta records in forward
        // order to reconstruct the current page version.
        let n_existing = page.apply_deltas()?;
        let tracker = tracker_for(evicted_tracker, layout.scheme, n_existing, true);
        let frame = Frame::new(pid, page, tracker);
        let inserted = self.lost.frames.pool.insert(frame);
        inserted.ok_or(EngineError::Internal("no free frame after ensure_free_frame"))
    }

    /// The unlogged entry: run `f` against a buffered page and its tracker
    /// for a change *no* log record describes — the root initialisation in
    /// [`Database::create_index`], tests that build a page by hand. The page
    /// is pinned for the duration of `f`. With no record to name, a frame
    /// `f` dirties takes the LSN the next record will get as its recovery
    /// LSN. A logged change goes through the crate-private `apply_record`
    /// instead, behind a [`crate::Txn`] operation.
    pub fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut DbPage, &mut ChangeTracker) -> Result<R>,
    ) -> Result<R> {
        self.with_page_mut_at(pid, Lsn(self.wal_head().0 + 1), f)
    }

    /// Run `f` against a buffered, pinned page and its tracker; a frame `f`
    /// dirties takes `rec_lsn` as its recovery LSN.
    fn with_page_mut_at<R>(
        &mut self,
        pid: PageId,
        rec_lsn: Lsn,
        f: impl FnOnce(&mut DbPage, &mut ChangeTracker) -> Result<R>,
    ) -> Result<R> {
        let idx = self.fetch(pid)?;
        let updated = self.lost.frames.pool.update(idx, rec_lsn, f);
        updated.ok_or(EngineError::Internal("fetched frame missing"))?
    }

    /// How a logged change reaches a page: the only code in the engine that
    /// calls a [`DbPage`] tuple mutator, writes a logged body span or sets a
    /// PageLSN. `action` is the payload of the record at `lsn` (of a CLR,
    /// the compensation it applied): one page access applies the change and
    /// stamps the page with `lsn`, and a frame the change dirties takes
    /// `lsn` as its recovery LSN — a later checkpoint must not claim flash
    /// holds records it does not. Forward processing and rollback come here
    /// through [`Self::log_and_apply`]; restart redo passes `check_lsn` and
    /// the change is skipped when the page already reflects `lsn`.
    pub(crate) fn apply_record<B: AsRef<[u8]>>(
        &mut self,
        lsn: Lsn,
        action: &LogPayload<B>,
        check_lsn: bool,
    ) -> Result<()> {
        let Some(pid) = action.redo_page() else {
            // Logical compensation (rollback only: redo never passes one).
            // The node changes are logged physically, under the same tx.
            return match *action {
                LogPayload::IndexInsert { tx, index, key, value } => {
                    self.index_edit(tx, index, key, Some(value), false).map(drop)
                }
                LogPayload::IndexDelete { tx, index, key, .. } => {
                    self.index_edit(tx, index, key, None, false).map(drop)
                }
                _ => Ok(()),
            };
        };
        self.with_page_mut_at(pid, lsn, |page, tracker| {
            if check_lsn && page.lsn() >= lsn.0 {
                return Ok(());
            }
            match action {
                // A window past the tuple's end, or an image past the page's
                // room: log and page have diverged, and writing it would
                // change another tuple's bytes.
                LogPayload::Update { slot, at, after, .. } => {
                    let after = after.as_ref();
                    if !page.patch_tuple(*slot, usize::from(*at), after, tracker)? {
                        return Err(EngineError::RecoveryError(format!(
                            "update {lsn:?} writes {} bytes at {at} of {slot:?} of {pid:?}, past \
                             the tuple's end",
                            after.len()
                        )));
                    }
                }
                LogPayload::Resize { slot, to, after, .. } => {
                    let after = after.as_ref();
                    if !page.place_tuple(*slot, usize::from(*to), after, tracker)? {
                        return Err(EngineError::RecoveryError(format!(
                            "resize {lsn:?} puts {} bytes at {to} of {pid:?}, past its room",
                            after.len()
                        )));
                    }
                }
                LogPayload::Insert { slot, tuple, .. } => {
                    // Pages assign slots in order, so the tuple must land
                    // where the record says it went; anything else means
                    // log and page have diverged, and going on would leave
                    // the tuple under another row's address.
                    if page.slot_count() != slot.0 {
                        return Err(EngineError::RecoveryError(format!(
                            "insert {lsn:?} expects {slot:?} of {pid:?}, the page assigns slot {}",
                            page.slot_count()
                        )));
                    }
                    page.insert_tuple(tuple.as_ref(), tracker)?;
                }
                LogPayload::Delete { slot, .. } => page.delete_tuple(*slot, tracker)?,
                LogPayload::Undelete { slot, tuple, .. } => {
                    page.undelete_tuple(*slot, tuple.as_ref(), tracker)?;
                }
                LogPayload::PageWrite { offset, extent, runs, .. } => {
                    let offset = *offset as usize;
                    wal::for_each_run(runs.as_ref(), *extent as usize, |at, bytes| {
                        page.write_body(offset + at, bytes, tracker)
                    })?;
                }
                _ => return Err(EngineError::Internal("a record with a page and no page action")),
            }
            page.set_lsn(lsn.0, tracker);
            Ok(())
        })
    }

    /// Read-only page access.
    pub fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&DbPage) -> R) -> Result<R> {
        let idx = self.fetch(pid)?;
        let frame = self.lost.frames.pool.frame_mut(idx);
        Ok(f(&frame.ok_or(EngineError::Internal("fetched frame missing"))?.page))
    }

    /// Flush one frame if dirty, waiting for the device. This is the
    /// synchronous wrapper around [`Self::stage_flush`]; batched paths
    /// (`flush_all`, the cleaner) stage several frames and drain once.
    fn flush_frame(&mut self, idx: usize, ctx: IoCtx) -> Result<()> {
        let staged = self.stage_flush(idx, ctx);
        self.kept.pager.ftl.drain_completions();
        staged
    }

    /// Queue the flush of one frame if dirty, without waiting for the
    /// device. This is where IPA happens: the tracker decides between
    /// appending delta records to the original flash page (`write_delta`)
    /// and a traditional out-of-place page write. Buffer-pool and tracker
    /// state advance at submission; the caller owns the eventual
    /// [`NoFtl::drain_completions`].
    fn stage_flush(&mut self, idx: usize, ctx: IoCtx) -> Result<()> {
        let Some(frame) = self.lost.frames.pool.frame_mut(idx) else { return Ok(()) };
        let pid = frame.page_id;
        let page_scheme = *frame.page.scheme();
        let plan = frame.tracker().plan();
        if plan == FlushPlan::Clean {
            return Ok(());
        }
        let page_lsn = Lsn(frame.page.lsn());
        // Workload statistics: true per-eviction update size.
        let (body, meta) = (frame.tracker().body_changed(), frame.tracker().meta_changed());
        // Update-size statistics cover only *updates to existing pages*;
        // the paper's Appendix A excludes appends to new pages from its
        // distributions ("due to the clear dominance of update I/Os").
        let is_update = frame.tracker().on_flash();
        // WAL rule: the log must be durable up to the page's LSN.
        self.flush_log_to(page_lsn);
        if is_update {
            self.kept.pager.profiles[pid.region].record(body as u32, meta as u32);
        }
        self.kept.stats.net_changed_bytes += (body + meta) as u64;
        if let Some(trace) = &mut self.kept.pager.trace {
            trace.push(TraceEvent::Evict {
                page: pid.lba.0,
                changed_bytes: (body + meta) as u32,
                fresh: !is_update,
            });
        }

        let (verify_ecc, adaptive) = (self.config().verify_ecc, self.lost.adaptive.is_some());
        let (Pager { ftl, layouts, .. }, pool) = (&mut self.kept.pager, &mut self.lost.frames.pool);
        let oob_size = ftl.device().config().geometry.oob_size;
        let rid = RegionId(pid.region);
        // `frame` borrows the pool, the writes go through the device: the
        // records and the image are programmed from the frame's own bytes.
        let frame = pool.frame_mut(idx).ok_or(EngineError::Internal("flushed frame missing"))?;
        if matches!(plan, FlushPlan::Ipa(_)) && ftl.can_append(rid, pid.lba) {
            let n_existing = frame.tracker().n_existing();
            // The records are encoded where they belong, in the frame's
            // delta area, and programmed from there.
            let slots = frame.append_tracked()?;
            let appended = slots.len() as u16;
            ftl.emit(
                EventKind::FlushIpa { records: appended },
                Some(pid.region as u32),
                Some(pid.lba.0),
            );
            let (layout, image) = (*frame.page.layout(), frame.page.bytes());
            for slot in slots {
                let offset = layout.delta_slot_offset(slot);
                let encoded = &image[offset..offset + page_scheme.delta_record_size()];
                let code = verify_ecc
                    .then(|| ecc::delta_write(oob_size, &page_scheme, slot, encoded))
                    .flatten();
                // The caller's `drain_completions` retires the command.
                let oob = [oob_write(&code)];
                let _queued = ftl.submit_write_delta(rid, pid.lba, offset, encoded, &oob, ctx)?;
                self.kept.stats.gross_written_bytes += encoded.len() as u64;
                self.kept.stats.delta_records_written += 1;
            }
            pool.mark_flushed(idx, page_scheme, n_existing + appended);
            self.kept.stats.ipa_flushes += 1;
        } else {
            // Adaptive mode: an out-of-place write is the free moment to
            // carry a stale-scheme page to its region's current `[N×M]`
            // layout — the full image is rewritten anyway. A page too
            // full for the new layout keeps its old scheme (header tag
            // keeps it readable).
            frame.page.reset_delta_area();
            let target = layouts[pid.region];
            if adaptive && target.scheme != page_scheme && frame.page.relayout(target).is_ok() {
                self.kept.stats.scheme_upgrades += 1;
            }
            let image = frame.page.bytes();
            let layout = *frame.page.layout();
            let code = verify_ecc.then(|| ecc::initial_write(oob_size, image, &layout)).flatten();
            ftl.emit(EventKind::FlushOop, Some(pid.region as u32), Some(pid.lba.0));
            let oob = [oob_write(&code)];
            let _queued = ftl.submit_write(rid, pid.lba, image, &oob, ctx)?;
            self.kept.stats.gross_written_bytes += image.len() as u64;
            pool.mark_flushed(idx, layout.scheme, 0);
            self.kept.stats.oop_flushes += 1;
        }
        Ok(())
    }

    /// Flush a specific page (test/checkpoint aid).
    pub fn flush_page(&mut self, pid: PageId) -> Result<()> {
        let Some(idx) = self.lost.frames.pool.index_of(pid) else { return Ok(()) };
        self.in_span(SpanCategory::Flush, self.ftl().device().current_span(), |db, _| {
            db.flush_frame(idx, IoCtx::host())
        })
    }

    /// Flush every dirty page (shutdown / quiesce). Flushes are staged as
    /// one queued batch and drained once, so on a multi-chip device with
    /// queue depth > 1 the page writes overlap across chips.
    pub fn flush_all(&mut self) -> Result<()> {
        self.debug_check_quiesced();
        self.stage_flushes(usize::MAX, IoCtx::host()).1
    }

    /// Stage the flush of the first `limit` frames in cleaning order (see
    /// [`BufferPool::cleaner_candidates`]) as one queued batch under one
    /// `Flush` span and drain once. Returns how many were staged before
    /// the first failure, and that failure.
    pub(crate) fn stage_flushes(&mut self, limit: usize, ctx: IoCtx) -> (u64, Result<()>) {
        self.in_span(SpanCategory::Flush, self.ftl().device().current_span(), |db, _| {
            let mut count = 0;
            let mut staged = Ok(());
            let mut candidates = std::mem::take(&mut db.lost.frames.candidates);
            db.lost.frames.pool.cleaner_candidates(limit, &mut candidates);
            for &idx in &candidates {
                staged = db.stage_flush(idx, ctx);
                if staged.is_err() {
                    break;
                }
                count += 1;
            }
            db.lost.frames.candidates = candidates;
            db.kept.pager.ftl.drain_completions();
            (count, staged)
        })
    }

    /// The eager page cleaner's due-check: once the dirty fraction reaches
    /// `cleaner_dirty_threshold`, flush coldest-first, but only *down to*
    /// the threshold — hot pages stay buffered and keep accumulating
    /// updates (Shore-MT cleaners behave the same way: they chase the
    /// threshold, not an empty pool).
    pub(crate) fn clean_if_due(&mut self) -> Result<()> {
        /// Most pages one cleaner round flushes.
        const CLEANER_BATCH: usize = 64;
        let threshold = self.config().cleaner_dirty_threshold;
        let pool = &self.lost.frames.pool;
        if pool.dirty_fraction() >= threshold {
            let target = (threshold * pool.capacity() as f64).floor() as usize;
            let excess = pool.dirty_count().saturating_sub(target);
            let (flushed, staged) =
                self.stage_flushes(excess.min(CLEANER_BATCH), IoCtx::host_async());
            self.kept.stats.cleaner_flushes += flushed;
            staged?;
        }
        Ok(())
    }
}

impl Frames {
    /// The dirty-page table a checkpoint records: every dirty frame's page
    /// with its recovery LSN, in cleaning order.
    pub(crate) fn dirty_pages(&mut self) -> impl Iterator<Item = (PageId, Lsn)> + '_ {
        let Frames { pool, candidates } = self;
        pool.cleaner_candidates(usize::MAX, candidates);
        candidates.iter().filter_map(|&i| {
            let f = pool.frame_mut(i)?;
            Some((f.page_id, f.rec_lsn))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{fill_and_flush, flushed_tuple, test_db};

    impl Database {
        /// The buffer pool, for tests that drop a page behind the engine's
        /// back or compare the pool against a full scan.
        pub(crate) fn pool_mut(&mut self) -> &mut BufferPool {
            &mut self.lost.frames.pool
        }
    }

    #[test]
    fn new_page_flushes_out_of_place_first() {
        let mut db = test_db(NxM::tpcc(), 8);
        let pid = db.new_page(0).unwrap();
        db.flush_page(pid).unwrap();
        assert_eq!(db.stats().oop_flushes, 1);
        assert_eq!(db.stats().ipa_flushes, 0);
        assert!(db.ftl().is_mapped(RegionId(0), pid.lba));
    }

    #[test]
    fn small_update_flushes_as_ipa() {
        let mut db = test_db(NxM::tpcc(), 8);
        let (pid, slot) = flushed_tuple(&mut db, &[9, 7, 5, 3]);
        // Small in-place change now.
        db.with_page_mut(pid, |page, tracker| {
            page.update_tuple(slot, &[3u8, 7, 5, 3], tracker)?;
            page.set_lsn(42, tracker);
            Ok(())
        })
        .unwrap();
        db.flush_page(pid).unwrap();
        assert_eq!(db.stats().ipa_flushes, 1);
        assert_eq!(db.region_stats(0).unwrap().host_delta_writes, 1);
    }

    #[test]
    fn fetch_reconstructs_from_deltas() {
        let mut db = test_db(NxM::tpcc(), 8);
        let (pid, slot) = flushed_tuple(&mut db, &[9, 7]);
        fill_and_flush(&mut db, pid, slot, 1, 3);
        assert_eq!(db.stats().ipa_flushes, 1);
        // Drop the buffered copy and re-fetch from flash: the delta must
        // be applied on the way in.
        let idx = db.lost.frames.pool.index_of(pid).unwrap();
        db.lost.frames.pool.remove(idx);
        let tuple = db.with_page(pid, |page| page.tuple(slot).unwrap().to_vec()).unwrap();
        assert_eq!(tuple, vec![3, 7]);
    }

    #[test]
    fn large_update_falls_back_out_of_place() {
        let mut db = test_db(NxM::tpcc(), 8);
        let (pid, slot) = flushed_tuple(&mut db, &[0; 100]);
        fill_and_flush(&mut db, pid, slot, 100, 1);
        assert_eq!(db.stats().ipa_flushes, 0);
        assert_eq!(db.stats().oop_flushes, 2);
    }

    #[test]
    fn eviction_under_buffer_pressure() {
        let mut db = test_db(NxM::tpcc(), 4);
        let mut pids = Vec::new();
        for _ in 0..12 {
            pids.push(db.new_page(0).unwrap());
        }
        assert!(db.stats().evictions > 0);
        // All pages still reachable.
        for pid in pids {
            db.with_page(pid, |p| assert_eq!(p.page_id(), pid.lba.0)).unwrap();
        }
    }

    #[test]
    fn cleaner_respects_threshold() {
        let mut db = test_db(NxM::tpcc(), 16);
        // Dirty 1 page: below 12.5% of 16 = 2 frames.
        let pid = db.new_page(0).unwrap();
        db.flush_page(pid).unwrap();
        db.with_page_mut(pid, |page, t| {
            page.set_lsn(1, t);
            Ok(())
        })
        .unwrap();
        db.background_work().unwrap();
        assert_eq!(db.stats().cleaner_flushes, 0);
        // Dirty more pages to cross the threshold.
        for _ in 0..4 {
            db.new_page(0).unwrap();
        }
        db.background_work().unwrap();
        assert!(db.stats().cleaner_flushes > 0);
    }

    /// One step of the pool-consistency property test below.
    #[derive(Debug, Clone)]
    enum PoolOp {
        /// Committed update of row `.0`: `.1` leading bytes change (a few
        /// bytes flush as IPA, a whole tuple out-of-place).
        Update(usize, usize, u8),
        /// Committed insert of a new row (the heap grows new pages).
        Insert(u8),
        /// Update of row `.0`, rolled back.
        Abort(usize, u8),
        /// `flush_page` of the page holding row `.0`.
        FlushPage(usize),
        /// Allocate `.0` scratch pages: eviction pressure moves the CLOCK
        /// hand and clears reference bits.
        Pressure(usize),
        /// Free the newest scratch page.
        FreePage,
        Checkpoint,
        Background,
        FlushAll,
        CrashRecover,
    }

    use rand::rngs::StdRng;
    use rand::Rng;

    /// The ten ops in declaration order, drawn 6 : 2 : 2 : 2 : 3 : 1 : 1 : 3 : 1 : 1.
    fn pool_op(rng: &mut StdRng) -> PoolOp {
        match rng.gen_range(0..22) {
            0..=5 => PoolOp::Update(rng.gen_range(0..64), rng.gen_range(1..48), rng.gen()),
            6..=7 => PoolOp::Insert(rng.gen()),
            8..=9 => PoolOp::Abort(rng.gen_range(0..64), rng.gen()),
            10..=11 => PoolOp::FlushPage(rng.gen_range(0..64)),
            12..=14 => PoolOp::Pressure(rng.gen_range(1..5)),
            15 => PoolOp::FreePage,
            16 => PoolOp::Checkpoint,
            17..=19 => PoolOp::Background,
            20 => PoolOp::FlushAll,
            _ => PoolOp::CrashRecover,
        }
    }

    /// The pool's incremental state against the full-scan oracle: the
    /// dirty and free sets, `dirty_count`, and every prefix of the
    /// cleaning order — with frame `pin` pinned while comparing.
    fn check_pool_against_scan(db: &mut Database, pin: usize) {
        db.lost.frames.pool.assert_consistent();
        let occupied: Vec<usize> = db.lost.frames.pool.occupied().collect();
        let scan = occupied
            .iter()
            .filter(|&&i| db.lost.frames.pool.frame_mut(i).is_some_and(|f| f.is_dirty()))
            .count();
        assert_eq!(db.lost.frames.pool.dirty_count(), scan);
        let pin = pin % db.lost.frames.pool.capacity();
        if let Some(f) = db.lost.frames.pool.frame_mut(pin) {
            f.pins += 1;
        }
        let oracle = db.lost.frames.pool.dirty_indices();
        for n in 0..=oracle.len() + 1 {
            assert_eq!(
                db.lost.frames.pool.candidates(n),
                oracle[..n.min(oracle.len())],
                "limit {n}"
            );
        }
        assert_eq!(db.lost.frames.pool.candidates(usize::MAX), oracle);
        if let Some(f) = db.lost.frames.pool.frame_mut(pin) {
            f.pins -= 1;
        }
    }

    #[test]
    fn dirty_set_and_cleaning_order_match_the_full_scan() {
        ipa_flash::for_each_case(20_000, |rng| {
            let ops: Vec<(PoolOp, usize)> =
                (0..rng.gen_range(1..80)).map(|_| (pool_op(rng), rng.gen_range(0..12))).collect();
            // 12 frames over a heap that starts at ~6 pages and grows:
            // updates hit and miss, evictions sweep the hand around.
            let mut db = test_db(NxM::tpcc(), 12);
            let heap = db.create_heap(0);
            let mut tx = db.txn();
            let mut rids: Vec<_> =
                (0..40u8).map(|i| tx.heap_insert(heap, &[i; 120]).unwrap()).collect();
            tx.commit().unwrap();
            let mut scratch = Vec::new();
            check_pool_against_scan(&mut db, 0);
            for (op, pin) in ops {
                match op {
                    PoolOp::Update(row, n, byte) => {
                        let rid = rids[row % rids.len()];
                        let mut tuple = db.heap_read_unlocked(rid).unwrap();
                        tuple[..n].fill(byte);
                        let mut tx = db.txn();
                        tx.heap_update(heap, rid, &tuple).unwrap();
                        tx.commit().unwrap();
                    }
                    PoolOp::Insert(byte) => {
                        let mut tx = db.txn();
                        rids.push(tx.heap_insert(heap, &[byte; 120]).unwrap());
                        tx.commit().unwrap();
                    }
                    PoolOp::Abort(row, byte) => {
                        let rid = rids[row % rids.len()];
                        let mut tx = db.txn();
                        tx.heap_update(heap, rid, &[byte; 120]).unwrap();
                        tx.abort().unwrap();
                    }
                    PoolOp::FlushPage(row) => db.flush_page(rids[row % rids.len()].page).unwrap(),
                    PoolOp::Pressure(pages) => {
                        for _ in 0..pages {
                            scratch.push(db.new_page(0).unwrap());
                        }
                    }
                    PoolOp::FreePage => {
                        if let Some(pid) = scratch.pop() {
                            db.free_page(pid).unwrap();
                        }
                    }
                    PoolOp::Checkpoint => db.checkpoint().unwrap(),
                    PoolOp::Background => db.background_work().unwrap(),
                    PoolOp::FlushAll => db.flush_all().unwrap(),
                    PoolOp::CrashRecover => {
                        db.simulate_crash();
                        check_pool_against_scan(&mut db, pin);
                        db.recover().unwrap();
                    }
                }
                check_pool_against_scan(&mut db, pin);
            }
        });
    }

    #[test]
    fn free_page_recycles_lba() {
        let mut db = test_db(NxM::tpcc(), 8);
        let a = db.new_page(0).unwrap();
        db.flush_page(a).unwrap();
        db.free_page(a).unwrap();
        let b = db.new_page(0).unwrap();
        assert_eq!(a.lba, b.lba, "freed lba is reused");
    }

    #[test]
    fn write_amplification_accounting() {
        let mut db = test_db(NxM::tpcc(), 8);
        let (pid, slot) = flushed_tuple(&mut db, &[5, 5]);
        db.reset_stats();
        fill_and_flush(&mut db, pid, slot, 1, 6);
        // One changed byte, one 46-byte delta record ([2x3], V=12).
        assert_eq!(db.stats().net_changed_bytes, 1);
        assert_eq!(db.stats().gross_written_bytes, 46);
        assert!((db.stats().write_amplification() - 46.0).abs() < 1e-9);
    }
}
