//! The database core: pager, buffer pool, WAL discipline, background
//! cleaner and log-space reclamation — with the IPA decision wired into
//! every dirty-page flush.

use std::sync::{Arc, Mutex};

use ipa_core::layout::HeaderView;
use ipa_core::tracking::FlushPlan;
use ipa_core::{
    ecc, AdvisorGoal, ChangeTracker, DbPage, IpaAdvisor, NxM, PageLayout, UpdateSizeProfile,
};
use ipa_noftl::{
    Counters, EventKind, IoCtx, Lba, NoFtl, NoFtlConfig, Observer, PageRewriter, RegionId,
    SpanCategory, SpanId,
};

use crate::buffer::{BufferPool, Frame, ResidencyMirror, SweepStats};
use crate::error::EngineError;
use crate::heap::HeapFile;
use crate::lock::LockManager;
use crate::stats::{EngineStats, TraceEvent};
use crate::txn::TxnTable;
use crate::wal::{LogPayload, Lsn, Wal};
use crate::Result;

/// Engine-global page identifier: region + logical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Region index.
    pub region: usize,
    /// Logical page within the region.
    pub lba: Lba,
}

impl PageId {
    /// Construct from raw parts.
    pub fn new(region: usize, lba: u64) -> Self {
        PageId { region, lba: Lba(lba) }
    }
}

/// Engine configuration: buffer size and the eager/non-eager policies the
/// paper contrasts in Tables 9 and 10.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool capacity in frames.
    pub buffer_frames: usize,
    /// Cleaner trigger: flush dirty pages once this fraction of the pool
    /// is dirty (Shore-MT hardcodes 12.5%; the paper's non-eager
    /// experiments raise it to 75%).
    pub cleaner_dirty_threshold: f64,
    /// Log capacity budget in bytes.
    pub log_capacity_bytes: usize,
    /// Log reclamation trigger as a fraction of capacity (25–50% eager in
    /// Shore-MT; 100% non-eager).
    pub log_reclaim_threshold: f64,
    /// Verify per-section ECC codes on every fetch.
    pub verify_ecc: bool,
    /// Group-commit batch threshold: commit requests park until this many
    /// are waiting, then one log force acknowledges them all. `<= 1`
    /// disables batching — every commit forces the log immediately
    /// (byte-identical to the pre-group-commit engine).
    pub group_commit_batch: usize,
    /// Group-commit timeout: a partially filled batch is flushed by
    /// [`Database::background_work`] once the oldest parked commit has
    /// waited this long on the simulated clock. `0` means no timeout
    /// (batch fills or an explicit flush/quiesce drains it).
    pub group_commit_timeout_ns: u64,
    /// Simulated cost of one log force, in nanoseconds. The WAL models a
    /// separate log device that is not part of the flash simulation, so
    /// this models its fsync latency: every *real* force (one that
    /// advances the durable horizon) on the commit path advances the
    /// device clock by this much. `0` keeps the legacy free-force model.
    pub log_force_ns: u64,
    /// Online adaptive IPA: period of the advisor re-tune epoch on the
    /// simulated clock. Every epoch [`Database::background_work`] feeds
    /// each region's eviction profile to the advisor and, if a materially
    /// better `[N×M]` scheme is predicted, transitions the region to it
    /// (new and GC-migrated pages carry the new layout; resident
    /// old-scheme pages stay readable via the page-header scheme tag).
    /// `0` (the default) disables adaptation entirely — the engine
    /// behaves bit-identically to the static-scheme engine.
    pub advisor_epoch_ns: u64,
    /// Optimization goal fed to the advisor at each re-tune epoch.
    pub advisor_goal: AdvisorGoal,
    /// Minimum eviction observations a region's profile must hold before
    /// an epoch evaluates it (unevaluated profiles keep accumulating).
    pub advisor_min_observations: u64,
    /// Periodic fuzzy-checkpoint interval on the simulated clock:
    /// [`Database::background_work`] takes a checkpoint once this much
    /// simulated time has passed since the previous one. Unlike the
    /// checkpoint inside log reclamation, periodic checkpoints do *not*
    /// force-flush dirty pages first, so their dirty-page table carries
    /// real information and restart redo can start at its minimum recLSN.
    /// `0` (the default) disables periodic checkpointing entirely — the
    /// engine behaves event-for-event identically to the
    /// pre-checkpointing engine.
    pub checkpoint_interval_ns: u64,
}

impl DbConfig {
    /// Shore-MT-like eager policies (default in the paper's Tables 6–9).
    pub fn eager(buffer_frames: usize) -> Self {
        DbConfig {
            buffer_frames,
            cleaner_dirty_threshold: 0.125,
            log_capacity_bytes: 64 << 20,
            log_reclaim_threshold: 0.375,
            verify_ecc: false,
            group_commit_batch: 1,
            group_commit_timeout_ns: 0,
            log_force_ns: 0,
            advisor_epoch_ns: 0,
            advisor_goal: AdvisorGoal::Longevity,
            advisor_min_observations: 64,
            checkpoint_interval_ns: 0,
        }
    }

    /// Non-eager policies (Table 10): thresholds pushed to the extreme
    /// values 75% / 100% so updates accumulate in the buffer.
    pub fn non_eager(buffer_frames: usize) -> Self {
        DbConfig {
            cleaner_dirty_threshold: 0.75,
            log_reclaim_threshold: 1.0,
            ..DbConfig::eager(buffer_frames)
        }
    }

    /// Enable group commit with the given batch threshold and timeout
    /// (builder-style helper for sweeps).
    pub fn with_group_commit(mut self, batch: usize, timeout_ns: u64) -> Self {
        self.group_commit_batch = batch;
        self.group_commit_timeout_ns = timeout_ns;
        self
    }

    /// Set the simulated log-force latency (builder-style helper).
    pub fn with_log_force_ns(mut self, ns: u64) -> Self {
        self.log_force_ns = ns;
        self
    }

    /// Enable online adaptive IPA: re-tune every `epoch_ns` of simulated
    /// time toward `goal` (builder-style helper).
    pub fn with_adaptive(mut self, epoch_ns: u64, goal: AdvisorGoal) -> Self {
        self.advisor_epoch_ns = epoch_ns;
        self.advisor_goal = goal;
        self
    }

    /// Enable periodic fuzzy checkpoints every `interval_ns` of simulated
    /// time (builder-style helper).
    pub fn with_checkpoints(mut self, interval_ns: u64) -> Self {
        self.checkpoint_interval_ns = interval_ns;
        self
    }
}

/// Scheme state shared between the engine and the GC-migration rewriter it
/// installs into the flash-management layer: the current `[N×M]` scheme of
/// every region.
#[derive(Debug, Default)]
struct SchemeDirectory {
    /// Current scheme of each region (updated at re-tune epochs).
    schemes: Mutex<Vec<NxM>>,
}

impl SchemeDirectory {
    /// Lock the scheme vector. Poisoning is recovered: the guarded data is
    /// plain values written in single statements, so a panic elsewhere
    /// cannot leave it logically inconsistent.
    fn schemes(&self) -> std::sync::MutexGuard<'_, Vec<NxM>> {
        self.schemes.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The engine's [`PageRewriter`]: re-encodes old-scheme pages to the
/// region's current `[N×M]` layout while a GC or wear-leveling migration
/// already carries them through the host — reconfiguration piggybacks on
/// I/O the device was doing anyway, costing zero extra flash operations.
struct EngineRewriter {
    dir: Arc<SchemeDirectory>,
    /// Pages buffered in the pool right now. They must migrate verbatim —
    /// re-encoding the flash image under a buffered frame would
    /// desynchronize the frame's tracker and delta-offset math from flash.
    resident: ResidencyMirror,
    page_size: usize,
    /// Re-seed `EccInitial` (and erase the delta slots) after a rewrite,
    /// mirroring the engine's `verify_ecc` setting.
    tag_ecc: bool,
}

impl PageRewriter for EngineRewriter {
    fn rewrite_for_migration(
        &self,
        region: u32,
        lba: u64,
        page: &mut [u8],
        oob: &mut [u8],
    ) -> bool {
        if self.resident.lock().contains(&PageId::new(region as usize, lba)) {
            return false;
        }
        let target = {
            let schemes = self.dir.schemes();
            match schemes.get(region as usize) {
                Some(s) => *s,
                None => return false,
            }
        };
        let on_flash = HeaderView::scheme(page);
        if on_flash == target {
            return false;
        }
        let Ok(old_layout) = PageLayout::new(self.page_size, on_flash) else { return false };
        let Ok(new_layout) = PageLayout::new(self.page_size, target) else { return false };
        let Ok(mut db_page) = DbPage::from_bytes(page.to_vec(), old_layout) else { return false };
        // Fold resident delta records into the body, then re-cut the page
        // for the new delta-area geometry. A page too full for the new
        // layout migrates verbatim and keeps its old scheme.
        if db_page.apply_deltas().is_err() || db_page.relayout(new_layout).is_err() {
            return false;
        }
        page.copy_from_slice(db_page.bytes());
        ecc::reseed_oob(oob, page, &new_layout, self.tag_ecc);
        true
    }
}

/// Engine-side adaptive-IPA state (present iff `advisor_epoch_ns > 0`).
struct AdaptiveState {
    /// Shared with the installed [`EngineRewriter`].
    dir: Arc<SchemeDirectory>,
    /// Stateless advisor sized for this device.
    advisor: IpaAdvisor,
    /// Re-tune epochs completed.
    epoch: u64,
    /// Simulated clock at the last epoch.
    last_epoch_ns: u64,
}

/// One commit request parked in the group-commit stage: its `Commit`
/// record is appended (locks already released) but the log force — and
/// with it the durability acknowledgement — is deferred to the batch.
#[derive(Debug, Clone, Copy)]
struct ParkedCommit {
    tx: crate::txn::TxId,
    lsn: Lsn,
}

/// Group-commit stage state. Commits park here until the batch threshold
/// or timeout fires one log force for all of them.
#[derive(Debug, Default)]
struct GroupCommitState {
    /// FIFO of parked commit requests.
    parked: Vec<ParkedCommit>,
    /// Acknowledged (durable) transactions awaiting pickup by the caller
    /// via [`Database::drain_group_acks`].
    acks: Vec<crate::txn::TxId>,
    /// Device clock when the oldest currently parked commit entered.
    oldest_park_ns: u64,
    /// Size of every flushed batch, in arrival order (sweep histogram).
    batch_sizes: Vec<u32>,
}

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

/// Per-region page allocator (bump pointer + free list from drops).
#[derive(Debug, Default)]
struct PageAllocator {
    next: u64,
    free: Vec<u64>,
    capacity: u64,
}

/// The storage engine.
pub struct Database {
    pub(crate) ftl: NoFtl,
    pub(crate) layouts: Vec<PageLayout>,
    pub(crate) pool: BufferPool,
    pub(crate) wal: Wal,
    pub(crate) txns: TxnTable,
    /// Private to this module: row locks are acquired through
    /// [`Database::lock_row`] only, so every acquire passes the conflict
    /// policy and is recorded against its transaction.
    locks: LockManager,
    allocators: Vec<PageAllocator>,
    pub(crate) heaps: Vec<HeapFile>,
    pub(crate) indexes: Vec<crate::btree::BTree>,
    profiles: Vec<UpdateSizeProfile>,
    pub(crate) stats: EngineStats,
    pub(crate) config: DbConfig,
    trace: Option<Vec<TraceEvent>>,
    gcommit: GroupCommitState,
    /// Device OOB bytes per page.
    oob_size: usize,
    /// Online adaptive IPA state; `None` when `advisor_epoch_ns == 0`.
    adaptive: Option<AdaptiveState>,
    /// Simulated-clock time of the most recent checkpoint (periodic or
    /// reclamation-driven); the periodic-checkpoint epoch anchor.
    last_checkpoint_ns: u64,
    /// Scratch of [`Self::stage_flushes`] and [`Self::checkpoint`]: the
    /// frame slots to visit. Taken for the walk and put back, so a cleaner
    /// round allocates nothing.
    candidates: Vec<usize>,
    /// Scratch of the heap operations: the before image of the tuple being
    /// changed, between the page and the log.
    pub(crate) before_image: Vec<u8>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("regions", &self.layouts.len())
            .field("buffered", &self.pool.len())
            .finish_non_exhaustive()
    }
}

impl Database {
    /// Open a database over a NoFTL device. `schemes[i]` is the `[N×M]`
    /// configuration of region `i` (use [`NxM::disabled`] for the `[0×0]`
    /// baseline). Reached through [`DbBuilder::open`].
    fn open(ftl_config: NoFtlConfig, schemes: &[NxM], config: DbConfig) -> Result<Self> {
        if schemes.len() != ftl_config.regions.len() {
            return Err(EngineError::Core(ipa_core::CoreError::InvalidPage(format!(
                "{} schemes for {} regions",
                schemes.len(),
                ftl_config.regions.len()
            ))));
        }
        let page_size = ftl_config.flash.geometry.page_size;
        let oob_size = ftl_config.flash.geometry.oob_size;
        let layouts = schemes
            .iter()
            .map(|&s| PageLayout::new(page_size, s).map_err(EngineError::Core))
            .collect::<Result<Vec<_>>>()?;
        let mut ftl = NoFtl::new(ftl_config)?;
        let allocators = (0..schemes.len())
            .map(|i| {
                Ok(PageAllocator {
                    next: 0,
                    free: Vec::new(),
                    capacity: ftl.capacity(RegionId(i))?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let profiles = schemes.iter().map(|_| UpdateSizeProfile::default()).collect();
        let region_pages: Vec<u64> = allocators.iter().map(|a| a.capacity).collect();
        let mut pool = BufferPool::new(config.buffer_frames, &region_pages);
        let adaptive = if config.advisor_epoch_ns > 0 {
            let dir = Arc::new(SchemeDirectory { schemes: Mutex::new(schemes.to_vec()) });
            ftl.set_page_rewriter(Arc::new(EngineRewriter {
                dir: Arc::clone(&dir),
                resident: pool.mirror_residency(),
                page_size,
                tag_ecc: config.verify_ecc,
            }));
            let max_n = ftl.device().config().max_appends().clamp(1, u16::MAX as u32) as u16;
            Some(AdaptiveState {
                dir,
                advisor: IpaAdvisor::new(page_size, max_n),
                epoch: 0,
                last_epoch_ns: 0,
            })
        } else {
            None
        };
        Ok(Database {
            ftl,
            layouts,
            pool,
            wal: Wal::new(config.log_capacity_bytes),
            txns: TxnTable::new(),
            locks: LockManager::new(),
            allocators,
            heaps: Vec::new(),
            indexes: Vec::new(),
            profiles,
            stats: EngineStats::default(),
            config,
            trace: None,
            gcommit: GroupCommitState::default(),
            oob_size,
            adaptive,
            last_checkpoint_ns: 0,
            candidates: Vec::new(),
            before_image: Vec::new(),
        })
    }

    /// Start building a database over a NoFTL device: configuration,
    /// observers and lock policy in one fluent chain.
    pub fn builder(ftl_config: NoFtlConfig) -> DbBuilder {
        DbBuilder::new(ftl_config)
    }

    /// Start recording fetch/evict trace events (for baseline replay).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stop recording and take the trace.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// The page layout of a region.
    pub fn layout(&self, region: usize) -> &PageLayout {
        &self.layouts[region]
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Region statistics from the flash-management layer.
    pub fn region_stats(&self, region: usize) -> Result<&ipa_noftl::RegionStats> {
        Ok(self.ftl.region_stats(RegionId(region))?)
    }

    /// The underlying NoFTL device (read access for harnesses).
    pub fn ftl(&self) -> &NoFtl {
        &self.ftl
    }

    /// Mutable access to the NoFTL device for diagnostics and physical
    /// inspection (e.g. reading a page's raw flash image in tests).
    /// Bypassing the buffer pool with writes through this handle will
    /// desynchronize buffered pages from flash — read-only use intended.
    pub fn ftl_mut(&mut self) -> &mut NoFtl {
        &mut self.ftl
    }

    /// Run static wear leveling on a region (relocates cold blocks whose
    /// erase lag exceeds `threshold`). Returns relocated block count.
    pub fn wear_level(&mut self, region: usize, threshold: u64) -> Result<u32> {
        Ok(self.ftl.wear_level(RegionId(region), threshold)?)
    }

    /// Update-size profile collected for a region (feeds the IPA advisor
    /// and the paper's CDF figures).
    pub fn profile(&self, region: usize) -> &UpdateSizeProfile {
        &self.profiles[region]
    }

    /// Reset engine + device statistics (after warm-up). Profiles are kept.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.pool.reset_sweep_stats();
        self.ftl.reset_stats();
    }

    /// Cumulative CLOCK-sweep counters of the buffer pool.
    pub fn sweep_stats(&self) -> SweepStats {
        self.pool.sweep_stats()
    }

    /// Attach a trace observer to the flash device below the engine. The
    /// engine's logical flush/evict decisions are emitted through the same
    /// sequence counter as the physical events they trigger.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.ftl.attach_observer(observer);
    }

    /// Detach the trace observer, returning it.
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.ftl.detach_observer()
    }

    /// Advance the simulated clock by transaction CPU/think time.
    pub fn advance_clock(&mut self, delta_ns: u64) {
        self.ftl.advance_clock(delta_ns);
    }

    /// Allocate a fresh logical page in a region and materialize it in the
    /// buffer as a formatted, dirty, not-yet-on-flash page.
    pub fn new_page(&mut self, region: usize) -> Result<PageId> {
        let alloc = &mut self.allocators[region];
        let lba = match alloc.free.pop() {
            Some(l) => l,
            None => {
                if alloc.next >= alloc.capacity {
                    return Err(EngineError::NoFtl(ipa_noftl::NoFtlError::DeviceFull {
                        region: format!("region {region}"),
                    }));
                }
                let l = alloc.next;
                alloc.next += 1;
                l
            }
        };
        let pid = PageId::new(region, lba);
        let evicted = self.ensure_free_frame()?;
        self.insert_fresh_frame(pid, evicted)?;
        Ok(pid)
    }

    /// Materialize `pid` in the pool as a formatted page that is not on
    /// flash yet, formatted in the buffer and tracked by the tracker of the
    /// frame just evicted (or new ones). A fresh page is dirty by
    /// construction (it must reach flash at least once), so its tracker is
    /// marked out-of-place and the frame enters the pool's dirty set on
    /// arrival. The caller has made sure a slot is free.
    pub(crate) fn insert_fresh_frame(
        &mut self,
        pid: PageId,
        evicted: Option<Evicted>,
    ) -> Result<()> {
        let layout = self.layouts[pid.region];
        let (buf, tracker) = evicted.unzip();
        let mut tracker = tracker_for(tracker, layout.scheme, 0, false);
        tracker.mark_out_of_place();
        let page = DbPage::format_in(buf.unwrap_or_default(), pid.lba.0, layout);
        let frame = Frame::new(pid, page, tracker);
        self.pool.insert(frame).ok_or(EngineError::Internal("no free frame for a fresh page"))?;
        Ok(())
    }

    /// Number of pages the adaptive GC-migration rewriter currently sees
    /// as buffer-resident (0 when adaptive mode is off). Test/diagnostic
    /// aid.
    pub fn resident_tracking_len(&self) -> usize {
        self.pool.mirrored_len()
    }

    /// Drop a page: trim on flash, forget in the buffer, recycle the LBA.
    pub fn free_page(&mut self, pid: PageId) -> Result<()> {
        if let Some(idx) = self.pool.index_of(pid) {
            self.pool.remove(idx);
        }
        if self.ftl.is_mapped(RegionId(pid.region), pid.lba) {
            self.ftl.trim(RegionId(pid.region), pid.lba)?;
        }
        self.allocators[pid.region].free.push(pid.lba.0);
        Ok(())
    }

    /// Make sure at least one frame is free, evicting (and flushing) a
    /// CLOCK victim if necessary. Eviction-path writes are synchronous —
    /// the fetching transaction waits for them (steal policy). Returns what
    /// the evicted frame leaves behind: the caller formats the incoming
    /// fresh page in its buffer, or hands that to [`NoFtl::recycle`] for
    /// the read that brings the incoming page in, and restarts its tracker
    /// for the incoming page.
    fn ensure_free_frame(&mut self) -> Result<Option<Evicted>> {
        if self.pool.has_free_slot() {
            return Ok(None);
        }
        let victim = self.pool.pick_victim().ok_or(EngineError::PoolExhausted)?;
        self.flush_frame(victim, IoCtx::host())?;
        let evicted = self.pool.remove(victim);
        self.stats.evictions += 1;
        if self.ftl.observing() {
            if let Some(pid) = evicted.as_ref().map(|f| f.page_id) {
                self.ftl.emit(EventKind::Evict, Some(pid.region as u32), Some(pid.lba.0));
            }
        }
        Ok(evicted.map(Frame::into_parts))
    }

    /// Fetch a page into the buffer, returning its frame index.
    pub(crate) fn fetch(&mut self, pid: PageId) -> Result<usize> {
        self.stats.fetches += 1;
        if let Some(idx) = self.pool.index_of(pid) {
            self.stats.hits += 1;
            self.pool.touch(idx);
            return Ok(idx);
        }
        let evicted_tracker = self.ensure_free_frame()?.map(|(buf, tracker)| {
            self.ftl.recycle(buf);
            tracker
        });
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::Fetch { page: pid.lba.0 });
        }
        let region_layout = self.layouts[pid.region];
        let (bytes, _) = self.ftl.read_page(RegionId(pid.region), pid.lba, IoCtx::host())?;
        // Adaptive mode: the region's scheme may have moved on since this
        // page was written. The page header carries its own `[N×M]` tag,
        // so old-scheme pages stay readable without any migration I/O.
        let layout = if self.adaptive.is_some() {
            let on_flash = HeaderView::scheme(&bytes);
            if on_flash == region_layout.scheme {
                region_layout
            } else {
                PageLayout::new(region_layout.page_size, on_flash).map_err(EngineError::Core)?
            }
        } else {
            region_layout
        };
        if self.config.verify_ecc {
            let oob = self.ftl.read_oob(RegionId(pid.region), pid.lba)?;
            if ecc::verify_page(&bytes, &layout, &oob)?.is_some() {
                self.stats.ecc_verified += 1;
            }
        }
        let mut page = DbPage::from_bytes(bytes, layout)?;
        // The fetch path of §6.2: apply resident delta records in forward
        // order to reconstruct the current page version.
        let n_existing = page.apply_deltas()?;
        let tracker = tracker_for(evicted_tracker, layout.scheme, n_existing, true);
        let frame = Frame::new(pid, page, tracker);
        self.pool
            .insert(frame)
            .ok_or(EngineError::Internal("no free frame after ensure_free_frame"))
    }

    /// Run `f` against a buffered page and its tracker. The page is pinned
    /// for the duration of `f`. The change is logged after `f` returns, so
    /// a frame `f` dirties takes the next log record as its recovery LSN.
    pub fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut DbPage, &mut ChangeTracker) -> Result<R>,
    ) -> Result<R> {
        self.with_page_mut_at(pid, Lsn(self.wal.head().0 + 1), f)
    }

    /// [`Self::with_page_mut`] for a change whose log record, `rec_lsn`,
    /// already exists: restart redo and rollback apply records that sit
    /// anywhere in the log, not at its end.
    pub(crate) fn with_page_mut_at<R>(
        &mut self,
        pid: PageId,
        rec_lsn: Lsn,
        f: impl FnOnce(&mut DbPage, &mut ChangeTracker) -> Result<R>,
    ) -> Result<R> {
        let idx = self.fetch(pid)?;
        self.pool.update(idx, rec_lsn, f).ok_or(EngineError::Internal("fetched frame missing"))?
    }

    /// Read-only page access.
    pub fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&DbPage) -> R) -> Result<R> {
        let idx = self.fetch(pid)?;
        let frame =
            self.pool.frame_mut(idx).ok_or(EngineError::Internal("fetched frame missing"))?;
        Ok(f(&frame.page))
    }

    /// Flush one frame if dirty, waiting for the device. This is the
    /// synchronous wrapper around [`Self::stage_flush`]; batched paths
    /// (`flush_all`, the cleaner) stage several frames and drain once.
    pub(crate) fn flush_frame(&mut self, idx: usize, ctx: IoCtx) -> Result<()> {
        let staged = self.stage_flush(idx, ctx);
        self.ftl.drain_completions();
        staged
    }

    /// Queue the flush of one frame if dirty, without waiting for the
    /// device. This is where IPA happens: the tracker decides between
    /// appending delta records to the original flash page (`write_delta`)
    /// and a traditional out-of-place page write. Buffer-pool and tracker
    /// state advance at submission; the caller owns the eventual
    /// [`NoFtl::drain_completions`].
    pub(crate) fn stage_flush(&mut self, idx: usize, ctx: IoCtx) -> Result<()> {
        let frame = match self.pool.frame_mut(idx) {
            Some(f) => f,
            None => return Ok(()),
        };
        let pid = frame.page_id;
        let page_scheme = *frame.page.scheme();
        let plan = frame.tracker().plan();
        if plan == FlushPlan::Clean {
            return Ok(());
        }
        // WAL rule: the log must be durable up to the page's LSN.
        let page_lsn = Lsn(frame.page.lsn());
        self.wal.flush_to(page_lsn);
        // Workload statistics: true per-eviction update size.
        let (body, meta) = (frame.tracker().body_changed(), frame.tracker().meta_changed());
        // Update-size statistics cover only *updates to existing pages*;
        // the paper's Appendix A excludes appends to new pages from its
        // distributions ("due to the clear dominance of update I/Os").
        let is_update = frame.tracker().on_flash();
        if is_update {
            self.profiles[pid.region].record(body as u32, meta as u32);
        }
        self.stats.net_changed_bytes += (body + meta) as u64;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::Evict {
                page: pid.lba.0,
                changed_bytes: (body + meta) as u32,
                fresh: !is_update,
            });
        }

        let rid = RegionId(pid.region);
        if matches!(plan, FlushPlan::Ipa(_)) && self.ftl.can_append(rid, pid.lba) {
            let frame =
                self.pool.frame_mut(idx).ok_or(EngineError::Internal("flushed frame missing"))?;
            let n_existing = frame.tracker().n_existing();
            // The records are encoded where they belong, in the frame's
            // delta area, and programmed from there: `frame` borrows
            // `self.pool`, the writes go through `self.ftl`.
            let slots = frame.append_tracked()?;
            let appended = slots.len() as u16;
            if self.ftl.observing() {
                self.ftl.emit(
                    EventKind::FlushIpa { records: appended },
                    Some(pid.region as u32),
                    Some(pid.lba.0),
                );
            }
            let (layout, image) = (*frame.page.layout(), frame.page.bytes());
            for slot in slots {
                let offset = layout.delta_slot_offset(slot);
                let encoded = &image[offset..offset + page_scheme.delta_record_size()];
                self.ftl.submit_write_delta(rid, pid.lba, offset, encoded, ctx)?;
                self.stats.gross_written_bytes += encoded.len() as u64;
                self.stats.delta_records_written += 1;
                if self.config.verify_ecc {
                    if let Some((offset, code)) =
                        ecc::delta_write(self.oob_size, &page_scheme, slot, encoded)
                    {
                        self.ftl.write_oob(rid, pid.lba, offset, &code)?;
                    }
                }
            }
            self.pool.mark_flushed(idx, page_scheme, n_existing + appended);
            self.stats.ipa_flushes += 1;
        } else {
            // Adaptive mode: an out-of-place write is the free moment to
            // carry a stale-scheme page to its region's current `[N×M]`
            // layout — the full image is rewritten anyway. A page too
            // full for the new layout keeps its old scheme (header tag
            // keeps it readable).
            let upgrade_target = match &self.adaptive {
                Some(_) if self.layouts[pid.region].scheme != page_scheme => {
                    Some(self.layouts[pid.region])
                }
                _ => None,
            };
            let frame =
                self.pool.frame_mut(idx).ok_or(EngineError::Internal("flushed frame missing"))?;
            frame.page.reset_delta_area();
            let upgraded = match upgrade_target {
                Some(target) => frame.page.relayout(target).is_ok(),
                None => false,
            };
            // The image is programmed from the frame's own bytes: `frame`
            // borrows `self.pool`, the write goes through `self.ftl`.
            let image = frame.page.bytes();
            let layout = *frame.page.layout();
            if upgraded {
                self.stats.scheme_upgrades += 1;
            }
            if self.ftl.observing() {
                self.ftl.emit(EventKind::FlushOop, Some(pid.region as u32), Some(pid.lba.0));
            }
            self.ftl.submit_write(rid, pid.lba, image, ctx)?;
            self.stats.gross_written_bytes += image.len() as u64;
            if self.adaptive.is_some() {
                if let Some((offset, tag)) = ecc::scheme_tag_write(self.oob_size, &layout.scheme) {
                    self.ftl.write_oob(rid, pid.lba, offset, &tag)?;
                }
            }
            if self.config.verify_ecc {
                if let Some((offset, code)) = ecc::initial_write(self.oob_size, image, &layout) {
                    self.ftl.write_oob(rid, pid.lba, offset, &code)?;
                }
            }
            self.pool.mark_flushed(idx, layout.scheme, 0);
            self.stats.oop_flushes += 1;
        }
        Ok(())
    }

    /// Flush a specific page (test/checkpoint aid).
    pub fn flush_page(&mut self, pid: PageId) -> Result<()> {
        let Some(idx) = self.pool.index_of(pid) else { return Ok(()) };
        self.in_span(SpanCategory::Flush, self.ftl.device().current_span(), |db, span| {
            db.flush_frame(idx, IoCtx::host().with_span(span))
        })
    }

    /// Flush every dirty page (shutdown / quiesce). Flushes are staged as
    /// one queued batch and drained once, so on a multi-chip device with
    /// queue depth > 1 the page writes overlap across chips.
    pub fn flush_all(&mut self) -> Result<()> {
        self.debug_check_quiesced();
        let (_, staged) = self.stage_flushes(usize::MAX, IoCtx::host());
        staged
    }

    /// Stage the flush of the first `limit` frames in cleaning order (see
    /// [`BufferPool::cleaner_candidates`]) as one queued batch under one
    /// `Flush` span and drain once. Returns how many were staged before
    /// the first failure, and that failure.
    fn stage_flushes(&mut self, limit: usize, ctx: IoCtx) -> (u64, Result<()>) {
        self.in_span(SpanCategory::Flush, self.ftl.device().current_span(), |db, span| {
            let mut count = 0;
            let mut staged = Ok(());
            let mut candidates = std::mem::take(&mut db.candidates);
            db.pool.cleaner_candidates(limit, &mut candidates);
            for &idx in &candidates {
                staged = db.stage_flush(idx, ctx.with_span(span));
                if staged.is_err() {
                    break;
                }
                count += 1;
            }
            db.candidates = candidates;
            db.ftl.drain_completions();
            (count, staged)
        })
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
        let span = self.ftl.open_span_under(cat, parent);
        let out = f(self, span);
        self.ftl.close_span(span);
        out
    }

    /// Debug builds check, wherever the engine is between operations (a
    /// transaction ends, and the quiesce points below), that the layers
    /// under it are too: every command submitted to the device was handed
    /// back, and the only spans open are those of the open transactions
    /// (begun in id order, so the two sequences are equal).
    fn debug_check_idle(&self) {
        let dev = self.ftl.device();
        debug_assert_eq!(dev.inflight(), 0, "a submitted command was never completed");
        debug_assert!(
            dev.open_spans().iter().copied().eq(self.txns.spans()),
            "open spans {:?} are not those of the open transactions",
            dev.open_spans()
        );
    }

    /// The quiesce points (`flush_all`, `checkpoint`, crash, restart):
    /// debug builds re-derive the pool's dirty and free sets by full scan
    /// and check that the layers below are idle.
    pub(crate) fn debug_check_quiesced(&self) {
        if cfg!(debug_assertions) {
            self.pool.assert_consistent();
        }
        self.debug_check_idle();
    }

    /// One round of background work: the eager page cleaner and eager
    /// log-space reclamation (§8.4). Benchmark drivers call this between
    /// transactions, standing in for Shore-MT's background threads.
    pub fn background_work(&mut self) -> Result<()> {
        // Group-commit timeout: fire a partial batch whose oldest parked
        // commit has waited long enough. Checked before the cleaner so the
        // batch force is attributed here, not absorbed into a page flush's
        // WAL-rule force.
        if !self.gcommit.parked.is_empty() && self.config.group_commit_timeout_ns > 0 {
            let waited =
                self.ftl.device().clock().now_ns().saturating_sub(self.gcommit.oldest_park_ns);
            if waited >= self.config.group_commit_timeout_ns {
                self.flush_group_commit();
            }
        }
        if self.pool.dirty_fraction() >= self.config.cleaner_dirty_threshold {
            // Flush coldest-first, but only *down to* the threshold: hot
            // pages stay buffered and keep accumulating updates (Shore-MT
            // cleaners behave the same way — they chase the threshold, not
            // an empty pool).
            let target = (self.config.cleaner_dirty_threshold * self.pool.capacity() as f64).floor()
                as usize;
            let excess = self.pool.dirty_count().saturating_sub(target);
            /// Most pages one cleaner round flushes.
            const CLEANER_BATCH: usize = 64;
            let (flushed, staged) =
                self.stage_flushes(excess.min(CLEANER_BATCH), IoCtx::host_async());
            self.stats.cleaner_flushes += flushed;
            staged?;
        }
        if self.wal.used_fraction() >= self.config.log_reclaim_threshold {
            self.reclaim_log_space()?;
        }
        self.maybe_checkpoint()?;
        self.maybe_retune();
        Ok(())
    }

    /// Periodic fuzzy checkpoint: once `checkpoint_interval_ns` of
    /// simulated time has passed since the last checkpoint, take one —
    /// *without* flushing dirty pages first (unlike log reclamation), so
    /// the recorded dirty-page table bounds restart redo. `0` keeps the
    /// feature dormant: no clock read feeds back into engine behaviour and
    /// the trace stays event-for-event identical to the interval-0 engine.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        if self.config.checkpoint_interval_ns == 0 {
            return Ok(());
        }
        let now = self.ftl.device().clock().now_ns();
        if now.saturating_sub(self.last_checkpoint_ns) < self.config.checkpoint_interval_ns {
            return Ok(());
        }
        self.checkpoint()
    }

    /// Adaptive-IPA re-tune epoch: when `advisor_epoch_ns` of simulated
    /// time has passed since the last epoch, feed every region's eviction
    /// profile to the advisor and transition regions whose recommended
    /// scheme is predicted to beat the current one by more than the
    /// hysteresis margin. Profiles are windowed: each evaluated region's
    /// profile restarts so the next epoch sees the *current* workload
    /// phase, not its whole history.
    fn maybe_retune(&mut self) {
        /// Hysteresis: a region transitions only when the profile-predicted
        /// IPA hit rate of the recommended scheme exceeds the current
        /// scheme's by more than this margin.
        const HYSTERESIS: f64 = 0.05;
        let now = self.ftl.device().clock().now_ns();
        let Some(state) = self.adaptive.as_mut() else { return };
        if now.saturating_sub(state.last_epoch_ns) < self.config.advisor_epoch_ns {
            return;
        }
        state.epoch += 1;
        state.last_epoch_ns = now;
        let advisor = state.advisor;
        let dir = Arc::clone(&state.dir);
        let epoch = state.epoch;
        self.stats.retune_epochs += 1;
        for region in 0..self.layouts.len() {
            if self.profiles[region].observations() < self.config.advisor_min_observations {
                continue;
            }
            let profile = &self.profiles[region];
            let rec = advisor.recommend(profile, self.config.advisor_goal);
            let current = self.layouts[region].scheme;
            let gain =
                profile.predicted_hit_rate(&rec.scheme) - profile.predicted_hit_rate(&current);
            if self.ftl.observing() {
                let snap = EventKind::ProfileSnapshot {
                    observations: profile.observations(),
                    body_p50: profile.body_percentile(50.0),
                    body_p95: profile.body_percentile(95.0),
                    meta_p99: profile.meta_percentile(99.0),
                };
                self.ftl.emit(snap, Some(region as u32), None);
            }
            if rec.scheme != current && gain > HYSTERESIS {
                let page_size = self.layouts[region].page_size;
                if let Ok(new_layout) = PageLayout::new(page_size, rec.scheme) {
                    self.layouts[region] = new_layout;
                    dir.schemes()[region] = rec.scheme;
                    self.stats.scheme_changes += 1;
                    if self.ftl.observing() {
                        self.ftl.emit(
                            EventKind::SchemeChange {
                                epoch,
                                old: (current.n, current.m, current.v),
                                new: (rec.scheme.n, rec.scheme.m, rec.scheme.v),
                            },
                            Some(region as u32),
                            None,
                        );
                    }
                }
            }
            self.profiles[region] = UpdateSizeProfile::default();
        }
    }

    /// Eager log-space reclamation: flush all dirty pages (their changes
    /// become durable on flash), checkpoint, and truncate the log up to
    /// the oldest record still needed for active-transaction undo.
    pub(crate) fn reclaim_log_space(&mut self) -> Result<()> {
        let (_, staged) = self.stage_flushes(usize::MAX, IoCtx::host_async());
        staged?;
        self.checkpoint()?;
        // Oldest record still needed for undo: active transactions, and
        // — crucially — *parked* group commits. A parked transaction is
        // already finished in the transaction table (its locks are
        // released), but until the batch force acknowledges it, its
        // records are the only evidence of what it did: truncating them
        // would let stolen page writes of an unacknowledged commit survive
        // a crash with no history to redo or undo against.
        let keep = self
            .txns
            .iter()
            .map(|(_, last)| last)
            .chain(self.gcommit.parked.iter().map(|p| p.lsn))
            .map(|last| self.first_lsn_from(last))
            .filter(|first| !first.is_null())
            .min()
            .unwrap_or(self.wal.head());
        // Keep the checkpoint pair itself. The Begin and End LSNs are not
        // adjacent in general (fuzzy checkpoints interleave with regular
        // records), so the WAL tracks the pair — truncate to the Begin.
        let ckpt_begin = self.wal.last_checkpoint_begin().unwrap_or(Lsn(1));
        self.wal.truncate_to(keep.min(ckpt_begin));
        self.stats.log_reclaims += 1;
        Ok(())
    }

    /// Head of the undo chain that ends at `lsn` (the transaction's first
    /// retained record). Null in, null out.
    fn first_lsn_from(&self, mut lsn: Lsn) -> Lsn {
        let mut first = lsn;
        while let Some(prev) = self.wal.prev_of(lsn) {
            first = lsn;
            if prev.is_null() {
                break;
            }
            lsn = prev;
        }
        first
    }

    /// Force the entire log to stable storage (group flush).
    pub fn force_log(&mut self) {
        let head = self.wal.head();
        self.wal.flush_to(head);
    }

    /// Newest appended LSN — the retained-log length a full-scan restart
    /// would have to walk (diagnostics and the restart-latency bench).
    pub fn wal_head(&self) -> Lsn {
        self.wal.head()
    }

    /// Take a fuzzy checkpoint: a `BeginCheckpoint`/`EndCheckpoint` record
    /// pair whose End carries the active-transaction table and the
    /// dirty-page table (each dirty frame's recLSN). Restart analysis
    /// starts at the Begin of the last complete pair and redo at the
    /// dirty-page table's minimum recLSN.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.wal.append(Lsn::NULL, LogPayload::<&[u8]>::BeginCheckpoint);
        if self.ftl.observing() {
            self.ftl.emit(EventKind::CheckpointBegin, None, None);
        }
        self.debug_check_quiesced();
        let mut candidates = std::mem::take(&mut self.candidates);
        self.pool.cleaner_candidates(usize::MAX, &mut candidates);
        let dirty: Vec<(PageId, Lsn)> = candidates
            .iter()
            .filter_map(|&i| {
                let f = self.pool.frame_mut(i)?;
                Some((f.page_id, f.rec_lsn))
            })
            .collect();
        self.candidates = candidates;
        let active = self.txns.snapshot();
        let counts = (active.len() as u32, dirty.len() as u32);
        let end = self.wal.append(Lsn::NULL, LogPayload::<&[u8]>::EndCheckpoint { active, dirty });
        self.wal.flush_to(end);
        self.stats.checkpoints += 1;
        self.last_checkpoint_ns = self.ftl.device().clock().now_ns();
        if self.ftl.observing() {
            let kind = EventKind::CheckpointEnd { active: counts.0, dirty: counts.1 };
            self.ftl.emit(kind, None, None);
        }
        Ok(())
    }

    /// Append a log record on behalf of a transaction, maintaining the
    /// per-transaction chain. The record's images are copied into the log.
    pub(crate) fn log_for_tx(
        &mut self,
        tx: crate::txn::TxId,
        payload: LogPayload<&[u8]>,
    ) -> Result<Lsn> {
        if !self.txns.is_active(tx) {
            return Err(EngineError::UnknownTx(tx));
        }
        if self.wal.used_fraction() >= 1.0 {
            self.reclaim_log_space()?;
            if self.wal.used_fraction() >= 1.0 {
                return Err(EngineError::LogFull);
            }
        }
        let prev = self.txns.last_lsn(tx);
        let lsn = self.wal.append(prev, payload);
        self.txns.set_last_lsn(tx, lsn);
        Ok(lsn)
    }

    /// Begin a transaction. Opens a root trace span covering the
    /// transaction's lifetime; the matching close happens at commit/abort.
    pub(crate) fn start_tx(&mut self) -> crate::txn::TxId {
        let tx = self.txns.begin();
        #[expect(
            clippy::disallowed_methods,
            reason = "close is deferred: the SpanId is stored in the txn table and closed by finish_tx at commit/abort"
        )]
        let span = self.ftl.open_span_under(SpanCategory::Txn, None);
        self.txns.set_span(tx, span);
        let lsn = self.wal.append(Lsn::NULL, LogPayload::<&[u8]>::Begin { tx });
        self.txns.set_last_lsn(tx, lsn);
        tx
    }

    /// Force the WAL up to `lsn` on the commit path, counting only *real*
    /// forces (those that advance the durable horizon) and charging the
    /// configured log-device latency for them.
    fn force_wal_to(&mut self, lsn: Lsn) -> bool {
        if !self.wal.flush_to(lsn) {
            return false;
        }
        self.stats.wal_forces += 1;
        if self.config.log_force_ns > 0 {
            self.ftl.advance_clock(self.config.log_force_ns);
        }
        true
    }

    /// Commit a transaction. With batching disabled
    /// (`group_commit_batch <= 1`) the log is forced before this returns.
    /// With group commit enabled the `Commit` record is appended, locks
    /// are released (safe under WAL prefix durability — once the batch
    /// force covers this LSN everything the transaction did is durable)
    /// and the request parks; the durability acknowledgement arrives via
    /// [`Database::drain_group_acks`] after the batch flush.
    pub(crate) fn commit_tx(&mut self, tx: crate::txn::TxId) -> Result<()> {
        let lsn = self.log_for_tx(tx, LogPayload::Commit { tx })?;
        if self.config.group_commit_batch <= 1 {
            self.force_wal_to(lsn);
            self.finish_tx(tx);
            self.stats.commits += 1;
            return Ok(());
        }
        self.finish_tx(tx);
        self.stats.tx_parked += 1;
        if self.ftl.observing() {
            self.ftl.emit(EventKind::TxParked, None, None);
        }
        if self.gcommit.parked.is_empty() {
            self.gcommit.oldest_park_ns = self.ftl.device().clock().now_ns();
        }
        self.gcommit.parked.push(ParkedCommit { tx, lsn });
        if self.gcommit.parked.len() >= self.config.group_commit_batch {
            self.flush_group_commit();
        }
        Ok(())
    }

    /// Abort: roll back via the undo chain, write CLRs, release locks.
    pub(crate) fn abort_tx(&mut self, tx: crate::txn::TxId) -> Result<()> {
        if !self.txns.is_active(tx) {
            return Err(EngineError::UnknownTx(tx));
        }
        crate::recovery::rollback(self, tx)?;
        let lsn = self.log_for_tx(tx, LogPayload::Abort { tx })?;
        self.wal.flush_to(lsn);
        self.finish_tx(tx);
        self.stats.aborts += 1;
        Ok(())
    }

    /// Shared commit/abort/crash epilogue: release locks, close the
    /// transaction span, retire the table entry.
    pub(crate) fn finish_tx(&mut self, tx: crate::txn::TxId) {
        self.locks.release_all(tx);
        if let Some(span) = self.txns.span(tx) {
            #[expect(clippy::disallowed_methods, reason = "closes the span start_tx opened")]
            self.ftl.close_span(span);
        }
        self.txns.finish(tx);
        self.debug_check_idle();
    }

    /// Flush the group-commit stage: one log force covering every parked
    /// commit, then acknowledge them all. A no-op when nothing is parked.
    pub fn flush_group_commit(&mut self) {
        if self.gcommit.parked.is_empty() {
            return;
        }
        let batch = self.gcommit.parked.len();
        let horizon = self.gcommit.parked.iter().map(|p| p.lsn).max().unwrap_or(Lsn::NULL);
        self.in_span(SpanCategory::Flush, self.ftl.device().current_span(), |db, _| {
            db.force_wal_to(horizon);
            if db.ftl.observing() {
                db.ftl.emit(EventKind::GroupCommitFlush { txns: batch as u32 }, None, None);
            }
        });
        self.stats.group_commits += 1;
        self.stats.commits += batch as u64;
        self.gcommit.batch_sizes.push(batch as u32);
        // The stage keeps its vectors: the batch moves from one to the
        // other.
        self.gcommit.acks.extend(self.gcommit.parked.drain(..).map(|p| p.tx));
    }

    /// Take the transactions acknowledged (made durable) by group-commit
    /// flushes since the last drain, in commit order. Dropping the iterator
    /// discards whatever of them it has not yielded.
    pub fn drain_group_acks(&mut self) -> std::vec::Drain<'_, crate::txn::TxId> {
        self.gcommit.acks.drain(..)
    }

    /// Commit requests currently parked in the group-commit stage.
    pub fn group_commit_pending(&self) -> usize {
        self.gcommit.parked.len()
    }

    /// Sizes of every group-commit batch flushed so far, in flush order
    /// (the sweep harness builds its batch-size histogram from this).
    pub fn group_batch_sizes(&self) -> &[u32] {
        &self.gcommit.batch_sizes
    }

    /// Whether a transaction is still active (has neither committed nor
    /// aborted). Parked group commits count as finished — their fate is
    /// commit, pending only the durability acknowledgement.
    pub fn txn_is_active(&self, tx: crate::txn::TxId) -> bool {
        self.txns.is_active(tx)
    }

    /// Switch the row-lock conflict policy (no-wait vs. wait-die).
    pub fn set_lock_policy(&mut self, policy: crate::lock::LockPolicy) {
        self.locks.set_policy(policy);
    }

    /// The active row-lock conflict policy.
    pub(crate) fn lock_policy(&self) -> crate::lock::LockPolicy {
        self.locks.policy()
    }

    /// Acquire a row lock for `tx` (released by commit/abort).
    pub(crate) fn lock_row(
        &mut self,
        tx: crate::txn::TxId,
        key: crate::lock::LockKey,
        mode: crate::lock::LockMode,
    ) -> Result<()> {
        self.locks.lock(tx, key, mode)
    }

    /// Forget every held lock (a simulated crash loses the lock table).
    pub(crate) fn reset_locks(&mut self) {
        self.locks = LockManager::new();
    }

    /// Record a guard-drop auto-abort (called from [`crate::Txn`]'s
    /// destructor after the rollback).
    pub(crate) fn note_drop_abort(&mut self) {
        self.stats.drop_aborts += 1;
    }

    /// Clear the group-commit stage at a simulated crash: parked commits
    /// lose their (unforced) `Commit` records and will roll back during
    /// recovery; undrained acks die with the host that never saw them.
    pub(crate) fn clear_group_commit(&mut self) {
        self.gcommit.parked.clear();
        self.gcommit.acks.clear();
    }
}

/// Fluent constructor for [`Database`]: device + schemes + engine config +
/// observability in one chain.
///
/// ```ignore
/// let db = Database::builder(ftl_config)
///     .scheme(NxM::tpcc())
///     .config(DbConfig::eager(256).with_group_commit(8, 2_000_000))
///     .lock_policy(LockPolicy::WaitDie)
///     .observer(sink.observer())
///     .open()?;
/// ```
pub struct DbBuilder {
    ftl_config: NoFtlConfig,
    schemes: Vec<NxM>,
    config: DbConfig,
    observer: Option<Box<dyn Observer>>,
    lock_policy: crate::lock::LockPolicy,
}

impl std::fmt::Debug for DbBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbBuilder")
            .field("schemes", &self.schemes)
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("lock_policy", &self.lock_policy)
            .finish_non_exhaustive()
    }
}

impl DbBuilder {
    /// Start a builder over a NoFTL device configuration. Defaults: no
    /// schemes (add one per region), [`DbConfig::eager`] with 64 frames,
    /// no observer, no-wait locking.
    pub fn new(ftl_config: NoFtlConfig) -> Self {
        DbBuilder {
            ftl_config,
            schemes: Vec::new(),
            config: DbConfig::eager(64),
            observer: None,
            lock_policy: crate::lock::LockPolicy::default(),
        }
    }

    /// Append the `[N×M]` scheme of the next region (call once per
    /// region, in region order).
    pub fn scheme(mut self, scheme: NxM) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Replace the full per-region scheme list.
    pub fn schemes(mut self, schemes: &[NxM]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Set the engine configuration.
    pub fn config(mut self, config: DbConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach a trace observer to the device under the engine (the last
    /// one set wins; fan out externally for multiple sinks).
    pub fn observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Set the row-lock conflict policy.
    pub fn lock_policy(mut self, policy: crate::lock::LockPolicy) -> Self {
        self.lock_policy = policy;
        self
    }

    /// Build the database.
    pub fn open(self) -> Result<Database> {
        let mut db = Database::open(self.ftl_config, &self.schemes, self.config)?;
        if let Some(observer) = self.observer {
            db.attach_observer(observer);
        }
        db.set_lock_policy(self.lock_policy);
        Ok(db)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ipa_noftl::FlashConfig;
    use ipa_noftl::IpaMode;

    pub(crate) fn test_db(scheme: NxM, frames: usize) -> Database {
        let mut flash = FlashConfig::small_slc();
        flash.geometry.blocks_per_chip = 64;
        flash.geometry.pages_per_block = 16;
        flash.geometry.page_size = 1024;
        let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
        Database::open(cfg, &[scheme], DbConfig::eager(frames)).unwrap()
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
        let pid = db.new_page(0).unwrap();
        let slot = db
            .with_page_mut(pid, |page, tracker| Ok(page.insert_tuple(&[9u8, 7, 5, 3], tracker)?))
            .unwrap();
        db.flush_page(pid).unwrap();
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
        let pid = db.new_page(0).unwrap();
        let slot = db
            .with_page_mut(pid, |page, tracker| Ok(page.insert_tuple(&[9u8, 7], tracker)?))
            .unwrap();
        db.flush_page(pid).unwrap();
        db.with_page_mut(pid, |page, tracker| {
            page.update_tuple(slot, &[3u8, 7], tracker)?;
            Ok(())
        })
        .unwrap();
        db.flush_page(pid).unwrap();
        assert_eq!(db.stats().ipa_flushes, 1);
        // Drop the buffered copy and re-fetch from flash: the delta must
        // be applied on the way in.
        let idx = db.pool.index_of(pid).unwrap();
        db.pool.remove(idx);
        let tuple = db.with_page(pid, |page| page.tuple(slot).unwrap().to_vec()).unwrap();
        assert_eq!(tuple, vec![3, 7]);
    }

    #[test]
    fn large_update_falls_back_out_of_place() {
        let mut db = test_db(NxM::tpcc(), 8);
        let pid = db.new_page(0).unwrap();
        let slot = db
            .with_page_mut(pid, |page, tracker| Ok(page.insert_tuple(&[0u8; 100], tracker)?))
            .unwrap();
        db.flush_page(pid).unwrap();
        db.with_page_mut(pid, |page, tracker| {
            page.update_tuple(slot, &[1u8; 100], tracker)?;
            Ok(())
        })
        .unwrap();
        db.flush_page(pid).unwrap();
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
        db.pool.assert_consistent();
        let occupied: Vec<usize> = db.pool.occupied().collect();
        let scan = occupied
            .iter()
            .filter(|&&i| db.pool.frame_mut(i).is_some_and(|f| f.is_dirty()))
            .count();
        assert_eq!(db.pool.dirty_count(), scan);
        let pin = pin % db.pool.capacity();
        if let Some(f) = db.pool.frame_mut(pin) {
            f.pins += 1;
        }
        let oracle = db.pool.dirty_indices();
        for n in 0..=oracle.len() + 1 {
            assert_eq!(db.pool.candidates(n), oracle[..n.min(oracle.len())], "limit {n}");
        }
        assert_eq!(db.pool.candidates(usize::MAX), oracle);
        if let Some(f) = db.pool.frame_mut(pin) {
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
    fn commit_forces_log() {
        let mut db = test_db(NxM::tpcc(), 8);
        let tx = db.start_tx();
        let lsn = db.log_for_tx(tx, LogPayload::Commit { tx }).unwrap();
        db.wal.flush_to(lsn);
        assert_eq!(db.wal.flushed(), lsn);
    }

    #[test]
    fn parked_ids_finish_once_through_resume() {
        let mut db = test_db(NxM::tpcc(), 8);
        let tx = db.txn().park();
        db.resume(tx).unwrap().commit().unwrap();
        assert!(matches!(db.resume(tx), Err(EngineError::UnknownTx(_))));
        let tx = db.txn().park();
        db.resume(tx).unwrap().abort().unwrap();
        assert!(matches!(db.resume(tx), Err(EngineError::UnknownTx(_))));
        assert_eq!(db.stats().commits, 1);
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn group_commit_batches_forces() {
        let mut db = test_db(NxM::tpcc(), 16);
        db.config.group_commit_batch = 4;
        let heap = db.create_heap(0);
        let mut parked = Vec::new();
        for i in 0..4u8 {
            let tx = db.start_tx();
            db.heap_insert(tx, heap, &[i; 8]).unwrap();
            db.commit_tx(tx).unwrap();
            parked.push(tx);
        }
        // Batch of 4 fired exactly one real force and acked everyone.
        assert_eq!(db.stats().tx_parked, 4);
        assert_eq!(db.stats().group_commits, 1);
        assert_eq!(db.stats().wal_forces, 1);
        assert_eq!(db.stats().commits, 4);
        assert_eq!(db.group_commit_pending(), 0);
        assert_eq!(db.drain_group_acks().collect::<Vec<_>>(), parked);
        assert_eq!(db.group_batch_sizes(), &[4]);
        // Drain is one-shot.
        assert_eq!(db.drain_group_acks().len(), 0);
    }

    #[test]
    fn group_commit_timeout_fires_partial_batch() {
        let mut db = test_db(NxM::tpcc(), 16);
        db.config.group_commit_batch = 8;
        db.config.group_commit_timeout_ns = 1_000;
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
        assert_eq!(db.group_commit_pending(), 1);
        db.background_work().unwrap();
        assert_eq!(db.group_commit_pending(), 1, "timeout not yet reached");
        db.advance_clock(2_000);
        db.background_work().unwrap();
        assert_eq!(db.group_commit_pending(), 0);
        assert_eq!(db.drain_group_acks().collect::<Vec<_>>(), vec![tx]);
        assert_eq!(db.group_batch_sizes(), &[1]);
    }

    #[test]
    fn log_force_latency_charged_per_real_force() {
        let mut db = test_db(NxM::tpcc(), 8);
        db.config.log_force_ns = 500;
        let t0 = db.ftl().device().clock().now_ns();
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
        let t1 = db.ftl().device().clock().now_ns();
        assert_eq!(t1 - t0, 500);
        assert_eq!(db.stats().wal_forces, 1);
        // A commit whose LSN horizon is already durable costs nothing.
        db.force_log();
        let tx = db.start_tx();
        // No writes: the Commit record itself still advances the horizon.
        db.commit_tx(tx).unwrap();
        assert_eq!(db.stats().wal_forces, 2);
    }

    /// A submit nobody completes is caught where the transaction ends.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never completed")]
    fn leaked_submit_panics_at_the_transaction_boundary() {
        let mut db = test_db(NxM::tpcc(), 8);
        let pid = db.new_page(0).unwrap();
        db.flush_page(pid).unwrap();
        db.ftl.submit_read(RegionId(0), pid.lba, IoCtx::host()).unwrap();
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
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

    pub(crate) fn adaptive_test_db(epoch_ns: u64, frames: usize) -> Database {
        let mut flash = FlashConfig::small_slc();
        flash.geometry.blocks_per_chip = 64;
        flash.geometry.pages_per_block = 16;
        flash.geometry.page_size = 1024;
        let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
        let mut dbc = DbConfig::eager(frames);
        dbc.advisor_epoch_ns = epoch_ns;
        dbc.advisor_min_observations = 8;
        Database::open(cfg, &[NxM::tpcc()], dbc).unwrap()
    }

    #[test]
    fn adaptive_retune_switches_scheme_and_keeps_old_pages_readable() {
        let epoch = 1_000_000u64;
        let mut db = adaptive_test_db(epoch, 8);
        let mut pids = Vec::new();
        let mut slots = Vec::new();
        for _ in 0..4 {
            let pid = db.new_page(0).unwrap();
            let slot = db.with_page_mut(pid, |p, t| Ok(p.insert_tuple(&[0u8; 64], t)?)).unwrap();
            db.flush_page(pid).unwrap();
            pids.push(pid);
            slots.push(slot);
        }
        // A 24-byte-update phase: under [2x3] every flush is forced out of
        // place (records_needed(24) = 8 > 2) and feeds the profile.
        for round in 1..=4u8 {
            for (i, &pid) in pids.iter().enumerate() {
                db.with_page_mut(pid, |p, t| {
                    let mut v = p.tuple(slots[i])?.to_vec();
                    v[..24].fill(round);
                    p.update_tuple(slots[i], &v, t)?;
                    Ok(())
                })
                .unwrap();
                db.flush_page(pid).unwrap();
            }
        }
        assert_eq!(db.stats().ipa_flushes, 0);
        assert!(db.profile(0).observations() >= 8);

        db.advance_clock(epoch + 1);
        db.background_work().unwrap();
        assert_eq!(db.stats().retune_epochs, 1);
        assert_eq!(db.stats().scheme_changes, 1);
        let new_scheme = db.layout(0).scheme;
        assert_eq!(new_scheme.m, 24, "Longevity re-tune adopts the p85 update size");
        assert_eq!(db.profile(0).observations(), 0, "profile window restarts per epoch");

        // An old-scheme page dropped from the pool clean is still on flash
        // in [2x3]; the fetch path resolves its layout from the header.
        if let Some(idx) = db.pool.index_of(pids[1]) {
            db.pool.remove(idx);
        }
        let (m, tup) =
            db.with_page(pids[1], |p| (p.scheme().m, p.tuple(slots[1]).unwrap().to_vec())).unwrap();
        assert_eq!(m, 3, "old-scheme page readable via its header scheme tag");
        assert_eq!(&tup[..24], &[4u8; 24][..]);

        // The next out-of-place flush of a stale resident page carries it
        // to the new layout for free.
        db.with_page_mut(pids[0], |p, t| {
            let mut v = p.tuple(slots[0])?.to_vec();
            v[..24].fill(9);
            p.update_tuple(slots[0], &v, t)?;
            Ok(())
        })
        .unwrap();
        db.flush_page(pids[0]).unwrap();
        assert_eq!(db.stats().scheme_upgrades, 1);
        assert_eq!(db.with_page(pids[0], |p| p.scheme().m).unwrap(), 24);

        // Under the new scheme the same 24-byte update is an IPA hit.
        db.with_page_mut(pids[0], |p, t| {
            let mut v = p.tuple(slots[0])?.to_vec();
            v[..24].fill(10);
            p.update_tuple(slots[0], &v, t)?;
            Ok(())
        })
        .unwrap();
        db.flush_page(pids[0]).unwrap();
        assert!(db.stats().ipa_flushes >= 1, "phase-matched scheme turns the update into IPA");
    }

    #[test]
    fn ecc_verification_holds_across_a_scheme_change() {
        // `verify_ecc` and adaptive mode together: every fetch checks what
        // the three OOB writers left behind — `stage_flush`'s out-of-place
        // branch (tag + `EccInitial`), its append branch (`EccDelta(i)`)
        // and the GC rewriter (tag, re-seeded `EccInitial`, delta slots
        // erased) — on pages of the old scheme and of the new one.
        let mut flash = FlashConfig::small_slc();
        flash.geometry.blocks_per_chip = 16;
        flash.geometry.pages_per_block = 8;
        flash.geometry.page_size = 1024;
        let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.3);
        let epoch = 1_000_000u64;
        let mut dbc = DbConfig::eager(8).with_adaptive(epoch, AdvisorGoal::Longevity);
        dbc.advisor_min_observations = 8;
        dbc.verify_ecc = true;
        let mut db = Database::open(cfg, &[NxM::tpcc()], dbc).unwrap();

        const PAGES: usize = 40;
        let mut pids = Vec::new();
        let mut slots = Vec::new();
        let mut model = vec![vec![0u8; 64]; PAGES];
        for _ in 0..PAGES {
            let pid = db.new_page(0).unwrap();
            slots.push(db.with_page_mut(pid, |p, t| Ok(p.insert_tuple(&[0u8; 64], t)?)).unwrap());
            db.flush_page(pid).unwrap();
            pids.push(pid);
        }
        let mut update = |db: &mut Database, i: usize, len: usize, fill: u8| {
            model[i][..len].fill(fill);
            let tuple = model[i].clone();
            db.with_page_mut(pids[i], |p, t| Ok(p.update_tuple(slots[i], &tuple, t)?)).unwrap();
            db.flush_page(pids[i]).unwrap();
        };
        // Odd pages are cold: one old-scheme delta record each, with its
        // `EccDelta` code, and never written again. Even pages (but page
        // 0) are hot: 24-byte updates go out of place under [2x3], feed
        // the profile the re-tune reads, and keep GC erasing blocks.
        for i in (1..PAGES).step_by(2) {
            update(&mut db, i, 1, 0xA0);
        }
        assert_eq!(db.stats().ipa_flushes, PAGES as u64 / 2);
        for round in 1..=5u8 {
            for i in (2..PAGES).step_by(2) {
                update(&mut db, i, 24, round);
            }
        }
        db.advance_clock(epoch + 1);
        db.background_work().unwrap();
        assert_eq!(db.stats().scheme_changes, 1);
        let old_scheme = NxM::tpcc();
        let new_scheme = db.layout(0).scheme;
        assert_eq!(new_scheme.m, 24);

        // A resident stale-scheme page goes out of place through
        // `stage_flush`, which carries it to the new scheme; the next
        // update is an append under the new layout.
        assert_eq!(db.with_page(pids[0], |p| *p.scheme()).unwrap(), old_scheme);
        let appends = db.stats().ipa_flushes;
        update(&mut db, 0, 24, 0xB0);
        assert_eq!(db.stats().scheme_upgrades, 1);
        update(&mut db, 0, 24, 0xB1);
        assert_eq!(db.stats().ipa_flushes, appends + 1);
        assert_eq!(db.with_page(pids[0], |p| *p.scheme()).unwrap(), new_scheme);

        // The hot pages follow: carried over on their first flush, appended
        // to on their second.
        for round in 6..=7u8 {
            for i in (2..PAGES).step_by(2) {
                update(&mut db, i, 24, round);
            }
        }
        assert_eq!(db.stats().scheme_upgrades, PAGES as u64 / 2);

        // Collect the cold blocks (wear leveling runs the migration GC
        // runs, on the least-worn block): the rewriter re-encodes the cold
        // pages, all non-resident but page 1, which migrates as it is.
        db.with_page(pids[1], |_| ()).unwrap();
        assert!(db.region_stats(0).unwrap().gc_erases > 0, "the hot pages wore some blocks");
        while db.region_stats(0).unwrap().gc_rewrites < PAGES as u64 / 2 - 1 {
            assert_eq!(db.wear_level(0, 0).unwrap(), 1, "a cold block is left to collect");
        }
        assert_eq!(db.with_page(pids[1], |p| *p.scheme()).unwrap(), old_scheme);
        assert_eq!(db.with_page(pids[3], |p| *p.scheme()).unwrap(), new_scheme);
        // An append to a re-encoded page programs `EccDelta(0)` again: the
        // rewriter must have erased the old record's code.
        let appends = db.stats().ipa_flushes;
        update(&mut db, 3, 24, 0xC0);
        assert_eq!(db.stats().ipa_flushes, appends + 1);

        // Drop the pool and read everything back with verification on.
        db.flush_all().unwrap();
        db.pool.clear();
        let verified = db.stats().ecc_verified;
        for i in 0..PAGES {
            let (scheme, tuple) = db
                .with_page(pids[i], |p| (*p.scheme(), p.tuple(slots[i]).unwrap().to_vec()))
                .unwrap();
            assert_eq!(tuple, model[i], "page {i}");
            // Erased slots verify vacuously, so look: every writer left a
            // tag that names the page's scheme and an `EccInitial`.
            let oob = db.ftl().read_oob(RegionId(0), pids[i].lba).unwrap();
            let (at, tag) = ecc::scheme_tag_write(oob.len(), &scheme).unwrap();
            assert_eq!(oob[at..at + tag.len()], tag, "page {i}");
            let initial = ecc::OobLayout::standard(oob.len(), 0).unwrap().initial_slot();
            assert!(!ecc::slot_is_erased(&oob[initial]), "page {i}");
        }
        assert_eq!(db.stats().ecc_verified, verified + PAGES as u64);
    }

    #[test]
    fn engine_rewriter_relayouts_nonresident_pages_only() {
        let old_scheme = NxM::tpcc();
        let new_scheme = NxM::new(3, 24, 1);
        let dir = Arc::new(SchemeDirectory { schemes: Mutex::new(vec![new_scheme]) });
        let resident = ResidencyMirror::default();
        let rw = EngineRewriter { dir, resident: resident.clone(), page_size: 1024, tag_ecc: true };
        let old_layout = PageLayout::new(1024, old_scheme).unwrap();
        let mut page = DbPage::format(7, old_layout);
        let mut tracker = ChangeTracker::new(old_scheme, 0, false);
        let slot = page.insert_tuple(&[5u8; 16], &mut tracker).unwrap();

        let mut bytes = page.bytes().to_vec();
        let mut oob = vec![0xFF; 64];
        assert!(rw.rewrite_for_migration(0, 7, &mut bytes, &mut oob));
        let new_layout = PageLayout::new(1024, new_scheme).unwrap();
        let migrated = DbPage::from_bytes(bytes, new_layout).unwrap();
        assert_eq!(migrated.tuple(slot).unwrap(), &[5u8; 16][..]);
        let (at, tag) = ecc::scheme_tag_write(oob.len(), &new_scheme).unwrap();
        assert_eq!(oob[at..at + tag.len()], tag, "scheme tag written to the OOB Meta section");
        assert_eq!(
            ecc::verify_page(migrated.bytes(), &new_layout, &oob),
            Ok(Some(0)),
            "EccInitial re-seeded over the re-encoded image"
        );
        let initial = ecc::OobLayout::standard(oob.len(), 0).unwrap().initial_slot();
        assert!(!ecc::slot_is_erased(&oob[initial]));

        // Resident pages migrate verbatim.
        resident.lock().insert(PageId::new(0, 9));
        let mut untouched = page.bytes().to_vec();
        assert!(!rw.rewrite_for_migration(0, 9, &mut untouched, &mut [0xFF; 64]));
        assert_eq!(untouched, page.bytes());

        // Pages already on the current scheme are left alone.
        let current = DbPage::format(1, new_layout);
        let mut same = current.bytes().to_vec();
        assert!(!rw.rewrite_for_migration(0, 1, &mut same, &mut [0xFF; 64]));
    }

    fn drive_mixed(mut db: Database) -> (Vec<TraceEvent>, u64, u64, u64, u64, u64) {
        db.enable_tracing();
        let mut pids = Vec::new();
        let mut slots = Vec::new();
        for i in 0..6u8 {
            let pid = db.new_page(0).unwrap();
            let slot = db.with_page_mut(pid, |p, t| Ok(p.insert_tuple(&[i; 48], t)?)).unwrap();
            pids.push(pid);
            slots.push(slot);
        }
        db.flush_all().unwrap();
        for round in 1..=5u8 {
            for (i, &pid) in pids.iter().enumerate() {
                let n = if i % 2 == 0 { 2 } else { 30 };
                db.with_page_mut(pid, |p, t| {
                    let mut v = p.tuple(slots[i])?.to_vec();
                    v[..n].fill(round);
                    p.update_tuple(slots[i], &v, t)?;
                    Ok(())
                })
                .unwrap();
                db.flush_page(pid).unwrap();
                db.background_work().unwrap();
            }
        }
        let trace = db.take_trace();
        let s = db.stats();
        (trace, s.gross_written_bytes, s.ipa_flushes, s.oop_flushes, s.fetches, s.evictions)
    }

    #[test]
    fn adaptive_idle_plumbing_is_trace_identical() {
        // Adaptation enabled but never firing (no epoch elapses) must be
        // indistinguishable from the static engine: same trace tape, same
        // I/O accounting. With `advisor_epoch_ns = 0` the adaptive state
        // is not even built, so that case is structurally identical.
        let baseline = drive_mixed(test_db(NxM::tpcc(), 4));
        let adaptive = drive_mixed(adaptive_test_db(u64::MAX, 4));
        assert_eq!(baseline, adaptive);
    }

    pub(crate) fn checkpoint_test_db(interval_ns: u64, frames: usize) -> Database {
        let mut flash = FlashConfig::small_slc();
        flash.geometry.blocks_per_chip = 64;
        flash.geometry.pages_per_block = 16;
        flash.geometry.page_size = 1024;
        let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
        Database::open(cfg, &[NxM::tpcc()], DbConfig::eager(frames).with_checkpoints(interval_ns))
            .unwrap()
    }

    #[test]
    fn dormant_checkpointing_is_trace_identical() {
        // `checkpoint_interval_ns = 0` must leave the engine untouched, and
        // an armed interval that never elapses must be indistinguishable
        // from it: same trace tape, same I/O accounting, no log growth.
        let baseline = drive_mixed(checkpoint_test_db(0, 4));
        let armed = drive_mixed(checkpoint_test_db(u64::MAX, 4));
        assert_eq!(baseline, armed);
    }

    #[test]
    fn periodic_checkpoints_fire_on_the_simulated_clock() {
        let mut db = checkpoint_test_db(1_000, 4);
        let pid = db.new_page(0).unwrap();
        let slot = db.with_page_mut(pid, |p, t| Ok(p.insert_tuple(&[1u8; 32], t)?)).unwrap();
        db.flush_page(pid).unwrap();
        for round in 0..8u8 {
            db.with_page_mut(pid, |p, t| {
                let mut v = p.tuple(slot)?.to_vec();
                v.fill(round);
                p.update_tuple(slot, &v, t)?;
                Ok(())
            })
            .unwrap();
            db.flush_page(pid).unwrap();
            db.background_work().unwrap();
        }
        assert!(db.stats().checkpoints >= 2, "simulated clock drives periodic checkpoints");
        let (begin, end) = db.wal.last_checkpoint_pair().expect("a complete pair is tracked");
        assert!(begin < end, "Begin precedes End");
    }

    #[test]
    fn write_amplification_accounting() {
        let mut db = test_db(NxM::tpcc(), 8);
        let pid = db.new_page(0).unwrap();
        let slot = db.with_page_mut(pid, |page, t| Ok(page.insert_tuple(&[5u8, 5], t)?)).unwrap();
        db.flush_page(pid).unwrap();
        db.reset_stats();
        db.with_page_mut(pid, |page, t| {
            page.update_tuple(slot, &[6u8, 5], t)?;
            Ok(())
        })
        .unwrap();
        db.flush_page(pid).unwrap();
        // One changed byte, one 46-byte delta record ([2x3], V=12).
        assert_eq!(db.stats().net_changed_bytes, 1);
        assert_eq!(db.stats().gross_written_bytes, 46);
        assert!((db.stats().write_amplification() - 46.0).abs() < 1e-9);
    }
}
