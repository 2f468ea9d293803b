//! Region internals: address mapping, block allocation, garbage collection
//! and wear leveling over a set of chips.

use ipa_flash::{
    CmdId, EventKind, FlashDevice, FlashError, IoCtx, OpOrigin, OpResult, PageKind, PageState, Ppa,
    ReadOutcome, SpanCategory,
};

use crate::config::{FaultPolicy, IpaMode, RegionSpec};
use crate::error::NoFtlError;
use crate::stats::RegionStats;
use crate::Result;

/// Logical block (page) address within a region's exported address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lba(pub u64);

/// Per-block bookkeeping: caches of the mapping, read by allocation and
/// collection. A block is free when its write cursor is 0 and the device
/// does not report it retired; a retired (grown bad) block is excluded
/// from allocation, victim selection and wear leveling, and its valid
/// pages stay readable and drain through normal invalidation.
#[derive(Debug, Clone)]
struct BlockInfo {
    /// Pages of the block that hold live data: the number of its `Some`
    /// entries in [`Region::p2l`].
    valid_count: u32,
    /// Pages programmed so far (index into the region's usable-page list).
    write_cursor: usize,
    /// A collection (GC or wear leveling) is migrating this block's pages
    /// right now. Migration writes go through the healed program path,
    /// which on a permanent fault retires a block and runs a *nested*
    /// `garbage_collect_chip`; excluding in-flight victims from selection
    /// keeps that nested pass from double-collecting the outer victim
    /// (which would erase it mid-migration, duplicate its free-list entry
    /// and leave a stale second p2l copy of every remaining page).
    collecting: bool,
}

/// The per-chip allocation state.
#[derive(Debug, Clone)]
struct ChipState {
    /// Global chip id on the device.
    chip: u32,
    /// Block currently receiving writes.
    active: Option<u32>,
    /// Erased blocks available for allocation: every block whose write
    /// cursor is 0 and that the device does not report retired.
    free_blocks: Vec<u32>,
    /// Bookkeeping for every block of this chip.
    blocks: Vec<BlockInfo>,
}

/// One region: a self-contained flash-managed address space. It holds the
/// mapping (`l2p`, `p2l`), caches of the mapping (per-block valid counts and
/// write cursors, active blocks, free lists) and its own counters; what the
/// device knows — retirement, erase counts — it asks the device for.
#[derive(Debug)]
pub(crate) struct Region {
    /// Index of this region within the NoFTL manager — the `region`
    /// attribution carried by trace events.
    id: u32,
    spec: RegionSpec,
    /// Usable raw page indices within a block under the region's mode
    /// (pSLC restricts to LSB pages).
    usable_pages: Vec<u32>,
    /// Exported logical capacity in pages.
    capacity: u64,
    l2p: Vec<Option<Ppa>>,
    /// Logical owner of every physical page of the region's chips, indexed
    /// by [`Region::p2l_slot`]; `None` for a page that holds no live data.
    p2l: Vec<Option<u64>>,
    blocks_per_chip: usize,
    pages_per_block: usize,
    chips: Vec<ChipState>,
    /// Round-robin cursor over chips for host writes.
    rr: usize,
    /// Degradation policy: program-retry budget and scrub threshold.
    fault_policy: FaultPolicy,
    pub(crate) stats: RegionStats,
    gc_scratch: GcScratch,
}

/// The vectors a block collection fills and empties, kept from one
/// collection to the next: taken for the collection and put back after it.
/// A nested collection — reachable only through a permanent program fault
/// on a migration write — finds them taken and works in new ones.
#[derive(Debug, Default)]
struct GcScratch {
    /// `(page, lba)` of every valid page of the victim.
    plan: Vec<(u32, u64)>,
    /// The plan's entries with the copy-back read queued for each.
    batch: Vec<(u32, u64, CmdId)>,
}

impl Region {
    pub(crate) fn new(
        id: u32,
        spec: RegionSpec,
        dev: &FlashDevice,
        fault_policy: FaultPolicy,
    ) -> Result<Self> {
        let geom = &dev.config().geometry;
        let usable_pages: Vec<u32> = (0..geom.pages_per_block)
            .filter(|&p| !spec.ipa_mode.lsb_only_allocation() || geom.page_kind(p) == PageKind::Lsb)
            .collect();
        let per_block = usable_pages.len() as u64;
        let total_pages = spec.chips.len() as u64 * geom.blocks_per_chip as u64 * per_block;
        let capacity = (total_pages as f64 * (1.0 - spec.over_provisioning)).floor() as u64;
        let slack_blocks_per_chip =
            (total_pages - capacity) / (per_block.max(1) * spec.chips.len() as u64);
        if slack_blocks_per_chip < (Self::GC_LOW_WATERMARK as u64 + 1) {
            return Err(NoFtlError::BadConfig(format!(
                "region '{}': over-provisioning leaves {slack_blocks_per_chip} spare blocks \
                 per chip, need at least {}",
                spec.name,
                Self::GC_LOW_WATERMARK + 1
            )));
        }
        let chips: Vec<ChipState> = spec
            .chips
            .iter()
            .map(|&chip| ChipState {
                chip,
                active: None,
                free_blocks: (0..geom.blocks_per_chip).rev().collect(),
                blocks: (0..geom.blocks_per_chip)
                    .map(|_| BlockInfo { valid_count: 0, write_cursor: 0, collecting: false })
                    .collect(),
            })
            .collect();
        let (blocks_per_chip, pages_per_block) =
            (geom.blocks_per_chip as usize, geom.pages_per_block as usize);
        Ok(Region {
            id,
            spec,
            usable_pages,
            capacity,
            l2p: vec![None; capacity as usize],
            p2l: vec![None; chips.len() * blocks_per_chip * pages_per_block],
            blocks_per_chip,
            pages_per_block,
            chips,
            rr: 0,
            fault_policy,
            stats: RegionStats::default(),
            gc_scratch: GcScratch::default(),
        })
    }

    pub(crate) fn spec(&self) -> &RegionSpec {
        &self.spec
    }

    /// Exported logical capacity in pages.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check_lba(&self, lba: Lba) -> Result<()> {
        if lba.0 < self.capacity {
            Ok(())
        } else {
            Err(NoFtlError::LbaOutOfRange { lba, capacity: self.capacity })
        }
    }

    fn mapped(&self, lba: Lba) -> Result<Ppa> {
        self.l2p[lba.0 as usize].ok_or(NoFtlError::Unmapped(lba))
    }

    /// Current flash residency of a logical page (fault-injection hook).
    pub(crate) fn residency(&self, lba: Lba) -> Result<Ppa> {
        self.check_lba(lba)?;
        self.mapped(lba)
    }

    /// Whether a logical page is currently mapped.
    pub(crate) fn is_mapped(&self, lba: Lba) -> bool {
        lba.0 < self.capacity && self.l2p[lba.0 as usize].is_some()
    }

    /// `ctx` attributed to this region and `lba`, as a command for that
    /// page carries it.
    fn attributed(&self, ctx: IoCtx, lba: Lba) -> IoCtx {
        IoCtx { region: Some(self.id), lba: Some(lba.0), ..ctx }
    }

    /// Queue a read of a logical page. The data travels in the completion.
    pub(crate) fn submit_read(
        &mut self,
        dev: &mut FlashDevice,
        lba: Lba,
        ctx: IoCtx,
    ) -> Result<CmdId> {
        self.check_lba(lba)?;
        let ppa = self.mapped(lba)?;
        let id = dev.submit_read(ppa, self.attributed(ctx, lba))?;
        self.stats.host_reads += 1;
        Ok(id)
    }

    /// Read a logical page synchronously. The origin in `ctx` distinguishes
    /// synchronous host reads from asynchronous ones; both count as host
    /// reads.
    pub(crate) fn read(
        &mut self,
        dev: &mut FlashDevice,
        lba: Lba,
        ctx: IoCtx,
    ) -> Result<(Vec<u8>, OpResult)> {
        let id = self.submit_read(dev, lba, ctx)?;
        let completion = dev.complete(id)?;
        let data =
            completion.data.ok_or(NoFtlError::Internal("read completion carries no data"))?;
        self.maybe_scrub(dev, lba, completion.result.read_outcome);
        Ok((data, completion.result))
    }

    /// Scrubber hook: when a synchronous read came back `Corrected` with a
    /// corrected-bit count at or above `scrub_threshold *
    /// ecc_correctable_bits`, schedule a Correct-and-Refresh of the
    /// residency before the error count can grow past the ECC capability.
    /// A threshold of 0.0 disables the scrubber. Refresh failures are
    /// deliberately swallowed — the read itself succeeded, and refresh is
    /// opportunistic hygiene, not a correctness requirement.
    fn maybe_scrub(&mut self, dev: &mut FlashDevice, lba: Lba, outcome: ReadOutcome) {
        let threshold = self.fault_policy.scrub_threshold;
        if threshold <= 0.0 {
            return;
        }
        let ReadOutcome::Corrected { corrected } = outcome else { return };
        let limit = dev.config().reliability.ecc_correctable_bits;
        if (corrected as f64) < threshold * limit as f64 {
            return;
        }
        let Some(ppa) = self.l2p[lba.0 as usize] else { return };
        if dev.refresh(ppa).is_ok() {
            self.stats.scrub_refreshes += 1;
            dev.emit(EventKind::ScrubRefresh, Some(self.id), Some(lba.0));
        }
    }

    /// Queue an out-of-place write of a full logical page, with the OOB
    /// writes `oob` in the same program command.
    ///
    /// For host-origin writes the command-queue slot is reserved *before*
    /// garbage collection runs, so allocation decisions are made at the
    /// post-wait clock — at queue depth 1 this reproduces the synchronous
    /// path bit for bit.
    pub(crate) fn submit_write(
        &mut self,
        dev: &mut FlashDevice,
        lba: Lba,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        self.check_lba(lba)?;
        if ctx.origin == OpOrigin::Host {
            dev.reserve_host_slot();
        }
        let local = self.pick_chip();
        self.garbage_collect_chip(dev, local)?;
        let (ppa, id) = self.program_healed(dev, local, lba, ctx, |dev, ppa, ctx| {
            dev.submit_program(ppa, data, oob, ctx)
        })?;
        self.map(dev, lba, ppa)?;
        self.stats.host_page_writes += 1;
        Ok(id)
    }

    /// Program a fresh allocation with the region's degradation policy:
    /// `submit` queues the program of the page it is given (a host write's
    /// image, a delta fallback's, or a migration's copy-back) under `ctx`
    /// attributed to `lba`. A transient program-status failure is retried
    /// on the same page up to `program_retries` times; once the budget is
    /// spent — or when the failure is permanent — the block is retired as
    /// grown bad and the write remapped onto a new allocation. Terminates
    /// because every retirement permanently removes one block from the pool.
    fn program_healed(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        lba: Lba,
        ctx: IoCtx,
        mut submit: impl FnMut(&mut FlashDevice, Ppa, IoCtx) -> ipa_flash::Result<CmdId>,
    ) -> Result<(Ppa, CmdId)> {
        let ctx = self.attributed(ctx, lba);
        let mut retries = 0u32;
        let mut ppa = self.allocate(dev, local)?;
        loop {
            match submit(dev, ppa, ctx) {
                Ok(id) => return Ok((ppa, id)),
                Err(FlashError::ProgramFailed { permanent: false, .. })
                    if retries < self.fault_policy.program_retries =>
                {
                    retries += 1;
                    self.stats.program_retries += 1;
                }
                Err(FlashError::ProgramFailed { .. } | FlashError::BlockRetired { .. }) => {
                    let li = self.local_chip(ppa.chip)?;
                    self.retire_block_bookkeeping(dev, li, ppa.block)?;
                    self.garbage_collect_chip(dev, li)?;
                    ppa = self.allocate(dev, local)?;
                    retries = 0;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Retire a block as grown bad: persist the device-side marker (the
    /// device then reports the block retired, which keeps it out of victim
    /// selection and wear leveling) and drop the block from the active slot
    /// and the free list. Idempotent.
    fn retire_block_bookkeeping(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        block: u32,
    ) -> Result<()> {
        let state = &mut self.chips[local];
        dev.retire(state.chip, block)?;
        if state.active == Some(block) {
            state.active = None;
        }
        state.free_blocks.retain(|&b| b != block);
        Ok(())
    }

    /// Queue the `write_delta` command (§7): append `data` at byte `offset`
    /// of the *current physical residency* of `lba`, without remapping,
    /// with the OOB writes `oob` in the same command.
    pub(crate) fn submit_write_delta(
        &mut self,
        dev: &mut FlashDevice,
        lba: Lba,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        self.check_lba(lba)?;
        let ppa = self.mapped(lba)?;
        if let Some(reason) = self.append_block_reason(dev, ppa) {
            return Err(NoFtlError::AppendNotAllowed { lba, reason });
        }
        match dev.submit_program_partial(ppa, offset, data, oob, self.attributed(ctx, lba)) {
            Ok(id) => {
                self.stats.host_delta_writes += 1;
                self.stats.delta_bytes += data.len() as u64;
                Ok(id)
            }
            // A delta-append status failure is transient for the block and
            // the page keeps its pre-append contents: recover by rewriting
            // the page out of place with the delta applied (the paper's
            // stance — appends are an optimisation, never a correctness
            // requirement).
            Err(FlashError::ProgramFailed { .. } | FlashError::BlockRetired { .. }) => {
                self.delta_fallback(dev, lba, offset, data, oob, ctx)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Recover a failed delta append: rebuild the page image from the
    /// current residency, overlay the delta, and write it out of place
    /// through the healed program path (retiring blocks as needed). One
    /// program writes the image and the old OOB with the append's OOB
    /// writes laid over it, so ECC bookkeeping stays consistent. The
    /// collection that makes room may move the old page: `map` invalidates
    /// wherever the mapping points by then.
    fn delta_fallback(
        &mut self,
        dev: &mut FlashDevice,
        lba: Lba,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        dev.emit(EventKind::DeltaFallback, Some(self.id), Some(lba.0));
        let old = self.mapped(lba)?;
        let rid = dev.submit_read(old, self.attributed(IoCtx::background(), lba))?;
        let mut image = dev
            .complete(rid)?
            .data
            .ok_or(NoFtlError::Internal("read completion carries no data"))?;
        overlay(&mut image, old, offset, data)?;
        let mut old_oob = dev.read_oob(old)?;
        for &(at, bytes) in oob {
            overlay(&mut old_oob, old, at, bytes)?;
        }
        let local = self.pick_chip();
        self.garbage_collect_chip(dev, local)?;
        let (new, id) = self.program_healed(dev, local, lba, ctx, |dev, ppa, ctx| {
            dev.submit_program(ppa, &image, &[(0, &old_oob)], ctx)
        })?;
        self.map(dev, lba, new)?;
        self.stats.delta_fallbacks += 1;
        self.stats.host_page_writes += 1;
        Ok(id)
    }

    /// Whether `write_delta` is currently possible for a logical page —
    /// the engine's pre-flight check before choosing the IPA path.
    pub(crate) fn can_append(&self, dev: &FlashDevice, lba: Lba) -> bool {
        if lba.0 >= self.capacity {
            return false;
        }
        match self.l2p[lba.0 as usize] {
            Some(ppa) => self.append_block_reason(dev, ppa).is_none(),
            None => false,
        }
    }

    fn append_block_reason(&self, dev: &FlashDevice, ppa: Ppa) -> Option<&'static str> {
        if dev.is_block_retired(ppa.chip, ppa.block).unwrap_or(false) {
            return Some("block retired (grown bad)");
        }
        match self.spec.ipa_mode {
            IpaMode::None => return Some("region has IPA disabled"),
            IpaMode::OddMlc if dev.page_kind(ppa) == PageKind::Msb => {
                return Some("page resides on an MSB page (odd-MLC mode)")
            }
            _ => {}
        }
        match dev.page_state(ppa) {
            Ok(PageState::Programmed { appends }) if appends >= dev.config().max_appends() => {
                Some("append budget exhausted")
            }
            Ok(_) => None,
            Err(_) => Some("invalid physical residency"),
        }
    }

    /// Read the OOB area of `lba`'s current residency.
    pub(crate) fn read_oob(&self, dev: &FlashDevice, lba: Lba) -> Result<Vec<u8>> {
        self.check_lba(lba)?;
        let ppa = self.mapped(lba)?;
        Ok(dev.read_oob(ppa)?)
    }

    /// Drop a logical page: the mapping goes, and the physical page becomes
    /// garbage for the collector.
    pub(crate) fn trim(&mut self, dev: &mut FlashDevice, lba: Lba) -> Result<()> {
        self.check_lba(lba)?;
        if let Some(ppa) = self.l2p[lba.0 as usize].take() {
            self.invalidate(dev, ppa)?;
            self.stats.trims += 1;
        }
        Ok(())
    }

    fn pick_chip(&mut self) -> usize {
        let local = self.rr % self.chips.len();
        self.rr = self.rr.wrapping_add(1);
        local
    }

    fn local_chip(&self, global: u32) -> Result<usize> {
        self.chips
            .iter()
            .position(|c| c.chip == global)
            .ok_or(NoFtlError::Internal("ppa does not belong to any chip of this region"))
    }

    /// Index into `p2l` of page `page` of block `block` on local chip
    /// `local`.
    fn p2l_slot(&self, local: usize, block: u32, page: u32) -> usize {
        (local * self.blocks_per_chip + block as usize) * self.pages_per_block + page as usize
    }

    /// The `p2l` entries of every page of block `block` on local chip
    /// `local`, in page order.
    fn block_owners(&self, local: usize, block: u32) -> &[Option<u64>] {
        let first = self.p2l_slot(local, block, 0);
        &self.p2l[first..first + self.pages_per_block]
    }

    /// Point `lba` at `ppa`, a page just programmed, and invalidate the
    /// residency it had until now.
    fn map(&mut self, dev: &mut FlashDevice, lba: Lba, ppa: Ppa) -> Result<()> {
        if let Some(old) = self.l2p[lba.0 as usize].replace(ppa) {
            self.invalidate(dev, old)?;
        }
        let local = self.local_chip(ppa.chip)?;
        let slot = self.p2l_slot(local, ppa.block, ppa.page);
        if self.p2l[slot].replace(lba.0).is_none() {
            self.chips[local].blocks[ppa.block as usize].valid_count += 1;
        }
        Ok(())
    }

    /// Let go of physical page `ppa`: the one place a mapping does (a remap
    /// by `map`, a `trim`). The device is told at once, so it hands the
    /// page's buffer to the next program or read instead of keeping it until
    /// GC erases the block; the page's OOB stays.
    fn invalidate(&mut self, dev: &mut FlashDevice, ppa: Ppa) -> Result<()> {
        let local = self.local_chip(ppa.chip)?;
        let slot = self.p2l_slot(local, ppa.block, ppa.page);
        if self.p2l[slot].take().is_some() {
            self.chips[local].blocks[ppa.block as usize].valid_count -= 1;
            dev.discard(ppa)?;
        }
        Ok(())
    }

    /// Allocate the next physical page on a chip, opening a fresh block
    /// from the free list (least-worn first) when the active block fills.
    fn allocate(&mut self, dev: &FlashDevice, local: usize) -> Result<Ppa> {
        let per_block = self.usable_pages.len();
        // Try each chip starting from the preferred one.
        for attempt in 0..self.chips.len() {
            let li = (local + attempt) % self.chips.len();
            let state = &mut self.chips[li];
            if let Some(active) = state.active {
                let cursor = state.blocks[active as usize].write_cursor;
                if cursor < per_block {
                    let page = self.usable_pages[cursor];
                    state.blocks[active as usize].write_cursor += 1;
                    return Ok(Ppa::new(state.chip, active, page));
                }
                state.active = None;
            }
            // Open a new block: pick the least-worn free block.
            if !state.free_blocks.is_empty() {
                let chip_id = state.chip;
                let Some((idx, _)) =
                    state.free_blocks.iter().enumerate().min_by_key(|(_, &b)| {
                        dev.block_erase_count(chip_id, b).unwrap_or(u64::MAX)
                    })
                else {
                    return Err(NoFtlError::Internal("free list emptied during allocation"));
                };
                let block = state.free_blocks.swap_remove(idx);
                state.blocks[block as usize].write_cursor = 1;
                state.active = Some(block);
                return Ok(Ppa::new(state.chip, block, self.usable_pages[0]));
            }
        }
        Err(NoFtlError::DeviceFull { region: self.spec.name.clone() })
    }

    /// Garbage collection runs on a chip once its free blocks drop below
    /// this many, and a region must leave every chip one spare block more.
    const GC_LOW_WATERMARK: usize = 2;

    /// Run greedy garbage collection on one chip until it holds
    /// [`Self::GC_LOW_WATERMARK`] free blocks (or no reclaimable victim remains).
    fn garbage_collect_chip(&mut self, dev: &mut FlashDevice, local: usize) -> Result<()> {
        let per_block = self.usable_pages.len() as u32;
        while self.chips[local].free_blocks.len() < Self::GC_LOW_WATERMARK {
            let Some(victim) = self.select_victim(dev, local, per_block) else {
                return Ok(()); // nothing reclaimable; allocation may still succeed
            };
            self.collect_block(dev, local, victim, Collector::Gc)?;
        }
        Ok(())
    }

    /// Greedy victim selection: the fully-written, non-active, non-retired
    /// block with the fewest valid pages — and strictly fewer than a full
    /// block, so every collection reclaims space. Blocks already being
    /// collected by an enclosing collection are excluded (see
    /// [`BlockInfo::collecting`]). The device is asked about retirement
    /// last, only for blocks that pass the in-struct tests.
    fn select_victim(&self, dev: &FlashDevice, local: usize, per_block: u32) -> Option<u32> {
        let state = &self.chips[local];
        state
            .blocks
            .iter()
            .enumerate()
            .filter(|(b, info)| {
                info.write_cursor == per_block as usize
                    && info.valid_count < per_block
                    && !info.collecting
                    && Some(*b as u32) != state.active
                    && !dev.is_block_retired(state.chip, *b as u32).unwrap_or(true)
            })
            .min_by_key(|(_, info)| info.valid_count)
            .map(|(b, _)| b as u32)
    }

    /// Migrate the victim's valid pages and erase it, counting the moves
    /// and the erase for `by`.
    ///
    /// The victim is flagged as being collected for the whole migration so
    /// the nested garbage collection reachable through `program_healed`
    /// (a migration write faulting permanently retires its target block
    /// and refills the free pool) can never re-select it — a re-entrant
    /// collection of the same block would erase it under the outer loop,
    /// push a duplicate free-list entry and resurrect stale data.
    fn collect_block(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        victim: u32,
        by: Collector,
    ) -> Result<()> {
        // One GC episode = one causal span, nested under whatever host
        // span (flush, transaction) triggered the collection.
        dev.in_span(SpanCategory::Gc, dev.current_span(), |dev, _| {
            self.chips[local].blocks[victim as usize].collecting = true;
            let result = self.collect_block_guarded(dev, local, victim, by);
            self.chips[local].blocks[victim as usize].collecting = false;
            result
        })
    }

    /// Body of [`Region::collect_block`], running under the `collecting`
    /// guard on the victim.
    ///
    /// The reads are issued as one queued batch before any program is
    /// submitted, so on multi-chip devices a collection overlaps with host
    /// work queued on other chips instead of interleaving read/program
    /// round trips.
    fn collect_block_guarded(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        victim: u32,
        by: Collector,
    ) -> Result<()> {
        let chip = self.chips[local].chip;
        let mut plan = std::mem::take(&mut self.gc_scratch.plan);
        let mut batch = std::mem::take(&mut self.gc_scratch.batch);
        let migrated = self.migrate_valid_pages(dev, local, victim, by, &mut plan, &mut batch);
        plan.clear();
        batch.clear();
        self.gc_scratch.plan = plan;
        self.gc_scratch.batch = batch;
        migrated?;
        // Re-verify under the guard before reclaiming: the nested activity
        // above must not have retired or freed the victim. With the
        // `collecting` exclusion this cannot happen — the check keeps the
        // erase/free-list push from ever double-freeing if it somehow does.
        if dev.is_block_retired(chip, victim)?
            || self.chips[local].blocks[victim as usize].write_cursor == 0
        {
            return Ok(());
        }
        let erase = IoCtx { region: Some(self.id), ..IoCtx::background() };
        match dev.submit_erase(chip, victim, erase).and_then(|id| dev.complete(id)) {
            Ok(_) => {
                let info = &mut self.chips[local].blocks[victim as usize];
                info.valid_count = 0;
                info.write_cursor = 0;
                self.chips[local].free_blocks.push(victim);
                *by.erases(&mut self.stats) += 1;
            }
            // Erase-status failure grows the victim bad. Its valid pages
            // were already migrated, so retiring it loses nothing; the GC
            // loop reselects another victim (retired blocks are excluded).
            Err(FlashError::EraseFailed { .. } | FlashError::BlockRetired { .. }) => {
                self.retire_block_bookkeeping(dev, local, victim)?;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Move every valid page of the victim elsewhere, in the two (empty)
    /// scratch vectors of the collection.
    fn migrate_valid_pages(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        victim: u32,
        by: Collector,
        plan: &mut Vec<(u32, u64)>,
        batch: &mut Vec<(u32, u64, CmdId)>,
    ) -> Result<()> {
        // Plan the moves from the victim's logical owners, in page order,
        // before any device command is in flight.
        let owners = self.block_owners(local, victim).iter();
        plan.extend(owners.enumerate().filter_map(|(page, &lba)| Some((page as u32, lba?))));
        self.submit_gc_reads(dev, local, victim, plan, batch)?;
        self.drain_completions(dev, local, victim, by, batch)
    }

    /// Queue the GC's copy-back reads as one burst, so on multi-chip
    /// devices a collection overlaps with host work queued on other chips
    /// instead of interleaving read/program round trips. If a submit fails
    /// mid-batch the reads already queued are completed (best-effort)
    /// before the error surfaces — nothing stays stuck on the device queue.
    fn submit_gc_reads(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        victim: u32,
        plan: &[(u32, u64)],
        batch: &mut Vec<(u32, u64, CmdId)>,
    ) -> Result<()> {
        let chip = self.chips[local].chip;
        for &(page, lba) in plan {
            let ctx = self.attributed(IoCtx::background(), Lba(lba));
            match dev.submit_copyback_read(Ppa::new(chip, victim, page), ctx) {
                Ok(id) => batch.push((page, lba, id)),
                Err(e) => {
                    for &(_, _, id) in batch.iter() {
                        if dev.complete(id).is_err() {
                            self.stats.gc_drain_failures += 1;
                        }
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Complete the queued copy-back reads, migrating each page as its read
    /// arrives. On the first migration error the remaining in-flight reads
    /// are still completed (best-effort, failures counted in
    /// `gc_drain_failures`) before the error propagates, so an aborted
    /// collection leaves no command stranded in the device queues.
    fn drain_completions(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        victim: u32,
        by: Collector,
        batch: &[(u32, u64, CmdId)],
    ) -> Result<()> {
        let chip = self.chips[local].chip;
        let mut first_err: Option<NoFtlError> = None;
        let mut pages = batch.iter().copied();
        for (page, lba, id) in pages.by_ref() {
            let old = Ppa::new(chip, victim, page);
            if let Err(e) = self.migrate_page(dev, local, old, lba, id, by) {
                first_err = Some(e);
                break;
            }
        }
        for (_, _, id) in pages {
            if dev.complete(id).is_err() {
                self.stats.gc_drain_failures += 1;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Move valid page `old` of local chip `local`, whose copy-back read is
    /// already queued as `id`: complete the read, copy-back program the
    /// page through the healed path — its buffer and OOB bytes (ECC codes
    /// stay with the data) move to the new page — update the mapping and
    /// count the move for `by`. A faulted program leaves the source as it
    /// was, so the retry or the remapped write moves the same page, and an
    /// aborted collection leaves it mapped and readable.
    fn migrate_page(
        &mut self,
        dev: &mut FlashDevice,
        local: usize,
        old: Ppa,
        lba: u64,
        id: CmdId,
        by: Collector,
    ) -> Result<()> {
        dev.complete(id)?;
        // Migrations go through the healed program path too: a fault
        // storm must not abort a collection mid-flight.
        let (new, id) =
            self.program_healed(dev, local, Lba(lba), IoCtx::background(), |dev, new, ctx| {
                dev.submit_copyback_program(old, new, ctx)
            })?;
        dev.complete(id)?;
        self.map(dev, Lba(lba), new)?;
        *by.migrations(&mut self.stats) += 1;
        Ok(())
    }

    /// Static wear leveling: if the erase-count spread on a chip exceeds
    /// `threshold`, migrate the data of the least-worn in-use block (cold
    /// data) so that block rejoins the allocation pool. Returns the number
    /// of blocks relocated.
    pub(crate) fn wear_level(&mut self, dev: &mut FlashDevice, threshold: u64) -> Result<u32> {
        let mut moved = 0;
        for local in 0..self.chips.len() {
            let chip = self.chips[local].chip;
            let counts: Vec<u64> = (0..self.chips[local].blocks.len() as u32)
                .map(|b| dev.block_erase_count(chip, b).unwrap_or(0))
                .collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let cold = self.chips[local]
                .blocks
                .iter()
                .enumerate()
                .filter(|(b, info)| {
                    info.write_cursor != 0
                        && !info.collecting
                        && Some(*b as u32) != self.chips[local].active
                        && max.saturating_sub(counts[*b]) > threshold
                        && !dev.is_block_retired(chip, *b as u32).unwrap_or(true)
                })
                .min_by_key(|(b, _)| counts[*b])
                .map(|(b, _)| b as u32);
            if let Some(block) = cold {
                self.collect_block(dev, local, block, Collector::WearLevel)?;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Number of mapped logical pages: a count of `l2p`, off the hot paths.
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.l2p.iter().filter(|ppa| ppa.is_some()).count() as u64
    }
}

/// Whom a block collection works for: the counters its page moves and its
/// erase go to. A collection nested in another (a permanent program fault
/// on a migration write runs one to make room) is garbage collection, even
/// inside wear leveling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Collector {
    Gc,
    WearLevel,
}

impl Collector {
    fn migrations(self, stats: &mut RegionStats) -> &mut u64 {
        match self {
            Collector::Gc => &mut stats.gc_page_migrations,
            Collector::WearLevel => &mut stats.wear_level_migrations,
        }
    }

    fn erases(self, stats: &mut RegionStats) -> &mut u64 {
        match self {
            Collector::Gc => &mut stats.gc_erases,
            Collector::WearLevel => &mut stats.wear_level_erases,
        }
    }
}

/// Copy `bytes` over `area` (of page `ppa`) at `offset`, range-checked.
fn overlay(area: &mut [u8], ppa: Ppa, offset: usize, bytes: &[u8]) -> Result<()> {
    let (len, size) = (bytes.len(), area.len());
    let cells = offset
        .checked_add(len)
        .and_then(|end| area.get_mut(offset..end))
        .ok_or(FlashError::RangeOutOfPage { ppa, offset, len, area: size })?;
    cells.copy_from_slice(bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::{CellType, Counters, FaultOp, FaultPlan, FlashConfig};

    fn small_region(mode: IpaMode, cell: CellType) -> (FlashDevice, Region) {
        small_region_with(mode, cell, FaultPlan::default(), FaultPolicy::default())
    }

    fn small_region_with(
        mode: IpaMode,
        cell: CellType,
        plan: FaultPlan,
        policy: FaultPolicy,
    ) -> (FlashDevice, Region) {
        small_region_on(small_config(cell, plan), mode, policy)
    }

    /// The device of [`small_region_with`]: 2 chips × 16 blocks × 8 pages
    /// of 256 bytes.
    fn small_config(cell: CellType, plan: FaultPlan) -> FlashConfig {
        let mut cfg = FlashConfig::small_slc();
        cfg.geometry.chips = 2;
        cfg.geometry.blocks_per_chip = 16;
        cfg.geometry.pages_per_block = 8;
        cfg.geometry.page_size = 256;
        cfg.geometry.cell_type = cell;
        cfg.fault = plan;
        cfg
    }

    fn small_region_on(
        cfg: FlashConfig,
        mode: IpaMode,
        policy: FaultPolicy,
    ) -> (FlashDevice, Region) {
        let dev = FlashDevice::new(cfg);
        let spec = RegionSpec::new("t", [0, 1], mode, 0.3);
        let region = Region::new(0, spec, &dev, policy).unwrap();
        (dev, region)
    }

    fn page(byte: u8) -> Vec<u8> {
        let mut v = vec![0xFF; 256];
        v[..128].fill(byte);
        v
    }

    /// Decorrelated pseudo-random membership test: roughly one third of
    /// the lbas per round, with no residue-class structure that could
    /// keep physical blocks homogeneous.
    fn in_round(lba: u64, round: u64) -> bool {
        let x =
            (lba ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x >> 33).is_multiple_of(3)
    }

    #[test]
    fn capacity_respects_op_and_mode() {
        let (_, r) = small_region(IpaMode::Slc, CellType::Slc);
        // 2 chips * 16 blocks * 8 pages = 256 total, 30% OP -> 179.
        assert_eq!(r.capacity(), 179);
        let (_, r) = small_region(IpaMode::PSlc, CellType::Mlc);
        // pSLC halves usable pages: 128 total -> 89.
        assert_eq!(r.capacity(), 89);
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        r.write(&mut dev, Lba(5), &page(0xAA), IoCtx::host()).unwrap();
        let (data, _) = r.read(&mut dev, Lba(5), IoCtx::host()).unwrap();
        assert_eq!(data, page(0xAA));
        assert_eq!(r.stats.host_page_writes, 1);
        assert_eq!(r.stats.host_reads, 1);
        assert_eq!(r.mapped_pages(), 1);
    }

    #[test]
    fn unmapped_and_out_of_range_reads_fail() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        assert!(matches!(r.read(&mut dev, Lba(5), IoCtx::host()), Err(NoFtlError::Unmapped(_))));
        assert!(matches!(
            r.read(&mut dev, Lba(100_000), IoCtx::host()),
            Err(NoFtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn overwrite_invalidates_old_residency() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        r.write(&mut dev, Lba(1), &page(1), IoCtx::host()).unwrap();
        r.write(&mut dev, Lba(1), &page(2), IoCtx::host()).unwrap();
        let (data, _) = r.read(&mut dev, Lba(1), IoCtx::host()).unwrap();
        assert_eq!(data, page(2));
        assert_eq!(r.mapped_pages(), 1);
    }

    #[test]
    fn write_delta_appends_in_place() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        r.write(&mut dev, Lba(3), &page(0x0F), IoCtx::host()).unwrap();
        assert!(r.can_append(&dev, Lba(3)));
        r.write_delta(&mut dev, Lba(3), 200, &[0x12, 0x34], IoCtx::host()).unwrap();
        let (data, _) = r.read(&mut dev, Lba(3), IoCtx::host()).unwrap();
        assert_eq!(&data[200..202], &[0x12, 0x34]);
        assert_eq!(r.stats.host_delta_writes, 1);
        assert_eq!(r.stats.delta_bytes, 2);
        // Delta writes do not remap.
        assert_eq!(r.mapped_pages(), 1);
    }

    #[test]
    fn delta_to_unmapped_page_fails() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        assert!(matches!(
            r.write_delta(&mut dev, Lba(3), 0, &[0], IoCtx::host()),
            Err(NoFtlError::Unmapped(_))
        ));
        assert!(!r.can_append(&dev, Lba(3)));
    }

    #[test]
    fn none_mode_rejects_deltas() {
        let (mut dev, mut r) = small_region(IpaMode::None, CellType::Slc);
        r.write(&mut dev, Lba(0), &page(1), IoCtx::host()).unwrap();
        assert!(!r.can_append(&dev, Lba(0)));
        assert!(matches!(
            r.write_delta(&mut dev, Lba(0), 0, &[0], IoCtx::host()),
            Err(NoFtlError::AppendNotAllowed { .. })
        ));
    }

    #[test]
    fn pslc_uses_only_lsb_pages() {
        let (mut dev, mut r) = small_region(IpaMode::PSlc, CellType::Mlc);
        for i in 0..20 {
            r.write(&mut dev, Lba(i), &page(i as u8), IoCtx::host()).unwrap();
        }
        // Every mapped residency must be an LSB page.
        for i in 0..20 {
            let ppa = r.l2p[i as usize].unwrap();
            assert_eq!(dev.page_kind(ppa), PageKind::Lsb);
            assert!(r.can_append(&dev, Lba(i)));
        }
    }

    #[test]
    fn odd_mlc_appends_only_on_lsb_residency() {
        let (mut dev, mut r) = small_region(IpaMode::OddMlc, CellType::Mlc);
        for i in 0..8 {
            r.write(&mut dev, Lba(i), &page(i as u8), IoCtx::host()).unwrap();
        }
        let mut lsb = 0;
        let mut msb = 0;
        for i in 0..8u64 {
            let ppa = r.l2p[i as usize].unwrap();
            match dev.page_kind(ppa) {
                PageKind::Lsb => {
                    assert!(r.can_append(&dev, Lba(i)));
                    lsb += 1;
                }
                PageKind::Msb => {
                    assert!(!r.can_append(&dev, Lba(i)));
                    assert!(matches!(
                        r.write_delta(&mut dev, Lba(i), 0, &[0], IoCtx::host()),
                        Err(NoFtlError::AppendNotAllowed { .. })
                    ));
                    msb += 1;
                }
            }
        }
        // Sequential allocation over full MLC capacity alternates kinds.
        assert!(lsb > 0 && msb > 0);
    }

    #[test]
    fn gc_reclaims_space_under_update_load() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        // Interleaved invalidation: each round rewrites every third page,
        // so physical blocks end up partially valid and victims carry live
        // data the collector must migrate.
        let mut latest = [0u8; 120];
        for (lba, version) in latest.iter().enumerate() {
            r.write(&mut dev, Lba(lba as u64), &page(*version), IoCtx::host()).unwrap();
        }
        for round in 1..=60u64 {
            for lba in 0..120u64 {
                if in_round(lba, round) {
                    latest[lba as usize] = round as u8;
                    r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                }
            }
        }
        assert!(r.stats.gc_erases > 0, "GC must have run");
        assert!(r.stats.gc_page_migrations > 0, "interleaving must force live-page migrations");
        // All logical pages still readable with latest content.
        for lba in 0..120u64 {
            let (data, _) = r.read(&mut dev, Lba(lba), IoCtx::host()).unwrap();
            assert_eq!(data, page(latest[lba as usize]), "lba {lba}");
        }
    }

    #[test]
    fn trim_unmaps_and_frees() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        r.write(&mut dev, Lba(7), &page(7), IoCtx::host()).unwrap();
        r.trim(&mut dev, Lba(7)).unwrap();
        assert!(!r.is_mapped(Lba(7)));
        assert!(matches!(r.read(&mut dev, Lba(7), IoCtx::host()), Err(NoFtlError::Unmapped(_))));
        assert_eq!(r.stats.trims, 1);
        // Trimming an unmapped page is a no-op.
        r.trim(&mut dev, Lba(7)).unwrap();
        assert_eq!(r.stats.trims, 1);
    }

    impl Region {
        /// An out-of-place write with no OOB write, completed.
        fn write(
            &mut self,
            dev: &mut FlashDevice,
            lba: Lba,
            data: &[u8],
            ctx: IoCtx,
        ) -> Result<OpResult> {
            let id = self.submit_write(dev, lba, data, &[], ctx)?;
            Ok(dev.complete(id)?.result)
        }

        /// A `write_delta` with no OOB write, completed.
        fn write_delta(
            &mut self,
            dev: &mut FlashDevice,
            lba: Lba,
            offset: usize,
            data: &[u8],
            ctx: IoCtx,
        ) -> Result<OpResult> {
            let id = self.submit_write_delta(dev, lba, offset, data, &[], ctx)?;
            Ok(dev.complete(id)?.result)
        }
    }

    /// An out-of-place write carrying OOB writes, completed.
    fn write_with_oob(
        r: &mut Region,
        dev: &mut FlashDevice,
        lba: Lba,
        data: &[u8],
        oob: &[(usize, &[u8])],
    ) -> Result<()> {
        let id = r.submit_write(dev, lba, data, oob, IoCtx::host())?;
        dev.complete(id)?;
        Ok(())
    }

    #[test]
    fn oob_roundtrip_through_region() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        write_with_oob(&mut r, &mut dev, Lba(2), &page(2), &[(16, &[0xCA, 0xFE])]).unwrap();
        let oob = r.read_oob(&dev, Lba(2)).unwrap();
        assert_eq!(&oob[16..18], &[0xCA, 0xFE]);
        // An append carries its own OOB writes to the same residency.
        let id =
            r.submit_write_delta(&mut dev, Lba(2), 200, &[0x12], &[(24, &[0x5A])], IoCtx::host());
        dev.complete(id.unwrap()).unwrap();
        let oob = r.read_oob(&dev, Lba(2)).unwrap();
        assert_eq!((&oob[16..18], oob[24]), (&[0xCA, 0xFE][..], 0x5A));
    }

    #[test]
    fn migration_preserves_oob_and_data() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        write_with_oob(&mut r, &mut dev, Lba(0), &page(9), &[(20, &[0xBE, 0xEF])]).unwrap();
        // Interleaved churn so blocks (including the one holding Lba 0)
        // become partially-valid GC victims.
        for lba in 1..120u64 {
            r.write(&mut dev, Lba(lba), &page(lba as u8), IoCtx::host()).unwrap();
        }
        for round in 1..=80u64 {
            for lba in 1..120u64 {
                if in_round(lba, round) {
                    r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                }
            }
        }
        // Ensure relocation even if GC victims happened to skip Lba 0's
        // block: force a wear-leveling pass.
        r.wear_level(&mut dev, 0).unwrap();
        assert!(r.stats.gc_page_migrations + r.stats.wear_level_migrations > 0);
        let oob = r.read_oob(&dev, Lba(0)).unwrap();
        assert_eq!(&oob[20..22], &[0xBE, 0xEF]);
        let (data, _) = r.read(&mut dev, Lba(0), IoCtx::host()).unwrap();
        assert_eq!(data, page(9));
    }

    #[test]
    fn device_full_when_overcommitted() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        // Fill every logical page: capacity 179 of 256 physical; fine.
        for lba in 0..r.capacity() {
            r.write(&mut dev, Lba(lba), &page(lba as u8), IoCtx::host()).unwrap();
        }
        // Keep updating — GC must keep up indefinitely.
        for round in 0..5 {
            for lba in 0..r.capacity() {
                r.write(&mut dev, Lba(lba), &page((round * 7 + lba) as u8), IoCtx::host()).unwrap();
            }
        }
        assert!(r.chips.iter().any(|c| !c.free_blocks.is_empty()));
        assert_region_invariants(&r, &dev);
    }

    #[test]
    fn transient_program_fault_is_retried_in_place() {
        let plan = FaultPlan::default().with_scripted(FaultOp::Program, 0, false);
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        r.write(&mut dev, Lba(5), &page(0xAB), IoCtx::host()).unwrap();
        assert_eq!(r.stats.program_retries, 1);
        assert_eq!(dev.stats().retired_blocks, 0);
        assert_eq!(r.stats.host_page_writes, 1);
        let (data, _) = r.read(&mut dev, Lba(5), IoCtx::host()).unwrap();
        assert_eq!(data, page(0xAB));
    }

    #[test]
    fn spent_retry_budget_retires_block_and_remaps() {
        // Two consecutive transient failures against a budget of one retry:
        // the block is retired and the write lands on a fresh allocation.
        let plan = FaultPlan::default().with_scripted(FaultOp::Program, 0, false).with_scripted(
            FaultOp::Program,
            1,
            false,
        );
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        write_with_oob(&mut r, &mut dev, Lba(5), &page(0xCD), &[(16, &[0xCA, 0xFE])]).unwrap();
        assert_eq!(r.stats.program_retries, 1);
        assert_eq!(dev.stats().retired_blocks, 1);
        let ppa = r.l2p[5].unwrap();
        assert!(!dev.is_block_retired(ppa.chip, ppa.block).unwrap());
        // The OOB writes landed once, with the program that took.
        assert_eq!(&r.read_oob(&dev, Lba(5)).unwrap()[16..18], &[0xCA, 0xFE]);
        // Exactly one block carries the device's bad-block marker.
        let retired: Vec<(u32, u32)> = (0..2)
            .flat_map(|c| (0..16).map(move |b| (c, b)))
            .filter(|&(c, b)| dev.is_block_retired(c, b).unwrap())
            .collect();
        assert_eq!(retired.len(), 1);
        let (rc, rb) = retired[0];
        let faulted = Ppa::new(rc, rb, 0);
        assert_eq!(dev.page_state(faulted).unwrap(), PageState::Erased);
        assert!(dev.read_oob(faulted).unwrap().iter().all(|&b| b == 0xFF));
        let (data, _) = r.read(&mut dev, Lba(5), IoCtx::host()).unwrap();
        assert_eq!(data, page(0xCD));
    }

    #[test]
    fn permanent_program_fault_retires_without_retry() {
        let plan = FaultPlan::default().with_scripted(FaultOp::Program, 0, true);
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        r.write(&mut dev, Lba(0), &page(0x11), IoCtx::host()).unwrap();
        assert_eq!(r.stats.program_retries, 0);
        assert_eq!(dev.stats().retired_blocks, 1);
        let (data, _) = r.read(&mut dev, Lba(0), IoCtx::host()).unwrap();
        assert_eq!(data, page(0x11));
        // The region keeps allocating around the bad block indefinitely.
        for lba in 1..60u64 {
            r.write(&mut dev, Lba(lba), &page(lba as u8), IoCtx::host()).unwrap();
        }
        assert_eq!(dev.stats().retired_blocks, 1);
    }

    #[test]
    fn delta_fault_falls_back_to_out_of_place_write() {
        let plan = FaultPlan::default().with_scripted(FaultOp::DeltaProgram, 0, false);
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        write_with_oob(&mut r, &mut dev, Lba(3), &page(0x0F), &[(16, &[0xCA, 0xFE])]).unwrap();
        let before = r.l2p[3].unwrap();
        let code: &[(usize, &[u8])] = &[(24, &[0x5A; 8])];
        let id = r.submit_write_delta(&mut dev, Lba(3), 200, &[0x12, 0x34], code, IoCtx::host());
        dev.complete(id.unwrap()).unwrap();
        // The append failed and was served as a full out-of-place write:
        // new residency, merged contents, no delta counted.
        let after = r.l2p[3].unwrap();
        assert_ne!(before, after);
        assert_eq!(r.stats.delta_fallbacks, 1);
        assert_eq!(r.stats.host_delta_writes, 0);
        assert_eq!(r.stats.host_page_writes, 2);
        assert_eq!(r.mapped_pages(), 1);
        let (data, _) = r.read(&mut dev, Lba(3), IoCtx::host()).unwrap();
        let mut expect = page(0x0F);
        expect[200..202].copy_from_slice(&[0x12, 0x34]);
        assert_eq!(data, expect);
        // One program wrote the old page's OOB with the append's laid over.
        let oob = r.read_oob(&dev, Lba(3)).unwrap();
        assert_eq!((&oob[16..18], &oob[24..32]), (&[0xCA, 0xFE][..], &[0x5A; 8][..]));
        // The fresh residency accepts appends again (fault was one-shot).
        assert!(r.can_append(&dev, Lba(3)));
        r.write_delta(&mut dev, Lba(3), 202, &[0x56], IoCtx::host()).unwrap();
        assert_eq!(r.stats.host_delta_writes, 1);
        assert_eq!(r.stats.delta_fallbacks, 1);
    }

    #[test]
    fn a_delta_fallback_whose_collection_moves_the_old_page_leaves_no_second_copy() {
        // The append faults on a page whose block is the victim of the
        // collection the fallback runs: the fallback reads the page, the
        // collection moves it, and the fallback programs a third page.
        // Only that one may stay mapped.
        let plan = FaultPlan::default().with_scripted(FaultOp::DeltaProgram, 0, false);
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        let per_block = r.usable_pages.len() as u32;
        let mut latest = [0u8; 120];
        let mut target = None;
        'churn: for round in 0..=60u64 {
            for lba in 0..120u64 {
                if round > 0 && !in_round(lba, round) {
                    continue;
                }
                latest[lba as usize] = round as u8;
                r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                // The chip the next write collects on, once its collection
                // is due, and a valid page of the victim it will pick.
                let local = r.rr % r.chips.len();
                if r.chips[local].free_blocks.len() >= Region::GC_LOW_WATERMARK {
                    continue;
                }
                let Some(victim) = r.select_victim(&dev, local, per_block) else { continue };
                target = r.block_owners(local, victim).iter().find_map(|&lba| lba);
                if target.is_some() {
                    break 'churn;
                }
            }
        }
        let lba = target.expect("the churn must make a collection with a valid page due");
        let migrations = r.stats.gc_page_migrations;
        let code: &[(usize, &[u8])] = &[(24, &[0x5A; 8])];
        let id = r.submit_write_delta(&mut dev, Lba(lba), 200, &[0x12, 0x34], code, IoCtx::host());
        dev.complete(id.unwrap()).unwrap();
        assert_eq!(r.stats.delta_fallbacks, 1);
        assert!(r.stats.gc_page_migrations > migrations, "the collection must move the page");
        assert_region_invariants(&r, &dev);
        let mut expect = page(latest[lba as usize]);
        expect[200..202].copy_from_slice(&[0x12, 0x34]);
        for l in 0..120u64 {
            let (data, _) = r.read(&mut dev, Lba(l), IoCtx::host()).unwrap();
            let want = if l == lba { expect.clone() } else { page(latest[l as usize]) };
            assert_eq!(data, want, "lba {l}");
        }
        assert_eq!(&r.read_oob(&dev, Lba(lba)).unwrap()[24..32], &[0x5A; 8]);
    }

    /// Every cache a region keeps checked against what the mapping and the
    /// device imply — the oracle a power-on rebuild of the mapping from the
    /// OOB must meet. A double-collected victim breaks it with a duplicate
    /// free-list entry, a free block still holding valid pages, or orphan
    /// p2l entries (two physical copies mapped for one LBA).
    fn assert_region_invariants(r: &Region, dev: &FlashDevice) {
        let per_block = r.usable_pages.len();
        for (local, state) in r.chips.iter().enumerate() {
            let retired = |b: u32| dev.is_block_retired(state.chip, b).unwrap();
            let mut free = state.free_blocks.clone();
            free.sort_unstable();
            let len = free.len();
            free.dedup();
            assert_eq!(free.len(), len, "duplicate free-list entry on chip {local}");
            let erased: Vec<u32> = (0..r.blocks_per_chip as u32)
                .filter(|&b| state.blocks[b as usize].write_cursor == 0 && !retired(b))
                .collect();
            assert_eq!(free, erased, "free list is not the erased, unretired blocks");
            if let Some(active) = state.active {
                assert!(!retired(active), "retired block {active} is active");
                assert_ne!(state.blocks[active as usize].write_cursor, 0, "active block unopened");
            }
            let partial: Vec<u32> = (0..r.blocks_per_chip as u32)
                .filter(|&b| {
                    let cursor = state.blocks[b as usize].write_cursor;
                    0 < cursor && cursor < per_block && !retired(b)
                })
                .collect();
            assert!(partial.len() <= 1, "chip {local} has partly written blocks {partial:?}");
            if let Some(&b) = partial.first() {
                assert_eq!(state.active, Some(b), "partly written block {b} is not active");
            }
            for (b, info) in state.blocks.iter().enumerate() {
                let owners = r.block_owners(local, b as u32);
                let n = owners.iter().filter(|lba| lba.is_some()).count() as u32;
                assert_eq!(info.valid_count, n, "valid_count mismatch on block {b}");
                assert!(info.write_cursor != 0 || n == 0, "unwritten block {b} holds valid pages");
                assert!(!info.collecting, "collecting flag leaked on block {b}");
            }
        }
        let mut mapped = 0;
        for (lba, ppa) in r.l2p.iter().enumerate() {
            if let Some(ppa) = ppa {
                let slot = r.p2l_slot(r.local_chip(ppa.chip).unwrap(), ppa.block, ppa.page);
                assert_eq!(r.p2l[slot], Some(lba as u64), "l2p/p2l disagree for lba {lba}");
                mapped += 1;
            }
        }
        let mut owned = 0;
        for (local, state) in r.chips.iter().enumerate() {
            for block in 0..r.blocks_per_chip as u32 {
                for page in 0..r.pages_per_block as u32 {
                    if let Some(lba) = r.p2l[r.p2l_slot(local, block, page)] {
                        let ppa = Ppa::new(state.chip, block, page);
                        assert_eq!(r.l2p[lba as usize], Some(ppa), "p2l/l2p disagree for {ppa}");
                        owned += 1;
                    }
                }
            }
        }
        assert_eq!(owned, mapped, "orphan p2l entries (duplicate physical copies)");
    }

    #[test]
    fn nested_gc_during_migration_fault_never_double_collects_the_victim() {
        // A permanent program fault on a GC *migration* write makes
        // `program_healed` retire the faulted block and run a nested
        // `garbage_collect_chip` while the outer victim is mid-collection.
        // The nested pass must not re-select that victim: double-collecting
        // erases it under the outer loop, pushes a duplicate free-list
        // entry and leaves stale duplicate p2l copies that later resurrect
        // old data.
        //
        // Discovery pass (no faults): find the per-class program index of
        // the first GC migration write. GC runs before the host program of
        // the triggering write, so the first program op inside that write
        // is the first migration.
        let churn = |dev: &mut FlashDevice,
                     r: &mut Region,
                     latest: &mut [u8; 120],
                     rounds: u64,
                     stop_at_first_migration: bool|
         -> Option<u64> {
            for round in 0..=rounds {
                for lba in 0..120u64 {
                    if round == 0 || in_round(lba, round) {
                        let before = dev.stats().host_programs + dev.stats().gc_programs;
                        latest[lba as usize] = round as u8;
                        r.write(dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                        if stop_at_first_migration && r.stats.gc_page_migrations > 0 {
                            return Some(before);
                        }
                    }
                }
            }
            None
        };
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        let mut latest = [0u8; 120];
        let nth = churn(&mut dev, &mut r, &mut latest, 60, true)
            .expect("churn must trigger a GC migration");

        // Faulted pass: the same deterministic workload, with the first
        // migration program failing permanently.
        let plan = FaultPlan::default().with_scripted(FaultOp::Program, nth, true);
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        let mut latest = [0u8; 120];
        churn(&mut dev, &mut r, &mut latest, 40, false);
        assert!(dev.stats().retired_blocks >= 1, "the scripted fault must retire a block");
        assert!(r.stats.gc_erases > 0, "collection must survive the nested pass");
        assert_region_invariants(&r, &dev);
        for lba in 0..120u64 {
            let (data, _) = r.read(&mut dev, Lba(lba), IoCtx::host()).unwrap();
            assert_eq!(data, page(latest[lba as usize]), "lba {lba}");
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "pins where the migrated bytes live")]
    fn gc_migration_moves_the_page_buffer_instead_of_copying_it() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        r.write(&mut dev, Lba(0), &page(9), IoCtx::host()).unwrap();
        let before = r.l2p[0].unwrap();
        let buffer = dev.peek(before).unwrap().as_ptr();
        // Churn every other page until a collection moves Lba 0, and stop
        // at that first move: after an erase, a copying collection could
        // get the same allocation back from the spare list by chance.
        'churn: for round in 0..=80u64 {
            for lba in 1..120u64 {
                if round == 0 || in_round(lba, round) {
                    r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                    if r.l2p[0] != Some(before) {
                        break 'churn;
                    }
                }
            }
        }
        let after = r.l2p[0].unwrap();
        assert_ne!(after, before, "the churn must migrate Lba 0");
        assert_eq!(dev.peek(after).unwrap().as_ptr(), buffer, "the buffer moved, no copy");
        assert_eq!(dev.peek(after).unwrap(), &page(9)[..]);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "pins which buffer a program lands in")]
    fn a_remap_hands_the_superseded_buffer_to_the_next_program() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        write_with_oob(&mut r, &mut dev, Lba(1), &page(1), &[(16, &[0xCA, 0xFE])]).unwrap();
        let first = r.l2p[1].unwrap();
        let released = dev.peek(first).unwrap().as_ptr();
        r.write(&mut dev, Lba(1), &page(2), IoCtx::host()).unwrap();
        // The superseded copy gave its bytes up and kept its OOB.
        assert_eq!(dev.page_state(first).unwrap(), PageState::Stale { appends: 0 });
        assert_eq!(dev.peek(first).unwrap_err(), FlashError::PageStale(first));
        assert_eq!(&dev.read_oob(first).unwrap()[16..18], &[0xCA, 0xFE]);
        // The next program, of another page, lands in the released buffer.
        r.write(&mut dev, Lba(2), &page(3), IoCtx::host()).unwrap();
        assert_eq!(dev.peek(r.l2p[2].unwrap()).unwrap().as_ptr(), released);
        // A trim lets go the same way.
        let trimmed = r.l2p[2].unwrap();
        r.trim(&mut dev, Lba(2)).unwrap();
        assert_eq!(dev.page_state(trimmed).unwrap(), PageState::Stale { appends: 0 });
        let (data, _) = r.read(&mut dev, Lba(1), IoCtx::host()).unwrap();
        assert_eq!(data, page(2));
    }

    #[test]
    fn a_collection_aborted_by_program_faults_loses_no_lba() {
        // Discovery pass (no faults): the program index of the first GC
        // migration, as in the nested-GC test above.
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        let mut nth = None;
        'find: for round in 0..=60u64 {
            for lba in 0..120u64 {
                if round == 0 || in_round(lba, round) {
                    let before = dev.stats().host_programs + dev.stats().gc_programs;
                    r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                    if r.stats.gc_page_migrations > 0 {
                        nth = Some(before);
                        break 'find;
                    }
                }
            }
        }
        let nth = nth.expect("churn must trigger a GC migration");
        // Faulted pass: the first migration fails transiently twice (the
        // retry is spent, the target block retired mid-collection), then
        // every program fails permanently until no block is left to take
        // the page and the collection gives up.
        let mut plan = FaultPlan::default()
            .with_scripted(FaultOp::Program, nth, false)
            .with_scripted(FaultOp::Program, nth + 1, false);
        for n in nth + 2..nth + 200 {
            plan = plan.with_scripted(FaultOp::Program, n, true);
        }
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        let mut latest = [0u8; 120];
        let mut aborted = None;
        'churn: for round in 0..=60u64 {
            for lba in 0..120u64 {
                if round == 0 || in_round(lba, round) {
                    match r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()) {
                        Ok(_) => latest[lba as usize] = round as u8,
                        Err(e) => {
                            aborted = Some(e);
                            break 'churn;
                        }
                    }
                }
            }
        }
        assert!(matches!(aborted, Some(NoFtlError::DeviceFull { .. })), "{aborted:?}");
        assert_eq!(r.stats.program_retries, 1, "the first migration spent its retry");
        assert!(dev.stats().retired_blocks >= 2, "{} blocks retired", dev.stats().retired_blocks);
        assert_eq!(dev.inflight(), 0, "the aborted collection stranded a command");
        assert_region_invariants(&r, &dev);
        // Every page keeps its residency or moved whole: each of the 120 is
        // mapped and reads back the bytes of its last acknowledged write.
        assert_eq!(r.mapped_pages(), 120);
        for lba in 0..120u64 {
            let (data, _) = r.read(&mut dev, Lba(lba), IoCtx::host()).unwrap();
            assert_eq!(data, page(latest[lba as usize]), "lba {lba}");
        }
    }

    #[test]
    fn gc_erase_fault_retires_victim_and_collection_continues() {
        let plan = FaultPlan::default().with_scripted(FaultOp::Erase, 0, true);
        let (mut dev, mut r) =
            small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
        let mut latest = [0u8; 120];
        for (lba, version) in latest.iter().enumerate() {
            r.write(&mut dev, Lba(lba as u64), &page(*version), IoCtx::host()).unwrap();
        }
        for round in 1..=40u64 {
            for lba in 0..120u64 {
                if in_round(lba, round) {
                    latest[lba as usize] = round as u8;
                    r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                }
            }
        }
        assert_eq!(dev.stats().retired_blocks, 1, "first GC erase must have grown the victim bad");
        assert!(r.stats.gc_erases > 0, "collection must continue past the bad block");
        for lba in 0..120u64 {
            let (data, _) = r.read(&mut dev, Lba(lba), IoCtx::host()).unwrap();
            assert_eq!(data, page(latest[lba as usize]), "lba {lba}");
        }
    }

    #[test]
    fn scrubber_refreshes_heavily_corrected_reads() {
        let mut cfg = FlashConfig::small_slc();
        cfg.geometry.chips = 2;
        cfg.geometry.blocks_per_chip = 16;
        cfg.geometry.pages_per_block = 8;
        cfg.geometry.page_size = 256;
        cfg.reliability.ecc_correctable_bits = 4;
        let mut dev = FlashDevice::new(cfg);
        let spec = RegionSpec::new("t", [0, 1], IpaMode::Slc, 0.3);
        let policy = FaultPolicy { scrub_threshold: 0.5, ..FaultPolicy::default() };
        let mut r = Region::new(0, spec, &dev, policy).unwrap();
        r.write(&mut dev, Lba(2), &page(0x77), IoCtx::host()).unwrap();
        let ppa = r.l2p[2].unwrap();
        // One corrected bit: below 0.5 * 4 — no refresh.
        dev.inject_retention(ppa, &[9]).unwrap();
        r.read(&mut dev, Lba(2), IoCtx::host()).unwrap();
        assert_eq!(r.stats.scrub_refreshes, 0);
        // Two corrected bits reach the threshold: refresh is scheduled and
        // clears the retention errors.
        dev.inject_retention(ppa, &[10]).unwrap();
        let (_, op) = r.read(&mut dev, Lba(2), IoCtx::host()).unwrap();
        assert_eq!(op.read_outcome, ReadOutcome::Corrected { corrected: 2 });
        assert_eq!(r.stats.scrub_refreshes, 1);
        let (_, op) = r.read(&mut dev, Lba(2), IoCtx::host()).unwrap();
        assert_eq!(op.read_outcome, ReadOutcome::Clean);
    }

    #[test]
    fn zero_scrub_threshold_disables_the_scrubber() {
        let mut cfg = FlashConfig::small_slc();
        cfg.geometry.chips = 2;
        cfg.geometry.blocks_per_chip = 16;
        cfg.geometry.pages_per_block = 8;
        cfg.geometry.page_size = 256;
        cfg.reliability.ecc_correctable_bits = 4;
        let mut dev = FlashDevice::new(cfg);
        let spec = RegionSpec::new("t", [0, 1], IpaMode::Slc, 0.3);
        let mut r = Region::new(0, spec, &dev, FaultPolicy::default()).unwrap();
        r.write(&mut dev, Lba(2), &page(0x77), IoCtx::host()).unwrap();
        let ppa = r.l2p[2].unwrap();
        dev.inject_retention(ppa, &[9, 10, 11]).unwrap();
        let (_, op) = r.read(&mut dev, Lba(2), IoCtx::host()).unwrap();
        assert_eq!(op.read_outcome, ReadOutcome::Corrected { corrected: 3 });
        assert_eq!(r.stats.scrub_refreshes, 0);
    }

    #[test]
    fn a_collection_nested_in_wear_leveling_counts_as_gc() {
        // Cold data fills block 0 of each chip (the second block opened), so
        // it is never a GC victim and is the first of the least-worn blocks;
        // hot churn elsewhere, then hot writes until chip 0's free list sits
        // below the watermark. A permanent fault on wear leveling's first
        // migration retires the target block, and the nested
        // `garbage_collect_chip` collects.
        let prepare = |plan: FaultPlan| {
            let (mut dev, mut r) =
                small_region_with(IpaMode::Slc, CellType::Slc, plan, FaultPolicy::default());
            for lba in (16..32u64).chain(0..16) {
                let byte = if lba < 16 { 0xCC } else { 0 };
                r.write(&mut dev, Lba(lba), &page(byte), IoCtx::host()).unwrap();
            }
            for round in 0..80u64 {
                for lba in 16..90u64 {
                    r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
                }
            }
            let mut lba = 16;
            while r.chips[0].free_blocks.len() >= Region::GC_LOW_WATERMARK {
                r.write(&mut dev, Lba(lba), &page(0xEE), IoCtx::host()).unwrap();
                lba = if lba == 89 { 16 } else { lba + 1 };
            }
            (dev, r)
        };
        // Discovery pass (no faults): the program index of the first
        // wear-level migration, and the work wear leveling does.
        let (mut dev, mut r) = prepare(FaultPlan::default());
        let nth = dev.stats().host_programs + dev.stats().gc_programs;
        let before = r.stats.clone();
        let moved = r.wear_level(&mut dev, 1).unwrap();
        let clean = r.stats.delta_since(&before);
        assert!(moved > 0 && clean.wear_level_migrations > 0, "wear leveling must move data");
        assert_eq!((clean.gc_erases, clean.gc_page_migrations), (0, 0));

        // Faulted pass: the same workload, that migration failing for good.
        let plan = FaultPlan::default().with_scripted(FaultOp::Program, nth, true);
        let (mut dev, mut r) = prepare(plan);
        let before = r.stats.clone();
        assert_eq!(r.wear_level(&mut dev, 1).unwrap(), moved);
        let faulted = r.stats.delta_since(&before);
        assert_eq!(dev.stats().retired_blocks, 1, "the scripted fault must retire a block");
        assert!(faulted.gc_erases > 0, "the nested collection must run");
        assert_eq!(
            (faulted.wear_level_migrations, faulted.wear_level_erases),
            (clean.wear_level_migrations, clean.wear_level_erases),
            "the nested collection's work was counted as wear leveling"
        );
        assert_region_invariants(&r, &dev);
        for lba in 0..16u64 {
            assert_eq!(r.read(&mut dev, Lba(lba), IoCtx::host()).unwrap().0, page(0xCC));
        }
    }

    #[test]
    fn every_cache_matches_the_mapping_after_every_operation() {
        use rand::Rng;
        const LBAS: usize = 120;
        ipa_flash::for_each_case(48, |rng| {
            let mut plan = FaultPlan::default();
            for _ in 0..rng.gen_range(0..4) {
                plan = plan.with_scripted(FaultOp::Program, rng.gen_range(0..800), rng.gen());
            }
            for _ in 0..rng.gen_range(0..3) {
                plan = plan.with_scripted(FaultOp::DeltaProgram, rng.gen_range(0..120), false);
            }
            for _ in 0..rng.gen_range(0..2) {
                plan = plan.with_scripted(FaultOp::Erase, rng.gen_range(0..40), true);
            }
            // A third of the cases wear blocks out within a few erases: GC
            // and wear leveling then retire worn victims until the region
            // runs out of blocks, which ends the case's operations.
            let mut cfg = small_config(CellType::Slc, plan);
            cfg.endurance_limit = rng.gen_bool(1.0 / 3.0).then(|| rng.gen_range(1..=3));
            let wears_out = cfg.endurance_limit.is_some();
            let (mut dev, mut r) = small_region_on(cfg, IpaMode::Slc, FaultPolicy::default());
            let mut model: Vec<Option<Vec<u8>>> = vec![None; LBAS];
            for _ in 0..if wears_out { 3_000 } else { 600 } {
                let lba = rng.gen_range(0..LBAS);
                let outcome = match rng.gen_range(0..20) {
                    0..=11 => {
                        let image = page(rng.gen());
                        let written = r.write(&mut dev, Lba(lba as u64), &image, IoCtx::host());
                        written.map(|_| model[lba] = Some(image))
                    }
                    12..=16 => {
                        // Eight bytes into a still-erased slot of the page.
                        let at = 128 + 8 * rng.gen_range(0..16usize);
                        let Some(image) = model[lba].as_mut() else { continue };
                        if !r.can_append(&dev, Lba(lba as u64))
                            || image[at..at + 8].iter().any(|&b| b != 0xFF)
                        {
                            continue;
                        }
                        let delta = rng.gen::<u64>().to_le_bytes();
                        let appended =
                            r.write_delta(&mut dev, Lba(lba as u64), at, &delta, IoCtx::host());
                        appended.map(|_| image[at..at + 8].copy_from_slice(&delta))
                    }
                    17..=18 => r.trim(&mut dev, Lba(lba as u64)).map(|()| model[lba] = None),
                    _ => r.wear_level(&mut dev, rng.gen_range(0..3)).map(|_| ()),
                };
                // Checked after a refused operation too: it leaves the caches
                // whole.
                assert_region_invariants(&r, &dev);
                match outcome {
                    Ok(()) => {}
                    Err(NoFtlError::DeviceFull { .. }) if wears_out => break,
                    Err(e) => panic!("{e}"),
                }
            }
            for (lba, image) in model.iter().enumerate() {
                match image {
                    Some(image) => {
                        let (data, _) = r.read(&mut dev, Lba(lba as u64), IoCtx::host()).unwrap();
                        assert_eq!(&data, image, "lba {lba}");
                    }
                    None => assert!(!r.is_mapped(Lba(lba as u64)), "lba {lba}"),
                }
            }
            assert_eq!(dev.inflight(), 0);
        });
    }

    #[test]
    fn wear_leveling_relocates_cold_block() {
        let (mut dev, mut r) = small_region(IpaMode::Slc, CellType::Slc);
        // Cold data: written once, never updated.
        for lba in 0..8u64 {
            r.write(&mut dev, Lba(lba), &page(0xCC), IoCtx::host()).unwrap();
        }
        // Hot churn elsewhere drives wear on other blocks.
        for round in 0..80u64 {
            for lba in 8..90u64 {
                r.write(&mut dev, Lba(lba), &page(round as u8), IoCtx::host()).unwrap();
            }
        }
        let moved = r.wear_level(&mut dev, 1).unwrap();
        assert!(moved > 0, "cold block should be relocated");
        assert!(r.stats.wear_level_erases > 0);
        for lba in 0..8u64 {
            let (data, _) = r.read(&mut dev, Lba(lba), IoCtx::host()).unwrap();
            assert_eq!(data, page(0xCC));
        }
    }
}
