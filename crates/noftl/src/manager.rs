//! The public NoFTL facade: a flash device plus its regions.

use ipa_flash::{
    CmdId, Completion, Counters, EventKind, FlashDevice, Observer, OpResult, SpanCategory, SpanId,
    WearHistogram,
};

use crate::config::NoFtlConfig;
use crate::error::NoFtlError;
use crate::io::IoCtx;
use crate::region::{Lba, Region};
use crate::stats::{HeatSummary, RegionStats};
use crate::Result;

/// Handle to a region within a [`NoFtl`] device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// DBMS-side flash management: regions over a raw flash device.
///
/// All I/O goes through logical page addresses scoped to a region; the
/// mapping, garbage collection and wear leveling are invisible to callers
/// except through [`RegionStats`].
#[derive(Debug)]
pub struct NoFtl {
    dev: FlashDevice,
    regions: Vec<Region>,
}

impl NoFtl {
    /// Build a device from a validated configuration.
    pub fn new(config: NoFtlConfig) -> Result<Self> {
        config.validate().map_err(NoFtlError::BadConfig)?;
        let dev = FlashDevice::new(config.flash.clone());
        let regions = config
            .regions
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                Region::new(
                    id as u32,
                    spec.clone(),
                    &dev,
                    config.gc_low_watermark,
                    config.fault_policy,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(NoFtl { dev, regions })
    }

    fn region(&self, rid: RegionId) -> Result<&Region> {
        self.regions.get(rid.0).ok_or(NoFtlError::BadRegion(rid.0))
    }

    /// Find a region by name (the DDL handle, e.g. `"rgIPA"`).
    pub fn region_by_name(&self, name: &str) -> Option<RegionId> {
        self.regions.iter().position(|r| r.spec().name == name).map(RegionId)
    }

    /// Number of configured regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Exported logical capacity of a region, in pages.
    pub fn capacity(&self, rid: RegionId) -> Result<u64> {
        Ok(self.region(rid)?.capacity())
    }

    /// Read a logical page synchronously. Pass [`IoCtx::default()`] for a
    /// plain host read, or e.g. [`IoCtx::host_async()`] for cleaner reads.
    pub fn read_page(
        &mut self,
        rid: RegionId,
        lba: Lba,
        ctx: IoCtx,
    ) -> Result<(Vec<u8>, OpResult)> {
        let region = self.regions.get_mut(rid.0).ok_or(NoFtlError::BadRegion(rid.0))?;
        region.read(&mut self.dev, lba, ctx)
    }

    /// Out-of-place write of a full logical page (synchronous). Use
    /// [`IoCtx::host_async()`] for background cleaner / checkpoint writes
    /// under steal/no-force.
    pub fn write_page(
        &mut self,
        rid: RegionId,
        lba: Lba,
        data: &[u8],
        ctx: IoCtx,
    ) -> Result<OpResult> {
        let id = self.submit_write(rid, lba, data, &[], ctx)?;
        Ok(self.dev.complete(id)?.result)
    }

    /// The `write_delta` command (§7): ISPP-append `data` at `offset`
    /// within the logical page's current physical residency (synchronous).
    pub fn write_delta(
        &mut self,
        rid: RegionId,
        lba: Lba,
        offset: usize,
        data: &[u8],
        ctx: IoCtx,
    ) -> Result<OpResult> {
        let id = self.submit_write_delta(rid, lba, offset, data, &[], ctx)?;
        Ok(self.dev.complete(id)?.result)
    }

    /// Hand back a page buffer obtained from [`NoFtl::read_page`] (or any
    /// buffer of exactly one device page) once its bytes are no longer
    /// needed: the device reuses it for a later read or program instead of
    /// allocating. Optional, and a buffer of any other length is dropped.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.dev.recycle(buf);
    }

    /// Queue a read of a logical page; the data travels in the completion
    /// returned by [`NoFtl::complete`] / [`NoFtl::drain_completions`].
    pub fn submit_read(&mut self, rid: RegionId, lba: Lba, ctx: IoCtx) -> Result<CmdId> {
        let region = self.regions.get_mut(rid.0).ok_or(NoFtlError::BadRegion(rid.0))?;
        region.submit_read(&mut self.dev, lba, ctx)
    }

    /// Queue an out-of-place write of a full logical page, with the
    /// `(offset, bytes)` writes `oob` into its OOB area (ECC codes, scheme
    /// tags) in the same command. Mapping, GC and statistics take effect at
    /// submission; only the simulated time is deferred to the completion.
    pub fn submit_write(
        &mut self,
        rid: RegionId,
        lba: Lba,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        let region = self.regions.get_mut(rid.0).ok_or(NoFtlError::BadRegion(rid.0))?;
        region.submit_write(&mut self.dev, lba, data, oob, ctx)
    }

    /// Queue a `write_delta` append, with its OOB writes (the record's
    /// `ECC_delta_i`); a faulted append's fallback program carries them.
    pub fn submit_write_delta(
        &mut self,
        rid: RegionId,
        lba: Lba,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        let region = self.regions.get_mut(rid.0).ok_or(NoFtlError::BadRegion(rid.0))?;
        region.submit_write_delta(&mut self.dev, lba, offset, data, oob, ctx)
    }

    /// Wait for one queued command, advancing the simulated clock to its
    /// completion time if it was synchronous host I/O.
    pub fn complete(&mut self, id: CmdId) -> Result<Completion> {
        Ok(self.dev.complete(id)?)
    }

    /// Drain every in-flight command, advancing the clock past the last
    /// host completion. A caller that needs none of the completions (a
    /// batch of page flushes) drops the result.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.dev.drain()
    }

    /// The device's effective host queue depth (1 on the OpenSSD profile).
    pub fn queue_depth(&self) -> u32 {
        self.dev.queue_depth()
    }

    /// Whether `write_delta` is currently possible for a logical page.
    pub fn can_append(&self, rid: RegionId, lba: Lba) -> bool {
        self.region(rid).map(|r| r.can_append(&self.dev, lba)).unwrap_or(false)
    }

    /// Whether a logical page is mapped (has been written).
    pub fn is_mapped(&self, rid: RegionId, lba: Lba) -> bool {
        self.region(rid).map(|r| r.is_mapped(lba)).unwrap_or(false)
    }

    /// Drop a logical page.
    pub fn trim(&mut self, rid: RegionId, lba: Lba) -> Result<()> {
        let region = self.regions.get_mut(rid.0).ok_or(NoFtlError::BadRegion(rid.0))?;
        region.trim(&mut self.dev, lba)
    }

    /// Fault-injection hook: plant raw retention bit errors on a logical
    /// page's current flash residency. Lets upper layers provoke the
    /// scrubber and recovery read-retry paths without naming physical
    /// addresses.
    pub fn inject_retention(&mut self, rid: RegionId, lba: Lba, bits: &[usize]) -> Result<()> {
        let ppa = self.region(rid)?.residency(lba)?;
        self.dev.inject_retention(ppa, bits)?;
        Ok(())
    }

    /// Read the OOB area of a logical page's residency.
    pub fn read_oob(&self, rid: RegionId, lba: Lba) -> Result<Vec<u8>> {
        self.region(rid)?.read_oob(&self.dev, lba)
    }

    /// Run static wear leveling on a region.
    pub fn wear_level(&mut self, rid: RegionId, threshold: u64) -> Result<u32> {
        let region = self.regions.get_mut(rid.0).ok_or(NoFtlError::BadRegion(rid.0))?;
        region.wear_level(&mut self.dev, threshold)
    }

    /// Region statistics.
    pub fn region_stats(&self, rid: RegionId) -> Result<&RegionStats> {
        Ok(&self.region(rid)?.stats)
    }

    /// Reset all statistics (region counters and device histograms).
    pub fn reset_stats(&mut self) {
        for r in &mut self.regions {
            r.stats.reset();
        }
        self.dev.reset_stats();
    }

    /// The underlying device (read-only view: stats, clock, geometry).
    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    /// Attach a trace observer to the underlying device. Physical events
    /// emitted below this point carry region/LBA attribution staged by the
    /// region layer.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.dev.attach_observer(observer);
    }

    /// Detach the device's trace observer, returning it.
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.dev.detach_observer()
    }

    /// Whether a trace observer is attached.
    #[inline]
    pub fn observing(&self) -> bool {
        self.dev.observing()
    }

    /// Emit a logical trace event (engine flush/evict decisions) through
    /// the device's sequence counter and clock, so it interleaves correctly
    /// with the physical events it triggers.
    #[inline]
    pub fn emit(&mut self, kind: EventKind, region: Option<u32>, lba: Option<u64>) {
        self.dev.emit(kind, region, lba);
    }

    /// Advance the simulated host clock by non-I/O work (transaction CPU
    /// time), letting background chip activity drain.
    pub fn advance_clock(&mut self, delta_ns: u64) {
        self.dev.advance_clock(delta_ns);
    }

    /// Run `f` under a causal span of category `cat` with parent `parent`
    /// (`None` for a root span); the span closes when `f` returns,
    /// whichever way it returns. See [`FlashDevice::in_span`].
    #[expect(
        clippy::disallowed_methods,
        reason = "NoFTL's one pairing of a raw open with its close"
    )]
    pub fn in_span<T>(
        &mut self,
        cat: SpanCategory,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let span = self.dev.open_span_under(cat, parent);
        let out = f(self, span);
        self.dev.close_span(span);
        out
    }

    /// Open a causal span whose close is deferred to another call (the
    /// engine's transaction spans). Everything else uses
    /// [`NoFtl::in_span`]; `crates/clippy.toml` bans this method and
    /// [`NoFtl::close_span`] elsewhere.
    #[expect(clippy::disallowed_methods, reason = "forwards the deferred open to the device")]
    pub fn open_span_under(&mut self, cat: SpanCategory, parent: Option<SpanId>) -> SpanId {
        self.dev.open_span_under(cat, parent)
    }

    /// Close a span opened by [`NoFtl::open_span_under`].
    #[expect(clippy::disallowed_methods, reason = "forwards the deferred close to the device")]
    pub fn close_span(&mut self, id: SpanId) {
        self.dev.close_span(id);
    }

    /// Enable or disable per-command lifecycle events (`CmdSubmit` /
    /// `CmdComplete`) on the underlying device. Off by default: logical
    /// and physical events alone preserve the pre-tracing trace shape.
    pub fn set_cmd_tracing(&mut self, on: bool) {
        self.dev.set_cmd_tracing(on);
    }

    /// Erase-count distribution across all blocks of the device — the
    /// wear-telemetry export for observability snapshots.
    pub fn wear_histogram(&self) -> WearHistogram {
        self.dev.wear_histogram()
    }

    /// Aggregate update-heat telemetry for a region.
    pub fn heat_summary(&self, rid: RegionId) -> Result<HeatSummary> {
        Ok(self.region(rid)?.heat_summary())
    }

    /// Mapped logical pages of a region (diagnostics).
    pub fn mapped_pages(&self, rid: RegionId) -> Result<u64> {
        Ok(self.region(rid)?.mapped_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IpaMode, RegionSpec};
    use ipa_flash::{CellType, FlashConfig};

    fn two_region_config() -> NoFtlConfig {
        NoFtlConfig::builder(FlashConfig::openssd_mlc(16, 8, 512))
            .chips(4)
            .cell_type(CellType::Mlc)
            .region(RegionSpec::new("rgIPA", [0, 1], IpaMode::PSlc).with_over_provisioning(0.3))
            .region(RegionSpec::new("rgPlain", [2, 3], IpaMode::None).with_over_provisioning(0.3))
            .gc_low_watermark(2)
            .build()
            .unwrap()
    }

    #[test]
    fn regions_are_isolated() {
        let mut ftl = NoFtl::new(two_region_config()).unwrap();
        let ipa = ftl.region_by_name("rgIPA").unwrap();
        let plain = ftl.region_by_name("rgPlain").unwrap();
        let data = vec![0xAB; 512];
        ftl.write_page(ipa, Lba(0), &data, IoCtx::default()).unwrap();
        ftl.write_page(plain, Lba(0), &data, IoCtx::default()).unwrap();
        // Same LBA, different regions, independent content and stats.
        assert_eq!(ftl.region_stats(ipa).unwrap().host_page_writes, 1);
        assert_eq!(ftl.region_stats(plain).unwrap().host_page_writes, 1);
        assert!(ftl.can_append(ipa, Lba(0)));
        assert!(!ftl.can_append(plain, Lba(0)));
    }

    #[test]
    fn selective_ipa_per_region() {
        // The paper's claim II: IPA applies only to chosen objects; other
        // regions are untouched.
        let mut ftl = NoFtl::new(two_region_config()).unwrap();
        let ipa = ftl.region_by_name("rgIPA").unwrap();
        let plain = ftl.region_by_name("rgPlain").unwrap();
        let mut data = vec![0xFF; 512];
        data[..100].fill(0x01);
        ftl.write_page(ipa, Lba(1), &data, IoCtx::default()).unwrap();
        ftl.write_page(plain, Lba(1), &data, IoCtx::default()).unwrap();
        ftl.write_delta(ipa, Lba(1), 500, &[0x77], IoCtx::default()).unwrap();
        assert!(matches!(
            ftl.write_delta(plain, Lba(1), 500, &[0x77], IoCtx::default()),
            Err(NoFtlError::AppendNotAllowed { .. })
        ));
    }

    #[test]
    fn bad_region_ids_rejected() {
        let mut ftl = NoFtl::new(two_region_config()).unwrap();
        assert!(matches!(
            ftl.read_page(RegionId(9), Lba(0), IoCtx::default()),
            Err(NoFtlError::BadRegion(9))
        ));
        assert!(ftl.region_by_name("nope").is_none());
        assert!(!ftl.can_append(RegionId(9), Lba(0)));
    }

    #[test]
    fn reset_stats_clears_everything() {
        let mut ftl = NoFtl::new(two_region_config()).unwrap();
        let ipa = ftl.region_by_name("rgIPA").unwrap();
        ftl.write_page(ipa, Lba(0), &vec![0u8; 512], IoCtx::default()).unwrap();
        ftl.reset_stats();
        assert_eq!(ftl.region_stats(ipa).unwrap().host_page_writes, 0);
        assert_eq!(ftl.device().stats().host_programs, 0);
    }

    #[test]
    fn batched_writes_overlap_across_chips() {
        let mk = |depth: u32| {
            NoFtl::new(
                NoFtlConfig::builder(FlashConfig::emulator_slc(16, 8, 512))
                    .chips(4)
                    .queue_depth(depth)
                    .single_region(IpaMode::Slc, 0.3)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let image = |i: u64| vec![i as u8; 512];

        let mut queued = mk(4);
        let rid = queued.region_by_name("default").unwrap();
        let ids: Vec<_> = (0..4u64)
            .map(|i| queued.submit_write(rid, Lba(i), &image(i), &[], IoCtx::default()).unwrap())
            .collect();
        let mut drained: Vec<_> = queued.drain_completions().map(|c| c.id).collect();
        drained.sort();
        assert_eq!(drained, ids);
        let t_queued = queued.device().clock().now_ns();

        let mut serial = mk(1);
        for i in 0..4u64 {
            serial.write_page(rid, Lba(i), &image(i), IoCtx::default()).unwrap();
        }
        let t_serial = serial.device().clock().now_ns();
        // Four chips, one program each: full overlap at depth 4.
        assert_eq!(t_queued * 4, t_serial);
        // The queued run lands the same data.
        for i in 0..4u64 {
            let (data, _) = queued.read_page(rid, Lba(i), IoCtx::default()).unwrap();
            assert_eq!(data, image(i));
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = two_region_config();
        cfg.regions[1].chips = vec![0]; // overlap
        assert!(matches!(NoFtl::new(cfg), Err(NoFtlError::BadConfig(_))));
    }
}
