//! A hybrid-mapping FTL in the FAST/FASTer family — the architecture of
//! "typical SSDs" the paper contrasts with NoFTL's page-level mapping
//! (§8.4): data blocks are **block-mapped** (a logical block owns one
//! physical block, page offsets fixed), while updates go to a small
//! page-mapped **log area** carved out of the over-provisioning space.
//! When the log area runs out, a *full merge* rewrites every logical block
//! with pages in the victim log block — the expensive operation whose
//! postponement is the paper's argument for why IPA lets hybrid devices
//! shrink their over-provisioning ("the over-provisioning area is
//! populated much slower, which postpones the expensive merge operations").
//!
//! The FTL replays eviction streams (`(page, changed_bytes, fresh)`
//! triples, e.g. adapted from `ipa_engine::TraceEvent`) like the IPL
//! baseline, optionally applying an `[N×M]`-style append rule so the same
//! trace can be compared with and without IPA on identical hardware.

use std::collections::BTreeMap;

use ipa_flash::{FlashDevice, IoCtx, Observer, Ppa};

/// Configuration of the hybrid FTL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Fraction of blocks reserved as the page-mapped log area (the
    /// over-provisioning in FAST-family designs).
    pub log_area_fraction: f64,
    /// IPA rule: maximum appends per physical page (0 disables IPA).
    pub ipa_max_appends: u32,
    /// IPA rule: maximum changed bytes one append may cover.
    pub ipa_max_bytes: u32,
}

impl HybridConfig {
    /// A conventional hybrid SSD without IPA, 10% log area.
    pub fn conventional() -> Self {
        HybridConfig { log_area_fraction: 0.10, ipa_max_appends: 0, ipa_max_bytes: 0 }
    }

    /// The same device with an `[N×M]`-style append rule.
    pub fn with_ipa(n: u32, m: u32) -> Self {
        HybridConfig { log_area_fraction: 0.10, ipa_max_appends: n, ipa_max_bytes: m }
    }
}

/// Operation counters of a hybrid-FTL replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use]
pub struct HybridStats {
    /// Host page writes served.
    pub host_writes: u64,
    /// Host writes absorbed as in-place appends.
    pub ipa_appends: u64,
    /// Writes that went to the log area.
    pub log_writes: u64,
    /// Writes that filled an erased slot of the owning data block.
    pub data_writes: u64,
    /// Full merges performed.
    pub merges: u64,
    /// Pages rewritten during merges.
    pub merge_page_writes: u64,
    /// Block erases (merge victims: data + log blocks).
    pub erases: u64,
}

#[derive(Debug, Clone, Copy)]
enum Residency {
    /// Page lives at its home slot in the data block.
    Data,
    /// Page's latest version lives in the log area.
    Log(Ppa),
}

/// The hybrid FTL over a raw flash device. All addresses are flattened:
/// physical block id = `chip * blocks_per_chip + block`.
#[derive(Debug)]
pub struct HybridFtl {
    dev: FlashDevice,
    cfg: HybridConfig,
    pages_per_block: u64,
    page_size: usize,
    /// Logical block -> physical block holding its data pages.
    data_map: BTreeMap<u64, u64>,
    /// Latest residency per logical page (absent = never written).
    residency: BTreeMap<u64, Residency>,
    /// Appends consumed per logical page since its last full write.
    appends: BTreeMap<u64, u32>,
    /// Free physical blocks.
    free_blocks: Vec<u64>,
    /// Log blocks in fill order; the first is the merge victim.
    log_blocks: Vec<u64>,
    /// Write cursor in the active (last) log block.
    log_cursor: u64,
    /// Budget of log blocks (the log area size).
    log_budget: usize,
    stats: HybridStats,
}

impl HybridFtl {
    /// Build over a device (all of whose blocks the FTL manages).
    pub fn new(dev: FlashDevice, cfg: HybridConfig) -> Self {
        let geom = &dev.config().geometry;
        let total_blocks = (geom.chips * geom.blocks_per_chip) as u64;
        let log_budget = ((total_blocks as f64 * cfg.log_area_fraction).ceil() as usize).max(2);
        HybridFtl {
            pages_per_block: geom.pages_per_block as u64,
            page_size: geom.page_size,
            data_map: BTreeMap::new(),
            residency: BTreeMap::new(),
            appends: BTreeMap::new(),
            free_blocks: (0..total_blocks).rev().collect(),
            log_blocks: Vec::new(),
            log_cursor: 0,
            log_budget,
            stats: HybridStats::default(),
            dev,
            cfg,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &HybridStats {
        &self.stats
    }

    /// The underlying device (read-only view: stats, clock, geometry).
    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    /// Attach a trace observer to the underlying device. The hybrid FTL
    /// has no regions, so its events carry only LBA attribution.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.dev.attach_observer(observer);
    }

    /// Detach the device's trace observer, returning it.
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.dev.detach_observer()
    }

    /// Total erases performed on the underlying device.
    pub fn device_erases(&self) -> u64 {
        self.dev.total_erases()
    }

    fn ppa(&self, block: u64, page: u64) -> Ppa {
        let geom = &self.dev.config().geometry;
        Ppa::new(
            (block / geom.blocks_per_chip as u64) as u32,
            (block % geom.blocks_per_chip as u64) as u32,
            page as u32,
        )
    }

    fn logical_block(&self, lba: u64) -> (u64, u64) {
        (lba / self.pages_per_block, lba % self.pages_per_block)
    }

    fn synthetic_image(&self, lba: u64, version: u64) -> Vec<u8> {
        // Content is irrelevant to the I/O accounting; keep a tail erased
        // so appends are physically possible.
        let mut img = vec![0xFF; self.page_size];
        let body = self.page_size * 3 / 4;
        let tag = (lba ^ version.rotate_left(17)).to_le_bytes();
        for (i, b) in img[..body].iter_mut().enumerate() {
            *b = tag[i % 8] & 0x7F;
        }
        img
    }

    /// Replay a stream of evictions: `(logical page, changed bytes, fresh)`.
    pub fn replay(&mut self, events: &[(u64, u32, bool)]) {
        for (version, &(page, changed_bytes, fresh)) in events.iter().enumerate() {
            self.write(page, changed_bytes, fresh, version as u64 + 1);
        }
    }

    /// One host write of a logical page.
    pub fn write(&mut self, lba: u64, changed_bytes: u32, fresh: bool, version: u64) {
        self.stats.host_writes += 1;
        let ctx = IoCtx { lba: Some(lba), ..IoCtx::host() };
        // IPA path: small update, budget left, current residency appendable.
        if !fresh && self.cfg.ipa_max_appends > 0 {
            let used = self.appends.get(&lba).copied().unwrap_or(0);
            let needed = changed_bytes.div_ceil(self.cfg.ipa_max_bytes.max(1)).max(1);
            if self.residency.contains_key(&lba) && used + needed <= self.cfg.ipa_max_appends {
                let ppa = self.current_ppa(lba);
                // Append into the erased tail: slot position by append idx.
                let slot = self.page_size * 3 / 4 + (used as usize) * (self.page_size / 16);
                let len = (self.page_size / 16).min(self.page_size - slot);
                let payload = vec![0x00u8; len];
                if self.dev.program_partial(ppa, slot, &payload, ctx).is_ok() {
                    self.appends.insert(lba, used + needed);
                    self.stats.ipa_appends += 1;
                    return;
                }
            }
        }
        // Full write: data slot if still erased, else the log.
        self.appends.insert(lba, 0);
        let (lb, off) = self.logical_block(lba);
        let img = self.synthetic_image(lba, version);
        let data_block = match self.data_map.get(&lb) {
            Some(&b) => b,
            None => {
                let b = self.alloc_block();
                self.data_map.insert(lb, b);
                b
            }
        };
        let home = self.ppa(data_block, off);
        let never_written = !self.residency.contains_key(&lba);
        if never_written && self.dev.program(home, &img, ctx).is_ok() {
            self.residency.insert(lba, Residency::Data);
            self.stats.data_writes += 1;
            return;
        }
        // Log write.
        let ppa = self.alloc_log_slot();
        self.dev.program(ppa, &img, ctx).expect("log slot is erased");
        self.residency.insert(lba, Residency::Log(ppa));
        self.stats.log_writes += 1;
    }

    fn current_ppa(&self, lba: u64) -> Ppa {
        match self.residency.get(&lba) {
            Some(Residency::Log(p)) => *p,
            _ => {
                let (lb, off) = self.logical_block(lba);
                self.ppa(*self.data_map.get(&lb).expect("resident page has a data block"), off)
            }
        }
    }

    fn alloc_block(&mut self) -> u64 {
        self.free_blocks.pop().expect("hybrid FTL out of physical blocks")
    }

    fn alloc_log_slot(&mut self) -> Ppa {
        if self.log_blocks.is_empty() || self.log_cursor == self.pages_per_block {
            if self.log_blocks.len() >= self.log_budget {
                self.merge_victim();
            }
            let b = self.alloc_block();
            self.log_blocks.push(b);
            self.log_cursor = 0;
        }
        let block = *self.log_blocks.last().expect("active log block");
        let ppa = self.ppa(block, self.log_cursor);
        self.log_cursor += 1;
        ppa
    }

    /// Full merge of the oldest log block: every logical block with a page
    /// in it is rewritten to a fresh data block; the stale data blocks and
    /// the log block are erased.
    fn merge_victim(&mut self) {
        let victim = self.log_blocks.remove(0);
        self.stats.merges += 1;
        // Which logical blocks have their latest version in this log block?
        let victims: Vec<u64> = {
            let mut set = std::collections::BTreeSet::new();
            for (lba, res) in &self.residency {
                if let Residency::Log(ppa) = res {
                    let flat = ppa.chip as u64 * self.dev.config().geometry.blocks_per_chip as u64
                        + ppa.block as u64;
                    if flat == victim {
                        set.insert(self.logical_block(*lba).0);
                    }
                }
            }
            set.into_iter().collect()
        };
        for lb in victims {
            let old_data = self.data_map.get(&lb).copied();
            let new_block = self.alloc_block();
            for off in 0..self.pages_per_block {
                let lba = lb * self.pages_per_block + off;
                if !self.residency.contains_key(&lba) {
                    continue;
                }
                let src = self.current_ppa(lba);
                let ctx = IoCtx { lba: Some(lba), ..IoCtx::background() };
                let (img, _) = self.dev.read(src, ctx).expect("valid page");
                let dst = self.ppa(new_block, off);
                self.dev.program(dst, &img, ctx).expect("fresh block");
                self.residency.insert(lba, Residency::Data);
                self.appends.insert(lba, 0);
                self.stats.merge_page_writes += 1;
            }
            self.data_map.insert(lb, new_block);
            if let Some(b) = old_data {
                self.erase_block(b);
            }
        }
        self.erase_block(victim);
    }

    fn erase_block(&mut self, flat: u64) {
        let geom = &self.dev.config().geometry;
        let chip = (flat / geom.blocks_per_chip as u64) as u32;
        let block = (flat % geom.blocks_per_chip as u64) as u32;
        self.dev.erase(chip, block).expect("erase");
        self.stats.erases += 1;
        self.free_blocks.push(flat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::{EventKind, FlashConfig, ObsEvent};
    use std::sync::{Arc, Mutex};

    fn device() -> FlashDevice {
        let mut cfg = FlashConfig::small_slc();
        cfg.geometry.chips = 2;
        cfg.geometry.blocks_per_chip = 24;
        cfg.geometry.pages_per_block = 8;
        cfg.geometry.page_size = 512;
        cfg.max_appends = Some(8);
        FlashDevice::new(cfg)
    }

    fn churn(pages: u64, rounds: u64, bytes: u32) -> Vec<(u64, u32, bool)> {
        let mut t = Vec::new();
        for p in 0..pages {
            t.push((p, 200, true));
        }
        for r in 0..rounds {
            for p in 0..pages {
                if (p + r) % 3 == 0 {
                    t.push((p, bytes, false));
                }
            }
        }
        t
    }

    #[test]
    fn fresh_writes_land_in_data_blocks() {
        let mut ftl = HybridFtl::new(device(), HybridConfig::conventional());
        ftl.replay(&churn(16, 0, 0));
        assert_eq!(ftl.stats().data_writes, 16);
        assert_eq!(ftl.stats().log_writes, 0);
        assert_eq!(ftl.stats().merges, 0);
    }

    #[test]
    fn updates_go_to_log_then_merge() {
        let mut ftl = HybridFtl::new(device(), HybridConfig::conventional());
        // 5 log blocks budget (48 blocks * 0.1 = 4.8 -> 5) of 8 pages each:
        // 40+ spread-out updates overflow the log area. With one update per
        // page, every entry in the victim log block is still the latest
        // version, so the merge must rewrite whole logical blocks.
        let mut trace: Vec<(u64, u32, bool)> = (0..60u64).map(|p| (p, 200, true)).collect();
        trace.extend((0..60u64).map(|p| (p, 4, false)));
        ftl.replay(&trace);
        let s = ftl.stats();
        assert!(s.log_writes > 0);
        assert!(s.merges > 0, "log area must overflow: {s:?}");
        assert!(s.merge_page_writes > 0, "valid log entries force full merges: {s:?}");
        assert!(s.erases >= s.merges);
    }

    /// An observer whose events the test keeps a handle on.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<ObsEvent>>>);

    impl Observer for Shared {
        fn on_event(&mut self, event: ObsEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn fully_stale_log_blocks_merge_cheaply() {
        // Hammering one page makes old log blocks entirely stale: merges
        // happen (space must be reclaimed) but rewrite nothing.
        let mut ftl = HybridFtl::new(device(), HybridConfig::conventional());
        let sink = Shared::default();
        ftl.attach_observer(Box::new(sink.clone()));
        let mut trace = vec![(0u64, 200u32, true)];
        trace.extend(std::iter::repeat_n((0u64, 4u32, false), 120));
        ftl.replay(&trace);
        let s = ftl.stats();
        assert!(s.merges > 0);
        assert!(
            s.merge_page_writes <= s.merges * 2,
            "stale-dominated merges should rewrite little: {s:?}"
        );
        // A merge's erases belong to no host write.
        let events = sink.0.lock().unwrap();
        let erases: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Erase).collect();
        assert_eq!(erases.len() as u64, s.erases);
        let attributed = erases.iter().filter(|e| e.lba.is_some()).count();
        assert_eq!(attributed, 0, "of {} erases, {attributed} carry an LBA", erases.len());
    }

    #[test]
    fn ipa_reduces_merges_on_identical_trace() {
        // The §8.4 claim: appends populate the log area more slowly, so
        // merges are postponed.
        let trace = churn(24, 60, 4);
        let mut conv = HybridFtl::new(device(), HybridConfig::conventional());
        conv.replay(&trace);
        let mut ipa = HybridFtl::new(device(), HybridConfig::with_ipa(2, 8));
        ipa.replay(&trace);
        assert!(ipa.stats().ipa_appends > 0);
        assert!(
            ipa.stats().merges < conv.stats().merges,
            "IPA {} merges vs conventional {}",
            ipa.stats().merges,
            conv.stats().merges
        );
        assert!(ipa.device_erases() < conv.device_erases());
    }

    #[test]
    fn append_budget_forces_periodic_full_writes() {
        let trace = churn(8, 30, 4);
        let mut ftl = HybridFtl::new(device(), HybridConfig::with_ipa(2, 8));
        ftl.replay(&trace);
        let s = ftl.stats();
        // With N=2, roughly 2 of every 3 update writes append.
        assert!(s.ipa_appends > 0);
        assert!(s.log_writes > 0, "every third update must be a full write");
    }

    #[test]
    fn large_updates_bypass_ipa() {
        let trace = churn(8, 10, 4_000);
        let mut ftl = HybridFtl::new(device(), HybridConfig::with_ipa(2, 8));
        ftl.replay(&trace);
        assert_eq!(ftl.stats().ipa_appends, 0);
    }
}
