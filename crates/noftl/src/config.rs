//! Region and device configuration — the programmatic form of the paper's
//! `CREATE REGION` DDL (Figure 3).

use ipa_flash::{CellType, FlashConfig};

/// How in-place appends map onto the region's cell technology (§4, §5,
/// Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpaMode {
    /// IPA disabled: every write is out-of-place (the `[0×0]` baseline).
    None,
    /// Native SLC (or TLC-as-SLC): appends allowed on every page.
    Slc,
    /// Pseudo-SLC on MLC flash: only LSB pages are used — half the
    /// capacity, fast programs, appends on every used page.
    PSlc,
    /// Odd-MLC: full MLC capacity; appends only while a logical page
    /// resides on an LSB (even-index) physical page, MSB residencies write
    /// out-of-place.
    OddMlc,
}

impl IpaMode {
    /// Whether the mode restricts usable pages to LSB pages only.
    pub fn lsb_only_allocation(self) -> bool {
        matches!(self, IpaMode::PSlc)
    }

    /// Validate the mode against a cell type.
    pub fn compatible_with(self, cell: CellType) -> bool {
        match self {
            IpaMode::None => true,
            IpaMode::Slc => matches!(cell, CellType::Slc | CellType::Tlc),
            IpaMode::PSlc | IpaMode::OddMlc => cell == CellType::Mlc,
        }
    }
}

/// One region: a named set of chips with an IPA mode and an
/// over-provisioning ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Region name (e.g. `rgIPA`).
    pub name: String,
    /// Chip indices assigned exclusively to this region (`MAX_CHIPS` /
    /// `MAX_CHANNELS` in the DDL collapse to an explicit chip list here).
    pub chips: Vec<u32>,
    /// IPA mode.
    pub ipa_mode: IpaMode,
    /// Fraction of usable pages withheld as over-provisioning for the
    /// garbage collector (the paper's experiments use 10%).
    pub over_provisioning: f64,
}

impl RegionSpec {
    /// A region over a chip range with 10% over-provisioning.
    pub fn new(
        name: impl Into<String>,
        chips: impl IntoIterator<Item = u32>,
        ipa_mode: IpaMode,
    ) -> Self {
        RegionSpec {
            name: name.into(),
            chips: chips.into_iter().collect(),
            ipa_mode,
            over_provisioning: 0.10,
        }
    }

    /// Builder-style over-provisioning override.
    pub fn with_over_provisioning(mut self, op: f64) -> Self {
        self.over_provisioning = op;
        self
    }
}

/// Self-healing policy over flash operation faults: how often to retry a
/// failed program before degrading (retire the block, remap the write), and
/// when the scrubber refreshes a page whose reads need heavy correction.
///
/// The degradation paths themselves are fixed by construction — a failed
/// `write_delta` always falls back to a full out-of-place write, a failed
/// erase always retires the GC victim — only the budgets are configurable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// How many times a transiently-failed full-page program is retried on
    /// the same page before the block is retired and the write remapped to
    /// a fresh page.
    pub program_retries: u32,
    /// Scrub threshold as a fraction of the ECC correction capability
    /// (`ecc_correctable_bits`): a host read whose corrected-bit count
    /// reaches `scrub_threshold * ecc_correctable_bits` schedules a
    /// Correct-and-Refresh of the page. `0.0` disables the scrubber.
    pub scrub_threshold: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { program_retries: 1, scrub_threshold: 0.0 }
    }
}

/// Full NoFTL configuration: the flash device plus its regions.
#[derive(Debug, Clone, PartialEq)]
pub struct NoFtlConfig {
    /// The underlying flash device.
    pub flash: FlashConfig,
    /// Disjoint regions over the device's chips.
    pub regions: Vec<RegionSpec>,
    /// Garbage collection is triggered when a chip's free-block count drops
    /// below this watermark.
    pub gc_low_watermark: usize,
    /// Self-healing policy applied by every region.
    pub fault_policy: FaultPolicy,
}

impl NoFtlConfig {
    /// Start building a configuration from a base flash profile
    /// ([`FlashConfig::small_slc`], [`FlashConfig::emulator_slc`],
    /// [`FlashConfig::openssd_mlc`]), then adjust geometry, queue depth,
    /// regions and the GC watermark fluently:
    ///
    /// ```
    /// use ipa_flash::{CellType, FlashConfig};
    /// use ipa_noftl::{IpaMode, NoFtlConfig, RegionSpec};
    ///
    /// let cfg = NoFtlConfig::builder(FlashConfig::openssd_mlc(16, 8, 512))
    ///     .chips(4)
    ///     .cell_type(CellType::Mlc)
    ///     .region(RegionSpec::new("rgIPA", [0, 1], IpaMode::PSlc).with_over_provisioning(0.3))
    ///     .region(RegionSpec::new("rgPlain", [2, 3], IpaMode::None).with_over_provisioning(0.3))
    ///     .gc_low_watermark(2)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.regions.len(), 2);
    /// ```
    pub fn builder(flash: FlashConfig) -> NoFtlConfigBuilder {
        NoFtlConfigBuilder {
            flash,
            regions: Vec::new(),
            gc_low_watermark: 2,
            fault_policy: FaultPolicy::default(),
        }
    }

    /// A single-region configuration spanning every chip of the device.
    pub fn single_region(flash: FlashConfig, ipa_mode: IpaMode, over_provisioning: f64) -> Self {
        let chips = 0..flash.geometry.chips;
        NoFtlConfig {
            flash,
            regions: vec![RegionSpec::new("default", chips, ipa_mode)
                .with_over_provisioning(over_provisioning)],
            gc_low_watermark: 2,
            fault_policy: FaultPolicy::default(),
        }
    }

    /// Validate chip assignments and mode compatibility.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        if self.regions.is_empty() {
            return Err("no regions configured".into());
        }
        if self.gc_low_watermark < 1 {
            return Err("gc_low_watermark must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.fault_policy.scrub_threshold) {
            return Err(format!(
                "fault_policy.scrub_threshold {} out of [0, 1]",
                self.fault_policy.scrub_threshold
            ));
        }
        for r in &self.regions {
            if r.chips.is_empty() {
                return Err(format!("region '{}' has no chips", r.name));
            }
            if !(0.0..0.9).contains(&r.over_provisioning) {
                return Err(format!(
                    "region '{}': over-provisioning {} out of [0, 0.9)",
                    r.name, r.over_provisioning
                ));
            }
            if !r.ipa_mode.compatible_with(self.flash.geometry.cell_type) {
                return Err(format!(
                    "region '{}': mode {:?} incompatible with {:?} flash",
                    r.name, r.ipa_mode, self.flash.geometry.cell_type
                ));
            }
            for &c in &r.chips {
                if c >= self.flash.geometry.chips {
                    return Err(format!("region '{}': chip {c} out of range", r.name));
                }
                if !seen.insert(c) {
                    return Err(format!("chip {c} assigned to multiple regions"));
                }
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`NoFtlConfig`], created by [`NoFtlConfig::builder`].
///
/// Geometry setters override the base profile in place; [`Self::build`]
/// runs [`NoFtlConfig::validate`] so an inconsistent combination (chip
/// overlap, mode/cell mismatch, out-of-range chips) fails loudly at
/// construction instead of at first I/O.
#[derive(Debug, Clone)]
pub struct NoFtlConfigBuilder {
    flash: FlashConfig,
    regions: Vec<RegionSpec>,
    gc_low_watermark: usize,
    fault_policy: FaultPolicy,
}

impl NoFtlConfigBuilder {
    /// Number of flash chips on the device.
    pub fn chips(mut self, chips: u32) -> Self {
        self.flash.geometry.chips = chips;
        self
    }

    /// Blocks per chip.
    pub fn blocks_per_chip(mut self, blocks: u32) -> Self {
        self.flash.geometry.blocks_per_chip = blocks;
        self
    }

    /// Pages per block.
    pub fn pages_per_block(mut self, pages: u32) -> Self {
        self.flash.geometry.pages_per_block = pages;
        self
    }

    /// Main-area page size in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.flash.geometry.page_size = bytes;
        self
    }

    /// Cell technology of the device.
    pub fn cell_type(mut self, cell: CellType) -> Self {
        self.flash.geometry.cell_type = cell;
        self
    }

    /// Host command-queue depth (clamped to 1 on the OpenSSD profile,
    /// which has no NCQ).
    pub fn queue_depth(mut self, depth: u32) -> Self {
        self.flash.queue_depth = depth;
        self
    }

    /// Append a region.
    pub fn region(mut self, spec: RegionSpec) -> Self {
        self.regions.push(spec);
        self
    }

    /// Replace any configured regions with a single one spanning every
    /// chip of the device.
    pub fn single_region(mut self, ipa_mode: IpaMode, over_provisioning: f64) -> Self {
        let chips = 0..self.flash.geometry.chips;
        self.regions =
            vec![RegionSpec::new("default", chips, ipa_mode)
                .with_over_provisioning(over_provisioning)];
        self
    }

    /// Free-block watermark below which garbage collection triggers.
    pub fn gc_low_watermark(mut self, watermark: usize) -> Self {
        self.gc_low_watermark = watermark;
        self
    }

    /// Operation-fault plan of the underlying flash device (which ops fail
    /// and how; see [`ipa_flash::FaultPlan`]).
    pub fn fault_plan(mut self, plan: ipa_flash::FaultPlan) -> Self {
        self.flash.fault = plan;
        self
    }

    /// Self-healing policy (retry budget, scrub threshold).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Scrub threshold shortcut: fraction of `ecc_correctable_bits` at
    /// which a corrected read triggers a refresh.
    pub fn scrub_threshold(mut self, fraction: f64) -> Self {
        self.fault_policy.scrub_threshold = fraction;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> crate::Result<NoFtlConfig> {
        let cfg = NoFtlConfig {
            flash: self.flash,
            regions: self.regions,
            gc_low_watermark: self.gc_low_watermark,
            fault_policy: self.fault_policy,
        };
        cfg.validate().map_err(crate::NoFtlError::BadConfig)?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_compatibility_matrix() {
        assert!(IpaMode::Slc.compatible_with(CellType::Slc));
        assert!(IpaMode::Slc.compatible_with(CellType::Tlc));
        assert!(!IpaMode::Slc.compatible_with(CellType::Mlc));
        assert!(IpaMode::PSlc.compatible_with(CellType::Mlc));
        assert!(!IpaMode::PSlc.compatible_with(CellType::Slc));
        assert!(IpaMode::OddMlc.compatible_with(CellType::Mlc));
        assert!(IpaMode::None.compatible_with(CellType::Slc));
        assert!(IpaMode::None.compatible_with(CellType::Mlc));
    }

    #[test]
    fn single_region_validates() {
        let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
        cfg.validate().unwrap();
    }

    #[test]
    fn overlapping_chips_rejected() {
        let mut cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
        cfg.regions.push(RegionSpec::new("dup", [0], IpaMode::Slc));
        assert!(cfg.validate().unwrap_err().contains("multiple regions"));
    }

    #[test]
    fn wrong_mode_for_cell_type_rejected() {
        let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::PSlc, 0.1);
        assert!(cfg.validate().unwrap_err().contains("incompatible"));
    }

    #[test]
    fn out_of_range_chip_rejected() {
        let mut cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
        cfg.regions[0].chips = vec![99];
        assert!(cfg.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn bad_op_rejected() {
        let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.95);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_produces_validated_config() {
        let cfg = NoFtlConfig::builder(FlashConfig::emulator_slc(16, 8, 512))
            .chips(4)
            .blocks_per_chip(32)
            .pages_per_block(16)
            .page_size(1024)
            .queue_depth(4)
            .single_region(IpaMode::Slc, 0.3)
            .gc_low_watermark(3)
            .build()
            .unwrap();
        assert_eq!(cfg.flash.geometry.chips, 4);
        assert_eq!(cfg.flash.geometry.blocks_per_chip, 32);
        assert_eq!(cfg.flash.geometry.pages_per_block, 16);
        assert_eq!(cfg.flash.geometry.page_size, 1024);
        assert_eq!(cfg.flash.queue_depth, 4);
        assert_eq!(cfg.gc_low_watermark, 3);
        assert_eq!(cfg.regions[0].chips, vec![0, 1, 2, 3]);
    }

    #[test]
    fn builder_configures_fault_plan_and_policy() {
        use ipa_flash::{FaultOp, FaultPlan};
        let cfg = NoFtlConfig::builder(FlashConfig::small_slc())
            .single_region(IpaMode::Slc, 0.2)
            .fault_plan(FaultPlan::storm(7, 1e-3, 0.5).with_scripted(FaultOp::Erase, 3, true))
            .fault_policy(FaultPolicy { program_retries: 2, scrub_threshold: 0.5 })
            .build()
            .unwrap();
        assert!(cfg.flash.fault.is_active());
        assert_eq!(cfg.flash.fault.scripted.len(), 1);
        assert_eq!(cfg.fault_policy.program_retries, 2);
        assert!((cfg.fault_policy.scrub_threshold - 0.5).abs() < 1e-12);
        // Defaults stay inert.
        let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
        assert!(!cfg.flash.fault.is_active());
        assert_eq!(cfg.fault_policy, FaultPolicy::default());
    }

    #[test]
    fn out_of_range_scrub_threshold_rejected() {
        let cfg = NoFtlConfig::builder(FlashConfig::small_slc())
            .single_region(IpaMode::Slc, 0.2)
            .scrub_threshold(1.5)
            .build();
        assert!(matches!(cfg, Err(crate::NoFtlError::BadConfig(_))));
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        // No regions configured.
        assert!(NoFtlConfig::builder(FlashConfig::small_slc()).build().is_err());
        // pSLC requires MLC flash.
        assert!(NoFtlConfig::builder(FlashConfig::small_slc())
            .single_region(IpaMode::PSlc, 0.1)
            .build()
            .is_err());
    }
}
