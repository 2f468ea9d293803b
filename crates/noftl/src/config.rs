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
    /// A region over a chip range.
    pub fn new(
        name: impl Into<String>,
        chips: impl IntoIterator<Item = u32>,
        ipa_mode: IpaMode,
        over_provisioning: f64,
    ) -> Self {
        RegionSpec {
            name: name.into(),
            chips: chips.into_iter().collect(),
            ipa_mode,
            over_provisioning,
        }
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

/// Full NoFTL configuration: the flash device plus its regions. Start from
/// [`NoFtlConfig::single_region`] or write the struct out, then set fields
/// directly; [`crate::NoFtl::new`] validates it. Two regions over an MLC
/// device, one of them pSLC with appends:
///
/// ```
/// use ipa_flash::FlashConfig;
/// use ipa_noftl::{FaultPolicy, IpaMode, NoFtl, NoFtlConfig, RegionSpec};
///
/// let mut flash = FlashConfig::openssd_mlc(16, 8, 512);
/// flash.geometry.chips = 4;
/// let cfg = NoFtlConfig {
///     flash,
///     regions: vec![
///         RegionSpec::new("rgIPA", [0, 1], IpaMode::PSlc, 0.3),
///         RegionSpec::new("rgPlain", [2, 3], IpaMode::None, 0.3),
///     ],
///     fault_policy: FaultPolicy::default(),
/// };
/// assert_eq!(NoFtl::new(cfg).unwrap().region_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoFtlConfig {
    /// The underlying flash device.
    pub flash: FlashConfig,
    /// Disjoint regions over the device's chips.
    pub regions: Vec<RegionSpec>,
    /// Self-healing policy applied by every region.
    pub fault_policy: FaultPolicy,
}

impl NoFtlConfig {
    /// A single-region configuration spanning every chip of the device.
    pub fn single_region(flash: FlashConfig, ipa_mode: IpaMode, over_provisioning: f64) -> Self {
        let chips = 0..flash.geometry.chips;
        NoFtlConfig {
            flash,
            regions: vec![RegionSpec::new("default", chips, ipa_mode, over_provisioning)],
            fault_policy: FaultPolicy::default(),
        }
    }

    /// Validate chip assignments and mode compatibility.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        if self.regions.is_empty() {
            return Err("no regions configured".into());
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
    fn single_region_opens_with_inert_fault_handling() {
        let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
        assert!(!cfg.flash.fault.is_active());
        assert_eq!(cfg.fault_policy, FaultPolicy::default());
        crate::NoFtl::new(cfg).unwrap();
    }

    /// Every configuration `NoFtl::new` refuses, each by the check that
    /// names it.
    #[test]
    fn invalid_configurations_are_rejected() {
        let base = || NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
        let with = |edit: fn(&mut NoFtlConfig)| {
            let mut cfg = base();
            edit(&mut cfg);
            cfg
        };
        let cases = [
            ("no regions", with(|c| c.regions.clear()), "no regions"),
            ("no chips", with(|c| c.regions[0].chips.clear()), "has no chips"),
            ("chip out of range", with(|c| c.regions[0].chips = vec![99]), "out of range"),
            (
                "chip in two regions",
                with(|c| c.regions.push(RegionSpec::new("dup", [0], IpaMode::Slc, 0.1))),
                "multiple regions",
            ),
            (
                "mode for another cell",
                with(|c| c.regions[0].ipa_mode = IpaMode::PSlc),
                "incompatible",
            ),
            ("OP too high", with(|c| c.regions[0].over_provisioning = 0.95), "out of [0, 0.9)"),
            ("OP negative", with(|c| c.regions[0].over_provisioning = -0.1), "out of [0, 0.9)"),
            ("scrub too high", with(|c| c.fault_policy.scrub_threshold = 1.5), "out of [0, 1]"),
            ("scrub negative", with(|c| c.fault_policy.scrub_threshold = -0.1), "out of [0, 1]"),
            (
                "too few spare blocks",
                with(|c| c.regions[0].over_provisioning = 0.01),
                "spare blocks per chip",
            ),
        ];
        for (what, cfg, expected) in cases {
            match crate::NoFtl::new(cfg) {
                Err(crate::NoFtlError::BadConfig(msg)) => {
                    assert!(msg.contains(expected), "{what}: {msg:?} lacks {expected:?}")
                }
                other => panic!("{what}: expected BadConfig, got {other:?}"),
            }
        }
    }
}
