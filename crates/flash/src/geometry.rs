//! Physical organization of the simulated NAND flash array.
//!
//! Flash memory is a lattice of floating-gate cells: rows are *wordlines*,
//! columns are *bitlines* (paper §3, Figure 2). Cells sharing a wordline form
//! one (SLC) or two (MLC: LSB + MSB) pages; cells along a bitline form a
//! block, the erase unit. This module captures that organization as plain
//! data so the rest of the simulator can reason about page kinds, wordline
//! neighbourhoods (for program interference) and address arithmetic.

/// The cell technology of a flash chip.
///
/// The cell type determines how many bits a cell stores, the endurance limit
/// (P/E cycles before wear-out, paper §8.4 "Longevity") and whether a
/// wordline carries one page (SLC) or an LSB/MSB pair (MLC). TLC is modelled
/// with SLC-like page organization but TLC endurance, matching the paper's
/// Appendix C.3 assumption that 3D/TLC flash behaves like SLC/pSLC for the
/// purposes of in-place appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellType {
    /// Single-level cell: one bit per cell, two charge levels.
    Slc,
    /// Multi-level cell: two bits per cell, four charge levels, LSB/MSB pages.
    Mlc,
    /// Triple-level cell (3D NAND): three bits per cell, eight charge levels.
    Tlc,
}

impl CellType {
    /// Rated program/erase endurance in cycles (paper §8.4: 100k SLC,
    /// 10k MLC, 4k TLC).
    pub fn endurance_limit(self) -> u64 {
        match self {
            CellType::Slc => 100_000,
            CellType::Mlc => 10_000,
            CellType::Tlc => 4_000,
        }
    }

    /// Whether wordlines carry an LSB/MSB page pair.
    pub fn has_paired_pages(self) -> bool {
        matches!(self, CellType::Mlc)
    }

    /// Default maximum number of ISPP partial programs (appends) the
    /// simulator allows per page after the initial program.
    ///
    /// Real datasheets call this NOP (number of partial programs). The paper
    /// selects N = 2 or 3 "primarily based on Flash specifics" (§8.4) and
    /// reports no wear or interference issues on MLC with those values; we
    /// give SLC more headroom and MLC/TLC the conservative bound the paper's
    /// N×M choices stay within.
    pub fn max_appends(self) -> u32 {
        match self {
            CellType::Slc => 8,
            CellType::Mlc => 4,
            CellType::Tlc => 3,
        }
    }
}

/// Which half of an MLC wordline a page occupies.
///
/// Paper Appendix C.2: wordline N maps to the odd-numbered LSB page (2N−1)
/// and the even-numbered MSB page (2N+2) in the paper's 1-based numbering.
/// LSB pages program fast and tolerate in-place appends; MSB pages program
/// slowly and must always be written out-of-place (their four-threshold read
/// makes interference in appended regions observable). On SLC and TLC chips
/// every page reports [`PageKind::Lsb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Least-significant-bit page: fast program, append-capable.
    Lsb,
    /// Most-significant-bit page: slow program, out-of-place writes only.
    Msb,
}

/// Physical page address: chip, block within chip, page within block.
///
/// Dies and planes are folded into the chip dimension — the paper's
/// evaluation only exploits chip-level parallelism (16 emulated chips /
/// 8 dual-die OpenSSD packages with an effective parallelism of one), so a
/// flat `chip` axis loses nothing the experiments depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Chip index within the device.
    pub chip: u32,
    /// Block index within the chip.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Construct an address from its three components.
    pub fn new(chip: u32, block: u32, page: u32) -> Self {
        Ppa { chip, block, page }
    }
}

impl std::fmt::Display for Ppa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}/b{}/p{}", self.chip, self.block, self.page)
    }
}

/// Static geometry of a flash device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Number of independent chips (the unit of parallelism).
    pub chips: u32,
    /// Blocks per chip (the erase unit count).
    pub blocks_per_chip: u32,
    /// Pages per block (32–256 on real parts, paper §3).
    pub pages_per_block: u32,
    /// Main-area page size in bytes (2 KiB – 16 KiB on real parts).
    pub page_size: usize,
    /// Out-of-band (spare) area per page in bytes, used for ECC and
    /// mapping metadata.
    pub oob_size: usize,
    /// Cell technology.
    pub cell_type: CellType,
}

impl FlashGeometry {
    /// Total number of physical pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.chips as u64 * self.blocks_per_chip as u64 * self.pages_per_block as u64
    }

    /// Total main-area capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// The LSB/MSB kind of a page index within a block.
    ///
    /// Adopting the paper's Appendix C numbering shifted to 0-based indices:
    /// even page indices are LSB pages, odd indices are MSB pages. For SLC
    /// and TLC organizations every page is reported as LSB (append-capable).
    pub fn page_kind(&self, page: u32) -> PageKind {
        if self.cell_type.has_paired_pages() && page % 2 == 1 {
            PageKind::Msb
        } else {
            PageKind::Lsb
        }
    }

    /// The wordline index a page belongs to (identity on SLC/TLC, pairs of
    /// pages share a wordline on MLC).
    pub fn wordline_of(&self, page: u32) -> u32 {
        if self.cell_type.has_paired_pages() {
            page / 2
        } else {
            page
        }
    }

    /// Pages on the wordlines adjacent to `page`'s wordline (both LSB and
    /// MSB), the victims of program interference when `page` is
    /// (re-)programmed (paper Appendix C.2).
    pub fn neighbour_pages(&self, page: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.cell_type.has_paired_pages() {
            if page > 0 {
                out.push(page - 1);
            }
            if page + 1 < self.pages_per_block {
                out.push(page + 1);
            }
            return out;
        }
        let wl = self.wordline_of(page);
        for nwl in [wl.wrapping_sub(1), wl + 1] {
            if nwl == u32::MAX {
                continue;
            }
            for p in [nwl * 2, nwl * 2 + 1] {
                if p < self.pages_per_block && p != page {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Validate an address against this geometry.
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.chip < self.chips && ppa.block < self.blocks_per_chip && ppa.page < self.pages_per_block
    }

    /// Iterate over every valid physical page address.
    pub fn iter_pages(&self) -> impl Iterator<Item = Ppa> + '_ {
        let (chips, blocks, pages) = (self.chips, self.blocks_per_chip, self.pages_per_block);
        (0..chips).flat_map(move |c| {
            (0..blocks).flat_map(move |b| (0..pages).map(move |p| Ppa::new(c, b, p)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlc_geom() -> FlashGeometry {
        FlashGeometry {
            chips: 2,
            blocks_per_chip: 4,
            pages_per_block: 8,
            page_size: 4096,
            oob_size: 128,
            cell_type: CellType::Mlc,
        }
    }

    #[test]
    fn endurance_limits_match_paper() {
        assert_eq!(CellType::Slc.endurance_limit(), 100_000);
        assert_eq!(CellType::Mlc.endurance_limit(), 10_000);
        assert_eq!(CellType::Tlc.endurance_limit(), 4_000);
    }

    #[test]
    fn mlc_pages_alternate_lsb_msb() {
        let g = mlc_geom();
        assert_eq!(g.page_kind(0), PageKind::Lsb);
        assert_eq!(g.page_kind(1), PageKind::Msb);
        assert_eq!(g.page_kind(6), PageKind::Lsb);
        assert_eq!(g.page_kind(7), PageKind::Msb);
    }

    #[test]
    fn slc_pages_are_all_lsb() {
        let mut g = mlc_geom();
        g.cell_type = CellType::Slc;
        for p in 0..g.pages_per_block {
            assert_eq!(g.page_kind(p), PageKind::Lsb);
        }
    }

    #[test]
    fn wordline_pairs_on_mlc() {
        let g = mlc_geom();
        assert_eq!(g.wordline_of(0), 0);
        assert_eq!(g.wordline_of(1), 0);
        assert_eq!(g.wordline_of(2), 1);
        assert_eq!(g.wordline_of(3), 1);
    }

    #[test]
    fn neighbours_exclude_self_and_stay_in_block() {
        let g = mlc_geom();
        // Page 2 (wordline 1) neighbours wordlines 0 and 2 -> pages 0,1,4,5.
        let mut n = g.neighbour_pages(2);
        n.sort_unstable();
        assert_eq!(n, vec![0, 1, 4, 5]);
        // First wordline has only a successor neighbour wordline; the
        // same-wordline partner page is not an interference victim (paper
        // Appendix C.2 lists only WL29/WL31 pages for an update on WL30).
        let mut n0 = g.neighbour_pages(0);
        n0.sort_unstable();
        assert_eq!(n0, vec![2, 3]);
        // Last wordline has only a predecessor neighbour wordline.
        let mut nl = g.neighbour_pages(7);
        nl.sort_unstable();
        assert_eq!(nl, vec![4, 5]);
    }

    #[test]
    fn slc_neighbours_are_adjacent_pages() {
        let mut g = mlc_geom();
        g.cell_type = CellType::Slc;
        assert_eq!(g.neighbour_pages(0), vec![1]);
        assert_eq!(g.neighbour_pages(3), vec![2, 4]);
        assert_eq!(g.neighbour_pages(7), vec![6]);
    }

    #[test]
    fn totals_and_bounds() {
        let g = mlc_geom();
        assert_eq!(g.total_pages(), 2 * 4 * 8);
        assert_eq!(g.capacity_bytes(), 2 * 4 * 8 * 4096);
        assert!(g.contains(Ppa::new(1, 3, 7)));
        assert!(!g.contains(Ppa::new(2, 0, 0)));
        assert!(!g.contains(Ppa::new(0, 4, 0)));
        assert!(!g.contains(Ppa::new(0, 0, 8)));
        assert_eq!(g.iter_pages().count() as u64, g.total_pages());
    }

    #[test]
    fn ppa_display_is_compact() {
        assert_eq!(Ppa::new(1, 2, 3).to_string(), "c1/b2/p3");
    }
}
