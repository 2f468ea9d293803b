//! One flash chip: an array of blocks plus wear bookkeeping.

use crate::block::Block;
use crate::geometry::FlashGeometry;

crate::counters! {
    /// Cumulative per-chip operation counters — the raw material of the
    /// chip-parallelism breakdown in the observability snapshots (skewed
    /// per-chip loads show up directly here).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChipCounters {
        /// Page reads dispatched to this chip.
        pub reads: u64,
        /// Page programs (full and partial) dispatched to this chip.
        pub programs: u64,
        /// Block erases dispatched to this chip.
        pub erases: u64,
        /// Total simulated time this chip spent executing operations, in
        /// nanoseconds. Compared against wall-clock span, this is the per-chip
        /// utilization gauge of the queued-I/O scheduler.
        pub busy_ns: u64,
    }
}

/// A single flash chip (the unit of I/O parallelism).
#[derive(Debug)]
pub(crate) struct Chip {
    blocks: Vec<Block>,
    counters: ChipCounters,
}

impl Chip {
    /// A chip with all blocks erased per the geometry.
    pub fn new(geometry: &FlashGeometry) -> Self {
        Chip {
            blocks: (0..geometry.blocks_per_chip)
                .map(|_| Block::new(geometry.pages_per_block, geometry.oob_size))
                .collect(),
            counters: ChipCounters::default(),
        }
    }

    /// Cumulative operation counters of this chip.
    pub fn counters(&self) -> ChipCounters {
        self.counters
    }

    /// Mutable counter access for the device's dispatch path.
    pub(crate) fn counters_mut(&mut self) -> &mut ChipCounters {
        &mut self.counters
    }

    /// Immutable block access.
    pub fn block(&self, block: u32) -> &Block {
        &self.blocks[block as usize]
    }

    /// Mutable block access for the device.
    pub(crate) fn block_mut(&mut self, block: u32) -> &mut Block {
        &mut self.blocks[block as usize]
    }

    /// Total erase cycles performed across all blocks of the chip.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(Block::erase_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CellType;
    use crate::page::SparePages;
    use crate::Counters;

    fn geom() -> FlashGeometry {
        FlashGeometry {
            chips: 1,
            blocks_per_chip: 3,
            pages_per_block: 4,
            page_size: 64,
            oob_size: 16,
            cell_type: CellType::Slc,
        }
    }

    #[test]
    fn fresh_chip_has_no_wear() {
        let c = Chip::new(&geom());
        assert_eq!(c.total_erases(), 0);
    }

    #[test]
    fn wear_metrics_track_erases() {
        let mut c = Chip::new(&geom());
        let mut spare = SparePages::new(64);
        c.block_mut(0).erase(0, 0, &mut spare).unwrap();
        c.block_mut(0).erase(0, 0, &mut spare).unwrap();
        c.block_mut(2).erase(0, 2, &mut spare).unwrap();
        assert_eq!(c.total_erases(), 3);
        assert_eq!(c.block(0).erase_count(), 2);
        assert_eq!(c.block(1).erase_count(), 0);
    }

    #[test]
    fn chip_counters_delta() {
        let a = ChipCounters { reads: 10, programs: 5, erases: 1, busy_ns: 900 };
        let b = ChipCounters { reads: 12, programs: 9, erases: 1, busy_ns: 2_400 };
        let d = b.delta_since(&a);
        assert_eq!(d, ChipCounters { reads: 2, programs: 4, erases: 0, busy_ns: 1_500 });
        assert_eq!(a.delta_since(&a), ChipCounters::default());
    }
}
