//! Error taxonomy of the flash simulator.

use crate::geometry::Ppa;
use crate::sched::CmdId;

/// Everything that can go wrong at the flash chip interface.
///
/// The interesting variant for the paper's argument is
/// [`FlashError::IsppViolation`]: the simulator *physically enforces* the
/// monotone-charge rule, so an engine bug that tried to overwrite programmed
/// cells in place (the thing conventional SSDs must avoid with out-of-place
/// updates, §3) fails loudly instead of silently corrupting data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Address outside the configured geometry.
    AddressOutOfRange(Ppa),
    /// Byte range outside the page main or OOB area.
    RangeOutOfPage {
        /// Offending address.
        ppa: Ppa,
        /// Requested start offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Size of the addressed area.
        area: usize,
    },
    /// Full-page program issued to a page that is not in the erased state.
    ProgramNotErased(Ppa),
    /// A (partial) program would require a `0 → 1` bit transition, i.e. a
    /// charge decrease, which only a block erase can perform.
    IsppViolation {
        /// Offending address.
        ppa: Ppa,
        /// First page-relative byte offset at which the violation occurred.
        offset: usize,
        /// Cell value currently on flash at that offset.
        old: u8,
        /// Value the program attempted to set.
        new: u8,
    },
    /// Partial program issued to a page exceeding the chip's partial-program
    /// budget (NOP); real parts lose data integrity past this point.
    AppendBudgetExceeded {
        /// Offending address.
        ppa: Ppa,
        /// Appends already performed on the page.
        performed: u32,
        /// Configured maximum.
        max: u32,
    },
    /// Read of a page that has never been programmed since the last erase.
    /// Reads of erased pages are permitted by hardware (they return `0xFF`),
    /// but the simulator flags them because the management layer should
    /// never fetch unmapped pages.
    ReadOfErasedPage(Ppa),
    /// Read, append, refresh or copy-back of a stale page: one whose bytes a
    /// copy-back program moved to another page, or that the management
    /// layer discarded. Its cells stay charged, but the device holds nothing
    /// there to return: the page is unusable until its block is erased.
    PageStale(Ppa),
    /// Erase issued to a block that already reached its endurance limit.
    BlockWornOut {
        /// Chip index.
        chip: u32,
        /// Block index.
        block: u32,
        /// Erase cycles performed.
        cycles: u64,
    },
    /// Completion requested for a command id that is neither in flight nor
    /// retired (never submitted, or already consumed).
    UnknownCommand(CmdId),
    /// Uncorrectable bit errors remained after ECC correction.
    UncorrectableEcc {
        /// Offending address.
        ppa: Ppa,
        /// Bit errors detected in the read unit.
        bit_errors: u32,
        /// Correction capability of the configured code.
        correctable: u32,
    },
    /// The chip reported program-status failure: the page contents are
    /// undefined and the host must recover (retry, or retire the block and
    /// remap the write elsewhere).
    ProgramFailed {
        /// Offending address.
        ppa: Ppa,
        /// Whether the fault is permanent: the block is grown bad and has
        /// been retired by the device; further programs/erases are refused.
        /// Transient faults may succeed on retry.
        permanent: bool,
    },
    /// The chip reported erase-status failure: the block did not reach the
    /// erased state. The device retires the block (grown bad); the host
    /// must drop it from the free pool.
    EraseFailed {
        /// Chip index.
        chip: u32,
        /// Block index.
        block: u32,
    },
    /// Operation issued to a block already retired as grown bad (a prior
    /// program/erase failure was permanent).
    BlockRetired {
        /// Chip index.
        chip: u32,
        /// Block index.
        block: u32,
    },
    /// An internal simulator invariant did not hold (a bug in the flash
    /// layer itself, not a caller error); the operation is abandoned
    /// instead of panicking.
    Internal(&'static str),
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::AddressOutOfRange(ppa) => {
                write!(f, "physical address {ppa} outside device geometry")
            }
            FlashError::RangeOutOfPage { ppa, offset, len, area } => write!(
                f,
                "range [{offset}, {}) exceeds {area}-byte area of page {ppa}",
                offset + len
            ),
            FlashError::ProgramNotErased(ppa) => {
                write!(f, "full-page program to non-erased page {ppa}")
            }
            FlashError::IsppViolation { ppa, offset, old, new } => write!(
                f,
                "ISPP violation on {ppa} at byte {offset}: {old:#04x} -> {new:#04x} \
                 requires a charge decrease (0->1 bit transition)"
            ),
            FlashError::AppendBudgetExceeded { ppa, performed, max } => write!(
                f,
                "partial-program budget exceeded on {ppa}: {performed} appends performed, max {max}"
            ),
            FlashError::ReadOfErasedPage(ppa) => {
                write!(f, "read of erased (never programmed) page {ppa}")
            }
            FlashError::PageStale(ppa) => {
                write!(f, "page {ppa} is stale (moved or discarded); unusable until erased")
            }
            FlashError::BlockWornOut { chip, block, cycles } => {
                write!(f, "block c{chip}/b{block} worn out after {cycles} P/E cycles")
            }
            FlashError::UnknownCommand(id) => {
                write!(f, "completion requested for unknown command {id}")
            }
            FlashError::UncorrectableEcc { ppa, bit_errors, correctable } => write!(
                f,
                "uncorrectable ECC on {ppa}: {bit_errors} bit errors, code corrects {correctable}"
            ),
            FlashError::ProgramFailed { ppa, permanent } => write!(
                f,
                "program-status failure on {ppa} ({})",
                if *permanent { "permanent, block retired" } else { "transient" }
            ),
            FlashError::EraseFailed { chip, block } => {
                write!(f, "erase-status failure on c{chip}/b{block}, block retired")
            }
            FlashError::BlockRetired { chip, block } => {
                write!(f, "operation on retired (grown bad) block c{chip}/b{block}")
            }
            FlashError::Internal(msg) => write!(f, "internal flash invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e =
            FlashError::IsppViolation { ppa: Ppa::new(0, 1, 2), offset: 7, old: 0x00, new: 0x01 };
        let msg = e.to_string();
        assert!(msg.contains("ISPP violation"));
        assert!(msg.contains("c0/b1/p2"));
        assert!(msg.contains("byte 7"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = FlashError::ProgramNotErased(Ppa::new(0, 0, 0));
        let b = FlashError::ProgramNotErased(Ppa::new(0, 0, 0));
        assert_eq!(a, b);
    }
}
