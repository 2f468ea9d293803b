//! Error taxonomy of the NoFTL layer.

use ipa_flash::FlashError;

use crate::region::Lba;

/// Errors surfaced by the flash-management layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoFtlError {
    /// Underlying flash operation failed.
    Flash(FlashError),
    /// Read or delta-write of a logical page that was never written.
    Unmapped(Lba),
    /// Logical address beyond the region's exported capacity.
    LbaOutOfRange {
        /// Offending address.
        lba: Lba,
        /// Exported logical pages.
        capacity: u64,
    },
    /// `write_delta` to a page whose current residency cannot take appends
    /// (MSB page in odd-MLC mode, IPA disabled for the region, or append
    /// budget used up).
    AppendNotAllowed {
        /// Offending address.
        lba: Lba,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// No free blocks left even after garbage collection — the region is
    /// over-committed.
    DeviceFull {
        /// Region name.
        region: String,
    },
    /// Invalid configuration (chip overlap, wrong cell type for a mode,
    /// zero capacity, ...).
    BadConfig(String),
    /// Region id out of range.
    BadRegion(usize),
    /// An internal mapping invariant did not hold (a bug in the NoFTL
    /// layer itself, not a caller error); the operation is abandoned
    /// instead of panicking.
    Internal(&'static str),
}

impl NoFtlError {
    /// Whether this is an uncorrectable-ECC read failure (the page's raw
    /// bit-error count exceeded the ECC capability). Exposed so upper
    /// layers can route the error into read-retry / rebuild paths without
    /// naming `ipa_flash` types (the engine does not depend on `ipa-flash`).
    pub fn is_uncorrectable_ecc(&self) -> bool {
        matches!(self, NoFtlError::Flash(FlashError::UncorrectableEcc { .. }))
    }
}

impl From<FlashError> for NoFtlError {
    fn from(e: FlashError) -> Self {
        NoFtlError::Flash(e)
    }
}

impl std::fmt::Display for NoFtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoFtlError::Flash(e) => write!(f, "flash: {e}"),
            NoFtlError::Unmapped(lba) => write!(f, "logical page {} is unmapped", lba.0),
            NoFtlError::LbaOutOfRange { lba, capacity } => {
                write!(f, "lba {} outside capacity {capacity}", lba.0)
            }
            NoFtlError::AppendNotAllowed { lba, reason } => {
                write!(f, "write_delta to lba {} not allowed: {reason}", lba.0)
            }
            NoFtlError::DeviceFull { region } => {
                write!(f, "region '{region}' has no free blocks")
            }
            NoFtlError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            NoFtlError::BadRegion(id) => write!(f, "bad region id {id}"),
            NoFtlError::Internal(msg) => write!(f, "internal noftl invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for NoFtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: NoFtlError = FlashError::ProgramNotErased(ipa_flash::Ppa::new(0, 0, 0)).into();
        assert!(e.to_string().contains("flash:"));
        let e = NoFtlError::AppendNotAllowed { lba: Lba(9), reason: "msb page" };
        assert!(e.to_string().contains("lba 9"));
    }
}
