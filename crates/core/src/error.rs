//! Error taxonomy of the IPA core.

/// Errors surfaced by page-layout, delta-record and tracking operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Page buffer does not match the expected size or carries a bad magic.
    InvalidPage(String),
    /// The page is too large for two-byte offsets below the delta records'
    /// "unused pair" marker `0xFFFF`.
    PageTooLarge {
        /// Configured page size.
        page_size: usize,
    },
    /// The [N×M] scheme's delta area does not fit the page alongside the
    /// minimum body and footer space.
    SchemeDoesNotFit {
        /// Configured page size.
        page_size: usize,
        /// Bytes the delta area would need.
        delta_area: usize,
    },
    /// A tuple operation could not be satisfied from the page's free space.
    PageFull {
        /// Bytes requested.
        needed: usize,
        /// Contiguous bytes available after compaction.
        available: usize,
    },
    /// Slot id out of range or pointing at a deleted tuple.
    BadSlot(u16),
    /// A delta record failed to decode (corrupt control byte or pair).
    CorruptDelta(String),
    /// More delta records present than the scheme's N allows.
    TooManyDeltas {
        /// Records found.
        found: u32,
        /// Scheme maximum.
        max: u32,
    },
    /// An encoded delta record would exceed its fixed slot size.
    DeltaTooLarge {
        /// Body pairs requested.
        body: usize,
        /// Meta pairs requested.
        meta: usize,
        /// Scheme limits.
        limit: (u16, u16),
    },
    /// ECC verification failed for a page section.
    EccMismatch {
        /// Which section failed (0 = initial image, i = delta record i).
        section: u32,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidPage(msg) => write!(f, "invalid page: {msg}"),
            CoreError::PageTooLarge { page_size } => {
                write!(f, "{page_size}-byte page: at most {} bytes are addressable", u16::MAX)
            }
            CoreError::SchemeDoesNotFit { page_size, delta_area } => {
                write!(f, "delta area of {delta_area} bytes does not fit a {page_size}-byte page")
            }
            CoreError::PageFull { needed, available } => {
                write!(f, "page full: need {needed} bytes, {available} available")
            }
            CoreError::BadSlot(s) => write!(f, "bad slot id {s}"),
            CoreError::CorruptDelta(msg) => write!(f, "corrupt delta record: {msg}"),
            CoreError::TooManyDeltas { found, max } => {
                write!(f, "{found} delta records exceed scheme maximum {max}")
            }
            CoreError::DeltaTooLarge { body, meta, limit } => write!(
                f,
                "delta with {body} body / {meta} meta pairs exceeds [{}x{}] limits",
                limit.0, limit.1
            ),
            CoreError::EccMismatch { section } => write!(f, "ECC mismatch in section {section}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::PageFull { needed: 100, available: 40 };
        assert!(e.to_string().contains("need 100"));
        let e = CoreError::SchemeDoesNotFit { page_size: 4096, delta_area: 5000 };
        assert!(e.to_string().contains("5000"));
    }
}
