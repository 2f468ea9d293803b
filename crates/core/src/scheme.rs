//! The `[N×M]` scheme: the paper's control knob for in-place appends.
//!
//! §6: *"N is the maximum number of possible subsequent In-Place Appends
//! (delta-records), while M is the maximum number of changed bytes per
//! update. If more than M bytes were changed or N delta-records were already
//! appended, the page is written out-of-place."* `V` bounds the changed
//! metadata bytes per record (header + footer); in practice `V ≤ 12` for
//! Shore-MT under OLTP workloads.

/// Upper bound on `M` established by the paper's workload analysis (§6.1,
/// Appendix A): even LinkBench-style social-graph updates stay below 125
/// gross bytes at the ~50th percentile.
pub const MAX_M: u16 = 125;

/// An `[N×M]` configuration with its metadata budget `V`.
///
/// `NxM::disabled()` (`[0×0]`) represents the traditional approach without
/// in-place appends — the paper's baseline columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NxM {
    /// Maximum delta records per page (0 disables IPA).
    pub n: u16,
    /// Maximum changed *body* bytes per delta record.
    pub m: u16,
    /// Maximum changed *metadata* bytes per delta record.
    pub v: u16,
}

impl NxM {
    /// A scheme with the given N, M and V.
    pub fn new(n: u16, m: u16, v: u16) -> Self {
        NxM { n, m, v }
    }

    /// The `[0×0]` baseline: no delta area, every write out-of-place.
    pub fn disabled() -> Self {
        NxM { n: 0, m: 0, v: 0 }
    }

    /// The paper's TPC-C configuration `[2×3]` with `V = 12`.
    pub fn tpcc() -> Self {
        NxM { n: 2, m: 3, v: 12 }
    }

    /// The paper's TPC-B configuration `[2×4]` with `V = 12`.
    pub fn tpcb() -> Self {
        NxM { n: 2, m: 4, v: 12 }
    }

    /// A LinkBench-style configuration `[2×125]` with `V = 12`.
    pub fn linkbench() -> Self {
        NxM { n: 2, m: 125, v: 12 }
    }

    /// Whether in-place appends are enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.n > 0
    }

    /// Size of one delta record slot: `1 + 3M + 3V` (§6.1 — control byte
    /// plus a 3-byte `<new_value, offset>` pair per body and metadata byte).
    pub fn delta_record_size(&self) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        1 + 3 * self.m as usize + 3 * self.v as usize
    }

    /// Size of the whole delta-record area: `N * (1 + 3M + 3V)` (§6.1).
    pub fn delta_area_size(&self) -> usize {
        self.n as usize * self.delta_record_size()
    }

    /// Fraction of a page the delta area consumes (the paper's red "space
    /// overhead" numbers in Tables 3 and 5).
    pub fn space_overhead(&self, page_size: usize) -> f64 {
        self.delta_area_size() as f64 / page_size as f64
    }

    /// Byte offset of delta-record slot `i` within the delta area.
    pub fn slot_offset(&self, i: u16) -> usize {
        i as usize * self.delta_record_size()
    }

    /// Remaining byte capacity `C_p = (N − N_E) · M` after `n_existing`
    /// records have already been appended (§6.2).
    pub fn remaining_capacity(&self, n_existing: u16) -> usize {
        (self.n.saturating_sub(n_existing)) as usize * self.m as usize
    }

    /// Number of delta records needed to cover `changed_body_bytes`
    /// (`⌈U/M⌉`). An empty update needs zero records: callers modelling a
    /// flush that also carries metadata-only changes must add their one
    /// mandatory record themselves (`.max(1)`), since that record is a
    /// property of the flush, not of the body size.
    pub fn records_needed(&self, changed_body_bytes: usize) -> usize {
        if changed_body_bytes == 0 {
            return 0;
        }
        if self.m == 0 {
            return usize::MAX;
        }
        changed_body_bytes.div_ceil(self.m as usize)
    }
}

impl std::fmt::Display for NxM {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}x{}]", self.n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2x3_v12() {
        // §6.1 example: delta record = 1 + 3*3 + 3*12 = 46 bytes,
        // area = 92 bytes, 2.2% of a 4KB page.
        let s = NxM::tpcc();
        assert_eq!(s.delta_record_size(), 46);
        assert_eq!(s.delta_area_size(), 92);
        let overhead = s.space_overhead(4096);
        assert!((overhead - 0.0225).abs() < 0.001, "overhead {overhead}");
    }

    #[test]
    fn disabled_scheme_is_zero_cost() {
        let s = NxM::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.delta_record_size(), 0);
        assert_eq!(s.delta_area_size(), 0);
        assert_eq!(s.remaining_capacity(0), 0);
    }

    #[test]
    fn remaining_capacity_follows_paper_formula() {
        let s = NxM::new(3, 10, 4);
        assert_eq!(s.remaining_capacity(0), 30);
        assert_eq!(s.remaining_capacity(1), 20);
        assert_eq!(s.remaining_capacity(3), 0);
        assert_eq!(s.remaining_capacity(5), 0); // saturates
    }

    #[test]
    fn records_needed_rounds_up() {
        let s = NxM::new(3, 4, 2);
        // An empty update covers zero records; the flush-time "at least
        // one record once anything changed" rule lives at the call sites.
        assert_eq!(s.records_needed(0), 0);
        assert_eq!(s.records_needed(1), 1);
        assert_eq!(s.records_needed(4), 1);
        assert_eq!(s.records_needed(5), 2);
        assert_eq!(s.records_needed(12), 3);
        // M = 0 can never cover a non-empty update.
        assert_eq!(NxM::disabled().records_needed(0), 0);
        assert_eq!(NxM::disabled().records_needed(7), usize::MAX);
    }

    #[test]
    fn slot_offsets_are_contiguous() {
        let s = NxM::new(3, 5, 2);
        let sz = s.delta_record_size();
        assert_eq!(s.slot_offset(0), 0);
        assert_eq!(s.slot_offset(1), sz);
        assert_eq!(s.slot_offset(2), 2 * sz);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NxM::tpcc().to_string(), "[2x3]");
        assert_eq!(NxM::disabled().to_string(), "[0x0]");
    }
}
