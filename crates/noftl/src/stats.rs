//! Per-region operation counters.
//!
//! These mirror the row labels of the paper's Tables 6–10 so harnesses can
//! print them directly. Device-global latency histograms live in
//! [`ipa_flash::FlashStats`]; the region layer counts logical operations.

ipa_flash::counters! {
    /// Counters for one region.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RegionStats {
        /// Host page reads (`Host Reads`).
        pub host_reads: u64,
        /// Host out-of-place page writes (`Out-of-Place Writes`).
        pub host_page_writes: u64,
        /// Host in-place appends (`In-Place Appends` / delta writes).
        pub host_delta_writes: u64,
        /// Bytes of delta payload appended.
        pub delta_bytes: u64,
        /// Valid-page migrations performed by the garbage collector
        /// (`GC Page Migrations`).
        pub gc_page_migrations: u64,
        /// Block erases performed by the garbage collector (`GC Erases`).
        pub gc_erases: u64,
        /// Erases performed by static wear leveling.
        pub wear_level_erases: u64,
        /// Page moves performed by static wear leveling.
        pub wear_level_migrations: u64,
        /// Logical pages trimmed.
        pub trims: u64,
        /// Transiently-failed programs retried on the same page.
        pub program_retries: u64,
        /// Failed delta appends recovered as full out-of-place page writes.
        pub delta_fallbacks: u64,
        /// Correct-and-Refresh operations scheduled by the scrubber after a
        /// heavily-corrected read.
        pub scrub_refreshes: u64,
        /// Completions that themselves failed while draining the in-flight GC
        /// read batch after a mid-migration error (the drain is best-effort so
        /// the first error can propagate; later failures are counted here).
        pub gc_drain_failures: u64,
    }
}

impl RegionStats {
    /// Total host write requests (`Host Writes` — full pages + deltas).
    pub fn host_writes(&self) -> u64 {
        self.host_page_writes + self.host_delta_writes
    }

    /// Fraction of host writes served as in-place appends — the first row
    /// of Tables 6–10 (`Out-of-Place Writes vs. In-Place Appends`).
    pub fn ipa_fraction(&self) -> f64 {
        let total = self.host_writes();
        if total == 0 {
            0.0
        } else {
            self.host_delta_writes as f64 / total as f64
        }
    }

    /// `GC Page Migrations per Host Write`.
    pub fn migrations_per_host_write(&self) -> f64 {
        let hw = self.host_writes();
        if hw == 0 {
            0.0
        } else {
            self.gc_page_migrations as f64 / hw as f64
        }
    }

    /// `GC Erases per Host Write`.
    pub fn erases_per_host_write(&self) -> f64 {
        let hw = self.host_writes();
        if hw == 0 {
            0.0
        } else {
            self.gc_erases as f64 / hw as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::Counters;

    #[test]
    fn derived_ratios() {
        let s = RegionStats {
            host_page_writes: 33,
            host_delta_writes: 67,
            gc_page_migrations: 50,
            gc_erases: 10,
            ..RegionStats::default()
        };
        assert_eq!(s.host_writes(), 100);
        assert!((s.ipa_fraction() - 0.67).abs() < 1e-12);
        assert!((s.migrations_per_host_write() - 0.5).abs() < 1e-12);
        assert!((s.erases_per_host_write() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RegionStats::default();
        assert_eq!(s.ipa_fraction(), 0.0);
        assert_eq!(s.migrations_per_host_write(), 0.0);
    }

    #[test]
    fn delta_since_is_interval_and_identity_is_zero() {
        let a = RegionStats { host_reads: 5, gc_erases: 2, ..RegionStats::default() };
        let b = RegionStats { host_reads: 9, gc_erases: 2, trims: 1, ..RegionStats::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.host_reads, 4);
        assert_eq!(d.gc_erases, 0);
        assert_eq!(d.trims, 1);
        assert_eq!(b.delta_since(&b), RegionStats::default());
    }
}
