//! Engine-level statistics: flush decisions, buffer behaviour and the
//! DB-level write-amplification accounting of the paper's Tables 4 and 5.

/// One I/O-relevant event for trace replay (e.g. through the In-Page
/// Logging baseline simulator of `ipa-ipl`, reproducing the paper's
/// Table 2 methodology of replaying identical traces on both systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A logical page was fetched from storage (buffer miss).
    Fetch {
        /// Region-local logical page number.
        page: u64,
    },
    /// A dirty logical page was flushed.
    Evict {
        /// Region-local logical page number.
        page: u64,
        /// Distinct bytes changed since the last flush (net, body +
        /// metadata).
        changed_bytes: u32,
        /// Whether this was the first write of a freshly allocated page
        /// (an append to a new page, not an update).
        fresh: bool,
    },
}

ipa_noftl::counters! {
    /// Cumulative counters of the storage engine.
    #[derive(Debug, Clone, Default)]
    pub struct EngineStats {
        /// Page fetch requests.
        pub fetches: u64,
        /// Fetches served from the buffer pool.
        pub hits: u64,
        /// Synchronous evictions (dirty victim flushed on the fetch path).
        pub evictions: u64,
        /// Dirty-page flushes that became in-place appends.
        pub ipa_flushes: u64,
        /// Dirty-page flushes written out-of-place.
        pub oop_flushes: u64,
        /// Delta records appended across all IPA flushes.
        pub delta_records_written: u64,
        /// Pages flushed by the background cleaner.
        pub cleaner_flushes: u64,
        /// Log-space reclamation rounds.
        pub log_reclaims: u64,
        /// Checkpoints taken.
        pub checkpoints: u64,
        /// Committed transactions.
        pub commits: u64,
        /// Aborted transactions.
        pub aborts: u64,
        /// Transactions aborted by dropping a [`crate::Txn`] guard without an
        /// explicit commit/abort (RAII auto-abort; a subset of `aborts`).
        pub drop_aborts: u64,
        /// Rollbacks that themselves failed (the abort path returned an
        /// error). The transaction is finished either way, but harnesses can
        /// assert the failure was observed rather than silently dropped.
        pub abort_errors: u64,
        /// Real WAL forces: [`crate::Wal::flush_to`] calls on the commit path
        /// that actually advanced the durable horizon. Group commit amortizes
        /// these — `wal_forces / commits` is the headline metric of the
        /// `group_commit_sweep` harness.
        pub wal_forces: u64,
        /// Commit requests parked in the group-commit stage (deferred ack).
        pub tx_parked: u64,
        /// Group-commit batches flushed (each acknowledges >= 1 parked
        /// transaction with a single log force).
        pub group_commits: u64,
        /// Lock conflicts resolved as "wait" under the wait-die policy (the
        /// older requester parked and retried).
        pub lock_waits: u64,
        /// Lock conflicts resolved as "die" under the wait-die policy (the
        /// younger requester restarted) — deadlock-avoidance aborts.
        pub deadlock_aborts: u64,
        /// Net changed bytes across all dirty-page flushes (body + metadata) —
        /// the denominator of the paper's DB write amplification.
        pub net_changed_bytes: u64,
        /// Gross bytes written to storage (full page size per out-of-place
        /// write, encoded delta-record size per append) — the numerator.
        pub gross_written_bytes: u64,
        /// ECC sections verified on fetch.
        pub ecc_verified: u64,
        /// Redo-path read retries after an uncorrectable-ECC fetch failure.
        pub read_retries: u64,
        /// Pages whose flash residency stayed unreadable after retry and were
        /// rebuilt purely from the WAL redo history during recovery.
        pub recovery_page_rebuilds: u64,
        /// Advisor re-tune epochs executed by background work (adaptive IPA).
        pub retune_epochs: u64,
        /// Region scheme transitions committed by the advisor (adaptive IPA).
        pub scheme_changes: u64,
        /// Resident pages re-laid-out to their region's current scheme on the
        /// flush path after a scheme change (adaptive IPA).
        pub scheme_upgrades: u64,
        /// Simulated nanoseconds spent inside the most recent restart
        /// (analysis + redo + undo). Cumulative across restarts, like every
        /// other counter; a single-crash run reads it directly as MTTR.
        pub recovery_ns: u64,
        /// Log records scanned by restart analysis (from the checkpoint's
        /// Begin LSN, or the log tail when no checkpoint is usable).
        pub analysis_records: u64,
        /// Redo actions actually re-applied during restart.
        pub redo_applied: u64,
        /// Redo actions skipped by the dirty-page-table filter (target page
        /// absent from the DPT, or record LSN below the page's recLSN).
        pub redo_skipped: u64,
    }
}

impl EngineStats {
    /// Buffer hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.hits as f64 / self.fetches as f64
        }
    }

    /// Fraction of dirty-page flushes served as in-place appends (the
    /// `Out-of-Place Writes vs. In-Place Appends` row).
    pub fn ipa_flush_fraction(&self) -> f64 {
        let total = self.ipa_flushes + self.oop_flushes;
        if total == 0 {
            0.0
        } else {
            self.ipa_flushes as f64 / total as f64
        }
    }

    /// DB-level write amplification: gross written / net changed (§8.4,
    /// "DB I/O Write Amplification").
    pub fn write_amplification(&self) -> f64 {
        if self.net_changed_bytes == 0 {
            0.0
        } else {
            self.gross_written_bytes as f64 / self.net_changed_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = EngineStats {
            fetches: 100,
            hits: 80,
            ipa_flushes: 30,
            oop_flushes: 10,
            net_changed_bytes: 100,
            gross_written_bytes: 4000,
            ..EngineStats::default()
        };
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((s.ipa_flush_fraction() - 0.75).abs() < 1e-12);
        assert!((s.write_amplification() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn zero_safe() {
        let s = EngineStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.ipa_flush_fraction(), 0.0);
        assert_eq!(s.write_amplification(), 0.0);
    }
}
