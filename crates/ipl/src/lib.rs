//! # ipa-ipl — the In-Page Logging baseline (Lee & Moon, SIGMOD 2007)
//!
//! A reimplementation of the IPL simulator the paper compares against in
//! §8.3 / Table 2, using the original configuration:
//!
//! * logical DB pages of 8 KiB spanning four 2 KiB physical flash pages;
//! * SLC flash with 64 physical pages per erase unit, supporting 512 B
//!   partial writes;
//! * per logical page an in-memory *log sector* of 512 B accumulating
//!   update log entries;
//! * per erase unit an 8 KiB *log region*: 15 logical pages + log region
//!   fill one erase unit;
//! * when a log sector fills, or its page is evicted, the sector is
//!   written to the owning erase unit's log region (one physical I/O);
//! * when a log region fills, the erase unit is **merged**: all 16 logical
//!   pages' worth of physical pages are read, combined with their log
//!   records, written to a fresh erase unit, and the old unit is erased.
//!   Merges are blocking and independent of free space (§2.1, claim 2).
//!
//! The module also implements both Appendix B formula sets
//! ([`Amplification::ipl`] and [`Amplification::ipa`]) so the Table 2
//! harness can replay *the same* engine trace through both models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Held by clippy (CI runs it with `-D warnings`): a `Result` is never
// swallowed outside test code.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod hybrid;
mod sim;

pub use hybrid::{HybridConfig, HybridFtl, HybridStats};
pub use sim::{Amplification, IplConfig, IplSimulator, IplStats};

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_engine::TraceEvent;

    fn updates(page: u64, n: usize, bytes: u32) -> Vec<TraceEvent> {
        let mut out = vec![TraceEvent::Evict { page, changed_bytes: 100, fresh: true }];
        for _ in 0..n {
            out.push(TraceEvent::Fetch { page });
            out.push(TraceEvent::Evict { page, changed_bytes: bytes, fresh: false });
        }
        out
    }

    #[test]
    fn small_updates_accumulate_in_log_sector() {
        let mut sim = IplSimulator::new(IplConfig::paper());
        // 10-byte entries + 4B header: far below a 512B sector, so no
        // imlog-full flush occurs — but every eviction flushes its sector.
        sim.replay(&updates(0, 10, 10));
        let s = sim.stats();
        assert_eq!(s.log_sector_writes, 10);
        assert_eq!(s.imlog_full_writes, 0);
        // 10 sectors of 512B < the 8 KiB log region: no merge yet.
        assert_eq!(s.merges, 0);
        assert_eq!(s.page_fetches, 10);
    }

    #[test]
    fn log_region_overflow_triggers_merge() {
        let cfg = IplConfig::paper();
        let sector_capacity = cfg.log_region_bytes / cfg.log_sector_bytes; // 16
        let mut sim = IplSimulator::new(cfg);
        // Each eviction writes one 512B sector; 16 sectors fill the 8KiB
        // log region -> merge on the 17th flush.
        sim.replay(&updates(0, 17, 10));
        assert_eq!(sim.stats().merges, 1);
        assert_eq!(sim.stats().erases, 1);
        assert!(sim.stats().log_sector_writes >= sector_capacity as u64);
    }

    #[test]
    fn pages_of_different_blocks_do_not_interfere() {
        let cfg = IplConfig::paper();
        let mut sim = IplSimulator::new(cfg);
        // Page 0 in block 0, page 20 in block 1 (15 logical pages/block).
        let mut trace = updates(0, 8, 10);
        trace.extend(updates(20, 8, 10));
        sim.replay(&trace);
        assert_eq!(sim.stats().merges, 0);
    }

    #[test]
    fn big_update_spills_multiple_sectors() {
        let mut sim = IplSimulator::new(IplConfig::paper());
        // 1200 changed bytes -> 3 sectors (2 full on the way + flush at evict).
        sim.replay(&updates(0, 1, 1200));
        assert!(sim.stats().log_sector_writes >= 3);
    }

    #[test]
    fn appendix_b_formulas_match_hand_computation() {
        // Hand-check WA_IPL with: 1 merge, 3 imlog-full flushes,
        // 10 evictions, 20 fetches, ppl = 4.
        let stats = IplStats {
            merges: 1,
            erases: 1,
            imlog_full_writes: 3,
            page_evictions: 10,
            page_fetches: 20,
            log_sector_writes: 13,
            phys_reads: 0,
            phys_writes: 0,
            initial_writes: 0,
        };
        let amp = Amplification::ipl(&stats, 4, 15);
        // WA = (1*15*4 + 3 + 10) / (10*4) = 73/40
        assert!((amp.write - 73.0 / 40.0).abs() < 1e-9);
        // RA = (20*2*4 + 1*16*4) / (20*4) = 224/80
        assert!((amp.read - 224.0 / 80.0).abs() < 1e-9);
    }

    #[test]
    fn ipa_formulas_match_hand_computation() {
        // WA_IPA = (deltas*1 + oop*4 + migrations*4) / (evictions*4)
        let amp = Amplification::ipa(50, 50, 10, 100, 200, 4);
        assert!((amp.write - (50.0 + 200.0 + 40.0) / 400.0).abs() < 1e-9);
        // RA_IPA = (fetches*4 + migrations*4) / (fetches*4)
        assert!((amp.read - (800.0 + 40.0) / 800.0).abs() < 1e-9);
    }

    #[test]
    fn ipl_reads_amplify_by_factor_two() {
        // Claim 1 of §2.1: every IPL fetch reads the log region too.
        let mut sim = IplSimulator::new(IplConfig::paper());
        sim.replay(&updates(3, 50, 8));
        let amp = sim.amplification();
        assert!(amp.read >= 2.0, "read amplification {}", amp.read);
    }
}
