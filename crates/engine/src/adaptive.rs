//! Online adaptive IPA: the re-tune epoch that moves a region to the
//! `[N×M]` scheme its eviction profile asks for.
//!
//! A re-tune changes only the region's layout in the pager. Pages already
//! on flash keep the scheme their header names — a GC or wear-leveling
//! migration moves them verbatim, OOB included — and take the region's
//! current layout on their next out-of-place flush.
//!
//! [`Adaptive`]'s fields are private to this file; the pager asks whether
//! there is one and nothing else.

use ipa_core::{AdvisorGoal, IpaAdvisor, PageLayout};
use ipa_noftl::{EventKind, FlashConfig};

use crate::db::{Database, DbConfig};

/// Online adaptive IPA; the engine holds one iff `advisor_epoch_ns > 0`, and
/// without it behaves bit-identically to the static-scheme engine.
pub(crate) struct Adaptive {
    /// Stateless advisor sized for this device.
    advisor: IpaAdvisor,
    /// Re-tune epochs completed.
    epoch: u64,
    /// Simulated clock at the last epoch.
    last_epoch_ns: u64,
}

impl Adaptive {
    /// The adaptive state `config` asks for on a device configured as
    /// `flash`.
    pub(crate) fn new(flash: &FlashConfig, config: &DbConfig) -> Option<Self> {
        if config.advisor_epoch_ns == 0 {
            return None;
        }
        let max_n = flash.max_appends().clamp(1, u16::MAX as u32) as u16;
        let advisor = IpaAdvisor::new(flash.geometry.page_size, max_n);
        Some(Adaptive { advisor, epoch: 0, last_epoch_ns: 0 })
    }
}

impl Database {
    /// Adaptive-IPA re-tune epoch's due-check: when `advisor_epoch_ns` of
    /// simulated time has passed since the last epoch, feed every region's
    /// eviction profile to the advisor, toward [`AdvisorGoal::Longevity`],
    /// and transition regions whose
    /// recommended scheme is predicted to beat the current one by more than
    /// the hysteresis margin. Profiles are windowed: each evaluated
    /// region's profile restarts so the next epoch sees the *current*
    /// workload phase, not its whole history.
    pub(crate) fn retune_if_due(&mut self) {
        /// Hysteresis: a region transitions only when the profile-predicted
        /// IPA hit rate of the recommended scheme exceeds the current
        /// scheme's by more than this margin.
        const HYSTERESIS: f64 = 0.05;
        let now = self.now_ns();
        let DbConfig { advisor_epoch_ns, advisor_min_observations, .. } = *self.config();
        let Some(state) = self.lost.adaptive.as_mut() else { return };
        if now.saturating_sub(state.last_epoch_ns) < advisor_epoch_ns {
            return;
        }
        state.epoch += 1;
        state.last_epoch_ns = now;
        let advisor = state.advisor;
        let epoch = state.epoch;
        self.kept.stats.retune_epochs += 1;
        for region in 0..self.ftl().region_count() {
            let profile = self.profile(region);
            if profile.observations() < advisor_min_observations {
                continue;
            }
            let rec = advisor.recommend(profile, AdvisorGoal::Longevity);
            let &PageLayout { scheme: current, page_size, .. } = self.layout(region);
            let gain =
                profile.predicted_hit_rate(&rec.scheme) - profile.predicted_hit_rate(&current);
            // The one guarded emit: the three percentiles are worth
            // computing only for an observer.
            if self.ftl().device().observing() {
                let snap = EventKind::ProfileSnapshot {
                    observations: profile.observations(),
                    body_p50: profile.body_percentile(50.0),
                    body_p95: profile.body_percentile(95.0),
                    meta_p99: profile.meta_percentile(99.0),
                };
                self.emit(snap, Some(region as u32), None);
            }
            if rec.scheme != current && gain > HYSTERESIS {
                if let Ok(new_layout) = PageLayout::new(page_size, rec.scheme) {
                    self.set_layout(region, new_layout);
                    self.kept.stats.scheme_changes += 1;
                    self.emit(
                        EventKind::SchemeChange {
                            epoch,
                            old: (current.n, current.m, current.v),
                            new: (rec.scheme.n, rec.scheme.m, rec.scheme.v),
                        },
                        Some(region as u32),
                        None,
                    );
                }
            }
            self.restart_profile(region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{adaptive_test_db, fill_and_flush, flushed_tuple};
    use ipa_core::{ecc, NxM};
    use ipa_noftl::{IpaMode, NoFtlConfig, RegionId};

    #[test]
    fn adaptive_retune_switches_scheme_and_keeps_old_pages_readable() {
        let epoch = 1_000_000u64;
        let mut db = adaptive_test_db(epoch, 8);
        let mut pids = Vec::new();
        let mut slots = Vec::new();
        for _ in 0..4 {
            let (pid, slot) = flushed_tuple(&mut db, &[0; 64]);
            pids.push(pid);
            slots.push(slot);
        }
        // A 24-byte-update phase: under [2x3] every flush is forced out of
        // place (records_needed(24) = 8 > 2) and feeds the profile.
        for round in 1..=4u8 {
            for (i, &pid) in pids.iter().enumerate() {
                fill_and_flush(&mut db, pid, slots[i], 24, round);
            }
        }
        assert_eq!(db.stats().ipa_flushes, 0);
        assert!(db.profile(0).observations() >= 8);

        db.advance_clock(epoch + 1);
        db.background_work().unwrap();
        assert_eq!(db.stats().retune_epochs, 1);
        assert_eq!(db.stats().scheme_changes, 1);
        let new_scheme = db.layout(0).scheme;
        assert_eq!(new_scheme.m, 24, "Longevity re-tune adopts the p85 update size");
        assert_eq!(db.profile(0).observations(), 0, "profile window restarts per epoch");

        // An old-scheme page dropped from the pool clean is still on flash
        // in [2x3]; the fetch path resolves its layout from the header.
        if let Some(idx) = db.pool_mut().index_of(pids[1]) {
            db.pool_mut().remove(idx);
        }
        let (m, tup) =
            db.with_page(pids[1], |p| (p.scheme().m, p.tuple(slots[1]).unwrap().to_vec())).unwrap();
        assert_eq!(m, 3, "old-scheme page readable via its header scheme tag");
        assert_eq!(&tup[..24], &[4u8; 24][..]);

        // The next out-of-place flush of a stale resident page carries it
        // to the new layout for free.
        fill_and_flush(&mut db, pids[0], slots[0], 24, 9);
        assert_eq!(db.stats().scheme_upgrades, 1);
        assert_eq!(db.with_page(pids[0], |p| p.scheme().m).unwrap(), 24);

        // Under the new scheme the same 24-byte update is an IPA hit.
        fill_and_flush(&mut db, pids[0], slots[0], 24, 10);
        assert!(db.stats().ipa_flushes >= 1, "phase-matched scheme turns the update into IPA");
    }

    #[test]
    fn ecc_verification_holds_across_a_scheme_change() {
        // `verify_ecc` and adaptive mode together: every fetch checks what
        // the two OOB writers left behind — `stage_flush`'s out-of-place
        // branch (tag + `EccInitial`) and its append branch (`EccDelta(i)`)
        // — on pages of the old scheme and of the new one, including pages
        // a wear-leveling migration moved verbatim.
        let mut flash = FlashConfig::small_slc();
        flash.geometry.blocks_per_chip = 16;
        flash.geometry.pages_per_block = 8;
        flash.geometry.page_size = 1024;
        let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.3);
        let epoch = 1_000_000u64;
        let dbc = DbConfig {
            advisor_epoch_ns: epoch,
            advisor_min_observations: 8,
            verify_ecc: true,
            ..DbConfig::eager(8)
        };
        let mut db = Database::open(cfg, &[NxM::tpcc()], dbc).unwrap();

        const PAGES: usize = 40;
        let mut pids = Vec::new();
        let mut slots = Vec::new();
        let mut model = vec![vec![0u8; 64]; PAGES];
        for _ in 0..PAGES {
            let (pid, slot) = flushed_tuple(&mut db, &[0; 64]);
            pids.push(pid);
            slots.push(slot);
        }
        let mut update = |db: &mut Database, i: usize, len: usize, fill: u8| {
            model[i][..len].fill(fill);
            fill_and_flush(db, pids[i], slots[i], len, fill);
        };
        // Odd pages are cold: one old-scheme delta record each, with its
        // `EccDelta` code, and never written again. Even pages (but page
        // 0) are hot: 24-byte updates go out of place under [2x3], feed
        // the profile the re-tune reads, and keep GC erasing blocks.
        for i in (1..PAGES).step_by(2) {
            update(&mut db, i, 1, 0xA0);
        }
        assert_eq!(db.stats().ipa_flushes, PAGES as u64 / 2);
        for round in 1..=5u8 {
            for i in (2..PAGES).step_by(2) {
                update(&mut db, i, 24, round);
            }
        }
        db.advance_clock(epoch + 1);
        db.background_work().unwrap();
        assert_eq!(db.stats().scheme_changes, 1);
        let old_scheme = NxM::tpcc();
        let new_scheme = db.layout(0).scheme;
        assert_eq!(new_scheme.m, 24);

        // A resident stale-scheme page goes out of place through
        // `stage_flush`, which carries it to the new scheme; the next
        // update is an append under the new layout.
        assert_eq!(db.with_page(pids[0], |p| *p.scheme()).unwrap(), old_scheme);
        let appends = db.stats().ipa_flushes;
        update(&mut db, 0, 24, 0xB0);
        assert_eq!(db.stats().scheme_upgrades, 1);
        update(&mut db, 0, 24, 0xB1);
        assert_eq!(db.stats().ipa_flushes, appends + 1);
        assert_eq!(db.with_page(pids[0], |p| *p.scheme()).unwrap(), new_scheme);

        // The hot pages follow: carried over on their first flush, appended
        // to on their second.
        for round in 6..=7u8 {
            for i in (2..PAGES).step_by(2) {
                update(&mut db, i, 24, round);
            }
        }
        assert_eq!(db.stats().scheme_upgrades, PAGES as u64 / 2);

        // Wear leveling collects the least-worn blocks, which hold the cold
        // pages, until it has moved as many pages as there are cold ones.
        // Each page moves verbatim by copy-back: header and ECC codes travel
        // with it, so a moved cold page is still an old-scheme page with its
        // one delta record, and verifies on fetch.
        assert!(db.region_stats(0).unwrap().gc_erases > 0, "the hot pages wore some blocks");
        db.flush_all().unwrap();
        db.simulate_crash(); // drops the pool: the pages are read from flash
        while db.region_stats(0).unwrap().wear_level_migrations < PAGES as u64 / 2 {
            assert_eq!(db.wear_level(0, 0).unwrap(), 1, "a cold block is left to collect");
        }
        let verified = db.stats().ecc_verified;
        let mut cold = [0u8; 64];
        cold[0] = 0xA0;
        for i in (1..PAGES).step_by(2) {
            let oob = db.ftl().read_oob(RegionId(0), pids[i].lba).unwrap();
            let layout = ecc::OobLayout::standard(oob.len(), old_scheme.n as u32).unwrap();
            let codes = [layout.initial_slot(), layout.range(ecc::Section::EccDelta(0)).unwrap()];
            assert!(codes.into_iter().all(|code| !ecc::slot_is_erased(&oob[code])), "page {i}");
            let (scheme, tuple) = db
                .with_page(pids[i], |p| (*p.scheme(), p.tuple(slots[i]).unwrap().to_vec()))
                .unwrap();
            assert_eq!((scheme, &tuple[..]), (old_scheme, &cold[..]), "page {i}");
        }
        assert_eq!(db.stats().ecc_verified, verified + PAGES as u64 / 2, "each one verified");

        // Their next out-of-place flush carries them to the new scheme, and
        // the update after that is an append under the new layout.
        let upgrades = db.stats().scheme_upgrades;
        for i in (1..PAGES).step_by(2) {
            update(&mut db, i, 24, 0xC0);
        }
        assert_eq!(db.stats().scheme_upgrades, upgrades + PAGES as u64 / 2);
        assert_eq!(db.with_page(pids[3], |p| *p.scheme()).unwrap(), new_scheme);
        let appends = db.stats().ipa_flushes;
        update(&mut db, 3, 24, 0xC1);
        assert_eq!(db.stats().ipa_flushes, appends + 1);

        // Crash, dropping the pool, and read everything back with
        // verification on: the region layouts survive with the catalog.
        db.flush_all().unwrap();
        db.simulate_crash();
        let verified = db.stats().ecc_verified;
        for i in 0..PAGES {
            let (scheme, tuple) = db
                .with_page(pids[i], |p| (*p.scheme(), p.tuple(slots[i]).unwrap().to_vec()))
                .unwrap();
            assert_eq!(tuple, model[i], "page {i}");
            assert_eq!(scheme, new_scheme, "page {i}");
            // Erased slots verify vacuously, so look: every writer left an
            // `EccInitial`.
            let oob = db.ftl().read_oob(RegionId(0), pids[i].lba).unwrap();
            let initial = ecc::OobLayout::standard(oob.len(), 0).unwrap().initial_slot();
            assert!(!ecc::slot_is_erased(&oob[initial]), "page {i}");
        }
        assert_eq!(db.stats().ecc_verified, verified + PAGES as u64);
    }
}
