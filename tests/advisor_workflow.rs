//! The advisor workflow end to end: profile a live run, take the
//! recommendation, re-run with it, and verify the prediction holds — the
//! §8.4 "IPA advisor" loop ("a background DB log-file profiling mechanism,
//! analyzing the current workload at run-time").

use ipa::core::{AdvisorGoal, IpaAdvisor, NxM};
use ipa::workloads::{Runner, SystemConfig, TpcB, TpcC, Workload};

fn profile_run(
    w: &mut dyn Workload,
    scheme: NxM,
    txns: u64,
) -> (ipa::workloads::RunReport, ipa::engine::Database) {
    let cfg = SystemConfig::emulator(scheme, 0.3);
    let mut db = cfg.build_for(w).unwrap();
    let runner = Runner::new(77);
    runner.setup(&mut db, w).unwrap();
    let report = runner.run(&mut db, w, txns / 5, txns).unwrap();
    (report, db)
}

#[test]
fn advisor_recommendation_beats_naive_scheme_on_tpcc() {
    // Profile without IPA.
    let mut w = TpcC::new(1, 600, 80);
    let (_, db) = profile_run(&mut w, NxM::disabled(), 2_500);
    let advisor = IpaAdvisor::new(4096, 8);
    let rec = advisor.recommend(db.profile(0), AdvisorGoal::Performance);
    // The paper: M=3 is the natural TPC-C choice.
    assert!(rec.scheme.m <= 8, "TPC-C profile must yield a small M, got {}", rec.scheme.m);

    // Re-run with the recommendation and with a deliberately bad scheme.
    let mut w2 = TpcC::new(1, 600, 80);
    let (with_rec, _) = profile_run(&mut w2, rec.scheme, 2_500);
    let mut w3 = TpcC::new(1, 600, 80);
    let (with_bad, _) = profile_run(&mut w3, NxM::new(1, 1, 2), 2_500);
    assert!(
        with_rec.region.ipa_fraction() > with_bad.region.ipa_fraction(),
        "recommended {:.2} vs naive {:.2}",
        with_rec.region.ipa_fraction(),
        with_bad.region.ipa_fraction()
    );
    // Prediction sanity: measured fraction within a broad band of the
    // advisor's per-flush feasibility estimate.
    assert!(with_rec.region.ipa_fraction() > rec.predicted_ipa_fraction * 0.3);
}

#[test]
fn advisor_goals_trade_space_for_coverage_on_tpcb() {
    let mut w = TpcB::new(2, 600);
    let (_, db) = profile_run(&mut w, NxM::disabled(), 2_500);
    let advisor = IpaAdvisor::new(4096, 8);
    let perf = advisor.recommend(db.profile(0), AdvisorGoal::Performance);
    let longevity = advisor.recommend(db.profile(0), AdvisorGoal::Longevity);
    let space = advisor.recommend(db.profile(0), AdvisorGoal::Space);
    assert!(space.space_overhead <= perf.space_overhead);
    assert!(perf.space_overhead <= longevity.space_overhead);
    assert!(longevity.predicted_ipa_fraction >= space.predicted_ipa_fraction);
    // All recommendations must actually fit a 4 KiB page layout.
    for rec in [&perf, &longevity, &space] {
        assert!(ipa::core::PageLayout::new(4096, rec.scheme).is_ok());
    }
}

#[test]
fn profiles_are_per_region() {
    // Two regions, different workloads per region, independent profiles.
    use ipa::engine::{Database, DbConfig};
    use ipa::flash::FlashConfig;
    use ipa::noftl::{IpaMode, NoFtlConfig, RegionSpec};

    let mut flash = FlashConfig::small_slc();
    flash.geometry.chips = 2;
    flash.geometry.page_size = 1024;
    let cfg = NoFtlConfig {
        flash,
        regions: vec![
            RegionSpec::new("small", [0], IpaMode::Slc, 0.3),
            RegionSpec::new("large", [1], IpaMode::Slc, 0.3),
        ],
        fault_policy: Default::default(),
    };
    let mut db =
        Database::open(cfg, &[NxM::tpcb(), NxM::new(2, 64, 12)], DbConfig::eager(32)).unwrap();
    let small = db.create_heap(0);
    let large = db.create_heap(1);
    let mut tx = db.txn();
    let s_rid = tx.heap_insert(small, &[0u8; 64]).unwrap();
    let l_rid = tx.heap_insert(large, &[0u8; 200]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    for round in 0..20u8 {
        let mut tx = db.txn();
        let mut rec = tx.db().heap_read_unlocked(s_rid).unwrap();
        rec[0] = round; // 1-byte updates in region 0
        tx.heap_update(small, s_rid, &rec).unwrap();
        let mut rec = tx.db().heap_read_unlocked(l_rid).unwrap();
        for b in rec.iter_mut().take(60) {
            *b = round; // 60-byte updates in region 1
        }
        tx.heap_update(large, l_rid, &rec).unwrap();
        tx.commit().unwrap();
        db.flush_all().unwrap();
    }
    let p_small = db.profile(0);
    let p_large = db.profile(1);
    assert!(p_small.body_percentile(90.0) <= 4, "region 0 updates tiny");
    assert!(p_large.body_percentile(50.0) >= 30, "region 1 updates large");
    // Advisor would size them differently.
    let adv = IpaAdvisor::new(1024, 8);
    let r_small = adv.recommend(p_small, AdvisorGoal::Performance);
    let r_large = adv.recommend(p_large, AdvisorGoal::Performance);
    assert!(r_large.scheme.m > r_small.scheme.m);
}
