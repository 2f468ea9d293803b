//! Selective IPA via regions — the paper's claim II: "IPA can be
//! selectively applied to specific database objects (e.g. frequently
//! updated tables or indices) without extra DBA overhead. The rest of the
//! DB objects are not impacted."
//!
//! Mirrors the Figure 3 DDL: a `rgIPA` region for the hot table, a plain
//! region for everything else — one database, two policies.

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig};
use ipa::flash::{CellType, FlashConfig};
use ipa::noftl::{IpaMode, NoFtlConfig, RegionSpec};

fn two_region_db() -> Database {
    let mut flash = FlashConfig::openssd_mlc(64, 16, 1024);
    flash.geometry.chips = 8;
    flash.geometry.cell_type = CellType::Mlc;
    let cfg = NoFtlConfig {
        flash,
        regions: vec![
            // CREATE REGION rgIPA (MAX_CHIPS=4, IPA_MODE = pSLC)
            RegionSpec::new("rgIPA", 0..4, IpaMode::PSlc, 0.3),
            // The cold region: no IPA.
            RegionSpec::new("rgPlain", 4..8, IpaMode::None, 0.3),
        ],
        fault_policy: Default::default(),
    };
    // Region 0 gets the [2x4] scheme, region 1 the [0x0] baseline layout.
    Database::open(cfg, &[NxM::tpcb(), NxM::disabled()], DbConfig::eager(48)).unwrap()
}

#[test]
fn hot_table_appends_cold_table_does_not() {
    let mut db = two_region_db();
    let hot = db.create_heap(0); // lives in rgIPA
    let cold = db.create_heap(1); // lives in rgPlain

    // Same access pattern against both tables.
    let mut tx = db.txn();
    let mut hot_rids = Vec::new();
    let mut cold_rids = Vec::new();
    for i in 0..50u8 {
        hot_rids.push(tx.heap_insert(hot, &[i; 20]).unwrap());
        cold_rids.push(tx.heap_insert(cold, &[i; 20]).unwrap());
    }
    tx.commit().unwrap();
    db.flush_all().unwrap();

    for round in 1..=6u8 {
        let mut tx = db.txn();
        for i in (0..50).step_by(5) {
            let mut h = tx.db().heap_read_unlocked(hot_rids[i]).unwrap();
            h[0] = h[0].wrapping_add(round);
            tx.heap_update(hot, hot_rids[i], &h).unwrap();
            let mut c = tx.db().heap_read_unlocked(cold_rids[i]).unwrap();
            c[0] = c[0].wrapping_add(round);
            tx.heap_update(cold, cold_rids[i], &c).unwrap();
        }
        tx.commit().unwrap();
        db.flush_all().unwrap();
    }

    let hot_stats = db.region_stats(0).unwrap();
    let cold_stats = db.region_stats(1).unwrap();
    assert!(hot_stats.host_delta_writes > 0, "rgIPA must append in place");
    assert_eq!(cold_stats.host_delta_writes, 0, "rgPlain must never append");
    assert!(cold_stats.host_page_writes > 0);
    // Identical updates, different write economics.
    assert!(
        hot_stats.host_page_writes < cold_stats.host_page_writes,
        "IPA region: {} page writes vs plain region: {}",
        hot_stats.host_page_writes,
        cold_stats.host_page_writes
    );

    // Data identical in both.
    for i in 0..50usize {
        let h = db.heap_read_unlocked(hot_rids[i]).unwrap();
        let c = db.heap_read_unlocked(cold_rids[i]).unwrap();
        assert_eq!(h, c, "tuple {i}");
    }
}

#[test]
fn per_region_schemes_are_independent() {
    let mut db = two_region_db();
    // Page layouts differ: region 0 reserves a delta area, region 1 none.
    let l0 = db.layout(0);
    let l1 = db.layout(1);
    assert!(l0.delta_area_end() > l0.delta_area_start());
    assert_eq!(l1.delta_area_end(), l1.delta_area_start());

    // An index in the IPA region also benefits (the paper: "tables or
    // indices").
    let idx = db.create_index(0).unwrap();
    let mut tx = db.txn();
    for k in 0..64u64 {
        tx.index_insert(idx, k, k).unwrap();
    }
    tx.commit().unwrap();
    db.flush_all().unwrap();
    db.reset_stats();
    // A single value change in a leaf is a small update -> delta append.
    let mut tx = db.txn();
    tx.index_delete(idx, 63).unwrap();
    tx.index_insert(idx, 63, 999).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    assert!(
        db.stats().ipa_flushes >= 1,
        "index-page update should flush as IPA, stats: {:?}",
        db.stats()
    );
    assert_eq!(db.index_lookup(idx, 63).unwrap(), Some(999));
}

#[test]
fn recovery_spans_regions() {
    let mut db = two_region_db();
    let hot = db.create_heap(0);
    let cold = db.create_heap(1);
    let mut tx = db.txn();
    let hr = tx.heap_insert(hot, &[1u8; 8]).unwrap();
    let cr = tx.heap_insert(cold, &[2u8; 8]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();

    let mut tx = db.txn();
    tx.heap_update(hot, hr, &[3u8; 8]).unwrap();
    tx.heap_update(cold, cr, &[4u8; 8]).unwrap();
    tx.commit().unwrap();

    db.simulate_crash();
    db.recover().unwrap();
    assert_eq!(db.heap_read_unlocked(hr).unwrap(), vec![3u8; 8]);
    assert_eq!(db.heap_read_unlocked(cr).unwrap(), vec![4u8; 8]);
}
