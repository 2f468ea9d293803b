//! Engine edge cases: pool exhaustion, pin semantics, static wear
//! leveling through the public API, and delta-area physical layout checks
//! against the raw device.

use ipa::core::{ecc, NxM};
use ipa::engine::{Database, DbConfig, EngineError};
use ipa::flash::FlashConfig;
use ipa::noftl::{IoCtx, IpaMode, NoFtlConfig, NoFtlError, RegionId};

fn db(frames: usize, scheme: NxM) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    flash.geometry.pages_per_block = 16;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    Database::open(cfg, &[scheme], DbConfig::eager(frames)).unwrap()
}

#[test]
fn delta_records_are_physically_erased_until_appended() {
    // Cross-layer check: after an out-of-place flush, the on-flash delta
    // area must read 0xFF (erased); after an IPA flush, slot 0 must be
    // programmed and slot 1 still erased.
    let mut d = db(16, NxM::tpcc());
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    let rid = tx.heap_insert(heap, &[9u8, 7, 7, 7]).unwrap();
    tx.commit().unwrap();
    d.flush_all().unwrap();

    let layout = *d.layout(0);
    let read_delta_area = |d: &mut Database| {
        let (bytes, _) =
            d.ftl_mut().read_page(RegionId(0), rid.page.lba, IoCtx::default()).expect("mapped");
        bytes[layout.delta_area_start()..layout.delta_area_end()].to_vec()
    };
    let area = read_delta_area(&mut d);
    assert!(area.iter().all(|&b| b == 0xFF), "fresh page: delta area erased");

    let mut tx = d.txn();
    tx.heap_update(heap, rid, &[3u8, 7, 7, 7]).unwrap();
    tx.commit().unwrap();
    d.flush_all().unwrap();
    assert_eq!(d.stats().ipa_flushes, 1);

    let area = read_delta_area(&mut d);
    let slot = layout.scheme.delta_record_size();
    assert_ne!(area[0], 0xFF, "slot 0 control byte programmed");
    assert!(area[slot..].iter().all(|&b| b == 0xFF), "slot 1 still erased");
}

#[test]
fn a_region_out_of_logical_pages_says_so_and_takes_no_lba() {
    // The engine's allocator hands out the region's logical pages; once
    // all are taken, `new_page` names the region and how many it has, and
    // not the device, which still has blocks to spare.
    let mut d = db(4, NxM::tpcc());
    let capacity = d.ftl().capacity(RegionId(0)).unwrap();
    assert!((100..10_000).contains(&capacity), "{capacity}");
    let pages: Vec<_> = (0..capacity).map(|_| d.new_page(0).unwrap()).collect();
    assert_eq!(pages.last().unwrap().lba.0, capacity - 1);
    let evictions = d.stats().evictions;
    for _ in 0..2 {
        assert_eq!(d.new_page(0), Err(EngineError::OutOfPages { region: 0, capacity }));
    }
    assert_eq!(d.stats().evictions, evictions, "a refused call makes no room");
    // The refused calls took no LBA: a freed page is the next one handed
    // out, and then the region is full again.
    d.free_page(pages[7]).unwrap();
    assert_eq!(d.new_page(0).unwrap(), pages[7]);
    assert_eq!(d.new_page(0), Err(EngineError::OutOfPages { region: 0, capacity }));
    d.flush_all().unwrap();
}

#[test]
fn a_region_the_database_does_not_have_is_refused_not_a_panic() {
    // A one-region database: region 1 is an error wherever it is named, as
    // `region_stats` reports it, and is refused before a frame is evicted.
    let mut d = db(4, NxM::tpcc());
    let bad = EngineError::NoFtl(NoFtlError::BadRegion(1));
    assert_eq!(d.region_stats(1).err(), Some(bad.clone()));
    for _ in 0..6 {
        d.new_page(0).unwrap();
    }
    let evictions = d.stats().evictions;
    assert_eq!(d.create_index(1), Err(bad.clone()));
    let heap = d.create_heap(1);
    let mut tx = d.txn();
    assert_eq!(tx.heap_insert(heap, &[1, 2, 3]), Err(bad));
    tx.abort().unwrap();
    assert_eq!(d.stats().evictions, evictions, "a refused call makes no room");
    // Region 0 still takes inserts.
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    let rid = tx.heap_insert(heap, &[4, 5, 6]).unwrap();
    tx.commit().unwrap();
    assert_eq!(d.heap_read_unlocked(rid).unwrap(), [4, 5, 6]);
    d.flush_all().unwrap();
}

#[test]
fn pool_exhaustion_is_reported_not_hung() {
    let mut d = db(2, NxM::disabled());
    // Two new pages fill the pool as unpinned dirty frames — a third must
    // evict, which works. Pool exhaustion needs pins, which the public API
    // holds only transiently, so exercise eviction pressure instead.
    for _ in 0..6 {
        d.new_page(0).unwrap();
    }
    assert!(d.stats().evictions >= 4);
}

#[test]
fn unknown_tx_is_rejected_everywhere() {
    let mut d = db(8, NxM::disabled());
    let ghost = ipa::engine::TxId(999);
    // Operations, commit and abort are only reachable through a guard, and
    // no guard attaches to an id that was never begun or has already
    // finished.
    assert!(!d.txn_is_active(ghost));
    assert!(matches!(d.resume(ghost), Err(EngineError::UnknownTx(_))));
    let done = d.txn().park();
    assert!(d.txn_is_active(done));
    d.resume(done).unwrap().commit().unwrap();
    assert!(!d.txn_is_active(done));
    assert!(matches!(d.resume(done), Err(EngineError::UnknownTx(_))));
}

#[test]
fn dropped_guard_auto_aborts_and_is_counted() {
    let mut d = db(8, NxM::disabled());
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    let rid = tx.heap_insert(heap, &[5u8; 8]).unwrap();
    tx.commit().unwrap();

    {
        let mut tx = d.txn();
        tx.heap_update(heap, rid, &[6u8; 8]).unwrap();
        // falls out of scope without commit() — RAII abort
    }
    assert_eq!(d.stats().drop_aborts, 1, "drop must count as an implicit abort");
    assert_eq!(d.heap_read_unlocked(rid).unwrap(), vec![5u8; 8], "update rolled back");
}

#[test]
fn ecc_initial_is_stable_across_ipa_flushes() {
    // The whole point of sectioned ECC: appends must not invalidate the
    // initial image's code.
    let mut d = db(16, NxM::tpcc());
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    let rid = tx.heap_insert(heap, &[1u8, 2, 3, 4]).unwrap();
    tx.commit().unwrap();
    d.flush_all().unwrap();

    let layout = *d.layout(0);
    let (img0, _) = d.ftl_mut().read_page(RegionId(0), rid.page.lba, IoCtx::default()).unwrap();
    let code0 = ecc::initial_code(&img0, &layout);

    let mut tx = d.txn();
    tx.heap_update(heap, rid, &[2u8, 2, 3, 4]).unwrap();
    tx.commit().unwrap();
    d.flush_all().unwrap();
    assert_eq!(d.stats().ipa_flushes, 1);

    let (img1, _) = d.ftl_mut().read_page(RegionId(0), rid.page.lba, IoCtx::default()).unwrap();
    let code1 = ecc::initial_code(&img1, &layout);
    assert_eq!(code0, code1, "ECC_initial covers everything but the delta area");
    assert_ne!(img0, img1, "the image itself did change (delta appended)");
}

#[test]
fn wear_leveling_callable_through_database() {
    let mut d = db(16, NxM::disabled());
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    for i in 0..64u8 {
        tx.heap_insert(heap, &[i; 48]).unwrap();
    }
    tx.commit().unwrap();
    d.flush_all().unwrap();
    // Static wear leveling with threshold 0 relocates the coldest block.
    let moved = d.wear_level(0, 0).unwrap();
    let _ = moved; // zero is fine on a fresh device; must not error
    let stats = d.region_stats(0).unwrap();
    assert_eq!(stats.gc_page_migrations, 0, "WL work is attributed separately");
}
