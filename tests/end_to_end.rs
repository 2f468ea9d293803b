//! Cross-crate integration tests: the full stack from workload driver down
//! to simulated flash cells.

use ipa::core::ecc::{OobLayout, Section};
use ipa::core::NxM;
use ipa::engine::{Database, DbConfig};
use ipa::flash::{FaultOp, FaultPlan, FlashConfig};
use ipa::noftl::{IpaMode, NoFtlConfig, RegionId};
use ipa::workloads::{Runner, SystemConfig, Tatp, TpcB, TpcC, Workload};

fn small_db(scheme: NxM) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    flash.geometry.pages_per_block = 16;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    Database::open(cfg, &[scheme], DbConfig::eager(32)).unwrap()
}

#[test]
fn ipa_reduces_erases_across_workloads() {
    // The paper's core claim, checked end-to-end on two workloads.
    for (name, mk, scheme, txns) in [
        (
            "tpcb",
            Box::new(|| -> Box<dyn Workload> { Box::new(TpcB::new(2, 800)) })
                as Box<dyn Fn() -> Box<dyn Workload>>,
            NxM::tpcb(),
            2500u64,
        ),
        (
            "tpcc",
            Box::new(|| -> Box<dyn Workload> { Box::new(TpcC::new(1, 500, 60)) }),
            NxM::tpcc(),
            2000u64,
        ),
    ] {
        let run = |s: NxM| {
            let cfg = SystemConfig::emulator(s, 0.2);
            let mut w = mk();
            let mut db = cfg.build(w.estimated_pages(cfg.page_size)).unwrap();
            let runner = Runner::new(3);
            runner.setup(&mut db, w.as_mut()).unwrap();
            runner.run(&mut db, w.as_mut(), 400, txns).unwrap()
        };
        let base = run(NxM::disabled());
        let ipa = run(scheme);
        assert!(
            ipa.region.erases_per_host_write() < base.region.erases_per_host_write(),
            "{name}: erases/write {} !< {}",
            ipa.region.erases_per_host_write(),
            base.region.erases_per_host_write()
        );
        assert!(
            ipa.region.migrations_per_host_write() < base.region.migrations_per_host_write(),
            "{name}: migrations/write must drop"
        );
        assert!(ipa.region.ipa_fraction() > 0.2, "{name}: ipa fraction too low");
        // The baseline never appends.
        assert_eq!(base.region.host_delta_writes, 0);
    }
}

#[test]
fn durability_through_heavy_churn_with_gc() {
    // Flash-level GC relocations + IPA appends + buffer evictions must
    // never lose a committed write.
    let mut db = small_db(NxM::new(2, 8, 12));
    let heap = db.create_heap(0);
    let mut rids = Vec::new();
    let mut tx = db.txn();
    for i in 0..400u32 {
        let mut rec = [0u8; 40];
        rec[..4].copy_from_slice(&i.to_le_bytes());
        rec[4..8].copy_from_slice(&i.to_le_bytes()); // value field starts at i
        rids.push(tx.heap_insert(heap, &rec).unwrap());
    }
    tx.commit().unwrap();
    db.flush_all().unwrap();

    // Many rounds of small updates to pseudo-random tuples.
    let mut expected: Vec<u32> = (0..400).collect();
    for round in 1..=40u32 {
        let mut tx = db.txn();
        for k in 0..40u32 {
            let i = (k.wrapping_mul(2_654_435_761).wrapping_add(round * 97) % 400) as usize;
            let mut rec = tx.db().heap_read_unlocked(rids[i]).unwrap();
            let v = expected[i].wrapping_add(round);
            rec[4..8].copy_from_slice(&v.to_le_bytes());
            expected[i] = v;
            // Keep bytes 0..4 as the identity.
            let new_rid = tx.heap_update(heap, rids[i], &rec).unwrap();
            rids[i] = new_rid;
        }
        tx.commit().unwrap();
        db.background_work().unwrap();
    }
    db.flush_all().unwrap();
    let stats = db.region_stats(0).unwrap();
    assert!(stats.host_delta_writes > 0, "IPA must have been exercised");

    for (i, rid) in rids.iter().enumerate() {
        let rec = db.heap_read_unlocked(*rid).unwrap();
        let id = u32::from_le_bytes(rec[..4].try_into().unwrap());
        let v = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        assert_eq!(id, i as u32, "identity of tuple {i}");
        assert_eq!(v, expected[i], "value of tuple {i}");
    }
}

#[test]
fn crash_recovery_at_workload_scale() {
    let cfg = SystemConfig::emulator(NxM::tpcb(), 0.3);
    let mut w = TpcB::new(1, 300);
    let mut db = cfg.build(w.estimated_pages(cfg.page_size)).unwrap();
    let runner = Runner::new(5);
    runner.setup(&mut db, &mut w).unwrap();
    runner.run(&mut db, &mut w, 0, 500).unwrap();
    // Force the log so all committed work survives; crash mid-flight.
    db.force_log();
    db.simulate_crash();
    db.recover().unwrap();
    // The workload must be able to continue after restart.
    runner.run(&mut db, &mut w, 0, 200).unwrap();
}

#[test]
fn odd_mlc_mixes_appends_and_out_of_place() {
    let cfg = SystemConfig::openssd(NxM::tpcb(), false);
    let mut w = TpcB::new(1, 400);
    let mut db = cfg.build(w.estimated_pages(cfg.page_size)).unwrap();
    let runner = Runner::new(11);
    runner.setup(&mut db, &mut w).unwrap();
    let report = runner.run(&mut db, &mut w, 200, 1500).unwrap();
    let f = report.region.ipa_fraction();
    // odd-MLC can only append on LSB residencies: the fraction must be
    // meaningfully above zero but clearly below the pSLC ceiling.
    assert!(f > 0.05, "fraction {f}");
    assert!(f < 0.9, "fraction {f}");

    let pslc_cfg = SystemConfig::openssd(NxM::tpcb(), true);
    let mut w2 = TpcB::new(1, 400);
    let mut db2 = pslc_cfg.build(w2.estimated_pages(pslc_cfg.page_size)).unwrap();
    runner.setup(&mut db2, &mut w2).unwrap();
    let pslc = runner.run(&mut db2, &mut w2, 200, 1500).unwrap();
    assert!(
        pslc.region.ipa_fraction() > f,
        "pSLC {} must capture more appends than odd-MLC {f}",
        pslc.region.ipa_fraction()
    );
}

#[test]
fn ecc_verification_full_stack() {
    // Run with ECC verification enabled: every fetch checks ECC_initial +
    // per-delta codes, each written by the command that writes what it
    // covers. The second delta append faults.
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    flash.fault = FaultPlan::default().with_scripted(FaultOp::DeltaProgram, 1, false);
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    let mut db_cfg = DbConfig::eager(16);
    db_cfg.verify_ecc = true;
    let mut db = Database::open(cfg, &[NxM::tpcc()], db_cfg).unwrap();
    let heap = db.create_heap(0);
    let mut tx = db.txn();
    let rid = tx.heap_insert(heap, &[1u8, 2, 3, 4]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    let mut tx = db.txn();
    tx.heap_update(heap, rid, &[9u8, 2, 3, 4]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    assert!(db.stats().ipa_flushes >= 1);
    // Evict everything and re-read: ECC paths must verify.
    for _ in 0..16 {
        db.new_page(0).unwrap();
    }
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![9, 2, 3, 4]);
    assert!(db.stats().ecc_verified > 0);
    // The next append faults and falls back out of place: one program
    // writes the rebuilt page with the old OOB and the new record's code.
    let mut tx = db.txn();
    tx.heap_update(heap, rid, &[9u8, 7, 3, 4]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    assert_eq!(db.region_stats(0).unwrap().delta_fallbacks, 1);
    let verified = db.stats().ecc_verified;
    for _ in 0..16 {
        db.new_page(0).unwrap();
    }
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![9, 7, 3, 4]);
    assert!(db.stats().ecc_verified > verified, "the fallback page verifies on re-fetch");
    // The second record's code is there to verify, not an erased slot.
    let oob = db.ftl().read_oob(RegionId(0), rid.page.lba).unwrap();
    let layout = OobLayout::standard(oob.len(), u32::from(NxM::tpcc().n)).unwrap();
    let slot = layout.range(Section::EccDelta(1)).unwrap();
    assert!(oob[slot].iter().any(|&b| b != 0xFF), "ECC_delta_1 of the fallback page");
}

#[test]
fn tatp_read_heavy_profile_holds_end_to_end() {
    let cfg = SystemConfig::emulator(NxM::tpcb(), 0.3);
    let mut w = Tatp::new(2_000);
    let mut db = cfg.build(w.estimated_pages(cfg.page_size)).unwrap();
    let runner = Runner::new(17);
    runner.setup(&mut db, &mut w).unwrap();
    let report = runner.run(&mut db, &mut w, 300, 2_000).unwrap();
    assert!(report.region.host_reads > report.region.host_writes());
    assert_eq!(report.commits, 2_000);
}

#[test]
fn region_capacity_is_respected_end_to_end() {
    let mut db = small_db(NxM::disabled());
    let cap = db.ftl().capacity(RegionId(0)).unwrap();
    // Allocate every page; the next allocation must fail cleanly.
    for _ in 0..cap {
        db.new_page(0).unwrap();
        // Flush as we go so the pool doesn't exhaust.
        db.flush_all().unwrap();
    }
    assert!(db.new_page(0).is_err());
}

/// TPC-B `[0×0]` on the emulator profile, sized the way `SystemConfig::build`
/// sizes it (growth headroom 3.0, 25 % buffer), on flash whose blocks wear
/// out after `endurance` erases.
fn worn_tpcb_db(w: &TpcB, endurance: u64) -> Database {
    let page_size = 4096;
    let (chips, pages_per_block, over_provisioning) = (16u32, 64u32, 0.10);
    let estimated = w.estimated_pages(page_size);
    let needed = (estimated as f64 * 3.0).ceil() as u64 + 64;
    let data_blocks =
        (needed as f64 / (1.0 - over_provisioning) / f64::from(chips * pages_per_block)).ceil()
            as u32;
    let blocks_per_chip = data_blocks.max(1) + 4;
    let usable = f64::from(chips * blocks_per_chip * pages_per_block);
    let op = over_provisioning.max(1.0 - needed as f64 / usable).min(0.85);
    let mut flash = FlashConfig::emulator_slc(blocks_per_chip, pages_per_block, page_size);
    flash.endurance_limit = Some(endurance);
    let cfg = NoFtlConfig::single_region(flash, IpaMode::None, op);
    let frames = ((estimated as f64 * 0.25) as usize).max(16);
    Database::open(cfg, &[NxM::disabled()], DbConfig::eager(frames)).unwrap()
}

#[test]
fn worn_out_blocks_are_retired_and_the_database_recovers() {
    // At endurance 2 the first block wears out after about 3 200
    // transactions. Its failed erase must retire it like a faulted one, or
    // GC picks the same victim again and the run stops there.
    let mut w = TpcB::new(2, 2_000);
    let mut db = worn_tpcb_db(&w, 2);
    let runner = Runner::new(7);
    runner.setup(&mut db, &mut w).unwrap();
    let report = runner.run(&mut db, &mut w, 0, 4_000).unwrap();
    assert_eq!((report.commits, report.aborts), (4_000, 0));
    let flash = db.ftl().device().stats();
    assert!(flash.retired_blocks > 0, "no block wore out");
    assert_eq!(flash.erase_failures, flash.retired_blocks, "only worn blocks are retired");
    db.simulate_crash();
    db.recover().unwrap();
    w.verify_balances(&mut db).unwrap();
}
