//! Reliability-model integration: retention errors, Correct-and-Refresh
//! (the prior ISPP use case the paper builds on, §2.3), program
//! interference confined to append regions, and ECC behaviour across the
//! whole stack.

use ipa::core::NxM;
use ipa::flash::{
    CellType, FlashConfig, FlashDevice, FlashError, OpOrigin, PageKind, Ppa, ReadOutcome,
};
use ipa::noftl::{IpaMode, NoFtlConfig};

#[test]
fn correct_and_refresh_repairs_retention_drift() {
    // The Cai et al. "Correct-and-Refresh" scheme: periodically read,
    // ECC-correct, and re-program pages in place — itself an ISPP append.
    let mut cfg = FlashConfig::small_slc();
    cfg.reliability.ecc_correctable_bits = 8;
    let mut dev = FlashDevice::new(cfg);
    let ppa = Ppa::new(0, 0, 0);
    dev.program(ppa, &vec![0x3Cu8; 4096], OpOrigin::Host).unwrap();

    // Charge leaks over time.
    dev.inject_retention(ppa, &[10, 999, 2048, 4000]).unwrap();
    let (_, op) = dev.read(ppa, OpOrigin::Host).unwrap();
    assert_eq!(op.read_outcome, ReadOutcome::Corrected { corrected: 4 });

    // Refresh restores the charge; subsequent reads are clean.
    dev.refresh(ppa).unwrap();
    let (_, op) = dev.read(ppa, OpOrigin::Host).unwrap();
    assert_eq!(op.read_outcome, ReadOutcome::Clean);
}

#[test]
fn unrefreshed_drift_eventually_becomes_uncorrectable() {
    let mut cfg = FlashConfig::small_slc();
    cfg.reliability.ecc_correctable_bits = 3;
    let mut dev = FlashDevice::new(cfg);
    let ppa = Ppa::new(0, 0, 0);
    dev.program(ppa, &vec![0x00u8; 4096], OpOrigin::Host).unwrap();
    dev.inject_retention(ppa, &[1, 2, 3]).unwrap();
    assert!(dev.read(ppa, OpOrigin::Host).is_ok());
    dev.inject_retention(ppa, &[4]).unwrap();
    assert!(matches!(
        dev.read(ppa, OpOrigin::Host),
        Err(FlashError::UncorrectableEcc { bit_errors: 4, .. })
    ));
    // A refresh at this point cannot help: ECC cannot reconstruct.
    assert!(dev.refresh(ppa).is_err());
}

#[test]
fn interference_from_appends_never_corrupts_lsb_reads() {
    // Appendix C.2: appends on an LSB page disturb only erased cells of
    // neighbouring wordlines; LSB reads tolerate the shift, MSB reads
    // absorb errors in (unused) delta areas that ECC handles.
    let mut cfg = FlashConfig::openssd_mlc(8, 32, 2048);
    cfg.reliability.interference_bit_prob = 0.8;
    cfg.reliability.ecc_correctable_bits = 64;
    cfg.max_appends = Some(32); // lift the MLC NOP cap for this stress test
    let mut dev = FlashDevice::with_seed(cfg, 99);
    let geom = dev.config().geometry.clone();
    assert_eq!(geom.cell_type, CellType::Mlc);

    // Program a run of pages in order (MLC in-order rule), leaving a tail
    // of each erased (the delta area).
    let mut image = vec![0xFF; 2048];
    image[..1536].fill(0x5A);
    for p in 0..8 {
        dev.program(Ppa::new(0, 0, p), &image, OpOrigin::Host).unwrap();
    }
    // Hammer appends into the LSB page on wordline 1 (page index 2).
    for i in 0..16 {
        dev.program_partial(Ppa::new(0, 0, 2), 1536 + i as usize * 8, &[0x11; 8], OpOrigin::Host)
            .unwrap_or_else(|e| panic!("append {i}: {e}"));
    }
    // All LSB pages read back clean — bit errors only ever appear on MSB
    // neighbours, and ECC corrects them.
    for p in 0..8u32 {
        let (data, op) = dev.read(Ppa::new(0, 0, p), OpOrigin::Host).unwrap();
        if geom.page_kind(p) == PageKind::Lsb {
            assert_eq!(op.read_outcome, ReadOutcome::Clean, "LSB page {p}");
            if p != 2 {
                assert_eq!(data, image, "LSB page {p} content");
            }
        } else {
            // MSB pages may have been disturbed, but ECC must cover it.
            assert_eq!(&data[..1536], &image[..1536], "MSB page {p} body");
        }
    }
    assert!(dev.stats().injected_bit_errors > 0, "interference model exercised");
}

#[test]
fn engine_survives_interference_under_ipa_load() {
    // Full stack with the error model switched on: an IPA-heavy workload
    // on MLC flash in pSLC mode must stay correct while interference and
    // ECC do their thing underneath.
    let mut flash = FlashConfig::openssd_mlc(16, 16, 1024);
    flash.reliability.interference_bit_prob = 0.3;
    flash.reliability.ecc_correctable_bits = 64;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::PSlc, 0.3);
    let mut db =
        ipa::engine::Database::open(cfg, &[NxM::new(2, 8, 12)], ipa::engine::DbConfig::eager(24))
            .unwrap();
    let heap = db.create_heap(0);
    let mut tx = db.txn();
    let mut rids = Vec::new();
    for i in 0..100u8 {
        rids.push(tx.heap_insert(heap, &[i; 24]).unwrap());
    }
    tx.commit().unwrap();
    db.flush_all().unwrap();
    for round in 1..=10u8 {
        let mut tx = db.txn();
        for (i, rid) in rids.iter().enumerate().step_by(3) {
            let mut rec = tx.db().heap_read_unlocked(*rid).unwrap();
            rec[0] = (i as u8).wrapping_add(round);
            tx.heap_update(heap, *rid, &rec).unwrap();
        }
        tx.commit().unwrap();
        db.background_work().unwrap();
    }
    db.flush_all().unwrap();
    for (i, rid) in rids.iter().enumerate() {
        let rec = db.heap_read_unlocked(*rid).unwrap();
        if i % 3 == 0 {
            assert_eq!(rec[0], (i as u8).wrapping_add(10), "tuple {i}");
        } else {
            assert_eq!(rec[0], i as u8, "tuple {i}");
        }
        assert_eq!(&rec[1..], &[i as u8; 23][..], "tuple {i} tail");
    }
    assert!(db.stats().ipa_flushes > 0);
}
