//! WAL policy integration: eager log-space reclamation, checkpoints, and
//! the recovery-time consequences of the non-eager configuration — the
//! machinery behind the paper's §8.4 discussion of why the DBMS keeps
//! writing even with a 90% buffer.

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig, EngineError, Rid, TxId};
use ipa::flash::FlashConfig;
use ipa::noftl::{IpaMode, NoFtlConfig};

fn db_with_log(log_bytes: usize, reclaim_at: f64) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    let mut dbc = DbConfig::eager(32);
    dbc.log_capacity_bytes = log_bytes;
    dbc.log_reclaim_threshold = reclaim_at;
    Database::open(cfg, &[NxM::tpcb()], dbc).unwrap()
}

#[test]
fn eager_log_reclamation_forces_flushes_and_checkpoints() {
    // A tiny log with a 37.5% threshold: sustained updates must trigger
    // reclamation rounds, each flushing dirty pages and checkpointing.
    let mut db = db_with_log(20_000, 0.375);
    let heap = db.create_heap(0);
    let mut tx = db.txn();
    let mut rids = Vec::new();
    for i in 0..50u8 {
        rids.push(tx.heap_insert(heap, &[i; 32]).unwrap());
    }
    tx.commit().unwrap();
    db.flush_all().unwrap();

    for round in 0..60u8 {
        let mut tx = db.txn();
        for rid in rids.iter().step_by(7) {
            let mut rec = tx.db().heap_read_unlocked(*rid).unwrap();
            rec[1] = round;
            tx.heap_update(heap, *rid, &rec).unwrap();
        }
        tx.commit().unwrap();
        db.background_work().unwrap();
    }
    let s = db.stats();
    assert!(s.log_reclaims > 0, "log reclamation must have run: {s:?}");
    assert!(s.checkpoints >= s.log_reclaims, "each reclaim checkpoints");
    // Data intact.
    for (i, rid) in rids.iter().enumerate() {
        let rec = db.heap_read_unlocked(*rid).unwrap();
        assert_eq!(rec[0], i as u8);
    }
}

#[test]
fn non_eager_log_accumulates_until_full() {
    // Threshold 1.0: no proactive reclamation; the log only reclaims when
    // an append finds it at capacity.
    let mut db = db_with_log(15_000, 1.0);
    let heap = db.create_heap(0);
    let mut tx = db.txn();
    let rid = tx.heap_insert(heap, &[0u8; 32]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();

    let mut reclaims_seen = 0;
    for round in 0..400u32 {
        let mut tx = db.txn();
        let mut rec = tx.db().heap_read_unlocked(rid).unwrap();
        rec[..4].copy_from_slice(&round.to_le_bytes());
        tx.heap_update(heap, rid, &rec).unwrap();
        tx.commit().unwrap();
        db.background_work().unwrap();
        reclaims_seen = db.stats().log_reclaims;
    }
    // Emergency reclamation in log_for_tx kicked in at least once, and the
    // data survived.
    assert!(reclaims_seen > 0);
    let rec = db.heap_read_unlocked(rid).unwrap();
    assert_eq!(&rec[..4], &399u32.to_le_bytes());
}

#[test]
fn recovery_after_reclamation_replays_only_retained_log() {
    // After reclamation + checkpoint, the truncated log must still be
    // sufficient for correct recovery (flushed pages carry their state).
    let mut db = db_with_log(20_000, 0.375);
    let heap = db.create_heap(0);
    let mut tx = db.txn();
    let rid = tx.heap_insert(heap, &[7u8; 32]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();

    for round in 0..80u8 {
        let mut tx = db.txn();
        let mut rec = tx.db().heap_read_unlocked(rid).unwrap();
        rec[0] = round;
        tx.heap_update(heap, rid, &rec).unwrap();
        tx.commit().unwrap();
        db.background_work().unwrap();
    }
    assert!(db.stats().log_reclaims > 0);
    db.force_log();
    db.simulate_crash();
    db.recover().unwrap();
    let rec = db.heap_read_unlocked(rid).unwrap();
    assert_eq!(rec[0], 79);
}

#[test]
fn active_transaction_pins_the_log_tail() {
    // A long-running transaction must keep its undo chain reclaimable:
    // reclamation cannot truncate past its first record, and an abort
    // after many reclaim rounds must still succeed.
    let mut db = db_with_log(20_000, 0.375);
    let heap = db.create_heap(0);
    let mut tx0 = db.txn();
    let rid = tx0.heap_insert(heap, &[1u8; 32]).unwrap();
    tx0.commit().unwrap();
    db.flush_all().unwrap();

    // Long-running transaction makes one early change and stays open.
    let mut long_tx = db.txn();
    let mut rec = long_tx.db().heap_read_unlocked(rid).unwrap();
    rec[0] = 0xEE;
    long_tx.heap_update(heap, rid, &rec).unwrap();
    let long_id = long_tx.park();

    // Other transactions churn the log past several reclamation rounds.
    let other = db.create_heap(0);
    for i in 0..60u8 {
        let mut tx = db.txn();
        tx.heap_insert(other, &[i; 64]).unwrap();
        tx.commit().unwrap();
        db.background_work().unwrap();
    }
    assert!(db.stats().log_reclaims > 0);

    // The long transaction can still roll back.
    db.resume(long_id).unwrap().abort().unwrap();
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1u8; 32]);
}

/// A 4 000-byte log whose tail a parked transaction pins, and a second
/// transaction that inserts key 1 into index 0, then rewrites one row of
/// heap 0 (committed as `[7; 32]`) until the log refuses the update. Returns
/// the row, both transactions (parked, then refused) and the last value
/// whose update was logged.
fn refused_update_behind_a_parked_tx() -> (Database, Rid, [TxId; 2], u8) {
    let mut db = db_with_log(4_000, 1.0);
    let heap = db.create_heap(0);
    let idx = db.create_index(0).unwrap();
    let mut tx = db.txn();
    let pin_row = tx.heap_insert(heap, &[1u8; 32]).unwrap();
    let rid = tx.heap_insert(heap, &[7u8; 32]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();

    let mut parked = db.txn();
    parked.heap_update(heap, pin_row, &[2u8; 32]).unwrap();
    let parked = parked.park();

    let mut tx = db.txn();
    tx.index_insert(idx, 1, rid.encode()).unwrap();
    let mut logged = 7u8;
    loop {
        match tx.heap_update(heap, rid, &[logged + 1; 32]) {
            Ok(_) => logged += 1,
            Err(EngineError::LogFull) => break,
            Err(e) => panic!("update {}: {e}", logged + 1),
        }
    }
    assert!(logged > 7, "the log takes some updates before it is full");
    let refused = tx.park();
    (db, rid, [parked, refused], logged)
}

#[test]
fn refused_update_leaves_the_page_as_the_log_describes_it() {
    // The record exists before the page changes: an update the log refuses
    // has not touched the page, so nothing is there that no record could
    // undo or redo.
    let (mut db, rid, _, logged) = refused_update_behind_a_parked_tx();
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![logged; 32]);
}

#[test]
fn full_log_still_takes_rollback_and_termination_records() {
    // A log full of a transaction's own records must take the CLRs, the
    // node write that compensates its index insert and the Abort that let
    // it go away: refusing them leaves the loser half rolled back and the
    // log full for good.
    let (mut db, rid, [parked, refused], _) = refused_update_behind_a_parked_tx();
    db.resume(refused).unwrap().abort().unwrap();
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![7u8; 32], "the committed image");
    assert_eq!(db.index_lookup(0, 1).unwrap(), None, "the index insert is rolled back");
    db.resume(parked).unwrap().abort().unwrap();
    assert_eq!(db.stats().aborts, 2);
    // Nothing pins the tail any more: the next update reclaims and goes on.
    let mut tx = db.txn();
    tx.heap_update(0, rid, &[9u8; 32]).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![9u8; 32]);
}
