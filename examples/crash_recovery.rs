//! ARIES restart over delta records (paper §6.2, "Remaining DBMS
//! functionality").
//!
//! A page's last flushed state may live partly in ISPP-appended delta
//! records. This example builds exactly that situation, crashes the
//! database, and shows recovery reconstructing pages from base image +
//! deltas before redoing the log — plus a loser transaction being rolled
//! back across an IPA-flushed page.
//!
//! Run with `cargo run --release --example crash_recovery`.

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig};
use ipa::flash::FlashConfig;
use ipa::noftl::{IpaMode, NoFtlConfig};

fn main() {
    let flash = FlashConfig::small_slc();
    let ftl_cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    let mut db = Database::open(ftl_cfg, &[NxM::tpcb()], DbConfig::eager(64)).unwrap();
    let heap = db.create_heap(0);
    let idx = db.create_index(0).unwrap();

    // Committed base state, flushed out-of-place.
    let mut tx = db.txn();
    let rid = tx.heap_insert(heap, &[10u8, 0, 0, 0]).unwrap();
    tx.index_insert(idx, 10, rid.encode()).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    println!("step 1: tuple inserted and flushed (out-of-place)");

    // Committed small update, flushed as an in-place append.
    let mut tx = db.txn();
    tx.heap_update(heap, rid, &[20u8, 0, 0, 0]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap();
    println!("step 2: small update flushed as IPA (ipa_flushes = {})", db.stats().ipa_flushes);

    // Committed update that only lives in the (durable) log.
    let mut tx = db.txn();
    tx.heap_update(heap, rid, &[30u8, 0, 0, 0]).unwrap();
    tx.commit().unwrap();
    println!("step 3: committed update exists only in the WAL");

    // A loser: updates the same tuple, even reaches flash (steal), but
    // never commits.
    let mut tx_loser = db.txn();
    tx_loser.heap_update(heap, rid, &[99u8, 0, 0, 0]).unwrap();
    let _loser = tx_loser.park(); // still in flight at crash time
    db.flush_all().unwrap();
    db.force_log();
    println!("step 4: uncommitted update stolen to flash");

    // CRASH.
    db.simulate_crash();
    println!("\n*** crash: buffer pool gone, unflushed log lost ***\n");

    db.recover().unwrap();
    let value = db.heap_read_unlocked(rid).unwrap();
    println!("after recovery: tuple = {value:?}");
    assert_eq!(value, vec![30, 0, 0, 0], "committed state restored, loser undone");
    assert_eq!(db.index_lookup(idx, 10).unwrap(), Some(rid.encode()));
    println!("redo replayed history over the delta-reconstructed page,");
    println!("undo rolled the loser back with compensation records. ACID holds.");
}
