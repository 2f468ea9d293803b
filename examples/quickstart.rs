//! Quickstart: the whole stack in one file, bottom-up.
//!
//! 1. Raw flash: program a page, append into its erased tail (ISPP).
//! 2. NoFTL: regions, `write_delta`, garbage-collection stats.
//! 3. The full engine: a table whose small updates flush as in-place
//!    appends instead of page writes.
//!
//! Run with `cargo run --release --example quickstart`.

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig};
use ipa::flash::{FlashConfig, FlashDevice, OpOrigin, Ppa};
use ipa::noftl::{IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig, RegionId};

fn main() {
    // --- 1. Raw flash: the monotone-charge rule ------------------------
    println!("== 1. raw flash ==");
    let mut dev = FlashDevice::new(FlashConfig::small_slc());
    let ppa = Ppa::new(0, 0, 0);
    let page_size = dev.config().geometry.page_size;

    // Program a page whose tail is left erased (0xFF = uncharged cells).
    let mut image = vec![0xFF; page_size];
    image[..1024].fill(0xAB);
    dev.program(ppa, &image, OpOrigin::Host).unwrap();

    // Appending into the erased tail needs no erase...
    dev.program_partial(ppa, page_size - 64, b"in-place append!", OpOrigin::Host).unwrap();
    println!("appended 16 bytes into a programmed page without an erase");

    // ...but trying to flip bits back (charge decrease) fails physically.
    let err = dev.program_partial(ppa, 0, &[0xFF; 4], OpOrigin::Host).unwrap_err();
    println!("overwriting programmed cells is rejected: {err}");

    // --- 2. NoFTL: regions + write_delta --------------------------------
    println!("\n== 2. NoFTL ==");
    let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.2);
    let mut ftl = NoFtl::new(cfg).unwrap();
    let rid = RegionId(0);
    let mut db_page = vec![0xFF; page_size];
    db_page[..2048].fill(0x11);
    ftl.write_page(rid, Lba(42), &db_page, IoCtx::default()).unwrap();
    ftl.write_delta(rid, Lba(42), page_size - 128, &[0x22; 46], IoCtx::default()).unwrap();
    let stats = ftl.region_stats(rid).unwrap();
    println!(
        "region stats: {} page write(s), {} delta write(s), {} GC erases",
        stats.host_page_writes, stats.host_delta_writes, stats.gc_erases
    );

    // --- 3. The engine: IPA on a real table -----------------------------
    println!("\n== 3. storage engine ==");
    let flash = FlashConfig::small_slc();
    let ftl_cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    // [2x3]: up to 2 delta records per page, 3 changed body bytes each.
    let mut db = Database::open(ftl_cfg, &[NxM::tpcc()], DbConfig::eager(64)).unwrap();
    let heap = db.create_heap(0);

    let mut tx = db.txn();
    let rid = tx.heap_insert(heap, &[9u8, 7, 7, 7]).unwrap();
    tx.commit().unwrap();
    db.flush_all().unwrap(); // first write: out-of-place (fresh page)

    let mut tx = db.txn();
    tx.heap_update(heap, rid, &[3u8, 7, 7, 7]).unwrap(); // 1 byte changes
    tx.commit().unwrap();
    db.flush_all().unwrap(); // second write: an in-place append!

    let e = db.stats();
    println!(
        "flushes: {} out-of-place, {} in-place appends ({} delta records)",
        e.oop_flushes, e.ipa_flushes, e.delta_records_written
    );
    println!(
        "write amplification: {:.1}x ({} net bytes -> {} written bytes)",
        e.write_amplification(),
        e.net_changed_bytes,
        e.gross_written_bytes
    );
    assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![3, 7, 7, 7]);
    println!("tuple reads back correctly after reconstruction from deltas");
}
