//! Tuple updates replay to the same heap. An update that keeps its tuple's
//! length is logged as the window it changes — the bytes before and after
//! at an offset in the tuple — so restart redo is correct only if it
//! applies each record to the tuple as it was when the record was logged,
//! and undo only if the tuple still holds the after window. An update that
//! changes the length is logged whole with where the tuple lay and lies,
//! and undo puts it back there. Two databases run one seeded history of
//! heap churn — same-length updates of a few bytes, of none and of all,
//! growing updates (some of which move their tuple to another page),
//! shrinking ones, one tuple updated again and again in a transaction,
//! inserts, deletes, commits, aborts, checkpoints, steals — and crash
//! together at seeded points with a loser in flight. One restarts
//! checkpoint-bounded, the other with the full scan; each then crashes and
//! restarts again before it has done anything. After every restart both
//! hold exactly the committed tuples, and every heap page's body and slot
//! table are the same in both databases and across both restarts.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig, EngineError, Rid};
use ipa::flash::{for_each_case, FlashConfig};
use ipa::noftl::{IpaMode, NoFtlConfig, NoFtlError};

/// 1 KiB pages (a handful of tuples each), a pool of 8 frames that the heap
/// outgrows, in-place appends, and a log small enough to be reclaimed.
fn db() -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    let config = DbConfig { log_capacity_bytes: 128 << 10, ..DbConfig::eager(8) };
    Database::open(cfg, &[NxM::new(2, 16, 12)], config).unwrap()
}

/// The rows a transaction sees: row number to where the tuple is and its
/// bytes.
type Rows = BTreeMap<u32, (Rid, Vec<u8>)>;

/// One heap operation of a transaction, on a row number.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Vec<u8>),
    Update(u32, Vec<u8>),
    Delete(u32),
}

/// How a transaction ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Commit,
    Abort,
    /// Left open, its records forced to the log or not, when the power
    /// fails.
    Crash {
        forced: bool,
    },
}

/// What the operations of a history covered.
#[derive(Debug, Default)]
struct Seen {
    windows: usize,
    unchanged: usize,
    resized: usize,
    repeated: usize,
}

/// `tuple` with a few bytes changed: one, a short run, bytes here and
/// there, none at all, or every one. A changed byte is inverted, so it
/// differs.
fn changed(rng: &mut StdRng, tuple: &[u8], seen: &mut Seen) -> Vec<u8> {
    let mut new = tuple.to_vec();
    let len = new.len();
    match rng.gen_range(0..10) {
        0 => seen.unchanged += 1,
        1 => new.iter_mut().for_each(|b| *b = !*b),
        2..=4 => {
            let at = rng.gen_range(0..len);
            new[at] = !new[at];
        }
        5..=7 => {
            let at = rng.gen_range(0..len);
            let end = (at + rng.gen_range(1..12usize)).min(len);
            new[at..end].iter_mut().for_each(|b| *b = !*b);
        }
        _ => {
            for _ in 0..rng.gen_range(2..5) {
                let at = rng.gen_range(0..len);
                new[at] = !new[at];
            }
        }
    }
    seen.windows += 1;
    new
}

/// Random bytes, as many as `lens` draws.
fn random_tuple(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen()).collect()
}

/// The operations of one transaction over `staged`, the rows the
/// transaction sees, applied to it (with the old places: `run` learns the
/// new ones). `next_row` numbers inserted rows.
fn ops(rng: &mut StdRng, staged: &mut Rows, next_row: &mut u32, seen: &mut Seen) -> Vec<Op> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(4..30) {
        let rows: Vec<u32> = staged.keys().copied().collect();
        let pick = rows.get(rng.gen_range(0..rows.len().max(1))).copied();
        let op = match (rng.gen_range(0..20), pick) {
            (0..=1, _) | (_, None) => {
                let row = *next_row;
                *next_row += 1;
                Op::Insert(row, random_tuple(rng, 8..120))
            }
            (2, Some(row)) => Op::Delete(row),
            (3..=4, Some(row)) => {
                // Grows: the page may not hold it, and the tuple moves.
                let mut new = staged[&row].1.clone();
                new.extend(random_tuple(rng, 1..80));
                seen.resized += 1;
                Op::Update(row, new)
            }
            (5, Some(row)) => {
                let old = &staged[&row].1;
                let new = old[..rng.gen_range(1..=old.len())].to_vec();
                seen.resized += usize::from(new.len() < old.len());
                Op::Update(row, new)
            }
            (6..=7, Some(row)) => {
                // The same tuple, again and again.
                seen.repeated += 1;
                for _ in 0..rng.gen_range(1..4) {
                    let new = changed(rng, &staged[&row].1, seen);
                    staged.get_mut(&row).unwrap().1 = new.clone();
                    out.push(Op::Update(row, new));
                }
                Op::Update(row, changed(rng, &staged[&row].1, seen))
            }
            (_, Some(row)) => Op::Update(row, changed(rng, &staged[&row].1, seen)),
        };
        match &op {
            Op::Insert(row, tuple) => {
                staged.insert(*row, (Rid::decode(0, 0), tuple.clone()));
            }
            Op::Update(row, tuple) => staged.get_mut(row).unwrap().1 = tuple.clone(),
            Op::Delete(row) => {
                staged.remove(row);
            }
        }
        out.push(op);
    }
    out
}

/// Run one transaction of `ops` on `db`, ended as `end`, over `before`,
/// the committed rows; returns the rows it leaves if it commits, each read
/// back where the engine put it. Returns how many updates moved a tuple.
///
/// A transaction that grew the heap and does not commit has its records
/// forced. The heap's page list is not logged (ROADMAP 1(d)): were they
/// lost, a crash would leave a page in the list that is on flash and in
/// the pool nowhere, and the next insert there would fail.
fn run(db: &mut Database, heap: u32, ops: &[Op], end: End, before: &Rows) -> (Rows, usize) {
    let (mut staged, mut moved) = (before.clone(), 0);
    let pages = db.heap_pages(heap).len();
    let mut tx = db.txn();
    for op in ops {
        match op {
            Op::Insert(row, tuple) => {
                let rid = tx.heap_insert(heap, tuple).unwrap();
                staged.insert(*row, (rid, tuple.clone()));
            }
            Op::Update(row, tuple) => {
                let entry = staged.get_mut(row).unwrap();
                let rid = tx.heap_update(heap, entry.0, tuple).unwrap();
                moved += usize::from(rid != entry.0);
                *entry = (rid, tuple.clone());
                assert_eq!(&tx.heap_read(heap, rid).unwrap(), tuple);
            }
            Op::Delete(row) => {
                let (rid, _) = staged.remove(row).unwrap();
                tx.heap_delete(heap, rid).unwrap();
            }
        }
    }
    let forced = match end {
        End::Commit => return (tx.commit().map(|()| staged).unwrap(), moved),
        End::Abort => tx.abort().map(|()| false).unwrap(),
        End::Crash { forced } => {
            let _loser = tx.park();
            forced
        }
    };
    if forced || db.heap_pages(heap).len() > pages {
        db.force_log();
    }
    (staged, moved)
}

/// Every live tuple of the heap by where it is, and every heap page's
/// bytes by its logical page: its slot count, its free space, and its body
/// and slot table. (Its PageLSN and its delta area tell the log's and the
/// flushes' histories, which the two restarts write apart.) A page that a loser allocated is in the
/// heap's page list (the catalog is not logged) but, when the crash lost
/// the loser's records, on flash and in the pool nowhere: it holds nothing.
fn contents(db: &mut Database, heap: u32) -> (BTreeMap<Rid, Vec<u8>>, BTreeMap<u64, Vec<u8>>) {
    let (mut tuples, mut pages) = (BTreeMap::new(), BTreeMap::new());
    let body = db.layout(0).body_start();
    for pid in db.heap_pages(heap).to_vec() {
        let read = db.with_page(pid, |page| {
            for slot in page.live_slots() {
                tuples.insert(Rid { page: pid, slot }, page.tuple(slot).unwrap().to_vec());
            }
            let mut image = page.bytes()[body..].to_vec();
            image.extend_from_slice(&page.slot_count().to_le_bytes());
            image.extend_from_slice(&page.free_space_for_insert().to_le_bytes());
            image
        });
        match read {
            Ok(bytes) => {
                pages.insert(pid.lba.0, bytes);
            }
            Err(EngineError::NoFtl(NoFtlError::Unmapped(_))) => {}
            Err(e) => panic!("{pid:?}: {e}"),
        }
    }
    (tuples, pages)
}

/// Crash both databases and restart the first checkpoint-bounded, the
/// second with the full scan: both hold exactly the committed tuples and
/// the same pages. Returns those pages.
fn restart(dbs: &mut [Database; 2], heap: u32, committed: &Rows) -> BTreeMap<u64, Vec<u8>> {
    let expected: BTreeMap<Rid, Vec<u8>> = committed.values().cloned().collect();
    assert_eq!(expected.len(), committed.len(), "two rows at one place");
    let mut pages = Vec::new();
    for (bounded, db) in [true, false].into_iter().zip(dbs.iter_mut()) {
        db.simulate_crash();
        if bounded { db.recover() } else { db.recover_unbounded() }.unwrap();
        let (tuples, heap_pages) = contents(db, heap);
        assert!(tuples == expected, "bounded: {bounded}: the live tuples are not the committed");
        pages.push(heap_pages);
    }
    assert!(pages[0] == pages[1], "the two restarts left different pages");
    pages.swap_remove(0)
}

#[test]
fn tuple_updates_replay_to_the_same_heap() {
    let (mut crashes, mut moved, mut seen) = (0, 0, Seen::default());
    let (mut evictions, mut reclaims) = (0, 0);
    for_each_case(16, |rng| {
        let mut dbs = [db(), db()];
        let heap = dbs.each_mut().map(|db| db.create_heap(0))[0];
        let (mut committed, mut next_row) = (Rows::new(), 0);
        for _ in 0..rng.gen_range(40..60) {
            let mut staged = committed.clone();
            let ops = ops(rng, &mut staged, &mut next_row, &mut seen);
            let end = match rng.gen_range(0..10) {
                0..=5 => End::Commit,
                6 => End::Abort,
                _ => End::Crash { forced: rng.gen_bool(0.5) },
            };
            let (checkpoint, steal) = (rng.gen_bool(0.2), rng.gen_bool(0.2));
            let mut after = Vec::new();
            for db in &mut dbs {
                let (rows, n) = run(db, heap, &ops, end, &committed);
                db.background_work().unwrap();
                if checkpoint {
                    db.checkpoint().unwrap();
                }
                if steal {
                    db.flush_all().unwrap();
                }
                moved += n;
                after.push(rows);
            }
            assert!(after[0] == after[1], "the two databases put the tuples apart");
            match end {
                End::Commit => committed = after.swap_remove(0),
                End::Abort => {
                    // Rolled back: every committed tuple is where it was.
                    for db in &mut dbs {
                        for (rid, tuple) in committed.values() {
                            assert_eq!(&db.heap_read_unlocked(*rid).unwrap(), tuple);
                        }
                    }
                }
                End::Crash { .. } => {
                    let first = restart(&mut dbs, heap, &committed);
                    let second = restart(&mut dbs, heap, &committed);
                    assert!(first == second, "a second restart changed the pages");
                    crashes += 1;
                    // The two restarts fetched different pages, so the
                    // pools part ways, and with them which steals force
                    // which records to the log before the next crash. Both
                    // databases flush, checkpoint and restart from a log
                    // with nothing to redo, to the same empty pool.
                    for db in &mut dbs {
                        db.flush_all().unwrap();
                        db.checkpoint().unwrap();
                        db.simulate_crash();
                        db.recover().unwrap();
                    }
                }
            }
        }
        restart(&mut dbs, heap, &committed);
        evictions += dbs[0].stats().evictions;
        reclaims += dbs[0].stats().log_reclaims;
    });
    // Both databases count their moves.
    moved /= 2;
    assert!(crashes >= 200 && moved >= 600, "{crashes} crashes, {moved} tuples moved");
    assert!(evictions >= 3_000 && reclaims >= 50, "{evictions} evictions, {reclaims} reclaims");
    let Seen { windows, unchanged, resized, repeated } = seen;
    assert!(windows >= 10_000 && unchanged >= 1_000, "{seen:?}");
    assert!(resized >= 1_500 && repeated >= 1_000, "{seen:?}");
}
