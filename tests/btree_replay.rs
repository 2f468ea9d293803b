//! Node writes replay to the same tree. A B+-tree node write is logged as
//! the runs of bytes it changed, so restart redo is correct only if it
//! applies each record to the node as it was when the record was logged.
//! Two databases run one seeded history of index churn — ascending,
//! descending and random inserts, deletes, splits to three levels and
//! more, commits, aborts, checkpoints, steals — and crash together at
//! seeded points with a loser in flight. One restarts checkpoint-bounded,
//! the other with the full scan; each then crashes and restarts again
//! before it has done anything. After every restart both trees hold
//! exactly the committed keys, and every node's bytes are the same in both
//! databases and across both restarts.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig, PageId};
use ipa::flash::{for_each_case, FlashConfig};
use ipa::noftl::{IpaMode, Lba, NoFtlConfig};

/// Node layout (see `crates/engine/src/btree.rs`): tag, count, sibling,
/// then 16-byte entries whose second half is an internal node's child.
const TAG_LEAF: u8 = 0xBE;
const NODE_HEADER: usize = 11;
const ENTRY_SIZE: usize = 16;

/// 1 KiB pages (about fifty entries a node), a pool of 24 frames that the
/// tree outgrows, in-place appends, and a log small enough to be reclaimed.
fn db() -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    let config = DbConfig { log_capacity_bytes: 256 << 10, ..DbConfig::eager(24) };
    Database::open(cfg, &[NxM::new(2, 16, 12)], config).unwrap()
}

/// One index edit.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert(u64, u64),
    Delete(u64),
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

/// The edits of one transaction over `staged`, the keys the transaction
/// sees, applied to it: a run of ascending or descending keys, random
/// keys, or deletes of present and absent keys.
fn edits(rng: &mut StdRng, staged: &mut BTreeMap<u64, u64>) -> Vec<Edit> {
    let n = rng.gen_range(20..160u64);
    let keys: Vec<u64> = match rng.gen_range(0..4) {
        0 => {
            let from = rng.gen_range(0..1_000_000u64);
            (from..from + n).collect()
        }
        1 => {
            let from = rng.gen_range(0..1_000_000u64);
            (from..from + n).rev().collect()
        }
        2 => (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect(),
        _ => {
            let present: Vec<u64> = staged.keys().copied().collect();
            let mut deletes = Vec::new();
            for _ in 0..n / 2 {
                match present.get(rng.gen_range(0..present.len().max(1))) {
                    Some(&key) if rng.gen_bool(0.8) => deletes.push(key),
                    _ => deletes.push(rng.gen_range(0..1_000_000u64)),
                }
            }
            for &key in &deletes {
                staged.remove(&key);
            }
            return deletes.into_iter().map(Edit::Delete).collect();
        }
    };
    let mut out = Vec::new();
    for key in keys {
        if let std::collections::btree_map::Entry::Vacant(e) = staged.entry(key) {
            let value = rng.gen();
            e.insert(value);
            out.push(Edit::Insert(key, value));
        }
    }
    out
}

/// Run one transaction of `edits` on `db`, ended as `end`, checking what
/// each delete returns against `before`, the committed keys.
fn run(db: &mut Database, idx: u32, edits: &[Edit], end: End, before: &BTreeMap<u64, u64>) {
    let mut staged = before.clone();
    let mut tx = db.txn();
    for &edit in edits {
        match edit {
            Edit::Insert(key, value) => {
                tx.index_insert(idx, key, value).unwrap();
                staged.insert(key, value);
            }
            Edit::Delete(key) => {
                assert_eq!(tx.index_delete(idx, key).unwrap(), staged.remove(&key))
            }
        }
    }
    match end {
        End::Commit => tx.commit().unwrap(),
        End::Abort => tx.abort().unwrap(),
        End::Crash { forced } => {
            let _loser = tx.park();
            if forced {
                db.force_log();
            }
        }
    }
}

/// Every node reachable from the root, by page, as its bytes from the tag
/// through its last entry, and the tree's number of levels.
fn nodes(db: &mut Database, idx: u32) -> (BTreeMap<u64, Vec<u8>>, usize) {
    let base = db.layout(0).body_start();
    let (mut out, mut level, mut levels) = (BTreeMap::new(), vec![db.index_root(idx)], 0);
    while !level.is_empty() {
        levels += 1;
        let mut next = Vec::new();
        for pid in level {
            let image = db
                .with_page(pid, |page| {
                    let body = &page.bytes()[base..];
                    let count = usize::from(u16::from_le_bytes([body[1], body[2]]));
                    body[..NODE_HEADER + count * ENTRY_SIZE].to_vec()
                })
                .unwrap();
            if image[0] != TAG_LEAF {
                for entry in image[NODE_HEADER..].chunks_exact(ENTRY_SIZE) {
                    let child = u64::from_le_bytes(entry[8..].try_into().unwrap());
                    next.push(PageId { lba: Lba(child), ..pid });
                }
            }
            out.insert(pid.lba.0, image);
        }
        level = next;
    }
    (out, levels)
}

/// Crash both databases and restart the first checkpoint-bounded, the
/// second with the full scan: both hold the committed keys and the same
/// nodes. Returns those nodes and the tree's levels.
fn restart(
    dbs: &mut [Database; 2],
    idx: u32,
    committed: &BTreeMap<u64, u64>,
) -> (BTreeMap<u64, Vec<u8>>, usize) {
    for (bounded, db) in [true, false].into_iter().zip(dbs.iter_mut()) {
        db.simulate_crash();
        if bounded { db.recover() } else { db.recover_unbounded() }.unwrap();
        let keys = db.index_range(idx, u64::MIN, u64::MAX).unwrap();
        assert!(keys.into_iter().eq(committed.iter().map(|(&k, &v)| (k, v))), "bounded: {bounded}");
    }
    let [a, b] = dbs;
    let (bounded, full_scan) = (nodes(a, idx), nodes(b, idx));
    assert!(bounded == full_scan, "the two restarts left different nodes");
    bounded
}

#[test]
fn node_writes_replay_to_the_same_tree() {
    let (mut crashes, mut deep) = (0, 0);
    for_each_case(8, |rng| {
        let mut dbs = [db(), db()];
        let idx = dbs.each_mut().map(|db| db.create_index(0).unwrap())[0];
        let mut committed = BTreeMap::new();
        let mut levels = 1;
        for _ in 0..rng.gen_range(30..50) {
            let mut staged = committed.clone();
            let edits = edits(rng, &mut staged);
            let end = match rng.gen_range(0..10) {
                0..=6 => End::Commit,
                7 => End::Abort,
                _ => End::Crash { forced: rng.gen_bool(0.5) },
            };
            let (checkpoint, steal) = (rng.gen_bool(0.2), rng.gen_bool(0.2));
            for db in &mut dbs {
                run(db, idx, &edits, end, &committed);
                db.background_work().unwrap();
                if checkpoint {
                    db.checkpoint().unwrap();
                }
                if steal {
                    db.flush_all().unwrap();
                }
            }
            if end == End::Commit {
                committed = staged;
            }
            if let End::Crash { .. } = end {
                let first = restart(&mut dbs, idx, &committed);
                let second = restart(&mut dbs, idx, &committed);
                assert!(first == second, "a second restart changed the nodes");
                levels = first.1;
                crashes += 1;
            }
        }
        let (_, final_levels) = restart(&mut dbs, idx, &committed);
        levels = levels.max(final_levels);
        deep += usize::from(levels >= 3);
    });
    assert!(crashes >= 40 && deep == 8, "{crashes} crashes, {deep} cases of three levels");
}
