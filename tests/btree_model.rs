//! Model-based property test of the paged B+-tree against a BTreeMap,
//! including flush/refetch cycles so node images round-trip through the
//! flash layer, and transactions that commit or abort: an abort must
//! restore the last commit, through refused duplicates and splits. Point
//! lookups and range scans read node pages in place (no owned copy of the
//! entries), so they are checked across multi-level trees, every
//! leaf-chain boundary, the extreme keys and absent keys.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig, EngineError, PageId};
use ipa::flash::{for_each_case, FlashConfig};
use ipa::noftl::{IpaMode, Lba, NoFtlConfig};

fn db() -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    Database::open(cfg, &[NxM::new(2, 16, 12)], DbConfig::eager(48)).unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    /// Insert the absent ones of `RUN` consecutive keys: more than a leaf
    /// holds, so the leaves under them split.
    InsertRun(u64),
    Delete(u64),
    Lookup(u64),
    Range(u64, u64),
    FlushAll,
    /// End the transaction and begin the next.
    Commit,
    /// Roll the transaction back and begin the next.
    Abort,
}

/// Keys of an [`Op::InsertRun`].
const RUN: u64 = 64;

/// Keys over the preloaded range (every third key is present there, so
/// two in three probes are absent), with the extremes of the key space:
/// drawn 12 : 1 : 1 : 1.
fn key(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..15) {
        0..=11 => rng.gen_range(0u64..4000),
        12 => u64::MIN,
        13 => u64::MAX,
        _ => rng.gen_range((u64::MAX - 4)..=u64::MAX),
    }
}

/// Insert : InsertRun : Delete : Lookup : short Range : any Range :
/// FlushAll : Commit : Abort drawn 4 : 1 : 2 : 3 : 2 : 1 : 1 : 1 : 1.
fn op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..16) {
        0..=3 => Op::Insert(key(rng), rng.gen()),
        4 => Op::InsertRun(rng.gen_range(0u64..4000)),
        5..=6 => Op::Delete(key(rng)),
        7..=9 => Op::Lookup(key(rng)),
        10..=11 => {
            let lo = key(rng);
            Op::Range(lo, lo.saturating_add(rng.gen_range(0u64..200)))
        }
        12 => {
            let (a, b) = (key(rng), key(rng));
            Op::Range(a.min(b), a.max(b))
        }
        13 => Op::FlushAll,
        14 => Op::Commit,
        _ => Op::Abort,
    }
}

/// A node's tag, sibling and first child (node layout: see
/// `crates/engine/src/btree.rs`).
fn node_header(d: &mut Database, pid: PageId) -> (u8, u64, u64) {
    let base = d.layout(0).body_start();
    let word =
        |b: &[u8], at: usize| u64::from_le_bytes(b[base + at..base + at + 8].try_into().unwrap());
    d.with_page(pid, |page| (page.bytes()[base], word(page.bytes(), 3), word(page.bytes(), 19)))
        .unwrap()
}

/// Levels from the root down to (and including) the leaves, following the
/// leftmost child pointers, and the leftmost leaf.
fn leftmost_leaf(d: &mut Database, idx: u32) -> (usize, PageId) {
    let mut pid = d.index_root(idx);
    let mut depth = 1;
    loop {
        let (tag, _, child) = node_header(d, pid);
        if tag == 0xBE {
            return (depth, pid);
        }
        pid.lba = Lba(child);
        depth += 1;
    }
}

/// Leaves on the leaf chain: a split adds one, and an abort takes none
/// away (rollback is logical).
fn leaf_count(d: &mut Database, idx: u32) -> usize {
    let (_, mut pid) = leftmost_leaf(d, idx);
    let mut leaves = 1;
    loop {
        let (_, next, _) = node_header(d, pid);
        if next == u64::MAX {
            return leaves;
        }
        pid.lba = Lba(next);
        leaves += 1;
    }
}

fn entries(model: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    model.iter().map(|(&k, &v)| (k, v)).collect()
}

#[test]
fn btree_matches_model() {
    // Aborted transactions, across the cases, that refused a duplicate and
    // that split a leaf.
    let (mut aborted_refusals, mut aborted_splits) = (0, 0);
    for_each_case(24, |rng| {
        let preload = rng.gen_range(0u64..3);
        let ops: Vec<Op> = (0..rng.gen_range(1..120)).map(|_| op(rng)).collect();
        let mut d = db();
        let idx = d.create_index(0).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut tx = d.txn();
        // Start some cases from a tree that has already split many times.
        for k in (0..preload * 1300).map(|i| i * 3) {
            tx.index_insert(idx, k, !k).unwrap();
            model.insert(k, !k);
        }
        tx.commit().unwrap();
        // What the last commit left, which an abort restores.
        let mut committed = model.clone();
        let mut tx = d.txn();
        let (mut refused, mut leaves) = (false, leaf_count(tx.db(), idx));
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let r = tx.index_insert(idx, k, v);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        r.unwrap();
                        e.insert(v);
                    } else {
                        assert!(r.is_err(), "duplicate {k} must be rejected");
                        refused = true;
                    }
                }
                Op::InsertRun(lo) => {
                    for k in lo..lo + RUN {
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                            tx.index_insert(idx, k, !k).unwrap();
                            e.insert(!k);
                        }
                    }
                }
                Op::Delete(k) => {
                    let got = tx.index_delete(idx, k).unwrap();
                    assert_eq!(got, model.remove(&k));
                }
                Op::Lookup(k) => {
                    assert_eq!(tx.index_lookup(idx, k).unwrap(), model.get(&k).copied());
                }
                Op::Range(lo, hi) => {
                    let got = tx.index_range(idx, lo, hi).unwrap();
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want);
                }
                Op::FlushAll => {
                    tx.db().flush_all().unwrap();
                }
                Op::Commit => {
                    tx.commit().unwrap();
                    committed = model.clone();
                    tx = d.txn();
                    (refused, leaves) = (false, leaf_count(tx.db(), idx));
                }
                Op::Abort => {
                    aborted_refusals += u32::from(refused);
                    aborted_splits += u32::from(leaf_count(tx.db(), idx) > leaves);
                    tx.abort().unwrap();
                    model = committed.clone();
                    tx = d.txn();
                    let got = tx.index_range(idx, u64::MIN, u64::MAX).unwrap();
                    assert_eq!(got, entries(&model), "an abort restores the last commit");
                    (refused, leaves) = (false, leaf_count(tx.db(), idx));
                }
            }
        }
        // Final full-range equivalence.
        let got = tx.index_range(idx, u64::MIN, u64::MAX).unwrap();
        assert_eq!(got, entries(&model));
        tx.commit().unwrap();
    });
    assert!(
        aborted_refusals > 0 && aborted_splits > 0,
        "{aborted_refusals} aborted transactions refused a duplicate, {aborted_splits} split"
    );
}

#[test]
fn btree_survives_flush_evict_cycles_with_many_keys() {
    let mut d = db();
    let idx = d.create_index(0).unwrap();
    let mut tx = d.txn();
    let mut model = BTreeMap::new();
    for i in 0..3_000u64 {
        let k = i.wrapping_mul(0x9E37_79B9).rotate_left(11) % 1_000_000;
        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
            e.insert(i);
            tx.index_insert(idx, k, i).unwrap();
        }
        if i % 500 == 0 {
            tx.db().flush_all().unwrap();
        }
    }
    tx.commit().unwrap();
    d.flush_all().unwrap();
    // Evict everything; lookups must come back from flash.
    for _ in 0..48 {
        d.new_page(0).unwrap();
    }
    for (k, _) in model.iter().take(300) {
        assert!(d.index_lookup(idx, *k).unwrap().is_some(), "key {k}");
    }
    let total = d.index_count(idx).unwrap();
    assert_eq!(total as usize, model.len());
}

#[test]
fn in_place_probes_match_model_across_levels_and_leaf_boundaries() {
    let mut d = db();
    let idx = d.create_index(0).unwrap();
    let mut tx = d.txn();
    let mut model = BTreeMap::new();
    // Even keys in a scattered insertion order (mid-node shifts and
    // splits at every level), plus both ends of the key space.
    let n = 6_000u64;
    for i in 0..n {
        let k = (i * 2_654_435_761 % n) * 2 + 2;
        tx.index_insert(idx, k, k ^ 0xABCD).unwrap();
        model.insert(k, k ^ 0xABCD);
    }
    for k in [u64::MIN, u64::MAX] {
        tx.index_insert(idx, k, k ^ 0xABCD).unwrap();
        model.insert(k, k ^ 0xABCD);
    }
    tx.commit().unwrap();
    assert!(leftmost_leaf(&mut d, idx).0 >= 3, "the tree must have split above the leaves");

    // Every present key, and its absent odd neighbours.
    for (&k, &v) in &model {
        assert_eq!(d.index_lookup(idx, k).unwrap(), Some(v), "key {k}");
        for absent in [k.wrapping_sub(1), k.wrapping_add(1)] {
            if !model.contains_key(&absent) {
                assert_eq!(d.index_lookup(idx, absent).unwrap(), None, "absent {absent}");
            }
        }
    }
    assert_eq!(d.index_lookup(idx, u64::MAX - 1).unwrap(), None);

    // A short window starting at every key (so every leaf-chain boundary
    // is crossed), with present and absent bounds on either side.
    let keys: Vec<u64> = model.keys().copied().collect();
    let want = |lo: u64, hi: u64| -> Vec<(u64, u64)> {
        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
    };
    for w in keys.windows(4) {
        let (lo, hi) = (w[0], w[3]);
        assert_eq!(d.index_range(idx, lo, hi).unwrap(), want(lo, hi), "[{lo}, {hi}]");
        let (lo, hi) = (lo.saturating_add(1), hi.saturating_sub(1));
        assert_eq!(d.index_range(idx, lo, hi).unwrap(), want(lo, hi), "[{lo}, {hi}]");
    }
    for (lo, hi) in [
        (u64::MIN, u64::MAX),
        (u64::MIN, u64::MIN),
        (u64::MAX, u64::MAX),
        (u64::MAX - 1, u64::MAX),
        (1, 1),
        (2 * n + 3, u64::MAX - 1),
    ] {
        assert_eq!(d.index_range(idx, lo, hi).unwrap(), want(lo, hi), "[{lo}, {hi}]");
    }
    assert_eq!(d.index_range(idx, 500, 100).unwrap(), vec![], "inverted bounds select nothing");
    assert_eq!(d.index_count(idx).unwrap() as usize, model.len());
}

#[test]
fn foreign_node_bytes_are_an_index_error_not_a_panic() {
    let mut d = db();
    let idx = d.create_index(0).unwrap();
    let mut tx = d.txn();
    for k in 0..10u64 {
        tx.index_insert(idx, k, k).unwrap();
    }
    tx.commit().unwrap();
    let root = d.index_root(idx);
    let base = d.layout(0).body_start();
    let overwrite = |d: &mut Database, offset: usize, bytes: &[u8]| {
        d.with_page_mut(root, |page, tracker| {
            page.write_body(base + offset, bytes, tracker);
            Ok(())
        })
        .unwrap();
    };
    // A valid tag whose entry count runs past the page.
    overwrite(&mut d, 1, &u16::MAX.to_le_bytes());
    assert!(matches!(d.index_lookup(idx, 3), Err(EngineError::IndexError(_))));
    // A tag byte that is neither leaf nor internal.
    overwrite(&mut d, 0, &[0x5A]);
    assert!(matches!(d.index_lookup(idx, 3), Err(EngineError::IndexError(_))));
    assert!(matches!(d.index_range(idx, 0, 9), Err(EngineError::IndexError(_))));
    let mut tx = d.txn();
    assert!(matches!(tx.index_delete(idx, 3), Err(EngineError::IndexError(_))));
    tx.commit().unwrap();
}
