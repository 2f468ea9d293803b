//! A paged B+-tree (unique `u64` keys → `u64` values).
//!
//! Nodes are regular database pages, so every node mutation flows through
//! the byte-level [`ipa_core::ChangeTracker`] — index pages participate in
//! In-Place Appends exactly like heap pages (the paper applies IPA to
//! "frequently updated tables *or indices*"). A node is edited as its own
//! bytes: the descent copies its image out of the page into a reused
//! buffer, the edit inserts or removes 16-byte entries there, and storing
//! the image logs and applies only the runs of bytes that differ from the
//! page — an append-at-the-end insert dirties, and logs, its count and its
//! entry while a mid-node shift dirties proportionally more (and naturally
//! falls back to an out-of-place flush).
//!
//! Logging is *physiological* (the classic ARIES treatment of indexes):
//! node changes are logged as physical redo-only [`LogPayload::PageWrite`]
//! records, while undo is logical — rolling back an `IndexInsert` performs
//! a tree delete against the current (possibly restructured) tree.
//! Simplification relative to a production tree, documented in DESIGN.md:
//! deletes are lazy (no merge/rebalance).
//!
//! ## Node layout (within the page body region)
//!
//! ```text
//! +0   tag         u8    0xBE = leaf, 0xB1 = internal
//! +1   count       u16
//! +3   next_leaf   u64   lba of the right sibling leaf (MAX = none)
//! +11  entries     count * 16 bytes: key u64 | value u64
//! ```
//!
//! Internal-node convention: entry `i` = `(sep_key_i, child_lba_i)`, where
//! `child_i` covers keys in `[sep_key_i, sep_key_{i+1})`; `sep_key_0` is
//! always `u64::MIN`, so every key has a covering child.

use ipa_core::DbPage;
use ipa_noftl::Lba;

use crate::db::{Database, PageId};
use crate::error::EngineError;
use crate::txn::TxId;
use crate::wal::{encode_runs, LogPayload};
use crate::Result;

const TAG_LEAF: u8 = 0xBE;
const TAG_INTERNAL: u8 = 0xB1;
const NODE_HEADER: usize = 11;
const ENTRY_SIZE: usize = 16;
const NO_SIBLING: u64 = u64::MAX;

/// Catalog entry of one B+-tree index; its identifier is its position in
/// the database catalog.
#[derive(Debug)]
pub struct BTree {
    /// Region the tree's pages live in.
    pub region: usize,
    /// Current root page.
    pub root: PageId,
}

/// The reused buffers of an index edit: the descent's internal pages with
/// the child index chosen at each, the image of the node being edited,
/// that of a split's right sibling, and the runs of the node write being
/// logged.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    path: Vec<(PageId, usize)>,
    image: Vec<u8>,
    right: Vec<u8>,
    runs: Vec<u8>,
}

/// View of one node over its bytes — a page body, or an image copied out of
/// one, which has the same layout: the one parser of that layout.
struct NodeView<'a> {
    leaf: bool,
    next: u64,
    /// Tag through last entry.
    image: &'a [u8],
}

impl<'a> NodeView<'a> {
    fn parse(bytes: &'a [u8], pid: PageId) -> Result<Self> {
        let leaf = match bytes[0] {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            other => {
                return Err(EngineError::IndexError(format!(
                    "page {pid:?} is not a B+-tree node (tag {other:#04x})"
                )))
            }
        };
        let count = u16::from_le_bytes([bytes[1], bytes[2]]) as usize;
        let image = bytes.get(..NODE_HEADER + count * ENTRY_SIZE).ok_or_else(|| {
            EngineError::IndexError(format!("node {pid:?} claims {count} entries, past its page"))
        })?;
        Ok(NodeView { leaf, next: read_u64(bytes, 3), image })
    }

    fn len(&self) -> usize {
        (self.image.len() - NODE_HEADER) / ENTRY_SIZE
    }

    fn key(&self, i: usize) -> u64 {
        read_u64(self.image, NODE_HEADER + i * ENTRY_SIZE)
    }

    fn entry(&self, i: usize) -> (u64, u64) {
        (self.key(i), read_u64(self.image, NODE_HEADER + i * ENTRY_SIZE + 8))
    }

    /// Binary search over the (unique, sorted) keys: `Ok(i)` when entry `i`
    /// holds `key`, else `Err(i)` with the position it would be inserted at.
    fn position(&self, key: u64) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Child index covering `key` (internal nodes).
    fn child_for(&self, key: u64) -> usize {
        match self.position(key) {
            Ok(i) => i,
            Err(0) => 0, // defensive: sep_key_0 should be MIN
            Err(i) => i - 1,
        }
    }

    /// Append the entries in `[lo, hi]` to `out`; the sibling to continue
    /// with, or `NO_SIBLING` once past `hi`.
    fn scan_into(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> u64 {
        let (Ok(start) | Err(start)) = self.position(lo);
        for i in start..self.len() {
            let (k, v) = self.entry(i);
            if k > hi {
                return NO_SIBLING;
            }
            out.push((k, v));
        }
        self.next
    }

    fn copy_into(&self, image: &mut Vec<u8>) {
        image.clear();
        image.extend_from_slice(self.image);
    }
}

/// One hop of a root-to-leaf walk.
enum Step<R> {
    /// Reached the leaf; what the caller's probe found there.
    Leaf(R),
    /// Internal node: the chosen child index and that child's lba.
    Child(usize, u64),
}

fn node_capacity(db: &Database, region: usize) -> usize {
    let layout = db.layout(region);
    (layout.page_size - layout.body_start() - NODE_HEADER) / ENTRY_SIZE
}

/// A page's body, where its node starts.
fn body(page: &DbPage) -> &[u8] {
    &page.bytes()[page.layout().body_start()..]
}

/// Read a little-endian `u64` at `off` without a fallible slice
/// conversion (the length is right by construction).
fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

/// The image of an empty node without a sibling.
fn empty_node(tag: u8) -> [u8; NODE_HEADER] {
    let mut image = [0xFF; NODE_HEADER];
    image[..3].copy_from_slice(&[tag, 0, 0]);
    image
}

/// Set an image's count to the entries it holds.
fn set_count(image: &mut [u8]) {
    let count = (image.len() - NODE_HEADER) / ENTRY_SIZE;
    image[1..3].copy_from_slice(&(count as u16).to_le_bytes());
}

/// Insert `(key, value)` as entry `pos` of an image.
fn insert_entry(image: &mut Vec<u8>, pos: usize, key: u64, value: u64) {
    let off = NODE_HEADER + pos * ENTRY_SIZE;
    image.splice(off..off, key.to_le_bytes().into_iter().chain(value.to_le_bytes()));
    set_count(image);
}

/// Write a node image to its page as the physical redo-only record of the
/// bytes that differ from the page, logged and applied; `runs` is the
/// buffer the record's runs are encoded in.
fn store_node(
    db: &mut Database,
    tx: TxId,
    pid: PageId,
    image: &[u8],
    runs: &mut Vec<u8>,
) -> Result<()> {
    let span = db.with_page(pid, |page| {
        let base = page.layout().body_start();
        encode_runs(&page.bytes()[base..], image, runs).map(|span| (base, span))
    })?;
    let Some((base, span)) = span else { return Ok(()) };
    let (offset, extent) = ((base + span.start) as u32, span.len() as u32);
    db.log_and_apply(tx, LogPayload::<&[u8]>::PageWrite { tx, page: pid, offset, extent, runs })
}

/// Store the edited image `s.image` of `pid`, splitting it while it is
/// over-full, leaf or internal: the upper half becomes a new right
/// sibling's image, the image keeps the lower half, and the separator goes
/// into the parent's image, copied from the page `s.path` names — or, past
/// the root, into a new root.
fn store_or_split(
    db: &mut Database,
    s: &mut NodeScratch,
    tx: TxId,
    index: u32,
    mut pid: PageId,
) -> Result<()> {
    let region = db.kept.indexes[index as usize].region;
    let cap = node_capacity(db, region).max(4);
    loop {
        let node = NodeView::parse(&s.image, pid)?;
        let (count, leaf) = (node.len(), node.leaf);
        if count <= cap {
            return store_node(db, tx, pid, &s.image, &mut s.runs);
        }
        let sep = node.key(count / 2);
        let split_at = NODE_HEADER + count / 2 * ENTRY_SIZE;
        // The right sibling takes over the header, and with it the link.
        s.right.clear();
        s.right.extend(s.image[..NODE_HEADER].iter().chain(&s.image[split_at..]));
        set_count(&mut s.right);
        s.image.truncate(split_at);
        set_count(&mut s.image);
        let right = db.new_page(region)?;
        if leaf {
            s.image[3..NODE_HEADER].copy_from_slice(&right.lba.0.to_le_bytes());
        }
        store_node(db, tx, right, &s.right, &mut s.runs)?;
        store_node(db, tx, pid, &s.image, &mut s.runs)?;
        let Some((parent, ci)) = s.path.pop() else {
            // The split reached the root: grow the tree.
            let new_root = db.new_page(region)?;
            s.image.clear();
            s.image.extend_from_slice(&empty_node(TAG_INTERNAL));
            insert_entry(&mut s.image, 0, u64::MIN, pid.lba.0);
            insert_entry(&mut s.image, 1, sep, right.lba.0);
            store_node(db, tx, new_root, &s.image, &mut s.runs)?;
            db.kept.indexes[index as usize].root = new_root;
            db.log_for_tx(tx, LogPayload::RootChange { tx, index, new_root })?;
            return Ok(());
        };
        db.with_page(parent, |page| {
            NodeView::parse(body(page), parent).map(|node| node.copy_into(&mut s.image))
        })??;
        insert_entry(&mut s.image, ci + 1, sep, right.lba.0);
        pid = parent;
    }
}

impl Database {
    /// Create an empty B+-tree index in a region.
    pub fn create_index(&mut self, region: usize) -> Result<u32> {
        let id = self.kept.indexes.len() as u32;
        let root = self.new_page(region)?;
        // Catalog operations are force-written: the empty root reaches
        // flash immediately, so restart redo always finds a valid node to
        // build on (its initialization is not logged).
        self.with_page_mut(root, |page, tracker| {
            page.write_body(page.layout().body_start(), &empty_node(TAG_LEAF), tracker);
            Ok(())
        })?;
        self.flush_page(root)?;
        self.kept.indexes.push(BTree { region, root });
        Ok(id)
    }

    /// Root page of an index (diagnostics).
    pub fn index_root(&self, index: u32) -> PageId {
        self.kept.indexes[index as usize].root
    }

    /// Walk from the root to the leaf covering `key`: `on_hop` sees every
    /// internal page with the child index chosen there, and `at_leaf`
    /// searches the leaf within the same page access that identified it.
    fn walk<R>(
        &mut self,
        index: u32,
        key: u64,
        mut on_hop: impl FnMut(PageId, usize),
        mut at_leaf: impl FnMut(&NodeView<'_>) -> R,
    ) -> Result<(PageId, R)> {
        let region = self.kept.indexes[index as usize].region;
        let mut pid = self.kept.indexes[index as usize].root;
        loop {
            let step = self.with_page(pid, |page| -> Result<Step<R>> {
                let node = NodeView::parse(body(page), pid)?;
                if node.leaf {
                    return Ok(Step::Leaf(at_leaf(&node)));
                }
                let ci = node.child_for(key);
                Ok(Step::Child(ci, node.entry(ci).1))
            })??;
            match step {
                Step::Leaf(found) => return Ok((pid, found)),
                Step::Child(ci, child) => {
                    on_hop(pid, ci);
                    pid = PageId { region, lba: Lba(child) };
                }
            }
        }
    }

    /// Point lookup.
    pub fn index_lookup(&mut self, index: u32, key: u64) -> Result<Option<u64>> {
        let (_, found) = self.walk(
            index,
            key,
            |_, _| (),
            |leaf| leaf.position(key).ok().map(|i| leaf.entry(i).1),
        )?;
        Ok(found)
    }

    /// Insert a unique key. A duplicate is refused before anything is
    /// logged.
    pub(crate) fn index_insert(
        &mut self,
        tx: TxId,
        index: u32,
        key: u64,
        value: u64,
    ) -> Result<()> {
        match self.index_edit(tx, index, key, Some(value), true)? {
            Some(_) => Err(EngineError::IndexError(format!("duplicate key {key}"))),
            None => Ok(()),
        }
    }

    /// Delete a key, returning its value.
    pub(crate) fn index_delete(&mut self, tx: TxId, index: u32, key: u64) -> Result<Option<u64>> {
        self.index_edit(tx, index, key, None, true)
    }

    /// The one index mutation, shared by forward processing and the
    /// rollback compensations: insert `key → value` unless `key` is there
    /// (`insert = Some(value)`), or delete `key` if it is (`None`), and
    /// return the value `key` held before. One descent, whose leaf access
    /// copies the leaf's image. With `logical` (forward processing), the
    /// undo-only `IndexInsert` / `IndexDelete` is logged after that read and
    /// before any node write, so a refused insert logs nothing.
    pub(crate) fn index_edit(
        &mut self,
        tx: TxId,
        index: u32,
        key: u64,
        insert: Option<u64>,
        logical: bool,
    ) -> Result<Option<u64>> {
        let mut s = std::mem::take(&mut self.lost.index_scratch);
        s.path.clear();
        let descent = self.walk(
            index,
            key,
            |pid, ci| s.path.push((pid, ci)),
            |leaf| {
                leaf.copy_into(&mut s.image);
                leaf.position(key).map(|i| (i, leaf.entry(i).1))
            },
        );
        let result = descent.and_then(|(leaf, found)| {
            let old = match (found, insert) {
                (Ok((_, old)), Some(_)) => return Ok(Some(old)),
                (Err(_), None) => return Ok(None),
                (Err(pos), Some(value)) => {
                    if logical {
                        self.log_for_tx(tx, LogPayload::IndexInsert { tx, index, key, value })?;
                    }
                    insert_entry(&mut s.image, pos, key, value);
                    None
                }
                (Ok((pos, value)), None) => {
                    if logical {
                        self.log_for_tx(tx, LogPayload::IndexDelete { tx, index, key, value })?;
                    }
                    let off = NODE_HEADER + pos * ENTRY_SIZE;
                    s.image.drain(off..off + ENTRY_SIZE);
                    set_count(&mut s.image);
                    Some(value)
                }
            };
            store_or_split(self, &mut s, tx, index, leaf)?;
            Ok(old)
        });
        self.lost.index_scratch = s;
        result
    }

    /// Range scan over `[lo, hi]`, following the leaf chain; the descent's
    /// leaf access scans the first leaf.
    pub fn index_range(&mut self, index: u32, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>> {
        let region = self.kept.indexes[index as usize].region;
        let mut out = Vec::new();
        let (_, mut next) =
            self.walk(index, lo, |_, _| (), |leaf| leaf.scan_into(lo, hi, &mut out))?;
        while next != NO_SIBLING {
            let leaf = PageId { region, lba: Lba(next) };
            next = self.with_page(leaf, |page| {
                NodeView::parse(body(page), leaf).map(|node| node.scan_into(lo, hi, &mut out))
            })??;
        }
        Ok(out)
    }

    /// Number of entries (full scan; diagnostics).
    pub fn index_count(&mut self, index: u32) -> Result<u64> {
        Ok(self.index_range(index, u64::MIN, u64::MAX)?.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::test_db;
    use ipa_core::NxM;

    #[test]
    fn insert_lookup_small() {
        let mut db = test_db(NxM::disabled(), 64);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in [5u64, 1, 9, 3, 7] {
            db.index_insert(tx, idx, k, k * 100).unwrap();
        }
        db.commit_tx(tx).unwrap();
        assert_eq!(db.index_lookup(idx, 3).unwrap(), Some(300));
        assert_eq!(db.index_lookup(idx, 4).unwrap(), None);
        assert_eq!(db.index_count(idx).unwrap(), 5);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut db = test_db(NxM::disabled(), 64);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        db.index_insert(tx, idx, 1, 10).unwrap();
        assert!(matches!(db.index_insert(tx, idx, 1, 20), Err(EngineError::IndexError(_))));
    }

    #[test]
    fn splits_preserve_order_and_lookup() {
        let mut db = test_db(NxM::disabled(), 128);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        // Enough keys to force multiple levels (node capacity ~53 on
        // 1 KiB pages).
        let n = 2_000u64;
        for k in 0..n {
            let key = (k * 2_654_435_761) % 1_000_003; // pseudo-random unique
            db.index_insert(tx, idx, key, k).unwrap();
        }
        db.commit_tx(tx).unwrap();
        // Root must have grown beyond a single leaf.
        let root_pid = db.index_root(idx);
        let root_is_leaf =
            db.with_page(root_pid, |page| NodeView::parse(body(page), root_pid).unwrap().leaf);
        assert!(!root_is_leaf.unwrap());
        // Every key findable.
        for k in (0..n).step_by(97) {
            let key = (k * 2_654_435_761) % 1_000_003;
            assert_eq!(db.index_lookup(idx, key).unwrap(), Some(k), "key {key}");
        }
        // Range scan is sorted and complete.
        let all = db.index_range(idx, 0, u64::MAX).unwrap();
        assert_eq!(all.len() as u64, n);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn lookup_fetches_each_level_once() {
        let mut db = test_db(NxM::disabled(), 128);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in 0..2_000u64 {
            db.index_insert(tx, idx, k, k).unwrap();
        }
        db.commit_tx(tx).unwrap();
        let mut levels = 1;
        db.walk(idx, 1_234, |_, _| levels += 1, |_| ()).unwrap();
        assert!(levels >= 3);
        // The leaf used to be fetched a second time after the descent.
        db.reset_stats();
        assert_eq!(db.index_lookup(idx, 1_234).unwrap(), Some(1_234));
        assert_eq!((db.stats().fetches, db.stats().hits), (levels, levels));
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        let mut db = test_db(NxM::disabled(), 128);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in 0..500u64 {
            db.index_insert(tx, idx, k, k).unwrap();
        }
        db.commit_tx(tx).unwrap();
        assert_eq!(db.index_count(idx).unwrap(), 500);
        let sub = db.index_range(idx, 100, 199).unwrap();
        assert_eq!(sub.len(), 100);
        assert_eq!(sub[0], (100, 100));
        assert_eq!(sub[99], (199, 199));
    }

    #[test]
    fn delete_removes_and_returns_value() {
        let mut db = test_db(NxM::disabled(), 64);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in 0..100u64 {
            db.index_insert(tx, idx, k, k + 1).unwrap();
        }
        assert_eq!(db.index_delete(tx, idx, 50).unwrap(), Some(51));
        assert_eq!(db.index_delete(tx, idx, 50).unwrap(), None);
        assert_eq!(db.index_lookup(idx, 50).unwrap(), None);
        assert_eq!(db.index_count(idx).unwrap(), 99);
        db.commit_tx(tx).unwrap();
    }

    #[test]
    fn tree_survives_flush_and_refetch() {
        let mut db = test_db(NxM::tpcc(), 16);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in 0..300u64 {
            db.index_insert(tx, idx, k, k).unwrap();
        }
        db.commit_tx(tx).unwrap();
        db.flush_all().unwrap();
        // Evict everything by touching fresh pages.
        for _ in 0..16 {
            db.new_page(0).unwrap();
        }
        for k in (0..300u64).step_by(29) {
            assert_eq!(db.index_lookup(idx, k).unwrap(), Some(k));
        }
    }

    #[test]
    fn value_update_via_delete_insert_uses_ipa() {
        // Updating an index value in place (delete+insert of same key at
        // the same position) changes few bytes -> IPA flush.
        let mut db = test_db(NxM::new(2, 16, 12), 16);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in 0..10u64 {
            db.index_insert(tx, idx, k, 0).unwrap();
        }
        db.commit_tx(tx).unwrap();
        db.flush_all().unwrap();
        db.reset_stats();
        let tx = db.start_tx();
        db.index_delete(tx, idx, 9).unwrap();
        db.index_insert(tx, idx, 9, 1).unwrap();
        db.commit_tx(tx).unwrap();
        db.flush_all().unwrap();
        assert!(db.stats().ipa_flushes >= 1, "stats: {:?}", db.stats());
    }

    /// A database whose index holds the committed entry `1 → 10`.
    fn committed_one_to_ten() -> (Database, u32) {
        let mut db = test_db(NxM::disabled(), 32);
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        tx.index_insert(idx, 1, 10).unwrap();
        tx.commit().unwrap();
        (db, idx)
    }

    #[test]
    fn aborting_after_a_refused_duplicate_keeps_the_committed_entry() {
        // A refused insert must log nothing: rollback inverts a logged
        // `IndexInsert` into a delete of its key, here the committed entry.
        let (mut db, idx) = committed_one_to_ten();
        let mut tx = db.txn();
        assert!(matches!(tx.index_insert(idx, 1, 20), Err(EngineError::IndexError(_))));
        tx.abort().unwrap();
        assert_eq!(db.index_lookup(idx, 1).unwrap(), Some(10));
    }

    #[test]
    fn restart_after_a_refused_duplicate_keeps_the_committed_entry() {
        let (mut db, idx) = committed_one_to_ten();
        let mut tx = db.txn();
        assert!(matches!(tx.index_insert(idx, 1, 20), Err(EngineError::IndexError(_))));
        let _loser = tx.park();
        db.force_log();
        db.simulate_crash();
        db.recover().unwrap();
        assert_eq!(db.index_lookup(idx, 1).unwrap(), Some(10));
    }

    #[test]
    fn an_edit_descends_once_and_accesses_its_leaf_three_times() {
        // The descent's leaf access copies the image; storing it diffs
        // against the page and then applies the record: no further access,
        // forward or in a rollback's compensation.
        let mut db = test_db(NxM::disabled(), 128);
        let idx = db.create_index(0).unwrap();
        let tx = db.start_tx();
        for k in (0..4_000u64).step_by(2) {
            db.index_insert(tx, idx, k, k).unwrap();
        }
        db.commit_tx(tx).unwrap();
        let mut levels = 1;
        db.walk(idx, 1_235, |_, _| levels += 1, |_| ()).unwrap();
        assert!(levels >= 3);
        let fetches = |db: &mut Database, op: &dyn Fn(&mut Database)| {
            db.reset_stats();
            op(db);
            db.stats().fetches
        };
        for delete in [false, true] {
            let tx = db.start_tx();
            let edit = |db: &mut Database| {
                if delete {
                    assert_eq!(db.index_delete(tx, idx, 1_234).unwrap(), Some(1_234));
                } else {
                    db.index_insert(tx, idx, 1_235, 0).unwrap();
                }
            };
            assert_eq!(fetches(&mut db, &edit), levels + 2, "forward, delete: {delete}");
            let abort = |db: &mut Database| db.abort_tx(tx).unwrap();
            assert_eq!(fetches(&mut db, &abort), levels + 2, "compensation, delete: {delete}");
        }
        assert_eq!(db.index_lookup(idx, 1_234).unwrap(), Some(1_234));
        assert_eq!(db.index_lookup(idx, 1_235).unwrap(), None);
    }
}
