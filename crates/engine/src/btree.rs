//! A paged B+-tree (unique `u64` keys → `u64` values).
//!
//! Nodes are regular database pages, so every node mutation flows through
//! the byte-level [`ipa_core::ChangeTracker`] — index pages participate in
//! In-Place Appends exactly like heap pages (the paper applies IPA to
//! "frequently updated tables *or indices*"). Node images are serialized
//! with a diff-on-write strategy: the whole node region is rewritten
//! logically, and the tracker records only the bytes that actually changed,
//! so an append-at-the-end insert dirties a handful of bytes while a
//! mid-node shift dirties proportionally more (and naturally falls back to
//! an out-of-place flush).
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
use crate::wal::LogPayload;
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

/// Owned image of one node, built only where the node is about to be
/// mutated (insert / delete / split); every read searches a [`NodeView`].
#[derive(Debug, Clone)]
struct Node {
    leaf: bool,
    next: u64,
    entries: Vec<(u64, u64)>,
}

impl Node {
    fn position(&self, key: u64) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |e| e.0)
    }
}

/// Borrowed view of one node over its page's bytes — the one parser of the
/// node layout. Lookups, descents and range scans search and iterate it in
/// place; [`NodeView::to_node`] copies the entries out for a mutation.
struct NodeView<'a> {
    leaf: bool,
    next: u64,
    /// The `count * ENTRY_SIZE` entry bytes.
    entries: &'a [u8],
}

impl<'a> NodeView<'a> {
    fn parse(page: &'a DbPage, pid: PageId) -> Result<Self> {
        let buf = &page.bytes()[page.layout().body_start()..];
        let leaf = match buf[0] {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            other => {
                return Err(EngineError::IndexError(format!(
                    "page {pid:?} is not a B+-tree node (tag {other:#04x})"
                )))
            }
        };
        let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let entries = buf.get(NODE_HEADER..NODE_HEADER + count * ENTRY_SIZE).ok_or_else(|| {
            EngineError::IndexError(format!("node {pid:?} claims {count} entries, past its page"))
        })?;
        Ok(NodeView { leaf, next: read_u64(buf, 3), entries })
    }

    fn len(&self) -> usize {
        self.entries.len() / ENTRY_SIZE
    }

    fn key(&self, i: usize) -> u64 {
        read_u64(self.entries, i * ENTRY_SIZE)
    }

    fn entry(&self, i: usize) -> (u64, u64) {
        (self.key(i), read_u64(self.entries, i * ENTRY_SIZE + 8))
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

    fn to_node(&self) -> Node {
        let entries = (0..self.len()).map(|i| self.entry(i)).collect();
        Node { leaf: self.leaf, next: self.next, entries }
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

/// Read a little-endian `u64` at `off` without a fallible slice
/// conversion (the length is right by construction).
fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

fn load_node(db: &mut Database, pid: PageId) -> Result<Node> {
    db.with_page(pid, |page| NodeView::parse(page, pid).map(|view| view.to_node()))?
}

fn node_image(node: &Node) -> Vec<u8> {
    let mut image = vec![0u8; NODE_HEADER + node.entries.len() * ENTRY_SIZE];
    image[0] = if node.leaf { TAG_LEAF } else { TAG_INTERNAL };
    image[1..3].copy_from_slice(&(node.entries.len() as u16).to_le_bytes());
    image[3..11].copy_from_slice(&node.next.to_le_bytes());
    for (i, &(k, v)) in node.entries.iter().enumerate() {
        let off = NODE_HEADER + i * ENTRY_SIZE;
        image[off..off + 8].copy_from_slice(&k.to_le_bytes());
        image[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
    }
    image
}

/// Write a node image to its page: with a transaction, as the physical
/// redo-only record of the changed byte span, logged and applied; without
/// one (the empty root of a new index), unlogged.
fn store_node(db: &mut Database, tx: Option<TxId>, pid: PageId, node: &Node) -> Result<()> {
    let image = node_image(node);
    // Find the changed span against the current buffer image.
    let span = db.with_page(pid, |page| {
        let base = page.layout().body_start();
        let current = &page.bytes()[base..base + image.len()];
        let first = image.iter().zip(current).position(|(a, b)| a != b)?;
        let last = image.iter().zip(current).rposition(|(a, b)| a != b)?;
        Some((base, first, last))
    })?;
    let Some((base, first, last)) = span else { return Ok(()) };
    let changed = &image[first..=last];
    let offset = base + first;
    let Some(tx) = tx else {
        return db.with_page_mut(pid, |page, tracker| {
            page.write_body(offset, changed, tracker);
            Ok(())
        });
    };
    db.log_and_apply(
        tx,
        LogPayload::PageWrite { tx, page: pid, offset: offset as u32, after: changed },
    )
}

impl Database {
    /// Create an empty B+-tree index in a region.
    pub fn create_index(&mut self, region: usize) -> Result<u32> {
        let id = self.indexes.len() as u32;
        let root = self.new_page(region)?;
        let node = Node { leaf: true, next: NO_SIBLING, entries: Vec::new() };
        store_node(self, None, root, &node)?;
        // Catalog operations are force-written: the empty root reaches
        // flash immediately, so restart redo always finds a valid node to
        // build on (its initialization is not logged).
        self.flush_page(root)?;
        self.indexes.push(BTree { region, root });
        Ok(id)
    }

    /// Root page of an index (diagnostics).
    pub fn index_root(&self, index: u32) -> PageId {
        self.indexes[index as usize].root
    }

    /// Walk from the root to the leaf covering `key`: `on_hop` sees every
    /// internal page with the child index chosen there, and `at_leaf`
    /// searches the leaf within the same page access that identified it.
    fn walk<R>(
        &mut self,
        index: u32,
        key: u64,
        mut on_hop: impl FnMut(PageId, usize),
        at_leaf: impl Fn(&NodeView<'_>) -> R,
    ) -> Result<(PageId, R)> {
        let region = self.indexes[index as usize].region;
        let mut pid = self.indexes[index as usize].root;
        loop {
            let step = self.with_page(pid, |page| -> Result<Step<R>> {
                let node = NodeView::parse(page, pid)?;
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

    /// Descend to the leaf covering `key`, returning the path of internal
    /// pages (with the chosen child index) and the leaf page.
    fn descend(&mut self, index: u32, key: u64) -> Result<(Vec<(PageId, usize)>, PageId)> {
        let mut path = Vec::new();
        let (leaf, ()) = self.walk(index, key, |pid, ci| path.push((pid, ci)), |_| ())?;
        Ok((path, leaf))
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

    /// Insert a unique key. Duplicates are rejected.
    ///
    /// Logs a logical (undo-only) `IndexInsert` first, then performs the
    /// tree mutation, whose node changes are logged physically (redo-only).
    pub(crate) fn index_insert(
        &mut self,
        tx: TxId,
        index: u32,
        key: u64,
        value: u64,
    ) -> Result<()> {
        self.log_for_tx(tx, LogPayload::IndexInsert { tx, index, key, value })?;
        self.index_insert_physical(Some(tx), index, key, value)
    }

    /// Delete a key, returning its value.
    pub(crate) fn index_delete(&mut self, tx: TxId, index: u32, key: u64) -> Result<Option<u64>> {
        let Some(value) = self.index_lookup(index, key)? else { return Ok(None) };
        self.log_for_tx(tx, LogPayload::IndexDelete { tx, index, key, value })?;
        self.index_delete_physical(Some(tx), index, key)?;
        Ok(Some(value))
    }

    /// Range scan over `[lo, hi]`, following the leaf chain.
    pub fn index_range(&mut self, index: u32, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>> {
        let region = self.indexes[index as usize].region;
        let (_, mut leaf) = self.descend(index, lo)?;
        let mut out = Vec::new();
        loop {
            // The sibling to continue with, or `NO_SIBLING` once past `hi`.
            let next = self.with_page(leaf, |page| -> Result<u64> {
                let node = NodeView::parse(page, leaf)?;
                let (Ok(start) | Err(start)) = node.position(lo);
                for i in start..node.len() {
                    let (k, v) = node.entry(i);
                    if k > hi {
                        return Ok(NO_SIBLING);
                    }
                    out.push((k, v));
                }
                Ok(node.next)
            })??;
            if next == NO_SIBLING {
                return Ok(out);
            }
            leaf = PageId { region, lba: Lba(next) };
        }
    }

    /// Physical insert — shared by the normal path and undo-of-delete.
    /// With `tx`, node changes are logged as redo-only records.
    pub(crate) fn index_insert_physical(
        &mut self,
        tx: Option<TxId>,
        index: u32,
        key: u64,
        value: u64,
    ) -> Result<()> {
        let region = self.indexes[index as usize].region;
        let cap = node_capacity(self, region).max(4);
        let (path, leaf_pid) = self.descend(index, key)?;
        let mut leaf = load_node(self, leaf_pid)?;
        match leaf.position(key) {
            Ok(_) => {
                return Err(EngineError::IndexError(format!("duplicate key {key}")));
            }
            Err(pos) => leaf.entries.insert(pos, (key, value)),
        }
        if leaf.entries.len() <= cap {
            store_node(self, tx, leaf_pid, &leaf)?;
            return Ok(());
        }
        // Split the leaf.
        let mid = leaf.entries.len() / 2;
        let right_entries = leaf.entries.split_off(mid);
        let sep = right_entries[0].0;
        let right_pid = self.new_page(region)?;
        let right = Node { leaf: true, next: leaf.next, entries: right_entries };
        leaf.next = right_pid.lba.0;
        store_node(self, tx, right_pid, &right)?;
        store_node(self, tx, leaf_pid, &leaf)?;
        self.insert_into_parent(tx, index, path, leaf_pid, sep, right_pid, cap)
    }

    /// Propagate a split upward.
    #[allow(clippy::too_many_arguments)]
    fn insert_into_parent(
        &mut self,
        tx: Option<TxId>,
        index: u32,
        mut path: Vec<(PageId, usize)>,
        left: PageId,
        sep: u64,
        right: PageId,
        cap: usize,
    ) -> Result<()> {
        let region = self.indexes[index as usize].region;
        match path.pop() {
            None => {
                // Split reached the root: grow the tree.
                let new_root = self.new_page(region)?;
                let node = Node {
                    leaf: false,
                    next: NO_SIBLING,
                    entries: vec![(u64::MIN, left.lba.0), (sep, right.lba.0)],
                };
                store_node(self, tx, new_root, &node)?;
                self.indexes[index as usize].root = new_root;
                if let Some(tx) = tx {
                    self.log_for_tx(tx, LogPayload::RootChange { tx, index, new_root })?;
                }
                Ok(())
            }
            Some((parent_pid, child_idx)) => {
                let mut parent = load_node(self, parent_pid)?;
                parent.entries.insert(child_idx + 1, (sep, right.lba.0));
                if parent.entries.len() <= cap {
                    return store_node(self, tx, parent_pid, &parent);
                }
                let mid = parent.entries.len() / 2;
                let right_entries = parent.entries.split_off(mid);
                let psep = right_entries[0].0;
                let right_pid = self.new_page(region)?;
                let right_node = Node { leaf: false, next: NO_SIBLING, entries: right_entries };
                store_node(self, tx, right_pid, &right_node)?;
                store_node(self, tx, parent_pid, &parent)?;
                self.insert_into_parent(tx, index, path, parent_pid, psep, right_pid, cap)
            }
        }
    }

    /// Physical delete (lazy — no rebalancing). With `tx`, the node change
    /// is logged as a redo-only record.
    pub(crate) fn index_delete_physical(
        &mut self,
        tx: Option<TxId>,
        index: u32,
        key: u64,
    ) -> Result<Option<u64>> {
        let (_, leaf_pid) = self.descend(index, key)?;
        let mut leaf = load_node(self, leaf_pid)?;
        match leaf.position(key) {
            Ok(pos) => {
                let (_, value) = leaf.entries.remove(pos);
                store_node(self, tx, leaf_pid, &leaf)?;
                Ok(Some(value))
            }
            Err(_) => Ok(None),
        }
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
        let root = load_node(&mut db, root_pid).unwrap();
        assert!(!root.leaf);
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
}
