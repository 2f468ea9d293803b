//! Heap files: tuple storage over slotted pages with row locks and
//! physical REDO/UNDO logging.

use ipa_core::{DbPage, SlotId};
use ipa_noftl::Lba;

use crate::db::{Database, PageId};
use crate::error::EngineError;
use crate::lock::LockMode;
use crate::txn::TxId;
use crate::wal::{self, LogPayload};
use crate::Result;

/// Record identifier: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page holding the tuple.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Encode into a lock-key / index-value `u64` (lba in the upper 48
    /// bits, slot in the lower 16). The region is implied by the heap.
    pub fn encode(self) -> u64 {
        (self.page.lba.0 << 16) | self.slot.0 as u64
    }

    /// Decode from [`Rid::encode`] given the owning region.
    pub fn decode(region: usize, encoded: u64) -> Rid {
        Rid {
            page: PageId { region, lba: Lba(encoded >> 16) },
            slot: SlotId((encoded & 0xFFFF) as u16),
        }
    }
}

/// Catalog entry of one heap file; its identifier is its position in the
/// database catalog.
#[derive(Debug)]
pub struct HeapFile {
    /// Region the heap's pages live in.
    pub region: usize,
    /// All pages of the heap, in allocation order.
    pub pages: Vec<PageId>,
    /// Index into `pages` where the last successful insert landed.
    insert_hint: usize,
}

impl Database {
    /// Create a heap file in a region.
    pub fn create_heap(&mut self, region: usize) -> u32 {
        let id = self.kept.heaps.len() as u32;
        self.kept.heaps.push(HeapFile { region, pages: Vec::new(), insert_hint: 0 });
        id
    }

    /// Pages of a heap (read-only snapshot for scans).
    pub fn heap_pages(&self, heap: u32) -> &[PageId] {
        &self.kept.heaps[heap as usize].pages
    }

    fn lock_rid(&mut self, tx: TxId, heap: u32, rid: Rid, mode: LockMode) -> Result<()> {
        self.lock_row(tx, (heap as u64, rid.encode()), mode)
    }

    /// Insert a tuple, returning its RID: find the page and the slot it
    /// will assign, lock that RID, log the insert and apply it.
    pub(crate) fn heap_insert(&mut self, tx: TxId, heap: u32, tuple: &[u8]) -> Result<Rid> {
        if !self.lost.txns.is_active(tx) {
            return Err(EngineError::UnknownTx(tx));
        }
        let h = &self.kept.heaps[heap as usize];
        let (region, hint) = (h.region, h.pages.get(h.insert_hint).copied());
        // Try the hint page, then a fresh page.
        let place = match hint {
            Some(page) => self.insert_place(page, tuple.len())?,
            None => None,
        };
        let rid = match place {
            Some(rid) => rid,
            None => self.grow_heap(heap, region, tuple.len())?,
        };
        self.lock_rid(tx, heap, rid, LockMode::Exclusive)?;
        self.log_and_apply(tx, LogPayload::Insert { tx, page: rid.page, slot: rid.slot, tuple })?;
        Ok(rid)
    }

    /// Where `page` puts its next tuple, if `len` more bytes fit.
    fn insert_place(&mut self, page: PageId, len: usize) -> Result<Option<Rid>> {
        self.with_page(page, |p| {
            (p.free_space_for_insert() >= len).then(|| Rid { page, slot: SlotId(p.slot_count()) })
        })
    }

    /// A new page at the end of the heap, and where a tuple of `needed`
    /// bytes lands in it.
    fn grow_heap(&mut self, heap: u32, region: usize, needed: usize) -> Result<Rid> {
        let page = self.new_page(region)?;
        let Some(rid) = self.insert_place(page, needed)? else {
            self.free_page(page)?;
            return Err(EngineError::TupleTooLarge(needed));
        };
        let h = &mut self.kept.heaps[heap as usize];
        h.pages.push(page);
        h.insert_hint = h.pages.len() - 1;
        Ok(rid)
    }

    /// Read a tuple under a shared lock.
    pub(crate) fn heap_read(&mut self, tx: TxId, heap: u32, rid: Rid) -> Result<Vec<u8>> {
        let mut tuple = Vec::new();
        self.heap_read_into(tx, heap, rid, &mut tuple)?;
        Ok(tuple)
    }

    /// [`Self::heap_read`] into a buffer the caller keeps from one read to
    /// the next: `tuple` is overwritten with the tuple's bytes.
    pub(crate) fn heap_read_into(
        &mut self,
        tx: TxId,
        heap: u32,
        rid: Rid,
        tuple: &mut Vec<u8>,
    ) -> Result<()> {
        self.lock_rid(tx, heap, rid, LockMode::Shared)?;
        self.read_tuple_into(rid, tuple)
    }

    /// Read a tuple without locking (scans, recovery, internal use).
    pub fn heap_read_unlocked(&mut self, rid: Rid) -> Result<Vec<u8>> {
        let mut tuple = Vec::new();
        self.read_tuple_into(rid, &mut tuple)?;
        Ok(tuple)
    }

    fn read_tuple_into(&mut self, rid: Rid, tuple: &mut Vec<u8>) -> Result<()> {
        self.read_tuple_and(rid, tuple, |_| ())
    }

    /// Copy a tuple into `tuple` and put `ask` to its page in the same
    /// page access.
    fn read_tuple_and<R>(
        &mut self,
        rid: Rid,
        tuple: &mut Vec<u8>,
        ask: impl FnOnce(&DbPage) -> R,
    ) -> Result<R> {
        self.with_page(rid.page, |page| {
            page.tuple(rid.slot).map(|bytes| {
                tuple.clear();
                tuple.extend_from_slice(bytes);
                ask(page)
            })
        })?
        .map_err(|_| EngineError::BadRid(rid))
    }

    /// Update a tuple under an exclusive lock, returning its (possibly
    /// new) RID.
    ///
    /// Same-length updates (the dominant OLTP case the paper measures)
    /// stay on the same page and typically change only a few bytes. A
    /// growing update that no longer fits its page is relocated
    /// (delete + insert elsewhere) — the caller must refresh any index
    /// entries when the returned RID differs.
    pub(crate) fn heap_update(&mut self, tx: TxId, heap: u32, rid: Rid, new: &[u8]) -> Result<Rid> {
        self.lock_rid(tx, heap, rid, LockMode::Exclusive)?;
        self.with_before_image(|db, before| db.update_locked(tx, heap, rid, new, before))
    }

    /// Run a heap operation with the engine's before-image buffer: the
    /// image of the tuple being changed waits there until the log copies
    /// it. Taken for the operation, put back after it.
    fn with_before_image<R>(&mut self, op: impl FnOnce(&mut Self, &mut Vec<u8>) -> R) -> R {
        let mut before = std::mem::take(&mut self.lost.before_image);
        let result = op(self, &mut before);
        self.lost.before_image = before;
        result
    }

    fn update_locked(
        &mut self,
        tx: TxId,
        heap: u32,
        rid: Rid,
        new: &[u8],
        before: &mut Vec<u8>,
    ) -> Result<Rid> {
        // One access copies the before image and asks where the new one
        // goes, if it fits the page.
        let place = self.read_tuple_and(rid, before, |p| p.update_place(rid.slot, new.len()))??;
        let (page, slot, before) = (rid.page, rid.slot, before.as_slice());
        if let Some((from, to)) = place {
            let record = wal::update((tx, page, slot), (from, before), (to, new));
            self.log_and_apply(tx, record)?;
            return Ok(rid);
        }
        // Relocate: remove here, insert wherever there is room.
        self.log_and_apply(tx, LogPayload::Delete { tx, page, slot, before })?;
        self.heap_insert(tx, heap, new)
    }

    /// Mark-delete a tuple under an exclusive lock.
    pub(crate) fn heap_delete(&mut self, tx: TxId, heap: u32, rid: Rid) -> Result<()> {
        self.lock_rid(tx, heap, rid, LockMode::Exclusive)?;
        self.with_before_image(|db, before| db.delete_locked(tx, rid, before))
    }

    fn delete_locked(&mut self, tx: TxId, rid: Rid, before: &mut Vec<u8>) -> Result<()> {
        self.read_tuple_into(rid, before)?;
        self.log_and_apply(
            tx,
            LogPayload::<&[u8]>::Delete { tx, page: rid.page, slot: rid.slot, before },
        )
    }

    /// Scan all live tuples of a heap, invoking `f(rid, tuple)`.
    pub fn heap_scan(&mut self, heap: u32, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
        let pages = self.kept.heaps[heap as usize].pages.clone();
        for pid in pages {
            self.with_page(pid, |page| {
                for slot in page.live_slots() {
                    if let Ok(t) = page.tuple(slot) {
                        f(Rid { page: pid, slot }, t);
                    }
                }
            })?;
        }
        Ok(())
    }

    /// Count live tuples (diagnostics).
    pub fn heap_count(&mut self, heap: u32) -> Result<u64> {
        let mut n = 0;
        self.heap_scan(heap, |_, _| n += 1)?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::test_db;
    use ipa_core::NxM;

    #[test]
    fn rid_encode_roundtrip() {
        let rid = Rid { page: PageId::new(3, 0x1234), slot: SlotId(7) };
        assert_eq!(Rid::decode(3, rid.encode()), rid);
    }

    #[test]
    fn insert_read_update_delete() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let tx = db.start_tx();
        let rid = db.heap_insert(tx, heap, b"hello world").unwrap();
        assert_eq!(db.heap_read(tx, heap, rid).unwrap(), b"hello world");
        db.heap_update(tx, heap, rid, b"hello swirl").unwrap();
        assert_eq!(db.heap_read(tx, heap, rid).unwrap(), b"hello swirl");
        db.heap_delete(tx, heap, rid).unwrap();
        assert!(matches!(db.heap_read(tx, heap, rid), Err(EngineError::BadRid(_))));
        db.commit_tx(tx).unwrap();
        assert_eq!(db.stats().commits, 1);
    }

    #[test]
    fn inserts_spill_to_new_pages() {
        let mut db = test_db(NxM::tpcc(), 32);
        let heap = db.create_heap(0);
        let tx = db.start_tx();
        let tuple = vec![7u8; 100];
        for _ in 0..50 {
            db.heap_insert(tx, heap, &tuple).unwrap();
        }
        db.commit_tx(tx).unwrap();
        assert!(db.heap_pages(heap).len() > 1);
        assert_eq!(db.heap_count(heap).unwrap(), 50);
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut db = test_db(NxM::tpcc(), 8);
        let heap = db.create_heap(0);
        let tx = db.start_tx();
        let err = db.heap_insert(tx, heap, &vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, EngineError::TupleTooLarge(4096)));
    }

    #[test]
    fn scan_sees_only_live_tuples() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let tx = db.start_tx();
        let a = db.heap_insert(tx, heap, b"a").unwrap();
        let _b = db.heap_insert(tx, heap, b"b").unwrap();
        db.heap_delete(tx, heap, a).unwrap();
        db.commit_tx(tx).unwrap();
        let mut seen = Vec::new();
        db.heap_scan(heap, |_, t| seen.push(t.to_vec())).unwrap();
        assert_eq!(seen, vec![b"b".to_vec()]);
    }

    #[test]
    fn lock_conflict_between_txs() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let tx1 = db.start_tx();
        let rid = db.heap_insert(tx1, heap, b"x").unwrap();
        let tx2 = db.start_tx();
        assert!(matches!(
            db.heap_update(tx2, heap, rid, b"y"),
            Err(EngineError::LockConflict { .. })
        ));
        db.commit_tx(tx1).unwrap();
        // Lock released: tx2 can proceed now.
        db.heap_update(tx2, heap, rid, b"y").unwrap();
        db.commit_tx(tx2).unwrap();
    }

    #[test]
    fn update_survives_eviction_roundtrip() {
        let mut db = test_db(NxM::tpcc(), 4);
        let heap = db.create_heap(0);
        let tx = db.start_tx();
        let rid = db.heap_insert(tx, heap, &[9u8, 7, 7, 7]).unwrap();
        db.commit_tx(tx).unwrap();
        db.flush_all().unwrap();
        let tx = db.start_tx();
        db.heap_update(tx, heap, rid, &[3u8, 7, 7, 7]).unwrap();
        db.commit_tx(tx).unwrap();
        db.flush_all().unwrap();
        // Push the page out by touching many others.
        for _ in 0..8 {
            db.new_page(0).unwrap();
        }
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![3, 7, 7, 7]);
        // The small update went through the IPA path.
        assert!(db.stats().ipa_flushes >= 1, "ipa flushes: {}", db.stats().ipa_flushes);
    }

    #[test]
    fn a_heap_mutation_accesses_its_page_twice() {
        // Once to read (the fit and the slot, or the before image), once to
        // apply the logged record and stamp the page.
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let a = tx.heap_insert(heap, &[1u8; 16]).unwrap();
        let mut accesses = |op: &mut dyn FnMut(&mut crate::Txn<'_>) -> Rid| {
            tx.db().reset_stats();
            let rid = op(&mut tx);
            let s = tx.db().stats();
            (rid, (s.fetches, s.hits))
        };
        let (b, insert) = accesses(&mut |tx| tx.heap_insert(heap, &[2u8; 16]).unwrap());
        assert_eq!((b.page, insert), (a.page, (2, 2)), "insert into the resident hint page");
        let (_, update) = accesses(&mut |tx| tx.heap_update(heap, a, &[3u8; 16]).unwrap());
        assert_eq!(update, (2, 2), "update in place");
        let (_, delete) = accesses(&mut |tx| {
            tx.heap_delete(heap, b).unwrap();
            b
        });
        assert_eq!(delete, (2, 2));
    }

    #[test]
    fn rolling_back_length_changes_restores_every_tuple_where_it_was() {
        // One tuple shrunk and another grown (which moves it to the page's
        // frontier), then inserts fill the page: rollback puts both back in
        // their places, and needs no free bytes to do it.
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, &[1u8; 200]).unwrap();
        let other = tx.heap_insert(heap, &[2u8; 100]).unwrap();
        tx.commit().unwrap();
        let page = |db: &mut Database| db.with_page(rid.page, |p| p.bytes().to_vec()).unwrap();
        let committed = page(&mut db);
        let mut tx = db.txn();
        assert_eq!(tx.heap_update(heap, rid, &[3u8; 120]).unwrap(), rid);
        assert_eq!(tx.heap_update(heap, other, &[4u8; 150]).unwrap(), other);
        while tx.db().with_page(rid.page, |p| p.free_space_for_insert()).unwrap() >= 40 {
            tx.heap_insert(heap, &[5u8; 40]).unwrap();
        }
        tx.abort().unwrap();
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1u8; 200]);
        assert_eq!(db.heap_read_unlocked(other).unwrap(), vec![2u8; 100]);
        let rolled_back = page(&mut db);
        for slot in [rid.slot, other.slot] {
            let entry = db.layout(0).slot_entry_range(slot.0);
            assert_eq!(rolled_back[entry.clone()], committed[entry], "{slot:?} is where it was");
        }
    }

    #[test]
    fn operations_require_active_tx() {
        let mut db = test_db(NxM::tpcc(), 8);
        let heap = db.create_heap(0);
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
        assert!(matches!(db.heap_insert(tx, heap, b"x"), Err(EngineError::UnknownTx(_))));
    }
}
