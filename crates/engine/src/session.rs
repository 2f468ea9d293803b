//! The transaction session API: the [`Txn`] guard, [`Database::txn`] and
//! [`Database::resume`].

use crate::db::Database;
use crate::error::EngineError;
use crate::heap::Rid;
use crate::txn::TxId;
use crate::Result;

/// An RAII transaction guard replacing raw `TxId`-threading.
///
/// [`Database::txn`] begins a transaction and returns a guard that borrows
/// the database exclusively for the transaction's duration. Every
/// transactional operation hangs off the guard (`txn.heap_insert(...)`,
/// `txn.index_lookup(...)`); [`Txn::commit`] and [`Txn::abort`] consume
/// it, and dropping a live guard rolls the transaction back automatically
/// (counted in [`crate::EngineStats::drop_aborts`]) — a forgotten
/// transaction can no longer leak locks or undo chains.
///
/// Code that genuinely interleaves transactions (the multi-client
/// executor, two-transaction conflict tests) detaches the guard with
/// [`Txn::park`] and re-attaches it later with [`Database::resume`]; the
/// transaction stays active in between, it just has no guard watching it.
#[must_use = "dropping a Txn guard aborts the transaction"]
#[derive(Debug)]
pub struct Txn<'db> {
    db: &'db mut Database,
    id: TxId,
    /// Set when the guard was consumed (commit/abort) or detached (park):
    /// the destructor then leaves the transaction alone.
    defused: bool,
}

impl Database {
    /// Begin a transaction and return its guard.
    pub fn txn(&mut self) -> Txn<'_> {
        let id = self.start_tx();
        Txn { db: self, id, defused: false }
    }

    /// Re-attach a guard to a transaction previously detached with
    /// [`Txn::park`]. Fails if the transaction is no longer active.
    pub fn resume(&mut self, id: TxId) -> Result<Txn<'_>> {
        if !self.txn_is_active(id) {
            return Err(EngineError::UnknownTx(id));
        }
        Ok(Txn { db: self, id, defused: false })
    }
}

impl<'db> Txn<'db> {
    /// The transaction's id (diagnostics; the wait-die priority).
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The underlying database — the escape hatch for non-transactional
    /// calls mid-transaction (statistics, page inspection, flushes).
    pub fn db(&mut self) -> &mut Database {
        self.db
    }

    /// Commit the transaction, consuming the guard. With group commit
    /// enabled the commit request is parked and acknowledged at the next
    /// batch flush; otherwise the log is forced before this returns.
    pub fn commit(mut self) -> Result<()> {
        self.defused = true;
        let id = self.id;
        self.db.commit_tx(id)
    }

    /// Roll the transaction back, consuming the guard.
    pub fn abort(mut self) -> Result<()> {
        self.defused = true;
        let id = self.id;
        self.db.abort_tx(id)
    }

    /// Detach the guard from the still-active transaction and return its
    /// id; re-attach later with [`Database::resume`]. The caller becomes
    /// responsible for finishing the transaction.
    pub fn park(mut self) -> TxId {
        self.defused = true;
        self.id
    }

    /// Insert a tuple, returning its RID.
    pub fn heap_insert(&mut self, heap: u32, tuple: &[u8]) -> Result<Rid> {
        self.db.heap_insert(self.id, heap, tuple)
    }

    /// Read a tuple under a shared lock.
    pub fn heap_read(&mut self, heap: u32, rid: Rid) -> Result<Vec<u8>> {
        self.db.heap_read(self.id, heap, rid)
    }

    /// [`Self::heap_read`] into a buffer the caller reuses: `tuple` is
    /// overwritten with the tuple's bytes.
    pub fn heap_read_into(&mut self, heap: u32, rid: Rid, tuple: &mut Vec<u8>) -> Result<()> {
        self.db.heap_read_into(self.id, heap, rid, tuple)
    }

    /// Update a tuple under an exclusive lock, returning its (possibly
    /// relocated) RID.
    pub fn heap_update(&mut self, heap: u32, rid: Rid, new: &[u8]) -> Result<Rid> {
        self.db.heap_update(self.id, heap, rid, new)
    }

    /// Mark-delete a tuple under an exclusive lock.
    pub fn heap_delete(&mut self, heap: u32, rid: Rid) -> Result<()> {
        self.db.heap_delete(self.id, heap, rid)
    }

    /// Insert a key into a unique index.
    pub fn index_insert(&mut self, index: u32, key: u64, value: u64) -> Result<()> {
        self.db.index_insert(self.id, index, key, value)
    }

    /// Delete a key from an index, returning the removed value.
    pub fn index_delete(&mut self, index: u32, key: u64) -> Result<Option<u64>> {
        self.db.index_delete(self.id, index, key)
    }

    /// Point lookup (reads need no tx, but the guard keeps call sites
    /// uniform).
    pub fn index_lookup(&mut self, index: u32, key: u64) -> Result<Option<u64>> {
        self.db.index_lookup(index, key)
    }

    /// Range scan `lo..=hi` returning `(key, value)` pairs.
    pub fn index_range(&mut self, index: u32, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>> {
        self.db.index_range(index, lo, hi)
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if self.defused || !self.db.txn_is_active(self.id) {
            return;
        }
        // Auto-abort. Rollback failures cannot propagate from a
        // destructor; the transaction is finished either way so its locks
        // never outlive the guard — but count the failure so it is
        // observable instead of silently dropped.
        if self.db.abort_tx(self.id).is_err() {
            self.db.kept.stats.abort_errors += 1;
        }
        self.db.kept.stats.drop_aborts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::test_db;
    use ipa_core::NxM;

    #[test]
    fn commit_consumes_guard_and_counts() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, b"hello").unwrap();
        tx.commit().unwrap();
        assert_eq!(db.stats().commits, 1);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), b"hello");
    }

    #[test]
    fn drop_aborts_and_releases_locks() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, b"base").unwrap();
        tx.commit().unwrap();

        {
            let mut tx = db.txn();
            tx.heap_update(heap, rid, b"temp").unwrap();
            // Guard dropped here without commit.
        }
        assert_eq!(db.stats().drop_aborts, 1);
        assert_eq!(db.stats().aborts, 1);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), b"base");

        // Locks released: a fresh transaction can take the row.
        let mut tx = db.txn();
        tx.heap_update(heap, rid, b"next").unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn park_and_resume_interleave_two_txns() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let mut t1 = db.txn();
        let a = t1.heap_insert(heap, b"one").unwrap();
        let t1 = t1.park();

        let mut t2 = db.txn();
        let b = t2.heap_insert(heap, b"two").unwrap();
        // t2 cannot touch t1's uncommitted row.
        assert!(matches!(t2.heap_update(heap, a, b"dua"), Err(EngineError::LockConflict { .. })));
        t2.commit().unwrap();

        let mut t1 = db.resume(t1).unwrap();
        assert_eq!(t1.heap_read(heap, b).unwrap(), b"two");
        t1.commit().unwrap();
        assert_eq!(db.stats().commits, 2);
        assert_eq!(db.stats().drop_aborts, 0);
    }

    #[test]
    fn resume_of_finished_txn_fails() {
        let mut db = test_db(NxM::tpcc(), 16);
        let tx = db.txn();
        let id = tx.park();
        db.resume(id).unwrap().commit().unwrap();
        assert!(matches!(db.resume(id), Err(EngineError::UnknownTx(_))));
    }

    #[test]
    fn abort_via_guard_rolls_back() {
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, b"gone").unwrap();
        tx.abort().unwrap();
        assert!(db.heap_read_unlocked(rid).is_err());
        assert_eq!(db.stats().aborts, 1);
        assert_eq!(db.stats().drop_aborts, 0, "explicit abort is not a drop-abort");
    }

    #[test]
    fn parked_ids_finish_once_through_resume() {
        let mut db = test_db(NxM::tpcc(), 8);
        let tx = db.txn().park();
        db.resume(tx).unwrap().commit().unwrap();
        assert!(matches!(db.resume(tx), Err(EngineError::UnknownTx(_))));
        let tx = db.txn().park();
        db.resume(tx).unwrap().abort().unwrap();
        assert!(matches!(db.resume(tx), Err(EngineError::UnknownTx(_))));
        assert_eq!(db.stats().commits, 1);
        assert_eq!(db.stats().aborts, 1);
    }
}
