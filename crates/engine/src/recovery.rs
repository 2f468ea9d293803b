//! ARIES-style rollback and restart recovery.
//!
//! Restart runs the classic three passes over the WAL:
//!
//! 1. **Analysis** — rebuild the active-transaction table from Begin /
//!    Commit / Abort records (starting at the log tail, which eager
//!    log-space reclamation keeps short).
//! 2. **Redo** — repeat history: every page action whose LSN exceeds the
//!    on-flash PageLSN is re-applied. Pages are fetched from flash, which
//!    *applies resident delta records first* — this is the §6.2 interplay
//!    the paper describes: a page's last flushed state may live partly in
//!    ISPP-appended delta records, and recovery builds on exactly that
//!    reconstructed state.
//! 3. **Undo** — roll back loser transactions, writing compensation
//!    records whose redo actions make them crash-safe in turn.
//!
//! Index logging is physiological: node changes redo *physically* via
//! [`LogPayload::PageWrite`] records, while undo is *logical* — rolling
//! back an `IndexInsert` deletes the key from the current (possibly
//! restructured) tree, emitting fresh physical records of its own.
//!
//! No pass copies the log. Analysis and the index-root replay read each
//! record's kind, transaction, page and checkpoint tables where the WAL
//! keeps them ([`crate::wal::Wal::records_from`]); redo and rollback copy
//! the images of the one record they apply — for rollback, of its inverse —
//! into the engine's record buffer, taken for the pass and put back, so a
//! restart costs what it replays and not a copy of what the log retains.

use std::collections::BTreeMap;

use ipa_noftl::{EventKind, RecoveryPhaseKind, SpanCategory, SpanId};

use crate::db::{Database, PageId, Volatile};
use crate::error::EngineError;
use crate::txn::TxId;
use crate::wal::{Compensation, LogPayload, Lsn, Record};
use crate::Result;

/// Roll back one transaction (the abort path and restart undo), appending
/// at most the budgeted number of CLRs when a budget is given
/// (crash-during-recovery fault injection — `None` means unlimited).
/// Returns the CLRs appended and whether the rollback ran to completion. A
/// partial rollback leaves the transaction's undo chain ending in its CLRs,
/// so a rerun restart resumes at the last CLR's `undo_next` — repeating
/// history, never re-undoing undone work. The chain is walked in place; an
/// undoable record's inverse is built from its spans and only its images
/// are copied, into the record buffer.
pub(crate) fn rollback_budgeted(
    db: &mut Database,
    tx: TxId,
    budget: &mut Option<u64>,
) -> Result<(u64, bool)> {
    db.with_record_images(|db, images| {
        let mut clrs = 0u64;
        let mut cursor = db.lost.txns.last_lsn(tx);
        while !cursor.is_null() {
            if matches!(budget, Some(0)) {
                return Ok((clrs, false));
            }
            let wal = db.wal();
            let (Some(record), Some(prev)) = (wal.record(cursor), wal.prev_of(cursor)) else {
                break;
            };
            if let Some(Compensation { undo_next, .. }) = record.clr {
                cursor = undo_next;
                continue;
            }
            let inverse = match record.payload {
                LogPayload::Begin { .. } | LogPayload::Commit { .. } | LogPayload::Abort { .. } => {
                    break
                }
                payload => invert(&payload),
            };
            let clr = Some(Compensation { undone: cursor, undo_next: prev });
            cursor = prev;
            let Some(inverse) = inverse else { continue };
            db.log_and_apply(tx, Record { clr, payload: wal.images(inverse, images)? })?;
            clrs += 1;
            if let Some(b) = budget.as_mut() {
                *b -= 1;
            }
        }
        Ok((clrs, true))
    })
}

/// The logical/physical inverse of a loggable action (None for records
/// that need no undo), holding the record's images as the record does:
/// what rollback logs as the CLR's action and then applies.
fn invert<B: Copy>(payload: &LogPayload<B>) -> Option<LogPayload<B>> {
    match *payload {
        LogPayload::Update { tx, page, slot, at, kept, before, after } => {
            Some(LogPayload::Update { tx, page, slot, at, kept, before: after, after: before })
        }
        LogPayload::Resize { tx, page, slot, from, to, before, after } => {
            Some(LogPayload::Resize {
                tx,
                page,
                slot,
                from: to,
                to: from,
                before: after,
                after: before,
            })
        }
        LogPayload::Insert { tx, page, slot, tuple } => {
            Some(LogPayload::Delete { tx, page, slot, before: tuple })
        }
        LogPayload::Delete { tx, page, slot, before } => {
            Some(LogPayload::Undelete { tx, page, slot, tuple: before })
        }
        LogPayload::Undelete { tx, page, slot, tuple } => {
            Some(LogPayload::Delete { tx, page, slot, before: tuple })
        }
        LogPayload::IndexInsert { tx, index, key, value } => {
            Some(LogPayload::IndexDelete { tx, index, key, value })
        }
        LogPayload::IndexDelete { tx, index, key, value } => {
            Some(LogPayload::IndexInsert { tx, index, key, value })
        }
        _ => None,
    }
}

fn is_uncorrectable(e: &EngineError) -> bool {
    matches!(e, EngineError::NoFtl(n) if n.is_uncorrectable_ecc())
}

/// Redo one record against the page it targets, healing unreadable flash
/// residencies. A page that never reached flash and is not buffered is
/// re-materialized empty first. An uncorrectable-ECC fetch failure is
/// retried once (read retry); if the residency stays unreadable it is
/// dropped and the page rebuilt purely from the redo history that follows
/// — graceful degradation, where the alternative is refusing to open the
/// database at all. Changes committed before the surviving log tail and
/// never redone cannot be recovered from an unreadable page; repeating
/// history from a freshly formatted page is the best available outcome.
fn redo_healed(
    db: &mut Database,
    lsn: Lsn,
    action: &LogPayload<&[u8]>,
    page: PageId,
) -> Result<()> {
    let redo = |db: &mut Database| {
        db.ensure_page(page)?;
        db.apply_record(lsn, action, true)
    };
    let first = redo(db);
    if !first.as_ref().is_err_and(is_uncorrectable) {
        return first;
    }
    db.kept.stats.read_retries += 1;
    let second = redo(db);
    if !second.as_ref().is_err_and(is_uncorrectable) {
        return second;
    }
    db.trim_page(page)?;
    db.kept.stats.recovery_page_rebuilds += 1;
    redo(db)
}

impl Database {
    /// Simulate a power loss: the WAL loses its unforced tail, all but
    /// `Survivors` is built anew as `open` built it, and the open
    /// transactions' trace spans end with the host (analysis finds them).
    pub fn simulate_crash(&mut self) {
        self.debug_check_quiesced();
        self.kept.log.lose_unflushed();
        let lost = std::mem::replace(&mut self.lost, Volatile::new(&self.kept));
        for span in lost.txns.spans() {
            self.close_txn_span(span);
        }
    }

    /// ARIES restart: analysis, redo, undo — checkpoint-bounded. Analysis
    /// starts at the last complete checkpoint's Begin LSN, seeds losers
    /// from the checkpoint's active-transaction table and a dirty-page
    /// table (DPT) from its `dirty` entries; redo starts at the DPT's
    /// minimum recLSN and skips records whose target page is absent from
    /// the DPT or below its recLSN (the PageLSN comparison stays as the
    /// safety net). Restart cost is proportional to work since the last
    /// checkpoint, not to retained log size.
    ///
    /// The whole restart runs under one root `Recovery` trace span with a
    /// child span per phase, so every page rebuild and flush it triggers
    /// is attributed to it.
    pub fn recover(&mut self) -> Result<()> {
        self.restart(true, None)
    }

    /// Full-scan restart: identical to [`Database::recover`] but ignores
    /// checkpoints — analysis starts at the log tail and redo revisits
    /// every retained record, exactly the pre-checkpoint-bounded engine.
    /// The oracle baseline for bounded-restart equivalence tests and the
    /// `∞` checkpoint-interval arm of the `restart_latency` bench.
    pub fn recover_unbounded(&mut self) -> Result<()> {
        self.restart(false, None)
    }

    /// Fault injection: run restart but crash-stop the undo pass after
    /// `clr_budget` compensation records, forcing the log so the CLRs are
    /// durable, and return with the interrupted losers still unfinished.
    /// Callers follow with [`Database::simulate_crash`], which loses the
    /// transaction table, and a full [`Database::recover`] to exercise
    /// crash-during-recovery.
    pub fn recover_interrupted(&mut self, clr_budget: u64) -> Result<()> {
        self.restart(true, Some(clr_budget))
    }

    fn restart(&mut self, bounded: bool, undo_budget: Option<u64>) -> Result<()> {
        let result = self.in_restart_span(None, |db, root| {
            let t0 = db.now_ns();
            let Analysis { use_dpt, start, losers, dpt } =
                db.in_restart_span(Some(root), |db, _| db.analysis_pass(bounded));
            db.in_restart_span(Some(root), |db, _| db.redo_pass(use_dpt, start, &dpt))?;
            db.in_restart_span(Some(root), |db, _| db.undo_pass(losers, undo_budget))?;
            db.kept.stats.recovery_ns += db.now_ns().saturating_sub(t0);
            Ok(())
        });
        self.debug_check_quiesced();
        result
    }

    /// Run `f` under a `Recovery` span, listed in
    /// [`Volatile::restart_spans`] while it is open: a checkpoint that log
    /// reclamation takes during undo finds restart's spans open, and the
    /// idle check accepts those and no others.
    fn in_restart_span<T>(
        &mut self,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        self.in_span(SpanCategory::Recovery, parent, |db, span| {
            db.lost.restart_spans.push(span);
            let out = f(db, span);
            db.lost.restart_spans.pop();
            out
        })
    }

    /// Run `op` with the engine's record buffer: the images of the log
    /// record redo or rollback is applying wait there, copied out of the
    /// log. Taken for the operation, put back after it.
    fn with_record_images<R>(&mut self, op: impl FnOnce(&mut Self, &mut Vec<u8>) -> R) -> R {
        let mut images = std::mem::take(&mut self.lost.record_images);
        let result = op(self, &mut images);
        self.lost.record_images = images;
        result
    }

    /// Trace the end of a restart pass and how many records it handled.
    fn emit_phase(&mut self, phase: RecoveryPhaseKind, records: u64) {
        self.emit(EventKind::RecoveryPhase { phase, records }, None, None);
    }

    /// Analysis: find the losers and the dirty-page table, reading every
    /// record in place.
    fn analysis_pass(&mut self, bounded: bool) -> Analysis {
        // The last *complete* checkpoint, validated against the retained
        // log (the pair tracker already invalidates truncated or
        // unflushed checkpoints; the payload check is belt and braces).
        let ckpt = if bounded { self.wal().last_checkpoint_pair() } else { None };
        let ckpt = ckpt.filter(|&(begin, end)| self.wal().retains_checkpoint(begin, end));
        let start = ckpt.map_or(self.wal().tail(), |(begin, _)| begin);
        let mut losers: BTreeMap<TxId, Lsn> = BTreeMap::new();
        // Dirty-page table: page -> recLSN (earliest record that may not
        // be reflected on flash). Seeded from the checkpoint's `dirty`
        // entries, augmented by every page action analysis scans.
        let mut dpt: BTreeMap<PageId, Lsn> = BTreeMap::new();
        let mut scanned = 0u64;
        let wal = self.wal();
        for (lsn, Record { payload, .. }) in wal.records_from(start) {
            scanned += 1;
            match payload {
                LogPayload::Commit { tx } | LogPayload::Abort { tx } => {
                    losers.remove(&tx);
                }
                LogPayload::EndCheckpoint { active, dirty } => {
                    for (tx, last) in wal.active_table(active) {
                        losers.entry(tx).or_insert(last);
                    }
                    for (page, rec_lsn) in wal.dirty_table(dirty) {
                        let e = dpt.entry(page).or_insert(rec_lsn);
                        *e = (*e).min(rec_lsn);
                    }
                }
                other => {
                    if let Some(tx) = other.tx() {
                        losers.insert(tx, lsn);
                    }
                }
            }
            if let Some(page) = payload.redo_page() {
                dpt.entry(page).or_insert(lsn);
            }
        }
        self.kept.stats.analysis_records += scanned;
        self.emit_phase(RecoveryPhaseKind::Analysis, scanned);
        Analysis { use_dpt: ckpt.is_some(), start, losers, dpt }
    }

    /// Redo: repeat history, one record at a time.
    fn redo_pass(&mut self, use_dpt: bool, start: Lsn, dpt: &BTreeMap<PageId, Lsn>) -> Result<()> {
        // Bounded restart with a usable checkpoint: redo starts at the
        // DPT's minimum recLSN (a NULL recLSN — a fresh page that never
        // reached flash — clamps the scan to the log tail) and consults
        // the DPT before touching any page. Without one, redo revisits
        // every analyzed record behind the PageLSN guard, as before.
        let redo_start = if use_dpt {
            dpt.values().copied().min().map_or(start, |m| m.min(start))
        } else {
            start
        };
        let (tail, head) = (self.wal().tail(), self.wal().head());
        let applied = self.with_record_images(|db, images| -> Result<u64> {
            let mut applied = 0;
            for lsn in (tail.0..=head.0).map(Lsn) {
                let Some(record) = db.wal().record(lsn) else { continue };
                // Index roots are in-memory catalog state, not pages, so
                // the DPT cannot bound them: every retained RootChange is
                // replayed, below the redo window too — cheap pointer
                // writes, no page I/O — which keeps bounded restart
                // bit-identical to the full scan.
                if let LogPayload::RootChange { index, new_root, .. } = record.payload {
                    db.kept.indexes[index as usize].root = new_root;
                    continue;
                }
                if lsn < redo_start {
                    continue;
                }
                // Page actions only, a CLR's compensation included.
                // Logical index records are undo-only, and an index
                // compensation was logged as physical PageWrite records of
                // its own.
                let Some(page) = record.payload.redo_page() else { continue };
                if use_dpt {
                    // Skip rule: a page absent from the DPT was clean at
                    // the checkpoint and untouched since — its flash image
                    // is current. A record below the page's recLSN
                    // predates the frame's last clean->dirty transition —
                    // already on flash.
                    match dpt.get(&page) {
                        Some(&rec_lsn) if lsn >= rec_lsn => {}
                        _ => {
                            db.kept.stats.redo_skipped += 1;
                            continue;
                        }
                    }
                }
                let action = db.wal().images(record.payload, images)?;
                redo_healed(db, lsn, &action, page)?;
                applied += 1;
            }
            Ok(applied)
        })?;
        self.kept.stats.redo_applied += applied;
        self.emit_phase(RecoveryPhaseKind::Redo, applied);
        Ok(())
    }

    /// Undo the losers, youngest first (BTreeMap iteration is
    /// TxId-ordered, so walk it in reverse). Every loser is in the
    /// transaction table before the first is rolled back: a CLR or `Abort`
    /// that fills the log reclaims it, and reclamation keeps the records,
    /// and its checkpoint lists the transactions, that the table holds.
    fn undo_pass(
        &mut self,
        losers: BTreeMap<TxId, Lsn>,
        mut undo_budget: Option<u64>,
    ) -> Result<()> {
        for (&tx, &last) in &losers {
            self.lost.txns.register_recovered(tx, last);
        }
        let mut clrs = 0u64;
        for &tx in losers.keys().rev() {
            let (appended, done) = rollback_budgeted(self, tx, &mut undo_budget)?;
            clrs += appended;
            if !done {
                // Injected crash-stop: make the CLRs durable and leave
                // this loser (and any older ones) unfinished — exactly
                // the state a crash inside the undo pass would leave.
                self.force_log();
                break;
            }
            let lsn = self.log_for_tx(tx, LogPayload::Abort { tx })?;
            self.flush_log_to(lsn);
            self.lost.txns.finish(tx);
            self.kept.stats.aborts += 1;
        }
        self.emit_phase(RecoveryPhaseKind::Undo, clrs);
        Ok(())
    }
}

/// What restart's analysis pass hands to redo and undo.
struct Analysis {
    /// A usable checkpoint bounded the scan: redo consults the DPT.
    use_dpt: bool,
    /// Where the scan started: that checkpoint's Begin, or the log tail.
    start: Lsn,
    /// Transactions the scanned log neither commits nor aborts, with
    /// their last LSN.
    losers: BTreeMap<TxId, Lsn>,
    /// Dirty-page table: page -> recLSN.
    dpt: BTreeMap<PageId, Lsn>,
}

#[cfg(test)]
mod tests {
    use crate::db::tests::test_db;
    use crate::error::EngineError;
    use crate::heap::Rid;
    use crate::wal::Lsn;
    use crate::Database;
    use ipa_core::NxM;

    /// A `[2×3]` database of `frames` frames, a heap and one committed row.
    fn seeded(frames: usize, tuple: &[u8]) -> (Database, u32, Rid) {
        let mut db = test_db(NxM::tpcc(), frames);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, tuple).unwrap();
        tx.commit().unwrap();
        (db, heap, rid)
    }

    fn crash_and_recover(db: &mut Database) {
        db.simulate_crash();
        db.recover().unwrap();
    }

    /// One committed update of a row.
    fn commit_update(db: &mut Database, heap: u32, rid: Rid, tuple: &[u8]) {
        let mut tx = db.txn();
        tx.heap_update(heap, rid, tuple).unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn abort_rolls_back_update() {
        let (mut db, heap, rid) = seeded(16, &[1u8, 2, 3]);

        let mut tx = db.txn();
        tx.heap_update(heap, rid, &[9u8, 9, 9]).unwrap();
        tx.abort().unwrap();
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1, 2, 3]);
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn abort_rolls_back_insert_and_delete() {
        let (mut db, heap, keep) = seeded(16, b"keep");

        let mut tx = db.txn();
        let gone = tx.heap_insert(heap, b"gone").unwrap();
        tx.heap_delete(heap, keep).unwrap();
        tx.abort().unwrap();
        assert!(matches!(db.heap_read_unlocked(gone), Err(EngineError::BadRid(_))));
        assert_eq!(db.heap_read_unlocked(keep).unwrap(), b"keep");
    }

    #[test]
    fn crash_recovery_redoes_committed_work() {
        let (mut db, heap, rid) = seeded(16, &[1u8, 1, 1, 1]);
        db.flush_all().unwrap();

        // Committed update that never reached flash as a page write.
        commit_update(&mut db, heap, rid, &[2u8, 1, 1, 1]);

        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn crash_recovery_undoes_loser() {
        let (mut db, heap, rid) = seeded(16, &[5u8, 5]);
        db.flush_all().unwrap();

        // Loser: updates, log flushed (so the update survives the crash in
        // the log), page flushed too (steal) — undo must revert it. The
        // guard is detached so the crash, not a drop-abort, ends it.
        let mut tx = db.txn();
        tx.heap_update(heap, rid, &[7u8, 5]).unwrap();
        let _loser = tx.park();
        db.flush_all().unwrap(); // steal: dirty page reaches flash
        db.force_log();

        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![5, 5]);
        assert!(db.stats().aborts >= 1);
    }

    #[test]
    fn recovery_over_delta_records_on_flash() {
        // The §6.2 scenario: the page's latest flushed state lives partly
        // in ISPP-appended delta records; recovery must reconstruct from
        // them before redo.
        let (mut db, heap, rid) = seeded(16, &[9u8, 7, 7, 7]);
        db.flush_all().unwrap(); // out-of-place (fresh page)

        commit_update(&mut db, heap, rid, &[3u8, 7, 7, 7]);
        db.flush_all().unwrap(); // IPA append
        assert!(db.stats().ipa_flushes >= 1);

        // Another committed update, in the log only.
        commit_update(&mut db, heap, rid, &[4u8, 7, 7, 7]);

        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![4, 7, 7, 7]);
    }

    #[test]
    fn redo_from_an_empty_pool_reproduces_every_forward_change() {
        // Forward processing, rollback and restart redo change a page
        // through one routine, so replaying the log over pages that never
        // reached flash must rebuild exactly what the transactions built.
        // A mutation that bypasses the log fails here.
        let mut db = test_db(NxM::tpcc(), 32);
        let heap = db.create_heap(0);
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        let rows: Vec<Rid> = (0..6u8).map(|i| tx.heap_insert(heap, &[i; 100]).unwrap()).collect();
        for (key, rid) in rows.iter().enumerate() {
            tx.index_insert(idx, key as u64, rid.encode()).unwrap();
        }
        tx.commit().unwrap();

        let mut tx = db.txn();
        assert_eq!(tx.heap_update(heap, rows[0], &[10u8; 100]).unwrap(), rows[0], "same length");
        assert_eq!(tx.heap_update(heap, rows[1], &[11u8; 40]).unwrap(), rows[1], "shrinking");
        assert_eq!(
            tx.heap_update(heap, rows[2], &[12u8; 130]).unwrap(),
            rows[2],
            "growing in place"
        );
        let moved = tx.heap_update(heap, rows[3], &[13u8; 600]).unwrap();
        assert_ne!(moved.page, rows[3].page, "600 bytes do not fit beside the others: relocated");
        tx.index_delete(idx, 3).unwrap();
        tx.index_insert(idx, 3, moved.encode()).unwrap();
        tx.heap_delete(heap, rows[4]).unwrap();
        tx.index_delete(idx, 4).unwrap();
        tx.commit().unwrap();

        // Rolled back: the CLRs are redone like everything else.
        let mut tx = db.txn();
        tx.heap_update(heap, rows[5], &[15u8; 90]).unwrap();
        tx.heap_insert(heap, &[16u8; 50]).unwrap();
        tx.heap_delete(heap, rows[0]).unwrap();
        tx.index_insert(idx, 99, 99).unwrap();
        tx.abort().unwrap();

        let contents = |db: &mut Database| {
            let mut tuples = Vec::new();
            db.heap_scan(heap, |rid, tuple| tuples.push((rid, tuple.to_vec()))).unwrap();
            (tuples, db.index_range(idx, 0, u64::MAX).unwrap())
        };
        let built = contents(&mut db);
        assert_eq!(built.0.len(), 5);
        assert_eq!(built.1.len(), 5);

        db.simulate_crash(); // no heap page was ever flushed
        db.recover_unbounded().unwrap();
        assert_eq!(contents(&mut db), built);
    }

    #[test]
    fn redo_insert_into_another_slot_is_an_error_in_every_profile() {
        // A committed Insert record names a slot the page will not assign
        // (the page's next slot is 1). Redo must stop with a typed error:
        // a debug-only assertion let release builds file the tuple under
        // slot 1 — another row's future address — and carry on.
        use crate::txn::TxId;
        use crate::wal::LogPayload;
        let (mut db, _, rid) = seeded(16, &[1u8; 8]);
        db.flush_all().unwrap();

        let forger = TxId(4_000);
        let slot = ipa_core::SlotId(rid.slot.0 + 5);
        let begin = db.wal_mut().append(Lsn::NULL, LogPayload::<&[u8]>::Begin { tx: forger });
        let insert = db.wal_mut().append(
            begin,
            LogPayload::Insert { tx: forger, page: rid.page, slot, tuple: &[2u8; 8] },
        );
        db.wal_mut().append(insert, LogPayload::<&[u8]>::Commit { tx: forger });
        db.force_log();

        db.simulate_crash();
        let err = db.recover().unwrap_err();
        assert!(matches!(err, EngineError::RecoveryError(_)), "{err}");
        assert!(err.to_string().contains("expects SlotId(5)"), "{err}");
    }

    #[test]
    fn uncommitted_unflushed_work_simply_vanishes() {
        let (mut db, heap, rid) = seeded(16, b"base");
        db.flush_all().unwrap();
        db.force_log();

        let mut tx = db.txn();
        tx.heap_update(heap, rid, b"temp").unwrap();
        let _loser = tx.park();
        // Neither the log suffix nor the page flushed.
        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), b"base");
    }

    #[test]
    fn recovery_rebuilds_unreadable_page_from_log() {
        // A flushed page's residency rots past the ECC capability before
        // the crash. Redo must not abort the restart: the residency is
        // read-retried, then dropped, and the page rebuilt purely from
        // the surviving redo history.
        let (mut db, heap, rid) = seeded(16, &[6u8, 6, 6, 6]);
        db.flush_all().unwrap();

        // Committed update in the log only.
        commit_update(&mut db, heap, rid, &[8u8, 6, 6, 6]);

        // 48 raw bit errors > the default 40-bit ECC capability.
        let bits: Vec<usize> = (0..48).collect();
        db.ftl_mut()
            .inject_retention(ipa_noftl::RegionId(rid.page.region), rid.page.lba, &bits)
            .unwrap();

        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![8, 6, 6, 6]);
        assert!(db.stats().read_retries >= 1, "read retry must be counted");
        assert!(db.stats().recovery_page_rebuilds >= 1, "rebuild must be counted");
    }

    #[test]
    fn index_ops_rollback_on_abort() {
        let mut db = test_db(NxM::disabled(), 32);
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        tx.index_insert(idx, 10, 100).unwrap();
        tx.commit().unwrap();

        let mut tx = db.txn();
        tx.index_insert(idx, 20, 200).unwrap();
        tx.index_delete(idx, 10).unwrap();
        tx.abort().unwrap();
        assert_eq!(db.index_lookup(idx, 20).unwrap(), None);
        assert_eq!(db.index_lookup(idx, 10).unwrap(), Some(100));
    }

    #[test]
    fn index_recovery_after_crash() {
        let mut db = test_db(NxM::disabled(), 32);
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        for k in 0..50u64 {
            tx.index_insert(idx, k, k).unwrap();
        }
        tx.commit().unwrap();
        crash_and_recover(&mut db);
        for k in 0..50u64 {
            assert_eq!(db.index_lookup(idx, k).unwrap(), Some(k));
        }
    }

    #[test]
    fn double_crash_is_idempotent() {
        let (mut db, _, rid) = seeded(16, &[1u8]);
        crash_and_recover(&mut db);
        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1]);
    }

    #[test]
    fn an_id_reused_after_a_restart_is_told_apart_by_the_next_restart() {
        // A crash loses the transaction table and with it the id counter,
        // which restarts above the losers only: after a restart without
        // losers, new transactions take the ids of committed ones whose
        // records the log still holds. Analysis reads in log order, so
        // each holder of an id is done before the next one begins.
        use crate::txn::TxId;
        use crate::wal::LogPayload;
        for bounded in [true, false] {
            let (mut db, heap, rid) = seeded(16, &[1u8; 8]);
            commit_update(&mut db, heap, rid, &[2u8; 8]);
            crash_and_recover(&mut db);
            let mut tx = db.txn();
            assert_eq!(tx.id(), TxId(1), "the id of the committed insert");
            tx.heap_update(heap, rid, &[3u8; 8]).unwrap();
            tx.commit().unwrap();
            let mut loser = db.txn();
            assert_eq!(loser.id(), TxId(2), "the id of the committed update");
            loser.heap_update(heap, rid, &[4u8; 8]).unwrap();
            let _loser = loser.park();
            db.flush_all().unwrap(); // steal
            db.force_log();
            let wal = db.wal();
            let begins = wal.records_from(wal.tail()).filter(|(_, r)| {
                matches!(
                    r.payload,
                    LogPayload::Begin { tx: TxId(1) } | LogPayload::Begin { tx: TxId(2) }
                )
            });
            assert_eq!(begins.count(), 4, "the log holds both holders of each id");

            db.simulate_crash();
            if bounded { db.recover() } else { db.recover_unbounded() }.unwrap();
            assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![3u8; 8], "bounded: {bounded}");
            crash_and_recover(&mut db);
            assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![3u8; 8], "bounded: {bounded}");
        }
    }

    #[test]
    fn acked_group_commits_survive_crash_parked_ones_roll_back() {
        // The group-commit durability contract: transactions acknowledged
        // by a batch flush survive a crash; commits still parked (their
        // Commit records never forced) roll back during recovery.
        let mut db = test_db(NxM::tpcc(), 32);
        let heap = db.create_heap(0);
        let mut rids = Vec::new();
        let mut seed = db.txn();
        for _ in 0..6 {
            rids.push(seed.heap_insert(heap, &[0u8; 4]).unwrap());
        }
        seed.commit().unwrap();
        db.flush_all().unwrap();
        db.force_log();
        // Batching on from here: the seed txn committed synchronously.
        db.config_mut().group_commit_batch = 4;

        // Four commits fill a batch -> flushed and acked.
        for (i, rid) in rids.iter().take(4).enumerate() {
            commit_update(&mut db, heap, *rid, &[i as u8 + 10; 4]);
        }
        assert_eq!(db.drain_group_acks().len(), 4);
        // Two more park and never reach the batch threshold.
        for (i, rid) in rids.iter().skip(4).enumerate() {
            commit_update(&mut db, heap, *rid, &[i as u8 + 20; 4]);
        }
        assert_eq!(db.group_commit_pending(), 2);

        crash_and_recover(&mut db);
        for (i, rid) in rids.iter().take(4).enumerate() {
            assert_eq!(
                db.heap_read_unlocked(*rid).unwrap(),
                vec![i as u8 + 10; 4],
                "acked txn {i} must survive"
            );
        }
        for rid in rids.iter().skip(4) {
            assert_eq!(
                db.heap_read_unlocked(*rid).unwrap(),
                vec![0u8; 4],
                "parked txn must roll back"
            );
        }
        assert_eq!(db.group_commit_pending(), 0, "crash clears the stage");
    }

    #[test]
    fn reclaim_preserves_parked_group_commit_history() {
        // A parked (unforced) group commit is *finished* in the
        // transaction table, so log-space reclamation keyed on active
        // transactions alone would truncate its records. The page steal
        // below forces the WAL prefix (WAL-before-data), so after a crash
        // the txn is a loser whose undo depends on exactly those records
        // — losing them would let the update survive unacknowledged.
        let (mut db, heap, rid) = seeded(32, &[0u8; 4]);
        db.flush_all().unwrap();
        db.force_log();

        db.config_mut().group_commit_batch = 4;
        let before = db.wal_head();
        commit_update(&mut db, heap, rid, &[9u8; 4]); // parks — batch never fills
        assert_eq!(db.group_commit_pending(), 1);
        db.flush_all().unwrap(); // steal: forces the log, then writes the page

        db.reclaim_log_space().unwrap();
        let parked_first = Lsn(before.0 + 1);
        assert!(
            db.wal().get(parked_first).is_some(),
            "reclaim must retain the parked txn's records (old keep, computed from \
             active transactions only, truncated them)"
        );

        // Reclaim's own checkpoint forced the log, so the parked Commit is
        // durable: after a crash the transaction is a *winner* and its
        // retained records let redo reproduce it exactly — not a torn
        // half-applied update with no history to decide either way.
        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![9u8; 4], "atomic across the crash");
        assert_eq!(db.group_commit_pending(), 0);
    }

    #[test]
    fn second_crash_during_undo_converges() {
        // Crash-during-recovery: the first restart is interrupted mid-undo
        // (after its CLRs are forced), the machine crashes again, and a
        // rerun restart must converge — CLR `undo_next` chains mean undone
        // work is never re-undone, history just repeats.
        let (mut db, heap, rid) = seeded(16, &[1u8; 8]);
        db.flush_all().unwrap();
        db.force_log();

        // Loser with three updates; log forced, pages stolen.
        let mut tx = db.txn();
        tx.heap_update(heap, rid, &[2u8; 8]).unwrap();
        tx.heap_update(heap, rid, &[3u8; 8]).unwrap();
        tx.heap_update(heap, rid, &[4u8; 8]).unwrap();
        let _loser = tx.park();
        db.flush_all().unwrap();
        db.force_log();

        db.simulate_crash();
        // First restart dies after a single CLR (which it forces).
        db.recover_interrupted(1).unwrap();
        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1u8; 8], "rerun converges");
        // A third run is a no-op fixpoint.
        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn bounded_restart_skips_clean_history() {
        // One page stays dirty across the checkpoint (its recLSN drags the
        // redo window back before the Begin), while a batch of other pages
        // is flushed clean. The rescanned window contains those clean
        // pages' records; the dirty-page table proves them current on
        // flash, so bounded redo skips them.
        let mut db = test_db(NxM::tpcc(), 16);
        let heap = db.create_heap(0);
        let cold_heap = db.create_heap(0); // separate heap: cold inserts
        let mut tx = db.txn();
        let hot = tx.heap_insert(heap, &[7u8; 8]).unwrap();
        tx.commit().unwrap(); // `hot`'s page stays dirty — early recLSN

        let mut tx = db.txn();
        let mut cold = Vec::new();
        for i in 0..8u8 {
            cold.push(tx.heap_insert(cold_heap, &[i; 300]).unwrap());
        }
        tx.commit().unwrap();
        let mut cold_pages: Vec<_> = cold.iter().map(|r| r.page).collect();
        cold_pages.dedup();
        assert!(cold_pages.len() >= 2, "300-byte tuples span several pages");
        for pid in &cold_pages {
            db.flush_page(*pid).unwrap(); // clean on flash; `hot` stays dirty
        }
        db.checkpoint().unwrap(); // DPT = { hot's page -> early recLSN }

        commit_update(&mut db, heap, hot, &[99u8; 8]);

        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(hot).unwrap(), vec![99u8; 8]);
        for (i, rid) in cold.iter().enumerate() {
            assert_eq!(db.heap_read_unlocked(*rid).unwrap(), vec![i as u8; 300]);
        }
        let s = db.stats();
        assert!(s.redo_skipped > 0, "clean cold pages' records are skipped, not replayed");
        assert!(s.analysis_records <= 8, "analysis is bounded by the checkpoint");
    }

    #[test]
    fn checkpoint_after_restart_redo_keeps_the_redone_insert() {
        // Restart redo dirties the page with a record from the middle of
        // the log. A checkpoint taken afterwards must give that record as
        // the page's recLSN, or the next bounded restart skips it.
        let (mut db, heap, a) = seeded(16, &[1u8; 32]);
        db.flush_all().unwrap();
        let mut tx = db.txn();
        let b = tx.heap_insert(heap, &[2u8; 32]).unwrap();
        tx.commit().unwrap(); // in the log only

        crash_and_recover(&mut db); // redo re-inserts `b`: the page is dirty again
        db.checkpoint().unwrap();
        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(a).unwrap(), vec![1u8; 32]);
        assert_eq!(db.heap_read_unlocked(b).unwrap(), vec![2u8; 32]);
    }

    #[test]
    fn checkpoint_after_rollback_keeps_the_compensation() {
        // The aborted image reached flash (steal); rollback dirties the
        // page with a CLR it has just appended. A checkpoint taken
        // afterwards must give that CLR as the page's recLSN, or bounded
        // restart skips it and the aborted image comes back.
        let (mut db, heap, rid) = seeded(16, &[1u8; 32]);
        db.flush_all().unwrap();
        let mut tx = db.txn();
        tx.heap_update(heap, rid, &[9u8; 32]).unwrap();
        tx.db().flush_all().unwrap(); // steal
        tx.abort().unwrap();
        db.checkpoint().unwrap();

        crash_and_recover(&mut db);
        assert_eq!(db.heap_read_unlocked(rid).unwrap(), vec![1u8; 32]);
    }

    #[test]
    fn checkpoint_keeps_the_index_write_that_dirtied_the_node() {
        // Index node writes are logged before they are applied: the
        // PageWrite record itself is the node page's recLSN, not the
        // record after it.
        let mut db = test_db(NxM::disabled(), 32);
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        tx.index_insert(idx, 10, 100).unwrap();
        tx.commit().unwrap();
        db.checkpoint().unwrap();
        crash_and_recover(&mut db);
        assert_eq!(db.index_lookup(idx, 10).unwrap(), Some(100));
    }

    #[test]
    fn bounded_restart_matches_full_scan_oracle() {
        use rand::Rng;
        ipa_flash::for_each_case(3_000, |rng| {
            let seed = rng.gen_range(1u64..u64::MAX);
            let ops = rng.gen_range(10usize..48);
            // Two engines run a byte-identical randomized history —
            // committed balance updates, index churn, page steals,
            // periodic checkpoints on the simulated clock, one parked
            // loser — then crash at the same point. One restarts
            // checkpoint-bounded, the other with the full-scan oracle;
            // both checkpoint what restart left in the pool, crash and
            // restart again. Recovered state must match exactly.
            let run = |bounded: bool| {
                let mut db = crate::db::tests::checkpoint_test_db(10_000, 16);
                let heap = db.create_heap(0);
                let idx = db.create_index(0).unwrap();
                let mut rng = seed;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut tx = db.txn();
                let mut rids = Vec::new();
                for i in 0..6u8 {
                    rids.push(tx.heap_insert(heap, &[i; 16]).unwrap());
                }
                let loser_rid = tx.heap_insert(heap, &[0xAA; 16]).unwrap();
                tx.commit().unwrap();
                db.flush_all().unwrap();
                db.force_log();

                let mut inserted: Vec<u64> = Vec::new();
                let mut loser_parked = false;
                for _ in 0..ops {
                    match next() % 10 {
                        0..=4 => {
                            let a = (next() % 6) as usize;
                            let fill = (next() % 251) as u8;
                            commit_update(&mut db, heap, rids[a], &[fill; 16]);
                        }
                        5 | 6 => {
                            let k = next() % 32;
                            let v = next();
                            if !inserted.contains(&k) {
                                let mut tx = db.txn();
                                tx.index_insert(idx, k, v).unwrap();
                                tx.commit().unwrap();
                                inserted.push(k);
                            }
                        }
                        7 if !inserted.is_empty() => {
                            let k = inserted.remove((next() % inserted.len() as u64) as usize);
                            let mut tx = db.txn();
                            tx.index_delete(idx, k).unwrap();
                            tx.commit().unwrap();
                        }
                        8 if !loser_parked => {
                            // One loser, on its own account (it keeps its
                            // lock until the crash).
                            loser_parked = true;
                            let fill = (next() % 251) as u8;
                            let mut tx = db.txn();
                            tx.heap_update(heap, loser_rid, &[fill; 16]).unwrap();
                            let _ = tx.park();
                            db.force_log(); // undo history survives the crash
                        }
                        _ => {
                            db.flush_all().unwrap(); // steal
                        }
                    }
                    db.background_work().unwrap();
                }

                let restart = |db: &mut crate::Database| {
                    db.simulate_crash();
                    if bounded {
                        db.recover().unwrap();
                    } else {
                        db.recover_unbounded().unwrap();
                    }
                };
                restart(&mut db);
                db.checkpoint().unwrap();
                restart(&mut db);
                let balances: Vec<Vec<u8>> = rids
                    .iter()
                    .chain(std::iter::once(&loser_rid))
                    .map(|r| db.heap_read_unlocked(*r).unwrap())
                    .collect();
                let keys: Vec<Option<u64>> =
                    (0..32).map(|k| db.index_lookup(idx, k).unwrap()).collect();
                (balances, keys, db.stats().redo_applied)
            };
            let (bal, idx_state, bounded_redo) = run(true);
            let (oracle_bal, oracle_idx, oracle_redo) = run(false);
            assert_eq!(bal, oracle_bal);
            assert_eq!(idx_state, oracle_idx);
            // At least the second restart has a checkpoint to start from:
            // bounded restart never replays more than the oracle.
            assert!(bounded_redo <= oracle_redo);
        });
    }

    /// A non-eager database whose log budget is `log_bytes`.
    fn small_log_db(log_bytes: usize, checkpoint_interval_ns: u64) -> Database {
        let config = crate::DbConfig {
            log_capacity_bytes: log_bytes,
            checkpoint_interval_ns,
            ..crate::DbConfig::non_eager(16)
        };
        crate::db::tests::small_db(NxM::tpcc(), config)
    }

    #[test]
    fn reclaim_during_restart_undo_keeps_the_older_losers_records() {
        // Two parked losers, the older one with its page stolen, and a log
        // at 0.99 of its budget at the crash. Undo rolls the younger back
        // first; its CLR fills the log and its Abort reclaims. Reclamation
        // keeps the records of the transactions in the table, so the older
        // loser must be there already, or its update is truncated before
        // it is undone and its stolen image survives.
        let mut db = small_log_db(16 << 10, 0);
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let old_row = tx.heap_insert(heap, &[1u8; 100]).unwrap();
        let young_row = tx.heap_insert(heap, &[2u8; 100]).unwrap();
        let filler = tx.heap_insert(heap, &[0u8; 8]).unwrap();
        tx.commit().unwrap();
        db.flush_all().unwrap();

        // Each loser logs a Begin and a 100-byte update: 264 bytes.
        let losers = 2.0 * 264.0 / f64::from(16u32 << 10);
        let mut round = 0u8;
        while db.wal().used_fraction() < 0.99 - losers {
            round = round.wrapping_add(1);
            commit_update(&mut db, heap, filler, &[round; 8]);
        }
        let mut older = db.txn();
        older.heap_update(heap, old_row, &[9u8; 100]).unwrap();
        let _older = older.park();
        db.flush_all().unwrap(); // steal: the older loser's image reaches flash
        let mut younger = db.txn();
        younger.heap_update(heap, young_row, &[8u8; 100]).unwrap();
        let _younger = younger.park();
        db.force_log();
        let used = db.wal().used_fraction();
        assert!((0.985..1.0).contains(&used), "the log is at {used} of its budget");

        let reclaims = db.stats().log_reclaims;
        crash_and_recover(&mut db);
        assert!(db.stats().log_reclaims > reclaims, "undo reclaimed the log");
        let rows = |db: &mut Database| {
            [old_row, young_row, filler].map(|rid| db.heap_read_unlocked(rid).unwrap())
        };
        let expected = [vec![1u8; 100], vec![2u8; 100], vec![round; 8]];
        assert_eq!(rows(&mut db), expected);
        crash_and_recover(&mut db);
        assert_eq!(rows(&mut db), expected, "a second restart is a fixpoint");
    }

    #[test]
    fn restart_undo_that_reclaims_the_log_restores_the_committed_state() {
        use rand::Rng;
        let mut reclaimed_in_undo = 0u64;
        ipa_flash::for_each_case(2_000, |rng| {
            let seed = rng.gen_range(1u64..u64::MAX);
            let ops = rng.gen_range(4usize..24);
            let n_losers = rng.gen_range(2usize..=3);
            let log_bytes = rng.gen_range(4usize..10) << 10;
            // A committed update logs 128 bytes, so filling to below one
            // update short of the budget stops there and never reclaims.
            let fill =
                f64::from(rng.gen_range(850u32..1000)) / 1000.0 * (1.0 - 128.0 / log_bytes as f64);
            // Two engines run the same history — committed updates, index
            // churn, steals, periodic checkpoints — then fill a small log,
            // park two or three losers (an update each, some stolen, and an
            // index insert) and crash. One restarts checkpoint-bounded, the
            // other with the full scan; undo appends CLRs and Aborts into a
            // nearly full log, so some cases reclaim in the middle of it.
            // Both must restore exactly the committed state, and restart
            // again after a checkpoint to the same state.
            let run = |bounded: bool| {
                let mut db = small_log_db(log_bytes, 10_000);
                let heap = db.create_heap(0);
                let idx = db.create_index(0).unwrap();
                let mut rng = seed;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut tx = db.txn();
                let rids: Vec<Rid> =
                    (0..6u8).map(|i| tx.heap_insert(heap, &[i; 16]).unwrap()).collect();
                let loser_rids: Vec<Rid> = (0..n_losers as u8)
                    .map(|i| tx.heap_insert(heap, &[0xA0 + i; 16]).unwrap())
                    .collect();
                tx.commit().unwrap();
                db.flush_all().unwrap();

                let mut rows: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 16]).collect();
                let mut keys: Vec<u64> = Vec::new();
                let mut update = |db: &mut Database, next: &mut dyn FnMut() -> u64| {
                    let a = (next() % 6) as usize;
                    rows[a] = vec![(next() % 251) as u8; 16];
                    commit_update(db, heap, rids[a], &rows[a]);
                };
                for _ in 0..ops {
                    match next() % 8 {
                        0..=3 => update(&mut db, &mut next),
                        4 | 5 => {
                            let k = next() % 32;
                            if !keys.contains(&k) {
                                let mut tx = db.txn();
                                tx.index_insert(idx, k, k).unwrap();
                                tx.commit().unwrap();
                                keys.push(k);
                            }
                        }
                        6 if !keys.is_empty() => {
                            let k = keys.remove((next() % keys.len() as u64) as usize);
                            let mut tx = db.txn();
                            tx.index_delete(idx, k).unwrap();
                            tx.commit().unwrap();
                        }
                        _ => db.flush_all().unwrap(), // steal
                    }
                    db.background_work().unwrap();
                }
                while db.wal().used_fraction() < fill {
                    update(&mut db, &mut next);
                }
                for (i, &rid) in loser_rids.iter().enumerate() {
                    let mut tx = db.txn();
                    tx.heap_update(heap, rid, &[(next() % 251) as u8; 16]).unwrap();
                    tx.index_insert(idx, 100 + i as u64, 0).unwrap();
                    let _ = tx.park();
                    if next() % 2 == 0 {
                        db.flush_all().unwrap(); // steal
                    }
                }
                db.force_log(); // the losers' undo history survives the crash

                let restart = |db: &mut Database| {
                    db.simulate_crash();
                    if bounded {
                        db.recover().unwrap();
                    } else {
                        db.recover_unbounded().unwrap();
                    }
                };
                let reclaims = db.stats().log_reclaims;
                restart(&mut db);
                let reclaimed = db.stats().log_reclaims > reclaims;
                let state = |db: &mut Database| {
                    let tuples: Vec<Vec<u8>> = rids
                        .iter()
                        .chain(&loser_rids)
                        .map(|r| db.heap_read_unlocked(*r).unwrap())
                        .collect();
                    let index: Vec<Option<u64>> =
                        (0..128).map(|k| db.index_lookup(idx, k).unwrap()).collect();
                    (tuples, index)
                };
                let first = state(&mut db);
                db.checkpoint().unwrap();
                restart(&mut db);
                assert_eq!(state(&mut db), first, "a second restart is a fixpoint");
                let committed: Vec<Vec<u8>> = rows
                    .iter()
                    .cloned()
                    .chain((0..n_losers as u8).map(|i| vec![0xA0 + i; 16]))
                    .collect();
                assert_eq!(first.0, committed, "losers rolled back, commits kept");
                let committed_keys: Vec<Option<u64>> =
                    (0..128).map(|k| keys.contains(&k).then_some(k)).collect();
                assert_eq!(first.1, committed_keys);
                (first, reclaimed)
            };
            let (state, reclaimed) = run(true);
            let (oracle, _) = run(false);
            assert_eq!(state, oracle);
            reclaimed_in_undo += u64::from(reclaimed);
        });
        println!("restart undo reclaimed the log in {reclaimed_in_undo} of 2000 cases");
        assert!(reclaimed_in_undo > 0);
    }
}
