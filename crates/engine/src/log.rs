//! The log manager: the WAL, the group-commit stage in front of its
//! forces, checkpoints and log-space reclamation.
//!
//! The fields of [`Log`] (what a power loss leaves) and [`CommitStage`]
//! (what it takes) are private to this file, so this is the only code that
//! appends to the WAL, forces it, truncates it or loses its unflushed tail.
//! Everyone else reads through [`Database::wal`] and [`Database::wal_head`].

use ipa_noftl::{EventKind, IoCtx, SpanCategory};

use crate::db::Database;
use crate::error::EngineError;
use crate::txn::TxId;
use crate::wal::{LogPayload, Lsn, Record, Wal};
use crate::Result;

/// What a power loss leaves of the log manager: the WAL, of which a crash
/// keeps the forced prefix, and the batch-size histogram (measurement).
pub(crate) struct Log {
    wal: Wal,
    /// Size of every flushed batch, in arrival order (sweep histogram).
    batch_sizes: Vec<u32>,
}

impl Log {
    /// An empty log with the given capacity budget.
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        Log { wal: Wal::new(capacity_bytes), batch_sizes: Vec::new() }
    }

    /// What a power loss does to the WAL: the unflushed suffix is lost,
    /// and with it the `Commit` records of parked group commits (they roll
    /// back during recovery).
    pub(crate) fn lose_unflushed(&mut self) {
        self.wal.lose_unflushed();
    }
}

/// What a power loss takes from the log manager: the group-commit stage in
/// front of the WAL's forces, where commits park until the batch threshold
/// or timeout fires one force for all of them, and the checkpoint anchor.
#[derive(Default)]
pub(crate) struct CommitStage {
    /// FIFO of parked commit requests, each with the LSN of its `Commit`
    /// record: appended (locks already released), but the log force — and
    /// with it the durability acknowledgement — is deferred to the batch.
    parked: Vec<(TxId, Lsn)>,
    /// Acknowledged (durable) transactions awaiting pickup by the caller
    /// via [`Database::drain_group_acks`].
    acks: Vec<TxId>,
    /// Device clock when the oldest currently parked commit entered.
    oldest_park_ns: u64,
    /// Simulated-clock time of the most recent checkpoint (periodic or
    /// reclamation-driven), or of the stage's building; the
    /// periodic-checkpoint epoch anchor.
    last_checkpoint_ns: u64,
}

impl CommitStage {
    /// An empty stage, the checkpoint anchor at `now_ns`.
    pub(crate) fn new(now_ns: u64) -> Self {
        CommitStage { last_checkpoint_ns: now_ns, ..CommitStage::default() }
    }
}

impl Database {
    /// The write-ahead log, read-only.
    pub(crate) fn wal(&self) -> &Wal {
        &self.kept.log.wal
    }

    /// Newest appended LSN — the retained-log length a full-scan restart
    /// would have to walk (diagnostics and the restart-latency bench).
    pub fn wal_head(&self) -> Lsn {
        self.kept.log.wal.head()
    }

    /// Force the entire log to stable storage (group flush).
    pub fn force_log(&mut self) {
        self.flush_log_to(self.kept.log.wal.head());
    }

    /// Make the log durable up to `lsn`, uncounted and free of charge: the
    /// WAL rule before a page write, and the force behind an `Abort`.
    pub(crate) fn flush_log_to(&mut self, lsn: Lsn) {
        self.kept.log.wal.flush_to(lsn);
    }

    /// Force the WAL up to `lsn` on the commit path, counting only *real*
    /// forces (those that advance the durable horizon) and charging the
    /// configured log-device latency for them.
    pub(crate) fn force_wal_to(&mut self, lsn: Lsn) -> bool {
        if !self.kept.log.wal.flush_to(lsn) {
            return false;
        }
        self.kept.stats.wal_forces += 1;
        let log_force_ns = self.config().log_force_ns;
        if log_force_ns > 0 {
            self.advance_clock(log_force_ns);
        }
        true
    }

    /// Append the `Begin` record that starts a transaction's chain.
    pub(crate) fn log_begin(&mut self, tx: TxId) -> Lsn {
        self.kept.log.wal.append(Lsn::NULL, LogPayload::<&[u8]>::Begin { tx })
    }

    /// Append a log record on behalf of a transaction, maintaining the
    /// per-transaction chain. The record's images are copied into the log.
    /// A log at its budget is reclaimed first, and when that frees nothing a
    /// record that starts an operation is refused with
    /// [`EngineError::LogFull`]. What finishes one (an index operation's
    /// node writes), rolls work back or ends a transaction is never
    /// refused: a log full of a transaction's own records must be able to
    /// take the records that let it go away.
    pub(crate) fn log_for_tx<'a>(
        &mut self,
        tx: TxId,
        record: impl Into<Record<&'a [u8]>>,
    ) -> Result<Lsn> {
        let record = record.into();
        if self.kept.log.wal.used_fraction() >= 1.0 {
            if !self.lost.txns.is_active(tx) {
                return Err(EngineError::UnknownTx(tx));
            }
            self.reclaim_log_space()?;
            // A CLR's payload is an `Update`, a `Delete` and the like too.
            let starts_an_operation = record.clr.is_none()
                && matches!(
                    record.payload,
                    LogPayload::Update { .. }
                        | LogPayload::Resize { .. }
                        | LogPayload::Insert { .. }
                        | LogPayload::Delete { .. }
                        | LogPayload::IndexInsert { .. }
                        | LogPayload::IndexDelete { .. }
                );
            if starts_an_operation && self.kept.log.wal.used_fraction() >= 1.0 {
                return Err(EngineError::LogFull);
            }
        }
        // One lookup: the entry that gives the chain's head takes the new one.
        let Some(info) = self.lost.txns.info_mut(tx) else {
            return Err(EngineError::UnknownTx(tx));
        };
        info.last_lsn = self.kept.log.wal.append(info.last_lsn, record);
        Ok(info.last_lsn)
    }

    /// The one way forward processing and rollback change a page: append
    /// `record` for `tx`, then apply it at the LSN it was given
    /// ([`Self::apply_record`]). Write-ahead by construction — when the
    /// append is refused the page has not been touched, and the PageLSN and
    /// the frame's recovery LSN name a record that exists.
    pub(crate) fn log_and_apply<'a>(
        &mut self,
        tx: TxId,
        record: impl Into<Record<&'a [u8]>>,
    ) -> Result<()> {
        let record = record.into();
        let lsn = self.log_for_tx(tx, record)?;
        self.apply_record(lsn, &record.payload, false)
    }

    /// Park a finished transaction's commit request in the group-commit
    /// stage ([`Database::commit_tx`] with batching on): the durability
    /// acknowledgement arrives via [`Database::drain_group_acks`] after the
    /// batch flush, which this triggers once the batch is full.
    pub(crate) fn park_commit(&mut self, tx: TxId, lsn: Lsn) {
        self.kept.stats.tx_parked += 1;
        self.emit(EventKind::TxParked, None, None);
        if self.lost.stage.parked.is_empty() {
            self.lost.stage.oldest_park_ns = self.now_ns();
        }
        self.lost.stage.parked.push((tx, lsn));
        if self.lost.stage.parked.len() >= self.config().group_commit_batch {
            self.flush_group_commit();
        }
    }

    /// Flush the group-commit stage: one log force covering every parked
    /// commit, then acknowledge them all. A no-op when nothing is parked.
    pub fn flush_group_commit(&mut self) {
        if self.lost.stage.parked.is_empty() {
            return;
        }
        let batch = self.lost.stage.parked.len();
        let horizon = self.lost.stage.parked.iter().map(|&(_, lsn)| lsn).max().unwrap_or(Lsn::NULL);
        self.in_span(SpanCategory::Flush, self.ftl().device().current_span(), |db, _| {
            db.force_wal_to(horizon);
            db.emit(EventKind::GroupCommitFlush { txns: batch as u32 }, None, None);
        });
        self.kept.stats.group_commits += 1;
        self.kept.stats.commits += batch as u64;
        self.kept.log.batch_sizes.push(batch as u32);
        // The stage keeps its vectors: the batch moves from one to the
        // other.
        let CommitStage { parked, acks, .. } = &mut self.lost.stage;
        acks.extend(parked.drain(..).map(|(tx, _)| tx));
    }

    /// The group-commit timeout's due-check: fire a partial batch whose
    /// oldest parked commit has waited `group_commit_timeout_ns`.
    pub(crate) fn flush_group_commit_if_due(&mut self) {
        let timeout_ns = self.config().group_commit_timeout_ns;
        if !self.lost.stage.parked.is_empty() && timeout_ns > 0 {
            let waited = self.now_ns().saturating_sub(self.lost.stage.oldest_park_ns);
            if waited >= timeout_ns {
                self.flush_group_commit();
            }
        }
    }

    /// Take the transactions acknowledged (made durable) by group-commit
    /// flushes since the last drain, in commit order. Dropping the iterator
    /// discards whatever of them it has not yielded.
    pub fn drain_group_acks(&mut self) -> std::vec::Drain<'_, TxId> {
        self.lost.stage.acks.drain(..)
    }

    /// Commit requests currently parked in the group-commit stage.
    pub fn group_commit_pending(&self) -> usize {
        self.lost.stage.parked.len()
    }

    /// Sizes of every group-commit batch flushed so far, in flush order
    /// (the sweep harness builds its batch-size histogram from this).
    pub fn group_batch_sizes(&self) -> &[u32] {
        &self.kept.log.batch_sizes
    }

    /// Eager log-space reclamation's due-check (§8.4): reclaim once
    /// `log_reclaim_threshold` of the budget is in use.
    pub(crate) fn reclaim_log_if_due(&mut self) -> Result<()> {
        if self.kept.log.wal.used_fraction() >= self.config().log_reclaim_threshold {
            self.reclaim_log_space()?;
        }
        Ok(())
    }

    /// Eager log-space reclamation: flush all dirty pages (their changes
    /// become durable on flash), checkpoint, and truncate the log up to
    /// the oldest record still needed for active-transaction undo.
    pub(crate) fn reclaim_log_space(&mut self) -> Result<()> {
        let (_, staged) = self.stage_flushes(usize::MAX, IoCtx::host_async());
        staged?;
        self.checkpoint()?;
        // Oldest record still needed for undo: active transactions, and
        // — crucially — *parked* group commits. A parked transaction is
        // already finished in the transaction table (its locks are
        // released), but until the batch force acknowledges it, its
        // records are the only evidence of what it did: truncating them
        // would let stolen page writes of an unacknowledged commit survive
        // a crash with no history to redo or undo against.
        let keep = self
            .lost
            .txns
            .iter()
            .map(|(_, last)| last)
            .chain(self.lost.stage.parked.iter().map(|&(_, lsn)| lsn))
            .map(|last| self.first_lsn_from(last))
            .filter(|first| !first.is_null())
            .min()
            .unwrap_or(self.kept.log.wal.head());
        // Keep the checkpoint pair itself. The Begin and End LSNs are not
        // adjacent in general (fuzzy checkpoints interleave with regular
        // records), so the WAL tracks the pair — truncate to the Begin.
        let ckpt_begin =
            self.kept.log.wal.last_checkpoint_pair().map_or(Lsn(1), |(begin, _)| begin);
        self.kept.log.wal.truncate_to(keep.min(ckpt_begin));
        self.kept.stats.log_reclaims += 1;
        Ok(())
    }

    /// Head of the undo chain that ends at `lsn` (the transaction's first
    /// retained record). Null in, null out.
    fn first_lsn_from(&self, mut lsn: Lsn) -> Lsn {
        let mut first = lsn;
        while let Some(prev) = self.kept.log.wal.prev_of(lsn) {
            first = lsn;
            if prev.is_null() {
                break;
            }
            lsn = prev;
        }
        first
    }

    /// Take a fuzzy checkpoint: a `BeginCheckpoint`/`EndCheckpoint` record
    /// pair whose End carries the active-transaction table and the
    /// dirty-page table (each dirty frame's recLSN). Restart analysis
    /// starts at the Begin of the last complete pair and redo at the
    /// dirty-page table's minimum recLSN.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.kept.log.wal.append(Lsn::NULL, LogPayload::<&[u8]>::BeginCheckpoint);
        self.emit(EventKind::CheckpointBegin, None, None);
        self.debug_check_quiesced();
        // The tables are encoded straight from the transaction table and
        // the frames.
        let (mut counts, mut tables) = ((0, 0), Vec::new());
        let active = self.lost.txns.iter().inspect(|_| counts.0 += 1);
        let dirty = self.lost.frames.dirty_pages().inspect(|_| counts.1 += 1);
        let end = Wal::end_checkpoint(active, dirty, &mut tables);
        let end = self.kept.log.wal.append(Lsn::NULL, end);
        self.kept.log.wal.flush_to(end);
        self.kept.stats.checkpoints += 1;
        self.lost.stage.last_checkpoint_ns = self.now_ns();
        self.emit(EventKind::CheckpointEnd { active: counts.0, dirty: counts.1 }, None, None);
        Ok(())
    }

    /// Periodic fuzzy checkpoint's due-check: once `checkpoint_interval_ns`
    /// of simulated time has passed since the last checkpoint, take one —
    /// *without* flushing dirty pages first (unlike log reclamation), so
    /// the recorded dirty-page table bounds restart redo. `0` keeps the
    /// feature dormant: no clock read feeds back into engine behaviour and
    /// the trace stays event-for-event identical to the interval-0 engine.
    pub(crate) fn checkpoint_if_due(&mut self) -> Result<()> {
        let interval_ns = self.config().checkpoint_interval_ns;
        if interval_ns == 0
            || self.now_ns().saturating_sub(self.lost.stage.last_checkpoint_ns) < interval_ns
        {
            return Ok(());
        }
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{checkpoint_test_db, fill_and_flush, flushed_tuple, test_db};
    use ipa_core::NxM;

    impl Database {
        /// The write-ahead log, for tests that forge records.
        pub(crate) fn wal_mut(&mut self) -> &mut Wal {
            &mut self.kept.log.wal
        }
    }

    #[test]
    fn commit_forces_log() {
        let mut db = test_db(NxM::tpcc(), 8);
        let tx = db.start_tx();
        let lsn = db.log_for_tx(tx, LogPayload::Commit { tx }).unwrap();
        db.kept.log.wal.flush_to(lsn);
        assert_eq!(db.kept.log.wal.flushed(), lsn);
    }

    #[test]
    fn group_commit_batches_forces() {
        let mut db = test_db(NxM::tpcc(), 16);
        db.config_mut().group_commit_batch = 4;
        let heap = db.create_heap(0);
        let mut parked = Vec::new();
        for i in 0..4u8 {
            let tx = db.start_tx();
            db.heap_insert(tx, heap, &[i; 8]).unwrap();
            db.commit_tx(tx).unwrap();
            parked.push(tx);
        }
        // Batch of 4 fired exactly one real force and acked everyone.
        assert_eq!(db.stats().tx_parked, 4);
        assert_eq!(db.stats().group_commits, 1);
        assert_eq!(db.stats().wal_forces, 1);
        assert_eq!(db.stats().commits, 4);
        assert_eq!(db.group_commit_pending(), 0);
        assert_eq!(db.drain_group_acks().collect::<Vec<_>>(), parked);
        assert_eq!(db.group_batch_sizes(), &[4]);
        // Drain is one-shot.
        assert_eq!(db.drain_group_acks().len(), 0);
    }

    #[test]
    fn group_commit_timeout_fires_partial_batch() {
        let mut db = test_db(NxM::tpcc(), 16);
        db.config_mut().group_commit_batch = 8;
        db.config_mut().group_commit_timeout_ns = 1_000;
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
        assert_eq!(db.group_commit_pending(), 1);
        db.background_work().unwrap();
        assert_eq!(db.group_commit_pending(), 1, "timeout not yet reached");
        db.advance_clock(2_000);
        db.background_work().unwrap();
        assert_eq!(db.group_commit_pending(), 0);
        assert_eq!(db.drain_group_acks().collect::<Vec<_>>(), vec![tx]);
        assert_eq!(db.group_batch_sizes(), &[1]);
    }

    #[test]
    fn log_force_latency_charged_per_real_force() {
        let mut db = test_db(NxM::tpcc(), 8);
        db.config_mut().log_force_ns = 500;
        let t0 = db.ftl().device().clock().now_ns();
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
        let t1 = db.ftl().device().clock().now_ns();
        assert_eq!(t1 - t0, 500);
        assert_eq!(db.stats().wal_forces, 1);
        // A commit whose LSN horizon is already durable costs nothing.
        db.force_log();
        let tx = db.start_tx();
        // No writes: the Commit record itself still advances the horizon.
        db.commit_tx(tx).unwrap();
        assert_eq!(db.stats().wal_forces, 2);
    }

    #[test]
    fn periodic_checkpoints_fire_on_the_simulated_clock() {
        let mut db = checkpoint_test_db(1_000, 4);
        let (pid, slot) = flushed_tuple(&mut db, &[1; 32]);
        for round in 0..8u8 {
            fill_and_flush(&mut db, pid, slot, 32, round);
            db.background_work().unwrap();
        }
        assert!(db.stats().checkpoints >= 2, "simulated clock drives periodic checkpoints");
        let (begin, end) =
            db.kept.log.wal.last_checkpoint_pair().expect("a complete pair is tracked");
        assert!(begin < end, "Begin precedes End");
    }
}
