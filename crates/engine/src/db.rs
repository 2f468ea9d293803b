//! The database core: configuration, the [`Database`] struct that joins
//! the three state owners ([`crate::pager`], [`crate::log`],
//! [`crate::adaptive`]) and splits what a power loss leaves from what it
//! takes, the transaction / lock glue between them and [`Database::open`].

use ipa_core::NxM;
use ipa_noftl::{Lba, NoFtlConfig, SpanId};

use crate::adaptive::Adaptive;
use crate::error::EngineError;
use crate::heap::HeapFile;
use crate::lock::{LockManager, LockPolicy};
use crate::log::{CommitStage, Log};
use crate::pager::{Frames, Pager};
use crate::stats::EngineStats;
use crate::txn::{TxId, TxnTable};
use crate::wal::LogPayload;
use crate::Result;

/// Engine-global page identifier: region + logical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Region index.
    pub region: usize,
    /// Logical page within the region.
    pub lba: Lba,
}

impl PageId {
    /// Construct from raw parts.
    pub fn new(region: usize, lba: u64) -> Self {
        PageId { region, lba: Lba(lba) }
    }
}

/// Engine configuration: buffer size and the eager/non-eager policies the
/// paper contrasts in Tables 9 and 10.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool capacity in frames.
    pub buffer_frames: usize,
    /// Cleaner trigger: flush dirty pages once this fraction of the pool
    /// is dirty (Shore-MT hardcodes 12.5%; the paper's non-eager
    /// experiments raise it to 75%).
    pub cleaner_dirty_threshold: f64,
    /// Log capacity budget in bytes.
    pub log_capacity_bytes: usize,
    /// Log reclamation trigger as a fraction of capacity (25–50% eager in
    /// Shore-MT; 100% non-eager).
    pub log_reclaim_threshold: f64,
    /// Verify per-section ECC codes on every fetch.
    pub verify_ecc: bool,
    /// Group-commit batch threshold: commit requests park until this many
    /// are waiting, then one log force acknowledges them all. `<= 1`
    /// disables batching — every commit forces the log immediately
    /// (byte-identical to the pre-group-commit engine).
    pub group_commit_batch: usize,
    /// Group-commit timeout: a partially filled batch is flushed by
    /// [`Database::background_work`] once the oldest parked commit has
    /// waited this long on the simulated clock. `0` means no timeout
    /// (batch fills or an explicit flush/quiesce drains it).
    pub group_commit_timeout_ns: u64,
    /// Simulated cost of one log force, in nanoseconds. The WAL models a
    /// separate log device that is not part of the flash simulation, so
    /// this models its fsync latency: every *real* force (one that
    /// advances the durable horizon) on the commit path advances the
    /// device clock by this much. `0` keeps the legacy free-force model.
    pub log_force_ns: u64,
    /// Online adaptive IPA: period of the advisor re-tune epoch on the
    /// simulated clock. Every epoch [`Database::background_work`] feeds
    /// each region's eviction profile to the advisor and, if a materially
    /// better `[N×M]` scheme is predicted, transitions the region to it
    /// (new and GC-migrated pages carry the new layout; resident
    /// old-scheme pages stay readable via the page-header scheme tag).
    /// `0` (the default) disables adaptation entirely — the engine
    /// behaves bit-identically to the static-scheme engine.
    pub advisor_epoch_ns: u64,
    /// Minimum eviction observations a region's profile must hold before
    /// an epoch evaluates it (unevaluated profiles keep accumulating).
    pub advisor_min_observations: u64,
    /// Periodic fuzzy-checkpoint interval on the simulated clock:
    /// [`Database::background_work`] takes a checkpoint once this much
    /// simulated time has passed since the previous one. Unlike the
    /// checkpoint inside log reclamation, periodic checkpoints do *not*
    /// force-flush dirty pages first, so their dirty-page table carries
    /// real information and restart redo can start at its minimum recLSN.
    /// `0` (the default) disables periodic checkpointing entirely — the
    /// engine behaves event-for-event identically to the
    /// pre-checkpointing engine.
    pub checkpoint_interval_ns: u64,
    /// Row-lock conflict policy (no-wait by default; the multi-client
    /// runs use wait-die).
    pub lock_policy: LockPolicy,
}

impl DbConfig {
    /// Shore-MT-like eager policies (default in the paper's Tables 6–9).
    pub fn eager(buffer_frames: usize) -> Self {
        DbConfig {
            buffer_frames,
            cleaner_dirty_threshold: 0.125,
            log_capacity_bytes: 64 << 20,
            log_reclaim_threshold: 0.375,
            verify_ecc: false,
            group_commit_batch: 1,
            group_commit_timeout_ns: 0,
            log_force_ns: 0,
            advisor_epoch_ns: 0,
            advisor_min_observations: 64,
            checkpoint_interval_ns: 0,
            lock_policy: LockPolicy::NoWait,
        }
    }

    /// Non-eager policies (Table 10): thresholds pushed to the extreme
    /// values 75% / 100% so updates accumulate in the buffer.
    pub fn non_eager(buffer_frames: usize) -> Self {
        DbConfig {
            cleaner_dirty_threshold: 0.75,
            log_reclaim_threshold: 1.0,
            ..DbConfig::eager(buffer_frames)
        }
    }
}

/// The storage engine, in two parts: what a power loss leaves and what it
/// takes. Pager, log and adaptive state are owned by the files named after
/// them: their fields are private there, so `db.kept.pager` can be named
/// anywhere in the crate and opened nowhere else.
pub struct Database {
    pub(crate) kept: Survivors,
    pub(crate) lost: Volatile,
}

/// What a power loss leaves: the device and the WAL (a crash cuts it to
/// its forced prefix), the catalog, which lives in RAM until it is a page,
/// measurement, and the options `open` was given.
pub(crate) struct Survivors {
    pub(crate) pager: Pager,
    pub(crate) log: Log,
    /// Catalog: page lists and insert hints (a cache). TODO (ROADMAP 1(d)):
    /// on a catalog page.
    pub(crate) heaps: Vec<HeapFile>,
    /// Catalog: index roots. TODO (ROADMAP 1(d)): on a catalog page.
    pub(crate) indexes: Vec<crate::btree::BTree>,
    pub(crate) stats: EngineStats,
    /// Read through [`Database::config`]; nothing changes it after `open`.
    config: DbConfig,
}

/// What a power loss takes: [`Volatile::new`] builds all of it, for `open`
/// and again for every crash.
pub(crate) struct Volatile {
    pub(crate) frames: Frames,
    pub(crate) stage: CommitStage,
    pub(crate) adaptive: Option<Adaptive>,
    pub(crate) txns: TxnTable,
    /// Private to this module: row locks are acquired through
    /// [`Database::lock_row`] only, so every acquire passes the conflict
    /// policy and is recorded against its transaction.
    locks: LockManager,
    /// Scratch of the heap operations: the before image of the tuple being
    /// changed, between the page and the log.
    pub(crate) before_image: Vec<u8>,
    /// Scratch of the index operations: the descent path and node images.
    pub(crate) index_scratch: crate::btree::NodeScratch,
    /// Scratch of rollback and restart redo: the images of the log record
    /// being applied, copied out of the log.
    pub(crate) record_images: Vec<u8>,
    /// The `Recovery` spans of a restart in progress, outermost first
    /// (empty outside restart): the spans besides the transactions' that
    /// [`Database::debug_check_idle`] accepts as open.
    pub(crate) restart_spans: Vec<SpanId>,
}

impl Volatile {
    /// Empty; the checkpoint anchor is now, the adaptive epoch clock zero.
    pub(crate) fn new(kept: &Survivors) -> Self {
        let device = kept.pager.ftl().device();
        Volatile {
            frames: Frames::new(&kept.pager, kept.config.buffer_frames),
            stage: CommitStage::new(device.clock().now_ns()),
            adaptive: Adaptive::new(device.config(), &kept.config),
            txns: TxnTable::new(),
            locks: LockManager::new(kept.config.lock_policy),
            before_image: Vec::new(),
            index_scratch: Default::default(),
            record_images: Vec::new(),
            restart_spans: Vec::new(),
        }
    }
}

impl Database {
    /// Open a database over a new NoFTL device. `schemes[i]` is the
    /// `[N×M]` configuration of region `i` ([`NxM::disabled`] for the
    /// `[0×0]` baseline); a count other than the region count is an error.
    ///
    /// ```
    /// use ipa_core::NxM;
    /// use ipa_engine::{Database, DbConfig, LockPolicy};
    /// use ipa_noftl::{FlashConfig, IpaMode, NoFtlConfig};
    ///
    /// let ftl = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.1);
    /// let config = DbConfig {
    ///     group_commit_batch: 8,
    ///     group_commit_timeout_ns: 2_000_000,
    ///     lock_policy: LockPolicy::WaitDie,
    ///     ..DbConfig::eager(256)
    /// };
    /// let db = Database::open(ftl, &[NxM::tpcc()], config).unwrap();
    /// assert_eq!(db.stats().commits, 0);
    /// ```
    pub fn open(ftl_config: NoFtlConfig, schemes: &[NxM], config: DbConfig) -> Result<Database> {
        let kept = Survivors {
            pager: Pager::new(ftl_config, schemes)?,
            log: Log::new(config.log_capacity_bytes),
            heaps: Vec::new(),
            indexes: Vec::new(),
            stats: EngineStats::default(),
            config,
        };
        Ok(Database { lost: Volatile::new(&kept), kept })
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.kept.stats
    }

    /// The engine configuration.
    pub(crate) fn config(&self) -> &DbConfig {
        &self.kept.config
    }

    /// Debug builds check, wherever the engine is between operations (a
    /// transaction ends, and the quiesce points of
    /// [`Self::debug_check_quiesced`]), that the layers under it are too:
    /// every command submitted to the device was handed back, and the only
    /// spans open are those of a restart in progress (when log reclamation
    /// checkpoints during its undo pass) and of the open transactions
    /// (begun in id order, so the two sequences are equal).
    pub(crate) fn debug_check_idle(&self) {
        let dev = self.ftl().device();
        debug_assert_eq!(dev.inflight(), 0, "a submitted command was never completed");
        let expected = self.lost.restart_spans.iter().copied().chain(self.lost.txns.spans());
        debug_assert!(
            dev.open_spans().iter().copied().eq(expected),
            "open spans {:?} are not those of the open transactions",
            dev.open_spans()
        );
    }

    /// One round of background work: the group-commit timeout, the eager
    /// page cleaner, eager log-space reclamation (§8.4), the periodic
    /// checkpoint and the adaptive re-tune epoch — each a due-check beside
    /// the state it reads, in this order (the timeout before the cleaner so
    /// the batch force is attributed to it, not absorbed into a page
    /// flush's WAL-rule force). Benchmark drivers call this between
    /// transactions, standing in for Shore-MT's background threads.
    pub fn background_work(&mut self) -> Result<()> {
        self.flush_group_commit_if_due();
        self.clean_if_due()?;
        self.reclaim_log_if_due()?;
        self.checkpoint_if_due()?;
        self.retune_if_due();
        Ok(())
    }

    /// Begin a transaction. Opens a root trace span covering the
    /// transaction's lifetime; the matching close happens at commit/abort.
    pub(crate) fn start_tx(&mut self) -> TxId {
        let tx = self.lost.txns.begin();
        let span = self.open_txn_span();
        self.lost.txns.set_span(tx, span);
        let lsn = self.log_begin(tx);
        self.lost.txns.set_last_lsn(tx, lsn);
        tx
    }

    /// Commit a transaction. With batching disabled
    /// (`group_commit_batch <= 1`) the log is forced before this returns.
    /// With group commit enabled the `Commit` record is appended, locks
    /// are released (safe under WAL prefix durability — once the batch
    /// force covers this LSN everything the transaction did is durable)
    /// and the request parks; the durability acknowledgement arrives via
    /// [`Database::drain_group_acks`] after the batch flush.
    pub(crate) fn commit_tx(&mut self, tx: TxId) -> Result<()> {
        let lsn = self.log_for_tx(tx, LogPayload::Commit { tx })?;
        if self.config().group_commit_batch <= 1 {
            self.force_wal_to(lsn);
            self.finish_tx(tx);
            self.kept.stats.commits += 1;
        } else {
            self.finish_tx(tx);
            self.park_commit(tx, lsn);
        }
        Ok(())
    }

    /// Abort: roll back via the undo chain, write CLRs, release locks.
    pub(crate) fn abort_tx(&mut self, tx: TxId) -> Result<()> {
        if !self.lost.txns.is_active(tx) {
            return Err(EngineError::UnknownTx(tx));
        }
        crate::recovery::rollback_budgeted(self, tx, &mut None)?;
        let lsn = self.log_for_tx(tx, LogPayload::Abort { tx })?;
        self.flush_log_to(lsn);
        self.finish_tx(tx);
        self.kept.stats.aborts += 1;
        Ok(())
    }

    /// Shared commit/abort epilogue: release locks, close the
    /// transaction span, retire the table entry.
    pub(crate) fn finish_tx(&mut self, tx: TxId) {
        self.lost.locks.release_all(tx);
        if let Some(span) = self.lost.txns.span(tx) {
            self.close_txn_span(span);
        }
        self.lost.txns.finish(tx);
        self.debug_check_idle();
    }

    /// Whether a transaction is still active (has neither committed nor
    /// aborted). Parked group commits count as finished — their fate is
    /// commit, pending only the durability acknowledgement.
    pub fn txn_is_active(&self, tx: TxId) -> bool {
        self.lost.txns.is_active(tx)
    }

    /// Acquire a row lock for `tx` (released by commit/abort).
    pub(crate) fn lock_row(
        &mut self,
        tx: TxId,
        key: crate::lock::LockKey,
        mode: crate::lock::LockMode,
    ) -> Result<()> {
        self.lost.locks.lock(tx, key, mode)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lock::LockMode;
    use crate::stats::TraceEvent;
    use ipa_noftl::{FlashConfig, IoCtx, IpaMode, RegionId};

    impl Database {
        /// The engine configuration, for tests that switch a policy mid-run.
        pub(crate) fn config_mut(&mut self) -> &mut DbConfig {
            &mut self.kept.config
        }
    }

    /// A database over a small single-region SLC device.
    pub(crate) fn small_db(scheme: NxM, config: DbConfig) -> Database {
        let mut flash = FlashConfig::small_slc();
        flash.geometry.blocks_per_chip = 64;
        flash.geometry.pages_per_block = 16;
        flash.geometry.page_size = 1024;
        let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
        Database::open(cfg, &[scheme], config).unwrap()
    }

    /// A new page holding `tuple`, flushed (out of place, being new).
    pub(crate) fn flushed_tuple(db: &mut Database, tuple: &[u8]) -> (PageId, ipa_core::SlotId) {
        let pid = db.new_page(0).unwrap();
        let slot = db.with_page_mut(pid, |p, t| Ok(p.insert_tuple(tuple, t)?)).unwrap();
        db.flush_page(pid).unwrap();
        (pid, slot)
    }

    /// Overwrite the first `n` bytes of a tuple with `byte`, then flush its
    /// page.
    pub(crate) fn fill_and_flush(
        db: &mut Database,
        pid: PageId,
        slot: ipa_core::SlotId,
        n: usize,
        byte: u8,
    ) {
        db.with_page_mut(pid, |p, t| {
            let mut v = p.tuple(slot)?.to_vec();
            v[..n].fill(byte);
            Ok(p.update_tuple(slot, &v, t)?)
        })
        .unwrap();
        db.flush_page(pid).unwrap();
    }

    pub(crate) fn test_db(scheme: NxM, frames: usize) -> Database {
        small_db(scheme, DbConfig::eager(frames))
    }

    pub(crate) fn adaptive_test_db(epoch_ns: u64, frames: usize) -> Database {
        let mut dbc = DbConfig::eager(frames);
        dbc.advisor_epoch_ns = epoch_ns;
        dbc.advisor_min_observations = 8;
        small_db(NxM::tpcc(), dbc)
    }

    pub(crate) fn checkpoint_test_db(interval_ns: u64, frames: usize) -> Database {
        small_db(
            NxM::tpcc(),
            DbConfig { checkpoint_interval_ns: interval_ns, ..DbConfig::eager(frames) },
        )
    }

    /// A submit nobody completes is caught where the transaction ends.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never completed")]
    fn leaked_submit_panics_at_the_transaction_boundary() {
        let mut db = test_db(NxM::tpcc(), 8);
        let pid = db.new_page(0).unwrap();
        db.flush_page(pid).unwrap();
        // Dropped on purpose: the leak under test.
        let _leaked = db.ftl_mut().submit_read(RegionId(0), pid.lba, IoCtx::host()).unwrap();
        let tx = db.start_tx();
        db.commit_tx(tx).unwrap();
    }

    /// Restart's own spans are accepted while it runs and only then: a span
    /// left open after a restart is caught at the next checkpoint.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "are not those of the open transactions")]
    fn leaked_span_after_a_restart_panics_at_the_next_checkpoint() {
        let mut db = test_db(NxM::tpcc(), 8);
        db.simulate_crash();
        db.recover().unwrap();
        assert!(db.lost.restart_spans.is_empty());
        #[expect(clippy::disallowed_methods, reason = "the leak under test")]
        let _leaked = db.ftl_mut().open_span_under(ipa_noftl::SpanCategory::Recovery, None);
        db.checkpoint().unwrap();
    }

    /// One scheme per region: `open` refuses more or fewer.
    #[test]
    fn open_refuses_a_scheme_count_other_than_the_region_count() {
        let cfg = NoFtlConfig::single_region(FlashConfig::small_slc(), IpaMode::Slc, 0.2);
        for schemes in [&[][..], &[NxM::tpcc(), NxM::tpcb()][..]] {
            match Database::open(cfg.clone(), schemes, DbConfig::eager(8)) {
                Err(EngineError::Core(ipa_core::CoreError::InvalidPage(msg))) => {
                    assert_eq!(msg, format!("{} schemes for 1 regions", schemes.len()))
                }
                other => panic!("{} schemes: {other:?}", schemes.len()),
            }
        }
    }

    /// The lock policy is an option of `open`: the lock table a crash
    /// rebuilds resolves conflicts by it too, so wait-die stays wait-die.
    #[test]
    fn a_restart_keeps_the_lock_policy() {
        let config = DbConfig { lock_policy: LockPolicy::WaitDie, ..DbConfig::eager(8) };
        let mut db = small_db(NxM::tpcc(), config);
        db.simulate_crash();
        db.recover().unwrap();
        let (older, younger) = (db.start_tx(), db.start_tx());
        db.lock_row(younger, (0, 1), LockMode::Exclusive).unwrap();
        let verdict = db.lock_row(older, (0, 1), LockMode::Exclusive);
        assert!(matches!(verdict, Err(EngineError::LockWait { .. })), "{verdict:?}");
        assert_eq!(db.config().lock_policy, LockPolicy::WaitDie);
    }

    /// A crash takes what `Volatile` holds and leaves what `Survivors`
    /// holds: with a parked group commit, undrained acks, a held lock, dirty
    /// frames and an open transaction, the rebuilt part comes back empty,
    /// measurement and catalog come back as they were, and restart rolls
    /// back the open transaction and the commit nobody forced.
    #[test]
    fn a_crash_rebuilds_the_volatile_part_and_keeps_the_survivors() {
        let mut db =
            small_db(NxM::tpcc(), DbConfig { group_commit_batch: 2, ..DbConfig::eager(4) });
        let heap = db.create_heap(0);
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        let (a, b) =
            (tx.heap_insert(heap, &[1; 32]).unwrap(), tx.heap_insert(heap, &[2; 32]).unwrap());
        tx.index_insert(idx, 7, a.encode()).unwrap();
        tx.commit().unwrap(); // parks
        let mut tx = db.txn();
        tx.heap_update(heap, a, &[3; 32]).unwrap();
        tx.commit().unwrap(); // fills the batch: one force acknowledges both
        for _ in 0..8 {
            db.new_page(0).unwrap(); // evictions sweep the CLOCK hand around
        }
        let mut loser = db.txn();
        loser.heap_update(heap, a, &[4; 32]).unwrap();
        let _loser = loser.park(); // holds its lock until the crash
        db.flush_all().unwrap(); // steal
        db.force_log();
        let mut tx = db.txn();
        tx.heap_update(heap, b, &[5; 32]).unwrap();
        tx.commit().unwrap(); // parks, its Commit never forced
        assert_eq!((db.group_commit_pending(), db.lost.locks.held_count()), (1, 1));
        assert!(db.pool_mut().dirty_count() > 0);
        let kept = |db: &Database| {
            let catalog = format!("{:?} {:?} {:?}", db.kept.heaps, db.kept.indexes, db.layout(0));
            let measured = format!("{:?} {:?}", db.stats(), db.profile(0));
            (catalog, measured, db.sweep_stats(), db.group_batch_sizes().to_vec())
        };
        let before = kept(&db);
        assert!(db.profile(0).observations() > 0 && before.2.victims > 0 && before.3 == [2]);

        db.simulate_crash();
        assert_eq!(kept(&db), before);
        assert_eq!(db.pool_mut().len(), 0);
        assert_eq!((db.group_commit_pending(), db.drain_group_acks().len()), (0, 0));
        assert_eq!((db.lost.locks.held_count(), db.lost.txns.active_count()), (0, 0));
        assert!(db.ftl().device().open_spans().is_empty(), "the transactions' spans ended");
        let scratch = [&db.lost.before_image, &db.lost.record_images];
        assert!(scratch.iter().all(|v| v.capacity() == 0) && db.lost.restart_spans.is_empty());

        db.recover().unwrap();
        assert_eq!(db.heap_read_unlocked(a).unwrap(), [3; 32], "the loser rolled back");
        assert_eq!(db.heap_read_unlocked(b).unwrap(), [2; 32], "the unforced commit too");
        assert_eq!(db.index_lookup(idx, 7).unwrap(), Some(a.encode()));
    }

    fn drive_mixed(mut db: Database) -> (Vec<TraceEvent>, u64, u64, u64, u64, u64) {
        db.enable_tracing();
        let mut pids = Vec::new();
        let mut slots = Vec::new();
        for i in 0..6u8 {
            let pid = db.new_page(0).unwrap();
            let slot = db.with_page_mut(pid, |p, t| Ok(p.insert_tuple(&[i; 48], t)?)).unwrap();
            pids.push(pid);
            slots.push(slot);
        }
        db.flush_all().unwrap();
        for round in 1..=5u8 {
            for (i, &pid) in pids.iter().enumerate() {
                let n = if i % 2 == 0 { 2 } else { 30 };
                fill_and_flush(&mut db, pid, slots[i], n, round);
                db.background_work().unwrap();
            }
        }
        let trace = db.take_trace();
        let s = db.stats();
        (trace, s.gross_written_bytes, s.ipa_flushes, s.oop_flushes, s.fetches, s.evictions)
    }

    #[test]
    fn adaptive_idle_plumbing_is_trace_identical() {
        // Adaptation enabled but never firing (no epoch elapses) must be
        // indistinguishable from the static engine: same trace tape, same
        // I/O accounting. With `advisor_epoch_ns = 0` the adaptive state
        // is not even built, so that case is structurally identical.
        let baseline = drive_mixed(test_db(NxM::tpcc(), 4));
        let adaptive = drive_mixed(adaptive_test_db(u64::MAX, 4));
        assert_eq!(baseline, adaptive);
    }

    #[test]
    fn dormant_checkpointing_is_trace_identical() {
        // `checkpoint_interval_ns = 0` must leave the engine untouched, and
        // an armed interval that never elapses must be indistinguishable
        // from it: same trace tape, same I/O accounting, no log growth.
        let baseline = drive_mixed(checkpoint_test_db(0, 4));
        let armed = drive_mixed(checkpoint_test_db(u64::MAX, 4));
        assert_eq!(baseline, armed);
    }
}
