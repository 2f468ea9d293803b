//! Deterministic multi-client interleaved executor: [`ClientPool`] and the
//! [`InterleavedClient`] trait it drives.

use crate::db::Database;
use crate::error::EngineError;
use crate::lock::LockPolicy;
use crate::txn::TxId;
use crate::Result;
use ipa_noftl::EventKind;

/// What a client's [`InterleavedClient::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The transaction has more steps; schedule it again later.
    Progress,
    /// The transaction finished its work; the pool commits it.
    Done,
}

/// One logical client: a generator of transactions executed step by step.
///
/// The pool owns transaction lifecycle (begin/commit/abort/restart); the
/// client owns *what* each transaction does. A step must be retryable —
/// when it fails with a lock verdict the same step runs again later (lock
/// acquisition happens before any mutation, so a failed step has no
/// effects to undo).
pub trait InterleavedClient {
    /// Start the client's next transaction. Return `false` when the
    /// client has no more transactions (it then leaves the pool).
    fn begin_txn(&mut self) -> bool;

    /// Run the next page-operation step of the current transaction.
    fn step(&mut self, txn: &mut crate::Txn<'_>) -> Result<StepOutcome>;

    /// The current transaction died under wait-die and will re-execute
    /// from its first step: rewind any per-transaction cursor. The
    /// transaction's *parameters* (keys, amounts) must be preserved so the
    /// retry performs the same logical work.
    fn restart(&mut self);
}

/// How the pool picks the next client among those able to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Cycle through eligible clients in index order.
    RoundRobin,
    /// Pick eligible clients with probability proportional to their
    /// weight (one entry per client), via the pool's seeded xorshift
    /// generator — deterministic for a given seed.
    Weighted(Vec<u32>),
}

/// Pool execution parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Seed of the scheduling RNG (weighted picks).
    pub seed: u64,
    /// Client-selection policy.
    pub schedule: Schedule,
    /// Simulated CPU/think time charged per *committed* transaction
    /// (mirrors the single-client driver, which advances the clock once
    /// per transaction).
    pub cpu_ns_per_txn: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { seed: 0x1DA, schedule: Schedule::RoundRobin, cpu_ns_per_txn: 0 }
    }
}

/// What a pool run did, on the simulated clock.
#[derive(Debug, Clone, Default)]
pub struct PoolRunReport {
    /// Transactions committed *and acknowledged durable*.
    pub committed: u64,
    /// Wait-die deaths (transaction restarts).
    pub restarts: u64,
    /// Lock waits (client parked until the holder finished).
    pub lock_waits: u64,
    /// Client steps executed (including retried ones).
    pub steps: u64,
    /// Simulated time spanned by the run, nanoseconds.
    pub elapsed_ns: u64,
    /// Per-transaction commit latency: begin to durability ack, ns.
    pub commit_latency_ns: Vec<u64>,
}

impl PoolRunReport {
    /// Committed transactions per simulated second.
    pub fn tps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.committed as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    /// Commit-latency percentile (`p` in `[0, 100]`) by nearest-rank over
    /// the recorded latencies; 0 when none were recorded.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.commit_latency_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.commit_latency_ns.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Between transactions; next quantum begins a new one.
    Idle,
    /// Mid-transaction; next quantum runs one step.
    Running { tx: TxId, started_ns: u64 },
    /// Parked on a lock held by `on`; eligible again once `on` finishes.
    Waiting { tx: TxId, on: TxId, started_ns: u64 },
    /// Died under wait-die; next quantum restarts the same transaction.
    Restarting,
    /// No more transactions.
    Finished,
}

/// The deterministic multi-client executor.
///
/// Drives K logical clients against one [`Database`], interleaving their
/// transactions at *page-operation* granularity: each scheduling quantum
/// runs exactly one step of one client's current transaction, picked by a
/// seeded round-robin or weighted schedule. The engine stays
/// single-threaded — concurrency is simulated, so every run with the same
/// seed replays the same interleaving, byte for byte.
///
/// Clients implement [`InterleavedClient`]: the pool begins a transaction
/// on their behalf ([`Database::txn`], immediately detached via
/// [`crate::Txn::park`]), re-attaches the guard for every step
/// ([`Database::resume`]), and reacts to the lock manager's wait-die
/// verdicts — [`EngineError::LockWait`] parks the client until the
/// conflicting holder finishes, [`EngineError::LockConflict`] under
/// [`LockPolicy::WaitDie`] aborts and restarts the transaction from the
/// top. Commits flow through the group-commit stage when enabled; the
/// pool drains the acknowledgements and attributes commit latency from
/// transaction begin to durability ack on the simulated clock.
#[derive(Debug)]
pub struct ClientPool {
    config: PoolConfig,
}

impl ClientPool {
    /// A pool with the given execution parameters.
    pub fn new(config: PoolConfig) -> Self {
        ClientPool { config }
    }

    /// Run every client to completion, interleaving at step granularity.
    ///
    /// Fatal engine errors abort the run (the failing transaction is
    /// rolled back first); lock verdicts are handled internally and never
    /// escape.
    pub fn run(
        &self,
        db: &mut Database,
        mut clients: Vec<Box<dyn InterleavedClient + '_>>,
    ) -> Result<PoolRunReport> {
        let wait_die = db.config().lock_policy == LockPolicy::WaitDie;
        let batched = db.config().group_commit_batch > 1;
        let mut states = vec![SlotState::Idle; clients.len()];
        let mut report = PoolRunReport::default();
        // Commits parked in the group-commit stage with their begin times:
        // at most a batch of them, so a vector searched linearly.
        let mut pending_ack: Vec<(TxId, u64)> = Vec::new();
        // Nonzero xorshift state derived from the seed.
        let mut rng_state = self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut cursor = 0usize;
        // Clients able to run this quantum; one buffer for the whole run.
        let mut eligible: Vec<usize> = Vec::with_capacity(states.len());
        // Commits parked before the run began (workload setup under a
        // batched config) are flushed and their acks discarded — they are
        // not this run's work.
        db.flush_group_commit();
        db.drain_group_acks();
        let t0 = db.now_ns();

        loop {
            // A Waiting client becomes eligible once its holder finished.
            // Wait-die keeps wait-edges old->young and therefore acyclic,
            // so some eligible client always exists while work remains —
            // the force-retry fallback below is purely defensive.
            eligible.clear();
            eligible.extend((0..states.len()).filter(|&i| match states[i] {
                SlotState::Idle | SlotState::Running { .. } | SlotState::Restarting => true,
                SlotState::Waiting { on, .. } => !db.txn_is_active(on),
                SlotState::Finished => false,
            }));
            if eligible.is_empty() {
                eligible.extend(
                    (0..states.len()).filter(|&i| matches!(states[i], SlotState::Waiting { .. })),
                );
                if eligible.is_empty() {
                    break; // everyone Finished
                }
            }
            let slot = match &self.config.schedule {
                Schedule::RoundRobin => {
                    // First eligible index at or after the cursor, cyclically.
                    let pick =
                        eligible.iter().copied().find(|&i| i >= cursor).unwrap_or(eligible[0]);
                    cursor = pick + 1;
                    if cursor >= states.len() {
                        cursor = 0;
                    }
                    pick
                }
                Schedule::Weighted(weights) => {
                    let total: u64 = eligible
                        .iter()
                        .map(|&i| u64::from(*weights.get(i).unwrap_or(&1)).max(1))
                        .sum();
                    let mut r = xorshift64(&mut rng_state) % total;
                    let mut pick = eligible[0];
                    for &i in &eligible {
                        let w = u64::from(*weights.get(i).unwrap_or(&1)).max(1);
                        if r < w {
                            pick = i;
                            break;
                        }
                        r -= w;
                    }
                    pick
                }
            };

            match states[slot] {
                SlotState::Finished => {
                    return Err(EngineError::Internal("finished clients are never eligible"))
                }
                SlotState::Idle => {
                    if clients[slot].begin_txn() {
                        let tx = db.txn().park();
                        let started_ns = db.now_ns();
                        states[slot] = SlotState::Running { tx, started_ns };
                    } else {
                        states[slot] = SlotState::Finished;
                    }
                }
                SlotState::Restarting => {
                    clients[slot].restart();
                    let tx = db.txn().park();
                    let started_ns = db.now_ns();
                    states[slot] = SlotState::Running { tx, started_ns };
                }
                SlotState::Running { tx, started_ns }
                | SlotState::Waiting { tx, started_ns, .. } => {
                    report.steps += 1;
                    let mut txn = db.resume(tx)?;
                    match clients[slot].step(&mut txn) {
                        Ok(StepOutcome::Progress) => {
                            txn.park();
                            states[slot] = SlotState::Running { tx, started_ns };
                        }
                        Ok(StepOutcome::Done) => {
                            txn.commit()?;
                            if batched {
                                pending_ack.push((tx, started_ns));
                            } else {
                                let now = db.now_ns();
                                report.committed += 1;
                                report.commit_latency_ns.push(now - started_ns);
                            }
                            states[slot] = SlotState::Idle;
                            // Mirror the single-client driver: think time +
                            // one round of background work per transaction.
                            if self.config.cpu_ns_per_txn > 0 {
                                db.advance_clock(self.config.cpu_ns_per_txn);
                            }
                            db.background_work()?;
                            drain_acks(db, &mut pending_ack, &mut report);
                        }
                        Err(EngineError::LockWait { holder, .. }) => {
                            txn.park();
                            db.kept.stats.lock_waits += 1;
                            report.lock_waits += 1;
                            db.emit(EventKind::LockWait, None, None);
                            states[slot] = SlotState::Waiting { tx, on: holder, started_ns };
                        }
                        Err(EngineError::LockConflict { .. }) if wait_die => {
                            txn.abort()?;
                            db.kept.stats.deadlock_aborts += 1;
                            report.restarts += 1;
                            states[slot] = SlotState::Restarting;
                        }
                        Err(e) => {
                            // Best-effort rollback before surfacing the
                            // fatal error; a failed abort is counted, not
                            // swallowed.
                            if txn.abort().is_err() {
                                db.kept.stats.abort_errors += 1;
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }

        // Drain the group-commit stage: straggler batches below the
        // threshold still have to reach the log.
        db.flush_group_commit();
        drain_acks(db, &mut pending_ack, &mut report);
        report.elapsed_ns = db.now_ns().saturating_sub(t0);
        Ok(report)
    }
}

/// Record durability acks (and their latencies) from the group-commit
/// stage into the report.
fn drain_acks(db: &mut Database, pending: &mut Vec<(TxId, u64)>, report: &mut PoolRunReport) {
    let now = db.now_ns();
    for tx in db.drain_group_acks() {
        report.committed += 1;
        if let Some(i) = pending.iter().position(|&(parked, _)| parked == tx) {
            report.commit_latency_ns.push(now - pending.swap_remove(i).1);
        }
    }
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::small_db;
    use crate::heap::Rid;
    use ipa_core::NxM;

    /// A client running `n` transactions, each updating one shared row
    /// then one private row (two steps + done).
    struct Bump {
        heap: u32,
        shared: Rid,
        own: Rid,
        remaining: u32,
        step: u8,
        id: u8,
    }

    impl InterleavedClient for Bump {
        fn begin_txn(&mut self) -> bool {
            if self.remaining == 0 {
                return false;
            }
            self.remaining -= 1;
            self.step = 0;
            true
        }

        fn step(&mut self, txn: &mut crate::Txn<'_>) -> Result<StepOutcome> {
            match self.step {
                0 => {
                    txn.heap_update(self.heap, self.shared, &[self.id; 8])?;
                    self.step = 1;
                    Ok(StepOutcome::Progress)
                }
                _ => {
                    txn.heap_update(self.heap, self.own, &[self.id; 8])?;
                    Ok(StepOutcome::Done)
                }
            }
        }

        fn restart(&mut self) {
            self.step = 0;
        }
    }

    /// A `[2×3]` database of 32 frames under wait-die.
    fn wait_die_db() -> Database {
        small_db(
            NxM::tpcc(),
            crate::DbConfig { lock_policy: LockPolicy::WaitDie, ..crate::DbConfig::eager(32) },
        )
    }

    fn seeded(db: &mut Database, clients: usize, txns: u32) -> Vec<Box<dyn InterleavedClient>> {
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let shared = tx.heap_insert(heap, &[0u8; 8]).unwrap();
        let owns: Vec<Rid> =
            (0..clients).map(|_| tx.heap_insert(heap, &[0u8; 8]).unwrap()).collect();
        tx.commit().unwrap();
        owns.into_iter()
            .enumerate()
            .map(|(i, own)| {
                Box::new(Bump { heap, shared, own, remaining: txns, step: 0, id: i as u8 + 1 })
                    as Box<dyn InterleavedClient>
            })
            .collect()
    }

    #[test]
    fn pool_runs_all_clients_to_completion() {
        let mut db = wait_die_db();
        let clients = seeded(&mut db, 4, 3);
        let pool = ClientPool::new(PoolConfig { cpu_ns_per_txn: 1_000, ..PoolConfig::default() });
        let report = pool.run(&mut db, clients).unwrap();
        // Every transaction eventually commits (restarts retry).
        assert_eq!(report.committed, 12);
        assert_eq!(db.stats().commits, 13); // + seeding txn
        assert_eq!(report.commit_latency_ns.len(), 12);
        assert!(report.elapsed_ns >= 12_000);
    }

    #[test]
    fn pool_with_group_commit_batches_forces() {
        let mut db = wait_die_db();
        // Batching goes live only after seeding, so the seed commit is not
        // parked into the measured window.
        let clients = seeded(&mut db, 4, 4);
        db.config_mut().group_commit_batch = 4;
        db.reset_stats();
        let pool = ClientPool::new(PoolConfig::default());
        let report = pool.run(&mut db, clients).unwrap();
        assert_eq!(report.committed, 16);
        assert_eq!(db.stats().commits, 16);
        assert!(db.stats().group_commits >= 4);
        assert!(
            db.stats().wal_forces <= db.stats().group_commits,
            "one force per batch at most (some horizons ride earlier forces)"
        );
        let batched: u32 = db.group_batch_sizes().iter().sum();
        assert_eq!(batched, 16);
    }

    #[test]
    fn pool_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut db = wait_die_db();
            let clients = seeded(&mut db, 3, 5);
            let pool = ClientPool::new(PoolConfig {
                seed,
                schedule: Schedule::Weighted(vec![3, 1, 1]),
                cpu_ns_per_txn: 500,
            });
            let report = pool.run(&mut db, clients).unwrap();
            (report.committed, report.steps, report.restarts, report.commit_latency_ns.clone())
        };
        assert_eq!(run(7), run(7));
        let a = run(7);
        let b = run(8);
        assert_eq!(a.0, b.0, "same work committed under any schedule");
    }

    #[test]
    fn pool_trace_is_identical_across_invocations_k4() {
        // Guards the ordered-map discipline (`crates/clippy.toml`): the lock
        // table, transaction table and group-commit stage all iterate
        // BTreeMaps, so two invocations of the same K=4 seed must produce
        // an identical trace — full engine stats, per-commit latencies and
        // the simulated-time envelope, not just the committed count.
        let run = || {
            let mut db = wait_die_db();
            let clients = seeded(&mut db, 4, 5);
            db.config_mut().group_commit_batch = 3;
            let pool = ClientPool::new(PoolConfig {
                seed: 42,
                schedule: Schedule::Weighted(vec![2, 1, 1, 1]),
                cpu_ns_per_txn: 700,
            });
            let report = pool.run(&mut db, clients).unwrap();
            (
                format!("{:?}", db.stats()),
                report.committed,
                report.steps,
                report.restarts,
                report.lock_waits,
                report.commit_latency_ns.clone(),
                report.elapsed_ns,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conflicting_clients_wait_or_restart_but_all_commit() {
        let mut db = wait_die_db();
        let clients = seeded(&mut db, 6, 4);
        let pool = ClientPool::new(PoolConfig::default());
        let report = pool.run(&mut db, clients).unwrap();
        assert_eq!(report.committed, 24);
        // The shared row guarantees conflicts at step granularity.
        assert!(report.lock_waits + report.restarts > 0);
        assert_eq!(db.stats().lock_waits, report.lock_waits);
        assert_eq!(db.stats().deadlock_aborts, report.restarts);
    }

    #[test]
    fn latency_percentile_nearest_rank() {
        let report =
            PoolRunReport { commit_latency_ns: vec![10, 20, 30, 40], ..PoolRunReport::default() };
        assert_eq!(report.latency_percentile(50.0), 20);
        assert_eq!(report.latency_percentile(99.0), 40);
        assert_eq!(report.latency_percentile(0.0), 10);
    }
}
