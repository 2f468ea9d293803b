//! Multi-client executor invariants (DESIGN.md, "Concurrency & group
//! commit"): the serializability oracle over interleaved TPC-B runs, and
//! the bit-identity guarantee for a single-client pool with batching
//! disabled.

use std::sync::{Arc, Mutex};

use rand::Rng;

use ipa::core::NxM;
use ipa::engine::{Database, LockPolicy, Schedule};
use ipa::flash::{for_each_case, ObsEvent, Observer};
use ipa::workloads::tpcb::BALANCE_OFF;
use ipa::workloads::util::Record;
use ipa::workloads::{MultiRunner, Runner, SystemConfig, TpcB};

const SEED: u64 = 0x1DA5EED;

fn config(k: usize, batch: usize) -> SystemConfig {
    let mut cfg = SystemConfig::emulator(NxM::tpcb(), 0.5);
    cfg.group_commit_batch = batch;
    cfg.group_commit_timeout_ns = if batch > 1 { 1_000_000 } else { 0 };
    cfg.lock_policy = if k > 1 { LockPolicy::WaitDie } else { LockPolicy::NoWait };
    cfg
}

/// Every account balance, in aid order (branches and tellers are covered
/// by `verify_balances`' sums; accounts are read individually, so a
/// misrouted delta cannot hide behind a compensating error elsewhere).
fn account_balances(w: &TpcB, db: &mut Database) -> Vec<i32> {
    let accounts = w.branches * w.accounts_per_branch;
    let idx = w.account_index();
    (0..accounts)
        .map(|aid| {
            let encoded = db.index_lookup(idx, aid).unwrap().expect("account present");
            let rid = ipa::engine::Rid::decode(0, encoded);
            Record::get_i32(&db.heap_read_unlocked(rid).unwrap(), BALANCE_OFF)
        })
        .collect()
}

/// Serializability oracle: whatever interleaving the pool's schedule
/// produces — round-robin or weighted, with or without group commit —
/// the final database state equals the one serial execution of the
/// same per-client transaction streams, and the money-conservation
/// audit holds on both sides.
#[test]
fn any_interleaving_matches_a_serial_order() {
    for_each_case(12, |rng| {
        let k = rng.gen_range(1usize..=5);
        let txns_per_client = rng.gen_range(1u64..=25);
        let sched_seed: u64 = rng.gen();
        let weighted: bool = rng.gen();
        let batch = rng.gen_range(1usize..=4);
        let schedule = if weighted {
            // Skewed but nonzero weights, so every client still finishes.
            Schedule::Weighted((0..k as u32).map(|i| i + 1).collect())
        } else {
            Schedule::RoundRobin
        };

        // Interleaved run: K clients through one pool.
        let cfg = config(k, batch);
        let mut w = TpcB::new(2, 50);
        let mut db = cfg.build_for(&w).unwrap();
        let runner = Runner::new(SEED);
        runner.setup(&mut db, &mut w).unwrap();
        let shared = w.into_shared();
        let clients = TpcB::spawn_clients(&shared, k, txns_per_client, SEED);
        let mut multi = MultiRunner::new(sched_seed);
        multi.schedule = schedule;
        let report = multi.run(&mut db, clients).unwrap();
        assert_eq!(
            report.pool.committed,
            k as u64 * txns_per_client,
            "every client transaction commits exactly once"
        );
        let conserved = shared.borrow().verify_balances(&mut db).unwrap();
        let interleaved = account_balances(&shared.borrow(), &mut db);

        // Serial comparator: the same clients, one at a time, on a fresh
        // but identically-loaded database — one specific serial order.
        let cfg = config(1, 1);
        let mut w = TpcB::new(2, 50);
        let mut db2 = cfg.build_for(&w).unwrap();
        runner.setup(&mut db2, &mut w).unwrap();
        let shared2 = w.into_shared();
        let serial_runner = MultiRunner::new(sched_seed);
        let mut all = TpcB::spawn_clients(&shared2, k, txns_per_client, SEED);
        for client in all.drain(..) {
            serial_runner.run(&mut db2, vec![client]).unwrap();
        }
        let serial_conserved = shared2.borrow().verify_balances(&mut db2).unwrap();
        let serial = account_balances(&shared2.borrow(), &mut db2);

        assert_eq!(conserved, serial_conserved, "same committed work on both sides");
        assert_eq!(interleaved, serial, "interleaved final state diverged from the serial order");
    });
}

/// Ordered flash/engine event tape (same shape as the determinism test in
/// `ipa-workloads`): aggregate counters can collide, the event-by-event
/// sequence cannot unless the executions really are identical.
type Event = (String, Option<u32>, Option<u64>);
#[derive(Clone, Default)]
struct Tape(Arc<Mutex<Vec<Event>>>);
impl Observer for Tape {
    fn on_event(&mut self, event: ObsEvent) {
        self.0.lock().unwrap().push((format!("{:?}", event.kind), event.region, event.lba));
    }
}

/// The api_redesign compatibility contract: one client, batching off —
/// the pool must replay the exact engine call sequence of the serial
/// [`Runner`], so the trace (and therefore every PR-5 reconciliation
/// invariant) is bit-identical to the pre-pool pipeline.
#[test]
fn single_client_pool_without_batching_is_bit_identical_to_serial() {
    const TXNS: u64 = 200;

    // Serial runner.
    let cfg = config(1, 1);
    let mut w = TpcB::new(1, 100);
    let mut db = cfg.build_for(&w).unwrap();
    let runner = Runner::new(SEED);
    runner.setup(&mut db, &mut w).unwrap();
    let tape = Tape::default();
    db.attach_observer(Box::new(tape.clone()));
    runner.run(&mut db, &mut w, 0, TXNS).unwrap();
    db.detach_observer();
    let serial = Arc::try_unwrap(tape.0).unwrap().into_inner().unwrap();

    // One pool client, batching disabled, same seed.
    let cfg = config(1, 1);
    let mut w = TpcB::new(1, 100);
    let mut db = cfg.build_for(&w).unwrap();
    runner.setup(&mut db, &mut w).unwrap();
    let tape = Tape::default();
    db.attach_observer(Box::new(tape.clone()));
    let shared = w.into_shared();
    let clients = TpcB::spawn_clients(&shared, 1, TXNS, SEED);
    let report = MultiRunner::new(SEED).run(&mut db, clients).unwrap();
    db.detach_observer();
    let pooled = Arc::try_unwrap(tape.0).unwrap().into_inner().unwrap();

    assert_eq!(report.pool.committed, TXNS);
    assert_eq!(report.engine.group_commits, 0, "batching off: no group-commit batches");
    assert!(!serial.is_empty(), "measured runs must emit trace events");
    assert_eq!(serial.len(), pooled.len(), "trace lengths diverged");
    for (i, (s, p)) in serial.iter().zip(pooled.iter()).enumerate() {
        assert_eq!(s, p, "trace diverged at event {i}");
    }
}
