//! Randomized crash-recovery stress: commit/abort/crash at arbitrary
//! points and verify that exactly the committed state survives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig, Rid};
use ipa::flash::{FaultOp, FaultPlan, FlashConfig};
use ipa::noftl::{IpaMode, NoFtlConfig};

fn db(scheme: NxM) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    flash.geometry.pages_per_block = 16;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    Database::open(cfg, &[scheme], DbConfig::eager(24)).unwrap()
}

/// Same geometry as [`db`], with an operation-fault plan raining on the
/// flash device (the default plan is inactive and bit-identical to `db`).
fn faulty_db(scheme: NxM, plan: FaultPlan) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.page_size = 1024;
    flash.geometry.pages_per_block = 16;
    flash.fault = plan;
    let mut cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    cfg.fault_policy.scrub_threshold = 0.5;
    Database::open(cfg, &[scheme], DbConfig::eager(24)).unwrap()
}

/// One randomized episode: a committed history interleaved with aborted
/// transactions, random flushes, and a crash; recovery must restore the
/// committed view exactly.
fn episode(seed: u64, scheme: NxM) {
    episode_on(seed, db(scheme));
}

/// The episode body, on a caller-built database (fault-plan variants).
fn episode_on(seed: u64, mut d: Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let heap = d.create_heap(0);

    // Committed base population.
    let mut tx = d.txn();
    let mut rids: Vec<Rid> = Vec::new();
    let mut committed: Vec<Vec<u8>> = Vec::new();
    for i in 0..60u8 {
        let rec = vec![i; 24];
        rids.push(tx.heap_insert(heap, &rec).unwrap());
        committed.push(rec);
    }
    tx.commit().unwrap();
    d.flush_all().unwrap();

    // Random committed and aborted rounds.
    for round in 0..12 {
        let mut tx = d.txn();
        let mut staged = committed.clone();
        for _ in 0..rng.gen_range(1..6) {
            let i = rng.gen_range(0..rids.len());
            let mut rec = staged[i].clone();
            let pos = rng.gen_range(0..rec.len());
            rec[pos] = rng.gen();
            tx.heap_update(heap, rids[i], &rec).unwrap();
            staged[i] = rec;
        }
        let commit = rng.gen_bool(0.7);
        if commit {
            tx.commit().unwrap();
            committed = staged;
        } else {
            tx.abort().unwrap();
        }
        if rng.gen_bool(0.4) {
            d.background_work().unwrap();
        }
        if rng.gen_bool(0.3) {
            d.flush_all().unwrap();
        }
        let _ = round;
    }

    // All committed work is logged durably; crash and recover.
    d.force_log();
    d.simulate_crash();
    d.recover().unwrap();

    for (i, rid) in rids.iter().enumerate() {
        let got = d.heap_read_unlocked(*rid).unwrap();
        assert_eq!(got, committed[i], "seed {seed}, tuple {i}");
    }
}

#[test]
fn randomized_crash_recovery_with_ipa() {
    for seed in 0..12 {
        episode(seed, NxM::new(2, 8, 12));
    }
}

#[test]
fn randomized_crash_recovery_baseline() {
    for seed in 100..108 {
        episode(seed, NxM::disabled());
    }
}

#[test]
fn randomized_crash_recovery_under_fault_storm() {
    // The same episodes, while a seeded per-op fault storm rains on the
    // flash device: transient and permanent program failures, erase
    // failures and delta-append failures. Self-healing (retry, retire,
    // fallback) must keep exactly the committed state recoverable.
    for seed in 200..208 {
        let plan = FaultPlan::storm(seed, 2e-3, 0.25);
        episode_on(seed, faulty_db(NxM::new(2, 8, 12), plan));
    }
}

#[test]
fn crash_recovery_after_scripted_fault_burst() {
    // Deterministic burst: every fault class fires at a known operation
    // index (counted per class from device creation), including a
    // permanent program failure that retires a block mid-episode.
    let plan = FaultPlan::default()
        .with_scripted(FaultOp::Program, 3, false)
        .with_scripted(FaultOp::Program, 8, true)
        .with_scripted(FaultOp::DeltaProgram, 0, false)
        .with_scripted(FaultOp::Erase, 0, true);
    episode_on(77, faulty_db(NxM::new(2, 8, 12), plan));
}

#[test]
fn fault_episode_accounts_for_every_retired_block() {
    let plan = FaultPlan::default().with_scripted(FaultOp::Program, 2, true).with_scripted(
        FaultOp::Program,
        6,
        true,
    );
    let mut d = faulty_db(NxM::new(2, 8, 12), plan);
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    let mut rids = Vec::new();
    for i in 0..200 {
        rids.push(tx.heap_insert(heap, &[i as u8; 24]).unwrap());
    }
    tx.commit().unwrap();
    d.flush_all().unwrap();

    let retired = d.ftl().device().stats().retired_blocks;
    assert!(retired >= 1, "permanent faults must retire blocks");
    for (i, rid) in rids.iter().enumerate() {
        assert_eq!(d.heap_read_unlocked(*rid).unwrap(), vec![i as u8; 24], "tuple {i}");
    }
}

#[test]
fn crash_with_unflushed_log_loses_only_uncommitted_tail() {
    // Commits whose log records were not forced may vanish — but recovery
    // must still produce a transaction-consistent prefix state.
    let mut d = db(NxM::tpcb());
    let heap = d.create_heap(0);
    let mut tx = d.txn();
    let rid = tx.heap_insert(heap, &[1u8, 1, 1, 1]).unwrap();
    tx.commit().unwrap(); // commit forces the log up to here
    d.flush_all().unwrap();

    let mut tx = d.txn();
    tx.heap_update(heap, rid, &[2u8, 1, 1, 1]).unwrap();
    tx.commit().unwrap(); // forced

    let mut tx = d.txn();
    tx.heap_update(heap, rid, &[3u8, 1, 1, 1]).unwrap();
    let _in_flight = tx.park(); // still open when the crash hits
    d.simulate_crash();
    d.recover().unwrap();
    assert_eq!(d.heap_read_unlocked(rid).unwrap(), vec![2, 1, 1, 1]);
}
