//! Restart latency — checkpoint-bounded ARIES restart vs the full-scan
//! baseline (DESIGN.md, "Checkpoints & bounded restart").
//!
//! TPC-B runs under a 4-client pool to a crash point, the log is forced
//! (so both arms recover the *same* committed history), the machine
//! crashes, and restart runs either checkpoint-bounded
//! (`Database::recover`) or as the full-log-scan oracle
//! (`Database::recover_unbounded` — the `inf` checkpoint-interval arm,
//! exactly the pre-checkpoint engine). Swept: crash point x checkpoint
//! interval on the simulated clock. Reported per cell: checkpoints
//! taken, analysis records scanned, redo records applied vs skipped, and
//! simulated restart wall-time. Every bounded arm's recovered state must
//! be identical to the oracle's — audited through the full TPC-B balance
//! vector (branches, tellers, accounts), not just conservation sums.
//!
//! The WAL stays far below its reclaim threshold at these run lengths
//! (64 MB capacity, ~hundreds of KB written), so no truncation muddies
//! the baseline: the oracle really rescans the whole history.
//!
//! Acceptance: at the densest interval and deepest crash point the
//! bounded arm applies <= 25% of the oracle's redo records, with a
//! byte-identical balance vector.

use ipa_bench::{
    attach_trace, banner, finish_trace, fmt, init_trace, ExperimentReport, Table, SEED,
};
use ipa_core::NxM;
use ipa_engine::{LockPolicy, Schedule};
use ipa_obs::Snapshot;
use ipa_workloads::{MultiRunner, SystemConfig, TpcB, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Clients in the pool (WaitDie, round-robin — deterministic across arms).
const CLIENTS: usize = 4;
/// Emulator think time per transaction; at ~0.2 ms/txn the sweep's
/// checkpoint intervals span "every few txns" to "every few hundred".
const CPU_NS_PER_TXN: u64 = 200_000;

/// Checkpoint-interval arms: `0` is the no-checkpoint oracle (restart
/// falls back to a full log scan), the rest sweep density.
const INTERVALS: [(&str, u64); 4] =
    [("inf", 0), ("50ms", 50_000_000), ("10ms", 10_000_000), ("2ms", 2_000_000)];

#[derive(Clone)]
struct Arm {
    balances: Vec<i32>,
    conserved: i64,
    checkpoints: u64,
    analysis_records: u64,
    redo_applied: u64,
    redo_skipped: u64,
    recovery_us: f64,
    wal_head: u64,
    snapshot: serde_json::Value,
}

fn run_arm(interval_ns: u64, crash_point: u64, bounded: bool) -> Arm {
    let mut cfg = SystemConfig::emulator(NxM::tpcb(), 0.20);
    cfg.cpu_ns_per_txn = CPU_NS_PER_TXN;
    cfg.lock_policy = LockPolicy::WaitDie;
    cfg.checkpoint_interval_ns = interval_ns;

    let mut w = TpcB::new(4, 2_000);
    let mut db = cfg.build_for(&w).expect("emulator database builds");
    attach_trace(&mut db);
    let mut rng = StdRng::seed_from_u64(SEED);
    w.setup(&mut db, &mut rng).expect("TPC-B load");

    let shared = w.into_shared();
    let clients = TpcB::spawn_clients(&shared, CLIENTS, crash_point / CLIENTS as u64, SEED);
    let mut runner = MultiRunner::new(SEED);
    runner.cpu_ns_per_txn = CPU_NS_PER_TXN;
    runner.schedule = Schedule::RoundRobin;
    runner.run(&mut db, clients).expect("pool run to the crash point");

    // Force the log so the two restart flavors recover the *same*
    // committed history — the comparison is about how much work restart
    // does, not about which unforced suffix a crash happens to eat.
    db.force_log();
    let wal_head = db.wal_head().0;
    db.simulate_crash();
    if bounded {
        db.recover().expect("bounded restart");
    } else {
        db.recover_unbounded().expect("full-scan restart");
    }

    let conserved =
        shared.borrow().verify_balances(&mut db).expect("money conserved across restart");
    let balances = shared.borrow().balance_vector(&mut db).expect("balance vector after restart");
    let s = db.stats().clone();
    Arm {
        balances,
        conserved,
        checkpoints: s.checkpoints,
        analysis_records: s.analysis_records,
        redo_applied: s.redo_applied,
        redo_skipped: s.redo_skipped,
        recovery_us: s.recovery_ns as f64 / 1e3,
        wal_head,
        snapshot: Snapshot::capture(&db).to_json(),
    }
}

fn main() {
    init_trace("restart_latency");
    banner(
        "Restart latency — checkpoint-bounded ARIES restart vs full log scan",
        "DESIGN.md 'Checkpoints & bounded restart' (crash point x checkpoint interval)",
    );
    let total: u64 = 4_000;
    let crash_points = [total / 4, total / 2, total];

    let mut report = ExperimentReport::new("restart_latency");
    let mut json = Vec::new();
    let mut t = Table::new(&[
        "crash txns",
        "interval",
        "ckpts",
        "analysis",
        "redo applied",
        "redo skipped",
        "restart us",
        "redo vs inf",
        "state",
    ]);
    let mut densest: Option<(f64, Arm)> = None;
    for &crash_point in &crash_points {
        let oracle = run_arm(0, crash_point, false);
        assert!(oracle.redo_applied > 0, "the oracle replays history");
        for &(label, interval_ns) in &INTERVALS {
            let arm = if interval_ns == 0 {
                oracle.clone() // the oracle *is* the `inf` row
            } else {
                run_arm(interval_ns, crash_point, true)
            };
            let state_equal = arm.balances == oracle.balances;
            assert!(state_equal, "restart flavors diverged at {crash_point} txns / {label}");
            assert_eq!(arm.conserved, oracle.conserved, "committed-delta ledger diverged");
            let redo_frac = arm.redo_applied as f64 / oracle.redo_applied as f64;
            t.row(vec![
                crash_point.to_string(),
                label.to_string(),
                arm.checkpoints.to_string(),
                arm.analysis_records.to_string(),
                arm.redo_applied.to_string(),
                arm.redo_skipped.to_string(),
                fmt::f2(arm.recovery_us),
                format!("{:.3}x", redo_frac),
                if state_equal { "==".into() } else { "DIVERGED".into() },
            ]);
            json.push(serde_json::json!({
                "crash_point_txns": crash_point,
                "interval": label,
                "interval_ns": interval_ns,
                "checkpoints": arm.checkpoints,
                "analysis_records": arm.analysis_records,
                "redo_applied": arm.redo_applied,
                "redo_skipped": arm.redo_skipped,
                "restart_us": arm.recovery_us,
                "redo_vs_unbounded": redo_frac,
                "wal_head": arm.wal_head,
                "state_equal": state_equal,
            }));
            let is_densest = interval_ns == INTERVALS.last().unwrap().1 && crash_point == total;
            if is_densest {
                densest = Some((redo_frac, arm));
            }
        }
    }
    report.print_table(&t);

    let (redo_frac, arm) = densest.expect("densest cell present");
    println!(
        "\nacceptance (crash at {total} txns, {} interval): {} checkpoints, \
         {:.3}x the oracle's redo, {} records skipped",
        INTERVALS.last().unwrap().0,
        arm.checkpoints,
        redo_frac,
        arm.redo_skipped,
    );
    assert!(arm.checkpoints > 0, "the densest interval must actually checkpoint");
    assert!(arm.redo_skipped > 0, "bounded restart must prove some records replay-free");
    assert!(
        redo_frac <= 0.25,
        "bounded restart must redo <= 25% of the full-scan baseline ({redo_frac:.3}x)"
    );
    println!("paper shape: restart work tracks the checkpoint interval, not the log length;");
    println!("the full-scan arm rescans the whole retained history at every crash point.");

    report.set_payload(serde_json::json!({
        "clients": CLIENTS,
        "cpu_ns_per_txn": CPU_NS_PER_TXN,
        "total_txns": total,
        "acceptance": {
            "interval": INTERVALS.last().unwrap().0,
            "crash_point_txns": total,
            "checkpoints": arm.checkpoints,
            "redo_skipped": arm.redo_skipped,
            "redo_vs_unbounded": redo_frac,
            "state_equal": true,
        },
        "snapshot": arm.snapshot,
        "cells": json,
    }));
    report.save();
    finish_trace();
}
