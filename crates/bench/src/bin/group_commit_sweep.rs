//! Group-commit sweep — K clients × batch threshold × queue depth on the
//! emulator profile (DESIGN.md, "Concurrency & group commit").
//!
//! Each cell runs the same total number of TPC-B Account_Update
//! transactions through the deterministic [`ipa_engine::ClientPool`],
//! with a simulated log-force latency so the amortization is visible:
//! a serial commit pays one force per transaction, a batch of B pays one
//! force for B acknowledgements. Reported per cell: WAL forces per
//! committed transaction (headline: `<= 1/B` once K clients keep a batch
//! fillable), commit throughput relative to the K=1/batch=1 serial
//! baseline, commit-latency percentiles (begin to durability ack), the
//! batch-size histogram, and the lock manager's wait/restart counters.
//! The money-conservation audit (`TpcB::verify_balances`) runs after
//! every cell — an interleaving that loses a committed delta aborts the
//! sweep.

use std::collections::BTreeMap;

use ipa_bench::{banner, fmt, ExperimentReport, Table, SEED};
use ipa_core::NxM;
use ipa_engine::{LockPolicy, Schedule};
use ipa_workloads::{MultiRunner, SystemConfig, TpcB, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated log-device force latency. Zero (the legacy free-force
/// model) would hide the amortization entirely; 1 ms models a SATA-class flush
/// (an order above the paper's SLC program time).
const LOG_FORCE_NS: u64 = 1_000_000;
/// CPU/think time per transaction — the emulator profile's value, so a
/// fully-buffered serial run is CPU-plus-force bound.
const CPU_NS_PER_TXN: u64 = 200_000;
/// Flush under-filled batches after this long on the simulated clock
/// (covers cells where the batch threshold exceeds the client count).
const TIMEOUT_NS: u64 = 4_000_000;

struct Cell {
    k: usize,
    batch: usize,
    queue_depth: u32,
    tps: f64,
    tps_vs_serial: f64,
    forces_per_commit: f64,
    group_commits: u64,
    batch_hist: BTreeMap<u32, u32>,
    p50_us: f64,
    p99_us: f64,
    lock_waits: u64,
    restarts: u64,
    deadlock_aborts: u64,
    conserved: i64,
}

fn run_cell(k: usize, batch: usize, queue_depth: u32, total_txns: u64) -> Cell {
    let mut cfg = SystemConfig::emulator(NxM::tpcb(), 0.20);
    cfg.queue_depth = queue_depth;
    cfg.group_commit_batch = batch;
    cfg.group_commit_timeout_ns = if batch > 1 { TIMEOUT_NS } else { 0 };
    cfg.log_force_ns = LOG_FORCE_NS;
    cfg.lock_policy = if k > 1 { LockPolicy::WaitDie } else { LockPolicy::NoWait };
    cfg.cpu_ns_per_txn = CPU_NS_PER_TXN;

    let mut w = TpcB::new(8, 1_000);
    let mut db = cfg.build_for(&w).expect("emulator database builds");
    let mut rng = StdRng::seed_from_u64(SEED);
    w.setup(&mut db, &mut rng).expect("TPC-B load");

    let shared = w.into_shared();
    let clients = TpcB::spawn_clients(&shared, k, total_txns / k as u64, SEED);
    let mut runner = MultiRunner::new(SEED);
    runner.cpu_ns_per_txn = CPU_NS_PER_TXN;
    runner.schedule = Schedule::RoundRobin;
    let r = runner.run(&mut db, clients).expect("pool run");

    let conserved =
        shared.borrow().verify_balances(&mut db).expect("money conserved across interleaving");

    let mut batch_hist = BTreeMap::new();
    for &size in db.group_batch_sizes() {
        *batch_hist.entry(size).or_insert(0u32) += 1;
    }
    Cell {
        k,
        batch,
        queue_depth,
        tps: r.tps,
        tps_vs_serial: 0.0,
        forces_per_commit: r.wal_forces_per_commit(),
        group_commits: r.engine.group_commits,
        batch_hist,
        p50_us: r.pool.latency_percentile(50.0) as f64 / 1e3,
        p99_us: r.pool.latency_percentile(99.0) as f64 / 1e3,
        lock_waits: r.pool.lock_waits,
        restarts: r.pool.restarts,
        deadlock_aborts: r.engine.deadlock_aborts,
        conserved,
    }
}

fn main() {
    banner(
        "Group-commit sweep — K clients x batch threshold x queue depth",
        "DESIGN.md 'Concurrency & group commit' (log-force amortization)",
    );
    // Same committed-transaction total in every cell, split across the K
    // clients, so TPS cells are directly comparable.
    let total_txns: u64 = 8_000;

    let mut report = ExperimentReport::new("group_commit_sweep");
    let mut json = Vec::new();
    let mut serial_tps = 0.0;
    for queue_depth in [1u32, 4] {
        let mut t = Table::new(&[
            "K",
            "batch",
            "qd",
            "tps",
            "vs serial",
            "forces/txn",
            "group commits",
            "p50 us",
            "p99 us",
            "waits",
            "restarts",
        ]);
        for k in [1usize, 2, 4, 8] {
            for batch in [1usize, 4, 8] {
                let mut c = run_cell(k, batch, queue_depth, total_txns);
                if k == 1 && batch == 1 && queue_depth == 1 {
                    serial_tps = c.tps;
                }
                c.tps_vs_serial = if serial_tps > 0.0 { c.tps / serial_tps } else { 0.0 };
                t.row(vec![
                    c.k.to_string(),
                    c.batch.to_string(),
                    c.queue_depth.to_string(),
                    fmt::f2(c.tps),
                    format!("{:.2}x", c.tps_vs_serial),
                    fmt::f4(c.forces_per_commit),
                    c.group_commits.to_string(),
                    fmt::f2(c.p50_us),
                    fmt::f2(c.p99_us),
                    c.lock_waits.to_string(),
                    c.restarts.to_string(),
                ]);
                json.push(serde_json::json!({
                    "k": c.k, "batch": c.batch, "queue_depth": c.queue_depth,
                    "tps": c.tps, "tps_vs_serial": c.tps_vs_serial,
                    "wal_forces_per_txn": c.forces_per_commit,
                    "group_commits": c.group_commits,
                    "batch_histogram": c.batch_hist.iter()
                        .map(|(&size, &count)| serde_json::json!({"size": size, "count": count}))
                        .collect::<Vec<_>>(),
                    "commit_latency_p50_us": c.p50_us,
                    "commit_latency_p99_us": c.p99_us,
                    "lock_waits": c.lock_waits, "restarts": c.restarts,
                    "deadlock_aborts": c.deadlock_aborts,
                    "committed_delta": c.conserved,
                }));
            }
        }
        println!("\n--- queue depth {queue_depth} ---");
        report.print_table(&t);
    }

    // The acceptance cell: K=8, batch 8, queue depth 4.
    let accept = json
        .iter()
        .find(|c| c["k"] == 8 && c["batch"] == 8 && c["queue_depth"] == 4)
        .expect("acceptance cell present");
    let forces = accept["wal_forces_per_txn"].as_f64().unwrap();
    let speedup = accept["tps_vs_serial"].as_f64().unwrap();
    println!("\nacceptance (K=8, batch 8, qd 4): {forces:.4} forces/txn, {speedup:.2}x serial");
    assert!(forces <= 0.25, "group commit must amortize >= 4x ({forces:.4} forces/txn)");
    assert!(speedup >= 2.0, "group commit must be >= 2x serial throughput ({speedup:.2}x)");
    println!("paper shape: forces/txn falls toward 1/batch as K covers the threshold;");
    println!("throughput rises because the force wait is shared by the whole batch.");

    report.set_payload(serde_json::json!({
        "log_force_ns": LOG_FORCE_NS,
        "cpu_ns_per_txn": CPU_NS_PER_TXN,
        "total_txns": total_txns,
        "acceptance": {
            "k": 8, "batch": 8, "queue_depth": 4,
            "wal_forces_per_txn": forces,
            "tps_vs_serial": speedup,
        },
        "cells": json,
    }));
    report.save();
}
