//! Fault storm — TPC-B under seeded program/erase/delta-append failures.
//!
//! Not a paper table: this harness exercises the reliability machinery of
//! §7 end to end. A seeded per-op fault storm (plus scripted bursts that
//! make every fault class fire at a known point) rains on a TPC-B run; the
//! run must complete with **zero committed-data
//! loss** — audited through the TPC-B money-conservation invariant, once
//! after the run and once more after a crash/recovery cycle — with every
//! retired block accounted for in the stats and every delta-append
//! fallback visible in the trace.
//!
//! The host queue runs at depth 4, so `--trace` yields a queued-I/O span
//! trace — crash recovery included — for `ipa-trace` latency attribution.

use std::sync::{Arc, Mutex};

use ipa_bench::{
    banner, finish_trace, init_trace, scale, trace_sink, ExperimentReport, FanoutObserver, Table,
    SEED,
};
use ipa_core::NxM;
use ipa_flash::{FaultOp, FaultPlan};
use ipa_noftl::FaultPolicy;
use ipa_obs::{EventKind, MetricsRegistry, ObsEvent, Observer, Snapshot};
use ipa_workloads::{Runner, SystemConfig, TpcB};

/// Trace-side tally of the fault and degradation events.
#[derive(Debug, Default, Clone, Copy)]
struct FaultCounts {
    program_faults: u64,
    delta_faults: u64,
    erase_faults: u64,
    blocks_retired: u64,
    delta_fallbacks: u64,
    scrub_refreshes: u64,
}

#[derive(Clone)]
struct FaultEventCounter(Arc<Mutex<FaultCounts>>);

impl Observer for FaultEventCounter {
    fn on_event(&mut self, event: ObsEvent) {
        let mut c = self.0.lock().expect("fault counter lock");
        match event.kind {
            EventKind::ProgramFault { .. } => c.program_faults += 1,
            EventKind::DeltaFault => c.delta_faults += 1,
            EventKind::EraseFault => c.erase_faults += 1,
            EventKind::BlockRetired => c.blocks_retired += 1,
            EventKind::DeltaFallback => c.delta_fallbacks += 1,
            EventKind::ScrubRefresh => c.scrub_refreshes += 1,
            _ => {}
        }
    }
}

fn main() {
    init_trace("fault_storm");
    banner(
        "Fault storm — TPC-B under seeded program/erase/delta failures",
        "§7 reliability machinery (no paper table; pass criteria: zero committed-data loss)",
    );
    let s = scale();
    let (warmup, measured) = (2_000, 8_000 * s);
    let mut w = TpcB::new(4, 2_000);

    // 1e-3 per op across all three classes, a quarter of the program
    // faults permanent — plus scripted bursts so each class fires at a
    // known point whatever the seeded storm draws (nth is counted per
    // class from device creation; the early Program bursts land during
    // the load phase, the DeltaProgram one during the measured run).
    let plan = FaultPlan::storm(SEED, 1e-3, 0.25)
        .with_scripted(FaultOp::Program, 25, false)
        .with_scripted(FaultOp::Program, 40, true)
        .with_scripted(FaultOp::DeltaProgram, 2, false)
        .with_scripted(FaultOp::Erase, 0, true);

    // 20% buffer: the eager cleaner keeps ~12.5% of the pool dirty, so
    // the end-of-storm checkpoint has more dirty frames than the queue
    // has slots — real admission waits for the latency attribution.
    let mut cfg = SystemConfig::emulator(NxM::tpcb(), 0.20);
    cfg.fault_plan = plan;
    cfg.fault_policy = FaultPolicy { program_retries: 1, scrub_threshold: 0.5 };
    // Queue depth 4: faults land while other commands are in flight, and a
    // `--trace` run carries real queue-wait time for latency attribution.
    cfg.queue_depth = 4;

    // Drive the run by hand instead of through `run_workload_observed`:
    // the observer attaches *before* the load phase, so the trace tallies
    // cover the whole device lifetime — including the scripted bursts that
    // land while TPC-B loads — where the report counters are reset after
    // warmup and cover only the measured window.
    let counter = FaultEventCounter(Arc::new(Mutex::new(FaultCounts::default())));
    let mut db = cfg.build_for(&w).expect("database builds");
    let mut runner = Runner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    let mut observers: Vec<Box<dyn Observer>> = vec![Box::new(counter.clone())];
    if let Some(sink) = trace_sink() {
        db.ftl_mut().set_cmd_tracing(true);
        observers.push(sink.observer());
    }
    db.attach_observer(Box::new(FanoutObserver::new(observers)));
    runner.setup(&mut db, &mut w).expect("TPC-B loads under the storm");
    let mut registry = MetricsRegistry::new();
    let every = (measured / 20).max(1);
    let report = runner
        .run_with(&mut db, &mut w, warmup, measured, &mut |db, n| {
            if n % every == 0 || n == measured {
                registry.sample(n, Snapshot::capture(db));
            }
        })
        .expect("TPC-B survives the storm");
    // Checkpoint the dirty pool as one queued batch: at depth 4 the page
    // writes overlap across chips and the trace picks up real host-queue
    // admission waits for `ipa-trace` latency attribution.
    db.flush_all().expect("post-storm checkpoint flushes");
    let series = registry.to_json();

    // Zero-committed-data-loss audit #1: live database after the storm.
    let live_sum = w.verify_balances(&mut db).expect("post-storm balance audit");

    // Audit #2: the same invariant must survive a crash/recovery cycle on
    // top of the fault-scarred device. The observer stays attached so a
    // `--trace` run records the recovery span too.
    db.simulate_crash();
    db.recover().expect("recovery after fault storm");
    // Device histograms at the instant tracing stops: `ipa-trace` windows
    // its attribution after the post-warmup stats reset, so these sums are
    // the counters its queue-wait + busy + service totals must reproduce.
    let traced_window = Snapshot::capture(&db);
    db.detach_observer();
    db.ftl_mut().set_cmd_tracing(false);
    let recovered_sum = w.verify_balances(&mut db).expect("post-recovery balance audit");
    assert_eq!(live_sum, recovered_sum, "recovery changed the committed balance total");

    let snap = Snapshot::capture(&db);
    let region = snap.region_total();
    let flash = &snap.flash;
    let traced = *counter.0.lock().expect("fault counter lock");

    // The scripted bursts guarantee faults; the trace covers the whole
    // device lifetime, so it must have seen them.
    assert!(traced.program_faults >= 2, "scripted program bursts did not fire");
    assert!(traced.delta_faults >= 1, "scripted delta burst did not fire");
    assert!(traced.blocks_retired >= 1, "permanent program fault retired no block");
    // Every delta-append failure is visible in the trace as a fallback.
    assert_eq!(
        traced.delta_fallbacks, traced.delta_faults,
        "a failed delta append left no fallback in the trace"
    );
    assert_eq!(
        region.delta_fallbacks, flash.delta_program_failures,
        "every failed delta append must fall back out of place"
    );

    let mut t = Table::new(&["metric", "value"]);
    for (name, v) in [
        ("committed txns", report.commits as f64),
        ("committed balance total", live_sum as f64),
        ("program failures (flash)", flash.program_failures as f64),
        ("delta-append failures (flash)", flash.delta_program_failures as f64),
        ("erase failures (flash)", flash.erase_failures as f64),
        ("blocks retired", flash.retired_blocks as f64),
        ("program retries (region)", region.program_retries as f64),
        ("delta fallbacks (region)", region.delta_fallbacks as f64),
        ("scrub refreshes (region)", region.scrub_refreshes as f64),
        ("fault events in trace", {
            (traced.program_faults + traced.delta_faults + traced.erase_faults) as f64
        }),
        ("read retries (engine)", snap.engine.read_retries as f64),
        ("recovery page rebuilds (engine)", snap.engine.recovery_page_rebuilds as f64),
    ] {
        t.row(vec![name.to_string(), format!("{v:.0}")]);
    }
    let mut rep = ExperimentReport::new("fault_storm");
    rep.print_table(&t);
    println!("\nzero committed-data loss: balance sums match the committed deltas");
    println!("({live_sum}) before and after crash recovery, under every injected fault.");

    let flash_json = serde_json::json!({
        "program_failures": flash.program_failures,
        "delta_program_failures": flash.delta_program_failures,
        "erase_failures": flash.erase_failures,
        "retired_blocks": flash.retired_blocks,
    });
    let region_json = serde_json::json!({
        "program_retries": region.program_retries,
        // Regions retire blocks only through the device, which counts them.
        "retired_blocks": flash.retired_blocks,
        "delta_fallbacks": region.delta_fallbacks,
        "scrub_refreshes": region.scrub_refreshes,
    });
    let trace_json = serde_json::json!({
        "program_faults": traced.program_faults,
        "delta_faults": traced.delta_faults,
        "erase_faults": traced.erase_faults,
        "blocks_retired": traced.blocks_retired,
        "delta_fallbacks": traced.delta_fallbacks,
        "scrub_refreshes": traced.scrub_refreshes,
    });
    let engine_json = serde_json::json!({
        "read_retries": snap.engine.read_retries,
        "recovery_page_rebuilds": snap.engine.recovery_page_rebuilds,
    });
    // Ground truth for `ipa-trace` reconciliation over the traced window.
    let tw = &traced_window.flash;
    let latency_json = serde_json::json!({
        "read_count": tw.read_latency.count(),
        "read_sum_ns": tw.read_latency.sum_ns() as u64,
        "write_count": tw.write_latency.count(),
        "write_sum_ns": tw.write_latency.sum_ns() as u64,
        "queue_wait_ns_total": tw.queue_wait_ns_total,
        "queue_waits": tw.queue_waits,
        "queue_highwater": tw.queue_highwater,
    });
    rep.set_payload(serde_json::json!({
        "commits": report.commits,
        "committed_balance_total": live_sum,
        "zero_data_loss": true,
        "survived_recovery": true,
        "flash": flash_json,
        "region": region_json,
        "trace": trace_json,
        "engine": engine_json,
        "latency": latency_json,
    }));
    rep.push_timeseries(serde_json::json!({ "run": "fault_storm", "points": series }));
    rep.save();
    finish_trace();
}
