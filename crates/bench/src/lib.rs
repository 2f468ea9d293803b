//! # ipa-bench — harnesses reproducing every table and figure of the paper
//!
//! One binary per experiment (`cargo run --release -p ipa-bench --bin
//! <name>`), each printing the paper-reported values next to the measured
//! ones so the *shape* of every result can be checked at a glance:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_amplification`  | Figure 1 — layer-by-layer write amplification |
//! | `table1_update_sizes` | Table 1 — update-size percentiles |
//! | `table2_ipl_vs_ipa`   | Table 2 — IPA vs In-Page Logging |
//! | `table3_nxm_sweep`    | Table 3 — N×M sensitivity sweep |
//! | `table4_wa_reduction` | Table 4 — DB write-amplification reduction |
//! | `table5_linkbench_wa` | Table 5 — LinkBench space overhead / WA |
//! | `table6_tpcb_openssd` | Table 6 — TPC-B on OpenSSD (pSLC / odd-MLC) |
//! | `table7_tpcb_emulator`| Table 7 — TPC-B on the emulator |
//! | `table8_tpcc_openssd` | Table 8 — TPC-C on OpenSSD (pSLC / odd-MLC) |
//! | `table9_tpcc_buffers` | Table 9 — TPC-C buffer sweep (eager) |
//! | `table10_tpcc_noneager`| Table 10 — TPC-C buffer sweep (non-eager) |
//! | `table11_noneager_sizes`| Table 11 — update sizes, non-eager |
//! | `fig6_linkbench_ipa`  | Figure 6 — IPA fraction in LinkBench |
//! | `fig7_10_cdfs`        | Figures 7–10 — update-size CDFs |
//! | `advisor_ablation`    | §8.4 — IPA advisor + design ablations |
//! | `op_ablation`         | §8.4 — over-provisioning reduction ablation |
//! | `hybrid_ftl_ablation` | §8.4 ext. — IPA on a hybrid-mapping SSD |
//! | `queued_io_sweep`     | queued submit/complete at depths 1–8 |
//! | `fault_storm`         | §7 — fault injection + self-healing under TPC-B |
//! | `group_commit_sweep`  | K clients × batch × queue depth group commit |
//! | `adaptive_ipa`        | online re-tuning vs static schemes vs per-phase oracle |
//! | `restart_latency`     | checkpoint-bounded restart vs full log scan |
//!
//! Scales are simulation-sized (the substrate is a simulator, not the
//! authors' 50 GB testbed); set `IPA_BENCH_SCALE=2` (or higher) to grow
//! database sizes and transaction counts proportionally. Every binary
//! also appends its results as JSON to `bench-results/` for
//! EXPERIMENTS.md bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

use ipa_core::NxM;
use ipa_engine::Database;
use ipa_obs::{MetricsRegistry, ObsEvent, Observer, Snapshot};
use ipa_workloads::{RunReport, Runner, SystemConfig, Workload};

pub use ipa_obs::{ExperimentReport, JsonlSink, Table, TraceHandle};

/// Scale multiplier from `IPA_BENCH_SCALE` (default 1).
#[expect(clippy::disallowed_methods, reason = "the harness is where environment settings enter")]
pub fn scale() -> u64 {
    std::env::var("IPA_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

static TRACE: OnceLock<Option<JsonlSink>> = OnceLock::new();

/// Honour a `--trace` command-line flag: stream every flash/engine event
/// (spans, command lifecycles, faults) of this process to
/// `bench-results/<bin>.trace.jsonl` for offline analysis with `ipa-trace`.
///
/// Call once at the top of `main`. Runs started through [`run_workload`] /
/// [`run_workload_observed`] then attach the sink automatically (with
/// command lifecycle tracing enabled); hand-driven harnesses attach it via
/// [`attach_trace`] or [`trace_sink`]. Call [`finish_trace`] before exit
/// to terminate the file with its `trace_end` accounting trailer.
pub fn init_trace(bin: &str) -> Option<JsonlSink> {
    let sink = if std::env::args().any(|a| a == "--trace") {
        let path = format!("bench-results/{bin}.trace.jsonl");
        match JsonlSink::file(&path) {
            Ok(sink) => {
                println!("tracing to {path}");
                Some(sink)
            }
            Err(e) => {
                eprintln!("warning: cannot open trace file {path}: {e}");
                None
            }
        }
    } else {
        None
    };
    let _ = TRACE.set(sink.clone());
    sink
}

/// The process-wide `--trace` sink, when [`init_trace`] enabled one.
pub fn trace_sink() -> Option<JsonlSink> {
    TRACE.get().and_then(Clone::clone)
}

/// Attach the process-wide `--trace` sink (when enabled) to a hand-built
/// database and switch command lifecycle tracing on. Returns whether a
/// sink was attached.
pub fn attach_trace(db: &mut Database) -> bool {
    let Some(sink) = trace_sink() else { return false };
    db.ftl_mut().set_cmd_tracing(true);
    db.attach_observer(sink.observer());
    true
}

/// Finalize the process-wide trace: write the `trace_end` trailer (event
/// and drop accounting) and flush. Dropped events are reported on stderr —
/// analyzers treat such traces as lower bounds.
pub fn finish_trace() {
    let Some(sink) = trace_sink() else { return };
    if sink.dropped() > 0 {
        eprintln!("warning: trace dropped {} of {} events", sink.dropped(), sink.written());
    }
    match sink.finish() {
        Ok(()) => {
            println!(
                "trace complete: {} events written, {} dropped",
                sink.written(),
                sink.dropped()
            );
        }
        Err(e) => eprintln!("warning: could not finalize trace: {e}"),
    }
}

/// Fan-out observer: forwards every event to each inner observer, so a
/// harness can keep its own counters while the `--trace` sink records.
pub struct FanoutObserver(Vec<Box<dyn Observer>>);

impl FanoutObserver {
    /// Fan out to `observers`.
    #[must_use]
    pub fn new(observers: Vec<Box<dyn Observer>>) -> Self {
        FanoutObserver(observers)
    }
}

impl Observer for FanoutObserver {
    fn on_event(&mut self, event: ObsEvent) {
        for obs in &mut self.0 {
            obs.on_event(event);
        }
    }
}

/// Whether `IPA_BENCH_SMOKE` is set: harnesses that honour it shrink their
/// workloads to seconds-long CI runs that still exercise the full pipeline
/// (build, load, run, report JSON) — shapes, not magnitudes.
#[expect(clippy::disallowed_methods, reason = "the harness is where environment settings enter")]
pub fn smoke() -> bool {
    std::env::var("IPA_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Standard seed for all harnesses (deterministic runs).
pub const SEED: u64 = 0x1DA5EED;

/// Run one configured workload end to end: build, load, warm up, measure.
/// Returns the report and the database (for profile inspection). When the
/// process-wide `--trace` sink is enabled ([`init_trace`]) it observes the
/// warm-up and measured phases with command lifecycle tracing on.
pub fn run_workload(
    cfg: &SystemConfig,
    w: &mut dyn Workload,
    warmup: u64,
    measured: u64,
) -> (RunReport, Database) {
    let mut db = cfg.build_for(w).expect("database builds");
    let mut runner = Runner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    runner.setup(&mut db, w).expect("workload loads");
    let traced = attach_trace(&mut db);
    let report = runner.run(&mut db, w, warmup, measured).expect("workload runs");
    if traced {
        db.detach_observer();
        db.ftl_mut().set_cmd_tracing(false);
    }
    (report, db)
}

/// Baseline + IPA pair runner: same workload factory, two schemes.
pub fn run_pair<W: Workload>(
    mk: impl Fn() -> W,
    base_cfg: &SystemConfig,
    ipa_cfg: &SystemConfig,
    warmup: u64,
    measured: u64,
) -> ((RunReport, Database), (RunReport, Database)) {
    let mut base_w = mk();
    let mut ipa_w = mk();
    (
        run_workload(base_cfg, &mut base_w, warmup, measured),
        run_workload(ipa_cfg, &mut ipa_w, warmup, measured),
    )
}

/// Run one configured workload like [`run_workload`], with observability:
/// an optional trace [`Observer`] is attached for the duration of the run
/// and a metrics time series is sampled every `sample_every` measured
/// transactions (plus the zero point and the final state). Returns the
/// report, the database and the `timeseries` JSON array — the final
/// cumulative point equals the end-of-run counters exactly.
pub fn run_workload_observed(
    cfg: &SystemConfig,
    w: &mut dyn Workload,
    warmup: u64,
    measured: u64,
    observer: Option<Box<dyn Observer>>,
    sample_every: u64,
) -> (RunReport, Database, serde_json::Value) {
    let mut db = cfg.build_for(w).expect("database builds");
    let mut runner = Runner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    runner.setup(&mut db, w).expect("workload loads");
    let observer = observer.or_else(|| trace_sink().map(|s| s.observer()));
    if let Some(obs) = observer {
        db.ftl_mut().set_cmd_tracing(true);
        db.attach_observer(obs);
    }
    let every = sample_every.max(1);
    let mut registry = MetricsRegistry::new();
    let report = runner
        .run_with(&mut db, w, warmup, measured, &mut |db, n| {
            if n % every == 0 || n == measured {
                registry.sample(n, Snapshot::capture(db));
            }
        })
        .expect("workload runs");
    db.detach_observer();
    db.ftl_mut().set_cmd_tracing(false);
    (report, db, registry.to_json())
}

/// Relative change in percent (negative = reduction), the paper's
/// `Relative [%]` columns.
pub fn rel(base: f64, with: f64) -> f64 {
    RunReport::relative(base, with)
}

/// Format helpers.
pub mod fmt {
    /// Format a float with 2 decimals.
    pub fn f2(x: f64) -> String {
        format!("{x:.2}")
    }

    /// Format a float with 4 decimals.
    pub fn f4(x: f64) -> String {
        format!("{x:.4}")
    }

    /// Format a signed percentage with one decimal.
    pub fn pct(x: f64) -> String {
        format!("{x:+.1}%")
    }

    /// Format an `oop/ipa` split like the paper's first table row.
    pub fn split(oop: f64, ipa: f64) -> String {
        format!("{:.0}/{:.0}", oop, ipa)
    }
}

/// The standard per-experiment header.
pub fn banner(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!("reproduces: {paper_ref}");
    println!("(absolute values are simulation-scaled; compare shapes, not magnitudes)\n");
}

/// Scheme shorthand used across harnesses.
pub fn scheme_name(s: &NxM) -> String {
    if s.is_enabled() {
        format!("[{}x{}]", s.n, s.m)
    } else {
        "[0x0]".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reexport_works() {
        // Table now lives in ipa-obs; the re-export keeps harness code terse.
        let mut t = Table::new(&["metric", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        assert_eq!(t.rows().len(), 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt::f2(1.234), "1.23");
        assert_eq!(fmt::pct(-12.34), "-12.3%");
        assert_eq!(fmt::split(33.3, 66.7), "33/67");
        assert_eq!(scheme_name(&NxM::tpcc()), "[2x3]");
        assert_eq!(scheme_name(&NxM::disabled()), "[0x0]");
    }

    #[test]
    fn rel_direction() {
        assert!(rel(100.0, 50.0) < 0.0);
        assert!(rel(100.0, 150.0) > 0.0);
    }
}
