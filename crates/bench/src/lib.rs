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
pub fn init_trace(bin: &str) {
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
    let _ = TRACE.set(sink);
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

/// Standard seed for all harnesses (deterministic runs).
pub const SEED: u64 = 0x1DA5EED;

/// Build, load, warm up and measure one configured workload; `tick` runs at
/// the zero point and after every measured transaction. When the
/// process-wide `--trace` sink is enabled ([`init_trace`]) it observes the
/// warm-up and measured phases with command lifecycle tracing on.
fn drive(
    cfg: &SystemConfig,
    w: &mut dyn Workload,
    warmup: u64,
    measured: u64,
    tick: &mut dyn FnMut(&mut Database, u64),
) -> (RunReport, Database) {
    let mut db = cfg.build_for(w).expect("database builds");
    let mut runner = Runner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    runner.setup(&mut db, w).expect("workload loads");
    let traced = attach_trace(&mut db);
    let report = runner.run_with(&mut db, w, warmup, measured, tick).expect("workload runs");
    if traced {
        db.detach_observer();
        db.ftl_mut().set_cmd_tracing(false);
    }
    (report, db)
}

/// Run one configured workload end to end: build, load, warm up, measure.
/// Returns the report and the database (for profile inspection).
pub fn run_workload(
    cfg: &SystemConfig,
    w: &mut dyn Workload,
    warmup: u64,
    measured: u64,
) -> (RunReport, Database) {
    drive(cfg, w, warmup, measured, &mut |_, _| {})
}

/// Run one configured workload like [`run_workload`] and sample a metrics
/// time series every `sample_every` measured transactions (plus the zero
/// point and the final state). Returns the report, the database and the
/// `timeseries` JSON array — the final cumulative point equals the
/// end-of-run counters exactly.
pub fn run_workload_observed(
    cfg: &SystemConfig,
    w: &mut dyn Workload,
    warmup: u64,
    measured: u64,
    sample_every: u64,
) -> (RunReport, Database, serde_json::Value) {
    let every = sample_every.max(1);
    let mut registry = MetricsRegistry::new();
    let (report, db) = drive(cfg, w, warmup, measured, &mut |db, n| {
        if n % every == 0 || n == measured {
            registry.sample(n, Snapshot::capture(db));
        }
    });
    (report, db, registry.to_json())
}

/// What Tables 6 and 8 differ in: the workload and the paper's numbers.
pub struct OpenSsdTable<'a> {
    /// Binary and result-file name.
    pub name: &'a str,
    /// Banner title.
    pub title: &'a str,
    /// The paper table reproduced.
    pub paper_ref: &'a str,
    /// The IPA scheme compared against `[0×0]`.
    pub scheme: NxM,
    /// Paper's relative numbers `(pSLC %, odd-MLC %)` for GC page
    /// migrations, GC erases, migrations and erases per host write, and
    /// throughput.
    pub paper_rel: [(f64, f64); 5],
    /// Paper's OoP/IPA split in pSLC and odd-MLC mode.
    pub paper_split: (&'a str, &'a str),
    /// Two closing lines naming the shape to look for.
    pub paper_shape: [&'a str; 2],
}

/// Tables 6 and 8: one workload on the OpenSSD profile (Appendix D: MLC
/// flash, host parallelism of one, 1.5% buffer), `[0×0]` against the
/// table's scheme in pSLC and odd-MLC modes. `run` measures one
/// configuration.
pub fn openssd_table(table: &OpenSsdTable<'_>, run: impl Fn(&SystemConfig) -> RunReport) {
    init_trace(table.name);
    banner(table.title, table.paper_ref);
    let base = run(&SystemConfig::openssd(NxM::disabled(), false));
    let pslc = run(&SystemConfig::openssd(table.scheme, true));
    let odd = run(&SystemConfig::openssd(table.scheme, false));

    let metric = |r: &RunReport| {
        [
            ("GC page migrations", r.region.gc_page_migrations as f64),
            ("GC erases", r.region.gc_erases as f64),
            ("migrations / host write", r.region.migrations_per_host_write()),
            ("erases / host write", r.region.erases_per_host_write()),
            ("transactional throughput", r.tps),
        ]
    };
    let (b, p, o) = (metric(&base), metric(&pslc), metric(&odd));

    let (oopp, ipap) = pslc.oop_vs_ipa();
    let (oopo, ipao) = odd.oop_vs_ipa();
    println!(
        "OoP/IPA split: pSLC {} (paper {}), odd-MLC {} (paper {})\n",
        fmt::split(oopp, ipap),
        table.paper_split.0,
        fmt::split(oopo, ipao),
        table.paper_split.1
    );

    let mut t = Table::new(&["metric", "[0x0] abs", "pSLC rel (paper)", "odd-MLC rel (paper)"]);
    let mut json = Vec::new();
    for i in 0..5 {
        let (name, base) = b[i];
        let (ppaper, opaper) = table.paper_rel[i];
        let prel = rel(base, p[i].1);
        let orel = rel(base, o[i].1);
        t.row(vec![
            name.to_string(),
            if i < 2 { format!("{base:.0}") } else { fmt::f4(base) },
            format!("{} ({:+.0}%)", fmt::pct(prel), ppaper),
            format!("{} ({:+.0}%)", fmt::pct(orel), opaper),
        ]);
        json.push(serde_json::json!({
            "metric": name, "baseline": base, "pslc_rel_pct": prel, "oddmlc_rel_pct": orel,
        }));
    }
    let mut out = ExperimentReport::new(table.name);
    out.print_table(&t);
    println!("\npaper shape: {}\n{}", table.paper_shape[0], table.paper_shape[1]);
    out.set_payload(serde_json::Value::Array(json));
    out.save();
    finish_trace();
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
