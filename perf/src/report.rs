//! Metrics from run outcomes, and their text and JSON forms.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::replay::{CoreReplay, FlashReplay, NoftlReplay};
use crate::run::Outcome;
use crate::spec::{Clock, MetricSpec, END_TO_END, PER_LAYER};
use crate::yardstick::Elapsed;

/// Change of an unbounded (per-layer) host metric that `--check-against`
/// points out.
pub const NOTABLE_MOVE: f64 = 0.10;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The end-to-end metrics of an untraced run. `setup_s` is the median of
/// the run's own set-up and the extra set-up-only repetitions.
pub fn end_to_end(o: &Outcome, extra_setups_s: &[f64], peak_rss_mb: f64) -> Values {
    let page = o.ftl_config.flash.geometry.page_size as f64;
    let programmed =
        (o.flash.host_programs + o.flash.gc_programs) as f64 * page + o.flash.delta_bytes as f64;
    let commits = o.engine.commits as f64;
    let mut setups = extra_setups_s.to_vec();
    setups.push(o.setup.total_s());
    let us = |p: f64| percentile(&o.sim_latency_ns, p) as f64 / 1e3;
    Values::from([
        ("host_txn_per_s", o.host_txn_per_s()),
        ("setup_s", median(setups)),
        ("host_peak_rss_mb", peak_rss_mb),
        ("sim_tps", ratio(commits * 1e9, o.window_sim_ns as f64)),
        ("sim_txn_p50_us", us(0.50)),
        ("sim_txn_p99_us", us(0.99)),
        ("sim_txn_p999_us", us(0.999)),
        ("write_amp", ratio(programmed, o.engine.net_changed_bytes as f64)),
        ("erases_per_ktxn", ratio(o.flash.erases as f64 * 1e3, commits)),
    ])
}

/// Everything the traced invocation produced.
#[derive(Debug)]
pub struct TracedRuns<'a> {
    /// The untraced run the overheads are measured against.
    pub plain: &'a Outcome,
    /// The run with recorder and spans.
    pub traced: &'a Outcome,
    /// The run with a counting observer and command tracing.
    pub observed: &'a Outcome,
    /// `flash_replay` of the traced run's tape.
    pub flash: &'a FlashReplay,
    /// `noftl_replay` of the traced run's tape.
    pub noftl: &'a NoftlReplay,
    /// `core_replay` at the run's sizes.
    pub core: &'a CoreReplay,
    /// Host ns per event of `JsonlSink` over the recorded sample.
    pub jsonl_ns_per_event: f64,
}

/// The per-layer metrics. Counts and simulated values are the untraced
/// run's stats over the window; host values come from the traced run, the
/// observed run and the replays.
pub fn per_layer(r: &TracedRuns<'_>) -> Values {
    let o = r.plain;
    let (f, g, e) = (&o.flash, &o.region, &o.engine);
    let commits = e.commits as f64;
    let physical = o.sizes.physical_pages as f64;
    let noftl_self_s = (r.noftl.total_s() - r.flash.total_s()).max(0.0);
    let step_name = if o.pool.is_some() { "step" } else { "transaction" };
    let txn_ns = r.traced.spans.as_ref().map(|s| s.txn_durations_ns(step_name)).unwrap_or_default();
    let pool = o.pool.as_ref();
    Values::from([
        ("flash.host_reads", f.host_reads as f64),
        ("flash.host_programs", f.host_programs as f64),
        ("flash.host_delta_programs", f.host_delta_programs as f64),
        ("flash.gc_programs", f.gc_programs as f64),
        ("flash.erases", f.erases as f64),
        ("flash.sim_read_ms_mean", f.read_latency.mean_ns() as f64 / 1e6),
        ("flash.sim_write_ms_mean", f.write_latency.mean_ns() as f64 / 1e6),
        ("flash.sim_queue_wait_frac", ratio(f.queue_wait_ns_total as f64, o.window_sim_ns as f64)),
        ("flash.ispp_violations", f.ispp_violations as f64),
        ("flash.program_failures", f.program_failures as f64),
        ("flash.read_host_ns", r.flash.read.mean_ns()),
        ("flash.program_host_ns", r.flash.program.mean_ns()),
        ("flash.program_delta_host_ns", r.flash.program_partial.mean_ns()),
        ("flash.erase_host_ns", r.flash.erase.mean_ns()),
        ("flash.replay_host_s", r.flash.total_s()),
        ("noftl.host_reads", g.host_reads as f64),
        ("noftl.host_page_writes", g.host_page_writes as f64),
        ("noftl.host_delta_writes", g.host_delta_writes as f64),
        ("noftl.delta_bytes", g.delta_bytes as f64),
        ("noftl.ipa_fraction", g.ipa_fraction()),
        ("noftl.gc_page_migrations", g.gc_page_migrations as f64),
        ("noftl.gc_erases", g.gc_erases as f64),
        ("noftl.migrations_per_host_write", g.migrations_per_host_write()),
        ("noftl.erases_per_host_write", g.erases_per_host_write()),
        ("noftl.delta_fallbacks", g.delta_fallbacks as f64),
        ("noftl.program_retries", g.program_retries as f64),
        ("noftl.read_page_host_ns", r.noftl.read_page.mean_ns()),
        ("noftl.write_page_host_ns", r.noftl.write_page.mean_ns()),
        ("noftl.write_delta_host_ns", r.noftl.write_delta.mean_ns()),
        ("noftl.self_host_s", noftl_self_s),
        ("core.update_bytes_p50", f64::from(o.update_bytes.0)),
        ("core.update_bytes_p90", f64::from(o.update_bytes.1)),
        ("core.track_update_host_ns", r.core.track_update_ns),
        ("core.decide_host_ns", r.core.decide_ns),
        ("core.encode_host_ns", r.core.encode_ns),
        ("core.decode_apply_host_ns", r.core.decode_apply_ns),
        ("core.self_host_s", r.core.self_host_s),
        ("engine.txn_host_ns_p50", percentile(&txn_ns, 0.50) as f64),
        ("engine.txn_host_ns_p99", percentile(&txn_ns, 0.99) as f64),
        (
            "engine.background_host_frac",
            ratio(r.traced.background_ns as f64 / 1e9, r.traced.window.raw_s),
        ),
        ("engine.buffer_hit_rate", e.hit_ratio()),
        ("engine.evictions_per_txn", ratio(e.evictions as f64, commits)),
        ("engine.ipa_flushes", e.ipa_flushes as f64),
        ("engine.oop_flushes", e.oop_flushes as f64),
        ("engine.cleaner_flushes", e.cleaner_flushes as f64),
        ("engine.log_reclaims", e.log_reclaims as f64),
        (
            "engine.delta_records_per_ipa_flush",
            ratio(e.delta_records_written as f64, e.ipa_flushes as f64),
        ),
        ("engine.gross_bytes_per_net_byte", e.write_amplification()),
        ("engine.wal_forces_per_commit", ratio(e.wal_forces as f64, commits)),
        ("engine.group_commits", e.group_commits as f64),
        ("engine.lock_waits", e.lock_waits as f64),
        ("engine.restarts", pool.map_or(0.0, |p| p.restarts as f64)),
        ("engine.deadlock_aborts", e.deadlock_aborts as f64),
        ("engine.flush_all_host_ms", o.setup.flush_all.scaled_s * 1e3),
        ("engine.recover_sim_ms", o.recover.recovery_ns as f64 / 1e6),
        ("engine.recover_host_ms", o.recover_host.scaled_s * 1e3),
        ("engine.analysis_records", o.recover.analysis_records as f64),
        ("engine.redo_applied", o.recover.redo_applied as f64),
        (
            "engine.self_host_s",
            (o.window.scaled_s - r.noftl.total_s() - r.core.self_host_s).max(0.0),
        ),
        ("workloads.pool_steps_per_commit", pool.map_or(0.0, |p| ratio(p.steps as f64, commits))),
        (
            "obs.events_per_txn",
            ratio(r.traced.tape.as_ref().map_or(0.0, |t| t.window_events as f64), commits),
        ),
        (
            "obs.observer_overhead_frac",
            1.0 - ratio(r.observed.host_txn_per_s(), o.host_txn_per_s()),
        ),
        ("obs.snapshot_capture_host_us", o.snapshot_capture_us),
        ("obs.jsonl_host_ns_per_event", r.jsonl_ns_per_event),
        ("harness.n_txn", o.sim_latency_ns.len() as f64),
        ("harness.oncpu_frac", o.oncpu_frac),
        ("harness.trace_overhead_frac", 1.0 - ratio(r.traced.host_txn_per_s(), o.host_txn_per_s())),
        ("harness.failed_frac", o.failed_frac()),
        ("harness.capacity_overwrites", ratio((f.host_programs + f.gc_programs) as f64, physical)),
        ("harness.op_effective_start", o.sizes.op_effective_start),
        ("harness.op_effective_end", o.sizes.op_effective_end),
        ("harness.host_txn_per_s_raw", ratio(commits, o.window.raw_s)),
        ("harness.speed_factor", ratio(o.window.raw_s, o.window.scaled_s)),
    ])
}

/// `values` in the order of `table`. Panics when a declared metric has no
/// value or a value is not finite: both are harness bugs, caught by the
/// schema test.
pub fn in_table_order(table: &[MetricSpec], values: &Values) -> Vec<(MetricSpec, f64)> {
    assert_eq!(table.len(), values.len(), "emitted metrics differ from the declared table");
    table
        .iter()
        .map(|m| {
            let v = *values.get(m.name).unwrap_or_else(|| panic!("metric {} not computed", m.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            (*m, v)
        })
        .collect()
}

/// `workload metric value unit` lines.
pub fn print_lines(workload: &str, metrics: &[(MetricSpec, f64)]) {
    for (m, v) in metrics {
        println!("{workload} {} {v} {}", m.name, m.unit);
    }
}

/// The driver contract's last line: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(o: &Outcome, metrics: &[(MetricSpec, f64)]) -> Value {
    let metrics: Map<String, Value> = metrics
        .iter()
        .map(|(m, v)| (m.name.to_string(), json!({"value": *v, "unit": m.unit})))
        .collect();
    json!({
        "correct": o.failed_checks() == 0 && o.failed_txns == 0,
        "attempted": o.attempted,
        "failed": o.failed_txns + o.failed_checks(),
        "metrics": metrics,
    })
}

/// The per-workload document written under `--out`. `simulated` holds
/// every value that is a property of code and seed; two runs of one commit
/// render it byte for byte the same.
pub fn document(
    o: &Outcome,
    seconds: u64,
    smoke: bool,
    e2e: &[(MetricSpec, f64)],
    layers: Option<&[(MetricSpec, f64)]>,
) -> Value {
    let mut simulated = Map::new();
    let mut host = Map::new();
    for (m, v) in e2e.iter().chain(layers.unwrap_or(&[])) {
        let section = if m.clock == Clock::Sim { &mut simulated } else { &mut host };
        section.insert(m.name.to_string(), json!({"value": *v, "unit": m.unit}));
    }
    simulated.insert("failed_frac".into(), json!({"value": o.failed_frac(), "unit": "ratio"}));
    let s = &o.sizes;
    let t = &o.setup;
    let phase = |e: Elapsed| json!({"wall": e.raw_s, "scaled": e.scaled_s});
    json!({
        "benchmark": "ipa-perf",
        "workload": o.params.spec.name,
        "why": o.params.spec.why,
        "seed": o.params.seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": layers.is_some(),
        "measured_txns": o.params.measured,
        "warmup_txns": o.params.warmup,
        "clients": o.params.spec.clients,
        "nproc": std::thread::available_parallelism().map_or(0, usize::from),
        "noisy": o.oncpu_frac < 0.9,
        "sizes": {
            "database_pages": s.database_pages,
            "buffer_frames": s.buffer_frames,
            "device_blocks": s.device_blocks,
            "physical_pages": s.physical_pages,
            "logical_pages": s.logical_pages,
            "growth_override": s.growth,
            "op_effective_start": s.op_effective_start,
            "op_effective_end": s.op_effective_end,
        },
        "phases_host_s": {
            "load": phase(t.load),
            "flush_all": phase(t.flush_all),
            "warmup": phase(t.warmup),
            "window": phase(o.window),
            "recover": phase(o.recover_host),
        },
        "simulated": simulated,
        "host": host,
        "checks": o.checks.iter().map(|c| json!({
            "name": c.name,
            "ok": c.ok,
            "detail": c.detail.as_str(),
        })).collect::<Vec<_>>(),
    })
}

/// Compare a new document with a previous one of the same seed. Simulated
/// values must be equal; an end-to-end host value may be worse by at most
/// its bound. Per-layer host values have no bound: a move beyond
/// [`NOTABLE_MOVE`] is listed and does not fail. Returns the report lines
/// and whether all held.
pub fn check_against(new: &Value, old: &Value) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let value = |doc: &Value, section: &str, name: &str| doc[section][name]["value"].as_f64();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let section = if m.clock == Clock::Sim { "simulated" } else { "host" };
        let (Some(a), Some(b)) = (value(new, section, m.name), value(old, section, m.name)) else {
            continue;
        };
        let shown = format!("{} {b} -> {a} {}", m.name, m.unit);
        if m.clock == Clock::Sim {
            if a != b {
                ok = false;
                lines.push(format!("DRIFT {shown} (simulated: must be equal)"));
            }
            continue;
        }
        let worse = if m.higher_is_better { ratio(b - a, b) } else { ratio(a - b, b) };
        match m.bound {
            Some(bound) if worse > bound => {
                ok = false;
                lines.push(format!(
                    "WORSE {shown} ({:+.1} %, bound {:.0} %)",
                    worse * 100.0,
                    bound * 100.0
                ));
            }
            Some(_) => lines.push(format!("ok    {shown} ({:+.1} %)", worse * 100.0)),
            None if worse.abs() > NOTABLE_MOVE => {
                let way = if worse > 0.0 { "worse" } else { "better" };
                lines.push(format!("moved {shown} ({:.1} % {way}, no bound)", worse.abs() * 100.0));
            }
            None => {}
        }
    }
    let (a, b) = (value(new, "simulated", "failed_frac"), value(old, "simulated", "failed_frac"));
    if a != b {
        ok = false;
        lines.push(format!("DRIFT failed_frac {b:?} -> {a:?}"));
    }
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[40, 10, 30, 20], 0.50), 20);
        assert_eq!(percentile(&[40, 10, 30, 20], 0.99), 40);
        assert_eq!(percentile(&[40, 10, 30, 20], 0.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    fn doc(tps: f64, host_rate: f64, setup_s: f64) -> Value {
        json!({
            "simulated": {
                "sim_tps": {"value": tps, "unit": "1/s"},
                "failed_frac": {"value": 0.0, "unit": "ratio"},
            },
            "host": {
                "host_txn_per_s": {"value": host_rate, "unit": "1/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
            },
        })
    }

    #[test]
    fn check_against_is_exact_on_simulated_and_bounded_on_host() {
        let old = doc(1000.0, 50_000.0, 3.0);
        // Equal simulated values, host values inside their bounds.
        let (_, ok) = check_against(&doc(1000.0, 44_000.0, 3.6), &old);
        assert!(ok);
        // Better by any amount passes.
        let (_, ok) = check_against(&doc(1000.0, 90_000.0, 1.0), &old);
        assert!(ok);
        // A simulated value that moved at all is drift.
        let (lines, ok) = check_against(&doc(1000.5, 50_000.0, 3.0), &old);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.starts_with("DRIFT sim_tps")), "{lines:?}");
        // Host values worse than their bound (20 %, 25 %) in their own direction.
        let (lines, ok) = check_against(&doc(1000.0, 39_000.0, 3.0), &old);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.starts_with("WORSE host_txn_per_s")), "{lines:?}");
        let (lines, ok) = check_against(&doc(1000.0, 50_000.0, 3.8), &old);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.starts_with("WORSE setup_s")), "{lines:?}");
    }
}
