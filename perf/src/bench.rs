//! One invocation for one workload: the untraced run, and with `--trace`
//! the traced run, the observed run and the layer replays.

use std::time::Instant;

use ipa_core::PageLayout;
use ipa_obs::JsonlSink;

use crate::record::SpanLog;
use crate::replay::{self, CoreCounts};
use crate::report::{self, TracedRuns};
use crate::run::{self, Mode, Outcome, RunParams};
use crate::spec::{MetricSpec, WorkloadSpec, END_TO_END, PER_LAYER, SETUP_REPEATS};
use crate::yardstick::Yardstick;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// Workload row.
    pub spec: &'static WorkloadSpec,
    /// Seed.
    pub seed: u64,
    /// Window length the transaction count is scaled to.
    pub seconds: u64,
    /// Smoke scale.
    pub smoke: bool,
    /// Also produce the per-layer metrics.
    pub trace: bool,
    /// Test hook, see [`RunParams::inject_imbalance`].
    pub inject_imbalance: bool,
}

/// What an invocation produced.
#[derive(Debug)]
pub struct Invoked {
    /// The untraced run.
    pub plain: Outcome,
    /// End-to-end metrics in table order.
    pub end_to_end: Vec<(MetricSpec, f64)>,
    /// Per-layer metrics in table order (`--trace`).
    pub per_layer: Option<Vec<(MetricSpec, f64)>>,
    /// Spans of the traced run (`--trace`).
    pub spans: Option<SpanLog>,
}

/// Host ns per event of the JSONL sink over recorded events.
fn jsonl_ns_per_event(sample: &[ipa_flash::ObsEvent]) -> Result<f64, String> {
    if sample.is_empty() {
        return Ok(0.0);
    }
    let sink = JsonlSink::writer(Box::new(std::io::sink()));
    let mut observer = sink.observer();
    let t = Instant::now();
    for event in sample {
        observer.on_event(*event);
    }
    sink.finish().map_err(|e| format!("jsonl sink: {e}"))?;
    Ok(t.elapsed().as_nanos() as f64 / sample.len() as f64)
}

/// Run the workload as asked.
pub fn invoke(inv: &Invocation) -> Result<Invoked, String> {
    let measured = inv.spec.measured_txns(inv.seconds, inv.smoke);
    let params = RunParams {
        spec: inv.spec,
        seed: inv.seed,
        measured,
        warmup: inv.spec.warmup_txns(measured),
        mode: Mode::Plain,
        inject_imbalance: inv.inject_imbalance,
    };
    let fail = |e: ipa_engine::EngineError| format!("{}: {e}", inv.spec.name);

    // `setup_s` is the median of several set-ups; the traced invocation
    // does not report it and sets up once per run.
    let mut extra_setups = Vec::new();
    if !inv.trace {
        for _ in 1..SETUP_REPEATS {
            extra_setups.push(run::setup_only(&params).map_err(fail)?.total_s());
        }
    }
    let plain = run::run(params).map_err(fail)?;
    let values = report::end_to_end(&plain, &extra_setups, run::peak_rss_mb());
    let end_to_end = report::in_table_order(&END_TO_END, &values);
    if !inv.trace {
        return Ok(Invoked { plain, end_to_end, per_layer: None, spans: None });
    }

    let mut traced = run::run(RunParams { mode: Mode::Traced, ..params }).map_err(fail)?;
    let observed = run::run(RunParams { mode: Mode::Observed, ..params }).map_err(fail)?;
    for (what, other) in [("recorder", &traced), ("counting observer", &observed)] {
        if other.region != plain.region || other.engine.commits != plain.engine.commits {
            return Err(format!("{}: attaching the {what} changed the run", inv.spec.name));
        }
    }

    let tape = traced.tape.take().ok_or("traced run kept no tape")?;
    let page_size = plain.ftl_config.flash.geometry.page_size;
    let layout = PageLayout::new(page_size, inv.spec.nxm()).map_err(|e| e.to_string())?;
    let mut yard = Yardstick::default();
    let config = &plain.ftl_config;
    let noftl = replay::noftl_replay(&tape, config, layout, &plain.region, &mut yard)?;
    let flash = replay::flash_replay(&tape, config, layout, &plain.flash, &mut yard)?;
    let e = &plain.engine;
    let bookkeeping = 2 * (e.commits + e.aborts + e.checkpoints);
    let core = replay::core_replay(
        layout,
        CoreCounts {
            update_bytes_p50: plain.update_bytes.0,
            tracked_ops: plain.wal_records.saturating_sub(bookkeeping),
            flushes: e.ipa_flushes + e.oop_flushes,
            delta_records: e.delta_records_written,
            fetches: plain.region.host_reads,
        },
        &mut yard,
    )?;
    let jsonl_ns_per_event = jsonl_ns_per_event(&tape.sample)?;
    traced.tape = Some(tape);

    let values = report::per_layer(&TracedRuns {
        plain: &plain,
        traced: &traced,
        observed: &observed,
        flash: &flash,
        noftl: &noftl,
        core: &core,
        jsonl_ns_per_event,
    });
    let per_layer = report::in_table_order(&PER_LAYER, &values);
    Ok(Invoked { plain, end_to_end, per_layer: Some(per_layer), spans: traced.spans.take() })
}
