//! Online adaptive IPA under a phase-shifting workload.
//!
//! The update-size distribution rotates between a small-update phase
//! (3-byte numeric patches, TPC-C-like) and a wide-update phase (32-byte
//! payload rewrites, LinkBench-like). Four arms run the identical
//! transaction sequence:
//!
//! * **static** — one fixed `[N×M]` scheme for the whole run, for each of
//!   the `[0×0]` baseline and the advisor's per-phase recommendations;
//! * **adaptive** — live eviction profiling + background re-tune epochs:
//!   the engine re-runs the advisor over each epoch's update-size profile
//!   and versions the region's scheme when the predicted gain clears the
//!   hysteresis bar (old-scheme pages stay readable, move verbatim when GC
//!   migrates them, and upgrade for free on their next out-of-place
//!   flush);
//! * **oracle** — each phase run under the scheme the advisor picks with
//!   perfect knowledge of that phase's distribution: the upper bound the
//!   adaptive engine is chasing.
//!
//! The headline metric is the IPA hit rate (fraction of dirty-page
//! flushes served as in-place appends). Claim under test: the adaptive
//! engine beats every static scheme and lands within 85% of the oracle.

use ipa_bench::{
    banner, finish_trace, init_trace, run_workload, scale, scheme_name, ExperimentReport, Table,
};
use ipa_core::{AdvisorGoal, IpaAdvisor, NxM};
use ipa_workloads::{PhaseShift, SystemConfig};

/// Page size: small pages keep the delta-area budget (a quarter page)
/// tight enough that the small- and wide-phase recommendations differ.
const PAGE: usize = 1024;
/// Row size: leaves per-page slack so pages can adopt wider delta areas.
const ROW_BYTES: usize = 200;
/// Small-phase update footprint (bytes).
const SMALL: usize = 3;
/// Wide-phase update footprint (bytes).
const WIDE: usize = 32;
/// SLC append budget — the `max_n` the engine's own advisor sees.
const MAX_N: u16 = 8;
/// Background re-tune period on the simulated clock.
const EPOCH_NS: u64 = 5_000_000;
/// Profile samples required before an epoch evaluates the region: low
/// enough that a phase shift is detected within a fraction of a phase,
/// sharp-moded update sizes keep the percentiles stable anyway.
const MIN_OBSERVATIONS: u64 = 24;

fn config(scheme: NxM) -> SystemConfig {
    let mut cfg = SystemConfig::emulator(scheme, 0.10);
    cfg.page_size = PAGE;
    cfg.cpu_ns_per_txn = 50_000;
    cfg
}

struct Arm {
    name: String,
    ipa_fraction: f64,
    scheme_changes: u64,
    retune_epochs: u64,
    scheme_upgrades: u64,
    write_amplification: f64,
}

fn run_arm(name: &str, cfg: &SystemConfig, w: &mut PhaseShift, warmup: u64, measured: u64) -> Arm {
    let (report, _db) = run_workload(cfg, w, warmup, measured);
    Arm {
        name: name.to_string(),
        ipa_fraction: report.engine.ipa_flush_fraction(),
        scheme_changes: report.engine.scheme_changes,
        retune_epochs: report.engine.retune_epochs,
        scheme_upgrades: report.engine.scheme_upgrades,
        write_amplification: report.engine.write_amplification(),
    }
}

fn main() {
    init_trace("adaptive_ipa");
    banner(
        "Online adaptive IPA: live re-tuning vs static schemes vs oracle",
        "tentpole experiment — per-region [N×M] re-tuning from eviction profiles",
    );
    let s = scale();
    let (rows, phase_len, warmup) = (400, 600 * s, 200);
    // Two cycles of small → wide → small: four small phases, two wide.
    let sizes = vec![SMALL, WIDE, SMALL];
    let cycles = 2u64;
    let phases = cycles * sizes.len() as u64;
    let measured = phases * phase_len;

    // --- Per-phase advisor recommendations (profiling runs) ---
    // Profile each pure phase under the [0x0] baseline (byte-diff
    // tracking still feeds the profile), then ask the same advisor the
    // engine embeds. These become the static arms and the oracle schemes.
    let advisor = IpaAdvisor::new(PAGE, MAX_N);
    let per_phase_scheme = |bytes: usize| {
        let mut w = PhaseShift::constant(rows, bytes).with_row_bytes(ROW_BYTES);
        let (_, db) = run_workload(&config(NxM::disabled()), &mut w, 50, 400 * s);
        advisor.recommend(db.profile(0), AdvisorGoal::Longevity).scheme
    };
    let scheme_small = per_phase_scheme(SMALL);
    let scheme_wide = per_phase_scheme(WIDE);
    println!(
        "advisor (longevity): {}-byte phase -> {}, {}-byte phase -> {}\n",
        SMALL,
        scheme_name(&scheme_small),
        WIDE,
        scheme_name(&scheme_wide),
    );

    // --- Static arms over the full phase-shifting sequence ---
    let shifting = || PhaseShift::new(rows, phase_len, sizes.clone()).with_row_bytes(ROW_BYTES);
    let mut arms = Vec::new();
    for (label, scheme) in [
        ("static [0x0]".to_string(), NxM::disabled()),
        (format!("static {} (small-tuned)", scheme_name(&scheme_small)), scheme_small),
        (format!("static {} (wide-tuned)", scheme_name(&scheme_wide)), scheme_wide),
    ] {
        arms.push(run_arm(&label, &config(scheme), &mut shifting(), warmup, measured));
    }

    // --- Adaptive arm ---
    // Starts from [5x3] v=12: a mid-sized scheme whose 230-byte delta
    // area upper-bounds most recommendations, so packed pages can adopt
    // new schemes by relayout on their next out-of-place flush.
    let mut adaptive_cfg = config(NxM::new(5, 3, 12));
    adaptive_cfg.advisor_epoch_ns = EPOCH_NS;
    adaptive_cfg.advisor_min_observations = MIN_OBSERVATIONS;
    let adaptive = run_arm("adaptive", &adaptive_cfg, &mut shifting(), warmup, measured);

    // --- Per-phase oracle ---
    // Each phase runs alone under its tuned scheme; the hit rate of the
    // combined flush population bounds any online policy from above.
    let oracle_leg = |bytes: usize, scheme: NxM, txns: u64| {
        let mut w = PhaseShift::constant(rows, bytes).with_row_bytes(ROW_BYTES);
        let (report, _) = run_workload(&config(scheme), &mut w, warmup, txns);
        (report.engine.ipa_flushes, report.engine.oop_flushes)
    };
    let n_small = phase_len * cycles * 2; // two small phases per cycle
    let n_wide = phase_len * cycles;
    let (ipa_a, oop_a) = oracle_leg(SMALL, scheme_small, n_small);
    let (ipa_b, oop_b) = oracle_leg(WIDE, scheme_wide, n_wide);
    let oracle_fraction = (ipa_a + ipa_b) as f64 / (ipa_a + oop_a + ipa_b + oop_b).max(1) as f64;

    // --- Report ---
    let mut report = ExperimentReport::new("adaptive_ipa");
    let mut t = Table::new(&["arm", "IPA hit %", "scheme changes", "upgrades", "WA"]);
    for a in arms.iter().chain([&adaptive]) {
        t.row(vec![
            a.name.clone(),
            format!("{:.1}%", a.ipa_fraction * 100.0),
            a.scheme_changes.to_string(),
            a.scheme_upgrades.to_string(),
            format!("{:.2}", a.write_amplification),
        ]);
    }
    t.row(vec![
        "oracle (per-phase)".into(),
        format!("{:.1}%", oracle_fraction * 100.0),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    report.print_table(&t);
    let vs_oracle =
        if oracle_fraction > 0.0 { adaptive.ipa_fraction / oracle_fraction } else { 0.0 };
    println!(
        "\nadaptive reaches {:.1}% of the per-phase oracle ({} re-tune epochs, {} scheme changes)",
        vs_oracle * 100.0,
        adaptive.retune_epochs,
        adaptive.scheme_changes,
    );

    let arms_json: Vec<serde_json::Value> = arms
        .iter()
        .chain([&adaptive])
        .map(|a| {
            serde_json::json!({
                "name": a.name.clone(),
                "ipa_fraction": a.ipa_fraction,
                "scheme_changes": a.scheme_changes,
                "retune_epochs": a.retune_epochs,
                "scheme_upgrades": a.scheme_upgrades,
                "write_amplification": a.write_amplification,
            })
        })
        .collect();
    let best_static = arms.iter().map(|a| a.ipa_fraction).fold(0.0f64, f64::max);
    let mut json = serde_json::Map::new();
    json.insert("arms".into(), serde_json::Value::from(arms_json));
    json.insert("oracle_fraction".into(), oracle_fraction.into());
    json.insert("adaptive_fraction".into(), adaptive.ipa_fraction.into());
    json.insert("best_static_fraction".into(), best_static.into());
    json.insert("adaptive_vs_oracle".into(), vs_oracle.into());
    json.insert("adaptive_scheme_changes".into(), adaptive.scheme_changes.into());
    json.insert(
        "static_scheme_changes".into(),
        arms.iter().map(|a| a.scheme_changes).sum::<u64>().into(),
    );
    report.set_payload(serde_json::Value::Object(json));
    report.save();
    finish_trace();

    // --- Acceptance ---
    for a in &arms {
        assert!(
            adaptive.ipa_fraction > a.ipa_fraction,
            "adaptive ({:.3}) must beat {} ({:.3})",
            adaptive.ipa_fraction,
            a.name,
            a.ipa_fraction,
        );
    }
    assert!(
        adaptive.ipa_fraction >= 0.85 * oracle_fraction,
        "adaptive ({:.3}) must reach 85% of the oracle ({:.3})",
        adaptive.ipa_fraction,
        oracle_fraction,
    );
    assert!(adaptive.scheme_changes >= 2, "phase shifts must drive re-tuning");
    assert!(arms.iter().all(|a| a.scheme_changes == 0), "static arms must never change scheme",);
    println!("\nall adaptive-IPA acceptance checks passed");
}
