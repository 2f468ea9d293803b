//! Table 7 — TPC-B on the flash emulator: buffers 10% and 20%, schemes
//! `[2×4]` and `[3×4]` relative to `[0×0]`.
//!
//! The result JSON embeds a coarsely sampled metrics time series per run
//! (the final cumulative point of each run equals the end-of-run counters
//! behind the table). Pass `--trace` to additionally stream every
//! flash/engine event to `bench-results/table7_tpcb_emulator.trace.jsonl`;
//! the JSON is the same either way.

use ipa_bench::{
    banner, finish_trace, fmt, init_trace, rel, run_workload_observed, scale, ExperimentReport,
    Table,
};
use ipa_core::NxM;
use ipa_workloads::{RunReport, SystemConfig, TpcB};

// Paper Table 7 relative values: rows x (2x4@10, 3x4@10, 2x4@20, 3x4@20).
const PAPER: [(&str, [f64; 4]); 7] = [
    ("GC page migrations", [-48.0, -58.0, -42.0, -52.0]),
    ("GC erases", [-55.0, -64.0, -51.0, -59.0]),
    ("migrations / host write", [-61.0, -70.0, -56.0, -67.0]),
    ("erases / host write", [-66.0, -75.0, -63.0, -71.0]),
    ("READ I/O response [ms]", [-46.0, -52.0, -41.0, -50.0]),
    ("WRITE I/O response [ms]", [-34.0, -40.0, -30.0, -41.0]),
    ("transactional throughput", [31.0, 41.0, 34.0, 42.0]),
];

fn metrics(r: &RunReport) -> [f64; 7] {
    [
        r.region.gc_page_migrations as f64,
        r.region.gc_erases as f64,
        r.region.migrations_per_host_write(),
        r.region.erases_per_host_write(),
        r.read_ms,
        r.write_ms,
        r.tps,
    ]
}

fn main() {
    banner(
        "Table 7 — TPC-B on the flash emulator: [0x0] vs [2x4] and [3x4]",
        "paper Table 7 (buffers 10% / 20%)",
    );
    init_trace("table7_tpcb_emulator");
    let s = scale();
    let txns = 12_000 * s;

    let mut report = ExperimentReport::new("table7_tpcb_emulator");
    let mut json = Vec::new();
    let mut series = Vec::new();
    for (bi, buffer) in [0.10, 0.20].into_iter().enumerate() {
        println!("\n--- buffer {:.0}% ---", buffer * 100.0);
        let mut run = |scheme: NxM, label: &str| {
            let cfg = SystemConfig::emulator(scheme, buffer);
            let mut w = TpcB::new(8, 8_000 * s);
            // The zero point plus four samples per run: the JSON is committed.
            let (r, _, points) = run_workload_observed(&cfg, &mut w, txns / 5, txns, txns / 4);
            series.push(serde_json::json!({
                "run": label, "buffer": buffer, "points": points,
            }));
            r
        };
        let base = run(NxM::disabled(), "0x0");
        let two = run(NxM::tpcb(), "2x4");
        let three = run(NxM::new(3, 4, 12), "3x4");
        let (b, t2, t3) = (metrics(&base), metrics(&two), metrics(&three));

        let (o2, i2) = two.oop_vs_ipa();
        let (o3, i3) = three.oop_vs_ipa();
        println!(
            "OoP/IPA: [2x4] {} (paper 33/67 resp. 35/65), [3x4] {} (paper 24/76 resp. 25/75)",
            fmt::split(o2, i2),
            fmt::split(o3, i3)
        );

        let mut t = Table::new(&["metric", "[0x0] abs", "[2x4] rel (paper)", "[3x4] rel (paper)"]);
        for i in 0..7 {
            let (name, p) = PAPER[i];
            let r2 = rel(b[i], t2[i]);
            let r3 = rel(b[i], t3[i]);
            t.row(vec![
                name.to_string(),
                fmt::f4(b[i]),
                format!("{} ({:+.0}%)", fmt::pct(r2), p[bi * 2]),
                format!("{} ({:+.0}%)", fmt::pct(r3), p[bi * 2 + 1]),
            ]);
            json.push(serde_json::json!({
                "buffer": buffer, "metric": name, "baseline": b[i],
                "rel_2x4_pct": r2, "rel_3x4_pct": r3,
            }));
        }
        report.print_table(&t);
    }
    println!("\npaper shape: GC work and I/O latencies fall sharply, throughput rises;");
    println!("[3x4] beats [2x4] on every GC metric.");
    report.set_payload(serde_json::Value::Array(json));
    for run_series in series {
        report.push_timeseries(run_series);
    }
    report.save();
    finish_trace();
}
