//! Table 2 — IPA versus In-Page Logging on identical traces.
//!
//! Methodology as in §8.3: record an engine trace (page fetches + dirty
//! evictions with changed-byte counts) for TPC-B, TPC-C and TATP, then
//! replay *the same trace* through the IPL simulator, computing both
//! Appendix B formula sets. The runs use 8 KiB logical pages matching the
//! original IPL configuration (4 × 2 KiB physical pages, `ppl = 4`).

use ipa_bench::{
    attach_trace, banner, finish_trace, fmt, init_trace, scale, ExperimentReport, Table, SEED,
};
use ipa_core::NxM;
use ipa_ipl::{Amplification, IplConfig, IplSimulator};
use ipa_workloads::{Runner, SystemConfig, Tatp, TpcB, TpcC, Workload};

// Paper Table 2 values: (WA_IPA, WA_IPL, RA_IPA, RA_IPL, erases_IPA, erases_IPL).
const PAPER: [(&str, f64, f64, f64, f64, u64, u64); 3] = [
    ("TPC-B", 0.54, 1.43, 1.01, 2.54, 35_958, 137_962),
    ("TPC-C", 0.94, 1.22, 1.06, 2.20, 41_486, 58_294),
    ("TATP", 0.64, 1.01, 1.01, 2.07, 11_873, 30_155),
];

struct Row {
    name: &'static str,
    ipa: Amplification,
    ipl: Amplification,
    ipa_erases: u64,
    ipl_erases: u64,
}

fn run_one(name: &'static str, scheme: NxM, w: &mut dyn Workload, txns: u64) -> Row {
    let mut cfg = SystemConfig::emulator(scheme, 0.25);
    cfg.page_size = 8192;
    let mut db = cfg.build(w.estimated_pages(cfg.page_size)).expect("build");
    let mut runner = Runner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    runner.setup(&mut db, w).expect("setup");
    runner.run(&mut db, w, 0, txns / 5).expect("warmup");
    db.enable_tracing();
    let traced = attach_trace(&mut db);
    let report = runner.run(&mut db, w, 0, txns).expect("measured");
    if traced {
        db.detach_observer();
        db.ftl_mut().set_cmd_tracing(false);
    }
    let trace = db.take_trace();

    // IPL side: replay the identical trace.
    let mut ipl = IplSimulator::new(IplConfig::paper());
    ipl.replay(&trace);

    // IPA side: the Appendix B formulas over the actual run counters.
    let evictions = report.engine.ipa_flushes + report.engine.oop_flushes;
    let ipa = Amplification::ipa(
        report.region.host_delta_writes,
        report.region.host_page_writes,
        report.region.gc_page_migrations,
        evictions,
        report.region.host_reads,
        4,
    );
    Row {
        name,
        ipa,
        ipl: ipl.amplification(),
        ipa_erases: report.region.gc_erases,
        ipl_erases: ipl.stats().erases,
    }
}

fn main() {
    init_trace("table2_ipl_vs_ipa");
    banner(
        "Table 2 — comparison of IPA to IPL",
        "paper Table 2 + Appendix B formulas; same traces replayed through both models",
    );
    let s = scale();

    let mut tpcb = TpcB::new(4, 4_000 * s);
    let mut tpcc = TpcC::new(2, 4_000 * s, 300);
    let mut tatp = Tatp::new(15_000 * s);
    let rows = [
        run_one("TPC-B", NxM::tpcb(), &mut tpcb, 12_000 * s),
        run_one("TPC-C", NxM::tpcc(), &mut tpcc, 8_000 * s),
        run_one("TATP", NxM::tpcb(), &mut tatp, 15_000 * s),
    ];

    let mut t = Table::new(&[
        "workload",
        "WA IPA (paper)",
        "WA IPL (paper)",
        "RA IPA (paper)",
        "RA IPL (paper)",
        "erases IPA",
        "erases IPL",
        "IPA wins",
    ]);
    let mut json = serde_json::Map::new();
    for (row, paper) in rows.iter().zip(PAPER.iter()) {
        let wins = row.ipa.write < row.ipl.write
            && row.ipa.read < row.ipl.read
            && row.ipa_erases < row.ipl_erases;
        t.row(vec![
            row.name.to_string(),
            format!("{} ({})", fmt::f2(row.ipa.write), fmt::f2(paper.1)),
            format!("{} ({})", fmt::f2(row.ipl.write), fmt::f2(paper.2)),
            format!("{} ({})", fmt::f2(row.ipa.read), fmt::f2(paper.3)),
            format!("{} ({})", fmt::f2(row.ipl.read), fmt::f2(paper.4)),
            row.ipa_erases.to_string(),
            row.ipl_erases.to_string(),
            if wins { "yes" } else { "NO" }.to_string(),
        ]);
        json.insert(
            row.name.to_string(),
            serde_json::json!({
                "wa_ipa": row.ipa.write, "wa_ipl": row.ipl.write,
                "ra_ipa": row.ipa.read, "ra_ipl": row.ipl.read,
                "erases_ipa": row.ipa_erases, "erases_ipl": row.ipl_erases,
            }),
        );
    }
    let mut out = ExperimentReport::new("table2_ipl_vs_ipa");
    out.print_table(&t);
    println!("\npaper shape: IPA performs 51-60% fewer reads, 23-62% fewer writes,");
    println!("29-74% fewer erases than IPL across these workloads.");
    for row in &rows {
        println!(
            "  {}: reads {:+.0}%, writes {:+.0}%, erases {:+.0}% vs IPL",
            row.name,
            (row.ipa.read / row.ipl.read - 1.0) * 100.0,
            (row.ipa.write / row.ipl.write - 1.0) * 100.0,
            if row.ipl_erases == 0 {
                0.0
            } else {
                (row.ipa_erases as f64 / row.ipl_erases as f64 - 1.0) * 100.0
            },
        );
    }
    out.set_payload(serde_json::Value::Object(json));
    out.save();
    finish_trace();
}
