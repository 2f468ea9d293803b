//! §8.4 extension — IPA on a conventional hybrid-mapping SSD.
//!
//! The paper argues IPA is "especially true for SSDs that use hybrid
//! mapping schemes (like FASTer, where over-provisioning defines the log
//! area)": appends populate the log area more slowly, postponing the
//! expensive full merges. This harness records a TPC-C eviction trace from
//! the engine and replays it through the FAST-style [`HybridFtl`] with and
//! without an `[2×3]`-equivalent append rule, on identical hardware.

use ipa_bench::{
    attach_trace, banner, finish_trace, fmt, init_trace, scale, ExperimentReport, Table, SEED,
};
use ipa_core::NxM;
use ipa_engine::TraceEvent;
use ipa_flash::FlashConfig;
use ipa_ipl::{HybridConfig, HybridFtl};
use ipa_workloads::{Runner, SystemConfig, TpcC};

fn main() {
    init_trace("hybrid_ftl_ablation");
    banner(
        "Hybrid-FTL ablation — IPA on a FAST-style SSD",
        "paper §8.4: appends postpone hybrid-FTL merges; OP can shrink",
    );
    let s = scale();

    // Record a trace from a real engine run (no IPA in the engine: the
    // hybrid FTL applies its own rule during replay).
    let cfg = SystemConfig::emulator(NxM::disabled(), 0.25);
    let mut w = TpcC::new(1, 3_000 * s, 300);
    let mut db = cfg.build_for(&w).expect("build");
    let mut runner = Runner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    runner.setup(&mut db, &mut w).expect("setup");
    runner.run(&mut db, &mut w, 0, 1_000 * s).expect("warmup");
    db.enable_tracing();
    let traced = attach_trace(&mut db);
    runner.run(&mut db, &mut w, 0, 8_000 * s).expect("measured");
    if traced {
        db.detach_observer();
        db.ftl_mut().set_cmd_tracing(false);
    }
    let trace: Vec<(u64, u32, bool)> = db
        .take_trace()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Evict { page, changed_bytes, fresh } => Some((page, changed_bytes, fresh)),
            TraceEvent::Fetch { .. } => None,
        })
        .collect();
    println!("recorded {} eviction events\n", trace.len());

    let device = || {
        let mut fc = FlashConfig::small_slc();
        fc.geometry.chips = 4;
        fc.geometry.blocks_per_chip = 160;
        fc.geometry.pages_per_block = 32;
        fc.geometry.page_size = 4096;
        fc.max_appends = Some(4);
        ipa_flash::FlashDevice::new(fc)
    };

    let mut t = Table::new(&[
        "configuration",
        "log writes",
        "IPA appends",
        "full merges",
        "merge page writes",
        "erases",
    ]);
    let mut results = Vec::new();
    for (label, hc) in [
        ("conventional hybrid", HybridConfig::conventional()),
        ("hybrid + IPA [2x3]", HybridConfig::with_ipa(2, 3)),
        ("hybrid + IPA, half OP", {
            let mut c = HybridConfig::with_ipa(2, 3);
            c.log_area_fraction = 0.05;
            c
        }),
    ] {
        let mut ftl = HybridFtl::new(device(), hc);
        ftl.replay(&trace);
        let st = ftl.stats().clone();
        t.row(vec![
            label.to_string(),
            st.log_writes.to_string(),
            st.ipa_appends.to_string(),
            st.merges.to_string(),
            st.merge_page_writes.to_string(),
            st.erases.to_string(),
        ]);
        results.push((label, st));
    }
    let mut out = ExperimentReport::new("hybrid_ftl_ablation");
    out.print_table(&t);

    let conv = &results[0].1;
    let ipa = &results[1].1;
    let half = &results[2].1;
    println!(
        "\nIPA absorbs {} of {} update writes as appends ({}%),",
        ipa.ipa_appends,
        conv.host_writes,
        fmt::f2(ipa.ipa_appends as f64 / conv.host_writes as f64 * 100.0)
    );
    if conv.merges > 0 {
        println!(
            "cutting full merges by {:.0}% and erases by {:.0}%.",
            (1.0 - ipa.merges as f64 / conv.merges as f64) * 100.0,
            (1.0 - ipa.erases as f64 / conv.erases.max(1) as f64) * 100.0
        );
        println!(
            "with HALF the log area, IPA still performs {} merges vs {} conventional —",
            half.merges, conv.merges
        );
        println!("the paper's over-provisioning argument, on hybrid hardware.");
    }
    let stats_json = |st: &ipa_ipl::HybridStats| {
        serde_json::json!({
            "host_writes": st.host_writes, "ipa_appends": st.ipa_appends,
            "log_writes": st.log_writes, "data_writes": st.data_writes,
            "merges": st.merges, "merge_page_writes": st.merge_page_writes,
            "erases": st.erases,
        })
    };
    out.set_payload(serde_json::json!({
        "conventional": stats_json(&results[0].1),
        "ipa": stats_json(&results[1].1),
        "ipa_half_op": stats_json(&results[2].1),
    }));
    out.save();
    finish_trace();
}
