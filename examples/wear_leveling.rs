//! Flash longevity: how IPA stretches device lifetime.
//!
//! Runs the same update-heavy workload with and without IPA, reports erase
//! counts and wear spread, and projects a lifetime ratio from erases per
//! host write — the paper's "twice the longevity" claim (§8.4, "Longevity
//! of Flash Storage"). No block reaches its endurance limit here.
//!
//! Run with `cargo run --release --example wear_leveling`.

use ipa::core::NxM;
use ipa::workloads::{Runner, SystemConfig, TpcB, Workload};

fn main() {
    let txns = 10_000;
    println!("running {txns} TPC-B transactions per configuration ...\n");

    let mut lines = Vec::new();
    let mut erases_per_write = Vec::new();
    for (label, scheme) in [("[0x0] baseline", NxM::disabled()), ("[2x4] IPA", NxM::tpcb())] {
        let cfg = SystemConfig::emulator(scheme, 0.25);
        let mut w = TpcB::new(4, 4_000);
        let mut db = cfg.build(w.estimated_pages(cfg.page_size)).unwrap();
        let runner = Runner::new(99);
        runner.setup(&mut db, &mut w).unwrap();
        let report = runner.run(&mut db, &mut w, 2_000, txns).unwrap();
        let epw = report.region.erases_per_host_write();
        let total_erases = db.ftl().device().total_erases();
        let wear = db.ftl().device().wear_histogram();
        lines.push(format!(
            "{label:<16} erases {total_erases:>6}  erases/host-write {epw:.4}               wear min/mean/max {}/{:.1}/{}",
            wear.min, wear.mean, wear.max
        ));
        erases_per_write.push(epw);
    }
    for l in &lines {
        println!("{l}");
    }

    let ratio = erases_per_write[0] / erases_per_write[1];
    println!("\nassuming writes arrive at the same rate, the device endures");
    println!("{ratio:.2}x as many host writes before hitting its P/E limit.");
    println!("paper: IPA 'doubles the longevity of Flash devices' under");
    println!("update-intensive workloads (33%-85% fewer erase operations).");

    // Show the endurance math concretely for MLC flash (10k P/E cycles).
    let pe_limit = 10_000.0;
    let writes_base = pe_limit / erases_per_write[0];
    let writes_ipa = pe_limit / erases_per_write[1];
    println!(
        "\nper block at {pe_limit} P/E cycles: ~{writes_base:.0} host writes without IPA, \
         ~{writes_ipa:.0} with IPA"
    );
}
