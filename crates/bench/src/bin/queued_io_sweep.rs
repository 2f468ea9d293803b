//! Queued-I/O sweep — host queue depth vs. simulated device time.
//!
//! Not a paper table: the paper's OpenSSD board had no NCQ, so every flash
//! op was serial. This harness measures what the queued submit/complete
//! interface buys on the emulator profile: batches of page writes striped
//! over 4 chips are submitted at queue depths 1/2/4/8 and the total
//! simulated device time is compared. Depth 1 reproduces the serial
//! behaviour exactly; at depth >= chips the per-chip latencies overlap
//! fully and device time drops by ~the chip count.

use ipa_bench::{banner, finish_trace, fmt, init_trace, trace_sink, ExperimentReport, Table};
use ipa_flash::FlashConfig;
use ipa_noftl::{IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig, RegionId};

const CHIPS: u32 = 4;

/// Write half the region in batches of `CHIPS` pages (the allocator stripes
/// a batch over distinct chips) and return total simulated device time.
fn run(depth: u32) -> u64 {
    let mut flash = FlashConfig::emulator_slc(16, 8, 512);
    flash.geometry.chips = CHIPS;
    flash.queue_depth = depth;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.3);
    let mut ftl = NoFtl::new(cfg).expect("ftl builds");
    if let Some(sink) = trace_sink() {
        ftl.set_cmd_tracing(true);
        ftl.attach_observer(sink.observer());
    }
    let cap = ftl.capacity(RegionId(0)).expect("region exists");
    let data = vec![0x5Au8; 512];
    let lbas: Vec<u64> = (0..cap / 2).collect();
    let t0 = ftl.device().clock().now_ns();
    for batch in lbas.chunks(CHIPS as usize) {
        for &l in batch {
            // Retired by the drain below.
            let _queued = ftl
                .submit_write(RegionId(0), Lba(l), &data, &[], IoCtx::host())
                .expect("write submits");
        }
        ftl.drain_completions();
    }
    ftl.device().clock().now_ns() - t0
}

fn main() {
    init_trace("queued_io_sweep");
    banner(
        "Queued I/O sweep — host queue depth vs simulated device time",
        "beyond the paper: per-chip command queues on the 4-chip emulator profile",
    );

    let mut t = Table::new(&["queue depth", "device time [us]", "speedup vs depth 1"]);
    let mut json = Vec::new();
    let mut base_ns = 0u64;
    for depth in [1u32, 2, 4, 8] {
        let ns = run(depth);
        if depth == 1 {
            base_ns = ns;
        }
        let speedup = base_ns as f64 / ns.max(1) as f64;
        t.row(vec![depth.to_string(), fmt::f2(ns as f64 / 1_000.0), format!("{:.2}x", speedup)]);
        json.push(serde_json::json!({
            "queue_depth": depth, "device_ns": ns, "speedup": speedup,
        }));
    }

    let mut report = ExperimentReport::new("queued_io_sweep");
    report.print_table(&t);
    println!("\nexpected shape: depth 1 is the serial baseline; speedup saturates at");
    println!("the chip count ({CHIPS}x) once every chip in a batch can be in flight.");
    report.set_payload(serde_json::Value::Array(json));
    report.save();
    finish_trace();
}
