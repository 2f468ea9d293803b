//! Queued-I/O scheduler properties, end to end through the public API.
//!
//! 1. Linearizability: because validation, mapping updates and stats are
//!    applied at *submission*, a queued execution (deep host queue, drains
//!    at arbitrary points) must be indistinguishable from the serial
//!    depth-1 execution of the same command sequence — same per-op
//!    outcomes, same counters, same final flash contents. Only simulated
//!    time may differ.
//! 2. The acceptance timing claim: on a 4-chip emulator profile a batched
//!    eviction (`flush_all`) at queue depth 4 takes measurably less
//!    simulated device time than at depth 1.

use rand::rngs::StdRng;
use rand::Rng;

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig};
use ipa::flash::{for_each_case, FlashConfig};
use ipa::noftl::{IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig, RegionId};

const CHIPS: u32 = 4;
const LBAS: u64 = 48;
const PAGE: usize = 256;

fn ftl(depth: u32) -> NoFtl {
    let mut flash = FlashConfig::emulator_slc(12, 8, PAGE);
    flash.geometry.chips = CHIPS;
    flash.queue_depth = depth;
    flash.max_appends = Some(8);
    NoFtl::new(NoFtlConfig::single_region(flash, IpaMode::Slc, 0.35)).unwrap()
}

/// Body programmed, tail erased so deltas have somewhere to land.
fn image(byte: u8) -> Vec<u8> {
    let mut v = vec![0xFF; PAGE];
    v[..PAGE / 2].fill(byte);
    v
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64, u8),
    Delta(u64, usize, u8),
    Read(u64),
    /// Drain every in-flight completion before continuing (a batch
    /// boundary in the queued execution; a no-op serially).
    Drain,
}

/// Write : Delta : Read : Drain drawn 4 : 2 : 2 : 1.
fn op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..9) {
        0..=3 => Op::Write(rng.gen_range(0..LBAS), rng.gen()),
        4..=5 => Op::Delta(rng.gen_range(0..LBAS), rng.gen_range(0..8), rng.gen()),
        6..=7 => Op::Read(rng.gen_range(0..LBAS)),
        _ => Op::Drain,
    }
}

/// Run the sequence either queued (submit, drain only at `Drain` marks and
/// at the end) or serially (sync wrappers). Returns each op's ok/err
/// outcome; errors surface at submission, so the patterns must agree.
fn apply(ftl: &mut NoFtl, queued: bool, ops: &[Op]) -> Vec<bool> {
    let rid = RegionId(0);
    let mut outcomes = Vec::new();
    for op in ops {
        let ok = match *op {
            Op::Write(l, b) => {
                if queued {
                    ftl.submit_write(rid, Lba(l), &image(b), &[], IoCtx::host()).is_ok()
                } else {
                    ftl.write_page(rid, Lba(l), &image(b), IoCtx::host()).is_ok()
                }
            }
            Op::Delta(l, slot, b) => {
                let off = PAGE / 2 + slot * 8;
                if queued {
                    ftl.submit_write_delta(rid, Lba(l), off, &[b; 8], &[], IoCtx::host()).is_ok()
                } else {
                    ftl.write_delta(rid, Lba(l), off, &[b; 8], IoCtx::host()).is_ok()
                }
            }
            Op::Read(l) => {
                if queued {
                    ftl.submit_read(rid, Lba(l), IoCtx::host()).is_ok()
                } else {
                    ftl.read_page(rid, Lba(l), IoCtx::host()).is_ok()
                }
            }
            Op::Drain => {
                ftl.drain_completions();
                true
            }
        };
        outcomes.push(ok);
    }
    ftl.drain_completions();
    outcomes
}

/// Non-timing flash counters: everything the workload determines, nothing
/// the schedule does (queue gauges and latency histograms may differ).
fn flash_counters(ftl: &NoFtl) -> [u64; 8] {
    let s = ftl.device().stats();
    [
        s.host_reads,
        s.host_programs,
        s.host_delta_programs,
        s.delta_bytes,
        s.gc_reads,
        s.gc_programs,
        s.erases,
        s.ispp_violations,
    ]
}

fn readback(ftl: &mut NoFtl) -> Vec<Option<Vec<u8>>> {
    (0..LBAS)
        .map(|l| ftl.read_page(RegionId(0), Lba(l), IoCtx::host()).ok().map(|(bytes, _)| bytes))
        .collect()
}

#[test]
fn queued_execution_linearizes_to_serial_order() {
    for_each_case(32, |rng| {
        let seq: Vec<Op> = (0..rng.gen_range(1..120)).map(|_| op(rng)).collect();
        let mut serial = ftl(1);
        let mut queued = ftl(8);

        let serial_outcomes = apply(&mut serial, false, &seq);
        let queued_outcomes = apply(&mut queued, true, &seq);
        assert_eq!(serial_outcomes, queued_outcomes);
        assert_eq!(queued.device().host_inflight(), 0);

        // Same stats (scheduling must not change what work was done)...
        assert_eq!(
            serial.region_stats(RegionId(0)).unwrap(),
            queued.region_stats(RegionId(0)).unwrap()
        );
        assert_eq!(flash_counters(&serial), flash_counters(&queued));
        // ...and the same final flash contents.
        assert_eq!(readback(&mut serial), readback(&mut queued));
    });
}

/// Build a database over `CHIPS x 24 x 16` emulator flash, dirty `pages`
/// fresh buffer pages and measure the simulated device time `flush_all`
/// takes.
fn flush_device_time(depth: u32, pages: usize) -> u64 {
    let mut flash = FlashConfig::emulator_slc(24, 16, 1024);
    flash.geometry.chips = CHIPS;
    flash.queue_depth = depth;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::None, 0.2);
    let mut db = Database::open(cfg, &[NxM::disabled()], DbConfig::eager(pages + 8)).unwrap();
    for _ in 0..pages {
        db.new_page(0).unwrap();
    }
    let t0 = db.ftl().device().clock().now_ns();
    db.flush_all().unwrap();
    db.ftl().device().clock().now_ns() - t0
}

#[test]
fn batched_eviction_overlaps_on_emulator() {
    // The acceptance test: 4 chips, depth >= 4 -> the staged
    // `flush_all` batch overlaps program latencies across chips.
    let serial = flush_device_time(1, 32);
    let deep = flush_device_time(4, 32);
    assert!(
        deep * 2 <= serial,
        "expected >= 2x overlap speedup: depth-4 {deep} ns vs depth-1 {serial} ns"
    );
}
