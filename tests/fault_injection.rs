//! Fault injection end to end: scripted program/erase/delta failures on
//! the flash device, self-healing in the NoFTL layer (retry, bad-block
//! retirement, delta-append fallback, scrubbing), and the visibility of
//! every episode in stats, snapshots and the trace.

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig};
use ipa::flash::{EventKind, FaultOp, FaultPlan, FlashConfig};
use ipa::noftl::{IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig, RegionId};
use ipa::obs::{Snapshot, TraceHandle};

const R: RegionId = RegionId(0);

fn ftl_at(
    plan: FaultPlan,
    scrub_threshold: f64,
    over_provisioning: f64,
    mutate: impl FnOnce(&mut FlashConfig),
) -> NoFtl {
    let mut flash = FlashConfig::small_slc();
    mutate(&mut flash);
    flash.fault = plan;
    let mut cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, over_provisioning);
    cfg.fault_policy.scrub_threshold = scrub_threshold;
    NoFtl::new(cfg).unwrap()
}

fn ftl_with(plan: FaultPlan, scrub_threshold: f64, mutate: impl FnOnce(&mut FlashConfig)) -> NoFtl {
    ftl_at(plan, scrub_threshold, 0.2, mutate)
}

/// Between operations nothing is left behind, whichever way the last one
/// ended: every queued command was handed back and every span closed.
/// The healing paths and the error exits are where a completion or a
/// close is easiest to skip.
fn assert_idle(ftl: &NoFtl) {
    assert_eq!(ftl.device().inflight(), 0, "a command was left in flight");
    assert_eq!(ftl.device().open_spans(), [], "a span was left open");
}

/// A page image whose first half is the body pattern and whose tail stays
/// erased (0xFF) — the area later in-place appends can charge into under
/// the monotone-charge rule.
fn page(ftl: &NoFtl, byte: u8) -> Vec<u8> {
    let n = ftl.device().config().geometry.page_size;
    let mut v = vec![0xFF; n];
    v[..n / 2].fill(byte);
    v
}

#[test]
fn permanent_program_fault_retires_block_and_remaps_write() {
    let plan = FaultPlan::default().with_scripted(FaultOp::Program, 0, true);
    let mut ftl = ftl_with(plan, 0.0, |_| {});
    let data = page(&ftl, 0xAB);
    // The very first program fails permanently; the write must still
    // succeed on a remapped residency, with the block retired.
    ftl.write_page(R, Lba(0), &data, IoCtx::default()).unwrap();
    assert_idle(&ftl);
    let (got, _) = ftl.read_page(R, Lba(0), IoCtx::default()).unwrap();
    assert_eq!(got, data);
    assert_eq!(ftl.device().stats().retired_blocks, 1);
    assert_eq!(ftl.device().stats().program_failures, 1);
}

#[test]
fn transient_program_fault_spends_retry_budget_only() {
    let plan = FaultPlan::default().with_scripted(FaultOp::Program, 0, false);
    let mut ftl = ftl_with(plan, 0.0, |_| {});
    let data = page(&ftl, 0x5C);
    ftl.write_page(R, Lba(3), &data, IoCtx::default()).unwrap();
    assert_idle(&ftl);
    let (got, _) = ftl.read_page(R, Lba(3), IoCtx::default()).unwrap();
    assert_eq!(got, data);
    let stats = ftl.region_stats(R).unwrap();
    assert_eq!(stats.program_retries, 1);
    let retired = ftl.device().stats().retired_blocks;
    assert_eq!(retired, 0, "a transient fault must not retire the block");
}

#[test]
fn delta_fault_falls_back_out_of_place_and_is_traced() {
    let plan = FaultPlan::default().with_scripted(FaultOp::DeltaProgram, 0, false);
    let mut ftl = ftl_with(plan, 0.0, |_| {});
    let trace = TraceHandle::new(1024);
    ftl.attach_observer(trace.observer());

    let data = page(&ftl, 0x11);
    ftl.write_page(R, Lba(7), &data, IoCtx::default()).unwrap();
    // The first delta append fails; the layer must transparently rewrite
    // the whole page out of place with the delta applied.
    ftl.write_delta(R, Lba(7), 16, &[0xEE; 8], IoCtx::default()).unwrap();
    assert_idle(&ftl);

    let (got, _) = ftl.read_page(R, Lba(7), IoCtx::default()).unwrap();
    let mut expect = data.clone();
    expect[16..24].fill(0xEE);
    assert_eq!(got, expect);

    let stats = ftl.region_stats(R).unwrap();
    assert_eq!(stats.delta_fallbacks, 1);
    assert_eq!(stats.host_delta_writes, 0, "the failed append is not a delta write");
    assert_eq!(ftl.device().stats().delta_program_failures, 1);

    // Both the failure and the fallback are visible in the trace, with
    // region/LBA attribution.
    let events = trace.snapshot();
    let fault = events.iter().find(|e| e.kind == EventKind::DeltaFault);
    let fallback = events.iter().find(|e| e.kind == EventKind::DeltaFallback);
    assert!(fault.is_some(), "DeltaFault missing from trace");
    let fb = fallback.expect("DeltaFallback missing from trace");
    assert_eq!(fb.region, Some(0));
    assert_eq!(fb.lba, Some(7));
}

#[test]
fn erase_fault_retires_gc_victim_and_gc_reselects() {
    // Every erase fails permanently: each GC victim is retired after its
    // valid pages migrate. Writes keep succeeding until capacity truly
    // runs out — here the workload stays small enough to finish.
    let plan = FaultPlan::default().with_scripted(FaultOp::Erase, 0, true).with_scripted(
        FaultOp::Erase,
        1,
        true,
    );
    let mut ftl = ftl_at(plan, 0.0, 0.45, |f| {
        f.geometry.blocks_per_chip = 16;
        f.geometry.pages_per_block = 8;
    });
    let capacity = ftl.capacity(R).unwrap();
    // Overwrite the whole logical space a few times to force GC.
    for round in 0..4u8 {
        for lba in 0..capacity {
            let data = page(&ftl, round ^ lba as u8);
            ftl.write_page(R, Lba(lba), &data, IoCtx::default()).unwrap();
            assert_idle(&ftl);
        }
    }
    let retired = ftl.device().stats().retired_blocks;
    assert!(retired >= 2, "failed erases must retire the victims");
    assert_eq!(ftl.device().stats().erase_failures, 2);
    // All data still readable and current.
    for lba in 0..capacity {
        let (got, _) = ftl.read_page(R, Lba(lba), IoCtx::default()).unwrap();
        assert_eq!(got[0], 3 ^ lba as u8, "lba {lba}");
    }
}

#[test]
fn unhealable_faults_surface_as_errors_and_leave_nothing_behind() {
    // Faults no retry or remap can absorb: every program fails for good
    // (the write runs out of blocks to retire), or every erase does (GC
    // retires victim after victim until no free block is left). Both must
    // come back as an `Err`, not a hang, with the device idle afterwards.
    let every_program = FaultPlan {
        program_fail_prob: 1.0,
        permanent_fraction: 1.0,
        seed: 7,
        ..FaultPlan::default()
    };
    let every_erase = FaultPlan { erase_fail_prob: 1.0, seed: 7, ..FaultPlan::default() };
    for plan in [every_program, every_erase] {
        let mut ftl = ftl_at(plan, 0.0, 0.45, |f| {
            f.geometry.blocks_per_chip = 16;
            f.geometry.pages_per_block = 8;
        });
        let capacity = ftl.capacity(R).unwrap();
        let mut failed = 0;
        for round in 0..8u8 {
            for lba in 0..capacity {
                let data = page(&ftl, round ^ lba as u8);
                failed += u32::from(ftl.write_page(R, Lba(lba), &data, IoCtx::default()).is_err());
                assert_idle(&ftl);
            }
        }
        assert!(failed > 0, "the plan leaves no way to complete every write");
    }
}

/// A `[0×0]` database of `frames` frames whose first program passes and
/// whose next 64 fail for good: more than the region has blocks to retire.
fn db_whose_programs_fail_after_the_first(frames: usize) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.blocks_per_chip = 16;
    flash.geometry.pages_per_block = 8;
    flash.geometry.page_size = 1024;
    flash.fault = (1..=64)
        .fold(FaultPlan::default(), |plan, nth| plan.with_scripted(FaultOp::Program, nth, true));
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    Database::open(cfg, &[NxM::disabled()], DbConfig::eager(frames)).unwrap()
}

#[test]
fn batch_flush_that_fails_midway_leaves_the_device_idle() {
    // The first page of the batch is queued, then every program fails for
    // good until the region has no block left: `flush_all` returns the
    // error with a command already in the queue, and must still drain it.
    let mut db = db_whose_programs_fail_after_the_first(8);
    for _ in 0..4 {
        db.new_page(0).unwrap();
    }
    assert_eq!(db.ftl().device().stats().host_programs, 0, "the batch holds the first program");
    assert!(db.flush_all().is_err());
    assert_eq!(db.ftl().device().stats().host_programs, 1, "one page was queued before the fault");
    assert_idle(db.ftl());
    // The next transaction boundary is where debug builds check the same.
    db.txn().commit().unwrap();
}

#[test]
fn new_page_whose_eviction_fails_takes_no_lba() {
    // Two frames: page 0 stays dirty, page 1 is flushed by the one program
    // that passes; from then on every program fails for good. The third
    // `new_page` evicts page 0 (CLOCK's first victim), whose flush runs the
    // region out of blocks: the call fails and must leave LBA 2 where it
    // was. The fourth evicts page 1, clean, with no flash write at all.
    let mut db = db_whose_programs_fail_after_the_first(2);
    let dirty = db.new_page(0).unwrap();
    let clean = db.new_page(0).unwrap();
    db.flush_page(clean).unwrap();
    assert_eq!((dirty.lba, clean.lba), (Lba(0), Lba(1)));

    assert!(db.new_page(0).is_err(), "the victim's flush finds no block left");
    assert_idle(db.ftl());
    let next = db.new_page(0).unwrap();
    assert_eq!(next.lba, Lba(2), "the failed call's LBA is the next one handed out");
    assert_eq!(db.stats().evictions, 1);
}

#[test]
fn scrub_threshold_schedules_refresh_on_heavily_corrected_reads() {
    let mut ftl = ftl_with(FaultPlan::default(), 0.5, |f| {
        f.reliability.ecc_correctable_bits = 4;
    });
    let data = page(&ftl, 0x3D);
    ftl.write_page(R, Lba(1), &data, IoCtx::default()).unwrap();
    // Two raw bit errors reach the 0.5 * 4 threshold.
    ftl.inject_retention(R, Lba(1), &[10, 900]).unwrap();
    let (got, _) = ftl.read_page(R, Lba(1), IoCtx::default()).unwrap();
    assert_eq!(got, data, "correctable errors are corrected");
    assert_eq!(ftl.region_stats(R).unwrap().scrub_refreshes, 1);
    // The refresh rewrote the charge: the next read is clean again.
    let before = ftl.device().stats().corrected_bit_errors;
    ftl.read_page(R, Lba(1), IoCtx::default()).unwrap();
    assert_eq!(ftl.device().stats().corrected_bit_errors, before);
    assert_eq!(ftl.region_stats(R).unwrap().scrub_refreshes, 1, "no second refresh");
}

#[test]
fn fault_counters_flow_into_obs_snapshots() {
    let plan = FaultPlan::default().with_scripted(FaultOp::Program, 0, true).with_scripted(
        FaultOp::DeltaProgram,
        0,
        false,
    );
    let mut ftl = ftl_with(plan, 0.0, |_| {});
    let data = page(&ftl, 0x77);
    ftl.write_page(R, Lba(0), &data, IoCtx::default()).unwrap();
    ftl.write_delta(R, Lba(0), 0, &[1, 2, 3, 4], IoCtx::default()).unwrap();
    assert_idle(&ftl);

    let snap = Snapshot::capture_noftl(&ftl);
    let v = snap.to_json();
    assert_eq!(v["flash"]["program_failures"], 1);
    assert_eq!(v["flash"]["delta_program_failures"], 1);
    assert_eq!(v["flash"]["retired_blocks"], 1);
    assert_eq!(v["regions"][0]["delta_fallbacks"], 1);
    // And the delta of a snapshot with itself stays all-zero.
    let d = snap.delta_since(&snap);
    assert_eq!(d.flash.program_failures, 0);
    assert_eq!(d.regions[0].delta_fallbacks, 0);
}

#[test]
fn inactive_plan_draws_nothing_and_counts_nothing() {
    // The zero-fault guarantee behind the bit-identical requirement: a
    // default plan leaves every fault counter at zero however much I/O
    // runs through the device.
    let mut ftl = ftl_with(FaultPlan::default(), 0.0, |_| {});
    let capacity = ftl.capacity(R).unwrap().min(32);
    let delta_at = ftl.device().config().geometry.page_size / 2 + 8;
    for lba in 0..capacity {
        let data = page(&ftl, lba as u8);
        ftl.write_page(R, Lba(lba), &data, IoCtx::default()).unwrap();
        ftl.write_delta(R, Lba(lba), delta_at, &[9; 4], IoCtx::default()).unwrap();
    }
    let f = ftl.device().stats();
    assert_eq!(f.program_failures, 0);
    assert_eq!(f.delta_program_failures, 0);
    assert_eq!(f.erase_failures, 0);
    assert_eq!(f.retired_blocks, 0);
    let r = ftl.region_stats(R).unwrap();
    assert_eq!(r.program_retries, 0);
    assert_eq!(r.delta_fallbacks, 0);
    assert_eq!(r.scrub_refreshes, 0);
}
