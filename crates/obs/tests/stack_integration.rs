//! End-to-end observability checks over a real engine→NoFTL→flash stack:
//! the trace stays totally ordered across layers, snapshot deltas obey
//! their algebra, and the metrics registry's final cumulative point is
//! exactly the end-of-run state.

use ipa_core::{NxM, SlotId};
use ipa_engine::{Database, DbConfig, PageId};
use ipa_flash::{for_each_case, EventKind, FlashConfig};
use ipa_noftl::{IpaMode, NoFtlConfig};
use ipa_obs::{MetricsRegistry, Snapshot, TraceHandle};
use rand::Rng;
use serde_json::Value;

fn test_db(frames: usize) -> Database {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.blocks_per_chip = 64;
    flash.geometry.pages_per_block = 16;
    flash.geometry.page_size = 1024;
    let cfg = NoFtlConfig::single_region(flash, IpaMode::Slc, 0.2);
    Database::open(cfg, &[NxM::tpcc()], DbConfig::eager(frames)).unwrap()
}

/// Insert a tuple into a fresh page and flush (out-of-place), then apply a
/// small update and flush again (in-place append when possible).
fn one_page_churn(db: &mut Database) -> PageId {
    let pid = db.new_page(0).unwrap();
    let slot = db
        .with_page_mut(pid, |page, tracker| Ok(page.insert_tuple(&[9u8, 7, 5, 3], tracker)?))
        .unwrap();
    db.flush_page(pid).unwrap();
    db.with_page_mut(pid, |page, tracker| {
        page.update_tuple(slot, &[3u8, 7, 5, 3], tracker)?;
        Ok(())
    })
    .unwrap();
    db.flush_page(pid).unwrap();
    pid
}

#[test]
fn trace_is_totally_ordered_and_matches_counters() {
    let mut db = test_db(8);
    let trace = TraceHandle::new(4096);
    db.attach_observer(trace.observer());

    for _ in 0..4 {
        one_page_churn(&mut db);
    }

    let events = trace.snapshot();
    assert!(!events.is_empty());
    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq strictly increasing");
        assert!(pair[1].t_ns >= pair[0].t_ns, "clock monotone");
    }

    let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count() as u64;
    assert_eq!(count(|k| matches!(k, EventKind::FlushOop)), db.stats().oop_flushes);
    assert_eq!(count(|k| matches!(k, EventKind::FlushIpa { .. })), db.stats().ipa_flushes);
    assert_eq!(
        count(|k| matches!(k, EventKind::DeltaProgram { .. })),
        db.ftl().device().stats().host_delta_programs
    );
    assert!(db.stats().ipa_flushes > 0, "churn exercises the IPA path");

    // Each engine-level FlushIpa is directly followed (same page) by its
    // physical delta programs — the cross-layer ordering the trace is for.
    let ipa_idx = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::FlushIpa { .. }))
        .expect("an IPA flush");
    let follow = events[ipa_idx + 1..]
        .iter()
        .find(|e| matches!(e.kind, EventKind::DeltaProgram { .. }))
        .expect("physical delta program after the logical flush");
    assert_eq!(follow.lba, events[ipa_idx].lba);
    assert_eq!(follow.region, events[ipa_idx].region);

    // Detaching stops delivery.
    db.detach_observer().expect("observer attached");
    let before = trace.len();
    one_page_churn(&mut db);
    assert_eq!(trace.len(), before);
}

#[test]
fn snapshot_deltas_compose() {
    let mut db = test_db(8);
    let a = Snapshot::capture(&db);
    one_page_churn(&mut db);
    let b = Snapshot::capture(&db);
    one_page_churn(&mut db);
    one_page_churn(&mut db);
    let c = Snapshot::capture(&db);

    // Identity: the delta of a snapshot with itself is all-zero (shape is
    // preserved — regions/chips stay as zeroed entries, not dropped).
    let zero = b.delta_since(&b).to_json();
    fn all_zero(v: &serde_json::Value) -> bool {
        match v {
            serde_json::Value::Object(m) => m.values().all(all_zero),
            serde_json::Value::Array(a) => a.iter().all(all_zero),
            serde_json::Value::Number(n) => n.as_f64() == Some(0.0),
            _ => true,
        }
    }
    assert!(all_zero(&zero), "self-delta has non-zero leaf: {zero}");

    // Composition: (c - a) == (b - a) + (c - b), field by field.
    let ca = c.delta_since(&a);
    let ba = b.delta_since(&a);
    let cb = c.delta_since(&b);
    assert_eq!(ca.at_ns, ba.at_ns + cb.at_ns);
    assert_eq!(ca.flash.host_programs, ba.flash.host_programs + cb.flash.host_programs);
    assert_eq!(
        ca.flash.host_delta_programs,
        ba.flash.host_delta_programs + cb.flash.host_delta_programs
    );
    assert_eq!(ca.engine.oop_flushes, ba.engine.oop_flushes + cb.engine.oop_flushes);
    assert_eq!(ca.engine.ipa_flushes, ba.engine.ipa_flushes + cb.engine.ipa_flushes);
    assert_eq!(
        ca.regions[0].host_delta_writes,
        ba.regions[0].host_delta_writes + cb.regions[0].host_delta_writes
    );
    let programs = |s: &Snapshot| s.chips.iter().map(|ch| ch.programs).sum::<u64>();
    assert_eq!(programs(&ca), programs(&ba) + programs(&cb));
    assert!(ca.flash.host_delta_programs > 0, "interval saw IPA writes");
}

#[test]
fn registry_final_point_equals_end_of_run_state() {
    let mut db = test_db(8);
    let mut reg = MetricsRegistry::new();
    for i in 0..5u64 {
        one_page_churn(&mut db);
        reg.sample(i + 1, Snapshot::capture(&db));
    }
    let end = Snapshot::capture(&db);
    let last = reg.last().expect("sampled");
    assert_eq!(last.cumulative.to_json(), end.to_json());

    // Deltas compose back to the cumulative total.
    let summed: u64 = reg.points().iter().map(|p| p.delta.flash.host_programs).sum();
    assert_eq!(summed, end.flash.host_programs);
}

/// Keys of `Snapshot::to_json` that are legitimately non-monotone
/// (means/percentiles move both ways as the distribution shifts; the wear
/// histogram re-buckets as the spread grows; utilization and the in-flight
/// count are gauges).
const NON_MONOTONE: &[&str] =
    &["mean_ns", "p50_us", "p95_us", "p99_us", "wear", "utilization", "host_inflight"];

fn assert_monotone(later: &Value, earlier: &Value, path: &str) {
    match (later, earlier) {
        (Value::Object(l), Value::Object(e)) => {
            for (k, lv) in l {
                if NON_MONOTONE.contains(&k.as_str()) {
                    continue;
                }
                if let Some(ev) = e.get(k) {
                    assert_monotone(lv, ev, &format!("{path}.{k}"));
                }
            }
        }
        (Value::Array(l), Value::Array(e)) => {
            for (i, (lv, ev)) in l.iter().zip(e.iter()).enumerate() {
                assert_monotone(lv, ev, &format!("{path}[{i}]"));
            }
        }
        (Value::Number(l), Value::Number(e)) => {
            let (l, e) = (l.as_f64().unwrap(), e.as_f64().unwrap());
            assert!(l >= e, "{path} regressed: {l} < {e}");
        }
        _ => {}
    }
}

/// Drive an arbitrary op sequence and check every snapshot counter is
/// monotone non-decreasing.
fn run_monotone_case(ops: &[u8]) {
    let mut db = test_db(4);
    let mut pages: Vec<(PageId, SlotId)> = Vec::new();
    let mut prev = Snapshot::capture(&db).to_json();
    for &op in ops {
        match op {
            0 => {
                if let Ok(pid) = db.new_page(0) {
                    if let Ok(slot) = db.with_page_mut(pid, |page, tracker| {
                        Ok(page.insert_tuple(&[1u8, 2, 3, 4], tracker)?)
                    }) {
                        pages.push((pid, slot));
                    }
                }
            }
            1 => {
                if let Some(&(pid, slot)) = pages.last() {
                    let _ = db.with_page_mut(pid, |page, tracker| {
                        page.update_tuple(slot, &[9u8, 2, 3, 4], tracker)?;
                        Ok(())
                    });
                }
            }
            2 => {
                if let Ok(pid) = db.new_page(0) {
                    if let Ok(slot) = db.with_page_mut(pid, |page, tracker| {
                        Ok(page.insert_tuple(&[7u8; 100], tracker)?)
                    }) {
                        pages.push((pid, slot));
                    }
                }
            }
            3 => {
                if let Some(&(pid, _)) = pages.last() {
                    let _ = db.flush_page(pid);
                }
            }
            4 => {
                if let Some(&(pid, _)) = pages.first() {
                    let _ = db.with_page(pid, |_page| ());
                }
            }
            _ => {
                let _ = db.background_work();
            }
        }
        let cur = Snapshot::capture(&db).to_json();
        assert_monotone(&cur, &prev, "snapshot");
        prev = cur;
    }
}

#[test]
fn counters_monotone_fixed_sequence() {
    run_monotone_case(&[0, 1, 3, 0, 2, 3, 4, 5, 1, 3, 3, 2, 1, 3]);
}

#[test]
fn counters_monotone_under_arbitrary_ops() {
    for_each_case(16, |rng| {
        let ops: Vec<u8> = (0..rng.gen_range(0..24)).map(|_| rng.gen_range(0..6)).collect();
        run_monotone_case(&ops);
    });
}
