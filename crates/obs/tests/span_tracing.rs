//! Causal-span tracing properties under queued I/O.
//!
//! Batches of page writes are submitted at host queue depth 4, each batch
//! wrapped in its own root span. The properties pin the lifecycle
//! invariants the offline analyzer depends on:
//!
//! * trace sequence numbers are strictly increasing and the clock is
//!   monotone;
//! * every `CmdSubmit` is attributed to exactly one span that is open at
//!   submission time, and every submit has exactly one `CmdComplete`;
//! * the per-command decomposition is exact: queue wait (admission stall)
//!   plus chip-busy inheritance plus op service equals the observed
//!   command latency, event-for-event identical to the [`Completion`]s
//!   the caller drained;
//! * the trace's queue-wait total equals the device's
//!   `queue_wait_ns_total` counter.

use std::collections::{HashMap, HashSet};

use ipa_flash::{for_each_case, FlashConfig};
use ipa_noftl::{Completion, IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig, RegionId, SpanCategory};
use ipa_obs::{EventKind, ObsEvent, TraceHandle};
use rand::Rng;

const DEPTH: u32 = 4;
const CHIPS: u32 = 4;

fn ftl(depth: u32) -> NoFtl {
    let mut flash = FlashConfig::emulator_slc(16, 8, 512);
    flash.geometry.chips = CHIPS;
    flash.queue_depth = depth;
    NoFtl::new(NoFtlConfig::single_region(flash, IpaMode::Slc, 0.3)).expect("ftl builds")
}

/// Submit each batch of LBA writes under its own root span at depth 4 and
/// return the trace plus the drained completions.
fn drive(batches: &[Vec<u8>]) -> (Vec<ObsEvent>, Vec<Completion>, u64) {
    let mut ftl = ftl(DEPTH);
    let trace = TraceHandle::new(1 << 16);
    ftl.attach_observer(trace.observer());
    ftl.set_cmd_tracing(true);
    let cap = ftl.capacity(RegionId(0)).expect("region exists");
    let data = vec![0xA5u8; 512];
    let mut completions = Vec::new();
    for batch in batches {
        ftl.in_span(SpanCategory::Txn, None, |ftl, _| {
            for &l in batch {
                // Retired by the drain below.
                let _queued = ftl
                    .submit_write(RegionId(0), Lba(u64::from(l) % cap), &data, &[], IoCtx::host())
                    .expect("submits");
            }
            completions.extend(ftl.drain_completions());
        });
    }
    let queue_wait_total = ftl.device().stats().queue_wait_ns_total;
    (trace.snapshot(), completions, queue_wait_total)
}

fn check_case(batches: &[Vec<u8>]) {
    let (events, completions, queue_wait_total) = drive(batches);

    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq strictly increasing");
        assert!(pair[1].t_ns >= pair[0].t_ns, "clock monotone");
    }

    // Walk the trace: track the open-span set, join submits to completes.
    let mut open: HashSet<u64> = HashSet::new();
    let mut submits: HashMap<u64, (u64, u64)> = HashMap::new(); // cmd -> (queue_wait, span)
    let mut completes: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::SpanOpen { id, .. } => {
                assert!(open.insert(id.0), "span ids are unique while open");
            }
            EventKind::SpanClose { id } => {
                assert!(open.remove(&id.0), "closes only open spans");
            }
            EventKind::CmdSubmit { cmd, queue_wait_ns, span, .. } => {
                let span = span.expect("every command here runs under a span");
                assert!(open.contains(&span.0), "attributed span is open at submit");
                let prev = submits.insert(cmd, (queue_wait_ns, span.0));
                assert!(prev.is_none(), "one submit per command id");
            }
            EventKind::CmdComplete { cmd, submitted_ns, start_ns, done_ns } => {
                assert!(submits.contains_key(&cmd), "completion follows its submit");
                assert!(submitted_ns <= start_ns && start_ns <= done_ns, "lifecycle ordered");
                assert!(done_ns <= e.t_ns, "completion emitted at or after the done time");
                let prev = completes.insert(cmd, (submitted_ns, start_ns, done_ns));
                assert!(prev.is_none(), "one completion per command id");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "all spans closed");
    assert_eq!(submits.len(), completes.len(), "every lifecycle completes");
    let total_ops: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(submits.len(), total_ops, "one lifecycle per page write");
    assert_eq!(completions.len(), total_ops, "caller drained every completion");

    // The decomposition is exact and event-identical to the completions:
    // queue wait from the submit event, busy + service from the complete
    // event, their sum the end-to-end latency the scheduler reported.
    let mut trace_queue_wait = 0u64;
    for c in &completions {
        let (queue_wait_ns, _span) = submits[&c.id.0];
        let (submitted_ns, start_ns, done_ns) = completes[&c.id.0];
        assert_eq!(queue_wait_ns, c.queue_wait_ns, "queue wait matches the completion");
        assert_eq!(submitted_ns, c.submitted_at_ns);
        assert_eq!(start_ns, c.started_at_ns);
        assert_eq!(done_ns, c.result.completed_at_ns);
        let busy = start_ns - submitted_ns;
        let service = done_ns - start_ns;
        assert_eq!(busy + service, c.result.latency_ns, "busy + service == observed latency");
        trace_queue_wait += queue_wait_ns;
    }
    assert_eq!(trace_queue_wait, queue_wait_total, "trace queue wait sums to the counter");
}

#[test]
fn lifecycles_nest_in_spans_fixed_sequence() {
    // Enough writes per batch to overflow depth 4 and force queue waits.
    let batches: Vec<Vec<u8>> =
        vec![(0..24).collect(), vec![1, 1, 2, 3, 5, 8, 13, 21], (0..12).rev().collect()];
    let (events, ..) = drive(&batches);
    assert!(
        events.iter().any(
            |e| matches!(e.kind, EventKind::CmdSubmit { queue_wait_ns, .. } if queue_wait_ns > 0)
        ),
        "deep batches actually stall on the host queue"
    );
    check_case(&batches);
}

#[test]
fn lifecycles_nest_in_spans() {
    for_each_case(16, |rng| {
        let batches: Vec<Vec<u8>> = (0..rng.gen_range(0..6))
            .map(|_| (0..rng.gen_range(0..16)).map(|_| rng.gen()).collect())
            .collect();
        check_case(&batches);
    });
}

#[test]
fn in_span_closes_on_error_and_on_early_return() {
    let mut ftl = ftl(DEPTH);
    let trace = TraceHandle::new(64);
    ftl.attach_observer(trace.observer());
    let cap = ftl.capacity(RegionId(0)).expect("region exists");
    let data = vec![0xA5u8; 512];

    // A `?` on a failing submit leaves the closure before its last line.
    let failed = ftl.in_span(SpanCategory::Txn, None, |ftl, _| {
        let id = ftl.submit_write(RegionId(0), Lba(cap), &data, &[], IoCtx::host())?;
        ftl.complete(id)?;
        Ok::<_, ipa_noftl::NoFtlError>(())
    });
    assert!(failed.is_err(), "a write past the capacity is refused");
    // So does a `return`, here from inside a nested span.
    let early = ftl.in_span(SpanCategory::Flush, None, |ftl, outer| {
        ftl.in_span(SpanCategory::Gc, Some(outer), |_, _| {
            if cap > 0 {
                return 1;
            }
            2
        })
    });
    assert_eq!(early, 1);

    // Ids are minted in opening order: each open is matched by its close,
    // innermost first, although no closure ran to its last line.
    let spans: Vec<(&str, u64)> = trace
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SpanOpen { id, .. } => Some(("open", id.0)),
            EventKind::SpanClose { id } => Some(("close", id.0)),
            _ => None,
        })
        .collect();
    assert_eq!(
        spans,
        [("open", 0), ("close", 0), ("open", 1), ("open", 2), ("close", 2), ("close", 1)]
    );
    assert!(ftl.device().open_spans().is_empty());
}
