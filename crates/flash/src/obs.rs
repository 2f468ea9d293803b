//! Cross-layer event tracing: typed events, the [`Observer`] sink trait
//! and the per-operation attribution context.
//!
//! The trait lives in `ipa-flash` — the bottom of the crate stack — so
//! every layer (NoFTL regions, the storage engine) can emit through the
//! device's single monotonic sequence counter and simulated clock. One
//! flush can then be followed top-down: the engine emits
//! [`EventKind::FlushIpa`]/[`EventKind::FlushOop`], the region layer
//! attributes the resulting physical operations with region id and LBA,
//! and the device emits the physical events themselves
//! ([`EventKind::DeltaProgram`], [`EventKind::GcMigration`],
//! [`EventKind::Erase`], ...).
//!
//! When no observer is attached the hot path pays a single branch per
//! operation (`Option` check); callers that would otherwise build event
//! payloads can skip even that via [`crate::FlashDevice::observing`].

/// Correlation token of one causal span (a transaction, a flush, a
/// recovery pass, a GC episode). Minted by the device so ids are unique
/// per trace and totally ordered by creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// What kind of causal episode a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanCategory {
    /// One engine transaction, `begin` to `commit`/`abort`.
    Txn,
    /// One buffer-manager flush (page eviction or batch flush).
    Flush,
    /// One ARIES restart (analysis + redo + undo).
    Recovery,
    /// One garbage-collection episode (victim migration + erase).
    Gc,
}

impl SpanCategory {
    /// Stable lower-case name (trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::Txn => "txn",
            SpanCategory::Flush => "flush",
            SpanCategory::Recovery => "recovery",
            SpanCategory::Gc => "gc",
        }
    }
}

/// The operation class of a queued command, as recorded in its
/// [`EventKind::CmdSubmit`] lifecycle event. Combined with
/// [`crate::OpOrigin`] this distinguishes every row of the paper's
/// per-op accounting (host reads vs. GC reads, full programs vs. delta
/// appends, erases, refreshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Page read.
    Read,
    /// Full-page program.
    Program,
    /// ISPP partial program (delta append).
    ProgramDelta,
    /// Block erase.
    Erase,
    /// Correct-and-Refresh.
    Refresh,
}

impl OpClass {
    /// Stable lower-case name (trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Program => "program",
            OpClass::ProgramDelta => "program_delta",
            OpClass::Erase => "erase",
            OpClass::Refresh => "refresh",
        }
    }
}

/// What happened. Physical kinds are emitted by the device itself;
/// `Flush{Ipa,Oop}` and `Evict` are logical kinds emitted by the storage
/// engine through the same sequence/clock source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A host-issued page read reached the device.
    HostRead,
    /// A host-issued full-page (out-of-place) program.
    HostProgram,
    /// A host-issued ISPP partial program (in-place append) of `bytes`
    /// payload bytes.
    DeltaProgram {
        /// Appended payload size in bytes.
        bytes: u32,
    },
    /// A background page migration (garbage collection or wear leveling)
    /// programmed one valid page to a new residency.
    GcMigration,
    /// A block erase.
    Erase,
    /// The engine flushed a dirty page as `records` in-place delta
    /// appends.
    FlushIpa {
        /// Delta records appended by this flush.
        records: u16,
    },
    /// The engine flushed a dirty page as an out-of-place page write.
    FlushOop,
    /// The engine evicted a page frame (after flushing it if dirty).
    Evict,
    /// A partial program was rejected for violating the monotone-charge
    /// rule.
    IsppViolation,
    /// A full-page program reported status failure. `permanent` faults grow
    /// the block bad (a [`EventKind::BlockRetired`] event follows).
    ProgramFault {
        /// Whether the fault retired the block.
        permanent: bool,
    },
    /// A partial program (delta append) reported status failure. Always
    /// transient for the block; the host falls back to an out-of-place
    /// write ([`EventKind::DeltaFallback`]).
    DeltaFault,
    /// A block erase reported status failure; the block is grown bad (a
    /// [`EventKind::BlockRetired`] event follows).
    EraseFault,
    /// A block was retired as grown bad after a permanent program or erase
    /// failure.
    BlockRetired,
    /// The NoFTL layer recovered a failed delta append by rewriting the
    /// page out of place (the paper's fallback: appends are an
    /// optimisation, never a correctness requirement).
    DeltaFallback,
    /// The NoFTL scrubber scheduled a Correct-and-Refresh because a read's
    /// corrected-bit count crossed the configured threshold.
    ScrubRefresh,
    /// The engine's group-commit stage forced the log once and
    /// acknowledged `txns` parked transactions together (emitted under a
    /// `Flush`-category span covering the batch).
    GroupCommitFlush {
        /// Transactions acknowledged by this batch flush.
        txns: u32,
    },
    /// An older transaction hit a lock held by a younger one under the
    /// wait-die policy and parked until the holder finished.
    LockWait,
    /// A commit request entered the engine's group-commit stage: its log
    /// records are written (and its locks released) but the durability
    /// acknowledgement is deferred to the next batch flush.
    TxParked,
    /// A causal span opened (transaction begun, flush started, recovery
    /// entered, GC episode triggered).
    SpanOpen {
        /// The new span.
        id: SpanId,
        /// Enclosing span, if any (explicit parent or the innermost open
        /// span at the time).
        parent: Option<SpanId>,
        /// What kind of episode the span covers.
        cat: SpanCategory,
    },
    /// A causal span closed.
    SpanClose {
        /// The span that closed.
        id: SpanId,
    },
    /// A command entered the device queue (per-command lifecycle tracing;
    /// opt-in via [`crate::FlashDevice::set_cmd_tracing`]). The event's
    /// `t_ns` is the post-admission submission time; `queue_wait_ns` is
    /// how long the submitter stalled on a full host queue beforehand.
    CmdSubmit {
        /// The command id (`CmdId.0`).
        cmd: u64,
        /// Operation class.
        class: OpClass,
        /// Scheduling origin (host, async host, background).
        origin: crate::OpOrigin,
        /// Chip the command occupies.
        chip: u32,
        /// Full-host-queue admission stall attributed to this command, ns.
        queue_wait_ns: u64,
        /// Span the command executes under (the span staged for it, or the
        /// innermost open span at submission).
        span: Option<SpanId>,
    },
    /// A command retired (per-command lifecycle tracing; opt-in). Carries
    /// the chip-schedule timestamps so latency decomposes offline:
    /// `start_ns - submit.t_ns` is chip-busy inheritance, `done_ns -
    /// start_ns` is op service time.
    CmdComplete {
        /// The command id (`CmdId.0`).
        cmd: u64,
        /// When the command was submitted (post-admission clock).
        submitted_ns: u64,
        /// When the chip started executing the command.
        start_ns: u64,
        /// When the command finished on the chip.
        done_ns: u64,
    },
    /// Device statistics were reset (benchmark warm-up boundary). Offline
    /// analyzers window their attribution after the last reset so totals
    /// reconcile with the run's end-of-run counters.
    StatsReset,
    /// The engine's online advisor re-tuned a region's `[N×M]` scheme at
    /// the end of a profiling epoch. Newly written and GC-migrated pages
    /// of the region carry the new layout from here on; resident
    /// old-scheme pages stay readable through their page-header scheme tag.
    SchemeChange {
        /// Monotonic per-region scheme version after the change.
        epoch: u64,
        /// Previous scheme (N, M, V).
        old: (u16, u16, u16),
        /// New scheme (N, M, V).
        new: (u16, u16, u16),
    },
    /// Summary of a region's live update-size profile at a re-tune epoch
    /// boundary (reservoir percentiles over the evictions of the epoch).
    ProfileSnapshot {
        /// Evictions observed by the region's profile this epoch.
        observations: u64,
        /// Median changed body bytes per eviction.
        body_p50: u32,
        /// 95th-percentile changed body bytes per eviction.
        body_p95: u32,
        /// 99th-percentile changed metadata bytes per eviction.
        meta_p99: u32,
    },
    /// The engine began a fuzzy checkpoint (the `BeginCheckpoint` log
    /// record was appended; dirty pages keep flushing concurrently).
    CheckpointBegin,
    /// The engine completed a fuzzy checkpoint: the `EndCheckpoint` log
    /// record carrying the active-transaction table and the dirty-page
    /// table was appended and forced.
    CheckpointEnd {
        /// Active transactions captured in the checkpoint.
        active: u32,
        /// Dirty pages captured in the checkpoint's dirty-page table.
        dirty: u32,
    },
    /// A restart phase (analysis / redo / undo) finished, with the record
    /// count that phase processed. Emitted under the `Recovery` span.
    RecoveryPhase {
        /// Which ARIES phase finished.
        phase: RecoveryPhaseKind,
        /// Log records the phase scanned (analysis), applied (redo) or
        /// compensated (undo).
        records: u64,
    },
}

/// One payload value of an event, as [`EventKind::wire`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventField {
    /// A count, id, size or timestamp.
    Uint(u64),
    /// A yes/no attribute.
    Flag(bool),
    /// The stable name of an enumerated attribute.
    Name(&'static str),
}

impl EventKind {
    /// Stable lower-case name (the trace `kind` key).
    pub fn name(&self) -> &'static str {
        self.wire(|_, _| {})
    }

    /// The wire form of this kind, spelled here and nowhere else: returns
    /// the stable name and hands `field` every payload entry as
    /// `(key, value)` in emission order (unset optional entries are
    /// skipped). Sinks add the [`ObsEvent`] envelope around it.
    ///
    /// The match binds every field of every variant — no wildcard arm, no
    /// `..` — so a new variant or a new payload field does not compile
    /// until it is given a wire form.
    pub fn wire(&self, mut field: impl FnMut(&'static str, EventField)) -> &'static str {
        use EventField::{Flag, Name, Uint};
        match *self {
            EventKind::HostRead => "host_read",
            EventKind::HostProgram => "host_program",
            EventKind::DeltaProgram { bytes } => {
                field("bytes", Uint(bytes.into()));
                "delta_program"
            }
            EventKind::GcMigration => "gc_migration",
            EventKind::Erase => "erase",
            EventKind::FlushIpa { records } => {
                field("records", Uint(records.into()));
                "flush_ipa"
            }
            EventKind::FlushOop => "flush_oop",
            EventKind::Evict => "evict",
            EventKind::IsppViolation => "ispp_violation",
            EventKind::ProgramFault { permanent } => {
                field("permanent", Flag(permanent));
                "program_fault"
            }
            EventKind::DeltaFault => "delta_fault",
            EventKind::EraseFault => "erase_fault",
            EventKind::BlockRetired => "block_retired",
            EventKind::DeltaFallback => "delta_fallback",
            EventKind::ScrubRefresh => "scrub_refresh",
            EventKind::GroupCommitFlush { txns } => {
                field("txns", Uint(txns.into()));
                "group_commit_flush"
            }
            EventKind::LockWait => "lock_wait",
            EventKind::TxParked => "tx_parked",
            EventKind::SpanOpen { id, parent, cat } => {
                field("span", Uint(id.0));
                if let Some(parent) = parent {
                    field("parent", Uint(parent.0));
                }
                field("cat", Name(cat.name()));
                "span_open"
            }
            EventKind::SpanClose { id } => {
                field("span", Uint(id.0));
                "span_close"
            }
            EventKind::CmdSubmit { cmd, class, origin, chip, queue_wait_ns, span } => {
                field("cmd", Uint(cmd));
                field("class", Name(class.name()));
                field("origin", Name(origin.name()));
                field("chip", Uint(chip.into()));
                field("queue_wait_ns", Uint(queue_wait_ns));
                if let Some(span) = span {
                    field("span", Uint(span.0));
                }
                "cmd_submit"
            }
            EventKind::CmdComplete { cmd, submitted_ns, start_ns, done_ns } => {
                field("cmd", Uint(cmd));
                field("submitted_ns", Uint(submitted_ns));
                field("start_ns", Uint(start_ns));
                field("done_ns", Uint(done_ns));
                "cmd_complete"
            }
            EventKind::StatsReset => "stats_reset",
            EventKind::SchemeChange { epoch, old, new } => {
                field("epoch", Uint(epoch));
                field("old_n", Uint(old.0.into()));
                field("old_m", Uint(old.1.into()));
                field("old_v", Uint(old.2.into()));
                field("new_n", Uint(new.0.into()));
                field("new_m", Uint(new.1.into()));
                field("new_v", Uint(new.2.into()));
                "scheme_change"
            }
            EventKind::ProfileSnapshot { observations, body_p50, body_p95, meta_p99 } => {
                field("observations", Uint(observations));
                field("body_p50", Uint(body_p50.into()));
                field("body_p95", Uint(body_p95.into()));
                field("meta_p99", Uint(meta_p99.into()));
                "profile_snapshot"
            }
            EventKind::CheckpointBegin => "checkpoint_begin",
            EventKind::CheckpointEnd { active, dirty } => {
                field("active", Uint(active.into()));
                field("dirty", Uint(dirty.into()));
                "checkpoint_end"
            }
            EventKind::RecoveryPhase { phase, records } => {
                field("phase", Name(phase.name()));
                field("records", Uint(records));
                "recovery_phase"
            }
        }
    }
}

/// The three ARIES restart phases, for [`EventKind::RecoveryPhase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhaseKind {
    /// Forward scan from the checkpoint's Begin LSN rebuilding the
    /// transaction table and dirty-page table.
    Analysis,
    /// History repetition from the dirty-page table's minimum recLSN.
    Redo,
    /// Loser-transaction rollback via compensation records.
    Undo,
}

impl RecoveryPhaseKind {
    /// Stable lower-case name for sinks and reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhaseKind::Analysis => "analysis",
            RecoveryPhaseKind::Redo => "redo",
            RecoveryPhaseKind::Undo => "undo",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic per-device sequence number (total order of emissions).
    pub seq: u64,
    /// Simulated device clock at emission, nanoseconds.
    pub t_ns: u64,
    /// Region the operation belongs to, when the emitting layer knows it.
    pub region: Option<u32>,
    /// Logical page address, when the emitting layer knows it.
    pub lba: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// A sink for trace events. Implementations must be cheap — they run
/// inline on the I/O path (the reference sinks are a bounded ring buffer
/// and a buffered JSONL writer in `ipa-obs`).
pub trait Observer: Send {
    /// Receive one event.
    fn on_event(&mut self, event: ObsEvent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Collect(Vec<ObsEvent>);

    impl Observer for Collect {
        fn on_event(&mut self, event: ObsEvent) {
            self.0.push(event);
        }
    }

    #[test]
    fn observer_trait_is_object_safe() {
        let mut obs: Box<dyn Observer> = Box::<Collect>::default();
        obs.on_event(ObsEvent {
            seq: 0,
            t_ns: 1,
            region: Some(2),
            lba: Some(3),
            kind: EventKind::DeltaProgram { bytes: 46 },
        });
    }
}
