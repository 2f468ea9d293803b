//! The flash device: chips behind a command interface with timing, wear,
//! reliability and statistics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chip::{Chip, ChipCounters};
use crate::counters::Counters;
use crate::error::FlashError;
use crate::fault::{FaultInjector, FaultOp, FaultPlan, FaultVerdict};
use crate::geometry::{CellType, FlashGeometry, PageKind, Ppa};
use crate::obs::{EventKind, ObsEvent, Observer, OpClass, SpanCategory, SpanId};
use crate::page::{PageData, PageState, SparePages};
use crate::reliability::{BitError, ErrorKind, ErrorLedger, ReadOutcome, ReliabilityConfig};
use crate::sched::{CmdId, Completion, IoScheduler};
use crate::stats::FlashStats;
use crate::timing::{FlashTiming, SimClock, NANOS_PER_MILLI};
use crate::Result;

/// Whether an operation is issued on behalf of the host or by the flash
/// management layer (GC, wear leveling, cleaners). The origin decides the
/// statistics bucket and whether the host waits: host operations are
/// synchronous (they advance the simulated host clock by their full
/// waiting and execution time), background operations only occupy chip
/// time. Every origin is placed on its chip by the same rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOrigin {
    /// Host-issued synchronous I/O (a DBMS read, or a blocking eviction
    /// write): waits for the chip and advances the host clock.
    Host,
    /// Host-issued asynchronous I/O (background cleaner / checkpoint
    /// writes under a steal/no-force policy): counted as host work and
    /// latency-tracked, but only occupies chip time — the host clock does
    /// not block on it.
    HostAsync,
    /// Internal (garbage collection migration, wear leveling, refresh).
    Background,
}

impl OpOrigin {
    /// Stable lower-case name (trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            OpOrigin::Host => "host",
            OpOrigin::HostAsync => "host_async",
            OpOrigin::Background => "background",
        }
    }
}

/// What a command carries besides its operands: the origin that decides
/// its statistics bucket and scheduling, and the region and logical page it
/// is for, which every trace event of the command carries. A management
/// layer fills in what it knows; the constructors leave both empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCtx {
    /// Synchronous host I/O, asynchronous host I/O (cleaner / checkpoint
    /// writes) or background management work.
    pub origin: OpOrigin,
    /// Region the command works for, when the issuing layer has regions.
    pub region: Option<u32>,
    /// Logical page the command reads or writes, when it has one.
    pub lba: Option<u64>,
}

impl Default for IoCtx {
    fn default() -> Self {
        OpOrigin::Host.into()
    }
}

impl IoCtx {
    /// Synchronous host I/O (the default).
    pub fn host() -> Self {
        IoCtx::default()
    }

    /// Asynchronous host I/O: counted and latency-tracked as host work,
    /// but the host clock does not block on it.
    pub fn host_async() -> Self {
        OpOrigin::HostAsync.into()
    }

    /// Background management work (GC, wear leveling, cleaners).
    pub fn background() -> Self {
        OpOrigin::Background.into()
    }
}

impl From<OpOrigin> for IoCtx {
    fn from(origin: OpOrigin) -> Self {
        IoCtx { origin, region: None, lba: None }
    }
}

/// Timing outcome of a single flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Host-visible latency in nanoseconds (wait + execution).
    pub latency_ns: u64,
    /// Absolute simulated completion time.
    pub completed_at_ns: u64,
    /// ECC outcome for reads; `ReadOutcome::Clean` for non-read operations.
    pub read_outcome: ReadOutcome,
}

/// Full configuration of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Physical organization.
    pub geometry: FlashGeometry,
    /// Operation latencies.
    pub timing: FlashTiming,
    /// Bit-error model.
    pub reliability: ReliabilityConfig,
    /// Operation-fault model (program/erase-status failures). The default
    /// plan is inert: no RNG draws, no behaviour change.
    pub fault: FaultPlan,
    /// Override of the per-page append budget (defaults to the cell type's
    /// [`CellType::max_appends`]).
    pub max_appends: Option<u32>,
    /// Override of the per-block endurance limit (defaults to the cell
    /// type's [`CellType::endurance_limit`]). An erase of a block that has
    /// reached it fails and retires the block; tests shrink it to reach
    /// wear-out quickly.
    pub endurance_limit: Option<u64>,
    /// Host command queue depth: how many host-origin commands may be in
    /// flight before a further submission blocks on the earliest completion.
    /// Depth 1 reproduces fully synchronous dispatch, as on the OpenSSD
    /// board (no NCQ); every profile starts at 1.
    pub queue_depth: u32,
}

impl FlashConfig {
    /// A small SLC device for unit tests and examples: 1 chip, 64 blocks of
    /// 64 × 4 KiB pages (16 MiB).
    pub fn small_slc() -> Self {
        FlashConfig {
            geometry: FlashGeometry {
                chips: 1,
                blocks_per_chip: 64,
                pages_per_block: 64,
                page_size: 4096,
                oob_size: 128,
                cell_type: CellType::Slc,
            },
            timing: FlashTiming::slc(),
            reliability: ReliabilityConfig::default(),
            fault: FaultPlan::default(),
            max_appends: None,
            endurance_limit: None,
            queue_depth: 1,
        }
    }

    /// The paper's real-time Flash emulator profile (§8.1): 16 SLC chips,
    /// page-parallel host dispatch. Block/page counts are parameters so
    /// experiments can scale the device to their database size.
    pub fn emulator_slc(blocks_per_chip: u32, pages_per_block: u32, page_size: usize) -> Self {
        let base = FlashConfig::small_slc();
        FlashConfig {
            geometry: FlashGeometry {
                chips: 16,
                blocks_per_chip,
                pages_per_block,
                page_size,
                ..base.geometry
            },
            ..base
        }
    }

    /// The OpenSSD Jasmine profile (Appendix D): MLC flash, 8 dual-die
    /// packages modelled as 8 chips, at host queue depth 1 (no NCQ), so
    /// host I/O is serial while background work still overlaps on other
    /// chips.
    pub fn openssd_mlc(blocks_per_chip: u32, pages_per_block: u32, page_size: usize) -> Self {
        let emulator = FlashConfig::emulator_slc(blocks_per_chip, pages_per_block, page_size);
        FlashConfig {
            geometry: FlashGeometry { chips: 8, cell_type: CellType::Mlc, ..emulator.geometry },
            timing: FlashTiming::mlc(),
            ..emulator
        }
    }

    /// Effective per-page append budget.
    pub fn max_appends(&self) -> u32 {
        self.max_appends.unwrap_or_else(|| self.geometry.cell_type.max_appends())
    }

    /// Effective per-block endurance limit.
    pub fn endurance_limit(&self) -> u64 {
        self.endurance_limit.unwrap_or_else(|| self.geometry.cell_type.endurance_limit())
    }
}

/// Which latency histogram a command's host-visible latency lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LatClass {
    /// Host reads.
    Read,
    /// Host/async-host programs and delta appends.
    Write,
    /// Erase and refresh: device-internal, not latency-tracked.
    None,
}

impl OpClass {
    /// The latency histogram an operation of this class lands in (refresh
    /// re-programs are device hygiene, not host-visible latency).
    fn latency_class(self) -> LatClass {
        match self {
            OpClass::Read => LatClass::Read,
            OpClass::Program | OpClass::ProgramDelta => LatClass::Write,
            OpClass::Erase | OpClass::Refresh => LatClass::None,
        }
    }
}

/// Erase-count distribution across all blocks of a device.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct WearHistogram {
    /// Lowest per-block erase count.
    pub min: u64,
    /// Highest per-block erase count.
    pub max: u64,
    /// Mean per-block erase count.
    pub mean: f64,
    /// Eight equal-width buckets over `[min, max]`.
    pub buckets: [u64; 8],
}

/// The simulated flash device.
///
/// All operations validate addresses against the geometry, enforce the
/// monotone-charge rule, account wear, inject/correct bit errors per the
/// reliability model and produce latencies from the timing model.
pub struct FlashDevice {
    config: FlashConfig,
    chips: Vec<Chip>,
    sched: IoScheduler,
    clock: SimClock,
    stats: FlashStats,
    ledger: ErrorLedger,
    fault: FaultInjector,
    rng: StdRng,
    /// Page buffers given up by [`FlashDevice::discard`], detached by
    /// erases or handed back through [`FlashDevice::recycle`], reused by
    /// the next program or read — the one given up last first.
    spare: SparePages,
    /// What the last [`Self::drain`] retired; empty between drains.
    drained: Vec<Completion>,
    /// What [`FlashDevice::peek`] shows for an erased page, which holds no
    /// buffer of its own. Built on first use.
    erased_image: std::sync::OnceLock<Box<[u8]>>,
    observer: Option<Box<dyn Observer>>,
    obs_seq: u64,
    /// Innermost-open-first stack of causal spans (transaction, flush,
    /// recovery, GC episode). Ids are minted here so they are unique and
    /// creation-ordered per device.
    span_stack: Vec<SpanId>,
    next_span: u64,
    /// Clock time the host spent in full-queue admission waits, not yet
    /// attributed to a command (consumed by the next host dispatch).
    pending_queue_wait_ns: u64,
    /// Whether per-command submit/complete lifecycle events are emitted
    /// (opt-in: they multiply trace volume and change no statistics).
    cmd_tracing: bool,
}

impl std::fmt::Debug for FlashDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlashDevice")
            .field("geometry", &self.config.geometry)
            .field("now_ns", &self.clock.now_ns())
            .finish_non_exhaustive()
    }
}

impl FlashDevice {
    /// Create a device with a fixed RNG seed (deterministic reliability
    /// model).
    pub fn with_seed(config: FlashConfig, seed: u64) -> Self {
        let chips = (0..config.geometry.chips).map(|_| Chip::new(&config.geometry)).collect();
        let sched = IoScheduler::new(config.geometry.chips, config.queue_depth);
        FlashDevice {
            chips,
            sched,
            clock: SimClock::new(),
            stats: FlashStats::default(),
            ledger: ErrorLedger::default(),
            fault: FaultInjector::new(config.fault.clone()),
            rng: StdRng::seed_from_u64(seed),
            spare: SparePages::new(config.geometry.page_size),
            drained: Vec::new(),
            erased_image: std::sync::OnceLock::new(),
            config,
            observer: None,
            obs_seq: 0,
            span_stack: Vec::new(),
            next_span: 0,
            pending_queue_wait_ns: 0,
            cmd_tracing: false,
        }
    }

    /// Create a device with the default seed.
    pub fn new(config: FlashConfig) -> Self {
        FlashDevice::with_seed(config, 0x1AA7)
    }

    /// Device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Reset statistics (e.g. after warm-up). Also clears the per-chip
    /// operation counters; the trace sequence number keeps running so a
    /// trace spanning a reset stays totally ordered.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        for chip in &mut self.chips {
            chip.counters_mut().reset();
        }
        // Mark the reset in the trace so offline analyzers can window
        // their attribution to the post-warm-up interval the counters
        // cover.
        self.emit(EventKind::StatsReset, None, None);
    }

    /// Attach a trace observer. Every subsequent flash operation (and every
    /// logical event forwarded through [`FlashDevice::emit`]) is delivered
    /// to it, stamped with a monotonic sequence number and the simulated
    /// device clock.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// Detach the current observer, returning it so callers can drain
    /// buffered events.
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.observer.take()
    }

    /// Whether an observer is attached: a layer that builds an event's
    /// payload only for the trace asks first.
    #[inline]
    pub fn observing(&self) -> bool {
        self.observer.is_some()
    }

    /// Emit one trace event through the device's sequence counter and
    /// clock. Used internally for physical events and by upper layers
    /// (NoFTL, the engine) for logical events.
    #[inline]
    pub fn emit(&mut self, kind: EventKind, region: Option<u32>, lba: Option<u64>) {
        if let Some(obs) = self.observer.as_mut() {
            let seq = self.obs_seq;
            self.obs_seq += 1;
            obs.on_event(ObsEvent { seq, t_ns: self.clock.now_ns(), region, lba, kind });
        }
    }

    /// Enable or disable per-command lifecycle tracing: with an observer
    /// attached and tracing on, every dispatched command additionally
    /// emits [`EventKind::CmdSubmit`] at admission and
    /// [`EventKind::CmdComplete`] at retirement. Off by default — the
    /// events triple trace volume and change no statistics or timing.
    pub fn set_cmd_tracing(&mut self, on: bool) {
        self.cmd_tracing = on;
    }

    /// Run `f` under a causal span of category `cat` whose parent is
    /// `parent` (`None` for a root span; [`FlashDevice::current_span`] to
    /// nest under the innermost open one). The span closes when `f`
    /// returns, whichever way it returns — a `?` inside `f` leaves `f`,
    /// not this function — so a span opened here cannot leak.
    #[expect(
        clippy::disallowed_methods,
        reason = "the device's one pairing of a raw open with its close"
    )]
    pub fn in_span<T>(
        &mut self,
        cat: SpanCategory,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let span = self.open_span_under(cat, parent);
        let out = f(self, span);
        self.close_span(span);
        out
    }

    /// Open a causal span with an explicit parent (`None` for a root
    /// span) whose close is deferred to another call — the engine's
    /// transaction spans, opened at begin and closed at commit or abort.
    /// Everything else uses [`FlashDevice::in_span`]; `crates/clippy.toml`
    /// bans this method and [`FlashDevice::close_span`] elsewhere.
    pub fn open_span_under(&mut self, cat: SpanCategory, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.emit(EventKind::SpanOpen { id, parent, cat }, None, None);
        self.span_stack.push(id);
        id
    }

    /// Close a span. Spans may close out of stack order (interleaved
    /// transactions): the id is removed wherever it sits; unknown ids are
    /// ignored so a double close cannot corrupt the stack.
    pub fn close_span(&mut self, id: SpanId) {
        if let Some(pos) = self.span_stack.iter().rposition(|&s| s == id) {
            self.span_stack.remove(pos);
            self.emit(EventKind::SpanClose { id }, None, None);
        }
    }

    /// The spans currently open, outermost first.
    pub fn open_spans(&self) -> &[SpanId] {
        &self.span_stack
    }

    /// The innermost open span, if any.
    pub fn current_span(&self) -> Option<SpanId> {
        self.span_stack.last().copied()
    }

    /// Per-chip cumulative operation counters, indexed by chip id.
    pub fn chip_counters(&self) -> Vec<ChipCounters> {
        self.chips.iter().map(Chip::counters).collect()
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Advance the simulated host clock by non-I/O work (transaction CPU
    /// time, think time).
    pub fn advance_clock(&mut self, delta_ns: u64) {
        self.clock.advance(delta_ns);
    }

    fn check(&self, ppa: Ppa) -> Result<()> {
        if self.config.geometry.contains(ppa) {
            Ok(())
        } else {
            Err(FlashError::AddressOutOfRange(ppa))
        }
    }

    /// Back-pressure bound: background and asynchronous host operations may
    /// run at most this far ahead of the host clock. A saturated device
    /// stalls its submitters (bounded queue depth), transferring overload
    /// into simulated time — without this, background work would race
    /// arbitrarily far ahead and every foreground read would appear to wait
    /// behind an unbounded queue.
    const BACKPRESSURE_NS: u64 = 5 * NANOS_PER_MILLI;

    /// Dispatch a validated command onto its chip's queue and start
    /// tracking it. The clock is *not* advanced for host commands here —
    /// that happens when the command is completed — but backpressure
    /// stalls for background/async work apply at submission, exactly as
    /// in the synchronous path.
    fn finish_submit(
        &mut self,
        chip: u32,
        origin: OpOrigin,
        class: OpClass,
        duration_ns: u64,
        read_outcome: ReadOutcome,
        data: Option<Vec<u8>>,
    ) -> CmdId {
        let now = self.clock.now_ns();
        let (start, done) = self.sched.dispatch(chip, now, duration_ns);
        self.chips[chip as usize].counters_mut().busy_ns += duration_ns;
        if origin != OpOrigin::Host && done.saturating_sub(now) > Self::BACKPRESSURE_NS {
            // The device is saturated: the submitter stalls until the
            // backlog drops back under the bound.
            self.clock.advance_to(done - Self::BACKPRESSURE_NS);
        }
        let latency_ns = done - now;
        match class.latency_class() {
            LatClass::Read if origin == OpOrigin::Host => {
                self.stats.read_latency.record(latency_ns)
            }
            LatClass::Write if matches!(origin, OpOrigin::Host | OpOrigin::HostAsync) => {
                self.stats.write_latency.record(latency_ns)
            }
            _ => {}
        }
        // Admission stalls were accumulated by `reserve_host_slot`; the
        // host command dispatched right after the wait owns them.
        let queue_wait_ns = if origin == OpOrigin::Host {
            std::mem::take(&mut self.pending_queue_wait_ns)
        } else {
            0
        };
        self.stats.queue_wait_ns_total += queue_wait_ns;
        let id = self.sched.push(Completion {
            id: CmdId(0), // assigned by the scheduler
            chip,
            origin,
            submitted_at_ns: now,
            started_at_ns: start,
            queue_wait_ns,
            result: OpResult { latency_ns, completed_at_ns: done, read_outcome },
            data,
        });
        self.stats.queue_highwater =
            self.stats.queue_highwater.max(self.sched.host_inflight() as u64);
        if self.cmd_tracing {
            let span = self.current_span();
            self.emit(
                EventKind::CmdSubmit { cmd: id.0, class, origin, chip, queue_wait_ns, span },
                None,
                None,
            );
        }
        id
    }

    /// Emit the retirement half of a command's lifecycle (opt-in; see
    /// [`FlashDevice::set_cmd_tracing`]). Carries the chip-schedule
    /// timestamps so the latency decomposition — queue wait, chip-busy
    /// inheritance, op service — is reconstructible offline.
    fn emit_cmd_complete(&mut self, c: &Completion) {
        if self.cmd_tracing {
            self.emit(
                EventKind::CmdComplete {
                    cmd: c.id.0,
                    submitted_ns: c.submitted_at_ns,
                    start_ns: c.started_at_ns,
                    done_ns: c.result.completed_at_ns,
                },
                None,
                None,
            );
        }
    }

    /// Block until a host queue slot is free, counting any full-queue
    /// waits. Upper layers call this *before* side effects that must
    /// happen at the post-wait clock (e.g. GC triggered by an allocation
    /// for a queued write); the host-origin `submit_*` methods call it
    /// implicitly.
    pub fn reserve_host_slot(&mut self) {
        let t0 = self.clock.now_ns();
        self.stats.queue_waits += self.sched.admit_host(&mut self.clock);
        self.pending_queue_wait_ns += self.clock.now_ns() - t0;
    }

    /// Retire a specific command. For host-origin commands the simulated
    /// clock advances to the completion time (the host blocks on the
    /// result); async/background completions leave the clock untouched.
    pub fn complete(&mut self, id: CmdId) -> Result<Completion> {
        let c = self.sched.take(id).ok_or(FlashError::UnknownCommand(id))?;
        if c.origin == OpOrigin::Host {
            self.clock.advance_to(c.result.completed_at_ns);
        }
        self.emit_cmd_complete(&c);
        Ok(c)
    }

    /// Retire *all* in-flight commands, advancing the clock to the last
    /// host-origin completion (the host barrier at the end of a batch), and
    /// hand out their completions in completion order. The completions sit
    /// in a vector the device keeps, so a barrier allocates nothing; the
    /// clock has advanced whether or not the caller looks at any of them.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Completion> {
        let mut out = std::mem::take(&mut self.drained);
        self.sched.drain_all(&mut out);
        if let Some(t) = out
            .iter()
            .filter(|c| c.origin == OpOrigin::Host)
            .map(|c| c.result.completed_at_ns)
            .max()
        {
            self.clock.advance_to(t);
        }
        for c in &out {
            self.emit_cmd_complete(c);
        }
        self.drained = out;
        self.drained.drain(..)
    }

    /// Host queue depth, as configured (at least 1).
    pub fn queue_depth(&self) -> u32 {
        self.sched.queue_depth()
    }

    /// Number of host-origin commands currently in flight.
    pub fn host_inflight(&self) -> usize {
        self.sched.host_inflight()
    }

    /// Commands of any origin submitted and not yet handed back through
    /// [`FlashDevice::complete`] or [`FlashDevice::drain`]. Zero whenever
    /// the layers above are between operations; they assert that in debug
    /// builds.
    pub fn inflight(&self) -> usize {
        self.sched.inflight()
    }

    /// Current lifecycle state of a page.
    pub fn page_state(&self, ppa: Ppa) -> Result<PageState> {
        self.check(ppa)?;
        Ok(self.chips[ppa.chip as usize].block(ppa.block).page(ppa.page).state())
    }

    /// LSB/MSB kind of a page per the geometry.
    pub fn page_kind(&self, ppa: Ppa) -> PageKind {
        self.config.geometry.page_kind(ppa.page)
    }

    /// Zero-copy view of a page's main area, bypassing timing, statistics
    /// and the error model: what the cells hold, for tests that check the
    /// device itself. `crates/clippy.toml` bans it in every crate of the
    /// stack. An erased page reads as all ones; a stale one has nothing to
    /// show ([`FlashError::PageStale`]).
    pub fn peek(&self, ppa: Ppa) -> Result<&[u8]> {
        self.check(ppa)?;
        match self.chips[ppa.chip as usize].block(ppa.block).page(ppa.page).readable(ppa) {
            Err(FlashError::ReadOfErasedPage(_)) => Ok(self
                .erased_image
                .get_or_init(|| vec![0xFF; self.config.geometry.page_size].into_boxed_slice())),
            main => main,
        }
    }

    /// Hand a page buffer back for reuse by a later program or read — the
    /// one a read returned once its bytes are no longer needed, or any
    /// other buffer of exactly one page. Optional: a caller that never
    /// recycles only makes the device allocate. A buffer of any other
    /// length is dropped.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.spare.put(buf);
    }

    /// Buffers currently waiting for reuse.
    #[cfg(test)]
    pub(crate) fn spare_len(&self) -> usize {
        self.spare.len()
    }

    /// Zero-copy view of a page's OOB area (bypasses timing/stats).
    #[cfg(test)]
    pub(crate) fn peek_oob(&self, ppa: Ppa) -> Result<&[u8]> {
        self.check(ppa)?;
        Ok(self.chips[ppa.chip as usize].block(ppa.block).page(ppa.page).oob())
    }

    /// Start a command: a host command first waits for a queue slot.
    fn admit(&mut self, ctx: IoCtx) {
        if ctx.origin == OpOrigin::Host {
            self.reserve_host_slot();
        }
    }

    /// The page at a checked address.
    fn page_mut(&mut self, ppa: Ppa) -> &mut PageData {
        self.chips[ppa.chip as usize].block_mut(ppa.block).page_mut(ppa.page)
    }

    /// Queue a page read; the page data travels in the completion.
    ///
    /// Applies the ECC model: raw bit errors within the code's capability
    /// are corrected (and counted); beyond it the read fails with
    /// [`FlashError::UncorrectableEcc`].
    pub fn submit_read(&mut self, ppa: Ppa, ctx: IoCtx) -> Result<CmdId> {
        self.submit_read_cmd(ppa, ctx, true)
    }

    /// Queue a copy-back read: the first half of moving a page without a
    /// host transfer (NAND's copy-back pair, completed by
    /// [`FlashDevice::submit_copyback_program`]). Everything a
    /// [`FlashDevice::submit_read`] does — dispatch, the latency of a whole
    /// page read, ECC classification, counters, events — except that the
    /// completion carries no data: no byte leaves the device.
    pub fn submit_copyback_read(&mut self, ppa: Ppa, ctx: IoCtx) -> Result<CmdId> {
        self.submit_read_cmd(ppa, ctx, false)
    }

    /// A page read, handing the bytes out if `transfer` is set.
    fn submit_read_cmd(&mut self, ppa: Ppa, ctx: IoCtx, transfer: bool) -> Result<CmdId> {
        self.admit(ctx);
        self.check(ppa)?;
        let main = self.chips[ppa.chip as usize].block(ppa.block).page(ppa.page).readable(ppa)?;
        let outcome = self
            .ledger
            .classify_read(ppa, self.config.reliability.ecc_correctable_bits)
            .map_err(|raw| FlashError::UncorrectableEcc {
                ppa,
                bit_errors: raw,
                correctable: self.config.reliability.ecc_correctable_bits,
            })?;
        let latency = self.config.timing.read_latency(main.len());
        let data = transfer.then(|| self.spare.take_copy(main));
        if let ReadOutcome::Corrected { corrected } = outcome {
            self.stats.corrected_bit_errors += corrected as u64;
        }
        match ctx.origin {
            OpOrigin::Host | OpOrigin::HostAsync => self.stats.host_reads += 1,
            OpOrigin::Background => self.stats.gc_reads += 1,
        }
        self.chips[ppa.chip as usize].counters_mut().reads += 1;
        if matches!(ctx.origin, OpOrigin::Host | OpOrigin::HostAsync) {
            self.emit(EventKind::HostRead, ctx.region, ctx.lba);
        }
        Ok(self.finish_submit(ppa.chip, ctx.origin, OpClass::Read, latency, outcome, data))
    }

    /// Read a page's main area synchronously (submit + complete one).
    pub fn read(&mut self, ppa: Ppa, ctx: impl Into<IoCtx>) -> Result<(Vec<u8>, OpResult)> {
        let id = self.submit_read(ppa, ctx.into())?;
        let c = self.complete(id)?;
        let data = c.data.ok_or(FlashError::Internal("read completion carries no data"))?;
        Ok((data, c.result))
    }

    /// Read a page's OOB area. Real controllers fetch OOB together with the
    /// main area, so this carries no additional latency or statistics.
    pub fn read_oob(&self, ppa: Ppa) -> Result<Vec<u8>> {
        self.check(ppa)?;
        Ok(self.chips[ppa.chip as usize].block(ppa.block).page(ppa.page).oob().to_vec())
    }

    /// Queue a full-page program (out-of-place write target) of the main
    /// area plus the `(offset, bytes)` writes `oob` into the OOB area: one
    /// command, one verdict, no extra latency. The page must be erased.
    /// Bytes left `0xFF` remain unprogrammed and can absorb later in-place
    /// appends. A refused or faulted command changes neither half.
    pub fn submit_program(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        self.admit(ctx);
        self.program_verdict(ppa, ctx)?;
        let page = self.chips[ppa.chip as usize].block_mut(ppa.block).page_mut(ppa.page);
        page.program(ppa, data, oob, &mut self.spare)?;
        Ok(self.finish_program(ppa, ctx))
    }

    /// Queue a copy-back program: the second half of moving page `src` to
    /// the erased page `dst` (see [`FlashDevice::submit_copyback_read`]).
    /// `src` must be readable; then `dst` goes through every check of
    /// [`FlashDevice::submit_program`] in its order — address, retired
    /// block, fault verdict, erased — and only once all have passed does
    /// `src`'s main-area buffer move to `dst` (no byte is copied) and its
    /// OOB bytes get copied after it. A refused or faulted command changes
    /// neither page. From then on `src` is [`PageState::Stale`] until its
    /// block is erased; its block's state is left as it was, so a move out
    /// of a retired block leaves it retired. Counted, traced and timed as a
    /// program of a whole page.
    pub fn submit_copyback_program(&mut self, src: Ppa, dst: Ppa, ctx: IoCtx) -> Result<CmdId> {
        self.admit(ctx);
        self.check(src)?;
        self.chips[src.chip as usize].block(src.block).page(src.page).readable(src)?;
        self.program_verdict(dst, ctx)?;
        self.chips[dst.chip as usize].block(dst.block).page(dst.page).check_erased(dst)?;
        // The source leaves its slot for the length of the move (an empty
        // placeholder, which allocates nothing, stands in): `dst` takes its
        // buffer and copies its OOB, and it goes back stale.
        let mut source = std::mem::take(self.page_mut(src));
        self.page_mut(dst).move_from(&mut source);
        *self.page_mut(src) = source;
        Ok(self.finish_program(dst, ctx))
    }

    /// What every program and append checks first: address, block health.
    fn check_writable(&self, ppa: Ppa) -> Result<()> {
        self.check(ppa)?;
        if self.chips[ppa.chip as usize].block(ppa.block).is_retired() {
            return Err(FlashError::BlockRetired { chip: ppa.chip, block: ppa.block });
        }
        Ok(())
    }

    /// What a full program checks before it touches a cell, in order: the
    /// address, the block's health, the fault plan's verdict (a permanent
    /// fault retires the block).
    fn program_verdict(&mut self, ppa: Ppa, ctx: IoCtx) -> Result<()> {
        self.check_writable(ppa)?;
        match self.fault.check(FaultOp::Program) {
            FaultVerdict::Pass => Ok(()),
            FaultVerdict::Transient => {
                self.stats.program_failures += 1;
                self.emit(EventKind::ProgramFault { permanent: false }, ctx.region, ctx.lba);
                Err(FlashError::ProgramFailed { ppa, permanent: false })
            }
            FaultVerdict::Permanent => {
                self.stats.program_failures += 1;
                self.emit(EventKind::ProgramFault { permanent: true }, ctx.region, ctx.lba);
                self.retire_block(ppa.chip, ppa.block, ctx);
                Err(FlashError::ProgramFailed { ppa, permanent: true })
            }
        }
    }

    /// Account and dispatch a full-page program whose cells are written.
    fn finish_program(&mut self, ppa: Ppa, ctx: IoCtx) -> CmdId {
        let msb = self.page_kind(ppa) == PageKind::Msb;
        // A fresh program defines new cell contents; stale error bookkeeping
        // for the previous residency is gone.
        self.ledger.clear(ppa);
        match ctx.origin {
            OpOrigin::Host | OpOrigin::HostAsync => self.stats.host_programs += 1,
            OpOrigin::Background => self.stats.gc_programs += 1,
        }
        self.chips[ppa.chip as usize].counters_mut().programs += 1;
        let kind = match ctx.origin {
            OpOrigin::Host | OpOrigin::HostAsync => EventKind::HostProgram,
            OpOrigin::Background => EventKind::GcMigration,
        };
        self.emit(kind, ctx.region, ctx.lba);
        self.apply_interference(ppa);
        let latency = self.config.timing.program_latency(self.config.geometry.page_size, msb);
        let class = OpClass::Program;
        self.finish_submit(ppa.chip, ctx.origin, class, latency, ReadOutcome::Clean, None)
    }

    /// Full-page program, no OOB write, synchronously (submit + complete).
    pub fn program(&mut self, ppa: Ppa, data: &[u8], ctx: impl Into<IoCtx>) -> Result<OpResult> {
        let id = self.submit_program(ppa, data, &[], ctx.into())?;
        Ok(self.complete(id)?.result)
    }

    /// Queue an ISPP partial program — the physical backend of the paper's
    /// `write_delta` command (§7). Appends `data` at `offset` within an
    /// already-programmed page, and `oob` (the record's `ECC_delta_i`) as
    /// [`FlashDevice::submit_program`] does, enforcing the monotone-charge
    /// rule on both halves and the per-page append budget.
    pub fn submit_program_partial(
        &mut self,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        ctx: IoCtx,
    ) -> Result<CmdId> {
        self.admit(ctx);
        self.check_writable(ppa)?;
        if self.fault.check(FaultOp::DeltaProgram) != FaultVerdict::Pass {
            // Delta faults are always transient for the block: the append is
            // refused, the page keeps its pre-append contents, and the host
            // falls back to a full out-of-place write.
            self.stats.delta_program_failures += 1;
            self.emit(EventKind::DeltaFault, ctx.region, ctx.lba);
            return Err(FlashError::ProgramFailed { ppa, permanent: false });
        }
        let max = self.config.max_appends();
        let page = self.chips[ppa.chip as usize].block_mut(ppa.block).page_mut(ppa.page);
        let attempt = page.program_partial(ppa, offset, data, oob, max, &mut self.spare);
        if let Err(e) = attempt {
            if matches!(e, FlashError::IsppViolation { .. }) {
                self.stats.ispp_violations += 1;
                self.emit(EventKind::IsppViolation, ctx.region, ctx.lba);
            }
            return Err(e);
        }
        match ctx.origin {
            OpOrigin::Host | OpOrigin::HostAsync => {
                self.stats.host_delta_programs += 1;
                self.stats.delta_bytes += data.len() as u64;
            }
            OpOrigin::Background => self.stats.gc_programs += 1,
        }
        self.chips[ppa.chip as usize].counters_mut().programs += 1;
        let kind = match ctx.origin {
            OpOrigin::Host | OpOrigin::HostAsync => {
                EventKind::DeltaProgram { bytes: data.len() as u32 }
            }
            OpOrigin::Background => EventKind::GcMigration,
        };
        self.emit(kind, ctx.region, ctx.lba);
        self.apply_interference(ppa);
        let latency = self.config.timing.delta_latency(data.len());
        let class = OpClass::ProgramDelta;
        Ok(self.finish_submit(ppa.chip, ctx.origin, class, latency, ReadOutcome::Clean, None))
    }

    /// ISPP partial program, no OOB write, synchronously (submit + complete).
    pub fn program_partial(
        &mut self,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        ctx: impl Into<IoCtx>,
    ) -> Result<OpResult> {
        let id = self.submit_program_partial(ppa, offset, data, &[], ctx.into())?;
        Ok(self.complete(id)?.result)
    }

    /// Give up the bytes of a page nothing maps any more: the management
    /// layer calls this when a mapping lets go of `ppa`. The page's
    /// main-area buffer goes to the spare list at once, so the next program
    /// or read takes it while it is still in cache, instead of waiting on
    /// the page until its block's erase. The page becomes
    /// [`PageState::Stale`]: its cells stay charged — no program or append
    /// until the erase, the append count and the block's wear untouched —
    /// and its OOB bytes stay readable, but a read, copy-back, refresh or
    /// `peek` is refused ([`FlashError::PageStale`]). A stale or erased
    /// page has nothing to give up and is left as it is. Costs no simulated
    /// time, and counts and traces nothing: the cells do not change.
    pub fn discard(&mut self, ppa: Ppa) -> Result<()> {
        self.check(ppa)?;
        let page = self.chips[ppa.chip as usize].block_mut(ppa.block).page_mut(ppa.page);
        page.discard(&mut self.spare);
        Ok(())
    }

    /// Queue a block erase. Counts wear; an erase-status failure — the
    /// fault plan's, or wear-out once the block has reached the endurance
    /// limit — retires the block ([`FlashError::EraseFailed`]).
    pub fn submit_erase(&mut self, chip: u32, block: u32, ctx: IoCtx) -> Result<CmdId> {
        self.admit(ctx);
        let probe = Ppa::new(chip, block, 0);
        self.check(probe)?;
        // The fault plan's verdict is drawn first, so fault sequences do not
        // depend on wear. A retired block is refused as such below.
        let faulted = self.fault.check(FaultOp::Erase) != FaultVerdict::Pass;
        let b = self.chips[chip as usize].block(block);
        let worn = !b.is_retired() && b.erase_count() >= self.config.endurance_limit();
        if faulted || worn {
            // An erase-status failure always grows the block bad: a block
            // that no longer erases is unusable by definition.
            self.stats.erase_failures += 1;
            self.emit(EventKind::EraseFault, ctx.region, ctx.lba);
            self.retire_block(chip, block, ctx);
            return Err(FlashError::EraseFailed { chip, block });
        }
        self.chips[chip as usize].block_mut(block).erase(chip, block, &mut self.spare)?;
        self.ledger.clear_block(chip, block, self.config.geometry.pages_per_block);
        self.stats.erases += 1;
        self.chips[chip as usize].counters_mut().erases += 1;
        self.emit(EventKind::Erase, ctx.region, ctx.lba);
        let latency = self.config.timing.erase_ns;
        Ok(self.finish_submit(chip, ctx.origin, OpClass::Erase, latency, ReadOutcome::Clean, None))
    }

    /// Erase a block synchronously as background work (submit + complete
    /// one); see [`FlashDevice::submit_erase`].
    pub fn erase(&mut self, chip: u32, block: u32) -> Result<OpResult> {
        let id = self.submit_erase(chip, block, IoCtx::background())?;
        Ok(self.complete(id)?.result)
    }

    /// Retire a block as grown bad: set the bad-block marker in the block's
    /// reserved marker area and account the retirement. The marker area
    /// models the manufacturer bad-block byte of the spare region and lives
    /// *outside* the host-visible OOB window, so retiring a block never
    /// corrupts host metadata (ECC codes, mapping tags) on its
    /// still-readable valid pages.
    fn retire_block(&mut self, chip: u32, block: u32, ctx: IoCtx) {
        let b = self.chips[chip as usize].block_mut(block);
        if b.is_retired() {
            return;
        }
        b.retire();
        self.stats.retired_blocks += 1;
        self.emit(EventKind::BlockRetired, ctx.region, ctx.lba);
    }

    /// Retire a block as grown bad on behalf of the management layer —
    /// e.g. after the retry budget for a transiently-failing program is
    /// spent. Idempotent: already-retired blocks are left as they are and
    /// not double-counted. Sets the bad-block marker; its trace event
    /// carries no region or page.
    pub fn retire(&mut self, chip: u32, block: u32) -> Result<()> {
        self.check(Ppa::new(chip, block, 0))?;
        self.retire_block(chip, block, IoCtx::background());
        Ok(())
    }

    /// Whether a block has been retired as grown bad: whether it carries
    /// the bad-block marker, the one record of a block's health and what a
    /// management layer scans at mount time. The marker occupies the
    /// block's reserved marker area (the manufacturer bad-block byte of the
    /// spare region), not the host-visible OOB window, so host OOB contents
    /// on retired blocks stay intact and readable.
    pub fn is_block_retired(&self, chip: u32, block: u32) -> Result<bool> {
        self.check(Ppa::new(chip, block, 0))?;
        Ok(self.chips[chip as usize].block(block).is_retired())
    }

    /// Queue a Correct-and-Refresh (Cai et al., paper ref \[35\]): read the
    /// page, correct bit errors via ECC and re-program the corrected image
    /// in place. Retention errors are repaired (charge restored);
    /// interference errors persist.
    pub fn submit_refresh(&mut self, ppa: Ppa, ctx: IoCtx) -> Result<CmdId> {
        self.admit(ctx);
        self.check(ppa)?;
        self.chips[ppa.chip as usize].block(ppa.block).page(ppa.page).readable(ppa)?;
        let raw = self.ledger.raw_errors(ppa);
        if raw > self.config.reliability.ecc_correctable_bits {
            return Err(FlashError::UncorrectableEcc {
                ppa,
                bit_errors: raw,
                correctable: self.config.reliability.ecc_correctable_bits,
            });
        }
        let repaired = self.ledger.refresh(ppa);
        self.stats.corrected_bit_errors += repaired as u64;
        // Refresh programs the same values back: identical re-program is
        // ISPP-legal and does not consume the append budget on real parts.
        let latency = self.config.timing.program_latency(self.config.geometry.page_size, false);
        let class = OpClass::Refresh;
        Ok(self.finish_submit(ppa.chip, ctx.origin, class, latency, ReadOutcome::Clean, None))
    }

    /// Correct-and-Refresh, synchronously as background work (submit +
    /// complete one).
    pub fn refresh(&mut self, ppa: Ppa) -> Result<OpResult> {
        let id = self.submit_refresh(ppa, IoCtx::background())?;
        Ok(self.complete(id)?.result)
    }

    /// Inject retention errors into a programmed page directly (test and
    /// experiment hook for the reliability model).
    pub fn inject_retention(&mut self, ppa: Ppa, bits: &[usize]) -> Result<()> {
        self.check(ppa)?;
        for &bit in bits {
            self.ledger.inject(ppa, BitError { bit, kind: ErrorKind::Retention });
            self.stats.injected_bit_errors += 1;
        }
        Ok(())
    }

    /// Raw (pre-ECC) bit-error count currently affecting a page.
    pub fn raw_bit_errors(&self, ppa: Ppa) -> u32 {
        self.ledger.raw_errors(ppa)
    }

    /// Program-interference model: each (re-)program may disturb erased
    /// cells on neighbouring wordlines. Only MSB neighbours can surface the
    /// disturbance as bit errors (Appendix C.2).
    fn apply_interference(&mut self, ppa: Ppa) {
        let prob = self.config.reliability.interference_bit_prob;
        if prob <= 0.0 {
            return;
        }
        let page_bits = self.config.geometry.page_size * 8;
        let neighbours = self.config.geometry.neighbour_pages(ppa.page);
        for n in neighbours {
            if self.rng.gen::<f64>() >= prob {
                continue;
            }
            let nppa = Ppa::new(ppa.chip, ppa.block, n);
            let bit = self.rng.gen_range(0..page_bits);
            let kind = self.config.geometry.page_kind(n);
            // The physical charge shift happens regardless; it becomes a
            // *logical* error only where the read thresholds expose it.
            if crate::reliability::ErrorLedger::interference_visible(kind) {
                self.ledger.inject(nppa, BitError { bit, kind: ErrorKind::Interference });
                self.stats.injected_bit_errors += 1;
            }
        }
    }

    /// Total erase cycles across the device.
    pub fn total_erases(&self) -> u64 {
        self.chips.iter().map(Chip::total_erases).sum()
    }

    /// Erase count of one block.
    pub fn block_erase_count(&self, chip: u32, block: u32) -> Result<u64> {
        self.check(Ppa::new(chip, block, 0))?;
        Ok(self.chips[chip as usize].block(block).erase_count())
    }

    /// Erase-count histogram across all blocks: `(min, max, mean)` plus
    /// bucketed counts — the wear-leveling quality picture.
    pub fn wear_histogram(&self) -> WearHistogram {
        let mut counts = Vec::new();
        for chip in &self.chips {
            for b in 0..self.config.geometry.blocks_per_chip {
                counts.push(chip.block(b).erase_count());
            }
        }
        let min = counts.iter().copied().min().unwrap_or(0);
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<u64>() as f64 / counts.len() as f64
        };
        let mut buckets = [0u64; 8];
        let span = (max - min).max(1);
        for c in &counts {
            let idx = (((c - min) * 8) / (span + 1)).min(7) as usize;
            buckets[idx] += 1;
        }
        WearHistogram { min, max, mean, buckets }
    }

    /// Number of programmed pages in a block (GC victim selection input).
    pub fn programmed_pages(&self, chip: u32, block: u32) -> Result<u32> {
        self.check(Ppa::new(chip, block, 0))?;
        Ok(self.chips[chip as usize].block(block).programmed_pages())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the device's own tests look at raw cells")]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// An observer whose events the test keeps a handle on.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<ObsEvent>>>);

    impl Observer for Shared {
        fn on_event(&mut self, event: ObsEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    fn dev() -> FlashDevice {
        FlashDevice::new(FlashConfig::small_slc())
    }

    fn full(dev: &FlashDevice, byte: u8) -> Vec<u8> {
        vec![byte; dev.config().geometry.page_size]
    }

    #[test]
    fn an_io_ctx_without_attribution_is_synchronous_host_io_by_default() {
        assert_eq!(IoCtx::host(), IoCtx { origin: OpOrigin::Host, region: None, lba: None });
        assert_eq!(IoCtx::default(), IoCtx::host());
        assert_eq!(IoCtx::from(OpOrigin::HostAsync), IoCtx::host_async());
        assert_eq!(IoCtx::from(OpOrigin::Background), IoCtx::background());
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut d = dev();
        let ppa = Ppa::new(0, 1, 2);
        let data = full(&d, 0x3C);
        d.program(ppa, &data, OpOrigin::Host).unwrap();
        let (read, op) = d.read(ppa, OpOrigin::Host).unwrap();
        assert_eq!(read, data);
        assert!(op.latency_ns > 0);
        assert_eq!(d.stats().host_reads, 1);
        assert_eq!(d.stats().host_programs, 1);
    }

    #[test]
    fn read_of_erased_page_flagged() {
        let mut d = dev();
        assert!(matches!(
            d.read(Ppa::new(0, 0, 0), OpOrigin::Host),
            Err(FlashError::ReadOfErasedPage(_))
        ));
    }

    #[test]
    fn out_of_range_addresses_rejected_everywhere() {
        let mut d = dev();
        let bad = Ppa::new(99, 0, 0);
        assert!(matches!(d.read(bad, OpOrigin::Host), Err(FlashError::AddressOutOfRange(_))));
        assert!(matches!(
            d.program(bad, &[0u8; 4096], OpOrigin::Host),
            Err(FlashError::AddressOutOfRange(_))
        ));
        assert!(matches!(d.erase(99, 0), Err(FlashError::AddressOutOfRange(_))));
    }

    #[test]
    fn delta_append_counts_and_costs_less() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        let mut data = full(&d, 0xFF);
        data[..100].fill(0x11);
        d.program(ppa, &data, OpOrigin::Host).unwrap();
        let w_full = d.stats().write_latency.mean_ns();
        d.reset_stats();
        let op = d.program_partial(ppa, 4000, &[0x22; 46], OpOrigin::Host).unwrap();
        assert_eq!(d.stats().host_delta_programs, 1);
        assert_eq!(d.stats().delta_bytes, 46);
        assert!(op.latency_ns < w_full / 2, "delta {} vs full {}", op.latency_ns, w_full);
    }

    #[test]
    fn ispp_violation_counted() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &full(&d, 0x00), OpOrigin::Host).unwrap();
        let err = d.program_partial(ppa, 0, &[0x01], OpOrigin::Host).unwrap_err();
        assert!(matches!(err, FlashError::IsppViolation { .. }));
        assert_eq!(d.stats().ispp_violations, 1);
    }

    #[test]
    fn erase_enables_rewrite_and_counts_wear() {
        let mut d = dev();
        let ppa = Ppa::new(0, 5, 0);
        d.program(ppa, &full(&d, 0xAA), OpOrigin::Host).unwrap();
        assert!(matches!(
            d.program(ppa, &full(&d, 0xBB), OpOrigin::Host),
            Err(FlashError::ProgramNotErased(_))
        ));
        d.erase(0, 5).unwrap();
        d.program(ppa, &full(&d, 0xBB), OpOrigin::Host).unwrap();
        assert_eq!(d.stats().erases, 1);
        assert_eq!(d.total_erases(), 1);
    }

    #[test]
    fn an_erase_past_the_endurance_limit_fails_and_retires_the_block() {
        let mut cfg = FlashConfig::small_slc();
        cfg.endurance_limit = Some(2);
        cfg.fault = crate::FaultPlan::default().with_scripted(crate::FaultOp::Erase, 4, false);
        let mut d = FlashDevice::new(cfg);
        d.erase(0, 0).unwrap();
        d.erase(0, 0).unwrap();
        assert_eq!(d.erase(0, 0).unwrap_err(), FlashError::EraseFailed { chip: 0, block: 0 });
        assert!(d.is_block_retired(0, 0).unwrap());
        assert_eq!(d.block_erase_count(0, 0).unwrap(), 2, "the failed erase wears nothing");
        let s = d.stats();
        assert_eq!((s.erases, s.erase_failures, s.retired_blocks), (2, 1, 1));
        // Retired, the block is refused like any grown-bad one.
        assert_eq!(d.erase(0, 0).unwrap_err(), FlashError::BlockRetired { chip: 0, block: 0 });
        let data = full(&d, 0x00);
        let refused = d.program(Ppa::new(0, 0, 0), &data, OpOrigin::Host).unwrap_err();
        assert_eq!(refused, FlashError::BlockRetired { chip: 0, block: 0 });
        // Every erase drew its fault verdict, the worn one too, so the
        // fifth erase is the one the plan fails.
        assert_eq!(d.erase(0, 1).unwrap_err(), FlashError::EraseFailed { chip: 0, block: 1 });
        assert_eq!(d.stats().erase_failures, 2);
    }

    #[test]
    fn gc_origin_uses_gc_buckets_and_keeps_host_clock() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &full(&d, 0x01), OpOrigin::Host).unwrap();
        let t = d.clock().now_ns();
        d.read(ppa, OpOrigin::Background).unwrap();
        d.program(Ppa::new(0, 0, 1), &full(&d, 0x01), OpOrigin::Background).unwrap();
        assert_eq!(d.clock().now_ns(), t, "background ops must not advance host clock");
        assert_eq!(d.stats().gc_reads, 1);
        assert_eq!(d.stats().gc_programs, 1);
        assert_eq!(d.stats().host_reads, 0);
    }

    #[test]
    fn host_clock_advances_with_host_io() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        let t0 = d.clock().now_ns();
        d.program(ppa, &full(&d, 0x01), OpOrigin::Host).unwrap();
        assert!(d.clock().now_ns() > t0);
    }

    #[test]
    fn ecc_corrects_within_capability() {
        let mut cfg = FlashConfig::small_slc();
        cfg.reliability.ecc_correctable_bits = 2;
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &full(&d, 0x0F), OpOrigin::Host).unwrap();
        d.inject_retention(ppa, &[3, 700]).unwrap();
        let (_, op) = d.read(ppa, OpOrigin::Host).unwrap();
        assert_eq!(op.read_outcome, ReadOutcome::Corrected { corrected: 2 });
        assert_eq!(d.stats().corrected_bit_errors, 2);
        d.inject_retention(ppa, &[900]).unwrap();
        assert!(matches!(d.read(ppa, OpOrigin::Host), Err(FlashError::UncorrectableEcc { .. })));
    }

    #[test]
    fn refresh_repairs_retention_errors() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &full(&d, 0x0F), OpOrigin::Host).unwrap();
        d.inject_retention(ppa, &[1, 2, 3]).unwrap();
        assert_eq!(d.raw_bit_errors(ppa), 3);
        d.refresh(ppa).unwrap();
        assert_eq!(d.raw_bit_errors(ppa), 0);
    }

    #[test]
    fn erase_clears_error_ledger() {
        let mut d = dev();
        let ppa = Ppa::new(0, 2, 0);
        d.program(ppa, &full(&d, 0x0F), OpOrigin::Host).unwrap();
        d.inject_retention(ppa, &[1]).unwrap();
        d.erase(0, 2).unwrap();
        assert_eq!(d.raw_bit_errors(ppa), 0);
    }

    #[test]
    fn interference_hits_only_msb_neighbours() {
        let mut cfg = FlashConfig::openssd_mlc(8, 16, 4096);
        cfg.reliability.interference_bit_prob = 1.0; // always disturb
        let mut d = FlashDevice::with_seed(cfg, 7);
        let lsb = Ppa::new(0, 0, 2); // wordline 1
        d.program(lsb, &vec![0xFF; 4096], OpOrigin::Host).unwrap();
        d.program_partial(lsb, 0, &[0x00; 8], OpOrigin::Host).unwrap();
        // Neighbour wordlines 0 and 2 -> MSB pages 1 and 5 collect errors,
        // LSB pages 0 and 4 stay clean.
        assert_eq!(d.raw_bit_errors(Ppa::new(0, 0, 0)), 0);
        assert_eq!(d.raw_bit_errors(Ppa::new(0, 0, 4)), 0);
        let msb_errors = d.raw_bit_errors(Ppa::new(0, 0, 1)) + d.raw_bit_errors(Ppa::new(0, 0, 5));
        assert!(msb_errors > 0);
        assert!(d.stats().injected_bit_errors > 0);
    }

    #[test]
    fn append_budget_from_cell_type() {
        let mut cfg = FlashConfig::small_slc();
        cfg.max_appends = Some(1);
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &vec![0xFF; 4096], OpOrigin::Host).unwrap();
        d.program_partial(ppa, 0, &[0xF0], OpOrigin::Host).unwrap();
        assert!(matches!(
            d.program_partial(ppa, 1, &[0xF0], OpOrigin::Host),
            Err(FlashError::AppendBudgetExceeded { .. })
        ));
    }

    /// A full program of `ppa` carrying OOB writes, completed.
    fn program_with_oob(
        d: &mut FlashDevice,
        ppa: Ppa,
        data: &[u8],
        oob: &[(usize, &[u8])],
    ) -> Result<OpResult> {
        let id = d.submit_program(ppa, data, oob, IoCtx::host())?;
        Ok(d.complete(id)?.result)
    }

    /// A delta append to `ppa` carrying OOB writes, completed.
    fn append_with_oob(
        d: &mut FlashDevice,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
    ) -> Result<OpResult> {
        let id = d.submit_program_partial(ppa, offset, data, oob, IoCtx::host())?;
        Ok(d.complete(id)?.result)
    }

    #[test]
    fn oob_program_and_read() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        program_with_oob(&mut d, ppa, &[0xFF; 4096], &[(16, &[0xDE, 0xAD])]).unwrap();
        let oob = d.read_oob(ppa).unwrap();
        assert_eq!(&oob[16..18], &[0xDE, 0xAD]);
        assert_eq!(d.peek_oob(ppa).unwrap()[16], 0xDE);
        // An append's OOB half lands with its record.
        append_with_oob(&mut d, ppa, 4000, &[0x11; 8], &[(24, &[0x5A; 8])]).unwrap();
        assert_eq!(&d.read_oob(ppa).unwrap()[24..32], &[0x5A; 8]);
        assert_eq!(&d.peek(ppa).unwrap()[4000..4008], &[0x11; 8]);
        assert_eq!((d.stats().host_programs, d.stats().host_delta_programs), (1, 1));
    }

    #[test]
    fn observer_sees_physical_events_in_order() {
        let mut d = dev();
        let sink = Shared::default();
        d.attach_observer(Box::new(sink.clone()));
        assert!(d.observing());

        let ppa = Ppa::new(0, 0, 0);
        let ctx = IoCtx { region: Some(3), lba: Some(17), ..IoCtx::host() };
        d.program(ppa, &full(&d, 0xFF), ctx).unwrap();
        d.program_partial(ppa, 0, &[0x0F; 46], ctx).unwrap();
        d.read(ppa, OpOrigin::Host).unwrap();
        d.erase(0, 1).unwrap();
        d.emit(EventKind::FlushOop, Some(9), None);

        let events = sink.0.lock().unwrap().clone();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::HostProgram,
                EventKind::DeltaProgram { bytes: 46 },
                EventKind::HostRead,
                EventKind::Erase,
                EventKind::FlushOop,
            ]
        );
        // Sequence numbers are a total order; each command's events carry
        // the attribution it was given, and a command given none carries
        // none.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(events[0].region, Some(3));
        assert_eq!(events[0].lba, Some(17));
        assert_eq!(events[1].lba, Some(17));
        assert_eq!((events[2].region, events[3].region), (None, None), "unattributed commands");
        assert_eq!(events[4].region, Some(9));

        let got = d.detach_observer();
        assert!(got.is_some());
        assert!(!d.observing());
        d.program(Ppa::new(0, 2, 0), &full(&d, 0xAA), OpOrigin::Host).unwrap();
        assert_eq!(sink.0.lock().unwrap().len(), 5, "detached observer sees nothing");
    }

    #[test]
    fn background_ops_trace_as_gc_migrations() {
        let mut d = dev();
        d.program(Ppa::new(0, 0, 0), &full(&d, 0x0F), OpOrigin::Host).unwrap();
        let sink = Shared::default();
        d.attach_observer(Box::new(sink.clone()));
        d.read(Ppa::new(0, 0, 0), OpOrigin::Background).unwrap();
        d.program(Ppa::new(0, 1, 0), &full(&d, 0x0F), OpOrigin::Background).unwrap();
        let kinds: Vec<EventKind> = sink.0.lock().unwrap().iter().map(|e| e.kind).collect();
        // Background reads are not host events; the migration program is.
        assert_eq!(kinds, vec![EventKind::GcMigration]);
    }

    #[test]
    fn ispp_violation_event_carries_context() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &full(&d, 0x00), OpOrigin::Host).unwrap();
        let sink = Shared::default();
        d.attach_observer(Box::new(sink.clone()));
        let ctx = IoCtx { region: Some(1), lba: Some(42), ..IoCtx::host() };
        let err = d.program_partial(ppa, 0, &[0x01], ctx).unwrap_err();
        assert!(matches!(err, FlashError::IsppViolation { .. }));
        let events = sink.0.lock().unwrap().clone();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::IsppViolation);
        assert_eq!(events[0].region, Some(1));
        assert_eq!(events[0].lba, Some(42));
    }

    #[test]
    fn chip_counters_track_ops_and_reset() {
        let mut d = dev();
        let ppa = Ppa::new(0, 0, 0);
        d.program(ppa, &full(&d, 0xFF), OpOrigin::Host).unwrap();
        d.program_partial(ppa, 0, &[0x0F], OpOrigin::Host).unwrap();
        d.read(ppa, OpOrigin::Host).unwrap();
        d.erase(0, 1).unwrap();
        let counters = d.chip_counters();
        assert_eq!(counters.len(), 1);
        assert_eq!((counters[0].reads, counters[0].programs, counters[0].erases), (1, 2, 1));
        assert!(counters[0].busy_ns > 0, "op durations accumulate into chip busy time");
        d.reset_stats();
        assert_eq!(d.chip_counters()[0], ChipCounters::default());
    }

    #[test]
    fn unknown_command_id_rejected() {
        let mut d = dev();
        assert!(matches!(d.complete(CmdId(999)), Err(FlashError::UnknownCommand(CmdId(999)))));
    }

    #[test]
    fn queued_submissions_overlap_across_chips() {
        // 4 chips, depth 4: four page programs on distinct chips overlap,
        // so the batch finishes in ~one program time instead of four.
        let mut cfg = FlashConfig::emulator_slc(8, 16, 4096);
        cfg.geometry.chips = 4;
        cfg.queue_depth = 4;
        let mut q = FlashDevice::new(cfg.clone());
        let image = vec![0x00; 4096];
        let mut ids = Vec::new();
        for chip in 0..4 {
            ids.push(q.submit_program(Ppa::new(chip, 0, 0), &image, &[], IoCtx::host()).unwrap());
        }
        assert_eq!(q.host_inflight(), 4);
        assert_eq!(q.drain().len(), 4);
        let parallel_ns = q.clock().now_ns();

        cfg.queue_depth = 1;
        let mut s = FlashDevice::new(cfg);
        for chip in 0..4 {
            s.program(Ppa::new(chip, 0, 0), &image, OpOrigin::Host).unwrap();
        }
        let serial_ns = s.clock().now_ns();
        assert_eq!(parallel_ns * 4, serial_ns, "4-way overlap on 4 chips");
        // Same final device state and counters either way.
        for chip in 0..4 {
            assert_eq!(
                q.peek(Ppa::new(chip, 0, 0)).unwrap(),
                s.peek(Ppa::new(chip, 0, 0)).unwrap()
            );
        }
        assert_eq!(q.stats().host_programs, s.stats().host_programs);
        assert!(q.stats().queue_highwater >= 4);
        let _ = ids;
    }

    #[test]
    fn same_chip_queued_commands_never_overlap() {
        let mut cfg = FlashConfig::small_slc();
        cfg.queue_depth = 8;
        let mut d = FlashDevice::new(cfg);
        let image = vec![0x00; 4096];
        let ids: Vec<CmdId> = (0..6)
            .map(|page| d.submit_program(Ppa::new(0, 0, page), &image, &[], IoCtx::host()).unwrap())
            .collect();
        let mut done: Vec<Completion> = d.drain().collect();
        done.sort_by_key(|c| c.started_at_ns);
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), ids, "dispatched in order");
        for w in done.windows(2) {
            assert!(
                w[0].result.completed_at_ns <= w[1].started_at_ns,
                "commands on one chip must serialize: {:?} overlaps {:?}",
                (w[0].started_at_ns, w[0].result.completed_at_ns),
                (w[1].started_at_ns, w[1].result.completed_at_ns)
            );
        }
    }

    #[test]
    fn full_queue_blocks_submitter_and_counts_waits() {
        let mut cfg = FlashConfig::small_slc();
        cfg.geometry.chips = 2;
        cfg.queue_depth = 2;
        let mut d = FlashDevice::new(cfg);
        let image = vec![0x00; 4096];
        let a = d.submit_program(Ppa::new(0, 0, 0), &image, &[], IoCtx::host()).unwrap();
        let b = d.submit_program(Ppa::new(1, 0, 0), &image, &[], IoCtx::host()).unwrap();
        assert_eq!(d.clock().now_ns(), 0, "queue not yet full; submits are free");
        // Third submission exceeds depth 2: the submitter waits for the
        // earliest completion before the command is even admitted.
        let c = d.submit_program(Ppa::new(0, 0, 1), &image, &[], IoCtx::host()).unwrap();
        assert!(d.clock().now_ns() > 0);
        assert_eq!(d.stats().queue_waits, 1);
        assert_eq!(d.stats().queue_highwater, 2);
        // The command retired by admission is handed back like the others.
        for id in [a, b, c] {
            d.complete(id).unwrap();
        }
        assert_eq!(d.inflight(), 0);
    }

    #[test]
    fn openssd_queued_timing_matches_serial() {
        // The no-NCQ OpenSSD profile runs at queue depth 1, so host commands
        // execute strictly serially — submit-all + drain reproduces the
        // synchronous path's clock exactly.
        let cfg = FlashConfig::openssd_mlc(8, 16, 4096);
        let image = vec![0x00; 4096];

        let mut q = FlashDevice::new(cfg.clone());
        assert_eq!(q.queue_depth(), 1);
        let ids: Vec<CmdId> = (0..4)
            .map(|chip| q.submit_program(Ppa::new(chip, 0, 0), &image, &[], IoCtx::host()).unwrap())
            .collect();
        assert_eq!(q.drain().map(|c| c.id).collect::<Vec<_>>(), ids);

        let mut s = FlashDevice::new(cfg);
        let mut serial_completions = Vec::new();
        for chip in 0..4 {
            serial_completions
                .push(s.program(Ppa::new(chip, 0, 0), &image, OpOrigin::Host).unwrap());
        }
        assert_eq!(q.clock().now_ns(), s.clock().now_ns());
        assert_eq!(
            q.stats().write_latency.mean_ns(),
            s.stats().write_latency.mean_ns(),
            "latency histograms identical under forced serial dispatch"
        );
    }

    #[test]
    fn queued_read_carries_data_in_completion() {
        let mut cfg = FlashConfig::small_slc();
        cfg.queue_depth = 2;
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 0, 0);
        let data = full(&d, 0x3C);
        d.program(ppa, &data, OpOrigin::Host).unwrap();
        let id = d.submit_read(ppa, IoCtx::host()).unwrap();
        let c = d.complete(id).unwrap();
        assert_eq!(c.data.as_deref(), Some(&data[..]));
        assert_eq!(c.chip, 0);
        assert!(c.started_at_ns >= c.submitted_at_ns);
    }

    #[test]
    fn openssd_profile_serializes_host_io() {
        let cfg = FlashConfig::openssd_mlc(8, 16, 4096);
        let mut d = FlashDevice::new(cfg.clone());
        // Two programs on different chips: under OpenSSD dispatch the second
        // must wait for the first.
        let a = d.program(Ppa::new(0, 0, 0), &vec![0x00; 4096], OpOrigin::Host).unwrap();
        let b = d.program(Ppa::new(1, 0, 0), &vec![0x00; 4096], OpOrigin::Host).unwrap();
        assert!(b.completed_at_ns > a.completed_at_ns);

        // Background work does not queue behind the host command: an erase
        // on another chip starts with the host program in flight.
        let mut d = FlashDevice::new(cfg);
        let host = d.submit_program(Ppa::new(0, 0, 0), &[0x00; 4096], &[], IoCtx::host()).unwrap();
        let gc = d.submit_erase(1, 0, IoCtx::background()).unwrap();
        let host = d.complete(host).unwrap();
        let gc = d.complete(gc).unwrap();
        assert_eq!(gc.started_at_ns, host.started_at_ns, "background overlaps the host command");
    }

    #[test]
    fn transient_program_fault_fails_once_then_retry_succeeds() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault = crate::FaultPlan::default().with_scripted(crate::FaultOp::Program, 0, false);
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 0, 0);
        let data = full(&d, 0x11);
        let err = d.program(ppa, &data, OpOrigin::Host).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed { ppa, permanent: false });
        // The failed program left the page erased; a retry succeeds.
        d.program(ppa, &data, OpOrigin::Host).unwrap();
        assert_eq!(d.stats().program_failures, 1);
        assert_eq!(d.stats().retired_blocks, 0);
        assert_eq!(d.stats().host_programs, 1);
        assert!(!d.is_block_retired(0, 0).unwrap());
    }

    #[test]
    fn permanent_program_fault_retires_block_and_marks_oob() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault = crate::FaultPlan::default().with_scripted(crate::FaultOp::Program, 0, true);
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 3, 0);
        let data = full(&d, 0x22);
        let err = d.program(ppa, &data, OpOrigin::Host).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed { ppa, permanent: true });
        assert!(d.is_block_retired(0, 3).unwrap());
        assert!(!d.is_block_retired(0, 4).unwrap());
        assert_eq!(d.stats().program_failures, 1);
        assert_eq!(d.stats().retired_blocks, 1);
        // The retired block refuses further programs and erases.
        assert_eq!(
            d.program(ppa, &data, OpOrigin::Host).unwrap_err(),
            FlashError::BlockRetired { chip: 0, block: 3 }
        );
        assert_eq!(d.erase(0, 3).unwrap_err(), FlashError::BlockRetired { chip: 0, block: 3 });
        // Other blocks are unaffected.
        d.program(Ppa::new(0, 4, 0), &data, OpOrigin::Host).unwrap();
    }

    #[test]
    fn retirement_leaves_host_oob_of_live_pages_intact() {
        // Valid pages on retired blocks deliberately stay readable, and
        // their host OOB metadata (per-delta ECC codes, mapping tags) must
        // survive retirement byte for byte: the grown-bad marker lives in
        // the block's reserved marker area, not the host OOB window.
        let mut cfg = FlashConfig::small_slc();
        // Fail the second program (elsewhere) permanently so block 0 —
        // whose page 0 already holds live data + OOB — gets retired via
        // the management hook, not a fault of its own.
        let mut d = FlashDevice::new(cfg.clone());
        let ppa = Ppa::new(0, 0, 0);
        let data = full(&d, 0x5A);
        program_with_oob(&mut d, ppa, &data, &[(0, &[0xCA, 0xFE])]).unwrap();
        d.retire(0, 0).unwrap();
        assert!(d.is_block_retired(0, 0).unwrap());
        let oob = d.read_oob(ppa).unwrap();
        assert_eq!(&oob[..2], &[0xCA, 0xFE], "host OOB corrupted by retirement");
        let (read, _) = d.read(ppa, OpOrigin::Host).unwrap();
        assert_eq!(read, data);
        // Same invariant when retirement comes from a permanent program
        // fault on a later page of the block.
        cfg.fault = crate::FaultPlan::default().with_scripted(crate::FaultOp::Program, 1, true);
        let mut d = FlashDevice::new(cfg);
        program_with_oob(&mut d, ppa, &data, &[(0, &[0xCA, 0xFE])]).unwrap();
        d.program(Ppa::new(0, 0, 1), &data, OpOrigin::Host).unwrap_err();
        assert!(d.is_block_retired(0, 0).unwrap());
        assert_eq!(&d.read_oob(ppa).unwrap()[..2], &[0xCA, 0xFE]);
    }

    #[test]
    fn erase_fault_retires_block() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault = crate::FaultPlan::default().with_scripted(crate::FaultOp::Erase, 1, false);
        let mut d = FlashDevice::new(cfg);
        d.erase(0, 7).unwrap();
        let err = d.erase(0, 7).unwrap_err();
        assert_eq!(err, FlashError::EraseFailed { chip: 0, block: 7 });
        assert!(d.is_block_retired(0, 7).unwrap());
        assert_eq!(d.stats().erase_failures, 1);
        assert_eq!(d.stats().retired_blocks, 1);
        assert_eq!(d.stats().erases, 1);
    }

    #[test]
    fn delta_fault_preserves_page_and_append_budget() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault =
            crate::FaultPlan::default().with_scripted(crate::FaultOp::DeltaProgram, 0, true);
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 0, 0);
        let mut data = full(&d, 0xFF);
        data[..100].fill(0x11);
        d.program(ppa, &data, OpOrigin::Host).unwrap();
        let err = d.program_partial(ppa, 4000, &[0x22; 16], OpOrigin::Host).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed { ppa, permanent: false });
        assert_eq!(d.stats().delta_program_failures, 1);
        assert_eq!(d.stats().host_delta_programs, 0);
        // The page keeps its pre-append contents and stays appendable.
        assert_eq!(&d.peek(ppa).unwrap()[..100], &data[..100]);
        d.program_partial(ppa, 4000, &[0x22; 16], OpOrigin::Host).unwrap();
        assert_eq!(d.stats().host_delta_programs, 1);
    }

    #[test]
    fn a_faulted_append_leaves_its_record_and_its_ecc_slot_erased() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault =
            crate::FaultPlan::default().with_scripted(crate::FaultOp::DeltaProgram, 0, false);
        let mut d = FlashDevice::new(cfg);
        let ppa = Ppa::new(0, 0, 0);
        let mut data = full(&d, 0xFF);
        data[..100].fill(0x11);
        program_with_oob(&mut d, ppa, &data, &[(16, &[0x0F; 8])]).unwrap();
        let (record, code) = ([0x22; 16], [0x33; 8]);
        let err = append_with_oob(&mut d, ppa, 4000, &record, &[(24, &code)]).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed { ppa, permanent: false });
        assert_eq!(&d.peek(ppa).unwrap()[4000..4016], &[0xFF; 16], "record range");
        assert_eq!(&d.read_oob(ppa).unwrap()[24..32], &[0xFF; 8], "ECC_delta_i slot");
        assert_eq!(&d.read_oob(ppa).unwrap()[16..24], &[0x0F; 8], "ECC_initial untouched");
        assert_eq!(d.page_state(ppa).unwrap(), PageState::Programmed { appends: 0 });
        // The next append writes both halves.
        append_with_oob(&mut d, ppa, 4000, &record, &[(24, &code)]).unwrap();
        assert_eq!(&d.peek(ppa).unwrap()[4000..4016], &record);
        assert_eq!(&d.read_oob(ppa).unwrap()[24..32], &code);
        assert_eq!(d.page_state(ppa).unwrap(), PageState::Programmed { appends: 1 });
    }

    #[test]
    fn a_refused_oob_half_refuses_the_main_half_too() {
        let mut d = dev();
        let (ppa, fresh) = (Ppa::new(0, 0, 0), Ppa::new(0, 0, 1));
        let area = d.config().geometry.oob_size;
        let mut data = full(&d, 0xFF);
        data[..100].fill(0x11);
        program_with_oob(&mut d, ppa, &data, &[(0, &[0x00])]).unwrap();
        let mut stats = d.stats().clone();
        let (chips, now) = (d.chip_counters(), d.clock().now_ns());
        // An append whose OOB half sets a programmed bit back, or runs past
        // the area.
        let record = [0x22; 16];
        let err = append_with_oob(&mut d, ppa, 4000, &record, &[(0, &[0x01])]).unwrap_err();
        assert_eq!(err, FlashError::IsppViolation { ppa, offset: 0, old: 0x00, new: 0x01 });
        let past_end: &[(usize, &[u8])] = &[(area - 1, &[0x00; 2])];
        let err = append_with_oob(&mut d, ppa, 4000, &record, past_end).unwrap_err();
        assert_eq!(err, FlashError::RangeOutOfPage { ppa, offset: area - 1, len: 2, area });
        // A full program's OOB half can only run past the area: an erased
        // page's cells take any pattern.
        let err = program_with_oob(&mut d, fresh, &data, past_end).unwrap_err();
        assert_eq!(err, FlashError::RangeOutOfPage { ppa: fresh, offset: area - 1, len: 2, area });
        assert_eq!(d.peek(ppa).unwrap(), &data[..], "no main byte changed");
        assert_eq!(d.page_state(ppa).unwrap(), PageState::Programmed { appends: 0 });
        assert_eq!(d.page_state(fresh).unwrap(), PageState::Erased);
        assert!(d.read_oob(fresh).unwrap().iter().all(|&b| b == 0xFF));
        // Nothing was charged: no program counted, no latency, no chip
        // time. The ISPP violation is counted as one.
        stats.ispp_violations += 1;
        assert_eq!(format!("{:?}", d.stats()), format!("{stats:?}"));
        assert_eq!((d.chip_counters(), d.clock().now_ns()), (chips, now));
    }

    #[test]
    fn a_retried_program_writes_its_oob_once_on_the_page_that_takes_it() {
        // The first program of the plan faults transiently, the second
        // permanently: the healing loop's two ways out, retry and remap.
        let mut cfg = FlashConfig::small_slc();
        cfg.fault = crate::FaultPlan::default()
            .with_scripted(crate::FaultOp::Program, 0, false)
            .with_scripted(crate::FaultOp::Program, 1, true);
        let mut d = FlashDevice::new(cfg);
        let (ppa, elsewhere) = (Ppa::new(0, 0, 0), Ppa::new(0, 1, 0));
        let (data, tag) = (full(&d, 0x3C), [0x53, 0x02, 0x00]);
        let oob: &[(usize, &[u8])] = &[(0, &tag), (16, &[0x0F; 8])];
        let transient = FlashError::ProgramFailed { ppa, permanent: false };
        assert_eq!(program_with_oob(&mut d, ppa, &data, oob).map(drop), Err(transient));
        let permanent = FlashError::ProgramFailed { ppa, permanent: true };
        assert_eq!(program_with_oob(&mut d, ppa, &data, oob).map(drop), Err(permanent));
        assert_eq!(d.page_state(ppa).unwrap(), PageState::Erased);
        assert!(d.read_oob(ppa).unwrap().iter().all(|&b| b == 0xFF), "a faulted program's OOB");
        program_with_oob(&mut d, elsewhere, &data, oob).unwrap();
        let written = d.read_oob(elsewhere).unwrap();
        assert_eq!((&written[..3], &written[16..24]), (&tag[..], &[0x0F; 8][..]));
        assert_eq!((d.stats().program_failures, d.stats().host_programs), (2, 1));
    }

    /// Copy-back read + program of `src` to `dst`, completed.
    fn copy_back(d: &mut FlashDevice, src: Ppa, dst: Ppa, ctx: IoCtx) -> Result<()> {
        let id = d.submit_copyback_read(src, ctx)?;
        assert_eq!(d.complete(id)?.data, None, "a copy-back read transfers nothing");
        let id = d.submit_copyback_program(src, dst, ctx)?;
        d.complete(id).map(drop)
    }

    #[test]
    fn copy_back_moves_the_buffer_and_the_source_stays_unreadable_until_erase() {
        let mut d = dev();
        let (src, dst) = (Ppa::new(0, 3, 5), Ppa::new(0, 9, 0));
        let mut data = full(&d, 0xFF);
        data[..300].fill(0x5A);
        program_with_oob(&mut d, src, &data, &[(8, &[0xC0, 0xDE])]).unwrap();
        let buffer = d.peek(src).unwrap().as_ptr();
        copy_back(&mut d, src, dst, IoCtx::background()).unwrap();
        // Zero-copy: the target's main area is the source's former buffer.
        assert_eq!(d.peek(dst).unwrap().as_ptr(), buffer);
        assert_eq!(d.peek(dst).unwrap(), &data[..]);
        assert_eq!(&d.read_oob(dst).unwrap()[8..10], &[0xC0, 0xDE]);
        assert_eq!(d.page_state(dst).unwrap(), PageState::Programmed { appends: 0 });
        assert_eq!(d.read(dst, OpOrigin::Host).unwrap().0, data);
        // The moved page is a page like any other: it takes appends.
        d.program_partial(dst, 4000, &[0x01; 8], OpOrigin::Host).unwrap();
        // The source refuses every access to its main area until erased.
        let gone = FlashError::PageStale(src);
        assert_eq!(d.page_state(src).unwrap(), PageState::Stale { appends: 0 });
        assert_eq!(d.read(src, OpOrigin::Host).unwrap_err(), gone);
        assert_eq!(d.submit_copyback_read(src, IoCtx::background()).unwrap_err(), gone);
        let elsewhere = Ppa::new(0, 9, 1);
        assert_eq!(copy_back(&mut d, src, elsewhere, IoCtx::background()), Err(gone.clone()));
        assert_eq!(d.page_state(elsewhere).unwrap(), PageState::Erased);
        assert_eq!(d.program_partial(src, 4000, &[0], OpOrigin::Host).unwrap_err(), gone);
        assert_eq!(d.refresh(src).unwrap_err(), gone);
        assert_eq!(d.peek(src).unwrap_err(), gone);
        assert_eq!(
            d.program(src, &data, OpOrigin::Host).unwrap_err(),
            FlashError::ProgramNotErased(src)
        );
        let spare = d.spare_len();
        d.erase(0, 3).unwrap();
        assert_eq!(d.spare_len(), spare, "the stale page had no buffer left to detach");
        assert_eq!(d.read(src, OpOrigin::Host).unwrap_err(), FlashError::ReadOfErasedPage(src));
        d.program(src, &data, OpOrigin::Host).unwrap();
    }

    #[test]
    fn copy_back_costs_and_counts_what_read_plus_program_does() {
        // MLC, so the LSB / MSB program latencies differ; one move of each
        // origin onto each kind of page, between host programs that keep
        // the chips busy.
        let mut cfg = FlashConfig::openssd_mlc(8, 16, 4096);
        cfg.reliability.interference_bit_prob = 0.5;
        let moves = [
            (Ppa::new(0, 0, 0), Ppa::new(0, 1, 0), OpOrigin::Background),
            (Ppa::new(0, 0, 1), Ppa::new(1, 1, 1), OpOrigin::Background),
            (Ppa::new(1, 0, 0), Ppa::new(1, 2, 0), OpOrigin::Host),
            (Ppa::new(1, 0, 1), Ppa::new(0, 2, 1), OpOrigin::HostAsync),
        ];
        let run = |copyback: bool| {
            let mut d = FlashDevice::with_seed(cfg.clone(), 5);
            let sink = Shared::default();
            d.attach_observer(Box::new(sink.clone()));
            d.set_cmd_tracing(true);
            for &(src, ..) in &moves {
                d.program(src, &vec![0x3C; 4096], OpOrigin::Host).unwrap();
            }
            for &(src, dst, origin) in &moves {
                let read = IoCtx { origin, region: Some(2), lba: Some(7) };
                let write = IoCtx { lba: Some(8), ..read };
                if copyback {
                    let id = d.submit_copyback_read(src, read).unwrap();
                    d.complete(id).unwrap();
                    let id = d.submit_copyback_program(src, dst, write).unwrap();
                    d.complete(id).unwrap();
                } else {
                    let (data, _) = d.read(src, read).unwrap();
                    d.program(dst, &data, write).unwrap();
                }
                d.program(Ppa::new(src.chip, 5, dst.page), &vec![0; 4096], OpOrigin::Host).unwrap();
            }
            let events = sink.0.lock().unwrap().clone();
            let raw: Vec<u32> = moves.iter().map(|&(_, dst, _)| d.raw_bit_errors(dst)).collect();
            (format!("{:?}", d.stats()), d.chip_counters(), d.clock().now_ns(), events, raw)
        };
        let (twin, copy) = (run(false), run(true));
        assert_eq!(copy.0, twin.0, "FlashStats");
        assert_eq!(copy.1, twin.1, "chip counters");
        assert_eq!(copy.2, twin.2, "simulated clock");
        assert_eq!(copy.3, twin.3, "event stream");
        assert_eq!(copy.4, twin.4, "bit errors, so the interference draws");
        assert!(copy.3.iter().any(|e| e.kind == EventKind::GcMigration));
    }

    #[test]
    fn a_refused_or_faulted_copy_back_changes_neither_page() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault = crate::FaultPlan::default()
            .with_scripted(crate::FaultOp::Program, 1, false)
            .with_scripted(crate::FaultOp::Program, 2, true);
        let mut d = FlashDevice::new(cfg);
        let (src, dst) = (Ppa::new(0, 0, 0), Ppa::new(0, 1, 0));
        let data = full(&d, 0x42);
        d.program(src, &data, OpOrigin::Host).unwrap();
        let untouched = |d: &FlashDevice| {
            assert_eq!(d.peek(src).unwrap(), &data[..]);
            assert_eq!(d.page_state(dst).unwrap(), PageState::Erased);
        };
        let gc = IoCtx::background();
        let transient = FlashError::ProgramFailed { ppa: dst, permanent: false };
        assert_eq!(copy_back(&mut d, src, dst, gc), Err(transient));
        untouched(&d);
        let permanent = FlashError::ProgramFailed { ppa: dst, permanent: true };
        assert_eq!(copy_back(&mut d, src, dst, gc), Err(permanent));
        untouched(&d);
        assert!(d.is_block_retired(0, 1).unwrap());
        let retired = FlashError::BlockRetired { chip: 0, block: 1 };
        assert_eq!(copy_back(&mut d, src, dst, gc), Err(retired));
        let outside = Ppa::new(0, 99, 0);
        assert_eq!(
            copy_back(&mut d, src, outside, gc),
            Err(FlashError::AddressOutOfRange(outside))
        );
        let erased = Ppa::new(0, 2, 0);
        let nothing = FlashError::ReadOfErasedPage(erased);
        assert_eq!(d.submit_copyback_program(erased, Ppa::new(0, 3, 0), gc), Err(nothing));
        untouched(&d);
        assert_eq!((d.stats().program_failures, d.stats().gc_programs), (2, 0));
        copy_back(&mut d, src, Ppa::new(0, 2, 1), gc).unwrap();
        assert_eq!(d.peek(Ppa::new(0, 2, 1)).unwrap(), &data[..]);
    }

    #[test]
    fn a_copy_back_out_of_a_retired_block_leaves_it_retired() {
        let mut d = dev();
        let (src, dst) = (Ppa::new(0, 4, 0), Ppa::new(0, 5, 0));
        d.program(src, &full(&d, 0x42), OpOrigin::Host).unwrap();
        d.retire(0, 4).unwrap();
        copy_back(&mut d, src, dst, IoCtx::background()).unwrap();
        assert!(d.is_block_retired(0, 4).unwrap(), "the move revived the retired block");
        assert_eq!(d.discard(Ppa::new(0, 4, 0)), Ok(()));
        assert!(d.is_block_retired(0, 4).unwrap(), "the discard revived the retired block");
        assert_eq!(d.stats().retired_blocks, 1);
    }

    #[test]
    fn a_discarded_page_keeps_cells_and_oob_and_its_buffer_serves_the_next_program() {
        let mut d = dev();
        let (ppa, next) = (Ppa::new(0, 6, 0), Ppa::new(0, 7, 0));
        let mut data = full(&d, 0xFF);
        data[..100].fill(0x11);
        program_with_oob(&mut d, ppa, &data, &[(0, &[0xCA, 0xFE])]).unwrap();
        append_with_oob(&mut d, ppa, 4000, &[0x22; 8], &[(8, &[0x5A])]).unwrap();
        let buffer = d.peek(ppa).unwrap().as_ptr();
        let (stats, chips, now) =
            (format!("{:?}", d.stats()), d.chip_counters(), d.clock().now_ns());
        let (wear, spare) = (d.block_erase_count(0, 6).unwrap(), d.spare_len());
        let sink = Shared::default();
        d.attach_observer(Box::new(sink.clone()));
        d.discard(ppa).unwrap();
        // Free: no counter, no clock, no event, no wear; the cells, their
        // append count and the OOB bytes are as they were.
        assert_eq!(format!("{:?}", d.stats()), stats);
        assert_eq!((d.chip_counters(), d.clock().now_ns()), (chips, now));
        assert!(sink.0.lock().unwrap().is_empty(), "a discard emitted events");
        assert_eq!(d.block_erase_count(0, 6).unwrap(), wear);
        assert_eq!(d.page_state(ppa).unwrap(), PageState::Stale { appends: 1 });
        assert_eq!(
            (&d.read_oob(ppa).unwrap()[..2], d.read_oob(ppa).unwrap()[8]),
            (&[0xCA, 0xFE][..], 0x5A)
        );
        assert_eq!(d.spare_len(), spare + 1);
        // Nothing reads, moves, refreshes, appends to or programs it.
        let stale = FlashError::PageStale(ppa);
        assert_eq!(d.read(ppa, OpOrigin::Host).unwrap_err(), stale);
        assert_eq!(d.submit_copyback_read(ppa, IoCtx::background()).unwrap_err(), stale);
        let gc = IoCtx::background();
        assert_eq!(d.submit_copyback_program(ppa, Ppa::new(0, 8, 0), gc).unwrap_err(), stale);
        assert_eq!(d.refresh(ppa).unwrap_err(), stale);
        assert_eq!(d.peek(ppa).unwrap_err(), stale);
        assert_eq!(d.program_partial(ppa, 4010, &[0x33], OpOrigin::Host).unwrap_err(), stale);
        let not_erased = FlashError::ProgramNotErased(ppa);
        assert_eq!(d.program(ppa, &data, OpOrigin::Host).unwrap_err(), not_erased);
        assert_eq!(d.page_state(ppa).unwrap(), PageState::Stale { appends: 1 });
        // The next program lands in the buffer the discard gave up.
        d.program(next, &full(&d, 0x77), OpOrigin::Host).unwrap();
        assert_eq!(d.peek(next).unwrap().as_ptr(), buffer, "the buffer given up last is reused");
        // Discarding a stale page, a migrated one or an erased one changes
        // nothing; neither does the stale page's erase, which finds no
        // buffer to detach.
        copy_back(&mut d, next, Ppa::new(0, 9, 0), gc).unwrap();
        let spare = d.spare_len();
        for page in [ppa, next, Ppa::new(0, 10, 0)] {
            let state = d.page_state(page).unwrap();
            d.discard(page).unwrap();
            assert_eq!((d.page_state(page).unwrap(), d.spare_len()), (state, spare), "{page}");
        }
        d.erase(0, 6).unwrap();
        assert_eq!((d.page_state(ppa).unwrap(), d.spare_len()), (PageState::Erased, spare));
        assert_eq!(d.block_erase_count(0, 6).unwrap(), wear + 1);
        d.program(ppa, &data, OpOrigin::Host).unwrap();
        let outside = Ppa::new(9, 0, 0);
        assert_eq!(d.discard(outside), Err(FlashError::AddressOutOfRange(outside)));
    }

    #[test]
    fn fault_events_reach_the_observer() {
        let mut cfg = FlashConfig::small_slc();
        cfg.fault = crate::FaultPlan::default()
            .with_scripted(crate::FaultOp::Program, 0, true)
            .with_scripted(crate::FaultOp::DeltaProgram, 0, false);
        let mut d = FlashDevice::new(cfg);
        let sink = Shared::default();
        d.attach_observer(Box::new(sink.clone()));

        let data = full(&d, 0x33);
        let ctx = IoCtx { region: Some(1), lba: Some(42), ..IoCtx::host() };
        assert!(d.program(Ppa::new(0, 0, 0), &data, ctx).is_err());
        let mut ok = full(&d, 0xFF);
        ok[..64].fill(0x44);
        d.program(Ppa::new(0, 1, 0), &ok, OpOrigin::Host).unwrap();
        assert!(d.program_partial(Ppa::new(0, 1, 0), 4000, &[0x01; 8], OpOrigin::Host).is_err());

        let events = sink.0.lock().unwrap().clone();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ProgramFault { permanent: true },
                EventKind::BlockRetired,
                EventKind::HostProgram,
                EventKind::DeltaFault,
            ]
        );
        // The failing op's attribution context reaches both fault events.
        assert_eq!(events[0].region, Some(1));
        assert_eq!(events[0].lba, Some(42));
        assert_eq!(events[1].region, Some(1));
    }
}
