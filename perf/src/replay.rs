//! Layer replays: the recorded operation stream of a traced run, driven
//! against each layer alone and timed on the host clock.
//!
//! A replay walks the whole history since the device was created (load,
//! `flush_all`, warm-up, window) so that it reaches the window in the same
//! state the real run did, and times only the window. Each replay compares
//! its own counters with the recorded ones and fails otherwise: a replay
//! that drifted from the real stream cannot report a number.

use std::hint::black_box;
use std::time::Instant;

use ipa_core::{ChangeTracker, DbPage, FlushDecision, PageLayout, SlotId};
use ipa_flash::{FlashDevice, FlashStats, OpOrigin, Ppa};
use ipa_noftl::{IoCtx, Lba, NoFtl, NoFtlConfig, RegionId, RegionStats};

use crate::record::{Op, Tape};
use crate::yardstick::Yardstick;

/// Timed calls between two yardstick ticks of a replay.
const OPS_PER_TICK: usize = 8192;

/// Host cost of one class of calls inside a replayed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCost {
    /// Calls.
    pub calls: u64,
    /// Host ns over all calls, timer overhead removed.
    pub total_ns: u64,
}

impl ClassCost {
    /// Mean host ns per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    fn add(&mut self, elapsed_ns: u64, overhead_ns: u64) {
        self.calls += 1;
        self.total_ns += elapsed_ns.saturating_sub(overhead_ns);
    }

    /// Express the total at calibration speed.
    fn scale(&mut self, factor: f64) {
        self.total_ns = (self.total_ns as f64 * factor) as u64;
    }
}

/// What `Instant::now()` + `elapsed()` around nothing costs, ns: the
/// median of many back-to-back pairs. Subtracted from every timed call.
fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times the calls of a replay: nothing before the window, every call on
/// its own inside it, with a yardstick tick every [`OPS_PER_TICK`] calls.
struct Stopwatch<'y> {
    yard: &'y mut Yardstick,
    overhead_ns: u64,
    in_window: bool,
    calls: usize,
}

impl<'y> Stopwatch<'y> {
    fn new(yard: &'y mut Yardstick) -> Self {
        Stopwatch { yard, overhead_ns: timer_overhead_ns(), in_window: false, calls: 0 }
    }

    fn start_window(&mut self) {
        self.in_window = true;
        self.yard.restart();
    }

    /// Run `f`; inside the window, charge its time to `class`.
    fn time<T>(&mut self, class: &mut ClassCost, f: impl FnOnce() -> T) -> T {
        if !self.in_window {
            return f();
        }
        self.calls += 1;
        if self.calls.is_multiple_of(OPS_PER_TICK) {
            self.yard.tick();
        }
        let t = Instant::now();
        let out = black_box(f());
        class.add(t.elapsed().as_nanos() as u64, self.overhead_ns);
        out
    }

    /// End the window: the factor that turns its wall time into scaled time.
    fn finish(self) -> f64 {
        self.yard.take().factor()
    }
}

/// A page image a replay may program: formatted, delta area erased, so
/// later appends only clear bits.
fn page_image(layout: PageLayout) -> Vec<u8> {
    let mut page = DbPage::format(0, layout);
    page.reset_delta_area();
    page.into_bytes()
}

/// Result of [`noftl_replay`].
#[derive(Debug, Default)]
pub struct NoftlReplay {
    /// `NoFtl::read_page` in the window.
    pub read_page: ClassCost,
    /// `NoFtl::write_page` in the window.
    pub write_page: ClassCost,
    /// `NoFtl::write_delta` in the window.
    pub write_delta: ClassCost,
}

impl NoftlReplay {
    /// Host seconds of all three classes (flash included).
    pub fn total_s(&self) -> f64 {
        (self.read_page.total_ns + self.write_page.total_ns + self.write_delta.total_ns) as f64
            / 1e9
    }
}

fn mismatch(layer: &str, what: &str, replayed: u64, recorded: u64) -> Result<(), String> {
    if replayed == recorded {
        Ok(())
    } else {
        Err(format!("{layer} replay drifted: {what} {replayed}, recorded {recorded}"))
    }
}

/// Drive a fresh `NoFtl` of the run's configuration through `read_page` /
/// `write_page` / `write_delta` in recorded order.
pub fn noftl_replay(
    tape: &Tape,
    config: &NoFtlConfig,
    layout: PageLayout,
    recorded: &RegionStats,
    yard: &mut Yardstick,
) -> Result<NoftlReplay, String> {
    let mut ftl = NoFtl::new(config.clone()).map_err(|e| e.to_string())?;
    let rid = RegionId(0);
    let capacity = ftl.capacity(rid).map_err(|e| e.to_string())? as usize;
    let image = page_image(layout);
    let delta = vec![0u8; layout.scheme.delta_record_size()];
    // Delta records on the current residency of each LBA: a page program
    // starts a fresh delta area, GC carries it along.
    let mut appended = vec![0u16; capacity];
    let mut out = NoftlReplay::default();
    let mut watch = Stopwatch::new(yard);
    let ctx = IoCtx::host();
    for (i, op) in tape.ops[..tape.window_end].iter().enumerate() {
        if i == tape.window_start {
            ftl.reset_stats();
            watch.start_window();
        }
        let fail = |e: ipa_noftl::NoFtlError| format!("noftl replay op {i} ({op:?}): {e}");
        match *op {
            Op::HostRead(lba) => {
                let lba = Lba(u64::from(lba));
                watch.time(&mut out.read_page, || ftl.read_page(rid, lba, ctx)).map_err(fail)?;
            }
            Op::HostProgram(lba) => {
                appended[lba as usize] = 0;
                let lba = Lba(u64::from(lba));
                watch
                    .time(&mut out.write_page, || ftl.write_page(rid, lba, &image, ctx))
                    .map_err(fail)?;
            }
            Op::DeltaProgram { lba, bytes } => {
                let offset = layout.delta_slot_offset(appended[lba as usize]);
                appended[lba as usize] += 1;
                let (lba, data) = (Lba(u64::from(lba)), &delta[..bytes as usize]);
                watch
                    .time(&mut out.write_delta, || ftl.write_delta(rid, lba, offset, data, ctx))
                    .map_err(fail)?;
            }
            Op::GcMigration(_) | Op::Erase | Op::FlushIpa(_) | Op::FlushOop | Op::Evict => {}
        }
    }
    let speed = watch.finish();
    for class in [&mut out.read_page, &mut out.write_page, &mut out.write_delta] {
        class.scale(speed);
    }
    let r = ftl.region_stats(rid).map_err(|e| e.to_string())?;
    mismatch("noftl", "host_reads", r.host_reads, recorded.host_reads)?;
    mismatch("noftl", "host_page_writes", r.host_page_writes, recorded.host_page_writes)?;
    mismatch("noftl", "host_delta_writes", r.host_delta_writes, recorded.host_delta_writes)?;
    mismatch("noftl", "gc_page_migrations", r.gc_page_migrations, recorded.gc_page_migrations)?;
    mismatch("noftl", "gc_erases", r.gc_erases, recorded.gc_erases)?;
    Ok(out)
}

/// One physical command of the flash replay.
#[derive(Debug, Clone, Copy)]
enum Phys {
    Read(Ppa, OpOrigin),
    Program(Ppa, OpOrigin),
    Partial { ppa: Ppa, offset: u16, len: u16 },
    Erase { chip: u32, block: u32 },
}

/// Per-block state of the placement mirror.
#[derive(Debug, Clone)]
struct BlockMirror {
    cursor: u32,
    valid: u32,
    free: bool,
}

/// The page placement of `ipa-noftl`'s region (round-robin chip choice,
/// one active block per chip, spill to the next chip when full), mirrored
/// so the flash replay issues legal commands at plausible addresses. GC is
/// not decided here: the stream says which pages moved and when a block
/// was erased.
struct Placement {
    per_block: u32,
    chips: Vec<(Option<u32>, Vec<BlockMirror>)>,
    l2p: Vec<Option<Ppa>>,
    rr: usize,
    /// Block the current GC episode migrates out of.
    victim: Option<(u32, u32)>,
}

impl Placement {
    fn allocate(&mut self, local: usize) -> Result<Ppa, String> {
        let n = self.chips.len();
        for attempt in 0..n {
            let chip = (local + attempt) % n;
            let (active, blocks) = &mut self.chips[chip];
            if let Some(b) = *active {
                let block = &mut blocks[b as usize];
                if block.cursor < self.per_block {
                    block.cursor += 1;
                    return Ok(Ppa::new(chip as u32, b, block.cursor - 1));
                }
                *active = None;
            }
            if let Some(b) = blocks.iter().position(|b| b.free) {
                blocks[b].free = false;
                blocks[b].cursor = 1;
                *active = Some(b as u32);
                return Ok(Ppa::new(chip as u32, b as u32, 0));
            }
        }
        Err("flash replay: placement mirror ran out of erased blocks".into())
    }

    fn remap(&mut self, lba: u32, new: Ppa) {
        if let Some(old) = self.l2p[lba as usize].replace(new) {
            self.chips[old.chip as usize].1[old.block as usize].valid -= 1;
        }
        self.chips[new.chip as usize].1[new.block as usize].valid += 1;
    }

    fn residency(&self, lba: u32) -> Result<Ppa, String> {
        self.l2p[lba as usize].ok_or_else(|| format!("flash replay: LBA {lba} has no residency"))
    }

    /// The block an `Erase` event refers to: the one the preceding
    /// migrations emptied, or — when the victim held no valid page — a
    /// fully written, fully invalid block of the chip the next host write
    /// goes to (where the region ran its collection).
    fn take_victim(&mut self) -> Result<(u32, u32), String> {
        let (chip, block) = match self.victim.take() {
            Some(v) => v,
            None => {
                let chip = self.rr % self.chips.len();
                let (active, blocks) = &self.chips[chip];
                let block = blocks
                    .iter()
                    .enumerate()
                    .position(|(b, m)| {
                        !m.free
                            && m.valid == 0
                            && m.cursor == self.per_block
                            && Some(b as u32) != *active
                    })
                    .ok_or("flash replay: erase without a fully invalid block")?;
                (chip as u32, block as u32)
            }
        };
        let m = &mut self.chips[chip as usize].1[block as usize];
        if m.valid != 0 {
            return Err(format!("flash replay: erase of c{chip}/b{block} with {} valid", m.valid));
        }
        *m = BlockMirror { cursor: 0, valid: 0, free: true };
        Ok((chip, block))
    }
}

/// Result of [`flash_replay`].
#[derive(Debug, Default)]
pub struct FlashReplay {
    /// `FlashDevice::read` (host and GC) in the window.
    pub read: ClassCost,
    /// `FlashDevice::program` (host and GC) in the window.
    pub program: ClassCost,
    /// `FlashDevice::program_partial` in the window.
    pub program_partial: ClassCost,
    /// `FlashDevice::erase` in the window.
    pub erase: ClassCost,
}

impl FlashReplay {
    /// Host seconds of all four classes.
    pub fn total_s(&self) -> f64 {
        (self.read.total_ns
            + self.program.total_ns
            + self.program_partial.total_ns
            + self.erase.total_ns) as f64
            / 1e9
    }
}

/// Drive a fresh `FlashDevice` through `read` / `program` /
/// `program_partial` / `erase` with the recorded class sequence and
/// counts, GC traffic included.
pub fn flash_replay(
    tape: &Tape,
    config: &NoFtlConfig,
    layout: PageLayout,
    recorded: &FlashStats,
    yard: &mut Yardstick,
) -> Result<FlashReplay, String> {
    let g = &config.flash.geometry;
    let total = u64::from(g.chips) * u64::from(g.blocks_per_chip) * u64::from(g.pages_per_block);
    let mut place = Placement {
        per_block: g.pages_per_block,
        chips: (0..g.chips)
            .map(|_| {
                let fresh = BlockMirror { cursor: 0, valid: 0, free: true };
                (None, vec![fresh; g.blocks_per_chip as usize])
            })
            .collect(),
        l2p: vec![None; total as usize],
        rr: 0,
        victim: None,
    };
    let mut appended = vec![0u16; total as usize];

    // Plan: turn the logical stream into physical commands, untimed.
    let mut plan: Vec<Phys> = Vec::with_capacity(tape.window_end);
    let mut window_start = None;
    for (i, op) in tape.ops[..tape.window_end].iter().enumerate() {
        if i == tape.window_start {
            window_start = Some(plan.len());
        }
        match *op {
            Op::HostRead(lba) => plan.push(Phys::Read(place.residency(lba)?, OpOrigin::Host)),
            Op::HostProgram(lba) => {
                let local = place.rr % place.chips.len();
                place.rr += 1;
                let ppa = place.allocate(local)?;
                place.remap(lba, ppa);
                appended[lba as usize] = 0;
                plan.push(Phys::Program(ppa, OpOrigin::Host));
            }
            Op::DeltaProgram { lba, bytes } => {
                let offset = layout.delta_slot_offset(appended[lba as usize]) as u16;
                appended[lba as usize] += 1;
                plan.push(Phys::Partial { ppa: place.residency(lba)?, offset, len: bytes as u16 });
            }
            Op::GcMigration(lba) => {
                let old = place.residency(lba)?;
                place.victim = Some((old.chip, old.block));
                let new = place.allocate(old.chip as usize)?;
                place.remap(lba, new);
                plan.push(Phys::Read(old, OpOrigin::Background));
                plan.push(Phys::Program(new, OpOrigin::Background));
            }
            Op::Erase => {
                let (chip, block) = place.take_victim()?;
                plan.push(Phys::Erase { chip, block });
            }
            Op::FlushIpa(_) | Op::FlushOop | Op::Evict => {}
        }
    }

    // Execute: the device alone, each call of the window timed.
    let mut dev = FlashDevice::new(config.flash.clone());
    let image = page_image(layout);
    let delta = vec![0u8; layout.scheme.delta_record_size()];
    let mut out = FlashReplay::default();
    let mut watch = Stopwatch::new(yard);
    for (i, cmd) in plan.iter().enumerate() {
        if Some(i) == window_start {
            dev.reset_stats();
            watch.start_window();
        }
        let fail = |e: ipa_flash::FlashError| format!("flash replay command {i} ({cmd:?}): {e}");
        match *cmd {
            Phys::Read(ppa, origin) => {
                watch.time(&mut out.read, || dev.read(ppa, origin)).map_err(fail)?;
            }
            Phys::Program(ppa, origin) => {
                watch.time(&mut out.program, || dev.program(ppa, &image, origin)).map_err(fail)?;
            }
            Phys::Partial { ppa, offset, len } => {
                let (offset, data) = (offset as usize, &delta[..len as usize]);
                watch
                    .time(&mut out.program_partial, || {
                        dev.program_partial(ppa, offset, data, OpOrigin::Host)
                    })
                    .map_err(fail)?;
            }
            Phys::Erase { chip, block } => {
                watch.time(&mut out.erase, || dev.erase(chip, block)).map_err(fail)?;
            }
        }
    }
    let speed = watch.finish();
    for class in [&mut out.read, &mut out.program, &mut out.program_partial, &mut out.erase] {
        class.scale(speed);
    }
    let s = dev.stats();
    mismatch("flash", "host_reads", s.host_reads, recorded.host_reads)?;
    mismatch("flash", "host_programs", s.host_programs, recorded.host_programs)?;
    mismatch("flash", "host_delta_programs", s.host_delta_programs, recorded.host_delta_programs)?;
    mismatch("flash", "gc_programs", s.gc_programs, recorded.gc_programs)?;
    mismatch("flash", "erases", s.erases, recorded.erases)?;
    Ok(out)
}

/// Sizes and counts of the measured run that [`core_replay`] prices.
#[derive(Debug, Clone, Copy)]
pub struct CoreCounts {
    /// Median changed body bytes per eviction (`Database::profile`).
    pub update_bytes_p50: u32,
    /// Tuple-level page modifications: WAL records of the window that are
    /// neither Begin / Commit / Abort nor checkpoint records.
    pub tracked_ops: u64,
    /// Flush decisions taken (`ipa_flushes + oop_flushes`).
    pub flushes: u64,
    /// Delta records encoded.
    pub delta_records: u64,
    /// Pages fetched from flash (`DbPage::from_bytes` + `apply_deltas`).
    pub fetches: u64,
}

/// Result of [`core_replay`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreReplay {
    /// `DbPage::update_tuple` under an active tracker, ns per call.
    pub track_update_ns: f64,
    /// `ChangeTracker::decide`, ns per call.
    pub decide_ns: f64,
    /// `DbPage::append_delta_record`, ns per call (0 under `[0x0]`).
    pub encode_ns: f64,
    /// `DbPage::from_bytes` + `apply_deltas`, ns per call.
    pub decode_apply_ns: f64,
    /// Σ per-call ns × the measured run's counts, seconds.
    pub self_host_s: f64,
}

/// Time the `ipa-core` calls the engine makes per update, per flush and
/// per fetch, at the sizes the measured run showed.
pub fn core_replay(
    layout: PageLayout,
    counts: CoreCounts,
    yard: &mut Yardstick,
) -> Result<CoreReplay, String> {
    const ITERS: usize = 200_000;
    const TUPLE: usize = 100;
    let scheme = layout.scheme;
    let err = |e: ipa_core::CoreError| format!("core replay: {e}");
    let changed = (counts.update_bytes_p50 as usize).clamp(1, TUPLE);

    // A page of 100-byte tuples, as TPC-B's and most of TPC-C's heaps hold.
    let mut page = DbPage::format(1, layout);
    let mut tracker = ChangeTracker::new(scheme, 0, false);
    let mut slots = Vec::new();
    while page.free_space_for_insert() >= TUPLE {
        slots.push(page.insert_tuple(&[0u8; TUPLE], &mut tracker).map_err(err)?);
    }
    page.reset_delta_area();

    // track: one update changing `changed` bytes per call. The tracker is
    // renewed every call, as after a flush, so it never latches `exceeded`;
    // a slot is revisited every `slots.len()` calls with a different fill
    // byte, so every one of the `changed` bytes differs.
    let mut tuple = [0u8; TUPLE];
    yard.restart();
    for i in 0..ITERS {
        let mut tracker = ChangeTracker::new(scheme, 0, true);
        tuple[..changed].fill(i as u8);
        let slot: SlotId = slots[i % slots.len()];
        page.update_tuple(slot, black_box(&tuple), &mut tracker).map_err(err)?;
        black_box(&tracker);
    }
    let track_update_ns = yard.take().scaled_s * 1e9 / ITERS as f64;

    // decide: a tracker holding one such update.
    let mut tracker = ChangeTracker::new(scheme, 0, true);
    tuple[..changed].fill(0xA5);
    page.update_tuple(slots[0], &tuple, &mut tracker).map_err(err)?;
    yard.restart();
    for _ in 0..ITERS {
        black_box(black_box(&tracker).decide(page.bytes()));
    }
    let decide_ns = yard.take().scaled_s * 1e9 / ITERS as f64;

    // encode: the records that decision produced, appended slot by slot.
    let records = match tracker.decide(page.bytes()) {
        FlushDecision::Ipa(records) => records,
        FlushDecision::OutOfPlace | FlushDecision::Clean => Vec::new(),
    };
    let mut encode_ns = 0.0;
    if let Some(record) = records.first() {
        yard.restart();
        for i in 0..ITERS {
            if i % scheme.n as usize == 0 {
                page.reset_delta_area();
            }
            black_box(page.append_delta_record(black_box(record)).map_err(err)?);
        }
        encode_ns = yard.take().scaled_s * 1e9 / ITERS as f64;
    }

    // decode + apply: a page image carrying the run's mean number of
    // resident records per flushed page.
    page.reset_delta_area();
    let resident = if counts.flushes == 0 {
        0
    } else {
        ((counts.delta_records as f64 / counts.flushes as f64).round() as u16).min(scheme.n)
    };
    if let Some(record) = records.first() {
        for _ in 0..resident {
            page.append_delta_record(record).map_err(err)?;
        }
    }
    let image = page.bytes().to_vec();
    const BATCH: usize = 512;
    let mut decode_total_ns = 0u128;
    yard.restart();
    for _ in 0..ITERS / BATCH {
        // The engine receives the buffer from the read; building it is not
        // part of the fetch path, so copies are made outside the timing.
        let copies: Vec<Vec<u8>> = (0..BATCH).map(|_| image.clone()).collect();
        let t = Instant::now();
        for buf in copies {
            let mut p = DbPage::from_bytes(buf, layout).map_err(err)?;
            black_box(p.apply_deltas().map_err(err)?);
            black_box(p);
        }
        decode_total_ns += t.elapsed().as_nanos();
    }
    let decode_apply_ns =
        decode_total_ns as f64 * yard.take().factor() / (ITERS / BATCH * BATCH) as f64;

    let self_host_s = (track_update_ns * counts.tracked_ops as f64
        + decide_ns * counts.flushes as f64
        + encode_ns * counts.delta_records as f64
        + decode_apply_ns * counts.fetches as f64)
        / 1e9;
    Ok(CoreReplay { track_update_ns, decide_ns, encode_ns, decode_apply_ns, self_host_s })
}
