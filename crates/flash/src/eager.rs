//! Test oracle: the eager page the device stored before erased pages went
//! sparse, and a walk that drives it and the real device side by side.
//!
//! [`EagerPage`] is the previous `PageData`: every page owns a main-area
//! buffer from construction, an erase refills it with `0xFF`, a read copies
//! out of it, and a copy-back program copies it too (the source only
//! changes state, as a discarded page does). [`EagerDevice`] wraps an array
//! of them with the device's counting rules — a fault plan that fails every
//! seventh full program, and a count of the buffers the real device should
//! be holding spare — so that every `Result`, every byte and the whole of
//! [`FlashStats`] can be predicted for a sequence of commands.

use crate::device::{FlashConfig, FlashDevice, OpOrigin};
use crate::error::FlashError;
use crate::fault::{FaultOp, ScriptedFault};
use crate::geometry::{FlashGeometry, Ppa};
use crate::page::{ispp_allows, PageState};
use crate::stats::FlashStats;

/// One physical page, stored eagerly.
#[derive(Debug, Clone)]
struct EagerPage {
    main: Box<[u8]>,
    oob: Box<[u8]>,
    state: PageState,
}

impl EagerPage {
    fn erased(page_size: usize, oob_size: usize) -> Self {
        EagerPage {
            main: vec![0xFF; page_size].into_boxed_slice(),
            oob: vec![0xFF; oob_size].into_boxed_slice(),
            state: PageState::Erased,
        }
    }

    fn erase(&mut self) {
        self.main.fill(0xFF);
        self.oob.fill(0xFF);
        self.state = PageState::Erased;
    }

    fn program(&mut self, ppa: Ppa, data: &[u8], oob: &[(usize, &[u8])]) -> Result<(), FlashError> {
        if data.len() != self.main.len() {
            return Err(FlashError::RangeOutOfPage {
                ppa,
                offset: 0,
                len: data.len(),
                area: self.main.len(),
            });
        }
        if self.state != PageState::Erased {
            return Err(FlashError::ProgramNotErased(ppa));
        }
        self.check_oob(ppa, oob)?;
        self.main.copy_from_slice(data);
        self.charge_oob(oob);
        self.state = PageState::Programmed { appends: 0 };
        Ok(())
    }

    fn program_partial(
        &mut self,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        max_appends: u32,
    ) -> Result<(), FlashError> {
        if offset.checked_add(data.len()).is_none_or(|end| end > self.main.len()) {
            return Err(FlashError::RangeOutOfPage {
                ppa,
                offset,
                len: data.len(),
                area: self.main.len(),
            });
        }
        let appends = match self.state {
            PageState::Erased => None,
            PageState::Programmed { appends } => Some(appends),
            PageState::Stale { .. } => return Err(FlashError::PageStale(ppa)),
        };
        if let Some(appends) = appends {
            if appends >= max_appends {
                return Err(FlashError::AppendBudgetExceeded {
                    ppa,
                    performed: appends,
                    max: max_appends,
                });
            }
        }
        for (i, (&old, &new)) in self.main[offset..offset + data.len()].iter().zip(data).enumerate()
        {
            if !ispp_allows(old, new) {
                return Err(FlashError::IsppViolation { ppa, offset: offset + i, old, new });
            }
        }
        self.check_oob(ppa, oob)?;
        self.main[offset..offset + data.len()].copy_from_slice(data);
        self.charge_oob(oob);
        self.state = PageState::Programmed { appends: appends.map_or(0, |a| a + 1) };
        Ok(())
    }

    /// The OOB half of a program: each write in range and ISPP-legal over
    /// the cells as the command finds them.
    fn check_oob(&self, ppa: Ppa, oob: &[(usize, &[u8])]) -> Result<(), FlashError> {
        for &(offset, data) in oob {
            if offset.checked_add(data.len()).is_none_or(|end| end > self.oob.len()) {
                return Err(FlashError::RangeOutOfPage {
                    ppa,
                    offset,
                    len: data.len(),
                    area: self.oob.len(),
                });
            }
            for (i, (&old, &new)) in self.oob[offset..].iter().zip(data).enumerate() {
                if !ispp_allows(old, new) {
                    return Err(FlashError::IsppViolation { ppa, offset: offset + i, old, new });
                }
            }
        }
        Ok(())
    }

    /// Charge the OOB cells the writes program; overlapping writes both
    /// take.
    fn charge_oob(&mut self, oob: &[(usize, &[u8])]) {
        for &(offset, data) in oob {
            for (cell, &new) in self.oob[offset..].iter_mut().zip(data) {
                *cell &= new;
            }
        }
    }
}

/// Which full programs (plain or copy-back, counted together from zero in
/// the order they reach the fault check) the oracle walk's fault plan
/// fails, transiently.
fn faulted(nth: u64) -> bool {
    nth % 7 == 6
}

/// How far the scripted plan reaches; the walk stays below it.
const FAULT_SCRIPT: u64 = 8_000;

/// The eager pages of a whole device plus what the real device's counters
/// and spare list must read after the same commands (the [`faulted`]
/// program faults and nothing else: no injected errors, queue depth 1 —
/// the oracle walk's configuration).
struct EagerDevice {
    geometry: FlashGeometry,
    max_appends: u32,
    pages: Vec<EagerPage>,
    stats: FlashStats,
    /// Buffers the real device holds for reuse: given up by discards,
    /// detached by erases and recycled in, taken out by reads and by
    /// programs of erased pages.
    spare: usize,
    /// Full programs that reached the fault check so far.
    programs_checked: u64,
}

impl EagerDevice {
    fn new(config: &FlashConfig) -> Self {
        let g = config.geometry.clone();
        EagerDevice {
            pages: vec![EagerPage::erased(g.page_size, g.oob_size); g.total_pages() as usize],
            max_appends: config.max_appends(),
            geometry: g,
            stats: FlashStats::default(),
            spare: 0,
            programs_checked: 0,
        }
    }

    /// The fault check of a full program of `ppa`.
    fn fault_check(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        let nth = self.programs_checked;
        self.programs_checked += 1;
        if faulted(nth) {
            self.stats.program_failures += 1;
            return Err(FlashError::ProgramFailed { ppa, permanent: false });
        }
        Ok(())
    }

    fn count_program(&mut self, origin: OpOrigin) {
        match origin {
            OpOrigin::Host | OpOrigin::HostAsync => self.stats.host_programs += 1,
            OpOrigin::Background => self.stats.gc_programs += 1,
        }
        self.dispatched(origin);
    }

    fn count_read(&mut self, origin: OpOrigin) {
        match origin {
            OpOrigin::Host | OpOrigin::HostAsync => self.stats.host_reads += 1,
            OpOrigin::Background => self.stats.gc_reads += 1,
        }
        self.dispatched(origin);
    }

    /// The bytes a read of `ppa` returns.
    fn readable(&self, ppa: Ppa) -> Result<&[u8], FlashError> {
        let page = &self.pages[self.slot(ppa)?];
        match page.state {
            PageState::Programmed { .. } => Ok(&page.main),
            PageState::Erased => Err(FlashError::ReadOfErasedPage(ppa)),
            PageState::Stale { .. } => Err(FlashError::PageStale(ppa)),
        }
    }

    fn slot(&self, ppa: Ppa) -> Result<usize, FlashError> {
        if !self.geometry.contains(ppa) {
            return Err(FlashError::AddressOutOfRange(ppa));
        }
        let g = &self.geometry;
        Ok(((ppa.chip * g.blocks_per_chip + ppa.block) * g.pages_per_block + ppa.page) as usize)
    }

    /// A host-origin command went through the queue: at depth 1 it is the
    /// only one in flight.
    fn dispatched(&mut self, origin: OpOrigin) {
        if origin == OpOrigin::Host {
            self.stats.queue_highwater = 1;
        }
    }

    fn read(&mut self, ppa: Ppa, origin: OpOrigin) -> Result<Vec<u8>, FlashError> {
        let data = self.readable(ppa)?.to_vec();
        self.count_read(origin);
        self.spare = self.spare.saturating_sub(1);
        Ok(data)
    }

    /// A read that transfers nothing, so takes no spare buffer.
    fn copyback_read(&mut self, ppa: Ppa, origin: OpOrigin) -> Result<(), FlashError> {
        self.readable(ppa)?;
        self.count_read(origin);
        Ok(())
    }

    fn program(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: &[(usize, &[u8])],
        origin: OpOrigin,
    ) -> Result<(), FlashError> {
        let slot = self.slot(ppa)?;
        self.fault_check(ppa)?;
        self.pages[slot].program(ppa, data, oob)?;
        self.count_program(origin);
        self.spare = self.spare.saturating_sub(1);
        Ok(())
    }

    /// The source must be readable; the target checks of a program follow
    /// in their order (address, fault, erased). Only then are the bytes and
    /// the OOB copied — and the source becomes stale, its append count
    /// kept. The real device moves the source's buffer instead, so no spare
    /// changes hands.
    fn copyback_program(&mut self, src: Ppa, dst: Ppa, origin: OpOrigin) -> Result<(), FlashError> {
        let from = self.slot(src)?;
        self.readable(src)?;
        let to = self.slot(dst)?;
        self.fault_check(dst)?;
        if self.pages[to].state != PageState::Erased {
            return Err(FlashError::ProgramNotErased(dst));
        }
        let source = self.pages[from].clone();
        let target = &mut self.pages[to];
        target.main.copy_from_slice(&source.main);
        target.oob.copy_from_slice(&source.oob);
        target.state = PageState::Programmed { appends: 0 };
        self.pages[from].state = stale(source.state);
        self.count_program(origin);
        Ok(())
    }

    /// A programmed page goes stale, its bytes and OOB kept here, and the
    /// real device's buffer joins the spares; any other page is left alone.
    /// Nothing is counted.
    fn discard(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        let slot = self.slot(ppa)?;
        let page = &mut self.pages[slot];
        if page.state.is_programmed() {
            page.state = stale(page.state);
            self.spare += 1;
        }
        Ok(())
    }

    fn program_partial(
        &mut self,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        origin: OpOrigin,
    ) -> Result<(), FlashError> {
        let slot = self.slot(ppa)?;
        let was_erased = self.pages[slot].state == PageState::Erased;
        let max = self.max_appends;
        if let Err(e) = self.pages[slot].program_partial(ppa, offset, data, oob, max) {
            if matches!(e, FlashError::IsppViolation { .. }) {
                self.stats.ispp_violations += 1;
            }
            return Err(e);
        }
        match origin {
            OpOrigin::Host | OpOrigin::HostAsync => {
                self.stats.host_delta_programs += 1;
                self.stats.delta_bytes += data.len() as u64;
            }
            OpOrigin::Background => self.stats.gc_programs += 1,
        }
        if was_erased {
            self.spare = self.spare.saturating_sub(1);
        }
        self.dispatched(origin);
        Ok(())
    }

    /// Whether an append's main half alone would pass the page's checks.
    fn main_half_passes(&self, ppa: Ppa, offset: usize, data: &[u8]) -> bool {
        let max = self.max_appends;
        self.slot(ppa).is_ok_and(|slot| {
            self.pages[slot].clone().program_partial(ppa, offset, data, &[], max).is_ok()
        })
    }

    fn erase(&mut self, chip: u32, block: u32) -> Result<(), FlashError> {
        let first = self.slot(Ppa::new(chip, block, 0))?;
        for page in &mut self.pages[first..first + self.geometry.pages_per_block as usize] {
            self.spare += usize::from(page.state.is_programmed());
            page.erase();
        }
        self.stats.erases += 1;
        Ok(())
    }

    fn recycle(&mut self, buf: &[u8]) {
        self.spare += usize::from(buf.len() == self.geometry.page_size);
    }
}

/// What a programmed page's state becomes when its bytes leave: stale, with
/// the partial programs its cells took.
fn stale(state: PageState) -> PageState {
    match state {
        PageState::Programmed { appends } => PageState::Stale { appends },
        other => other,
    }
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.below(256) as u8).collect()
    }

    /// Up to two OOB writes for a page of `g`; one in eight runs past the
    /// area.
    fn oob_writes(&mut self, g: &FlashGeometry) -> Vec<(usize, Vec<u8>)> {
        (0..self.below(3))
            .map(|_| {
                let offset = self.below(g.oob_size);
                let len = match self.below(8) {
                    0 => g.oob_size - offset + 1,
                    _ => 1 + self.below(g.oob_size - offset),
                };
                (offset, self.bytes(len))
            })
            .collect()
    }

    /// A page of `g`; one address in sixteen lies outside the device.
    fn ppa(&mut self, g: &FlashGeometry) -> Ppa {
        Ppa::new(
            self.below(g.chips as usize) as u32 + u32::from(self.below(16) == 0),
            self.below(g.blocks_per_chip as usize) as u32,
            self.below(g.pages_per_block as usize) as u32,
        )
    }
}

/// The real device and the oracle, fed the same commands.
struct Pair {
    dev: FlashDevice,
    oracle: EagerDevice,
    steps: usize,
}

impl Pair {
    fn new() -> Self {
        let mut config = FlashConfig::small_slc();
        config.geometry.chips = 2;
        config.geometry.blocks_per_chip = 3;
        config.geometry.pages_per_block = 4;
        config.geometry.page_size = 32;
        config.geometry.oob_size = 8;
        config.max_appends = Some(3);
        config.fault.scripted = (0..FAULT_SCRIPT)
            .filter(|&nth| faulted(nth))
            .map(|nth| ScriptedFault { op: FaultOp::Program, nth, permanent: false })
            .collect();
        Pair { oracle: EagerDevice::new(&config), dev: FlashDevice::new(config), steps: 0 }
    }

    /// After every command: counters, spare population, and the state and
    /// every byte of every page, through the device's inspection calls.
    fn check(&mut self, what: &str) {
        self.steps += 1;
        let at = format!("step {} ({what})", self.steps);
        assert_eq!(format!("{:?}", self.dev.stats()), format!("{:?}", self.oracle.stats), "{at}");
        assert_eq!(self.dev.spare_len(), self.oracle.spare, "spare buffers, {at}");
        let geometry = self.oracle.geometry.clone();
        for ppa in geometry.iter_pages() {
            let page = &self.oracle.pages[self.oracle.slot(ppa).unwrap()];
            assert_eq!(self.dev.page_state(ppa).unwrap(), page.state, "state of {ppa}, {at}");
            let main = match page.state {
                PageState::Stale { .. } => Err(FlashError::PageStale(ppa)),
                _ => Ok(&page.main[..]),
            };
            assert_eq!(self.dev.peek(ppa), main, "main of {ppa}, {at}");
            assert_eq!(self.dev.peek_oob(ppa).unwrap(), &page.oob[..], "oob of {ppa}, {at}");
            assert_eq!(self.dev.read_oob(ppa).unwrap(), &page.oob[..], "read_oob of {ppa}, {at}");
        }
        for (chip, block) in
            (0..geometry.chips).flat_map(|c| (0..geometry.blocks_per_chip).map(move |b| (c, b)))
        {
            let first = self.oracle.slot(Ppa::new(chip, block, 0)).unwrap();
            let programmed = self.oracle.pages[first..first + geometry.pages_per_block as usize]
                .iter()
                .filter(|p| p.state.is_programmed())
                .count();
            assert_eq!(self.dev.programmed_pages(chip, block).unwrap() as usize, programmed);
        }
        let outside = Ppa::new(geometry.chips, 0, 0);
        assert_eq!(self.dev.peek(outside), Err(FlashError::AddressOutOfRange(outside)));
        assert_eq!(self.dev.page_state(outside), Err(FlashError::AddressOutOfRange(outside)));
    }

    /// Read a page on both sides; the bytes must agree. Returns the real
    /// device's buffer for the caller to keep, drop or recycle.
    fn read(&mut self, ppa: Ppa, origin: OpOrigin) -> Option<Vec<u8>> {
        let got = self.dev.read(ppa, origin);
        let want = self.oracle.read(ppa, origin);
        let data = match (got, want) {
            (Ok((data, op)), Ok(want)) => {
                assert_eq!(data, want, "bytes read from {ppa}");
                if origin == OpOrigin::Host {
                    self.oracle.stats.read_latency.record(op.latency_ns);
                }
                Some(data)
            }
            (got, want) => {
                assert_eq!(got.map(|(data, _)| data), want, "read of {ppa}");
                None
            }
        };
        self.check("read");
        data
    }

    fn program(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: &[(usize, &[u8])],
        origin: OpOrigin,
    ) -> Result<(), FlashError> {
        let got =
            self.dev.submit_program(ppa, data, oob, origin).and_then(|id| self.dev.complete(id));
        let want = self.oracle.program(ppa, data, oob, origin);
        if let Ok(c) = &got {
            if origin != OpOrigin::Background {
                self.oracle.stats.write_latency.record(c.result.latency_ns);
            }
        }
        assert_eq!(got.map(|_| ()), want, "program of {ppa}");
        self.check("program");
        want
    }

    /// A copy-back read on both sides; it carries no bytes on either.
    fn copyback_read(&mut self, ppa: Ppa, origin: OpOrigin) {
        let got = self.dev.submit_copyback_read(ppa, origin).and_then(|id| self.dev.complete(id));
        let want = self.oracle.copyback_read(ppa, origin);
        if let Ok(c) = &got {
            assert_eq!(c.data, None, "a copy-back read of {ppa} transferred bytes");
            if origin == OpOrigin::Host {
                self.oracle.stats.read_latency.record(c.result.latency_ns);
            }
        }
        assert_eq!(got.map(|_| ()), want, "copy-back read of {ppa}");
        self.check("copyback_read");
    }

    fn copyback_program(&mut self, src: Ppa, dst: Ppa, origin: OpOrigin) -> Result<(), FlashError> {
        let got =
            self.dev.submit_copyback_program(src, dst, origin).and_then(|id| self.dev.complete(id));
        let want = self.oracle.copyback_program(src, dst, origin);
        if let Ok(c) = &got {
            if origin != OpOrigin::Background {
                self.oracle.stats.write_latency.record(c.result.latency_ns);
            }
        }
        assert_eq!(got.map(|_| ()), want, "copy-back of {src} to {dst}");
        self.check("copyback_program");
        want
    }

    fn program_partial(
        &mut self,
        ppa: Ppa,
        offset: usize,
        data: &[u8],
        oob: &[(usize, &[u8])],
        origin: OpOrigin,
    ) -> Result<(), FlashError> {
        let got = self
            .dev
            .submit_program_partial(ppa, offset, data, oob, origin)
            .and_then(|id| self.dev.complete(id));
        let want = self.oracle.program_partial(ppa, offset, data, oob, origin);
        if let Ok(c) = &got {
            if origin != OpOrigin::Background {
                self.oracle.stats.write_latency.record(c.result.latency_ns);
            }
        }
        assert_eq!(got.map(|_| ()), want, "program_partial of {ppa} at {offset}");
        self.check("program_partial");
        want
    }

    fn discard(&mut self, ppa: Ppa) {
        let want = self.oracle.discard(ppa);
        assert_eq!(self.dev.discard(ppa), want, "discard of {ppa}");
        self.check("discard");
    }

    fn erase(&mut self, chip: u32, block: u32) {
        let want = self.oracle.erase(chip, block);
        assert_eq!(self.dev.erase(chip, block).map(|_| ()), want, "erase of {chip}/{block}");
        self.check("erase");
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.oracle.recycle(&buf);
        self.dev.recycle(buf);
        self.check("recycle");
    }
}

/// The device and the oracle agree on every result, byte, page state and
/// counter over a scripted opening and an 8 000-command random walk. OOB
/// bytes are written only as the OOB half of a program or an append, on
/// the faulted seventh full programs too.
///
/// That the oracle still bites was checked by planting six mutations in a
/// copy of the device, each run with the opening and with it removed:
/// - "OOB written on a faulted program" (`submit_program` programs the OOB
///   writes when the fault verdict refuses the command) fails at the
///   opening's faulted program, step 33 (`oob of c1/b1/p3`), and in the
///   walk at step 41;
/// - "OOB checked after the main half is written" (`check_oob` moved below
///   the main-area write of `PageData::program_partial`) fails at the
///   opening's append whose OOB half is refused, step 34 (`appends: 1`,
///   oracle 0), and in the walk at step 2;
/// - "source still readable after copy-back" (`move_from` leaves the
///   source programmed with a copy) fails at the opening's first move,
///   step 23 (state `Programmed`, oracle `Stale`), and in the walk at
///   step 67;
/// - "target-erased check skipped" (no `check_erased` in
///   `submit_copyback_program`) fails at the opening's move onto a
///   programmed page (device `Ok`, oracle `ProgramNotErased`), and in the
///   walk at its first move onto a programmed page;
/// - "discard leaves the page readable" (`PageData::discard` hands the
///   spares a copy of the buffer and keeps the page programmed, so the
///   spare count still agrees) fails at the opening's discard, step 37
///   (state `Programmed`, oracle `Stale`), and in the walk at step 51;
/// - "discard erases the OOB" (`PageData::discard` refills the OOB area
///   with `0xFF`) fails at the same two steps (`oob of c1/b1/p0`, and of
///   the walk's first discarded page).
#[test]
fn sparse_device_matches_the_eager_page_oracle() {
    let mut pair = Pair::new();
    let size = pair.oracle.geometry.page_size;
    pair.check("fresh device");

    // Scripted opening. (1) Stale zeroes, detached by an erase, come back
    // under a full program whose erased tail then takes an append: had the
    // program not overwritten the whole buffer, the pre-erase zeroes would
    // turn the append into an ISPP violation.
    let (a, b) = (Ppa::new(0, 0, 0), Ppa::new(0, 0, 1));
    assert_eq!(pair.program(a, &vec![0x00; size], &[], OpOrigin::Host), Ok(()));
    pair.erase(0, 0);
    let mut image = vec![0xFF; size];
    image[..8].fill(0x3C);
    assert_eq!(pair.program(b, &image, &[], OpOrigin::Host), Ok(()));
    assert_eq!(pair.program_partial(b, 16, &[0xA5; 8], &[], OpOrigin::Host), Ok(()));
    // (2) The same stale zeroes under a partial program of an erased page:
    // it starts from all ones, inside and outside the programmed range.
    pair.erase(0, 0);
    assert_eq!(pair.program(a, &vec![0x00; size], &[], OpOrigin::Host), Ok(()));
    pair.erase(0, 0);
    assert_eq!(pair.program_partial(a, 4, &[0x5A; 4], &[], OpOrigin::Host), Ok(()));
    // (3) A recycled read buffer is overwritten whole by the next read, and
    // one of another length never enters the spare list.
    let c = Ppa::new(1, 2, 3);
    assert_eq!(pair.program(c, &image, &[], OpOrigin::Background), Ok(()));
    let buf = pair.read(a, OpOrigin::Host).expect("page a is programmed");
    pair.recycle(buf);
    let mut short = pair.read(c, OpOrigin::Background).expect("page c is programmed");
    short.pop();
    pair.recycle(short);
    pair.recycle(vec![0; size + 1]);
    pair.recycle(Vec::new());
    pair.read(c, OpOrigin::HostAsync);
    pair.read(b, OpOrigin::Host);
    // (4) Copy-back (full programs so far: 4). A move onto a programmed
    // page is refused, a faulted one (the 7th full program) changes neither
    // page, a done one leaves the source refusing reads, moves and appends
    // until its block's erase.
    let (src, dst) = (Ppa::new(1, 0, 0), Ppa::new(0, 1, 0));
    assert_eq!(pair.program(src, &image, &[], OpOrigin::Host), Ok(()));
    pair.copyback_read(src, OpOrigin::Background);
    let gc = OpOrigin::Background;
    assert_eq!(pair.copyback_program(src, c, gc), Err(FlashError::ProgramNotErased(c)));
    let fault = FlashError::ProgramFailed { ppa: dst, permanent: false };
    assert_eq!(pair.copyback_program(src, dst, gc), Err(fault));
    assert_eq!(pair.copyback_program(src, dst, gc), Ok(()));
    assert_eq!(pair.read(src, OpOrigin::Host), None);
    let again = Ppa::new(0, 1, 1);
    assert_eq!(pair.copyback_program(src, again, gc), Err(FlashError::PageStale(src)));
    assert_eq!(pair.program_partial(src, 0, &[0], &[], gc), Err(FlashError::PageStale(src)));
    let not_erased = Err(FlashError::ProgramNotErased(src));
    assert_eq!(pair.program(src, &image, &[], OpOrigin::Host), not_erased, "a migrated page");
    pair.erase(1, 0);
    assert_eq!(pair.program(src, &image, &[], OpOrigin::Host), Ok(()));
    // (5) The OOB rides its command (full programs so far: 10). Three
    // programs write main area and OOB together; the fourth, the 14th full
    // program, faults and leaves both halves of its page erased. An append
    // whose OOB half takes a bit back or runs past the area writes neither
    // half; one whose OOB half passes writes both.
    let host = OpOrigin::Host;
    let tagged: &[(usize, &[u8])] = &[(0, &[0x53, 0x02]), (4, &[0x0F; 4])];
    for page in 0..3 {
        assert_eq!(pair.program(Ppa::new(1, 1, page), &image, tagged, host), Ok(()));
    }
    let unlucky = Ppa::new(1, 1, 3);
    let fault = FlashError::ProgramFailed { ppa: unlucky, permanent: false };
    assert_eq!(pair.program(unlucky, &image, tagged, host), Err(fault));
    let d = Ppa::new(1, 1, 0);
    let back = FlashError::IsppViolation { ppa: d, offset: 4, old: 0x0F, new: 0xFF };
    assert_eq!(pair.program_partial(d, 16, &[0x11; 4], &[(4, &[0xFF])], host), Err(back));
    let past = FlashError::RangeOutOfPage { ppa: d, offset: 6, len: 4, area: 8 };
    assert_eq!(pair.program_partial(d, 16, &[0x11; 4], &[(6, &[0; 4])], host), Err(past));
    assert_eq!(pair.program_partial(d, 16, &[0x11; 4], &[(2, &[0; 2])], host), Ok(()));
    // (6) Discard: the appended page `d` gives its buffer up and keeps its
    // OOB and append count; it refuses reads, moves, appends and programs
    // until its block's erase, which finds no buffer there. Discarding it
    // again, the migrated `dst`'s source or an erased page changes nothing.
    pair.discard(d);
    assert_eq!(pair.read(d, host), None);
    pair.copyback_read(d, OpOrigin::Background);
    let stale = Err(FlashError::PageStale(d));
    assert_eq!(pair.copyback_program(d, Ppa::new(0, 2, 0), gc), stale);
    assert_eq!(pair.program_partial(d, 20, &[0x11], &[], host), stale);
    assert_eq!(pair.program(d, &image, &[], host), Err(FlashError::ProgramNotErased(d)));
    pair.discard(d);
    pair.copyback_read(dst, gc);
    assert_eq!(pair.copyback_program(dst, Ppa::new(0, 2, 1), gc), Ok(()));
    pair.discard(dst);
    pair.discard(Ppa::new(0, 2, 2));
    pair.discard(Ppa::new(2, 0, 0));
    pair.erase(1, 1);

    let mut rng = Lcg(0x1AA7_5EED);
    let mut kept: Vec<Vec<u8>> = Vec::new();
    let (mut violations, mut over_budget, mut onto_erased) = (0, 0, 0);
    let (mut moved, mut onto_programmed, mut faulted_moves, mut stale_reads) = (0, 0, 0, 0);
    let mut discarded = 0;
    let (mut faulted_with_oob, mut refused_for_oob) = (0, 0);
    for _ in 0..8_000 {
        let g = pair.oracle.geometry.clone();
        let ppa = rng.ppa(&g);
        let origin = [OpOrigin::Host, OpOrigin::HostAsync, OpOrigin::Background][rng.below(3)];
        let writes = rng.oob_writes(&g);
        match rng.below(18) {
            0..=3 => {
                // A page image with an erased tail; sometimes a byte short.
                let len = size - usize::from(rng.below(8) == 0);
                let mut data = rng.bytes(len);
                let tail = rng.below(len);
                data[tail..].fill(0xFF);
                let oob: Vec<(usize, &[u8])> = writes.iter().map(|(o, w)| (*o, &w[..])).collect();
                if let Err(FlashError::ProgramFailed { .. }) =
                    pair.program(ppa, &data, &oob, origin)
                {
                    faulted_with_oob += usize::from(!oob.is_empty());
                }
            }
            4..=7 => {
                let offset = rng.below(size);
                // In range, or (one in eight) running past the page end.
                let len = match rng.below(8) {
                    0 => size - offset + 1 + rng.below(4),
                    _ => 1 + rng.below(size - offset),
                };
                let mut data = rng.bytes(len);
                // Mostly bits the cells can still take: 1→0 only.
                if rng.below(4) != 0 {
                    if let Ok(now) = pair.dev.peek(ppa) {
                        let now = now.to_vec();
                        data.iter_mut().zip(now.iter().skip(offset)).for_each(|(d, &n)| *d &= n);
                    }
                }
                // The OOB half likewise, over the OOB cells.
                let mut writes = writes;
                if rng.below(4) != 0 {
                    if let Ok(now) = pair.dev.read_oob(ppa) {
                        for (offset, w) in &mut writes {
                            w.iter_mut().zip(now.iter().skip(*offset)).for_each(|(d, &n)| *d &= n);
                        }
                    }
                }
                let oob: Vec<(usize, &[u8])> = writes.iter().map(|(o, w)| (*o, &w[..])).collect();
                let erased = pair.dev.page_state(ppa) == Ok(PageState::Erased);
                let main_alone = pair.oracle.main_half_passes(ppa, offset, &data);
                match pair.program_partial(ppa, offset, &data, &oob, origin) {
                    Ok(()) => onto_erased += usize::from(erased),
                    Err(_) if main_alone => refused_for_oob += 1,
                    Err(FlashError::IsppViolation { .. }) => violations += 1,
                    Err(FlashError::AppendBudgetExceeded { .. }) => over_budget += 1,
                    Err(_) => {}
                }
            }
            8 if rng.below(3) == 0 => pair.erase(ppa.chip, ppa.block),
            9..=12 => {
                let state = pair.dev.page_state(ppa);
                stale_reads += usize::from(matches!(state, Ok(PageState::Stale { .. })));
                if let Some(mut buf) = pair.read(ppa, origin) {
                    match rng.below(8) {
                        // Keep it for later, drop it, hand it back cut or
                        // grown — or, mostly, hand it back as it came.
                        0 => kept.push(buf),
                        1 => {}
                        2 => {
                            buf.truncate(rng.below(size));
                            pair.recycle(buf);
                        }
                        3 => {
                            buf.extend_from_slice(&[0xEE; 3]);
                            pair.recycle(buf);
                        }
                        _ => pair.recycle(buf),
                    }
                }
            }
            13 => {
                if let Some(buf) = kept.pop() {
                    pair.recycle(buf);
                }
            }
            // A buffer the device never handed out, garbage inside.
            14 => {
                let len = if rng.below(2) == 0 { size } else { rng.below(80) };
                pair.recycle(rng.bytes(len));
            }
            // Move the page somewhere, mostly after its copy-back read, as
            // the GC does.
            15 | 16 => {
                let dst = rng.ppa(&g);
                if rng.below(4) != 0 {
                    pair.copyback_read(ppa, origin);
                }
                match pair.copyback_program(ppa, dst, origin) {
                    Ok(()) => moved += 1,
                    Err(FlashError::ProgramNotErased(_)) => onto_programmed += 1,
                    Err(FlashError::ProgramFailed { .. }) => faulted_moves += 1,
                    Err(_) => {}
                }
            }
            // Let go of the page, as NoFTL does once nothing maps it.
            17 if rng.below(2) == 0 => {
                discarded +=
                    usize::from(pair.dev.page_state(ppa).is_ok_and(PageState::is_programmed));
                pair.discard(ppa);
            }
            _ => pair.check("idle"),
        }
    }
    // The walk reached every verdict it is meant to compare.
    assert!(violations > 50, "{violations} ISPP violations");
    assert!(over_budget > 50, "{over_budget} appends over budget");
    assert!(onto_erased > 50, "{onto_erased} partial programs of erased pages");
    assert!(moved > 50 && onto_programmed > 50, "{moved} moves, {onto_programmed} refused");
    assert!(faulted_moves > 10, "{faulted_moves} faulted moves");
    assert!(stale_reads > 50, "{stale_reads} reads of stale pages");
    assert!(discarded > 50, "{discarded} programmed pages discarded");
    assert!(faulted_with_oob > 10, "{faulted_with_oob} faulted programs carrying OOB writes");
    assert!(refused_for_oob > 50, "{refused_for_oob} appends refused for their OOB half");
    assert!(pair.oracle.programs_checked < FAULT_SCRIPT);
    let s = pair.dev.stats();
    assert!(s.host_reads > 300 && s.gc_reads > 100 && s.erases > 50 && s.host_programs > 50);
}
