//! Queued I/O: command ids, per-chip dispatch queues and completion
//! bookkeeping.
//!
//! The paper's OpenSSD Jasmine board had no NCQ, so host operations were
//! strictly serial (Appendix D, point 1) — the synchronous
//! [`FlashDevice`](crate::FlashDevice) methods model exactly that. This
//! module generalizes the device interface to a *submit/complete* command
//! queue: commands are admitted up to a configurable host queue depth,
//! dispatched onto per-chip busy intervals, and retired explicitly. Every
//! command, whatever its origin, starts at max(now, chip busy-until) and
//! completes its op latency later, so commands on distinct chips overlap in
//! simulated time. At queue depth 1 (the OpenSSD profile's) a host command
//! is admitted only once the previous one has completed and the clock has
//! reached its completion, which reproduces the board's serial timings.

use crate::device::{OpOrigin, OpResult};
use crate::timing::SimClock;

/// Identifier of a submitted command, unique per device for its lifetime.
/// A submitted command is retired by completing its id, so dropping one
/// leaves the command in flight.
#[must_use = "a submitted command stays in flight until its id is completed"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdId(pub u64);

impl std::fmt::Display for CmdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// Outcome of one retired command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The command's id.
    pub id: CmdId,
    /// Chip the command ran on.
    pub chip: u32,
    /// Origin the command was submitted with.
    pub origin: OpOrigin,
    /// Simulated time at submission.
    pub submitted_at_ns: u64,
    /// Simulated time the chip started executing the command.
    pub started_at_ns: u64,
    /// Time the submitter stalled on a full host queue before this
    /// command was admitted, in nanoseconds (0 for background/async
    /// commands and whenever a slot was free). Reported separately from
    /// [`OpResult::latency_ns`], which covers chip-busy inheritance plus
    /// op service time only — exactly as the synchronous path records it.
    pub queue_wait_ns: u64,
    /// Timing and ECC outcome (identical to the synchronous methods').
    pub result: OpResult,
    /// Page data for reads; `None` for all other commands.
    pub data: Option<Vec<u8>>,
}

/// Per-chip dispatch queues plus in-flight command tracking.
///
/// The scheduler keeps one busy-until time per chip and enforces the *host*
/// queue depth: at most `queue_depth` host-origin commands may be in flight
/// at once; an over-deep submission first retires the earliest-completing
/// host command and advances the clock to its completion (the submitter
/// blocks on a full queue). Background and
/// asynchronous-host commands are bounded by the device's back-pressure
/// model instead, exactly as before.
#[derive(Debug)]
pub struct IoScheduler {
    /// Per chip, the time its last dispatched command completes.
    busy_until: Vec<u64>,
    queue_depth: u32,
    inflight: Vec<Completion>,
    /// Host-origin entries of `inflight`, kept current by every method that
    /// adds to or removes from it.
    host_inflight: usize,
    completed: Vec<Completion>,
    next_id: u64,
}

impl IoScheduler {
    /// A scheduler for `chips` chips admitting up to `queue_depth` host
    /// commands at once (at least one).
    pub fn new(chips: u32, queue_depth: u32) -> Self {
        IoScheduler {
            busy_until: vec![0; chips as usize],
            queue_depth: queue_depth.max(1),
            inflight: Vec::new(),
            host_inflight: 0,
            completed: Vec::new(),
            next_id: 0,
        }
    }

    /// Host queue depth.
    pub fn queue_depth(&self) -> u32 {
        self.queue_depth
    }

    /// Commands of any origin not yet handed back to their submitter:
    /// still executing, or retired by admission and waiting to be taken.
    pub fn inflight(&self) -> usize {
        self.inflight.len() + self.completed.len()
    }

    /// Number of in-flight host-origin commands (the queue-depth gauge).
    pub fn host_inflight(&self) -> usize {
        self.host_inflight
    }

    /// Block until a host queue slot is free: while the host queue is full,
    /// retire the earliest-completing host command and advance the clock to
    /// its completion time. Returns the number of full-queue waits incurred.
    pub fn admit_host(&mut self, clock: &mut SimClock) -> u64 {
        let mut waits = 0;
        while self.host_inflight() >= self.queue_depth as usize {
            // The loop condition guarantees a host command is in flight;
            // bail out rather than spin if that ever stops holding.
            let Some(idx) = self
                .inflight
                .iter()
                .enumerate()
                .filter(|(_, c)| c.origin == OpOrigin::Host)
                .min_by_key(|(_, c)| (c.result.completed_at_ns, c.id))
                .map(|(i, _)| i)
            else {
                break;
            };
            let c = self.remove_inflight(idx);
            clock.advance_to(c.result.completed_at_ns);
            self.completed.push(c);
            waits += 1;
        }
        waits
    }

    /// Place an operation of `duration_ns` on `chip` starting once both
    /// `now_ns` and the chip's previous command have passed; returns
    /// `(start, completion)`.
    pub fn dispatch(&mut self, chip: u32, now_ns: u64, duration_ns: u64) -> (u64, u64) {
        let busy_until = &mut self.busy_until[chip as usize];
        let start = now_ns.max(*busy_until);
        *busy_until = start + duration_ns;
        (start, *busy_until)
    }

    /// Track a dispatched command; assigns and returns its id.
    pub fn push(&mut self, mut completion: Completion) -> CmdId {
        let id = CmdId(self.next_id);
        self.next_id += 1;
        completion.id = id;
        self.host_inflight += usize::from(completion.origin == OpOrigin::Host);
        self.inflight.push(completion);
        id
    }

    /// Remove a command by id (retired or still in flight).
    pub fn take(&mut self, id: CmdId) -> Option<Completion> {
        if let Some(i) = self.completed.iter().position(|c| c.id == id) {
            return Some(self.completed.swap_remove(i));
        }
        let i = self.inflight.iter().position(|c| c.id == id)?;
        Some(self.remove_inflight(i))
    }

    /// Remove `inflight[i]`, keeping the host count in step.
    fn remove_inflight(&mut self, i: usize) -> Completion {
        let c = self.inflight.swap_remove(i);
        self.host_inflight -= usize::from(c.origin == OpOrigin::Host);
        c
    }

    /// Retire everything into `out`, ordered by completion time. `out` is
    /// the caller's to keep between drains: nothing is allocated once it
    /// and the two queues have grown to the depth of a batch.
    pub fn drain_all(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        out.append(&mut self.completed);
        out.append(&mut self.inflight);
        self.host_inflight = 0;
        // Ids are unique, so are the keys: no order for a stable sort to
        // keep, and none of its scratch memory needed.
        out.sort_unstable_by_key(|c| (c.result.completed_at_ns, c.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::ReadOutcome;

    fn completion(chip: u32, origin: OpOrigin, start: u64, done: u64) -> Completion {
        Completion {
            id: CmdId(0),
            chip,
            origin,
            submitted_at_ns: start,
            started_at_ns: start,
            queue_wait_ns: 0,
            result: OpResult {
                latency_ns: done - start,
                completed_at_ns: done,
                read_outcome: ReadOutcome::Clean,
            },
            data: None,
        }
    }

    #[test]
    fn queue_depth_is_at_least_one() {
        let s = IoScheduler::new(4, 4);
        assert_eq!(s.queue_depth(), 4);
        let s = IoScheduler::new(4, 0);
        assert_eq!(s.queue_depth(), 1, "depth 0 is meaningless; clamped up");
    }

    #[test]
    fn admission_retires_earliest_host_command() {
        let mut s = IoScheduler::new(2, 2);
        let mut clock = SimClock::new();
        let a = s.push(completion(0, OpOrigin::Host, 0, 100));
        let b = s.push(completion(1, OpOrigin::Host, 0, 300));
        assert_eq!(s.host_inflight(), 2);
        let waits = s.admit_host(&mut clock);
        assert_eq!(waits, 1);
        assert_eq!(clock.now_ns(), 100, "clock advances to earliest completion");
        assert_eq!(s.host_inflight(), 1);
        // The retired command is still retrievable by id.
        assert!(s.take(a).is_some());
        assert!(s.take(b).is_some());
    }

    #[test]
    fn background_commands_do_not_consume_host_slots() {
        let mut s = IoScheduler::new(1, 1);
        let mut clock = SimClock::new();
        let ids = [
            s.push(completion(0, OpOrigin::Background, 0, 500)),
            s.push(completion(0, OpOrigin::HostAsync, 0, 700)),
        ];
        assert_eq!(s.host_inflight(), 0);
        assert_eq!(s.admit_host(&mut clock), 0);
        assert_eq!(clock.now_ns(), 0);
        for id in ids {
            assert!(s.take(id).is_some());
        }
    }

    #[test]
    fn drain_all_interleaves_admission_retirees_with_inflight() {
        // At queue depth 2, a host command retired by admission
        // (completed_at = 300) waits in `completed` while a background
        // command finishing earlier (completed_at = 100) is still in flight:
        // the drain hands both back ordered by `(completed_at_ns, id)`.
        let mut s = IoScheduler::new(2, 2);
        let mut clock = SimClock::new();
        let bg = s.push(completion(1, OpOrigin::Background, 0, 100));
        let h1 = s.push(completion(0, OpOrigin::Host, 0, 300));
        let h2 = s.push(completion(0, OpOrigin::Host, 300, 600));
        assert_eq!(s.admit_host(&mut clock), 1);
        assert_eq!(clock.now_ns(), 300);
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert_eq!(out.iter().map(|c| c.id).collect::<Vec<_>>(), [bg, h1, h2]);
        assert_eq!((s.inflight(), s.host_inflight()), (0, 0));
    }

    #[test]
    fn host_inflight_counter_matches_the_filter_through_every_path() {
        // Interleave host, async-host and background commands through
        // push / take / admit_host / drain_all and compare the
        // maintained counter with the filter it replaced after every step.
        fn check(s: &IoScheduler) {
            let filtered = s.inflight.iter().filter(|c| c.origin == OpOrigin::Host).count();
            assert_eq!(s.host_inflight(), filtered);
        }
        let origins = [OpOrigin::Host, OpOrigin::Background, OpOrigin::HostAsync, OpOrigin::Host];
        let mut s = IoScheduler::new(4, 3);
        let mut clock = SimClock::new();
        let mut ids = Vec::new();
        let mut lcg = 0x5EEDu64;
        for step in 0..400u64 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let draw = lcg >> 33;
            match draw % 8 {
                0..=3 => {
                    let origin = origins[(draw / 8 % 4) as usize];
                    if origin == OpOrigin::Host {
                        s.admit_host(&mut clock);
                        check(&s);
                    }
                    let now = clock.now_ns();
                    let done = now + 50 + draw % 400;
                    ids.push(s.push(completion((draw % 4) as u32, origin, now, done)));
                }
                // By id: in flight, already retired by admission, or gone.
                4 | 5 if !ids.is_empty() => {
                    let id = ids.swap_remove((draw / 8) as usize % ids.len());
                    let _ = s.take(id);
                }
                6 => clock.advance(draw % 300),
                _ if step % 50 == 49 => {
                    s.drain_all(&mut Vec::new());
                    ids.clear();
                    assert_eq!(s.host_inflight(), 0);
                }
                _ => {}
            }
            check(&s);
            assert!(s.host_inflight() <= s.queue_depth() as usize);
        }
        assert!(!ids.is_empty(), "the walk must end with commands still in flight");
    }
}
