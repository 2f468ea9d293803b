//! Latency model: operation timings and the simulated host clock.
//!
//! The paper's performance numbers (Tables 6–10) hinge on two timing facts:
//!
//! 1. a delta append programs far fewer cells than a full page and the
//!    remaining cells can be skipped via self-boosting (§4), so
//!    `write_delta` is cheaper than a page program, and
//! 2. garbage collection competes with host I/O for chip time, so fewer
//!    GC migrations/erases directly translate into lower host latencies
//!    (§8.4 "I/O and Transactional Response Times").
//!
//! The first is captured here, as per-operation latencies from published
//! SLC/MLC datasheet figures; the second by the scheduler
//! ([`IoScheduler`](crate::sched::IoScheduler)), which keeps one busy
//! interval per chip for host and background commands alike.

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;

/// Per-operation latencies of a flash chip, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Page read (cell array to chip register).
    pub read_ns: u64,
    /// Full program of an LSB (or SLC) page.
    pub program_lsb_ns: u64,
    /// Full program of an MSB page (MLC only; significantly slower).
    pub program_msb_ns: u64,
    /// ISPP partial program of a small delta record. Much cheaper than a
    /// full program: only the appended cells receive program pulses, the
    /// rest are inhibited via self-boosting.
    pub program_delta_ns: u64,
    /// Block erase.
    pub erase_ns: u64,
    /// Bus transfer cost per byte moved between host and chip register.
    pub transfer_ns_per_byte: u64,
}

impl FlashTiming {
    /// SLC timings (25 µs read, 200 µs program, 1.5 ms erase — typical
    /// large-block SLC datasheet values, matching the emulator's 16-chip
    /// SLC configuration in §8.1).
    pub fn slc() -> Self {
        FlashTiming {
            read_ns: 25 * NANOS_PER_MICRO,
            program_lsb_ns: 200 * NANOS_PER_MICRO,
            program_msb_ns: 200 * NANOS_PER_MICRO,
            program_delta_ns: 60 * NANOS_PER_MICRO,
            erase_ns: 1_500 * NANOS_PER_MICRO,
            transfer_ns_per_byte: 25,
        }
    }

    /// MLC timings (60 µs read, 400 µs LSB / 1.8 ms MSB program, 3 ms
    /// erase — typical values for the Samsung MLC parts on the OpenSSD
    /// Jasmine board).
    pub fn mlc() -> Self {
        FlashTiming {
            read_ns: 60 * NANOS_PER_MICRO,
            program_lsb_ns: 400 * NANOS_PER_MICRO,
            program_msb_ns: 1_800 * NANOS_PER_MICRO,
            program_delta_ns: 120 * NANOS_PER_MICRO,
            erase_ns: 3_000 * NANOS_PER_MICRO,
            transfer_ns_per_byte: 25,
        }
    }

    /// End-to-end read latency for `bytes` transferred to the host.
    pub fn read_latency(&self, bytes: usize) -> u64 {
        self.read_ns + self.transfer_ns_per_byte * bytes as u64
    }

    /// End-to-end program latency for a page of `bytes`, LSB or MSB.
    pub fn program_latency(&self, bytes: usize, msb: bool) -> u64 {
        let cell = if msb { self.program_msb_ns } else { self.program_lsb_ns };
        cell + self.transfer_ns_per_byte * bytes as u64
    }

    /// Latency of an in-place delta append of `bytes`.
    pub fn delta_latency(&self, bytes: usize) -> u64 {
        self.program_delta_ns + self.transfer_ns_per_byte * bytes as u64
    }
}

/// Simulated time source shared by the device and the layers above it.
///
/// Time is advanced in two ways: host operations *wait* for their chip and
/// advance the clock by the full waiting + execution time (synchronous I/O),
/// while background operations (GC, cleaners) only occupy chip time without
/// advancing the host clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: u64,
}

impl SimClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advance the clock by `delta_ns` (host-visible work: I/O wait,
    /// transaction CPU time).
    pub fn advance(&mut self, delta_ns: u64) {
        self.now_ns += delta_ns;
    }

    /// Move the clock forward to `t_ns` if it is in the future.
    pub fn advance_to(&mut self, t_ns: u64) {
        self.now_ns = self.now_ns.max(t_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_composition() {
        let t = FlashTiming::slc();
        assert_eq!(t.read_latency(4096), 25_000 + 25 * 4096);
        assert_eq!(t.program_latency(4096, false), 200_000 + 25 * 4096);
        assert!(t.delta_latency(64) < t.program_latency(4096, false) / 3);
    }

    #[test]
    fn mlc_msb_slower_than_lsb() {
        let t = FlashTiming::mlc();
        assert!(t.program_latency(0, true) > 4 * t.program_latency(0, false));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        c.advance(10);
        c.advance_to(5); // no-op
        assert_eq!(c.now_ns(), 10);
        c.advance_to(25);
        assert_eq!(c.now_ns(), 25);
    }
}
