//! A fixed calibration kernel run alongside the measured code, and host
//! time expressed in its terms.
//!
//! The sandbox's speed drifts by ±20 % over tens of seconds (a shared
//! host: an ALU-only loop holds within ±3 %, but copy throughput and DRAM
//! latency each move by 10–20 %, independently of one another), which is
//! more than any regression bound worth gating on. The yardstick is a
//! kernel of this crate — page-sized copies over an arena, allocations,
//! ordered-set updates, dependent loads over a ring larger than the
//! caches; nothing from the crates under test, so no change to them can
//! move it. It runs for about 2 ms at every tick; the interval between two
//! ticks is scaled by `NOMINAL_SLICE_NS ÷ (slice time around the
//! interval)`. Scaled time is what the interval would have taken at the
//! speed the machine had when the kernel was calibrated. Twelve same-seed
//! runs of `tpcb_oop` spread by 17.6 % (quartile distance ÷ median) in
//! wall time and by 5.5 % scaled; `tpcc_mix` by 11.6 % and 3.5 %. Raw wall
//! time is reported next to every scaled value.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Slice time on the machine and commit the benchmark was calibrated on
/// (README "Calibration"). Frozen: it only fixes the unit.
pub const NOMINAL_SLICE_NS: f64 = 380_000.0;

const PAGE: usize = 4096;
const ARENA_PAGES: usize = 2048;
const SLICE_OPS: usize = 80;
/// Entries of the pointer-chase ring (32 MiB: far beyond the caches).
const RING: usize = 8 << 20;
/// Dependent loads per slice operation.
const CHASE_STEPS: usize = 16;
/// Slices per tick; the tick's slice time is their median.
const SLICES: usize = 5;

/// The kernel's state and the time accumulated since the last
/// [`Yardstick::take`].
#[derive(Debug)]
pub struct Yardstick {
    arena: Vec<u8>,
    ring: Vec<u32>,
    at: u32,
    set: BTreeSet<u16>,
    state: u64,
    last_slice_ns: f64,
    last_tick: Instant,
    raw_ns: f64,
    scaled_ns: f64,
}

/// Wall and scaled seconds of one measured stretch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    /// Wall seconds.
    pub raw_s: f64,
    /// Seconds at calibration speed.
    pub scaled_s: f64,
}

impl Elapsed {
    /// Scaled ÷ raw: multiply a wall time of the same stretch by this to
    /// express it at calibration speed (1 for an empty stretch).
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.scaled_s / self.raw_s
        } else {
            1.0
        }
    }
}

impl Default for Yardstick {
    fn default() -> Self {
        let mut y = Yardstick {
            arena: vec![0x5A; PAGE * ARENA_PAGES],
            ring: ring(),
            at: 0,
            set: BTreeSet::new(),
            state: 0x9E37_79B9_7F4A_7C15,
            last_slice_ns: NOMINAL_SLICE_NS,
            last_tick: Instant::now(),
            raw_ns: 0.0,
            scaled_ns: 0.0,
        };
        // Touch the arena and settle caches before the first real slice.
        y.slice();
        y.restart();
        y
    }
}

/// One cycle through all `RING` slots in a scattered order (an LCG with
/// full period modulo a power of two).
fn ring() -> Vec<u32> {
    let mut ring = vec![0u32; RING];
    let mut at = 0usize;
    for _ in 0..RING {
        let next = (at * 1_664_525 + 1_013_904_223) % RING;
        ring[at] = next as u32;
        at = next;
    }
    ring
}

impl Yardstick {
    fn next(&mut self) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x as usize
    }

    /// One slice of the kernel; returns its host ns.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..SLICE_OPS {
            let from = (self.next() % ARENA_PAGES) * PAGE;
            let to = (self.next() % ARENA_PAGES) * PAGE;
            // A page read into a fresh buffer, a few bytes changed and
            // tracked, the page written elsewhere.
            let mut page = self.arena[from..from + PAGE].to_vec();
            for k in 0..8 {
                let at = (self.next() % PAGE) as u16;
                page[at as usize] = page[at as usize].wrapping_add(k);
                self.set.insert(at);
            }
            self.arena[to..to + PAGE].copy_from_slice(black_box(&page));
            // Dependent loads far apart: what index and map lookups over a
            // working set larger than the caches look like.
            for _ in 0..CHASE_STEPS {
                self.at = self.ring[self.at as usize];
            }
            if self.set.len() > 64 {
                self.set.clear();
            }
        }
        t.elapsed().as_nanos() as f64
    }

    fn median_slice(&mut self) -> f64 {
        let mut times = [0.0; SLICES];
        for t in &mut times {
            *t = self.slice();
        }
        times.sort_by(f64::total_cmp);
        times[SLICES / 2]
    }

    /// Start a stretch here: forget what was accumulated, measure the
    /// speed now.
    pub fn restart(&mut self) {
        self.last_slice_ns = self.median_slice();
        self.raw_ns = 0.0;
        self.scaled_ns = 0.0;
        self.last_tick = Instant::now();
    }

    /// Close the interval since the previous tick (the kernel's own time
    /// is outside every interval).
    pub fn tick(&mut self) {
        let dt = self.last_tick.elapsed().as_nanos() as f64;
        let slice_ns = self.median_slice();
        let around = (self.last_slice_ns + slice_ns) / 2.0;
        self.raw_ns += dt;
        self.scaled_ns += dt * NOMINAL_SLICE_NS / around;
        self.last_slice_ns = slice_ns;
        self.last_tick = Instant::now();
    }

    /// Tick, then hand out and reset what accumulated since the last
    /// `take` or `restart`.
    pub fn take(&mut self) -> Elapsed {
        self.tick();
        let out = Elapsed { raw_s: self.raw_ns / 1e9, scaled_s: self.scaled_ns / 1e9 };
        self.raw_ns = 0.0;
        self.scaled_ns = 0.0;
        out
    }
}
