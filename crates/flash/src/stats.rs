//! Operation counters and latency histograms.
//!
//! These counters are the raw material of every table in the paper's
//! evaluation: host reads/writes, delta writes, GC page migrations, GC
//! erases, and the derived per-host-write ratios.

/// A fixed-bucket latency histogram (microsecond-scaled, power-of-two
/// buckets) that also tracks sum and count for exact means.
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct LatencyHistogram {
    /// Bucket `i` counts samples in `[2^i, 2^(i+1))` microseconds; bucket 0
    /// additionally absorbs sub-microsecond samples.
    buckets: [u64; 24],
    sum_ns: u128,
    count: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&mut self, latency_ns: u64) {
        let us = latency_ns / 1_000;
        let idx = if us <= 1 { 0 } else { (63 - us.leading_zeros()) as usize };
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.sum_ns += latency_ns as u128;
        self.count += 1;
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples in nanoseconds. Paired with
    /// [`Self::count`], this lets offline tooling reconcile an attributed
    /// latency breakdown against the histogram without mean-rounding error.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    /// Mean latency in milliseconds as a float (matches the paper's
    /// "Response Time \[ms\]" rows).
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() as f64 / 1e6
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate percentile (bucket upper bound) in microseconds.
    ///
    /// When `p` rounds past the last populated bucket, the result is
    /// clamped to the highest *occupied* bucket's upper bound instead of
    /// falling through to the (absurd) top of the bucket range.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * p.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0;
        let mut last_occupied = None;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                last_occupied = Some(i);
            }
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        last_occupied.map_or(0, |i| 1u64 << (i + 1))
    }

    /// Approximate percentile in nanoseconds: the microsecond bucket
    /// bound scaled up, clamped to the largest observed sample (no
    /// percentile can exceed the maximum).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.percentile_us(p).saturating_mul(1_000).min(self.max_ns)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum_ns += other.sum_ns;
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Bucket-wise interval difference `self - earlier` (both taken from
    /// the same monotonically growing histogram). The interval's true
    /// maximum cannot be reconstructed from cumulative state, so the
    /// cumulative maximum is carried instead.
    pub fn diff(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (o, (a, b)) in
            out.buckets.iter_mut().zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        out.count = self.count.saturating_sub(earlier.count);
        out.max_ns = if out.count == 0 { 0 } else { self.max_ns };
        out
    }
}

crate::counters! {
    /// Cumulative operation counters of a flash device.
    #[derive(Debug, Clone, Default)]
    pub struct FlashStats {
        /// Page reads issued on behalf of the host.
        pub host_reads: u64,
        /// Full-page programs issued on behalf of the host.
        pub host_programs: u64,
        /// Partial programs (in-place delta appends) issued on behalf of the host.
        pub host_delta_programs: u64,
        /// Bytes of delta payload appended in place.
        pub delta_bytes: u64,
        /// Page reads performed internally (garbage collection migrations).
        pub gc_reads: u64,
        /// Page programs performed internally (garbage collection migrations).
        pub gc_programs: u64,
        /// Block erases (all erases are attributed to management).
        pub erases: u64,
        /// Programs rejected for violating the monotone-charge rule.
        pub ispp_violations: u64,
        /// Bit errors injected by the reliability model.
        pub injected_bit_errors: u64,
        /// Bit errors corrected by ECC on read.
        pub corrected_bit_errors: u64,
        /// Injected program-status failures (full-page programs).
        pub program_failures: u64,
        /// Injected program-status failures on partial programs (delta appends).
        pub delta_program_failures: u64,
        /// Injected erase-status failures.
        pub erase_failures: u64,
        /// Blocks retired as grown bad after a permanent program or erase
        /// failure.
        pub retired_blocks: u64,
        /// Host submissions that found the host queue full and had to wait for
        /// an in-flight command to retire (queued-I/O admission stalls).
        pub queue_waits: u64,
        /// Total simulated time host submissions spent stalled on a full
        /// queue, in nanoseconds. The queue-wait column of the latency
        /// attribution: [`FlashStats::read_latency`]/
        /// [`FlashStats::write_latency`] cover chip-busy inheritance plus op
        /// service only, so end-to-end host latency is histogram time plus
        /// this, and an offline trace's per-command `queue_wait_ns` sums back
        /// to it exactly.
        pub queue_wait_ns_total: u64,
        /// Highest number of host commands simultaneously in flight (the
        /// observed queue depth; 1 on a fully synchronous workload).
        pub queue_highwater: u64 as max,
        /// Host read latencies.
        pub read_latency: LatencyHistogram as hist,
        /// Host program latencies (full-page and delta combined).
        pub write_latency: LatencyHistogram as hist,
    }
}

impl FlashStats {
    /// Total host write requests (full pages + deltas) — the denominator of
    /// the paper's "per Host Write" rows.
    pub fn host_writes(&self) -> u64 {
        self.host_programs + self.host_delta_programs
    }

    /// GC page migrations per host write (Tables 6–10).
    pub fn migrations_per_host_write(&self) -> f64 {
        ratio(self.gc_programs, self.host_writes())
    }

    /// GC erases per host write (Tables 6–10).
    pub fn erases_per_host_write(&self) -> f64 {
        ratio(self.erases, self.host_writes())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_count() {
        let mut h = LatencyHistogram::default();
        h.record(1_000_000);
        h.record(3_000_000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_ns(), 2_000_000);
        assert!((h.mean_ms() - 2.0).abs() < 1e-9);
        assert_eq!(h.max_ns(), 3_000_000);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = LatencyHistogram::default();
        for i in 1..=100u64 {
            h.record(i * 10_000); // 10..1000 us
        }
        assert!(h.percentile_us(0.5) <= h.percentile_us(0.99));
        assert!(h.percentile_us(0.99) >= 512);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(5_000);
        b.record(7_000);
        b.record(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean_ns(), 7_000);
    }

    #[test]
    fn per_host_write_ratios() {
        let stats = FlashStats {
            host_programs: 50,
            host_delta_programs: 50,
            gc_programs: 30,
            erases: 10,
            ..FlashStats::default()
        };
        assert_eq!(stats.host_writes(), 100);
        assert!((stats.migrations_per_host_write() - 0.30).abs() < 1e-12);
        assert!((stats.erases_per_host_write() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn ratios_safe_on_empty() {
        let stats = FlashStats::default();
        assert_eq!(stats.migrations_per_host_write(), 0.0);
        assert_eq!(stats.erases_per_host_write(), 0.0);
    }

    #[test]
    fn percentile_clamps_to_highest_occupied_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(100_000); // 100 us -> bucket 6, upper bound 128 us
        h.record(200_000); // 200 us -> bucket 7, upper bound 256 us
                           // The tail percentile must never exceed the occupied range.
        assert_eq!(h.percentile_us(1.0), 256);
        assert!(h.percentile_us(1.0) < 1 << 24);
        // p = 0 still lands on an occupied bucket.
        assert_eq!(h.percentile_us(0.0), 128);
    }

    #[test]
    fn percentile_ns_bounded_by_max_sample() {
        let mut h = LatencyHistogram::default();
        h.record(1_500_000); // 1.5 ms
        assert_eq!(h.percentile_ns(0.99), 1_500_000);
        assert!(h.percentile_ns(0.5) <= h.max_ns());
        assert_eq!(LatencyHistogram::default().percentile_ns(0.5), 0);
    }

    #[test]
    fn histogram_diff_is_interval() {
        let mut a = LatencyHistogram::default();
        a.record(5_000);
        let early = a.clone();
        a.record(9_000);
        a.record(17_000);
        let d = a.diff(&early);
        assert_eq!(d.count(), 2);
        assert_eq!(d.mean_ns(), 13_000);
        // Diff of identical histograms is empty.
        let z = a.diff(&a);
        assert_eq!(z.count(), 0);
        assert_eq!(z.mean_ns(), 0);
        assert_eq!(z.max_ns(), 0);
        assert_eq!(z.percentile_us(0.99), 0);
    }
}
