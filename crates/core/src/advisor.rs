//! The IPA advisor (paper §8.4): pick `(N, M, V)` from a workload profile.
//!
//! The advisor consumes the distribution of *per-eviction changed bytes* —
//! exactly what a background DB-log profiling mechanism observes, since the
//! log contains every update's size and target — and recommends an `[N×M]`
//! scheme for one of three optimization goals the paper names:
//!
//! * **Performance** — maximize the fraction of evictions served as IPA
//!   while keeping space modest (M at the ~70th percentile of update sizes);
//! * **Longevity** — larger `[N×M]` for fewer erases and migrations (M at
//!   the ~85th percentile, N at the flash append budget);
//! * **Space** — effective cost/GB (M at the median, small N).

use crate::scheme::{NxM, MAX_M};

/// Optimization goal weighting (§8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvisorGoal {
    /// Maximize transactional throughput / IPA hit rate.
    Performance,
    /// Minimize erases and page migrations.
    Longevity,
    /// Minimize reserved space (cost per usable GB).
    Space,
}

/// Reservoir-sampled distribution of per-eviction update sizes for one
/// database object (or the whole database).
///
/// Samples are `(body_bytes, meta_bytes)` pairs: distinct changed net bytes
/// and distinct changed metadata bytes at eviction time. The reservoir keeps
/// the profile memory-bounded on arbitrarily long runs while staying
/// unbiased.
#[derive(Debug, Clone)]
pub struct UpdateSizeProfile {
    samples: Vec<(u32, u32)>,
    total: u64,
    capacity: usize,
    /// Deterministic LCG state for reservoir replacement.
    rng_state: u64,
}

impl Default for UpdateSizeProfile {
    fn default() -> Self {
        UpdateSizeProfile::with_capacity(65_536)
    }
}

impl UpdateSizeProfile {
    /// A profile with a bounded reservoir.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        UpdateSizeProfile {
            samples: Vec::new(),
            total: 0,
            capacity,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — cheap, deterministic, good enough for reservoir
        // replacement decisions.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Record one eviction's update size.
    pub fn record(&mut self, body_bytes: u32, meta_bytes: u32) {
        self.total += 1;
        if self.samples.len() < self.capacity {
            self.samples.push((body_bytes, meta_bytes));
        } else {
            let j = self.next_rand() % self.total;
            if (j as usize) < self.capacity {
                self.samples[j as usize] = (body_bytes, meta_bytes);
            }
        }
    }

    /// Number of evictions observed.
    pub fn observations(&self) -> u64 {
        self.total
    }

    /// p-th percentile (0..=100) of changed body bytes.
    pub fn body_percentile(&self, p: f64) -> u32 {
        percentile(self.samples.iter().map(|s| s.0), self.samples.len(), p)
    }

    /// p-th percentile (0..=100) of changed metadata bytes.
    pub fn meta_percentile(&self, p: f64) -> u32 {
        percentile(self.samples.iter().map(|s| s.1), self.samples.len(), p)
    }

    /// Fraction of observed evictions `[0, 1]` whose changes would fit the
    /// given scheme as in-place appends from a fully-free delta area
    /// (i.e. the per-flush feasibility; the black numbers of Table 3 also
    /// depend on slot occupancy across consecutive evictions, measured by
    /// the full experiments).
    pub fn ipa_feasible_fraction(&self, scheme: &NxM) -> f64 {
        if self.samples.is_empty() || !scheme.is_enabled() {
            return 0.0;
        }
        let fit =
            self.samples.iter().filter(|&&(body, meta)| sample_fits(scheme, body, meta)).count();
        fit as f64 / self.samples.len() as f64
    }

    /// Predicted steady-state IPA hit rate under `scheme`. Each sample's
    /// eviction emits `r` records, so `k = ⌊N / r⌋` consecutive evictions
    /// of that size ride as appends before the slots fill and the next one
    /// goes out-of-place — a per-sample hit rate of `k / (k + 1)`, or 0
    /// when the sample does not fit the scheme at all. Unlike
    /// [`ipa_feasible_fraction`](Self::ipa_feasible_fraction) this is
    /// sensitive to `N`, which the online re-tune hysteresis needs in
    /// order to tell apart schemes with equal per-flush feasibility.
    pub fn predicted_hit_rate(&self, scheme: &NxM) -> f64 {
        if self.samples.is_empty() || !scheme.is_enabled() {
            return 0.0;
        }
        let sum: f64 = self
            .samples
            .iter()
            .map(|&(body, meta)| {
                if !sample_fits(scheme, body, meta) {
                    return 0.0;
                }
                let emitted = scheme.records_needed(body as usize).max(1);
                let k = (scheme.n as usize / emitted) as f64;
                k / (k + 1.0)
            })
            .sum();
        sum / self.samples.len() as f64
    }

    /// Cumulative distribution point: fraction of evictions changing at
    /// most `bytes` body bytes (the paper's Figures 7–10 / Tables 1 and 11).
    pub fn body_cdf(&self, bytes: u32) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|s| s.0 <= bytes).count();
        n as f64 / self.samples.len() as f64
    }
}

/// Whether one eviction's `(body, meta)` change fits the scheme from a
/// fully-free delta area. A dirty flush emits at least one record even
/// when only metadata changed, and metadata pairs spread across the
/// emitted records with `V` capacity each — comparing the total against a
/// single record's `V` under-counted multi-record evictions as infeasible.
fn sample_fits(scheme: &NxM, body: u32, meta: u32) -> bool {
    let emitted = scheme.records_needed(body as usize).max(1);
    if emitted > scheme.n as usize {
        return false; // also bails the usize::MAX sentinel when M = 0
    }
    meta as usize <= emitted * scheme.v as usize
}

/// Ceil-based nearest-rank percentile: the smallest sample value with at
/// least `p`% of the distribution at or below it. Rounding the fractional
/// rank (`.round()` over `p·(len−1)`) can select *below* the requested
/// percentile on small reservoirs, under-sizing M for exactly the short
/// profiles an online re-tune epoch works with.
fn percentile(values: impl Iterator<Item = u32>, len: usize, p: f64) -> u32 {
    if len == 0 {
        return 0;
    }
    let mut v: Vec<u32> = values.collect();
    v.sort_unstable();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * len as f64).ceil() as usize;
    v[rank.clamp(1, len) - 1]
}

/// A scheme recommendation with its predicted characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The suggested `[N×M]` configuration (including V).
    pub scheme: NxM,
    /// Predicted fraction of evictions servable as IPA.
    pub predicted_ipa_fraction: f64,
    /// Delta-area fraction of each page.
    pub space_overhead: f64,
}

/// The advisor itself. Stateless: feed it a profile, get a recommendation.
#[derive(Debug, Clone, Copy)]
pub struct IpaAdvisor {
    /// Page size the schemes must fit.
    pub page_size: usize,
    /// Flash append budget bounding N (e.g. 8 for SLC, 4 for MLC —
    /// `ipa_flash::CellType::max_appends`).
    pub max_n: u16,
}

impl IpaAdvisor {
    /// An advisor for the given page size and flash append budget.
    pub fn new(page_size: usize, max_n: u16) -> Self {
        IpaAdvisor { page_size, max_n }
    }

    /// Recommend a scheme for the goal, based on the profile.
    pub fn recommend(&self, profile: &UpdateSizeProfile, goal: AdvisorGoal) -> Recommendation {
        let (m_pct, n_pref) = match goal {
            AdvisorGoal::Performance => (70.0, 2u16),
            AdvisorGoal::Longevity => (85.0, self.max_n),
            AdvisorGoal::Space => (50.0, 1u16),
        };
        let m = profile.body_percentile(m_pct).clamp(1, MAX_M as u32) as u16;
        let v = profile.meta_percentile(99.0).clamp(1, 16) as u16;
        let mut n = n_pref.clamp(1, self.max_n);
        // Shrink until the delta area fits the page budget (≤ 25% of the
        // page, mirroring PageLayout's validation headroom).
        let mut scheme = NxM::new(n, m, v);
        while n > 1 && scheme.delta_area_size() * 4 > self.page_size {
            n -= 1;
            scheme = NxM::new(n, m, v);
        }
        let mut m_eff = m;
        while m_eff > 1 && scheme.delta_area_size() * 4 > self.page_size {
            m_eff -= 1;
            scheme = NxM::new(n, m_eff, v);
        }
        Recommendation {
            predicted_ipa_fraction: profile.ipa_feasible_fraction(&scheme),
            space_overhead: scheme.space_overhead(self.page_size),
            scheme,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpcc_like_profile() -> UpdateSizeProfile {
        // ~70% of evictions change 3 body bytes, the rest larger; metadata
        // mostly <= 12 bytes.
        let mut p = UpdateSizeProfile::default();
        for i in 0..1000u32 {
            let body = if i % 10 < 7 { 3 } else { 60 };
            let meta = if i % 10 < 9 { 8 } else { 12 };
            p.record(body, meta);
        }
        p
    }

    #[test]
    fn percentiles_reflect_distribution() {
        let p = tpcc_like_profile();
        assert_eq!(p.body_percentile(50.0), 3);
        assert_eq!(p.body_percentile(95.0), 60);
        assert!(p.meta_percentile(99.0) <= 12);
        assert_eq!(p.observations(), 1000);
    }

    #[test]
    fn cdf_is_monotone() {
        let p = tpcc_like_profile();
        assert!(p.body_cdf(2) <= p.body_cdf(3));
        assert!((p.body_cdf(3) - 0.7).abs() < 0.05);
        assert!((p.body_cdf(100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn advisor_picks_m3_for_tpcc_profile() {
        let p = tpcc_like_profile();
        let adv = IpaAdvisor::new(4096, 4);
        let rec = adv.recommend(&p, AdvisorGoal::Performance);
        assert_eq!(rec.scheme.m, 3, "paper: natural TPC-C choice is M=3");
        assert_eq!(rec.scheme.n, 2);
        assert!(rec.predicted_ipa_fraction > 0.6);
        assert!(rec.space_overhead < 0.1);
    }

    #[test]
    fn longevity_goal_raises_n() {
        let p = tpcc_like_profile();
        let adv = IpaAdvisor::new(4096, 4);
        let perf = adv.recommend(&p, AdvisorGoal::Performance);
        let longev = adv.recommend(&p, AdvisorGoal::Longevity);
        assert!(longev.scheme.n >= perf.scheme.n);
        assert!(longev.scheme.m >= perf.scheme.m);
    }

    #[test]
    fn space_goal_minimizes_overhead() {
        let p = tpcc_like_profile();
        let adv = IpaAdvisor::new(4096, 4);
        let space = adv.recommend(&p, AdvisorGoal::Space);
        let longev = adv.recommend(&p, AdvisorGoal::Longevity);
        assert!(space.space_overhead <= longev.space_overhead);
    }

    #[test]
    fn schemes_always_fit_page() {
        // Huge updates: advisor must still produce a scheme that fits.
        let mut p = UpdateSizeProfile::default();
        for _ in 0..100 {
            p.record(4000, 16);
        }
        let adv = IpaAdvisor::new(4096, 8);
        let rec = adv.recommend(&p, AdvisorGoal::Longevity);
        assert!(rec.scheme.delta_area_size() * 4 <= 4096);
        assert!(crate::layout::PageLayout::new(4096, rec.scheme).is_ok());
    }

    #[test]
    fn reservoir_stays_bounded() {
        let mut p = UpdateSizeProfile::with_capacity(64);
        for i in 0..10_000u32 {
            p.record(i % 100, 4);
        }
        assert_eq!(p.observations(), 10_000);
        assert!(p.body_percentile(50.0) < 100);
    }

    #[test]
    fn feasible_fraction_matches_scheme() {
        let p = tpcc_like_profile();
        // [2x3] fits the 70% small updates (3 bytes, 1 record) but not the
        // 60-byte ones (20 records needed).
        let f = p.ipa_feasible_fraction(&NxM::tpcc());
        assert!((f - 0.7).abs() < 0.05, "fraction {f}");
        assert_eq!(p.ipa_feasible_fraction(&NxM::disabled()), 0.0);
    }

    #[test]
    fn multi_record_meta_capacity_flips_verdict() {
        // Regression (advisor-math bugfix): a 6-byte body under [4x3]
        // emits 2 records, so 4 changed metadata bytes fit 2·V = 4 with
        // V = 2 — the old check compared 4 against a single record's V
        // and called the eviction infeasible.
        let mut p = UpdateSizeProfile::default();
        p.record(6, 4);
        let scheme = NxM::new(4, 3, 2);
        assert_eq!(p.ipa_feasible_fraction(&scheme), 1.0);
        // One metadata byte past the emitted capacity stays infeasible.
        let mut p2 = UpdateSizeProfile::default();
        p2.record(6, 5);
        assert_eq!(p2.ipa_feasible_fraction(&scheme), 0.0);
    }

    #[test]
    fn percentile_small_reservoir_uses_nearest_rank() {
        // 13 samples 0..=12: nearest-rank p85 must cover at least 85% of
        // the distribution → ⌈0.85·13⌉ = 12th order statistic = 11. The
        // old `.round()` over p·(len−1) picked 10, under-sizing M.
        let mut p = UpdateSizeProfile::default();
        for i in 0..13u32 {
            p.record(i, 0);
        }
        assert_eq!(p.body_percentile(85.0), 11);
        // 4 samples: p85 → ⌈3.4⌉ = 4th = max; p70 → ⌈2.8⌉ = 3rd.
        let mut q = UpdateSizeProfile::default();
        for val in [1u32, 2, 3, 4] {
            q.record(val, 0);
        }
        assert_eq!(q.body_percentile(85.0), 4);
        assert_eq!(q.body_percentile(70.0), 3);
        assert_eq!(q.body_percentile(100.0), 4);
        assert_eq!(q.body_percentile(0.0), 1);
    }

    #[test]
    fn percentile_never_selects_below_requested_coverage() {
        // Property of nearest-rank: at least p% of the sample lies at or
        // below the selected value, for every reservoir size.
        for len in 1..=40u32 {
            let mut p = UpdateSizeProfile::default();
            for i in 0..len {
                p.record(i, 0);
            }
            for pct in [10.0, 50.0, 70.0, 85.0, 95.0, 99.0] {
                let chosen = p.body_percentile(pct);
                let at_or_below = (0..len).filter(|&i| i <= chosen).count() as f64;
                assert!(
                    at_or_below / len as f64 >= pct / 100.0 - 1e-9,
                    "p{pct} of {len} picked {chosen}"
                );
            }
        }
    }

    #[test]
    fn predicted_hit_rate_is_n_sensitive() {
        let p = tpcc_like_profile();
        // [2x3] and [4x3] have identical per-flush feasibility (the 70%
        // of 3-byte updates fit both), but [4x3] sustains 4 appends per
        // out-of-place cycle instead of 2 — only the hit-rate predictor
        // can tell them apart, which is what the re-tune hysteresis uses.
        let small = NxM::new(2, 3, 12);
        let large = NxM::new(4, 3, 12);
        assert_eq!(p.ipa_feasible_fraction(&small), p.ipa_feasible_fraction(&large));
        let hr_small = p.predicted_hit_rate(&small);
        let hr_large = p.predicted_hit_rate(&large);
        assert!(hr_large > hr_small, "{hr_large} vs {hr_small}");
        // 70% of evictions emit 1 record: k = 2 → 2/3 per sample.
        assert!((hr_small - 0.7 * (2.0 / 3.0)).abs() < 0.05, "{hr_small}");
        assert_eq!(p.predicted_hit_rate(&NxM::disabled()), 0.0);
    }

    #[test]
    fn identical_streams_yield_identical_recommendations() {
        let mut a = UpdateSizeProfile::with_capacity(512);
        let mut b = UpdateSizeProfile::with_capacity(512);
        for i in 0..20_000u64 {
            // Arbitrary but fixed pseudo-stream, longer than the capacity
            // so the reservoir replacement path is exercised.
            let body = ((i * 2_654_435_761) % 97) as u32;
            let meta = ((i * 40_503) % 13) as u32;
            a.record(body, meta);
            b.record(body, meta);
        }
        let adv = IpaAdvisor::new(4096, 8);
        for goal in [AdvisorGoal::Performance, AdvisorGoal::Longevity, AdvisorGoal::Space] {
            assert_eq!(adv.recommend(&a, goal), adv.recommend(&b, goal));
        }
        assert_eq!(a.body_percentile(70.0), b.body_percentile(70.0));
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = UpdateSizeProfile::default();
        assert_eq!(p.body_percentile(50.0), 0);
        assert_eq!(p.body_cdf(10), 0.0);
        assert_eq!(p.ipa_feasible_fraction(&NxM::tpcc()), 0.0);
        assert_eq!(p.predicted_hit_rate(&NxM::tpcc()), 0.0);
        let adv = IpaAdvisor::new(4096, 4);
        let rec = adv.recommend(&p, AdvisorGoal::Performance);
        assert!(rec.scheme.m >= 1);
    }

    #[test]
    fn reservoir_sampling_is_unbiased() {
        use rand::Rng;
        ipa_flash::for_each_case(16, |rng| {
            let capacity = rng.gen_range(128usize..512);
            let stretch = rng.gen_range(4u64..12);
            // Feed `total = stretch · capacity` observations whose body
            // value encodes the arrival index, then check the retained
            // set draws ~uniformly from the whole stream: each quarter of
            // the arrival order contributes ≈ capacity/4 samples, i.e.
            // every observation was kept with probability ≈
            // capacity/total. A head-biased (naive fill) or tail-biased
            // (sliding window) reservoir fails this. The profile's RNG is
            // seeded, so each (capacity, stretch) case is deterministic.
            let total = capacity as u64 * stretch;
            let mut p = UpdateSizeProfile::with_capacity(capacity);
            for i in 0..total {
                p.record(i as u32, 0);
            }
            assert_eq!(p.samples.len(), capacity);
            let mut quarters = [0usize; 4];
            for &(body, _) in p.samples.iter() {
                let q = (body as u64 * 4 / total).min(3) as usize;
                quarters[q] += 1;
            }
            let expected = capacity as f64 / 4.0;
            for (qi, &count) in quarters.iter().enumerate() {
                let dev = (count as f64 - expected).abs();
                assert!(
                    dev < expected * 0.5,
                    "quarter {qi} held {count} of expected {expected} (total {total}, capacity {capacity})"
                );
            }
        });
    }
}
