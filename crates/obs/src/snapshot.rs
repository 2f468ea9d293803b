//! Point-in-time capture of every stats struct in the stack, with
//! interval deltas and derived gauges.

use ipa_engine::{Database, EngineStats, SweepStats};
use ipa_flash::{
    ChipCounters, CounterValue, Counters, FlashDevice, FlashStats, LatencyHistogram, WearHistogram,
};
use ipa_noftl::{NoFtl, RegionId, RegionStats};
use serde_json::{Map, Value};

/// All counters of the stack at one instant of simulated time. Layers the
/// capture source does not reach stay at their defaults (e.g. a
/// device-only capture has empty engine stats).
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct Snapshot {
    /// Simulated device clock at capture — in a delta, the interval length.
    pub at_ns: u64,
    /// Flash-device counters and latency histograms.
    pub flash: FlashStats,
    /// Storage-engine counters.
    pub engine: EngineStats,
    /// Buffer-pool CLOCK sweep counters.
    pub sweep: SweepStats,
    /// Per-region counters, indexed by region id.
    pub regions: Vec<RegionStats>,
    /// Per-chip operation counters, indexed by chip id.
    pub chips: Vec<ChipCounters>,
    /// Per-block erase-count distribution at capture. Distributions don't
    /// subtract, so a delta snapshot carries `None`.
    pub wear: Option<WearHistogram>,
    /// Host commands in flight on the device queue at capture (gauge).
    pub host_inflight: u64,
    /// Events the trace ring sink has evicted so far (see
    /// [`crate::TraceHandle::dropped`]); zero when no ring is wired in via
    /// [`Snapshot::with_trace_dropped`].
    pub trace_dropped: u64,
}

/// Declares [`Gauges`] once: the struct and its JSON rendering (one key
/// per field, named after it, in declaration order) come from this list.
macro_rules! gauges {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty ),* $(,)?) => {
        /// Derived metrics over one snapshot (cumulative or interval) — the
        /// paper's ratio rows plus tail latencies.
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[must_use]
        pub struct Gauges {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl Gauges {
            /// Encode as a JSON object.
            pub fn to_json(&self) -> Value {
                let mut m = Map::new();
                $( m.insert(stringify!($field).into(), Value::from(self.$field)); )*
                Value::Object(m)
            }
        }
    };
}

gauges! {
    /// DB write amplification: gross written / net changed bytes.
    write_amplification: f64,
    /// Fraction of host writes served as in-place appends.
    ipa_fraction: f64,
    /// GC page migrations per host write.
    migrations_per_host_write: f64,
    /// GC erases per host write.
    erases_per_host_write: f64,
    /// Buffer-pool hit ratio.
    hit_ratio: f64,
    /// Mean host read latency, nanoseconds.
    read_mean_ns: u64,
    /// p50 host read latency, nanoseconds.
    read_p50_ns: u64,
    /// p95 host read latency, nanoseconds.
    read_p95_ns: u64,
    /// p99 host read latency, nanoseconds.
    read_p99_ns: u64,
    /// Mean host write latency, nanoseconds.
    write_mean_ns: u64,
    /// p50 host write latency, nanoseconds.
    write_p50_ns: u64,
    /// p95 host write latency, nanoseconds.
    write_p95_ns: u64,
    /// p99 host write latency, nanoseconds.
    write_p99_ns: u64,
    /// Highest number of host commands simultaneously in flight on the
    /// device queue.
    queue_highwater: u64,
    /// Host submissions that found the command queue full and had to wait.
    queue_waits: u64,
    /// Busy time of the most-loaded chip, nanoseconds.
    chip_busy_max_ns: u64,
    /// Mean per-chip busy time, nanoseconds.
    chip_busy_mean_ns: u64,
}

impl Snapshot {
    /// Capture the full stack through a [`Database`].
    pub fn capture(db: &Database) -> Snapshot {
        let mut snap = Snapshot::capture_noftl(db.ftl());
        snap.engine = db.stats().clone();
        snap.sweep = db.sweep_stats();
        snap
    }

    /// Capture the flash-management view (device + regions) of a NoFTL.
    pub fn capture_noftl(ftl: &NoFtl) -> Snapshot {
        let mut snap = Snapshot::capture_device(ftl.device());
        snap.regions = (0..ftl.region_count())
            .filter_map(|i| ftl.region_stats(RegionId(i)).ok().cloned())
            .collect();
        snap
    }

    /// Capture a bare flash device (no region/engine context).
    pub fn capture_device(dev: &FlashDevice) -> Snapshot {
        Snapshot {
            at_ns: dev.clock().now_ns(),
            flash: dev.stats().clone(),
            chips: dev.chip_counters(),
            wear: Some(dev.wear_histogram()),
            host_inflight: dev.host_inflight() as u64,
            ..Snapshot::default()
        }
    }

    /// Record the trace ring's dropped-event count in this snapshot.
    pub fn with_trace_dropped(mut self, dropped: u64) -> Snapshot {
        self.trace_dropped = dropped;
        self
    }

    /// Interval counters `self - earlier`: every field subtracts
    /// field-wise, `at_ns` becomes the interval duration, and per-region /
    /// per-chip entries pair up by index (entries absent in `earlier`
    /// count from zero). The delta of identical snapshots is all-zero.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            at_ns: self.at_ns.saturating_sub(earlier.at_ns),
            flash: self.flash.delta_since(&earlier.flash),
            engine: self.engine.delta_since(&earlier.engine),
            sweep: self.sweep.delta_since(&earlier.sweep),
            regions: delta_each(&self.regions, &earlier.regions),
            chips: delta_each(&self.chips, &earlier.chips),
            wear: None,
            host_inflight: self.host_inflight.saturating_sub(earlier.host_inflight),
            trace_dropped: self.trace_dropped.saturating_sub(earlier.trace_dropped),
        }
    }

    /// All per-region counters merged into one device total.
    pub fn region_total(&self) -> RegionStats {
        let mut total = RegionStats::default();
        for r in &self.regions {
            total.merge(r);
        }
        total
    }

    /// Derived gauges over this snapshot's counters.
    pub fn gauges(&self) -> Gauges {
        let hw = self.flash.host_writes();
        Gauges {
            write_amplification: self.engine.write_amplification(),
            ipa_fraction: if hw == 0 {
                0.0
            } else {
                self.flash.host_delta_programs as f64 / hw as f64
            },
            migrations_per_host_write: self.flash.migrations_per_host_write(),
            erases_per_host_write: self.flash.erases_per_host_write(),
            hit_ratio: self.engine.hit_ratio(),
            read_mean_ns: self.flash.read_latency.mean_ns(),
            read_p50_ns: self.flash.read_latency.percentile_ns(0.50),
            read_p95_ns: self.flash.read_latency.percentile_ns(0.95),
            read_p99_ns: self.flash.read_latency.percentile_ns(0.99),
            write_mean_ns: self.flash.write_latency.mean_ns(),
            write_p50_ns: self.flash.write_latency.percentile_ns(0.50),
            write_p95_ns: self.flash.write_latency.percentile_ns(0.95),
            write_p99_ns: self.flash.write_latency.percentile_ns(0.99),
            queue_highwater: self.flash.queue_highwater,
            queue_waits: self.flash.queue_waits,
            chip_busy_max_ns: self.chips.iter().map(|c| c.busy_ns).max().unwrap_or(0),
            chip_busy_mean_ns: if self.chips.is_empty() {
                0
            } else {
                self.chips.iter().map(|c| c.busy_ns).sum::<u64>() / self.chips.len() as u64
            },
        }
    }

    /// Encode as a JSON object (histograms reduced to count / mean / max /
    /// percentiles — bucket arrays stay internal).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("at_ns".into(), Value::from(self.at_ns));
        m.insert("flash".into(), Value::Object(counters_json(&self.flash)));
        m.insert("engine".into(), Value::Object(counters_json(&self.engine)));
        m.insert("sweep".into(), Value::Object(counters_json(&self.sweep)));
        m.insert("regions".into(), json_each(&self.regions, counters_json));
        m.insert("chips".into(), json_each(&self.chips, |c| chip_json(c, self.at_ns)));
        if let Some(wear) = &self.wear {
            m.insert("wear".into(), wear_json(wear));
        }
        m.insert("host_inflight".into(), Value::from(self.host_inflight));
        m.insert("trace_dropped".into(), Value::from(self.trace_dropped));
        Value::Object(m)
    }
}

fn hist_json(h: &LatencyHistogram) -> Value {
    let mut m = Map::new();
    m.insert("count".into(), Value::from(h.count()));
    m.insert("mean_ns".into(), Value::from(h.mean_ns()));
    m.insert("max_ns".into(), Value::from(h.max_ns()));
    m.insert("p50_us".into(), Value::from(h.percentile_us(0.50)));
    m.insert("p95_us".into(), Value::from(h.percentile_us(0.95)));
    m.insert("p99_us".into(), Value::from(h.percentile_us(0.99)));
    Value::Object(m)
}

/// Pair up two per-index counter lists and subtract entry-wise (entries
/// absent in `earlier` count from zero).
fn delta_each<T: Counters>(now: &[T], earlier: &[T]) -> Vec<T> {
    let zero = T::default();
    now.iter().enumerate().map(|(i, c)| c.delta_since(earlier.get(i).unwrap_or(&zero))).collect()
}

/// Every field of a counter set, keyed by its declared name.
fn counters_json(c: &impl Counters) -> Map<String, Value> {
    let mut m = Map::new();
    c.walk(|name, value| {
        let value = match value {
            CounterValue::Sum(n) | CounterValue::Max(n) => Value::from(n),
            CounterValue::Hist(h) => hist_json(h),
        };
        m.insert(name.into(), value);
    });
    m
}

fn json_each<T>(items: &[T], object: impl Fn(&T) -> Map<String, Value>) -> Value {
    Value::from(items.iter().map(|i| Value::Object(object(i))).collect::<Vec<_>>())
}

fn chip_json(c: &ChipCounters, at_ns: u64) -> Map<String, Value> {
    let mut m = counters_json(c);
    // Busy fraction of the captured window: busy/now for a cumulative
    // snapshot, busy-delta/interval for a delta (`at_ns` is the interval
    // there). 0 for an empty window.
    let util = if at_ns == 0 { 0.0 } else { c.busy_ns as f64 / at_ns as f64 };
    m.insert("utilization".into(), Value::from(util));
    m
}

fn wear_json(w: &WearHistogram) -> Value {
    let mut m = Map::new();
    m.insert("min".into(), Value::from(w.min));
    m.insert("max".into(), Value::from(w.max));
    m.insert("mean".into(), Value::from(w.mean));
    m.insert("buckets".into(), Value::from(w.buckets.to_vec()));
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::CounterSlot;

    #[test]
    fn identical_snapshot_delta_is_zero() {
        let mut snap = Snapshot { at_ns: 500, ..Snapshot::default() };
        snap.flash.host_programs = 7;
        snap.regions.push(RegionStats { host_page_writes: 7, ..RegionStats::default() });
        snap.chips.push(ChipCounters { programs: 7, ..ChipCounters::default() });
        let d = snap.delta_since(&snap);
        assert_eq!(d.at_ns, 0);
        assert_eq!(d.flash.host_programs, 0);
        assert_eq!(d.regions[0], RegionStats::default());
        assert_eq!(d.chips[0], ChipCounters::default());
        // Every numeric leaf of the delta must be zero; the per-region and
        // per-chip array shape is preserved (zeroed entries, not dropped).
        fn assert_all_zero(v: &Value, path: &str) {
            match v {
                Value::Object(m) => {
                    for (k, v) in m {
                        assert_all_zero(v, &format!("{path}.{k}"));
                    }
                }
                Value::Array(a) => {
                    for (i, v) in a.iter().enumerate() {
                        assert_all_zero(v, &format!("{path}[{i}]"));
                    }
                }
                Value::Number(n) => {
                    assert_eq!(n.as_f64(), Some(0.0), "non-zero delta leaf at {path}");
                }
                _ => {}
            }
        }
        assert_all_zero(&d.to_json(), "delta");
    }

    /// The algebra of one `counters!` struct, checked through its field
    /// walk alone: no field name appears here, so a new counter is covered
    /// the moment it is declared. `place` puts a value where the snapshot
    /// keeps that struct and `section` finds its rendering; `derived` names
    /// the keys the rendering adds beyond the walk.
    fn check_counters<T: Counters + Clone>(
        place: impl Fn(&mut Snapshot, T),
        section: impl Fn(&Value) -> &Value,
        derived: &[&str],
    ) {
        let sample = |value: &dyn Fn(u64) -> u64| {
            let (mut t, mut i) = (T::default(), 0);
            t.walk_mut(|_, slot| {
                i += 1;
                match slot {
                    CounterSlot::Count(c) => *c = value(i),
                    CounterSlot::Hist(h) => h.record(value(i) * 1_000),
                }
            });
            t
        };
        fn fields<T: Counters>(t: &T) -> Vec<(&'static str, CounterValue<'_>)> {
            let mut out = Vec::new();
            t.walk(|name, value| out.push((name, value)));
            out
        }
        // One sample rises with the field index and one falls, so across
        // the structs a `max` field meets both orders.
        let (a, b) = (sample(&|i| 3 * i), sample(&|i| 50 - i));
        let mut merged = a.clone();
        merged.merge(&b);
        let delta = merged.delta_since(&b);
        let rows = fields(&a).into_iter().zip(fields(&b)).zip(fields(&merged)).zip(fields(&delta));
        for ((((name, a), (_, b)), (_, merged)), (_, delta)) in rows {
            match (a, b, merged, delta) {
                (
                    CounterValue::Sum(a),
                    CounterValue::Sum(b),
                    CounterValue::Sum(m),
                    CounterValue::Sum(d),
                ) => {
                    assert_eq!(m, a + b, "{name}: sum fields add");
                    assert_eq!(d, a, "{name}: (a merged b) - b = a");
                }
                (
                    CounterValue::Max(a),
                    CounterValue::Max(b),
                    CounterValue::Max(m),
                    CounterValue::Max(d),
                ) => {
                    assert_eq!(m, a.max(b), "{name}: max fields keep the larger");
                    assert_eq!(d, m - b, "{name}: delta subtracts");
                }
                (
                    CounterValue::Hist(a),
                    CounterValue::Hist(b),
                    CounterValue::Hist(m),
                    CounterValue::Hist(d),
                ) => {
                    assert_eq!(m.count(), a.count() + b.count(), "{name}: histograms merge");
                    assert_eq!(m.sum_ns(), a.sum_ns() + b.sum_ns(), "{name}");
                    assert_eq!(m.max_ns(), a.max_ns().max(b.max_ns()), "{name}");
                    assert_eq!((d.count(), d.sum_ns()), (a.count(), a.sum_ns()), "{name}");
                }
                other => panic!("{name}: rule differs between walks: {other:?}"),
            }
        }

        let mut zeroed = merged.clone();
        zeroed.reset();
        for (name, value) in fields(&zeroed) {
            let n = match value {
                CounterValue::Sum(n) | CounterValue::Max(n) => n,
                CounterValue::Hist(h) => h.count(),
            };
            assert_eq!(n, 0, "{name}: reset zeroes every field");
        }

        // The snapshot renders exactly the walked names, with their values.
        let mut snap = Snapshot { at_ns: 1_000, ..Snapshot::default() };
        place(&mut snap, a.clone());
        let json = snap.to_json();
        let rendered = section(&json).as_object().expect("section is an object");
        let mut expected: Vec<&str> = fields(&a).iter().map(|(n, _)| *n).collect();
        expected.extend_from_slice(derived);
        expected.sort_unstable();
        let mut got: Vec<&str> = rendered.keys().map(String::as_str).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        for (name, value) in fields(&a) {
            match value {
                CounterValue::Sum(n) | CounterValue::Max(n) => assert_eq!(rendered[name], n),
                CounterValue::Hist(h) => assert_eq!(rendered[name]["count"], h.count()),
            }
        }
    }

    #[test]
    fn every_counter_struct_obeys_the_declared_rules() {
        check_counters::<FlashStats>(|s, v| s.flash = v, |j| &j["flash"], &[]);
        check_counters::<EngineStats>(|s, v| s.engine = v, |j| &j["engine"], &[]);
        check_counters::<SweepStats>(|s, v| s.sweep = v, |j| &j["sweep"], &[]);
        check_counters::<RegionStats>(|s, v| s.regions.push(v), |j| &j["regions"][0], &[]);
        check_counters::<ChipCounters>(
            |s, v| s.chips.push(v),
            |j| &j["chips"][0],
            &["utilization"],
        );
    }

    #[test]
    fn region_total_merges_all_regions() {
        let mut snap = Snapshot::default();
        snap.regions.push(RegionStats { host_reads: 3, ..RegionStats::default() });
        snap.regions.push(RegionStats { host_reads: 4, gc_erases: 1, ..RegionStats::default() });
        let total = snap.region_total();
        assert_eq!(total.host_reads, 7);
        assert_eq!(total.gc_erases, 1);
    }

    #[test]
    fn gauges_zero_safe_and_ratio_correct() {
        let g = Snapshot::default().gauges();
        assert_eq!(g.write_amplification, 0.0);
        assert_eq!(g.ipa_fraction, 0.0);
        assert_eq!(g.read_p99_ns, 0);

        let mut snap = Snapshot::default();
        snap.flash.host_programs = 25;
        snap.flash.host_delta_programs = 75;
        assert!((snap.gauges().ipa_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_shape() {
        let mut snap = Snapshot { at_ns: 42, ..Snapshot::default() };
        snap.flash.read_latency.record(5_000);
        let v = snap.to_json();
        assert_eq!(v["at_ns"], 42);
        assert_eq!(v["flash"]["read_latency"]["count"], 1);
        assert!(v["regions"].as_array().unwrap().is_empty());
        let g = snap.gauges().to_json();
        assert_eq!(g["read_mean_ns"], 5_000);
    }
}
