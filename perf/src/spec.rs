//! The frozen tables: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! schema test fails when the two drift apart.

use ipa_core::NxM;
use ipa_engine::LockPolicy;
use ipa_workloads::SystemConfig;

/// Default seed (`--seed`).
pub const DEFAULT_SEED: u64 = 0x1DA_5EED;
/// Default window length (`--seconds`), equal to `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Warm-up length as a share of the measured transaction count.
pub const WARMUP_SHARE: f64 = 0.20;
/// Measured transactions per workload under `--smoke`.
pub const SMOKE_TXNS: u64 = 2_000;
/// Floor of the measured count: p99.9 needs 20 samples beyond it.
pub const MIN_TXNS: u64 = 20_000;
/// Yardstick ticks per warm-up and per window (see `yardstick.rs`).
pub const TICKS_PER_WINDOW: u64 = 64;
/// XORed into the seed for the pool's warm-up clients, so the window does
/// not replay the warm-up's keys.
pub const POOL_WARMUP_SEED: u64 = 0xA11CE;
/// Times the set-up phase is repeated in an untraced run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// Which driver and which checks a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `TpcB` through the serial loop of `Runner::run`.
    TpcbSerial,
    /// `TpcB` through `MultiRunner` / `ClientPool` with `clients` clients.
    TpcbPool,
    /// `TpcC` through the serial loop.
    TpccSerial,
}

/// One row of the workload table.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Driver and checks.
    pub kind: Kind,
    /// `[N×M]` scheme as `(n, m, v)`; `(0, 0, 0)` is the no-IPA baseline.
    pub scheme: (u16, u16, u16),
    /// Buffer pool as a share of the initial database.
    pub buffer_fraction: f64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Measured transactions per `--seconds` second. Calibrated once on the
    /// seed commit so that the window lasts about `--seconds` host seconds
    /// there, then frozen: work per run is a count, never a duration, so
    /// every simulated number repeats exactly.
    pub txns_per_second: u64,
    /// Bytes a transaction appends to ever-growing heaps on average
    /// (history, orders, order lines) — sizes the device through
    /// `growth_override` so appends never fill it.
    pub append_bytes_per_txn: f64,
}

impl WorkloadSpec {
    /// The scheme as the core type.
    pub fn nxm(&self) -> NxM {
        NxM::new(self.scheme.0, self.scheme.1, self.scheme.2)
    }

    /// Measured transaction count for a window of `seconds`.
    pub fn measured_txns(&self, seconds: u64, smoke: bool) -> u64 {
        if smoke {
            return SMOKE_TXNS;
        }
        // Whole transactions per client so the pool splits evenly.
        let k = self.clients as u64;
        (self.txns_per_second * seconds).max(MIN_TXNS).div_ceil(k) * k
    }

    /// Warm-up transaction count for a measured count.
    pub fn warmup_txns(&self, measured: u64) -> u64 {
        let k = self.clients as u64;
        ((measured as f64 * WARMUP_SHARE) as u64).div_ceil(k) * k
    }

    /// The system configuration: `SystemConfig::emulator` (4 KiB pages,
    /// 10 % over-provisioning, eager eviction) plus the pool settings of
    /// `tpcb_k8`, with the device sized for `total_txns` transactions of
    /// appends on top of `initial_pages`.
    pub fn system_config(&self, initial_pages: u64, total_txns: u64) -> SystemConfig {
        let mut cfg = SystemConfig::emulator(self.nxm(), self.buffer_fraction);
        if self.kind == Kind::TpcbPool {
            cfg.lock_policy = LockPolicy::WaitDie;
            cfg.group_commit_batch = 8;
            cfg.group_commit_timeout_ns = 4_000_000;
            cfg.log_force_ns = 1_000_000;
            cfg.queue_depth = 8;
            cfg.cpu_ns_per_txn = 200_000;
        }
        // ~3.9 KiB of a 4 KiB page hold tuples; the margins cover partly
        // filled tail pages and index growth. Kept tight: every spare
        // logical page is over-provisioning the run never gives back.
        let append_pages = total_txns as f64 * self.append_bytes_per_txn * 1.1 / 3900.0;
        cfg.growth_override = Some(1.1 + append_pages / initial_pages as f64);
        cfg
    }
}

/// The four workloads. `txns_per_second` is the calibration record of
/// README.md ("Calibration").
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "tpcb_ipa",
        why: "TPC-B, data 10x the buffer, [2x4] appends: reads, delta path and flush decision do the work",
        kind: Kind::TpcbSerial,
        scheme: (2, 4, 12),
        buffer_fraction: 0.10,
        clients: 1,
        txns_per_second: 50_000,
        append_bytes_per_txn: 54.0,
    },
    WorkloadSpec {
        name: "tpcb_oop",
        why: "Same database with [0x0]: every flush is a page program and GC runs; the append path is bypassed",
        kind: Kind::TpcbSerial,
        scheme: (0, 0, 0),
        buffer_fraction: 0.10,
        clients: 1,
        txns_per_second: 42_000,
        append_bytes_per_txn: 54.0,
    },
    WorkloadSpec {
        name: "tpcb_k8",
        why: "Database fits the buffer, 8 clients, wait-die, group commit: lock manager, WAL and pool scheduling",
        kind: Kind::TpcbPool,
        scheme: (2, 4, 12),
        buffer_fraction: 1.0,
        clients: 8,
        txns_per_second: 26_000,
        append_bytes_per_txn: 54.0,
    },
    WorkloadSpec {
        name: "tpcc_mix",
        why: "TPC-C five-transaction mix, [2x3], 25 % buffer: index lookups and range scans beside updates and inserts",
        kind: Kind::TpccSerial,
        scheme: (2, 3, 12),
        buffer_fraction: 0.25,
        clients: 1,
        txns_per_second: 12_500,
        append_bytes_per_txn: 300.0,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock of the machine running the benchmark.
    Host,
    /// The simulated device clock, or a count: repeats exactly per seed.
    Sim,
}

/// Declaration of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name (per-layer names carry their layer as a prefix).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// End-to-end metrics: the share of the parent's median by which a
    /// change may be worse (the `bound` of `BENCHMARK.json`).
    pub bound: Option<f64>,
}

impl MetricSpec {
    const fn bounded(mut self, bound: f64) -> MetricSpec {
        self.bound = Some(bound);
        self
    }
}

const fn host(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricSpec {
    MetricSpec { name, unit, clock: Clock::Host, higher_is_better, bound: None }
}

const fn sim(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricSpec {
    MetricSpec { name, unit, clock: Clock::Sim, higher_is_better, bound: None }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `failed_frac` is reported beside them (it is 0 on a correct run, so the
/// driver carries it as `failed` / `attempted`, not as a bounded metric).
/// The bounds on the simulated metrics cover the driver's varying seeds;
/// for one seed they repeat exactly.
pub const END_TO_END: [MetricSpec; 9] = [
    host("host_txn_per_s", "1/s", true).bounded(0.2),
    host("setup_s", "s", false).bounded(0.25),
    host("host_peak_rss_mb", "MiB", false).bounded(0.1),
    sim("sim_tps", "1/s", true).bounded(0.03),
    sim("sim_txn_p50_us", "sim_us", false).bounded(0.03),
    sim("sim_txn_p99_us", "sim_us", false).bounded(0.1),
    sim("sim_txn_p999_us", "sim_us", false).bounded(0.15),
    sim("write_amp", "ratio", false).bounded(0.03),
    sim("erases_per_ktxn", "1/ktxn", false).bounded(0.03),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. Metrics
/// that do not apply to a workload (pool counters on a serial one, delta
/// costs on `[0x0]`) read 0.
pub const PER_LAYER: [MetricSpec; 73] = [
    // flash: device operations (GC traffic included) and their host cost
    // from `flash_replay`.
    sim("flash.host_reads", "count", false),
    sim("flash.host_programs", "count", false),
    sim("flash.host_delta_programs", "count", true),
    sim("flash.gc_programs", "count", false),
    sim("flash.erases", "count", false),
    sim("flash.sim_read_ms_mean", "sim_ms", false),
    sim("flash.sim_write_ms_mean", "sim_ms", false),
    sim("flash.sim_queue_wait_frac", "ratio", false),
    sim("flash.ispp_violations", "count", false),
    sim("flash.program_failures", "count", false),
    host("flash.read_host_ns", "ns", false),
    host("flash.program_host_ns", "ns", false),
    host("flash.program_delta_host_ns", "ns", false),
    host("flash.erase_host_ns", "ns", false),
    host("flash.replay_host_s", "s", false),
    // noftl: logical I/O, GC, and host cost from `noftl_replay` (flash
    // included in the per-call numbers, excluded from `self_host_s`).
    sim("noftl.host_reads", "count", false),
    sim("noftl.host_page_writes", "count", false),
    sim("noftl.host_delta_writes", "count", true),
    sim("noftl.delta_bytes", "B", false),
    sim("noftl.ipa_fraction", "ratio", true),
    sim("noftl.gc_page_migrations", "count", false),
    sim("noftl.gc_erases", "count", false),
    sim("noftl.migrations_per_host_write", "ratio", false),
    sim("noftl.erases_per_host_write", "ratio", false),
    sim("noftl.delta_fallbacks", "count", false),
    sim("noftl.program_retries", "count", false),
    host("noftl.read_page_host_ns", "ns", false),
    host("noftl.write_page_host_ns", "ns", false),
    host("noftl.write_delta_host_ns", "ns", false),
    host("noftl.self_host_s", "s", false),
    // core: update sizes and the host cost of tracking, deciding,
    // encoding and applying deltas from `core_replay`.
    sim("core.update_bytes_p50", "B", false),
    sim("core.update_bytes_p90", "B", false),
    host("core.track_update_host_ns", "ns", false),
    host("core.decide_host_ns", "ns", false),
    host("core.encode_host_ns", "ns", false),
    host("core.decode_apply_host_ns", "ns", false),
    host("core.self_host_s", "s", false),
    // engine: buffer, WAL, locks, background work, restart.
    host("engine.txn_host_ns_p50", "ns", false),
    host("engine.txn_host_ns_p99", "ns", false),
    host("engine.background_host_frac", "ratio", false),
    sim("engine.buffer_hit_rate", "ratio", true),
    sim("engine.evictions_per_txn", "1/txn", false),
    sim("engine.ipa_flushes", "count", true),
    sim("engine.oop_flushes", "count", false),
    sim("engine.cleaner_flushes", "count", false),
    sim("engine.log_reclaims", "count", false),
    sim("engine.delta_records_per_ipa_flush", "ratio", false),
    sim("engine.gross_bytes_per_net_byte", "ratio", false),
    sim("engine.wal_forces_per_commit", "ratio", false),
    sim("engine.group_commits", "count", false),
    sim("engine.lock_waits", "count", false),
    sim("engine.restarts", "count", false),
    sim("engine.deadlock_aborts", "count", false),
    host("engine.flush_all_host_ms", "ms", false),
    sim("engine.recover_sim_ms", "sim_ms", false),
    host("engine.recover_host_ms", "ms", false),
    sim("engine.analysis_records", "count", false),
    sim("engine.redo_applied", "count", false),
    host("engine.self_host_s", "s", false),
    // workloads: generator cost cannot be separated from outside the
    // crate and is part of `engine.txn_host_ns_*`.
    sim("workloads.pool_steps_per_commit", "ratio", false),
    // obs: what attaching observers costs.
    sim("obs.events_per_txn", "1/txn", false),
    host("obs.observer_overhead_frac", "ratio", false),
    host("obs.snapshot_capture_host_us", "us", false),
    host("obs.jsonl_host_ns_per_event", "ns", false),
    // harness: sample size, CPU share, cost of tracing, failures.
    sim("harness.n_txn", "count", true),
    host("harness.oncpu_frac", "ratio", true),
    host("harness.trace_overhead_frac", "ratio", false),
    sim("harness.failed_frac", "ratio", false),
    sim("harness.capacity_overwrites", "ratio", true),
    sim("harness.op_effective_start", "ratio", false),
    sim("harness.op_effective_end", "ratio", false),
    host("harness.host_txn_per_s_raw", "1/s", true),
    host("harness.speed_factor", "ratio", false),
];
