//! Shared benchmark machinery: system sizing, the run loop and the report.

use ipa_core::NxM;
use ipa_engine::{
    ClientPool, Database, DbConfig, EngineStats, InterleavedClient, LockPolicy, PoolConfig,
    PoolRunReport, Result, Schedule,
};
use ipa_flash::FlashConfig;
use ipa_noftl::{FaultPlan, FaultPolicy, IpaMode, NoFtlConfig, RegionStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which testbed the run models (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The real-time flash emulator: 16 SLC chips, chip-parallel host I/O.
    Emulator,
    /// The OpenSSD Jasmine board: MLC flash, host parallelism of one.
    OpenSsd,
}

/// Full system configuration for one benchmark run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Testbed model.
    pub platform: Platform,
    /// IPA mode of the (single) region.
    pub ipa_mode: IpaMode,
    /// `[N×M]` scheme (use [`NxM::disabled`] for the `[0×0]` baseline).
    pub scheme: NxM,
    /// Database page size (== flash page size; 4 KiB in the paper's TPC
    /// experiments, 8 KiB for LinkBench).
    pub page_size: usize,
    /// Buffer pool size as a fraction of the initial database size.
    pub buffer_fraction: f64,
    /// Over-provisioning of the flash region (paper: 10%).
    pub over_provisioning: f64,
    /// Eager (Shore-MT default) vs non-eager eviction and log reclamation.
    pub eager: bool,
    /// Host command-queue depth. Both testbed constructors pin this to 1 —
    /// the serial behaviour the paper measured, and on OpenSSD (no NCQ) the
    /// board's only one. A deeper queue changes nothing for a serial
    /// driver, which keeps one host command in flight; only a multi-client
    /// run can fill it.
    pub queue_depth: u32,
    /// Simulated CPU time consumed per transaction, nanoseconds.
    pub cpu_ns_per_txn: u64,
    /// Override of the workload's growth estimate (long runs of
    /// append-heavy workloads need more headroom than the default).
    pub growth_override: Option<f64>,
    /// Operation-fault plan of the flash device. The default plan is
    /// inactive: no RNG draws, no op counting — runs are bit-identical to
    /// a build without fault injection.
    pub fault_plan: FaultPlan,
    /// Self-healing policy of the flash-management layer (program retry
    /// budget, scrub threshold).
    pub fault_policy: FaultPolicy,
    /// Group-commit batch threshold (`<= 1` disables batching; both
    /// testbed constructors pin it to 1 — the serial behaviour the paper
    /// measured).
    pub group_commit_batch: usize,
    /// Group-commit timeout on the simulated clock (0 = none).
    pub group_commit_timeout_ns: u64,
    /// Simulated log-device force latency (0 = the legacy free-force
    /// model; multi-client sweeps set it to expose the amortization).
    pub log_force_ns: u64,
    /// Row-lock conflict policy. Serial runs keep no-wait; multi-client
    /// runs switch to wait-die.
    pub lock_policy: LockPolicy,
    /// Online-advisor re-tune period on the simulated clock (0 = static
    /// schemes, the default — traces are bit-identical to a build without
    /// the adaptive machinery).
    pub advisor_epoch_ns: u64,
    /// Minimum profile samples in an epoch before a region is evaluated
    /// (smaller = faster phase detection, noisier recommendations).
    pub advisor_min_observations: u64,
    /// Fuzzy-checkpoint period on the simulated clock (0 = no periodic
    /// checkpoints, the default — restart scans the whole retained log).
    pub checkpoint_interval_ns: u64,
}

impl SystemConfig {
    /// The paper's emulator setup with a given scheme and buffer fraction.
    pub fn emulator(scheme: NxM, buffer_fraction: f64) -> Self {
        SystemConfig {
            platform: Platform::Emulator,
            ipa_mode: if scheme.is_enabled() { IpaMode::Slc } else { IpaMode::None },
            scheme,
            page_size: 4096,
            buffer_fraction,
            over_provisioning: 0.10,
            eager: true,
            queue_depth: 1,
            // Large enough that a fully-buffered run is CPU-bound (the
            // paper's throughput gains fade at 75-90% buffers).
            cpu_ns_per_txn: 200_000,
            growth_override: None,
            fault_plan: FaultPlan::default(),
            fault_policy: FaultPolicy::default(),
            group_commit_batch: 1,
            group_commit_timeout_ns: 0,
            log_force_ns: 0,
            lock_policy: LockPolicy::NoWait,
            advisor_epoch_ns: 0,
            advisor_min_observations: 64,
            checkpoint_interval_ns: 0,
        }
    }

    /// The OpenSSD setup (MLC). `pslc = true` selects pSLC mode, otherwise
    /// odd-MLC; a disabled scheme selects the no-IPA baseline.
    pub fn openssd(scheme: NxM, pslc: bool) -> Self {
        let ipa_mode = if !scheme.is_enabled() {
            IpaMode::None
        } else if pslc {
            IpaMode::PSlc
        } else {
            IpaMode::OddMlc
        };
        SystemConfig {
            platform: Platform::OpenSsd,
            ipa_mode,
            cpu_ns_per_txn: 50_000,
            // Appendix D: the OpenSSD host has 4 GB RAM -> 1.5% buffer.
            ..SystemConfig::emulator(scheme, 0.015)
        }
    }

    /// Build a [`Database`] sized for a workload, using its own growth
    /// estimate (preferred — keeps the effective over-provisioning honest).
    pub fn build_for(&self, w: &dyn Workload) -> Result<Database> {
        let growth = self.growth_override.unwrap_or_else(|| w.growth_factor());
        self.build_with_growth(w.estimated_pages(self.page_size), growth)
    }

    /// Build a [`Database`] sized for `estimated_pages` logical pages of
    /// initial database content, with the default growth headroom.
    pub fn build(&self, estimated_pages: u64) -> Result<Database> {
        self.build_with_growth(estimated_pages, 3.0)
    }

    /// Build with an explicit growth headroom multiple.
    pub fn build_with_growth(&self, estimated_pages: u64, growth: f64) -> Result<Database> {
        let needed_logical = (estimated_pages as f64 * growth.max(1.1)).ceil() as u64 + 64;
        let pages_per_block: u32 = 64;
        let usable_factor = if self.ipa_mode == IpaMode::PSlc { 0.5 } else { 1.0 };
        let (chips, profile): (u32, fn(u32, u32, usize) -> FlashConfig) = match self.platform {
            Platform::Emulator => (16, FlashConfig::emulator_slc),
            Platform::OpenSsd => (8, FlashConfig::openssd_mlc),
        };
        // Size the flash so the exported capacity covers the database plus
        // growth, and every chip retains at least four spare blocks for the
        // garbage collector regardless of how small the database is.
        let usable_per_block = pages_per_block as f64 * usable_factor;
        let data_blocks_per_chip = ((needed_logical as f64
            / (1.0 - self.over_provisioning)
            / (chips as f64 * usable_per_block))
            .ceil() as u32)
            .max(1);
        let blocks_per_chip = data_blocks_per_chip + 4;
        let total_usable = chips as f64 * blocks_per_chip as f64 * usable_per_block;
        let op_eff =
            self.over_provisioning.max(1.0 - needed_logical as f64 / total_usable).min(0.85);
        let mut flash = profile(blocks_per_chip, pages_per_block, self.page_size);
        flash.queue_depth = self.queue_depth;
        flash.fault = self.fault_plan.clone();
        let ftl_cfg = NoFtlConfig {
            fault_policy: self.fault_policy,
            ..NoFtlConfig::single_region(flash, self.ipa_mode, op_eff)
        };
        let buffer_frames = ((estimated_pages as f64 * self.buffer_fraction) as usize).max(16);
        let policies = if self.eager {
            DbConfig::eager(buffer_frames)
        } else {
            DbConfig::non_eager(buffer_frames)
        };
        let db_cfg = DbConfig {
            group_commit_batch: self.group_commit_batch,
            group_commit_timeout_ns: self.group_commit_timeout_ns,
            log_force_ns: self.log_force_ns,
            advisor_epoch_ns: self.advisor_epoch_ns,
            advisor_min_observations: self.advisor_min_observations,
            checkpoint_interval_ns: self.checkpoint_interval_ns,
            lock_policy: self.lock_policy,
            ..policies
        };
        Database::open(ftl_cfg, &[self.scheme], db_cfg)
    }
}

/// A workload that can be loaded and driven transaction by transaction.
pub trait Workload {
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// Estimated initial database size in pages (for buffer/flash sizing).
    fn estimated_pages(&self, page_size: usize) -> u64;
    /// How much the database grows over a long run, as a multiple of its
    /// initial size (append-heavy workloads override this). Used to size
    /// the flash device without inflating its effective over-provisioning.
    fn growth_factor(&self) -> f64 {
        1.5
    }
    /// Load the initial database population.
    fn setup(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()>;
    /// Execute one transaction (begin/commit inside).
    fn transaction(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()>;
}

/// Result of one benchmark run — the raw material of the paper's tables.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Transactions executed.
    pub transactions: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (lock conflicts etc.).
    pub aborts: u64,
    /// Simulated wall-clock seconds consumed.
    pub sim_seconds: f64,
    /// Transactions per simulated second (`Transactional Throughput`).
    pub tps: f64,
    /// Mean host read latency, ms (`Response Time READ I/O`).
    pub read_ms: f64,
    /// Mean host write latency, ms (`Response Time WRITE I/O`).
    pub write_ms: f64,
    /// Engine counters (flush decisions, WA accounting, hits).
    pub engine: EngineStats,
    /// Region counters (host I/O, GC migrations/erases).
    pub region: RegionStats,
}

impl RunReport {
    /// `Out-of-Place Writes vs. In-Place Appends` as percentages.
    pub fn oop_vs_ipa(&self) -> (f64, f64) {
        let f = self.region.ipa_fraction();
        ((1.0 - f) * 100.0, f * 100.0)
    }

    /// Relative change of a metric vs a baseline report, in percent
    /// (negative = reduction) — the `Relative [%]` columns.
    pub fn relative(baseline: f64, with_ipa: f64) -> f64 {
        if baseline == 0.0 {
            0.0
        } else {
            (with_ipa - baseline) / baseline * 100.0
        }
    }
}

/// Deterministic benchmark runner.
pub struct Runner {
    /// RNG seed (same seed = identical run).
    pub seed: u64,
    /// Simulated CPU time per transaction, ns.
    pub cpu_ns_per_txn: u64,
}

impl Runner {
    /// A runner with the given seed and the default per-transaction CPU
    /// cost.
    pub fn new(seed: u64) -> Self {
        Runner { seed, cpu_ns_per_txn: 50_000 }
    }

    /// Load the workload into the database.
    pub fn setup(&self, db: &mut Database, w: &mut dyn Workload) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5E7u64);
        w.setup(db, &mut rng)?;
        db.flush_all()?;
        Ok(())
    }

    /// Run `warmup` unmeasured + `measured` measured transactions,
    /// returning the report for the measured window.
    pub fn run(
        &self,
        db: &mut Database,
        w: &mut dyn Workload,
        warmup: u64,
        measured: u64,
    ) -> Result<RunReport> {
        self.run_with(db, w, warmup, measured, &mut |_, _| {})
    }

    /// Like [`Runner::run`], but invokes `tick(db, n)` inside the measured
    /// window: once right after stats are reset (`n == 0`, the zero point)
    /// and once after every measured transaction (`n` counts transactions
    /// executed so far, ending at `measured`). Observability hooks sample
    /// snapshots here; the final call is guaranteed to see exactly the
    /// end-of-run counters the report is built from.
    pub fn run_with(
        &self,
        db: &mut Database,
        w: &mut dyn Workload,
        warmup: u64,
        measured: u64,
        tick: &mut dyn FnMut(&mut Database, u64),
    ) -> Result<RunReport> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..warmup {
            self.one(db, w, &mut rng)?;
        }
        db.reset_stats();
        tick(db, 0);
        let t0 = db.ftl().device().clock().now_ns();
        for n in 0..measured {
            self.one(db, w, &mut rng)?;
            tick(db, n + 1);
        }
        let dt = db.ftl().device().clock().now_ns() - t0;
        let sim_seconds = dt as f64 / 1e9;
        let engine = db.stats().clone();
        let region = db.region_stats(0)?.clone();
        let fstats = db.ftl().device().stats();
        Ok(RunReport {
            workload: w.name().to_string(),
            transactions: measured,
            commits: engine.commits,
            aborts: engine.aborts,
            sim_seconds,
            tps: if sim_seconds > 0.0 { measured as f64 / sim_seconds } else { 0.0 },
            read_ms: fstats.read_latency.mean_ms(),
            write_ms: fstats.write_latency.mean_ms(),
            engine,
            region,
        })
    }

    fn one(&self, db: &mut Database, w: &mut dyn Workload, rng: &mut StdRng) -> Result<()> {
        w.transaction(db, rng)?;
        db.advance_clock(self.cpu_ns_per_txn);
        db.background_work()?;
        Ok(())
    }
}

/// Result of one multi-client run: the pool's own accounting plus the
/// engine/region counters of the measured window.
#[derive(Debug, Clone)]
pub struct MultiRunReport {
    /// Commits, restarts, waits and commit latencies from the executor.
    pub pool: PoolRunReport,
    /// Engine counters (group commits, WAL forces, flush decisions).
    pub engine: EngineStats,
    /// Region counters (host I/O, GC migrations/erases).
    pub region: RegionStats,
    /// Simulated seconds spanned by the run.
    pub sim_seconds: f64,
    /// Committed transactions per simulated second.
    pub tps: f64,
}

impl MultiRunReport {
    /// Real log forces per committed transaction — the group-commit
    /// headline metric (1.0 serial; `~1/batch` with batching).
    pub fn wal_forces_per_commit(&self) -> f64 {
        if self.engine.commits == 0 {
            0.0
        } else {
            self.engine.wal_forces as f64 / self.engine.commits as f64
        }
    }
}

/// Deterministic multi-client runner: drives K [`InterleavedClient`]s
/// through an [`ClientPool`] over a database built by
/// [`SystemConfig::build_for`]. With one client, a round-robin schedule
/// and batching disabled, the engine call sequence — and therefore the
/// trace — is identical to [`Runner`] with the same seed.
pub struct MultiRunner {
    /// Scheduling seed (client RNGs are seeded by the client factory).
    pub seed: u64,
    /// Simulated CPU time per committed transaction, ns.
    pub cpu_ns_per_txn: u64,
    /// Client-selection policy.
    pub schedule: Schedule,
}

impl MultiRunner {
    /// A round-robin runner with the default per-transaction CPU cost.
    pub fn new(seed: u64) -> Self {
        MultiRunner { seed, cpu_ns_per_txn: 50_000, schedule: Schedule::RoundRobin }
    }

    /// Run every client to completion over a freshly reset measurement
    /// window and report on it.
    pub fn run(
        &self,
        db: &mut Database,
        clients: Vec<Box<dyn InterleavedClient + '_>>,
    ) -> Result<MultiRunReport> {
        // Settle setup-era parked commits outside the measured window, so
        // the report's group-commit counters cover only this run.
        db.flush_group_commit();
        db.drain_group_acks();
        db.reset_stats();
        let pool = ClientPool::new(PoolConfig {
            seed: self.seed,
            schedule: self.schedule.clone(),
            cpu_ns_per_txn: self.cpu_ns_per_txn,
        });
        let report = pool.run(db, clients)?;
        let engine = db.stats().clone();
        let region = db.region_stats(0)?.clone();
        let sim_seconds = report.elapsed_ns as f64 / 1e9;
        Ok(MultiRunReport { tps: report.tps(), pool: report, engine, region, sim_seconds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulator_config_builds_database() {
        let cfg = SystemConfig::emulator(NxM::tpcc(), 0.5);
        let db = cfg.build(1000).unwrap();
        // Room for the estimated pages plus headroom.
        assert!(db.ftl().capacity(ipa_noftl::RegionId(0)).unwrap() >= 1600);
    }

    #[test]
    fn openssd_pslc_halves_usable_capacity() {
        let a = SystemConfig::openssd(NxM::tpcb(), true).build(1000).unwrap();
        let b = SystemConfig::openssd(NxM::tpcb(), false).build(1000).unwrap();
        // Both must still export enough logical pages.
        for db in [&a, &b] {
            assert!(db.ftl().capacity(ipa_noftl::RegionId(0)).unwrap() >= 1600);
        }
    }

    #[test]
    fn baseline_config_disables_ipa() {
        let cfg = SystemConfig::emulator(NxM::disabled(), 0.5);
        assert_eq!(cfg.ipa_mode, IpaMode::None);
    }

    #[test]
    fn relative_metric_direction() {
        assert!((RunReport::relative(100.0, 50.0) + 50.0).abs() < 1e-9);
        assert!((RunReport::relative(100.0, 140.0) - 40.0).abs() < 1e-9);
        assert_eq!(RunReport::relative(0.0, 10.0), 0.0);
    }
}
