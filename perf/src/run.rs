//! One run of one workload: build → load → `flush_all` → warm-up →
//! `reset_stats` → measured window → checks → crash / recover / re-check.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ipa_engine::{
    Database, EngineError, EngineStats, InterleavedClient, PoolRunReport, Result as EngineResult,
    Rid, StepOutcome, Txn,
};
use ipa_flash::FlashStats;
use ipa_noftl::{NoFtlConfig, RegionId, RegionStats};
use ipa_workloads::{MultiRunner, SystemConfig, TpcB, TpcC, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{Counter, Recorder, SpanIdx, SpanLog, Tape, NONE};
use crate::spec::{Kind, WorkloadSpec, POOL_WARMUP_SEED, TICKS_PER_WINDOW};
use crate::yardstick::{Elapsed, Yardstick};

/// What is attached to the database during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the run the end-to-end metrics come from.
    Plain,
    /// Recording observer from build on, `Instant` spans around every
    /// `Database`-level call the harness makes.
    Traced,
    /// A counting observer plus per-command lifecycle events, to price
    /// what DESIGN.md calls "< 2 %".
    Observed,
}

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Workload row.
    pub spec: &'static WorkloadSpec,
    /// Seed of load and transaction streams.
    pub seed: u64,
    /// Measured transactions.
    pub measured: u64,
    /// Warm-up transactions.
    pub warmup: u64,
    /// What to attach.
    pub mode: Mode,
    /// Test hook: update one account outside any counted transaction after
    /// the window, so the balance check must fail.
    pub inject_imbalance: bool,
}

/// One pass/fail check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed value or the error.
    pub detail: String,
}

/// Host time of the phases before `reset_stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `SystemConfig::build_for` and `Workload::setup`.
    pub load: Elapsed,
    /// `Database::flush_all`.
    pub flush_all: Elapsed,
    /// Warm-up transactions.
    pub warmup: Elapsed,
}

impl SetupTimes {
    /// `setup_s`: everything before `reset_stats`, at calibration speed.
    pub fn total_s(&self) -> f64 {
        self.load.scaled_s + self.flush_all.scaled_s + self.warmup.scaled_s
    }
}

/// Sizes of the system a run built.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes {
    /// Estimated initial database pages (what buffer and device are sized
    /// from).
    pub database_pages: u64,
    /// Buffer pool frames.
    pub buffer_frames: u64,
    /// Flash blocks on the device.
    pub device_blocks: u64,
    /// Physical flash pages on the device.
    pub physical_pages: u64,
    /// Exported logical pages.
    pub logical_pages: u64,
    /// Growth multiple the device was sized with.
    pub growth: f64,
    /// Share of physical pages not holding live data at window start.
    pub op_effective_start: f64,
    /// The same at window end.
    pub op_effective_end: f64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The parameters.
    pub params: RunParams,
    /// Set-up phases.
    pub setup: SetupTimes,
    /// System sizes.
    pub sizes: Sizes,
    /// Host time of the measured window.
    pub window: Elapsed,
    /// On-CPU share of the window (`/proc/self/schedstat` ÷ wall).
    pub oncpu_frac: f64,
    /// Simulated ns of the measured window.
    pub window_sim_ns: u64,
    /// Simulated latency of every committed transaction, ns.
    pub sim_latency_ns: Vec<u64>,
    /// Device counters over the window.
    pub flash: FlashStats,
    /// Region counters over the window.
    pub region: RegionStats,
    /// Engine counters over the window.
    pub engine: EngineStats,
    /// Pool accounting (`tpcb_k8`).
    pub pool: Option<PoolRunReport>,
    /// WAL records appended during the window.
    pub wal_records: u64,
    /// Update-size percentiles (p50, p90) of the region's eviction profile.
    pub update_bytes: (u32, u32),
    /// Transactions the engine saw begin: planned plus wait-die retries.
    pub attempted: u64,
    /// Planned transactions that never committed.
    pub failed_txns: u64,
    /// The checks, in order.
    pub checks: Vec<Check>,
    /// Host time of `recover`.
    pub recover_host: Elapsed,
    /// Engine counters of the restart (`recovery_ns`, `analysis_records`,
    /// `redo_applied`).
    pub recover: EngineStats,
    /// Host µs of one `Snapshot::capture` on the end-of-window database.
    pub snapshot_capture_us: f64,
    /// Configuration a replay needs to rebuild the same flash management.
    pub ftl_config: NoFtlConfig,
    /// Recorded stream (traced run).
    pub tape: Option<Tape>,
    /// Harness spans (traced run).
    pub spans: Option<SpanLog>,
    /// Wall ns inside `background_work` (serial) or between a client's
    /// `Done` and the next client call (pool) during the window.
    pub background_ns: u64,
}

impl Outcome {
    /// Committed transactions per host second of the window, at
    /// calibration speed.
    pub fn host_txn_per_s(&self) -> f64 {
        self.engine.commits as f64 / self.window.scaled_s
    }

    /// Failed checks.
    pub fn failed_checks(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// `(failed transactions + failed checks) ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        (self.failed_txns + self.failed_checks()) as f64 / self.attempted.max(1) as f64
    }
}

/// A loaded workload.
enum Loaded {
    B(TpcB),
    C(TpcC),
}

impl Loaded {
    fn as_workload(&mut self) -> &mut dyn Workload {
        match self {
            Loaded::B(w) => w,
            Loaded::C(w) => w,
        }
    }
}

/// What the harness keeps while it drives a database: the yardstick that
/// scales host time, and in a traced run the span log.
struct Probe {
    yard: Yardstick,
    spans: Option<SpanLog>,
    window: SpanIdx,
    /// Wall ns between a pool client's `Done` and the pool's next call into
    /// a client.
    pool_gap_ns: u64,
}

impl Probe {
    fn new(mode: Mode) -> Self {
        Probe {
            yard: Yardstick::default(),
            spans: (mode == Mode::Traced).then(SpanLog::default),
            window: NONE,
            pool_gap_ns: 0,
        }
    }

    /// Run `f` inside a span called `name` when tracing, bare otherwise.
    fn call<R>(&mut self, name: &'static str, txn: u32, f: impl FnOnce() -> R) -> R {
        let Some(log) = self.spans.as_mut() else { return f() };
        let idx = log.open(name, self.window, txn);
        let out = f();
        log.close(idx);
        out
    }

    fn open_window(&mut self) {
        if let Some(log) = self.spans.as_mut() {
            self.window = log.open("measured_window", NONE, NONE);
        }
    }

    fn close_window(&mut self) {
        if let Some(log) = self.spans.as_mut() {
            log.close(self.window);
        }
        self.window = NONE;
    }
}

/// State shared by the wrapped clients of one pool run.
struct PoolTiming<'p> {
    probe: &'p mut Probe,
    /// Yardstick tick every this many `begin_txn` calls.
    tick_every: u64,
    begun: u64,
    /// When the last `Done` step returned; the pool commits, charges think
    /// time, runs `background_work` and drains acks before it calls a
    /// client again.
    done_at: Option<Instant>,
}

impl PoolTiming<'_> {
    fn close_gap(&mut self) {
        if let Some(t) = self.done_at.take() {
            self.probe.pool_gap_ns += t.elapsed().as_nanos() as u64;
        }
    }
}

/// An [`InterleavedClient`] that keeps the harness's clocks for the client
/// it wraps — a yardstick tick every so many transactions, the time the
/// pool spends between transactions, and in a traced run a span around
/// every `step` — and changes nothing else.
struct TimedClient<'a> {
    inner: Box<dyn InterleavedClient + 'a>,
    timing: Rc<RefCell<PoolTiming<'a>>>,
    txn: u32,
}

impl InterleavedClient for TimedClient<'_> {
    fn begin_txn(&mut self) -> bool {
        let mut t = self.timing.borrow_mut();
        t.close_gap();
        self.txn = t.begun as u32;
        t.begun += 1;
        if t.begun.is_multiple_of(t.tick_every) {
            t.probe.yard.tick();
        }
        drop(t);
        self.inner.begin_txn()
    }

    fn step(&mut self, txn: &mut Txn<'_>) -> EngineResult<StepOutcome> {
        let idx = {
            let mut t = self.timing.borrow_mut();
            t.close_gap();
            let window = t.probe.window;
            t.probe.spans.as_mut().map(|log| log.open("step", window, self.txn))
        };
        let out = self.inner.step(txn);
        let mut t = self.timing.borrow_mut();
        if let (Some(idx), Some(log)) = (idx, t.probe.spans.as_mut()) {
            log.close(idx);
        }
        if matches!(out, Ok(StepOutcome::Done)) {
            t.done_at = Some(Instant::now());
        }
        out
    }

    fn restart(&mut self) {
        self.timing.borrow_mut().close_gap();
        self.inner.restart();
    }
}

/// On-CPU ns of this process so far (first field of `schedstat`).
fn oncpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn op_effective(db: &Database, physical_pages: u64) -> f64 {
    let mapped = db.ftl().mapped_pages(RegionId(0)).unwrap_or(0);
    1.0 - mapped as f64 / physical_pages as f64
}

/// The flash-management configuration `SystemConfig::build_for` gave `db`,
/// rebuilt from what the database exposes: the device configuration and
/// the exported capacity (which fixes the over-provisioning share).
fn ftl_config_of(db: &Database, cfg: &SystemConfig) -> NoFtlConfig {
    let flash = db.ftl().device().config().clone();
    let g = &flash.geometry;
    let total = u64::from(g.chips) * u64::from(g.blocks_per_chip) * u64::from(g.pages_per_block);
    let capacity = db.ftl().capacity(RegionId(0)).unwrap_or(0);
    // Region::new exports floor(total * (1 - op)) pages; aim at the middle
    // of the interval that floors to `capacity`.
    let op = 1.0 - (capacity as f64 + 0.5) / total as f64;
    NoFtlConfig::single_region(flash, cfg.ipa_mode, op)
}

/// FNV-1a over every live tuple of heaps `0..8`, in scan order.
fn tpcc_digest(db: &mut Database) -> EngineResult<u64> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for heap in 0..8u32 {
        db.heap_scan(heap, |rid, tuple| {
            eat(&heap.to_le_bytes());
            eat(&rid.page.lba.0.to_le_bytes());
            eat(&rid.slot.0.to_le_bytes());
            eat(tuple);
        })?;
    }
    Ok(h)
}

/// The state probe of a workload: balances for TPC-B, a digest for TPC-C.
fn probe_state(w: &Loaded, db: &mut Database) -> EngineResult<Vec<i64>> {
    match w {
        Loaded::B(w) => {
            w.verify_balances(db)?;
            Ok(w.balance_vector(db)?.into_iter().map(i64::from).collect())
        }
        Loaded::C(_) => Ok(vec![tpcc_digest(db)? as i64]),
    }
}

/// A system that went through every phase before `reset_stats`.
struct Ready {
    db: Database,
    w: Loaded,
    cfg: SystemConfig,
    /// The transaction stream, where the warm-up left it.
    rng: StdRng,
    setup: SetupTimes,
    sizes: Sizes,
}

/// Build, load, `flush_all`, warm up.
fn set_up(p: &RunParams, recorder: Option<&Recorder>, probe: &mut Probe) -> EngineResult<Ready> {
    let mut w = match p.spec.kind {
        Kind::TpcbSerial | Kind::TpcbPool => Loaded::B(TpcB::new(16, 4000)),
        Kind::TpccSerial => Loaded::C(TpcC::new(2, 4000, 200)),
    };
    let page_size = 4096;
    let database_pages = w.as_workload().estimated_pages(page_size);
    let cfg = p.spec.system_config(database_pages, p.measured + p.warmup);
    let mut times = SetupTimes::default();

    probe.yard.restart();
    let mut db = cfg.build_for(w.as_workload())?;
    if let Some(r) = recorder {
        db.attach_observer(r.observer());
    }
    // Same load seed as `Runner::setup`.
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5E7);
    w.as_workload().setup(&mut db, &mut rng)?;
    times.load = probe.yard.take();

    probe.call("flush_all", NONE, || db.flush_all())?;
    times.flush_all = probe.yard.take();

    // Same transaction seed as `Runner::run_with`.
    let mut rng = StdRng::seed_from_u64(p.seed);
    warm_up(p, &cfg, &mut db, &mut w, &mut rng, probe)?;
    times.warmup = probe.yard.take();

    let g = &db.ftl().device().config().geometry;
    let device_blocks = u64::from(g.chips) * u64::from(g.blocks_per_chip);
    let sizes = Sizes {
        database_pages,
        buffer_frames: ((database_pages as f64 * cfg.buffer_fraction) as u64).max(16),
        device_blocks,
        physical_pages: device_blocks * u64::from(g.pages_per_block),
        logical_pages: db.ftl().capacity(RegionId(0)).unwrap_or(0),
        growth: cfg.growth_override.unwrap_or(0.0),
        ..Sizes::default()
    };
    Ok(Ready { db, w, cfg, rng, setup: times, sizes })
}

/// Set-up only (build, load, `flush_all`, warm-up), for the repeated
/// `setup_s` samples of an untraced run.
pub fn setup_only(p: &RunParams) -> EngineResult<SetupTimes> {
    Ok(set_up(p, None, &mut Probe::new(Mode::Plain))?.setup)
}

/// Warm-up: 20 % of the measured count, so the buffer pool is full and GC
/// has started. Serial workloads draw from `rng`, which the window then
/// continues (one stream for both, as in `Runner::run_with`); the pool
/// warms up on a stream of its own so the window does not replay its keys.
fn warm_up(
    p: &RunParams,
    cfg: &SystemConfig,
    db: &mut Database,
    w: &mut Loaded,
    rng: &mut StdRng,
    probe: &mut Probe,
) -> EngineResult<()> {
    let spans = probe.spans.take(); // warm-up transactions are not traced
    let done = if p.spec.kind == Kind::TpcbPool {
        pool_txns(p, cfg, db, w, p.warmup, p.seed ^ POOL_WARMUP_SEED, probe).map(|_| ())
    } else {
        serial_txns(db, w.as_workload(), rng, p.warmup, cfg.cpu_ns_per_txn, probe, None).map(|_| ())
    };
    probe.spans = spans;
    done
}

/// `n` transactions through `MultiRunner` / `ClientPool`, the clients
/// wrapped so the harness's clocks keep running inside the pool's loop.
fn pool_txns(
    p: &RunParams,
    cfg: &SystemConfig,
    db: &mut Database,
    w: &mut Loaded,
    n: u64,
    seed: u64,
    probe: &mut Probe,
) -> EngineResult<PoolRunReport> {
    let Loaded::B(tpcb) = std::mem::replace(w, Loaded::B(TpcB::new(1, 1))) else {
        return Err(EngineError::Internal("pool workloads are TPC-B"));
    };
    const OUTLIVED: EngineError = EngineError::Internal("a client outlived its pool run");
    let shared = tpcb.into_shared();
    let k = p.spec.clients;
    let timing = Rc::new(RefCell::new(PoolTiming {
        probe,
        tick_every: (n / TICKS_PER_WINDOW).max(1),
        begun: 0,
        done_at: None,
    }));
    let clients = TpcB::spawn_clients(&shared, k, n / k as u64, seed)
        .into_iter()
        .map(|inner| {
            Box::new(TimedClient { inner, timing: Rc::clone(&timing), txn: NONE })
                as Box<dyn InterleavedClient + '_>
        })
        .collect();
    let mut runner = MultiRunner::new(p.seed);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    let report = runner.run(db, clients);
    Rc::try_unwrap(timing).map_err(|_| OUTLIVED)?.into_inner().close_gap();
    *w = Loaded::B(Rc::try_unwrap(shared).map_err(|_| OUTLIVED)?.into_inner());
    Ok(report?.pool)
}

/// The call sequence of `Runner::run`, written out so each call can be
/// timed: `transaction` → `advance_clock` → `background_work`. Returns the
/// number of transactions that returned an error; with `latency` set,
/// pushes the simulated latency of each one that did not.
fn serial_txns(
    db: &mut Database,
    w: &mut dyn Workload,
    rng: &mut StdRng,
    n: u64,
    cpu_ns: u64,
    probe: &mut Probe,
    mut latency: Option<&mut Vec<u64>>,
) -> EngineResult<u64> {
    let tick_every = (n / TICKS_PER_WINDOW).max(1);
    let mut failed = 0;
    for i in 0..n {
        let ord = i as u32;
        let t0 = db.ftl().device().clock().now_ns();
        match probe.call("transaction", ord, || w.transaction(db, rng)) {
            Ok(()) => {
                if let Some(l) = latency.as_deref_mut() {
                    l.push(db.ftl().device().clock().now_ns() - t0);
                }
            }
            Err(_) => failed += 1,
        }
        db.advance_clock(cpu_ns);
        probe.call("background_work", ord, || db.background_work())?;
        if (i + 1).is_multiple_of(tick_every) {
            probe.yard.tick();
        }
    }
    Ok(failed)
}

/// Update account 0 in a committed transaction the workload's ledger does
/// not know about.
fn unbalance(db: &mut Database, w: &TpcB) -> EngineResult<()> {
    let mut tx = db.txn();
    let encoded =
        tx.index_lookup(w.account_index(), 0)?.ok_or(EngineError::Internal("account 0 missing"))?;
    let rid = Rid::decode(0, encoded);
    // `TpcB::setup` creates its heaps in the order branch, teller, account.
    let account_heap = 2;
    let mut rec = tx.heap_read(account_heap, rid)?;
    rec[ipa_workloads::tpcb::BALANCE_OFF] ^= 0x01;
    tx.heap_update(account_heap, rid, &rec)?;
    tx.commit()
}

/// Run one workload once.
pub fn run(p: RunParams) -> EngineResult<Outcome> {
    let recorder = (p.mode == Mode::Traced).then(Recorder::default);
    let mut probe = Probe::new(p.mode);
    let Ready { mut db, mut w, cfg, mut rng, setup, mut sizes } =
        set_up(&p, recorder.as_ref(), &mut probe)?;

    if p.mode == Mode::Observed {
        db.attach_observer(Counter::default().observer());
        db.ftl_mut().set_cmd_tracing(true);
    }
    sizes.op_effective_start = op_effective(&db, sizes.physical_pages);
    let wal_before = db.wal_head().0;

    // ---- measured window
    let mut sim_latency_ns = Vec::with_capacity(p.measured as usize);
    let mut pool = None;
    let failed_txns;
    let window_sim_ns;
    probe.open_window();
    probe.pool_gap_ns = 0;
    probe.yard.restart();
    let cpu0 = oncpu_ns();
    if p.spec.kind == Kind::TpcbPool {
        // `MultiRunner::run` settles parked commits and resets the stats.
        let report = pool_txns(&p, &cfg, &mut db, &mut w, p.measured, p.seed, &mut probe)?;
        window_sim_ns = report.elapsed_ns;
        sim_latency_ns.clone_from(&report.commit_latency_ns);
        failed_txns = p.measured - report.committed.min(p.measured);
        pool = Some(report);
    } else {
        db.reset_stats();
        let sim0 = db.ftl().device().clock().now_ns();
        failed_txns = serial_txns(
            &mut db,
            w.as_workload(),
            &mut rng,
            p.measured,
            cfg.cpu_ns_per_txn,
            &mut probe,
            Some(&mut sim_latency_ns),
        )?;
        window_sim_ns = db.ftl().device().clock().now_ns() - sim0;
    }
    let window = probe.yard.take();
    let oncpu_frac = (oncpu_ns() - cpu0) as f64 / 1e9 / window.raw_s;
    probe.close_window();
    if let Some(r) = &recorder {
        r.mark_window_end();
    }
    if p.mode == Mode::Observed {
        db.ftl_mut().set_cmd_tracing(false);
        drop(db.detach_observer());
    }

    // ---- counters of the window, before the checks touch anything
    let flash = db.ftl().device().stats().clone();
    let region = db.region_stats(0)?.clone();
    let engine = db.stats().clone();
    let wal_records = db.wal_head().0 - wal_before;
    let profile = db.profile(0);
    let update_bytes = (profile.body_percentile(50.0), profile.body_percentile(90.0));
    sizes.op_effective_end = op_effective(&db, sizes.physical_pages);
    let t = Instant::now();
    let snapshot = ipa_obs::Snapshot::capture(&db);
    let snapshot_capture_us = t.elapsed().as_secs_f64() * 1e6;
    drop(snapshot);
    let ftl_config = ftl_config_of(&db, &cfg);
    let attempted = p.measured + pool.as_ref().map_or(0, |r| r.restarts);

    // ---- checks
    if p.inject_imbalance {
        if let Loaded::B(tpcb) = &w {
            unbalance(&mut db, tpcb)?;
        }
    }
    let mut checks = vec![
        Check {
            name: "ispp_violations == 0",
            ok: flash.ispp_violations == 0,
            detail: flash.ispp_violations.to_string(),
        },
        Check {
            name: "commits + aborts == attempted",
            ok: engine.commits + engine.aborts == attempted,
            detail: format!(
                "commits {} aborts {} attempted {attempted}",
                engine.commits, engine.aborts
            ),
        },
    ];
    let state_name = match w {
        Loaded::B(_) => "verify_balances before the crash",
        Loaded::C(_) => "heap digest before the crash",
    };
    let before = probe.call("probe_state", NONE, || probe_state(&w, &mut db));
    checks.push(Check {
        name: state_name,
        ok: before.is_ok(),
        detail: before.as_ref().map_or_else(|e| e.to_string(), |v| format!("{} values", v.len())),
    });
    let stats_before_crash = db.stats().clone();
    probe.call("simulate_crash", NONE, || db.simulate_crash());
    probe.yard.restart();
    let recovered = probe.call("recover", NONE, || db.recover());
    let recover_host = probe.yard.take();
    let mut recover = db.stats().clone();
    recover.recovery_ns -= stats_before_crash.recovery_ns;
    recover.analysis_records -= stats_before_crash.analysis_records;
    recover.redo_applied -= stats_before_crash.redo_applied;
    checks.push(Check {
        name: "recover",
        ok: recovered.is_ok(),
        detail: recovered.as_ref().map_or_else(|e| e.to_string(), |()| "ok".into()),
    });
    let after = probe.call("probe_state", NONE, || probe_state(&w, &mut db));
    checks.push(Check {
        name: "state after recover equals state before the crash",
        ok: matches!((&before, &after), (Ok(b), Ok(a)) if a == b),
        detail: match &after {
            Ok(_) => "every acknowledged commit readable".into(),
            Err(e) => e.to_string(),
        },
    });

    Ok(Outcome {
        params: p,
        setup,
        sizes,
        window,
        oncpu_frac,
        window_sim_ns,
        sim_latency_ns,
        flash,
        region,
        engine,
        wal_records,
        update_bytes,
        attempted,
        failed_txns,
        checks,
        recover_host,
        recover,
        snapshot_capture_us,
        ftl_config,
        tape: recorder.map(|r| r.take()),
        background_ns: match &probe.spans {
            Some(log) if pool.is_none() => log.txn_durations_ns("background_work").iter().sum(),
            _ => probe.pool_gap_ns,
        },
        pool,
        spans: probe.spans,
    })
}
