//! The harness's loops are the paper-table bins' loops: same counters as
//! `Runner::run`, same `PoolRunReport` with and without the timing wrapper.

use ipa_perf::run::{self, Mode, RunParams};
use ipa_perf::spec;
use ipa_workloads::{MultiRunner, Runner, TpcB, TpcC, Workload};

const SEED: u64 = 42;
const MEASURED: u64 = 1_600;

fn params(name: &str, mode: Mode) -> RunParams {
    let spec = spec::workload(name).expect("known workload");
    RunParams {
        spec,
        seed: SEED,
        measured: MEASURED,
        warmup: spec.warmup_txns(MEASURED),
        mode,
        inject_imbalance: false,
    }
}

fn serial_matches_runner(name: &str, mut w: Box<dyn Workload>) {
    let p = params(name, Mode::Plain);
    let ours = run::run(p).expect("harness run");

    let cfg = p.spec.system_config(w.estimated_pages(4096), p.measured + p.warmup);
    let mut db = cfg.build_for(w.as_ref()).expect("database builds");
    let runner = Runner { seed: SEED, cpu_ns_per_txn: cfg.cpu_ns_per_txn };
    runner.setup(&mut db, w.as_mut()).expect("load");
    let theirs = runner.run(&mut db, w.as_mut(), p.warmup, p.measured).expect("Runner::run");

    assert_eq!(ours.engine.commits, theirs.commits, "{name}: commits");
    assert_eq!(ours.engine.aborts, theirs.aborts, "{name}: aborts");
    assert_eq!(ours.window_sim_ns as f64 / 1e9, theirs.sim_seconds, "{name}: simulated seconds");
    assert_eq!(
        format!("{:?}", ours.engine),
        format!("{:?}", theirs.engine),
        "{name}: engine stats"
    );
    assert_eq!(ours.region, theirs.region, "{name}: region stats");
}

#[test]
fn serial_loop_matches_runner_run() {
    serial_matches_runner("tpcb_ipa", Box::new(TpcB::new(16, 4000)));
    serial_matches_runner("tpcb_oop", Box::new(TpcB::new(16, 4000)));
    serial_matches_runner("tpcc_mix", Box::new(TpcC::new(2, 4000, 200)));
}

#[test]
fn timing_wrapper_leaves_the_pool_report_unchanged() {
    // The harness always drives the pool through its timing wrapper; a run
    // through bare clients must report the same.
    let p = params("tpcb_k8", Mode::Plain);
    let ours = run::run(p).expect("harness run");

    let mut w = TpcB::new(16, 4000);
    let cfg = p.spec.system_config(w.estimated_pages(4096), p.measured + p.warmup);
    let mut db = cfg.build_for(&w).expect("database builds");
    Runner::new(SEED).setup(&mut db, &mut w).expect("load");
    let shared = w.into_shared();
    let k = p.spec.clients;
    let mut runner = MultiRunner::new(SEED);
    runner.cpu_ns_per_txn = cfg.cpu_ns_per_txn;
    let warmup =
        TpcB::spawn_clients(&shared, k, p.warmup / k as u64, SEED ^ spec::POOL_WARMUP_SEED);
    runner.run(&mut db, warmup).expect("warm-up");
    let clients = TpcB::spawn_clients(&shared, k, p.measured / k as u64, SEED);
    let theirs = runner.run(&mut db, clients).expect("MultiRunner::run");

    let ours_pool = ours.pool.as_ref().expect("pool report");
    assert_eq!(format!("{ours_pool:?}"), format!("{:?}", theirs.pool), "pool report");
    assert_eq!(format!("{:?}", ours.engine), format!("{:?}", theirs.engine), "engine stats");
    assert_eq!(ours.region, theirs.region, "region stats");
    assert_eq!(ours.engine.commits, MEASURED);

    // Spans and the recorder change nothing either.
    let traced = run::run(params("tpcb_k8", Mode::Traced)).expect("traced run");
    assert_eq!(format!("{ours_pool:?}"), format!("{:?}", traced.pool.expect("pool report")));
}
