//! Allocation gate: a steady-state transaction + `background_work` round
//! allocates (next to) nothing. Page-sized buffers cycle between the buffer
//! pool and the flash device: a superseded flash page gives its buffer back
//! as soon as NoFTL remaps its logical page, and the next program or read
//! takes it, so the device holds a buffer only for each mapped page. A
//! window therefore allocates exactly one page buffer per logical page it
//! maps for the first time — a page the database grows by — and none per
//! flash command, eviction or collection; a fresh device holds none. The
//! small allocations are gone too: delta records are encoded and applied in
//! place, log images live in the WAL's chunks, tuples are read into buffers
//! their callers own, lock and frame sets are flat.
//!
//! A counting global allocator (this test binary only) counts, per thread,
//! every allocation of any size and alignment, and beside it every
//! byte-buffer allocation (`Vec<u8>` / `Box<[u8]>`: alignment 1) of a flash
//! page or more. One byte buffer of that size is legitimate in a window —
//! the log allocates its image memory in chunks of `LOG_CHUNK_BYTES` — so
//! allocations of exactly that size are counted apart, and each cell
//! asserts how many its window makes; every other large byte buffer is a
//! page image, and the gate holds their number to the growth of NoFTL's
//! mapped pages over the window. The counts repeat exactly from run to run,
//! so unlike host time they can be gated on: they are the deterministic
//! host-cost proxy for "bytes move once, through no intermediate vector".
//! What is left in a window is those page buffers, the log's chunks (one
//! per 64 KiB of images, one per thousand records, freed again at the next
//! reclamation) and amortised growth of vectors that live as long as the
//! database (a heap's page list, TPC-C's undelivered-order queues).
//!
//! The allocations of a window also record a `std::backtrace` each, up to
//! `MAX_SAMPLES` of them — every one of the handful a passing window makes,
//! the first few rounds' worth after a regression; when a gate fails, the
//! most frequent call sites are printed, so a regression names its line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use ipa::core::NxM;
use ipa::engine::{Database, DbConfig, LOG_CHUNK_BYTES};
use ipa::flash::{FlashConfig, FlashDevice};
use ipa::noftl::{IpaMode, NoFtlConfig, RegionId};
use ipa::workloads::{Runner, SystemConfig, TpcB, TpcC, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAGE_SIZE: usize = 4096;
/// Backtraces kept per window (a regression to hundreds of allocations per
/// round must not exhaust memory, or the test's time, before the assertion
/// reports it).
const MAX_SAMPLES: usize = 4096;

thread_local! {
    /// Allocations made by this thread. `const` initialised and without a
    /// destructor, so touching it from inside the allocator neither
    /// allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The byte-buffer allocations of a page or more among them, the log's
    /// chunks left out.
    static PAGE_BUFFERS: Cell<u64> = const { Cell::new(0) };
    /// The log's image chunks among them.
    static LOG_CHUNKS: Cell<u64> = const { Cell::new(0) };
    /// Whether allocations record their backtrace.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    /// Set while a backtrace is being captured or stored: what that
    /// allocates is neither counted nor sampled.
    static IN_SAMPLER: Cell<bool> = const { Cell::new(false) };
    static SAMPLES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note(size: usize, align: usize) {
        if IN_SAMPLER.with(Cell::get) {
            return;
        }
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        if align == 1 && size == LOG_CHUNK_BYTES {
            LOG_CHUNKS.with(|n| n.set(n.get() + 1));
        } else if align == 1 && size >= PAGE_SIZE {
            PAGE_BUFFERS.with(|n| n.set(n.get() + 1));
        }
        if SAMPLING.with(Cell::get) {
            IN_SAMPLER.with(|g| g.set(true));
            SAMPLES.with(|s| {
                let mut s = s.borrow_mut();
                if s.len() < MAX_SAMPLES {
                    s.push(Backtrace::force_capture());
                }
            });
            IN_SAMPLER.with(|g| g.set(false));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// thread-local cells, and the backtrace it may record allocates through
// this same allocator with `IN_SAMPLER` set, which skips the bookkeeping —
// so it never re-enters the sampler.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), layout.align());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), layout.align());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`: every
        // allocating method above forwards to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size, layout.align());
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as received; `ptr` came from `System` as in `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn page_buffers_allocated() -> u64 {
    PAGE_BUFFERS.with(Cell::get)
}

/// Frames of a captured backtrace that lie in this repository (their
/// source path is relative, the standard library's is not), innermost
/// first, as `function (file:line)`.
fn repo_frames(trace: &Backtrace) -> Vec<String> {
    let text = trace.to_string();
    let mut frames = Vec::new();
    let mut function = "";
    for line in text.lines().map(str::trim) {
        match line.strip_prefix("at ") {
            Some(at) => {
                if let Some(path) = at.strip_prefix("./") {
                    // Drop the column: `file:line:column`.
                    let file_line = path.rsplit_once(':').map_or(path, |(head, _)| head);
                    frames.push(format!("{function} ({file_line})"));
                }
            }
            None => function = line.split_once(": ").map_or(line, |(_, f)| f),
        }
    }
    // The allocator's own frames are in this file too.
    frames.retain(|f| !f.contains("CountingAllocator") && !f.starts_with("__rustc::"));
    frames
}

/// The most frequent allocation sites among the sampled backtraces: the
/// innermost repository frame with its two callers.
fn top_call_sites() -> String {
    IN_SAMPLER.with(|g| g.set(true));
    let samples = SAMPLES.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let mut sites: BTreeMap<String, usize> = BTreeMap::new();
    for trace in &samples {
        let frames = repo_frames(trace);
        let site = frames.iter().take(3).cloned().collect::<Vec<_>>().join("\n        <- ");
        *sites.entry(site).or_default() += 1;
    }
    let mut sites: Vec<(String, usize)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = format!("call sites of the first {} allocations:", samples.len());
    for (site, n) in sites.iter().take(12) {
        out.push_str(&format!("\n  {n:5} x {site}"));
    }
    drop(samples);
    IN_SAMPLER.with(|g| g.set(false));
    out
}

/// What a measured window allocated and did.
#[derive(Debug)]
struct Window {
    /// Rounds (transactions, or operations) in the window.
    rounds: u64,
    /// Allocations of any size.
    allocations: u64,
    /// Byte buffers of a page or more among them, the log's chunks left out.
    page_buffers: u64,
    /// The log's image chunks among them.
    log_chunks: u64,
    /// Logical pages NoFTL maps at the end of the window less those at its
    /// start: the pages the window newly maps.
    mapped_growth: u64,
    evictions: u64,
    host_reads: u64,
    page_writes: u64,
    delta_writes: u64,
    gc_migrations: u64,
    gc_erases: u64,
}

/// Count the allocations of `rounds` rounds `body` runs on `db` — sampling
/// their call sites — and what the window did, so the caller can see that
/// it exercised the paths the gate is about.
fn measure(db: &mut Database, rounds: u64, body: impl FnOnce(&mut Database)) -> Window {
    db.reset_stats();
    let counters = || [&ALLOCATIONS, &PAGE_BUFFERS, &LOG_CHUNKS].map(|c| c.with(Cell::get));
    let mapped = |db: &Database| -> u64 {
        let ftl = db.ftl();
        (0..ftl.region_count()).map(|r| ftl.mapped_pages(RegionId(r)).unwrap()).sum()
    };
    let mapped_before = mapped(db);
    let before = counters();
    SAMPLING.with(|s| s.set(true));
    body(db);
    SAMPLING.with(|s| s.set(false));
    let after = counters();
    let region = db.region_stats(0).unwrap();
    Window {
        rounds,
        allocations: after[0] - before[0],
        page_buffers: after[1] - before[1],
        log_chunks: after[2] - before[2],
        mapped_growth: mapped(db) - mapped_before,
        evictions: db.stats().evictions,
        host_reads: region.host_reads,
        page_writes: region.host_page_writes,
        delta_writes: region.host_delta_writes,
        gc_migrations: region.gc_page_migrations,
        gc_erases: region.gc_erases,
    }
}

/// Transaction + `advance_clock` + `background_work` rounds in the window.
const ROUNDS: u64 = 3_000;

/// Load `w`, flush, warm up until the pool is full and GC has started,
/// then [`measure`] [`ROUNDS`] further rounds. Returns the database too:
/// the caller audits what the run left in it.
fn steady_state(cfg: SystemConfig, w: &mut dyn Workload, warmup: u64) -> (Window, Database) {
    let mut db = cfg.build_for(w).unwrap();
    let runner = Runner::new(17);
    runner.setup(&mut db, w).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut round = |db: &mut Database, w: &mut dyn Workload| {
        w.transaction(db, &mut rng).unwrap();
        db.advance_clock(runner.cpu_ns_per_txn);
        db.background_work().unwrap();
    };
    for _ in 0..warmup {
        round(&mut db, w);
    }
    let window = measure(&mut db, ROUNDS, |db| {
        for _ in 0..ROUNDS {
            round(db, w);
        }
    });
    (window, db)
}

/// A small TPC-B database whose data is ten times the buffer. The run
/// itself must be correct: the balances add up after it.
fn tpcb_steady_state(scheme: NxM) -> Window {
    let mut w = TpcB::new(4, 2000);
    let (window, mut db) = steady_state(SystemConfig::emulator(scheme, 0.1), &mut w, 4_000);
    w.verify_balances(&mut db).expect("the run itself must be correct");
    window
}

/// Fail with the sampled call sites unless the window allocated one page
/// buffer per page it newly mapped and no other, exactly `log_chunks`
/// chunks of log image memory and at most `allowed` times anything at all.
fn assert_gate(name: &str, window: &Window, log_chunks: u64, allowed: u64) {
    let (rounds, per_round) = (window.rounds, window.allocations as f64 / window.rounds as f64);
    let growth = window.mapped_growth;
    println!(
        "{name}: {} allocations in {rounds} rounds = {per_round:.4} per round \
         (gate: {allowed}), {} of them log image chunks, {} page-sized for {growth} newly \
         mapped pages",
        window.allocations, window.log_chunks, window.page_buffers
    );
    if window.page_buffers != growth
        || window.log_chunks != log_chunks
        || window.allocations > allowed
    {
        panic!(
            "{name}: {} allocations ({per_round:.3} per round, {allowed} allowed), {} of them \
             log image chunks ({log_chunks} expected), {} page-sized buffers ({growth} \
             allowed: one per newly mapped page); {window:?}\n{}",
            window.allocations,
            window.log_chunks,
            window.page_buffers,
            top_call_sites()
        );
    }
}

#[test]
fn steady_state_out_of_place_allocates_page_buffers_only_for_new_pages() {
    let window = tpcb_steady_state(NxM::disabled());
    assert!(window.evictions > 1_000 && window.host_reads > 1_000, "{window:?}");
    assert!(window.page_writes > 1_000 && window.delta_writes == 0, "{window:?}");
    assert!(window.gc_migrations > 100 && window.gc_erases > 10, "{window:?}");
    // The bound to hold is 1.0 per round; what is asserted is the count
    // reached, 0.030 per round: a page buffer for each of the 40 pages the
    // history heap grows by, the log's chunks — 30 of images, 18 of records
    // — and two vectors growing (the update-size profile, the history
    // heap's page list).
    assert_gate("tpcb [0x0]", &window, 30, 90);
}

#[test]
fn steady_state_in_place_appends_allocate_page_buffers_only_for_new_pages() {
    let window = tpcb_steady_state(NxM::tpcb());
    assert!(window.evictions > 1_000 && window.host_reads > 1_000, "{window:?}");
    assert!(window.page_writes > 100 && window.delta_writes > 1_000, "{window:?}");
    // As above (41 new pages), and the device queue grew once.
    assert_gate("tpcb [2x4]", &window, 30, 92);
}

/// The benchmark's `tpcc_mix` database: the five-transaction mix over two
/// warehouses, `[2×3]`, a buffer of a quarter of the data.
#[test]
fn steady_state_tpcc_mix_allocates_next_to_nothing() {
    let mut w = TpcC::new(2, 4000, 200);
    let (window, mut db) = steady_state(SystemConfig::emulator(NxM::tpcc(), 0.25), &mut w, 4_000);
    w.verify_ytd(&mut db).expect("the run itself must be correct");
    assert!(window.evictions > 1_000 && window.host_reads > 1_000, "{window:?}");
    assert!(window.page_writes > 100 && window.delta_writes > 1_000, "{window:?}");
    // The bound to hold is 3.0 per round; reached: 0.151. 216 are the page
    // buffers of the pages the order, order-line and history heaps grow
    // by, 180 + 43 the log's chunks of images and of records (3.9 KB of
    // images and 15 records a round), eight the undelivered-order queues
    // growing, two the bitmaps of the debug-build pool check at the
    // window's checkpoint.
    assert_gate("tpcc [2x3]", &window, 180, 453);
}

/// B+-tree inserts into a 20 000-key index on a `[2×4]` database whose
/// buffer holds it whole: the descent path and the node images live in
/// buffers the engine reuses, so an insert allocates nothing but its share
/// of the log's chunks and of the splits.
#[test]
fn index_inserts_reuse_their_path_and_node_images() {
    let cfg = NoFtlConfig::builder(FlashConfig::emulator_slc(64, 64, PAGE_SIZE))
        .chips(4)
        .single_region(IpaMode::Slc, 0.2)
        .build()
        .unwrap();
    let mut db =
        Database::builder(cfg).scheme(NxM::tpcb()).config(DbConfig::eager(4096)).open().unwrap();
    let idx = db.create_index(0).unwrap();
    let key = |i: u64| i * 2_654_435_761 % 1_000_003;
    let insert = |db: &mut Database, keys: std::ops::Range<u64>| {
        let mut tx = db.txn();
        for i in keys {
            tx.index_insert(idx, key(i), i).unwrap();
        }
        tx.commit().unwrap();
        db.background_work().unwrap();
    };
    for batch in 0..20 {
        insert(&mut db, batch * 1_000..(batch + 1) * 1_000);
    }
    insert(&mut db, 20_000..20_100); // warm-up
    let tx = db.txn().park();
    let window = measure(&mut db, 1_000, |db| {
        let mut tx = db.resume(tx).unwrap();
        for i in 20_100..21_100 {
            tx.index_insert(idx, key(i), i).unwrap();
        }
        tx.park();
    });
    db.resume(tx).unwrap().commit().unwrap();
    assert_eq!(db.index_count(idx).unwrap(), 21_100);
    // The bound to hold is 60; reached: 43. 39 + 2 are the log's chunks of
    // images and of records, two the change trackers' run lists growing.
    assert_gate("index inserts [2x4]", &window, 39, 43);
}

#[test]
fn a_fresh_device_allocates_no_page_buffers() {
    let before = page_buffers_allocated();
    let dev = FlashDevice::new(FlashConfig::emulator_slc(64, 64, PAGE_SIZE));
    assert_eq!(page_buffers_allocated() - before, 0);
    assert_eq!(dev.config().geometry.total_pages(), 16 * 64 * 64);
}
