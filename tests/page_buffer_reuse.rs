//! Allocation gate: in steady state, page-sized buffers cycle between the
//! buffer pool, the flash device and the garbage collector — no flash
//! command and no eviction allocates one — and a fresh device holds none.
//!
//! A counting global allocator (this test binary only) counts, per thread,
//! every byte-buffer allocation (`Vec<u8>` / `Box<[u8]>`: alignment 1) of
//! at least one flash page. The count repeats exactly from run to run, so
//! unlike host time it can be gated on: it is the deterministic host-cost
//! proxy for "page bytes move once".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ipa::core::NxM;
use ipa::flash::{FlashConfig, FlashDevice};
use ipa::workloads::{Runner, SystemConfig, TpcB, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAGE_SIZE: usize = 4096;

thread_local! {
    /// Page-sized byte-buffer allocations made by this thread. `const`
    /// initialised and without a destructor, so touching it from inside
    /// the allocator neither allocates nor registers anything.
    static PAGE_BUFFERS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note(size: usize, align: usize) {
        if align == 1 && size >= PAGE_SIZE {
            PAGE_BUFFERS.with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// `Cell` in thread-local storage and never allocates.
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

/// Load a small TPC-B database whose data is ten times the buffer, flush,
/// warm up until the pool is full and GC has started, then count the
/// page-sized allocations of a further 3 000 transaction + background
/// rounds. Also returns what the window did, so the caller can see that it
/// exercised the paths the gate is about.
fn steady_state(scheme: NxM) -> (u64, WindowWork) {
    let cfg = SystemConfig::emulator(scheme, 0.1);
    let mut w = TpcB::new(4, 2000);
    let mut db = cfg.build_for(&w).unwrap();
    let runner = Runner::new(17);
    runner.setup(&mut db, &mut w).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut round = |db: &mut ipa::engine::Database, w: &mut TpcB| {
        w.transaction(db, &mut rng).unwrap();
        db.advance_clock(runner.cpu_ns_per_txn);
        db.background_work().unwrap();
    };
    for _ in 0..4_000 {
        round(&mut db, &mut w);
    }
    db.reset_stats();
    let before = page_buffers_allocated();
    for _ in 0..3_000 {
        round(&mut db, &mut w);
    }
    let allocated = page_buffers_allocated() - before;
    let region = db.region_stats(0).unwrap();
    let work = WindowWork {
        evictions: db.stats().evictions,
        host_reads: region.host_reads,
        page_writes: region.host_page_writes,
        delta_writes: region.host_delta_writes,
        gc_migrations: region.gc_page_migrations,
        gc_erases: region.gc_erases,
    };
    w.verify_balances(&mut db).expect("the run itself must be correct");
    (allocated, work)
}

#[derive(Debug)]
struct WindowWork {
    evictions: u64,
    host_reads: u64,
    page_writes: u64,
    delta_writes: u64,
    gc_migrations: u64,
    gc_erases: u64,
}

#[test]
fn steady_state_out_of_place_allocates_no_page_buffers() {
    let (allocated, work) = steady_state(NxM::disabled());
    assert!(work.evictions > 1_000 && work.host_reads > 1_000, "{work:?}");
    assert!(work.page_writes > 1_000 && work.delta_writes == 0, "{work:?}");
    assert!(work.gc_migrations > 100 && work.gc_erases > 10, "{work:?}");
    assert_eq!(allocated, 0, "page-sized buffers allocated in the window; {work:?}");
}

#[test]
fn steady_state_in_place_appends_allocate_no_page_buffers() {
    let (allocated, work) = steady_state(NxM::tpcb());
    assert!(work.evictions > 1_000 && work.host_reads > 1_000, "{work:?}");
    assert!(work.page_writes > 100 && work.delta_writes > 1_000, "{work:?}");
    assert_eq!(allocated, 0, "page-sized buffers allocated in the window; {work:?}");
}

#[test]
fn a_fresh_device_allocates_no_page_buffers() {
    let before = page_buffers_allocated();
    let dev = FlashDevice::new(FlashConfig::emulator_slc(64, 64, PAGE_SIZE));
    assert_eq!(page_buffers_allocated() - before, 0);
    assert_eq!(dev.config().geometry.total_pages(), 16 * 64 * 64);
}
