//! Criterion micro-benchmarks for the core mechanisms of the IPA stack:
//! the flash program paths (full page vs delta append), delta-record
//! encode/apply, slotted-page operations with change tracking, the
//! eviction decision, B+-tree operations and buffer fetches with delta
//! reconstruction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use ipa_core::{ChangePair, ChangeTracker, DbPage, DeltaRecord, NxM, PageLayout};
use ipa_engine::{Database, DbConfig};
use ipa_flash::{FlashConfig, FlashDevice, OpOrigin, Ppa};
use ipa_noftl::{IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig};

fn bench_flash_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("flash");
    let page = vec![0x55u8; 4096];
    g.bench_function("program_full_page", |b| {
        b.iter_batched(
            || FlashDevice::new(FlashConfig::small_slc()),
            |mut dev| {
                dev.program(Ppa::new(0, 0, 0), black_box(&page), OpOrigin::Host).unwrap();
                dev
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("program_delta_append", |b| {
        b.iter_batched(
            || {
                let mut dev = FlashDevice::new(FlashConfig::small_slc());
                let mut image = vec![0xFF; 4096];
                image[..2048].fill(0x11);
                dev.program(Ppa::new(0, 0, 0), &image, OpOrigin::Host).unwrap();
                dev
            },
            |mut dev| {
                dev.program_partial(
                    Ppa::new(0, 0, 0),
                    4000,
                    black_box(&[0x13; 46]),
                    OpOrigin::Host,
                )
                .unwrap();
                dev
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("read_page", |b| {
        let mut dev = FlashDevice::new(FlashConfig::small_slc());
        dev.program(Ppa::new(0, 0, 0), &page, OpOrigin::Host).unwrap();
        b.iter(|| dev.read(black_box(Ppa::new(0, 0, 0)), OpOrigin::Host).unwrap())
    });
    g.bench_function("erase_block", |b| {
        b.iter_batched(
            || {
                let mut dev = FlashDevice::new(FlashConfig::small_slc());
                dev.program(Ppa::new(0, 0, 0), &page, OpOrigin::Host).unwrap();
                dev
            },
            |mut dev| {
                dev.erase(0, 0).unwrap();
                dev
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_delta_records(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta");
    let scheme = NxM::tpcc();
    let rec = DeltaRecord::new(
        vec![
            ChangePair { offset: 500, value: 1 },
            ChangePair { offset: 600, value: 2 },
            ChangePair { offset: 700, value: 3 },
        ],
        (0..12).map(|i| ChangePair { offset: 10 + i, value: i as u8 }).collect(),
    );
    g.bench_function("encode_2x3", |b| b.iter(|| black_box(&rec).encode(&scheme).unwrap()));
    let encoded = rec.encode(&scheme).unwrap();
    g.bench_function("decode_2x3", |b| {
        b.iter(|| DeltaRecord::decode(black_box(&encoded), &scheme).unwrap())
    });
    let mut page = vec![0u8; 4096];
    g.bench_function("apply_record", |b| b.iter(|| rec.apply(black_box(&mut page)).unwrap()));
    g.finish();
}

fn bench_page_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("page");
    let layout = PageLayout::new(4096, NxM::tpcc()).unwrap();
    g.bench_function("tracked_small_update", |b| {
        let mut pg = DbPage::format(1, layout);
        let mut t = ChangeTracker::new(*pg.scheme(), 0, false);
        let slot = pg.insert_tuple(&[0u8; 64], &mut t).unwrap();
        let mut v = 0u8;
        b.iter(|| {
            let mut t = ChangeTracker::new(*pg.scheme(), 0, true);
            v = v.wrapping_add(1);
            let mut data = [0u8; 64];
            data[0] = v;
            pg.update_tuple(slot, &data, &mut t).unwrap();
            black_box(t.body_changed())
        })
    });
    g.bench_function("flush_decision_ipa", |b| {
        let pg = DbPage::format(1, layout);
        let mut t = ChangeTracker::new(*pg.scheme(), 0, true);
        t.record_body(200);
        t.record_body(201);
        t.record_meta(10);
        b.iter(|| black_box(t.decide(pg.bytes())))
    });
    g.bench_function("fetch_reconstruct_2_deltas", |b| {
        let mut t = ChangeTracker::new(NxM::tpcc(), 0, false);
        let mut pg = DbPage::format(1, layout);
        pg.insert_tuple(&[9u8; 16], &mut t).unwrap();
        let body = layout.body_start() as u16;
        for i in 0..2 {
            let rec =
                DeltaRecord::new(vec![ChangePair { offset: body + i, value: i as u8 }], vec![]);
            pg.append_delta_record(&rec).unwrap();
        }
        let raw = pg.bytes().to_vec();
        b.iter_batched(
            || DbPage::from_bytes(raw.clone(), layout).unwrap(),
            |mut p| {
                p.apply_deltas().unwrap();
                p
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Change tracking beyond the small update: most tracked bytes come from
/// tuple inserts and index-node stores, hundreds of bytes per call.
fn bench_tracking(c: &mut Criterion) {
    let mut g = c.benchmark_group("track");
    let layout = PageLayout::new(4096, NxM::tpcc()).unwrap();
    // A heap insert during load: the page was never on flash, so its
    // tracker is latched out-of-place from the start and only counts.
    g.bench_function("insert_100B_tuple", |b| {
        let fresh = || {
            let mut t = ChangeTracker::new(layout.scheme, 0, false);
            t.mark_out_of_place();
            (DbPage::format(1, layout), t)
        };
        let (mut pg, mut t) = fresh();
        let tuple = [0x5Au8; 100];
        b.iter(|| {
            if pg.free_space_for_insert() < tuple.len() {
                (pg, t) = fresh();
            }
            pg.insert_tuple(black_box(&tuple), &mut t).unwrap()
        })
    });
    // A B+-tree node store after an insert near the front: 64 entries of
    // (key, child) shift by one, and neighbouring keys and children differ
    // in their low byte only, so the 1 KiB write is 128 one-byte runs.
    g.bench_function("node_store_1KiB", |b| {
        let image = |shift: u64| -> Vec<u8> {
            (0..64u64)
                .flat_map(|i| [i + shift, 1000 + i + shift])
                .flat_map(u64::to_le_bytes)
                .collect()
        };
        let images = [image(0), image(1)];
        let mut pg = DbPage::format(1, layout);
        let body = layout.body_start();
        pg.write_body(body, &images[0], &mut ChangeTracker::new(layout.scheme, 0, false));
        let mut turn = 0;
        b.iter(|| {
            turn ^= 1;
            let mut t = ChangeTracker::new(layout.scheme, 0, true);
            pg.write_body(body, black_box(&images[turn]), &mut t);
            black_box(t.body_changed())
        })
    });
    g.finish();
}

fn bench_noftl(c: &mut Criterion) {
    let mut g = c.benchmark_group("noftl");
    g.sample_size(20);
    g.bench_function("write_page_steady_state_gc", |b| {
        let cfg = NoFtlConfig::builder(FlashConfig::small_slc())
            .blocks_per_chip(32)
            .pages_per_block(32)
            .page_size(1024)
            .single_region(IpaMode::Slc, 0.3)
            .build()
            .unwrap();
        let mut ftl = NoFtl::new(cfg).unwrap();
        let data = vec![0xA5u8; 1024];
        // Fill to steady state.
        let cap = ftl.capacity(ipa_noftl::RegionId(0)).unwrap();
        for lba in 0..cap * 8 / 10 {
            ftl.write_page(ipa_noftl::RegionId(0), Lba(lba), &data, IoCtx::default()).unwrap();
        }
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 13) % (cap * 8 / 10);
            ftl.write_page(ipa_noftl::RegionId(0), Lba(lba), black_box(&data), IoCtx::default())
                .unwrap()
        })
    });
    g.bench_function("write_delta", |b| {
        let mut base = FlashConfig::small_slc();
        base.max_appends = Some(u32::MAX);
        let cfg = NoFtlConfig::builder(base)
            .page_size(1024)
            .single_region(IpaMode::Slc, 0.3)
            .build()
            .unwrap();
        let mut ftl = NoFtl::new(cfg).unwrap();
        let mut data = vec![0xFF; 1024];
        data[..128].fill(0);
        ftl.write_page(ipa_noftl::RegionId(0), Lba(0), &data, IoCtx::default()).unwrap();
        b.iter(|| {
            // Identical re-append is ISPP-legal; avoids exhausting the area.
            ftl.write_delta(
                ipa_noftl::RegionId(0),
                Lba(0),
                512,
                black_box(&[0x0F; 16]),
                IoCtx::default(),
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);

    fn small_db(scheme: NxM) -> Database {
        let cfg = NoFtlConfig::builder(FlashConfig::small_slc())
            .blocks_per_chip(64)
            .pages_per_block(16)
            .page_size(1024)
            .single_region(IpaMode::Slc, 0.2)
            .build()
            .unwrap();
        Database::builder(cfg).scheme(scheme).config(DbConfig::eager(64)).open().unwrap()
    }

    g.bench_function("heap_update_commit_ipa", |b| {
        let mut db = small_db(NxM::tpcc());
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, &[7u8; 32]).unwrap();
        tx.commit().unwrap();
        db.flush_all().unwrap();
        let mut v = 0u8;
        b.iter(|| {
            v = v.wrapping_add(1);
            let mut tx = db.txn();
            let mut t = [7u8; 32];
            t[0] = v;
            tx.heap_update(heap, rid, &t).unwrap();
            tx.commit().unwrap();
            db.flush_page(rid.page).unwrap();
        })
    });
    g.bench_function("btree_insert", |b| {
        let mut db = small_db(NxM::disabled());
        let idx = db.create_index(0).unwrap();
        // The open transaction outlives each closure call, so it rides the
        // park/resume path between iterations.
        let mut id = db.txn().park();
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            // Bound tree size, page allocation and log growth over
            // arbitrarily many criterion iterations: cycle a fixed key
            // space (delete-then-insert) and commit periodically.
            let key = k % 4096;
            let mut tx = db.resume(id).unwrap();
            if k > 4096 {
                tx.index_delete(idx, key).unwrap();
            }
            tx.index_insert(idx, black_box(key), k).unwrap();
            if k.is_multiple_of(1024) {
                tx.commit().unwrap();
                id = db.txn().park();
            } else {
                id = tx.park();
            }
        })
    });
    g.bench_function("btree_lookup", |b| {
        let mut db = small_db(NxM::disabled());
        let idx = db.create_index(0).unwrap();
        let mut tx = db.txn();
        for k in 0..5_000u64 {
            tx.index_insert(idx, k, k).unwrap();
        }
        tx.commit().unwrap();
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 997) % 5_000;
            db.index_lookup(idx, black_box(k)).unwrap()
        })
    });
    g.bench_function("buffer_hit_fetch", |b| {
        let mut db = small_db(NxM::tpcc());
        let heap = db.create_heap(0);
        let mut tx = db.txn();
        let rid = tx.heap_insert(heap, &[1u8; 16]).unwrap();
        tx.commit().unwrap();
        b.iter(|| db.heap_read_unlocked(black_box(rid)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_flash_ops,
    bench_delta_records,
    bench_page_ops,
    bench_tracking,
    bench_noftl,
    bench_engine
);
criterion_main!(benches);
