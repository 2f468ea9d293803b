//! Property tests over the core invariants of the stack: each runs 128
//! cases, case `n` drawing its inputs from `StdRng::seed_from_u64(n)`.

use rand::rngs::StdRng;
use rand::Rng;

use ipa::core::{
    delta, ChangePair, ChangeTracker, DbPage, DeltaRecord, FlushDecision, NxM, PageLayout,
};
use ipa::flash::{for_each_case, FlashConfig, FlashDevice, OpOrigin, Ppa};

const CASES: u64 = 128;

/// `len` pairs of an offset from `offsets` and any byte.
fn offset_bytes(
    rng: &mut StdRng,
    offsets: std::ops::Range<u16>,
    len: std::ops::Range<usize>,
) -> Vec<(u16, u8)> {
    (0..rng.gen_range(len)).map(|_| (rng.gen_range(offsets.clone()), rng.gen())).collect()
}

/// ISPP invariant: any sequence of partial programs either fails or
/// leaves every bit monotonically non-increasing (1 -> 0 only).
#[test]
fn flash_charge_is_monotone() {
    for_each_case(CASES, |rng| {
        let writes: Vec<(usize, Vec<u8>)> = (0..rng.gen_range(1..20))
            .map(|_| {
                (rng.gen_range(0..4096), (0..rng.gen_range(1..32)).map(|_| rng.gen()).collect())
            })
            .collect();
        let mut dev = FlashDevice::new(FlashConfig::small_slc());
        let ppa = Ppa::new(0, 0, 0);
        dev.program(ppa, &vec![0xFF; 4096], OpOrigin::Host).unwrap();
        let mut shadow = vec![0xFFu8; 4096];
        for (off, data) in writes {
            if off + data.len() > 4096 {
                continue;
            }
            let before = dev.peek(ppa).unwrap().to_vec();
            match dev.program_partial(ppa, off, &data, OpOrigin::Host) {
                Ok(_) => {
                    for (i, &b) in data.iter().enumerate() {
                        shadow[off + i] = b;
                    }
                }
                Err(_) => {
                    // Failed programs must leave the page untouched.
                    assert_eq!(dev.peek(ppa).unwrap(), &before[..]);
                }
            }
            // Every accepted state matches the shadow, and transitions were
            // monotone: new & !old == 0 for each accepted write.
            let now = dev.peek(ppa).unwrap();
            for i in 0..4096 {
                assert_eq!(now[i], shadow[i]);
                assert_eq!(now[i] & !before[i], 0);
            }
        }
    });
}

/// Delta records survive encode/decode for any in-budget pair sets.
#[test]
fn delta_record_roundtrip() {
    for_each_case(CASES, |rng| {
        let (n, m, v) = (rng.gen_range(1u16..4), rng.gen_range(1u16..20), rng.gen_range(0u16..16));
        let body_seed = offset_bytes(rng, 0..4000, 0..20);
        let meta_seed = offset_bytes(rng, 0..32, 0..16);
        let scheme = NxM::new(n, m, v);
        let mut body: Vec<ChangePair> = body_seed
            .into_iter()
            .take(m as usize)
            .map(|(offset, value)| ChangePair { offset, value })
            .collect();
        body.dedup_by_key(|p| p.offset);
        let mut meta: Vec<ChangePair> = meta_seed
            .into_iter()
            .take(v as usize)
            .map(|(offset, value)| ChangePair { offset, value })
            .collect();
        meta.dedup_by_key(|p| p.offset);
        let rec = DeltaRecord::new(body, meta);
        let encoded = rec.encode(&scheme).unwrap();
        assert_eq!(encoded.len(), scheme.delta_record_size());
        let decoded = DeltaRecord::decode(&encoded, &scheme).unwrap().unwrap();
        assert_eq!(decoded, rec);
    });
}

/// Applying delta records to a page is exactly byte substitution:
/// every pair lands, nothing else changes.
#[test]
fn delta_apply_is_exact() {
    for_each_case(CASES, |rng| {
        let pairs = offset_bytes(rng, 100..2000, 1..30);
        let mut unique = std::collections::BTreeMap::new();
        for (off, val) in pairs {
            unique.insert(off, val);
        }
        let rec = DeltaRecord::new(
            unique.iter().map(|(&offset, &value)| ChangePair { offset, value }).collect(),
            vec![],
        );
        let mut page = vec![0xEEu8; 4096];
        // The pairs lie behind the delta area, as tracked changes do.
        rec.apply(&mut page, &(32..100)).unwrap();
        for (i, &b) in page.iter().enumerate() {
            match unique.get(&(i as u16)) {
                Some(&v) => assert_eq!(b, v),
                None => assert_eq!(b, 0xEE),
            }
        }
    });
}

/// Slotted-page operations keep tuples readable and never corrupt
/// unrelated slots.
#[test]
fn slotted_page_model_check() {
    for_each_case(CASES, |rng| {
        let ops: Vec<(u8, usize, usize)> = (0..rng.gen_range(1..40))
            .map(|_| (rng.gen_range(0..3), rng.gen_range(0..8), rng.gen_range(1..60)))
            .collect();
        let layout = PageLayout::new(2048, NxM::tpcc()).unwrap();
        let mut page = DbPage::format(7, layout);
        let mut tracker = ChangeTracker::new(*page.scheme(), 0, false);
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for (op, target, len) in ops {
            match op {
                // insert
                0 => {
                    let data = vec![(len % 251) as u8; len];
                    if let Ok(slot) = page.insert_tuple(&data, &mut tracker) {
                        assert_eq!(slot.0 as usize, model.len());
                        model.push(Some(data));
                    }
                }
                // update (same length -> in place)
                1 => {
                    if let Some(Some(existing)) = model.get(target) {
                        let data = vec![0x5A; existing.len()];
                        page.update_tuple(ipa::core::SlotId(target as u16), &data, &mut tracker)
                            .unwrap();
                        model[target] = Some(data);
                    }
                }
                // delete
                _ => {
                    if let Some(Some(_)) = model.get(target) {
                        page.delete_tuple(ipa::core::SlotId(target as u16), &mut tracker).unwrap();
                        model[target] = None;
                    }
                }
            }
            // Model equivalence after every step.
            for (i, expect) in model.iter().enumerate() {
                let slot = ipa::core::SlotId(i as u16);
                match expect {
                    Some(data) => assert_eq!(page.tuple(slot).unwrap(), &data[..]),
                    None => assert!(page.tuple(slot).is_err()),
                }
            }
        }
    });
}

/// The flush decision respects the [NxM] capacity exactly: IPA iff the
/// accumulated distinct body bytes fit C_p and metadata fits V.
#[test]
fn flush_decision_matches_capacity() {
    for_each_case(CASES, |rng| {
        let (n, m) = (rng.gen_range(1u16..4), rng.gen_range(1u16..10));
        let n_existing = rng.gen_range(0u16..4);
        let body_offsets: Vec<u16> =
            (0..rng.gen_range(0..40)).map(|_| rng.gen_range(200..4000)).collect();
        let meta_count = rng.gen_range(0u16..20);
        let scheme = NxM::new(n, m, 12);
        let mut t = ChangeTracker::new(scheme, n_existing.min(n), true);
        let mut distinct = std::collections::BTreeSet::new();
        for off in &body_offsets {
            t.record_body(*off);
            distinct.insert(*off);
        }
        for i in 0..meta_count.min(12) {
            t.record_meta(i);
        }
        let page = vec![0u8; 4096];
        let u = distinct.len();
        let cp = scheme.remaining_capacity(n_existing.min(n));
        let fits = u <= cp
            && (meta_count.min(12) as usize) <= scheme.v as usize
            && scheme.records_needed(u) <= (scheme.n - n_existing.min(n)) as usize;
        match t.decide(&page) {
            FlushDecision::Clean => assert!(u == 0 && meta_count == 0),
            FlushDecision::Ipa(records) => {
                assert!(fits, "IPA allowed with U={u}, Cp={cp}");
                let total: usize = records.iter().map(|r| r.body.len()).sum();
                assert_eq!(total, u);
                for r in &records {
                    assert!(r.body.len() <= m as usize);
                }
            }
            FlushDecision::OutOfPlace => assert!(!fits || u == 0),
        }
    });
}

/// count_records over any sequence of appended records is exact.
#[test]
fn delta_area_count_is_exact() {
    for_each_case(CASES, |rng| {
        let k = rng.gen_range(0u16..4);
        let scheme = NxM::new(4, 3, 4);
        let size = scheme.delta_record_size();
        let mut area = vec![0xFF; scheme.delta_area_size()];
        for i in 0..k {
            let rec = DeltaRecord::new(vec![ChangePair { offset: 100 + i, value: 1 }], vec![]);
            let enc = rec.encode(&scheme).unwrap();
            area[i as usize * size..(i as usize + 1) * size].copy_from_slice(&enc);
        }
        assert_eq!(delta::count_records(&area, &scheme).unwrap(), k);
        assert_eq!(delta::decode_all(&area, &scheme).unwrap().len(), k as usize);
    });
}
