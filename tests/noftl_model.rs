//! Model-based property tests of the NoFTL mapping layer: arbitrary
//! interleavings of writes, deltas, trims and reads must match a simple
//! shadow map — through garbage collection, wear leveling and mode rules.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use ipa::flash::{for_each_case, CellType, FlashConfig};
use ipa::noftl::{IoCtx, IpaMode, Lba, NoFtl, NoFtlConfig, NoFtlError, RegionId};

fn small_ftl(mode: IpaMode, cell: CellType) -> NoFtl {
    let mut flash = FlashConfig::small_slc();
    flash.geometry.chips = 2;
    flash.geometry.blocks_per_chip = 12;
    flash.geometry.pages_per_block = 8;
    flash.geometry.page_size = 256;
    flash.geometry.cell_type = cell;
    flash.max_appends = Some(8);
    NoFtl::new(NoFtlConfig::single_region(flash, mode, 0.35)).unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64, u8),
    Delta(u64, u8),
    Trim(u64),
    Read(u64),
}

/// Write : Delta : Trim : Read drawn 4 : 3 : 1 : 3.
fn op(rng: &mut StdRng) -> Op {
    let lba = rng.gen_range(0u64..48);
    match rng.gen_range(0..11) {
        0..=3 => Op::Write(lba, rng.gen()),
        4..=6 => Op::Delta(lba, rng.gen()),
        7 => Op::Trim(lba),
        _ => Op::Read(lba),
    }
}

fn page_image(byte: u8, size: usize) -> Vec<u8> {
    // Body programmed, tail left erased so deltas have somewhere to land.
    let mut v = vec![0xFF; size];
    v[..size / 2].fill(byte);
    v
}

#[test]
fn mapping_matches_shadow() {
    for_each_case(48, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..160)).map(|_| op(rng)).collect();
        let mut ftl = small_ftl(IpaMode::Slc, CellType::Slc);
        let rid = RegionId(0);
        let page_size = 256usize;
        // Shadow: lba -> (expected full image, appends used).
        let mut shadow: HashMap<u64, (Vec<u8>, u32)> = HashMap::new();
        for op in ops {
            match op {
                Op::Write(lba, b) => {
                    let img = page_image(b, page_size);
                    ftl.write_page(rid, Lba(lba), &img, IoCtx::default()).unwrap();
                    shadow.insert(lba, (img, 0));
                }
                Op::Delta(lba, b) => {
                    // Each delta writes 4 bytes into a fresh slice of the
                    // erased tail (slot = appends-so-far).
                    match shadow.get_mut(&lba) {
                        Some((img, appends)) if *appends < 8 => {
                            let off = page_size / 2 + (*appends as usize) * 8;
                            ftl.write_delta(rid, Lba(lba), off, &[b, b, b, b], IoCtx::default())
                                .unwrap();
                            img[off..off + 4].fill(b);
                            *appends += 1;
                        }
                        Some((_, _)) => {
                            // Budget exhausted: device must refuse.
                            assert!(ftl
                                .write_delta(rid, Lba(lba), 0, &[0], IoCtx::default())
                                .is_err());
                        }
                        None => {
                            assert!(matches!(
                                ftl.write_delta(rid, Lba(lba), 0, &[b], IoCtx::default()),
                                Err(NoFtlError::Unmapped(_))
                            ));
                        }
                    }
                }
                Op::Trim(lba) => {
                    ftl.trim(rid, Lba(lba)).unwrap();
                    shadow.remove(&lba);
                }
                Op::Read(lba) => match shadow.get(&lba) {
                    Some((img, _)) => {
                        let (got, _) = ftl.read_page(rid, Lba(lba), IoCtx::default()).unwrap();
                        assert_eq!(&got, img);
                    }
                    None => {
                        assert!(matches!(
                            ftl.read_page(rid, Lba(lba), IoCtx::default()),
                            Err(NoFtlError::Unmapped(_))
                        ));
                    }
                },
            }
        }
        // Final sweep: every mapped page matches its shadow.
        for (lba, (img, _)) in &shadow {
            let (got, _) = ftl.read_page(rid, Lba(*lba), IoCtx::default()).unwrap();
            assert_eq!(&got, img, "lba {}", lba);
        }
    });
}

#[test]
fn tlc_region_behaves_like_slc_for_appends() {
    for_each_case(48, |rng| {
        let writes = rng.gen_range(1u64..40);
        // Appendix C.3: 3D/TLC flash takes appends via the SLC-style mode.
        let mut flash = FlashConfig::small_slc();
        flash.geometry.chips = 2;
        flash.geometry.blocks_per_chip = 12;
        flash.geometry.pages_per_block = 8;
        flash.geometry.page_size = 256;
        flash.geometry.cell_type = CellType::Tlc;
        let mut ftl = NoFtl::new(NoFtlConfig::single_region(flash, IpaMode::Slc, 0.35)).unwrap();
        let rid = RegionId(0);
        for l in 0..writes {
            ftl.write_page(rid, Lba(l), &page_image(l as u8, 256), IoCtx::default()).unwrap();
            assert!(ftl.can_append(rid, Lba(l)));
            ftl.write_delta(rid, Lba(l), 200, &[0xAA], IoCtx::default()).unwrap();
            let (got, _) = ftl.read_page(rid, Lba(l), IoCtx::default()).unwrap();
            assert_eq!(got[200], 0xAA);
        }
    });
}

#[test]
fn tlc_endurance_is_the_lowest() {
    // TLC wears out fastest: 4k cycles vs 10k (MLC) vs 100k (SLC).
    use ipa::flash::CellType::*;
    assert!(Tlc.endurance_limit() < Mlc.endurance_limit());
    assert!(Mlc.endurance_limit() < Slc.endurance_limit());
}

#[test]
fn gc_heavy_churn_preserves_every_mapping() {
    // Long deterministic churn far past device capacity with mixed deltas:
    // the shadow must survive dozens of GC rounds.
    let mut ftl = small_ftl(IpaMode::Slc, CellType::Slc);
    let rid = RegionId(0);
    let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x = 0x12345678u64;
    let mut rand = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..4_000 {
        let lba = rand() % 40;
        match rand() % 10 {
            0..=6 => {
                let b = (rand() & 0x7F) as u8;
                let img = page_image(b, 256);
                ftl.write_page(rid, Lba(lba), &img, IoCtx::default()).unwrap();
                shadow.insert(lba, img);
            }
            7..=8 => {
                if let Some(img) = shadow.get_mut(&lba) {
                    if ftl.can_append(rid, Lba(lba)) {
                        let off = 128 + ((rand() % 16) as usize) * 8;
                        // Identical re-append of programmed cells is legal;
                        // use a value that only clears bits of 0xFF or
                        // matches what's there.
                        let cur = img[off];
                        let val = cur & (rand() as u8);
                        ftl.write_delta(rid, Lba(lba), off, &[val], IoCtx::default()).unwrap();
                        img[off] = val;
                    }
                }
            }
            _ => {
                ftl.trim(rid, Lba(lba)).unwrap();
                shadow.remove(&lba);
            }
        }
    }
    for (lba, img) in &shadow {
        let (got, _) = ftl.read_page(rid, Lba(*lba), IoCtx::default()).unwrap();
        assert_eq!(&got, img, "lba {lba}");
    }
    let stats = ftl.region_stats(rid).unwrap();
    assert!(stats.gc_erases > 10, "GC must have churned: {stats:?}");
}
