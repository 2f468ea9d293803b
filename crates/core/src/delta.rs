//! The delta-record wire format (paper §6.1, Figures 4 and 5).
//!
//! Each delta record occupies a fixed slot of `1 + 3M + 3V` bytes inside the
//! page's delta-record area:
//!
//! ```text
//! +------+-----------------------+-----------------------+
//! | ctrl | M body pairs          | V metadata pairs      |
//! | 1 B  | 3 B each: off16,val8  | 3 B each: off16,val8  |
//! +------+-----------------------+-----------------------+
//! ```
//!
//! The encoding is designed around the erased state of flash:
//!
//! * an *absent* record is all `0xFF` — its slot has simply never been
//!   programmed, so the control byte still reads erased;
//! * an *unused pair* inside a present record keeps its three bytes at
//!   `0xFF` (offset sentinel `0xFFFF`), so encoding fewer than M/V pairs
//!   programs fewer cells;
//! * consequently a record can be ISPP-appended into its slot with a single
//!   `write_delta`, and the number of existing records (`N_E`) is read off
//!   the control bytes without any out-of-band state (§6.2 "the
//!   control_bytes are read to determine the actual number of
//!   delta_records").

use std::ops::Range;

use crate::error::CoreError;
use crate::scheme::NxM;
use crate::Result;

/// Control-byte value marking a present record. Any value other than `0xFF`
/// works physically; a fixed magic doubles as a corruption check.
pub const CTRL_PRESENT: u8 = 0xA5;
/// Offset sentinel of an unused pair (the erased state of its two bytes).
pub const OFFSET_UNUSED: u16 = 0xFFFF;

/// One `<new_value, offset>` pair: byte `value` replaces the byte at
/// page-absolute `offset` (§6.1 — byte granularity was chosen over
/// tuple-attribute granularity for space efficiency and simplicity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangePair {
    /// Page-absolute byte offset (2 bytes on the wire).
    pub offset: u16,
    /// New byte value.
    pub value: u8,
}

/// A decoded delta record: up to `M` body pairs and `V` metadata pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaRecord {
    /// Changed bytes in the tuple body.
    pub body: Vec<ChangePair>,
    /// Changed bytes in the page metadata (header + footer).
    pub meta: Vec<ChangePair>,
}

impl DeltaRecord {
    /// A record from body and metadata pairs.
    pub fn new(body: Vec<ChangePair>, meta: Vec<ChangePair>) -> Self {
        DeltaRecord { body, meta }
    }

    /// Total number of pairs.
    pub fn len(&self) -> usize {
        self.body.len() + self.meta.len()
    }

    /// Whether the record carries no pairs at all.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty() && self.meta.is_empty()
    }

    /// Encode into a fresh slot image of exactly `scheme.delta_record_size()`
    /// bytes, with unused pairs left erased.
    pub fn encode(&self, scheme: &NxM) -> Result<Vec<u8>> {
        if self.body.len() > scheme.m as usize || self.meta.len() > scheme.v as usize {
            return Err(CoreError::DeltaTooLarge {
                body: self.body.len(),
                meta: self.meta.len(),
                limit: (scheme.m, scheme.v),
            });
        }
        let mut out = vec![0xFF; scheme.delta_record_size()];
        out[0] = CTRL_PRESENT;
        for (i, pair) in self.body.iter().enumerate() {
            write_pair(&mut out[1 + 3 * i..], pair);
        }
        let meta_base = 1 + 3 * scheme.m as usize;
        for (j, pair) in self.meta.iter().enumerate() {
            write_pair(&mut out[meta_base + 3 * j..], pair);
        }
        Ok(out)
    }

    /// Decode one slot image. Returns `Ok(None)` for an erased (absent)
    /// slot.
    pub fn decode(slot: &[u8], scheme: &NxM) -> Result<Option<DeltaRecord>> {
        if slot.len() < scheme.delta_record_size() {
            return Err(CoreError::CorruptDelta(format!(
                "slot of {} bytes, scheme needs {}",
                slot.len(),
                scheme.delta_record_size()
            )));
        }
        match slot[0] {
            0xFF => return Ok(None),
            CTRL_PRESENT => {}
            other => return Err(CoreError::CorruptDelta(format!("bad control byte {other:#04x}"))),
        }
        let mut rec = DeltaRecord::default();
        for i in 0..scheme.m as usize {
            if let Some(pair) = read_pair(&slot[1 + 3 * i..]) {
                rec.body.push(pair);
            }
        }
        let meta_base = 1 + 3 * scheme.m as usize;
        for j in 0..scheme.v as usize {
            if let Some(pair) = read_pair(&slot[meta_base + 3 * j..]) {
                rec.meta.push(pair);
            }
        }
        Ok(Some(rec))
    }

    /// Apply this record to a page buffer whose delta-record area is
    /// `delta_area` (pairs replace single bytes, none of them in that
    /// area).
    pub fn apply(&self, page: &mut [u8], delta_area: &Range<usize>) -> Result<()> {
        self.body.iter().chain(self.meta.iter()).try_for_each(|pair| poke(page, delta_area, *pair))
    }
}

/// Replace the byte `pair` names. An offset past the page is corruption,
/// and so is one inside the delta area: a tracker never records one (the
/// area is not the source of changes), and applying it would overwrite the
/// control bytes the next flush reads `N_E` from.
fn poke(page: &mut [u8], delta_area: &Range<usize>, pair: ChangePair) -> Result<()> {
    let off = pair.offset as usize;
    if off >= page.len() {
        return Err(CoreError::CorruptDelta(format!(
            "pair offset {off} outside {}-byte page",
            page.len()
        )));
    }
    if delta_area.contains(&off) {
        return Err(CoreError::CorruptDelta(format!(
            "pair offset {off} inside the delta area {delta_area:?}"
        )));
    }
    page[off] = pair.value;
    Ok(())
}

fn write_pair(dst: &mut [u8], pair: &ChangePair) {
    dst[0..2].copy_from_slice(&pair.offset.to_le_bytes());
    dst[2] = pair.value;
}

fn read_pair(src: &[u8]) -> Option<ChangePair> {
    let offset = u16::from_le_bytes([src[0], src[1]]);
    if offset == OFFSET_UNUSED && src[2] == 0xFF {
        return None;
    }
    Some(ChangePair { offset, value: src[2] })
}

/// Count the delta records present in a delta area by inspecting control
/// bytes, validating that occupied slots are contiguous from slot 0 (records
/// are only ever appended in order).
pub fn count_records(delta_area: &[u8], scheme: &NxM) -> Result<u16> {
    let size = scheme.delta_record_size();
    if size == 0 {
        return Ok(0);
    }
    let mut count = 0u16;
    let mut gap = false;
    for i in 0..scheme.n {
        let ctrl = delta_area[i as usize * size];
        match ctrl {
            0xFF => gap = true,
            CTRL_PRESENT if gap => {
                return Err(CoreError::CorruptDelta(format!(
                    "record in slot {i} after an empty slot"
                )))
            }
            CTRL_PRESENT => count += 1,
            other => {
                return Err(CoreError::CorruptDelta(format!(
                    "slot {i}: bad control byte {other:#04x}"
                )))
            }
        }
    }
    Ok(count)
}

/// Decode all records present in a delta area, in append (forward) order.
pub fn decode_all(delta_area: &[u8], scheme: &NxM) -> Result<Vec<DeltaRecord>> {
    let n = count_records(delta_area, scheme)?;
    let size = scheme.delta_record_size();
    (0..n)
        .map(|i| {
            DeltaRecord::decode(&delta_area[i as usize * size..(i as usize + 1) * size], scheme)?
                .ok_or_else(|| CoreError::CorruptDelta("counted record missing".into()))
        })
        .collect()
}

/// Apply every record of a delta area to a page buffer in forward order —
/// the fetch path of §6.2 ("if delta-records are present, they are applied
/// in forward order"). The slots are walked where they lie and each pair is
/// poked into the page as it is read: no pair lands inside the delta area
/// (see [`DeltaRecord::apply`]), so applying one cannot change a slot still
/// to be read, and the result equals [`decode_all`] followed by
/// [`DeltaRecord::apply`] per record, errors included.
pub fn apply_all(page: &mut [u8], delta_area_start: usize, scheme: &NxM) -> Result<u16> {
    let area = delta_area_start..delta_area_start + scheme.delta_area_size();
    let n = count_records(&page[area.clone()], scheme)?;
    let size = scheme.delta_record_size();
    // Body and metadata pairs are contiguous behind the control byte.
    let pairs = scheme.m as usize + scheme.v as usize;
    for i in 0..n as usize {
        let first_pair = area.start + i * size + 1;
        for at in (first_pair..first_pair + 3 * pairs).step_by(3) {
            if let Some(pair) = read_pair(&page[at..at + 3]) {
                poke(page, &area, pair)?;
            }
        }
    }
    Ok(n)
}

/// Encode `records` delta records (`⌈U/M⌉`, at least one) straight into the
/// slots that start at `first_slot_at` in `page`, as
/// [`crate::ChangeTracker::decide`] + [`DeltaRecord::encode`] would lay
/// them out: the body offsets `M` per record in ascending order, the
/// `meta_count` metadata offsets `V` per record with the chunks spread from
/// the last record backwards, each value read from `page`, every unused
/// pair left erased.
pub(crate) fn encode_in_place(
    page: &mut [u8],
    first_slot_at: usize,
    scheme: &NxM,
    records: usize,
    body: impl Iterator<Item = u16>,
    meta: impl Iterator<Item = u16>,
    meta_count: usize,
) {
    let size = scheme.delta_record_size();
    let (m, v) = (scheme.m as usize, scheme.v as usize);
    page[first_slot_at..first_slot_at + records * size].fill(0xFF);
    for r in 0..records {
        page[first_slot_at + r * size] = CTRL_PRESENT;
    }
    let mut put = |at: usize, offset: u16| {
        let value = page[offset as usize];
        write_pair(&mut page[at..at + 3], &ChangePair { offset, value });
    };
    for (i, offset) in body.enumerate() {
        put(first_slot_at + (i / m) * size + 1 + 3 * (i % m), offset);
    }
    if meta_count > 0 && v > 0 {
        let first_meta_record = records - meta_count.div_ceil(v);
        for (j, offset) in meta.enumerate() {
            let record = first_meta_record + j / v;
            put(first_slot_at + record * size + 1 + 3 * m + 3 * (j % v), offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> NxM {
        NxM::new(2, 3, 4)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rec = DeltaRecord::new(
            vec![ChangePair { offset: 500, value: 3 }, ChangePair { offset: 700, value: 9 }],
            vec![ChangePair { offset: 10, value: 42 }],
        );
        let s = scheme();
        let encoded = rec.encode(&s).unwrap();
        assert_eq!(encoded.len(), s.delta_record_size());
        assert_eq!(encoded[0], CTRL_PRESENT);
        let decoded = DeltaRecord::decode(&encoded, &s).unwrap().unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn unused_pairs_stay_erased() {
        let rec = DeltaRecord::new(vec![ChangePair { offset: 1, value: 2 }], vec![]);
        let encoded = rec.encode(&scheme()).unwrap();
        // Pair 0 programmed, pairs 1..3 (body) and all meta pairs erased.
        assert_eq!(&encoded[1..4], &[1, 0, 2]);
        assert!(encoded[4..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn erased_slot_decodes_to_none() {
        let s = scheme();
        let slot = vec![0xFF; s.delta_record_size()];
        assert_eq!(DeltaRecord::decode(&slot, &s).unwrap(), None);
    }

    #[test]
    fn oversized_record_rejected() {
        let s = scheme();
        let body = (0..4).map(|i| ChangePair { offset: i, value: 0 }).collect();
        let err = DeltaRecord::new(body, vec![]).encode(&s).unwrap_err();
        assert!(matches!(err, CoreError::DeltaTooLarge { body: 4, .. }));
        let meta = (0..5).map(|i| ChangePair { offset: i, value: 0 }).collect();
        let err = DeltaRecord::new(vec![], meta).encode(&s).unwrap_err();
        assert!(matches!(err, CoreError::DeltaTooLarge { meta: 5, .. }));
    }

    #[test]
    fn bad_control_byte_is_corruption() {
        let s = scheme();
        let mut slot = vec![0xFF; s.delta_record_size()];
        slot[0] = 0x12;
        assert!(matches!(DeltaRecord::decode(&slot, &s), Err(CoreError::CorruptDelta(_))));
    }

    #[test]
    fn apply_replaces_single_bytes() {
        let mut page = vec![0u8; 1024];
        let rec = DeltaRecord::new(
            vec![ChangePair { offset: 100, value: 7 }],
            vec![ChangePair { offset: 10, value: 200 }],
        );
        rec.apply(&mut page, &(32..64)).unwrap();
        assert_eq!(page[100], 7);
        assert_eq!(page[10], 200);
        assert_eq!(page.iter().filter(|&&b| b != 0).count(), 2);
    }

    #[test]
    fn apply_out_of_bounds_rejected() {
        let mut page = vec![0u8; 64];
        let rec = DeltaRecord::new(vec![ChangePair { offset: 64, value: 1 }], vec![]);
        assert!(matches!(rec.apply(&mut page, &(32..48)), Err(CoreError::CorruptDelta(_))));
    }

    #[test]
    fn apply_inside_the_delta_area_rejected() {
        let mut page = vec![0u8; 64];
        for offset in [32, 47] {
            let rec = DeltaRecord::new(vec![], vec![ChangePair { offset, value: 1 }]);
            assert!(matches!(rec.apply(&mut page, &(32..48)), Err(CoreError::CorruptDelta(_))));
        }
        assert!(page.iter().all(|&b| b == 0), "a rejected pair changes nothing");
        // Its neighbours on either side are ordinary header and body bytes.
        let rec = DeltaRecord::new(
            vec![ChangePair { offset: 48, value: 2 }],
            vec![ChangePair { offset: 31, value: 1 }],
        );
        rec.apply(&mut page, &(32..48)).unwrap();
        assert_eq!((page[31], page[48]), (1, 2));
    }

    #[test]
    fn count_records_contiguous() {
        let s = scheme();
        let size = s.delta_record_size();
        let mut area = vec![0xFF; s.delta_area_size()];
        assert_eq!(count_records(&area, &s).unwrap(), 0);
        area[0] = CTRL_PRESENT;
        assert_eq!(count_records(&area, &s).unwrap(), 1);
        area[size] = CTRL_PRESENT;
        assert_eq!(count_records(&area, &s).unwrap(), 2);
    }

    #[test]
    fn count_records_detects_gap() {
        let s = scheme();
        let size = s.delta_record_size();
        let mut area = vec![0xFF; s.delta_area_size()];
        area[size] = CTRL_PRESENT; // slot 1 present, slot 0 empty
        assert!(matches!(count_records(&area, &s), Err(CoreError::CorruptDelta(_))));
    }

    #[test]
    fn forward_order_apply_last_writer_wins() {
        // Paper Figure 5: Tx1 sets A7 := 3, Tx2 sets A7 := 3 again via a
        // second record. Forward order means the later record's value
        // stands.
        let s = scheme();
        let size = s.delta_record_size();
        let r1 = DeltaRecord::new(vec![ChangePair { offset: 200, value: 1 }], vec![]);
        let r2 = DeltaRecord::new(vec![ChangePair { offset: 200, value: 2 }], vec![]);
        let mut page = vec![0u8; 1024];
        let start = 32;
        page[start..start + size].copy_from_slice(&r1.encode(&s).unwrap());
        page[start + size..start + 2 * size].copy_from_slice(&r2.encode(&s).unwrap());
        // decode_all over the raw area needs erased remainder: fine, area
        // is exactly 2 slots for n=2.
        let n = apply_all(&mut page, start, &s).unwrap();
        assert_eq!(n, 2);
        assert_eq!(page[200], 2);
    }

    /// `apply_all` before it walked the slots in place: copy the area out,
    /// decode every record, apply them one by one. The oracle.
    fn apply_all_by_decoding(page: &mut [u8], start: usize, scheme: &NxM) -> Result<u16> {
        let area = start..start + scheme.delta_area_size();
        let records = decode_all(&page[area.clone()], scheme)?;
        for rec in &records {
            rec.apply(page, &area)?;
        }
        Ok(records.len() as u16)
    }

    #[test]
    fn in_place_apply_matches_decode_then_apply() {
        use rand::Rng;
        const START: usize = 32;
        let (mut clean, mut corrupt) = (0, 0);
        ipa_flash::for_each_case(4_000, |rng| {
            let scheme = match rng.gen_range(0..4) {
                0 => NxM::linkbench(),
                _ => NxM::new(rng.gen_range(1..5), rng.gen_range(0..9), rng.gen_range(0..7)),
            };
            let size = scheme.delta_record_size();
            let area = START..START + scheme.delta_area_size();
            const PAGE: usize = 2048;
            let mut page: Vec<u8> = (0..PAGE).map(|_| rng.gen()).collect();
            page[area.clone()].fill(0xFF);
            // Offsets that may legitimately change: header and body.
            let legit = |rng: &mut rand::rngs::StdRng| loop {
                let offset = rng.gen_range(0..PAGE);
                if !area.contains(&offset) {
                    return ChangePair { offset: offset as u16, value: rng.gen() };
                }
            };
            let present = rng.gen_range(0..=scheme.n) as usize;
            for slot in 0..present {
                let body = (0..rng.gen_range(0..=scheme.m)).map(|_| legit(rng)).collect();
                let meta = (0..rng.gen_range(0..=scheme.v)).map(|_| legit(rng)).collect();
                let at = START + slot * size;
                let encoded = DeltaRecord::new(body, meta).encode(&scheme).unwrap();
                page[at..at + size].copy_from_slice(&encoded);
            }
            // Every way a delta area can be corrupt, alone or together.
            let forged = rng.gen_range(0..3) == 0 && present > 0 && scheme.m + scheme.v > 0;
            if forged {
                let slot = START + rng.gen_range(0..present) * size;
                let pair_at = slot + 1 + 3 * rng.gen_range(0..(scheme.m + scheme.v) as usize);
                match rng.gen_range(0..4) {
                    // A gap before a record.
                    0 => page[START + rng.gen_range(0..present) * size] = 0xFF,
                    1 => page[slot] = rng.gen_range(0..0xFF),
                    // An offset past the page (but not the unused marker).
                    2 => {
                        let offset = rng.gen_range(page.len() as u16..OFFSET_UNUSED);
                        write_pair(&mut page[pair_at..], &ChangePair { offset, value: 7 });
                    }
                    // An offset inside the delta area.
                    _ => {
                        let offset = rng.gen_range(area.clone()) as u16;
                        write_pair(&mut page[pair_at..], &ChangePair { offset, value: 7 });
                    }
                }
            }
            let mut expected_page = page.clone();
            let expected = apply_all_by_decoding(&mut expected_page, START, &scheme);
            let outcome = apply_all(&mut page, START, &scheme);
            assert_eq!(outcome, expected);
            // On an error too: the pairs before the bad one are applied.
            assert_eq!(page, expected_page);
            if !forged {
                assert_eq!(outcome, Ok(present as u16));
            }
            clean += outcome.is_ok() as u32;
            corrupt += outcome.is_err() as u32;
        });
        assert!(clean > 2_000 && corrupt > 500, "{clean} clean, {corrupt} corrupt cases");
    }

    #[test]
    fn decode_all_roundtrip() {
        let s = scheme();
        let size = s.delta_record_size();
        let r1 = DeltaRecord::new(vec![ChangePair { offset: 9, value: 1 }], vec![]);
        let mut area = vec![0xFF; s.delta_area_size()];
        area[..size].copy_from_slice(&r1.encode(&s).unwrap());
        let all = decode_all(&area, &s).unwrap();
        assert_eq!(all, vec![r1]);
    }
}
