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

    /// Apply this record to a page buffer (pairs replace single bytes).
    pub fn apply(&self, page: &mut [u8]) -> Result<()> {
        for pair in self.body.iter().chain(self.meta.iter()) {
            let off = pair.offset as usize;
            if off >= page.len() {
                return Err(CoreError::CorruptDelta(format!(
                    "pair offset {off} outside {}-byte page",
                    page.len()
                )));
            }
            page[off] = pair.value;
        }
        Ok(())
    }
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
/// in forward order").
pub fn apply_all(page: &mut [u8], delta_area_start: usize, scheme: &NxM) -> Result<u16> {
    let area = page[delta_area_start..delta_area_start + scheme.delta_area_size()].to_vec();
    let records = decode_all(&area, scheme)?;
    let n = records.len() as u16;
    for rec in records {
        rec.apply(page)?;
    }
    Ok(n)
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
        rec.apply(&mut page).unwrap();
        assert_eq!(page[100], 7);
        assert_eq!(page[10], 200);
        assert_eq!(page.iter().filter(|&&b| b != 0).count(), 2);
    }

    #[test]
    fn apply_out_of_bounds_rejected() {
        let mut page = vec![0u8; 64];
        let rec = DeltaRecord::new(vec![ChangePair { offset: 64, value: 1 }], vec![]);
        assert!(matches!(rec.apply(&mut page), Err(CoreError::CorruptDelta(_))));
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
