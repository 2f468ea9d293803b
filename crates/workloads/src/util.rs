//! Random-distribution helpers shared by the workload generators.

use rand::rngs::StdRng;
use rand::Rng;

/// TPC-C's non-uniform random function:
/// `NURand(A, x, y) = (((rand(0,A) | rand(x,y)) + C) % (y - x + 1)) + x`.
///
/// Produces the standard TPC-C access skew (~75% of accesses to ~20% of
/// the rows, as the paper cites from Leutenegger & Dias).
pub fn nurand(rng: &mut StdRng, a: u64, x: u64, y: u64) -> u64 {
    // C is a per-run constant; fixing it keeps runs deterministic per seed.
    let c = a / 2;
    ((((rng.gen_range(0..=a)) | (rng.gen_range(x..=y))) + c) % (y - x + 1)) + x
}

/// Self-similar (power-law) distribution over `[0, n)`: a fraction `h` of
/// the draws hit a fraction `1 - h` of the values (Gray et al., "Quickly
/// generating billion-record synthetic databases"). Used for the
/// social-graph hot-node behaviour.
pub fn self_similar(rng: &mut StdRng, n: u64, h: f64) -> u64 {
    let u: f64 = rng.gen();
    let v = (n as f64 * u.powf((1.0 - h).ln() / h.ln())) as u64;
    v.min(n - 1)
}

/// Uniform integer in `[lo, hi]`.
pub fn uniform(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    rng.gen_range(lo..=hi)
}

/// Fixed-layout record builder: a constant filler pattern with typed
/// little-endian fields poked at fixed offsets, so that numeric updates
/// change only the bytes of the field they touch (the property all of the
/// paper's update-size distributions rest on). A workload that inserts one
/// record per transaction builds it once and pokes the fields of each
/// insert into the same buffer.
#[derive(Debug, Clone)]
pub struct Record(pub Vec<u8>);

impl Record {
    /// A record of `len` bytes filled with a deterministic pattern.
    pub fn new(len: usize) -> Self {
        Record((0..len).map(|i| (i % 251) as u8).collect())
    }

    /// Write a `u64` field.
    pub fn put_u64(&mut self, off: usize, v: u64) -> &mut Self {
        self.0[off..off + 8].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `i64` field.
    pub fn put_i64(&mut self, off: usize, v: i64) -> &mut Self {
        self.0[off..off + 8].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u32` field.
    pub fn put_u32(&mut self, off: usize, v: u32) -> &mut Self {
        self.0[off..off + 4].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `i32` field.
    pub fn put_i32(&mut self, off: usize, v: i32) -> &mut Self {
        self.0[off..off + 4].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u16` field.
    pub fn put_u16(&mut self, off: usize, v: u16) -> &mut Self {
        self.0[off..off + 2].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Read a `u64` field.
    pub fn get_u64(buf: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
    }

    /// Read an `i64` field.
    pub fn get_i64(buf: &[u8], off: usize) -> i64 {
        i64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
    }

    /// Read a `u32` field.
    pub fn get_u32(buf: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
    }

    /// Read an `i32` field.
    pub fn get_i32(buf: &[u8], off: usize) -> i32 {
        i32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
    }

    /// Read a `u16` field.
    pub fn get_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
    }
}

/// In-place field patch on an owned tuple image.
pub fn patch_i64(buf: &mut [u8], off: usize, f: impl FnOnce(i64) -> i64) {
    let v = Record::get_i64(buf, off);
    buf[off..off + 8].copy_from_slice(&f(v).to_le_bytes());
}

/// In-place `i32` field patch.
pub fn patch_i32(buf: &mut [u8], off: usize, f: impl FnOnce(i32) -> i32) {
    let v = Record::get_i32(buf, off);
    buf[off..off + 4].copy_from_slice(&f(v).to_le_bytes());
}

/// In-place `u16` field patch.
pub fn patch_u16(buf: &mut [u8], off: usize, f: impl FnOnce(u16) -> u16) {
    let v = Record::get_u16(buf, off);
    buf[off..off + 2].copy_from_slice(&f(v).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn nurand_stays_in_range() {
        let mut r = rng();
        for _ in 0..10_000 {
            let v = nurand(&mut r, 1023, 1, 3000);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // Count hits in the hottest decile vs expectation under uniform.
        let mut r = rng();
        let mut counts = vec![0u64; 3000];
        for _ in 0..100_000 {
            counts[(nurand(&mut r, 1023, 1, 3000) - 1) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u64 = counts[..300].iter().sum();
        assert!(hot as f64 > 100_000.0 * 0.15, "top decile got {hot}");
    }

    #[test]
    fn self_similar_skew() {
        let mut r = rng();
        let mut hot = 0;
        let n = 10_000;
        for _ in 0..100_000 {
            if self_similar(&mut r, n, 0.8) < n / 5 {
                hot += 1;
            }
        }
        // h=0.8: ~80% of draws land in the first 20%.
        assert!(hot > 70_000, "hot draws: {hot}");
    }

    #[test]
    fn record_fields_roundtrip() {
        let mut rec = Record::new(64);
        rec.put_u64(0, 42).put_i64(8, -7).put_u32(16, 9).put_u16(20, 3);
        assert_eq!(Record::get_u64(&rec.0, 0), 42);
        assert_eq!(Record::get_i64(&rec.0, 8), -7);
        assert_eq!(Record::get_u32(&rec.0, 16), 9);
        assert_eq!(Record::get_u16(&rec.0, 20), 3);
    }

    #[test]
    fn small_patch_changes_few_bytes() {
        let mut rec = Record::new(100);
        rec.put_i64(8, 1000);
        let before = rec.0.clone();
        patch_i64(&mut rec.0, 8, |v| v + 3);
        let diff = before.iter().zip(&rec.0).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "small increment changes one byte");
    }
}
