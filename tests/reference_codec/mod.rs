//! The Gorilla block encoder as it stood before the word-at-a-time bit
//! writer, kept verbatim as the byte-for-byte reference the library
//! encoder is tested against (`tests/tiered_storage.rs`). Test-only: it
//! is not part of any crate's API.

use davide::telemetry::storage::MAX_BLOCK_POINTS;

#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// MSB-first bit accumulator over a byte vector.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `n` bits of `bits` (n ≤ 57 per call).
    #[inline]
    fn push(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 57);
        self.acc |= (bits & mask(n)) << (64 - self.nbits - n);
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc >> 56) as u8);
            self.acc <<= 8;
            self.nbits -= 8;
        }
    }

    /// Append a full 64-bit word.
    #[inline]
    fn push64(&mut self, bits: u64) {
        self.push(bits >> 32, 32);
        self.push(bits & 0xffff_ffff, 32);
    }

    fn finish(self) {
        if self.nbits > 0 {
            self.out.push((self.acc >> 56) as u8);
        }
    }
}

#[inline]
fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Compress one sealed run of points into `out` (append; `out` is not
/// cleared). `ts` and `vs` must be the same length, between 1 and
/// [`MAX_BLOCK_POINTS`]. The round trip through [`decode_block_into`]
/// reproduces both slices bit-for-bit.
///
/// # Panics
/// If the slices are empty, differ in length, or exceed
/// [`MAX_BLOCK_POINTS`] — sealing is driver-controlled, so those are
/// wiring bugs, not data errors.
pub fn encode_block(ts: &[f64], vs: &[f32], out: &mut Vec<u8>) {
    assert_eq!(ts.len(), vs.len(), "columns must align");
    assert!(!ts.is_empty(), "sealed blocks are never empty");
    assert!(ts.len() <= MAX_BLOCK_POINTS, "block too large to seal");
    out.extend_from_slice(&(ts.len() as u16).to_le_bytes());
    let mut w = BitWriter::new(out);

    // First point: raw bits.
    w.push64(ts[0].to_bits());
    w.push(vs[0].to_bits() as u64, 32);

    let mut prev_t = ts[0].to_bits() as i64;
    let mut prev_delta: i64 = 0;
    let mut prev_v = vs[0].to_bits();
    // Current XOR window (leading zeros, meaningful length); u32::MAX
    // leading marks "no window yet".
    let mut win_lead: u32 = u32::MAX;
    let mut win_len: u32 = 0;

    for i in 1..ts.len() {
        // Timestamp: delta-of-delta on raw bits.
        let t_bits = ts[i].to_bits() as i64;
        let delta = t_bits.wrapping_sub(prev_t);
        let dod = delta.wrapping_sub(prev_delta);
        prev_t = t_bits;
        prev_delta = delta;
        let z = zigzag(dod);
        if z == 0 {
            w.push(0b0, 1);
        } else if z <= 4 {
            w.push(0b10, 2);
            w.push(z - 1, 2);
        } else if z < (1 << 8) {
            w.push(0b110, 3);
            w.push(z, 8);
        } else if z < (1 << 16) {
            w.push(0b1110, 4);
            w.push(z, 16);
        } else if z < (1 << 32) {
            w.push(0b11110, 5);
            w.push(z, 32);
        } else {
            // Raw escape: arbitrary (e.g. non-monotonic) timestamps.
            w.push(0b11111, 5);
            w.push64(z);
        }

        // Value: XOR against the previous value's bits.
        let v_bits = vs[i].to_bits();
        let x = v_bits ^ prev_v;
        prev_v = v_bits;
        if x == 0 {
            w.push(0b0, 1);
            continue;
        }
        let lead = x.leading_zeros();
        let trail = x.trailing_zeros();
        let len = 32 - lead - trail;
        let fits_window = win_lead != u32::MAX
            && lead >= win_lead
            && trail >= 32 - win_lead - win_len
            && win_len <= 57 - 2;
        if fits_window {
            let win_trail = 32 - win_lead - win_len;
            w.push(0b10, 2);
            w.push((x >> win_trail) as u64, win_len);
        } else {
            // New window: 5 bits leading (≤31 by construction of a
            // nonzero 32-bit XOR), 5 bits length−1, then the bits.
            w.push(0b11, 2);
            w.push(lead as u64, 5);
            w.push((len - 1) as u64, 5);
            w.push((x >> trail) as u64, len);
            win_lead = lead;
            win_len = len;
        }
    }
    w.finish();
}
