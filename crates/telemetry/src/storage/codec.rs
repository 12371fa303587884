//! Gorilla-style sealed-block codec: delta-of-delta timestamps and
//! XOR-mantissa float values in one bitstream.
//!
//! The encoder works purely on **bit patterns** — timestamps are
//! delta-of-delta'd on their raw `f64` bits as wrapping `i64`s, values
//! are XOR'd on their raw `f32` bits — so the round trip is bit-exact
//! for *every* input: NaN payloads, `±0.0`, subnormals, infinities and
//! non-monotonic timestamps all reconstruct to the identical bits. A
//! uniformly-spaced frame (the ingest common case) has a constant
//! bit-delta between consecutive timestamps, so its delta-of-delta is
//! zero and each timestamp costs **one bit**; the widest bucket is a
//! raw 64-bit escape, which is what a non-monotonic or otherwise
//! pathological timestamp stream degrades to instead of failing.
//!
//! Wire layout of one block (`encode_block`):
//!
//! ```text
//! [n: u16 LE]                      point count (1..=MAX_BLOCK_POINTS)
//! [bitstream, MSB-first]
//!   ts[0]  raw 64 bits             value[0] raw 32 bits
//!   for each subsequent point:
//!     timestamp dod bucket         value XOR bucket
//! ```
//!
//! Timestamp delta-of-delta buckets (`z` = zigzag of the dod):
//!
//! | prefix  | payload | covers |
//! |---------|---------|--------|
//! | `0`     | —       | dod = 0 (exactly uniform spacing) |
//! | `10`    | 2 bits  | z ∈ 1..=4, i.e. dod = ±1, ±2 (the ±ulp wobble `t0 + i·dt` rounding leaves on real frames) |
//! | `110`   | 8 bits  | z < 2⁸ |
//! | `1110`  | 16 bits | z < 2¹⁶ |
//! | `11110` | 32 bits | z < 2³² |
//! | `11111` | 64 bits | raw escape (anything, incl. non-monotonic) |
//!
//! Value buckets (classic Gorilla): `0` = XOR is zero (repeat), `10` =
//! meaningful bits fit the previous leading/trailing window, `11` = new
//! window (5 bits leading zeros, 5 bits length−1, then the bits).
//!
//! Decoding is bounds-checked everywhere: a truncated or corrupt block
//! returns [`CodecError`], never panics and never reads past the slice.
//!
//! The encoder also returns each block's [`BlockSum`]: the in-order
//! `f64` sum of its values plus two exponent bounds that let a raw mean
//! add the whole block in one step when that step provably gives the
//! bits of folding the values one by one. It is metadata beside the
//! bitstream, not part of it.

/// Hard cap on points per block: keeps per-scan scratch bounded and the
/// `u16` point-count header honest.
pub const MAX_BLOCK_POINTS: usize = 65_535;

/// Why a block failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The byte slice ended before the declared points were decoded.
    Truncated,
    /// The header declared zero points (sealed blocks are never empty).
    EmptyBlock,
    /// A value window header whose leading-zero count and length add
    /// up to more than 32 bits; no encoder writes one.
    Corrupt,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed block truncated"),
            CodecError::EmptyBlock => write!(f, "compressed block declares zero points"),
            CodecError::Corrupt => write!(f, "compressed block has a corrupt value window"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A block's exact-sum certificate, computed by [`encode_block`].
///
/// Every value `v` is a finite `f32`, so it is a multiple of
/// 2^(`lo` − 150) and |v| < 2^(`hi` − 126). `BlockSum::add_to` uses
/// those bounds to prove that folding the values into a running `f64`
/// sum one by one never rounds, and then adds `sum` in one step: an
/// exact fold has one answer whatever its grouping, so the bits are the
/// ones the point-by-point fold gives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSum {
    /// In-order `f64` sum of the values, starting from `+0.0`.
    pub sum: f64,
    /// Smallest biased `f32` exponent over the nonzero values, floored
    /// at 1 (254 when every value is zero).
    pub lo: u8,
    /// Largest biased `f32` exponent over the values; 255 when a value
    /// is NaN or infinite, which voids the certificate.
    pub hi: u8,
}

impl BlockSum {
    /// The certificate of `vs`, whose in-order sum from `+0.0` is
    /// `sum`. `moved` is false only when no value's sign or exponent
    /// differs from its predecessor's: every value then shares
    /// `vs[0]`'s exponent, and a normal `vs[0]` gives both bounds at
    /// once. Any other block has its bounds computed from its values.
    fn new(sum: f64, vs: &[f32], moved: bool) -> BlockSum {
        // The low byte of `bits >> 23` is the biased exponent.
        let e0 = (vs[0].to_bits() >> 23) as u8;
        let (lo, hi) = if !moved && (1..=254).contains(&e0) {
            (e0, e0)
        } else {
            exponent_bounds(vs)
        };
        BlockSum { sum, lo, hi }
    }

    /// `acc` with the block's `n` values folded in one by one — computed
    /// as `acc + sum` when the certificate proves that fold exact, and
    /// `None` (decode the block instead) when it cannot.
    ///
    /// Let `q` be the smaller of `lo − 150` and the exponent of `acc`'s
    /// lowest set bit. Every partial sum of the fold is then an integer
    /// multiple of 2^q, of magnitude below |acc| + n·2^(hi − 126). When
    /// that bound is at most 2^(52 + q), every partial sum, `sum`'s own
    /// included, is a multiple of 2^q below 2^(53 + q), which an `f64`
    /// holds exactly: no addition rounds. (The bound is itself an `f64`
    /// sum; its rounding error is at most 2^(q − 1), well inside the
    /// factor of two.)
    ///
    /// `acc` must be finite and not `-0.0`. A fold that starts from
    /// `+0.0` never reaches `-0.0`; from `-0.0`, a run of `-0.0` values
    /// would keep a sign that `sum`, started from `+0.0`, has lost.
    #[inline]
    pub(crate) fn add_to(&self, acc: f64, n: u32) -> Option<f64> {
        if self.hi == 0xff || !acc.is_finite() || acc.to_bits() == (-0.0f64).to_bits() {
            return None;
        }
        let q = (self.lo as i32 - 150).min(lowest_set_bit_exp(acc));
        let bound = acc.abs() + n as f64 * pow2(self.hi as i32 - 126);
        (bound <= pow2(52 + q)).then_some(acc + self.sum)
    }
}

/// `lo` and `hi` of [`BlockSum`], straight from the values. With the
/// sign cleared, the order of `f32` bit patterns is magnitude order, so
/// the extreme magnitudes carry the extreme exponents.
fn exponent_bounds(vs: &[f32]) -> (u8, u8) {
    let mags = vs.iter().map(|v| v.to_bits() & 0x7fff_ffff);
    let max = mags.clone().max().unwrap_or(0);
    // Subnormals are multiples of 2^-149, as exponent-1 normals are.
    let lo = mags
        .filter(|&m| m != 0)
        .min()
        .map_or(254, |m| ((m >> 23) as u8).max(1));
    (lo, (max >> 23) as u8)
}

/// 2^k for a `k` in the normal `f64` exponent range.
#[inline]
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// Exponent of the lowest set bit of a finite `x`: `x` is an odd
/// multiple of 2 to this power. `i32::MAX` for zero, which every power
/// of two divides.
#[inline]
fn lowest_set_bit_exp(x: f64) -> i32 {
    let bits = x.to_bits() & !(1 << 63);
    if bits == 0 {
        return i32::MAX;
    }
    let e = (bits >> 52) as i32;
    let frac = bits & ((1 << 52) - 1);
    // Normal numbers carry the implicit leading bit; subnormals share
    // the exponent of the smallest normal.
    let sig = if e == 0 { frac } else { frac | (1 << 52) };
    sig.trailing_zeros() as i32 + e.max(1) - 1075
}

#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// MSB-first bit writer: stages bits in a 64-bit word and stores each
/// full word as 8 big-endian bytes, so a point costs two or three
/// `push` calls and a store every few points. The byte stream is the
/// same as writing the bits one at a time: MSB-first, last byte
/// zero-padded.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Pending bits, MSB-aligned; every bit below the top `nbits` is 0.
    acc: u64,
    /// Pending bit count, always < 64.
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

    /// Append the low `n` bits of `bits` (1 ≤ n ≤ 64). Callers pass
    /// codes with no bit set at or above `n`.
    #[inline]
    fn push(&mut self, bits: u64, n: u32) {
        debug_assert!((1..=64).contains(&n) && (n == 64 || bits >> n == 0));
        let free = 64 - self.nbits;
        if n < free {
            self.acc |= bits << (free - n);
            self.nbits += n;
        } else {
            // The code completes the staged word; its low `spill` bits
            // start the next one.
            let spill = n - free;
            let word = self.acc | (bits >> spill);
            self.out.extend_from_slice(&word.to_be_bytes());
            self.acc = if spill == 0 { 0 } else { bits << (64 - spill) };
            self.nbits = spill;
        }
    }

    /// Store the pending bits, zero-padded to a whole byte.
    fn finish(self) {
        let bytes = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_be_bytes()[..bytes]);
    }
}

/// MSB-first bounds-checked bit cursor over a byte slice.
///
/// Keeps up to 64 decoded-ahead bits staged MSB-aligned in `acc`, so
/// the per-read cost is a shift pair; the buffer refills with one
/// unaligned big-endian load (amortized to about one per decoded
/// point). Re-OR-ing overlapping stream bits on refill is idempotent —
/// any bit beyond `have` that is already in `acc` is the true next
/// stream bit, never garbage.
struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte of `buf` to stage.
    byte: usize,
    /// Staged bits, MSB-aligned.
    acc: u64,
    /// Count of valid staged bits.
    have: u32,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            byte: 0,
            acc: 0,
            have: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        if self.byte + 8 <= self.buf.len() {
            let w = u64::from_be_bytes(self.buf[self.byte..self.byte + 8].try_into().unwrap());
            self.acc |= w >> self.have;
            let add_bytes = (64 - self.have) >> 3;
            self.byte += add_bytes as usize;
            self.have += add_bytes * 8;
        } else {
            while self.have <= 56 && self.byte < self.buf.len() {
                self.acc |= (self.buf[self.byte] as u64) << (56 - self.have);
                self.byte += 1;
                self.have += 8;
            }
        }
    }

    /// Read `n` bits (1 ≤ n ≤ 57), MSB-first.
    #[inline]
    fn read(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!((1..=57).contains(&n));
        if self.have < n {
            self.refill();
            if self.have < n {
                return Err(CodecError::Truncated);
            }
        }
        let v = self.acc >> (64 - n);
        self.acc <<= n;
        self.have -= n;
        Ok(v)
    }

    /// Read one bit.
    #[inline]
    fn read_bit(&mut self) -> Result<u64, CodecError> {
        self.read(1)
    }

    /// Read a full 64-bit word.
    #[inline]
    fn read64(&mut self) -> Result<u64, CodecError> {
        Ok((self.read(32)? << 32) | self.read(32)?)
    }
}

/// Upper bound on the encoded size of an `n`-point block: the header,
/// the raw first point (96 bits), then per point the widest timestamp
/// code (5 + 64 bits) and the widest value code (2 + 5 + 5 + 32 bits).
fn max_encoded_len(n: usize) -> usize {
    2 + (96 + (n - 1) * 113).div_ceil(8)
}

/// Compress one sealed run of points into `out` (append; `out` is not
/// cleared), and return the values' [`BlockSum`], whose sum is taken in
/// the same loop. `ts` and `vs` must be the same length, between 1 and
/// [`MAX_BLOCK_POINTS`]. The round trip through [`decode_block_into`]
/// reproduces both slices bit-for-bit. `out` is reserved once for the
/// worst case, so callers that keep it as a scratch buffer never
/// reallocate after the first block.
///
/// # Panics
/// If the slices are empty, differ in length, or exceed
/// [`MAX_BLOCK_POINTS`] — sealing is driver-controlled, so those are
/// wiring bugs, not data errors.
pub fn encode_block(ts: &[f64], vs: &[f32], out: &mut Vec<u8>) -> BlockSum {
    assert_eq!(ts.len(), vs.len(), "columns must align");
    assert!(!ts.is_empty(), "sealed blocks are never empty");
    assert!(ts.len() <= MAX_BLOCK_POINTS, "block too large to seal");
    out.reserve(max_encoded_len(ts.len()));
    out.extend_from_slice(&(ts.len() as u16).to_le_bytes());
    let mut w = BitWriter::new(out);

    // First point: raw bits.
    w.push(ts[0].to_bits(), 64);
    w.push(vs[0].to_bits() as u64, 32);
    // The values' in-order sum from +0.0, and whether any value's sign
    // or exponent differs from its predecessor's (see `BlockSum::new`).
    let mut sum = 0.0f64;
    sum += vs[0] as f64;
    let mut moved = false;

    let mut prev_t = ts[0].to_bits() as i64;
    let mut prev_delta: i64 = 0;
    let mut prev_v = vs[0].to_bits();
    // Current XOR window as leading/trailing zero counts. No nonzero
    // 32-bit XOR has 32 leading zeros, so the first one always opens a
    // new window.
    let mut win_lead: u32 = 32;
    let mut win_trail: u32 = 0;

    // Each code below is its bucket prefix and payload in one push.
    for (&t, &v) in ts[1..].iter().zip(&vs[1..]) {
        // Timestamp: delta-of-delta on raw bits.
        let t_bits = t.to_bits() as i64;
        let delta = t_bits.wrapping_sub(prev_t);
        let dod = delta.wrapping_sub(prev_delta);
        prev_t = t_bits;
        prev_delta = delta;
        let z = zigzag(dod);
        if z == 0 {
            w.push(0b0, 1);
        } else if z <= 4 {
            w.push((0b10 << 2) | (z - 1), 4);
        } else if z < (1 << 8) {
            w.push((0b110 << 8) | z, 11);
        } else if z < (1 << 16) {
            w.push((0b1110 << 16) | z, 20);
        } else if z < (1 << 32) {
            w.push((0b11110 << 32) | z, 37);
        } else {
            // Raw escape: arbitrary (e.g. non-monotonic) timestamps.
            w.push(0b11111, 5);
            w.push(z, 64);
        }

        // Value: XOR against the previous value's bits.
        sum += v as f64;
        let v_bits = v.to_bits();
        let x = v_bits ^ prev_v;
        prev_v = v_bits;
        if x == 0 {
            w.push(0b0, 1);
            continue;
        }
        let lead = x.leading_zeros();
        let trail = x.trailing_zeros();
        if lead >= win_lead && trail >= win_trail {
            let win_len = 32 - win_lead - win_trail;
            w.push((0b10 << win_len) | (x >> win_trail) as u64, 2 + win_len);
        } else {
            // New window: 5 bits leading (≤31 by construction of a
            // nonzero 32-bit XOR), 5 bits length−1, then the bits.
            let len = 32 - lead - trail;
            let header = (0b11 << 10) | ((lead as u64) << 5) | (len - 1) as u64;
            w.push((header << len) | (x >> trail) as u64, 12 + len);
            win_lead = lead;
            win_trail = trail;
            // Does the XOR reach the sign or exponent (the top nine
            // bits)? Only a new window can: a reused window starts no
            // higher than the XOR that opened it.
            moved |= lead < 9;
        }
    }
    w.finish();
    BlockSum::new(sum, vs, moved)
}

/// Decode a block produced by [`encode_block`], appending the points to
/// `ts`/`vs` (existing contents are preserved, so a scan scratch can be
/// cleared by the caller at its own cadence). Returns the number of
/// points appended. Truncated or corrupt input returns an error and
/// leaves any partially-appended points in the buffers — callers that
/// care should truncate back to the pre-call length on `Err`.
pub fn decode_block_into(
    bytes: &[u8],
    ts: &mut Vec<f64>,
    vs: &mut Vec<f32>,
) -> Result<usize, CodecError> {
    if bytes.len() < 2 {
        return Err(CodecError::Truncated);
    }
    let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    if n == 0 {
        return Err(CodecError::EmptyBlock);
    }
    let mut r = BitReader::new(&bytes[2..]);
    ts.reserve(n);
    vs.reserve(n);

    let mut t_bits = r.read64()?;
    let mut v_bits = r.read(32)? as u32;
    ts.push(f64::from_bits(t_bits));
    vs.push(f32::from_bits(v_bits));

    let mut prev_delta: i64 = 0;
    let mut win_len: u32 = 32;
    let mut win_trail: u32 = 0;

    for _ in 1..n {
        // Timestamp bucket.
        let dod = if r.read_bit()? == 0 {
            0i64
        } else if r.read_bit()? == 0 {
            unzigzag(r.read(2)? + 1)
        } else if r.read_bit()? == 0 {
            unzigzag(r.read(8)?)
        } else if r.read_bit()? == 0 {
            unzigzag(r.read(16)?)
        } else if r.read_bit()? == 0 {
            unzigzag(r.read(32)?)
        } else {
            unzigzag(r.read64()?)
        };
        prev_delta = prev_delta.wrapping_add(dod);
        t_bits = (t_bits as i64).wrapping_add(prev_delta) as u64;
        ts.push(f64::from_bits(t_bits));

        // Value bucket.
        if r.read_bit()? == 1 {
            if r.read_bit()? == 1 {
                let win_lead = r.read(5)? as u32;
                win_len = r.read(5)? as u32 + 1;
                // No encoder writes a window that runs past bit 0.
                win_trail = 32u32
                    .checked_sub(win_lead + win_len)
                    .ok_or(CodecError::Corrupt)?;
            }
            let x = (r.read(win_len)? as u32) << win_trail;
            v_bits ^= x;
        }
        vs.push(f32::from_bits(v_bits));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ts: &[f64], vs: &[f32]) {
        let mut bytes = Vec::new();
        encode_block(ts, vs, &mut bytes);
        let (mut dt, mut dv) = (Vec::new(), Vec::new());
        let n = decode_block_into(&bytes, &mut dt, &mut dv).expect("decodes");
        assert_eq!(n, ts.len());
        for i in 0..n {
            assert_eq!(ts[i].to_bits(), dt[i].to_bits(), "ts[{i}]");
            assert_eq!(vs[i].to_bits(), dv[i].to_bits(), "vs[{i}]");
        }
    }

    #[test]
    fn uniform_frame_roundtrips_and_compresses() {
        let ts: Vec<f64> = (0..2000).map(|i| 10.0 + i as f64 * 2e-5).collect();
        // A slow power wobble (full swing over the whole frame), the
        // shape a node rail takes between load changes.
        let vs: Vec<f32> = (0..2000)
            .map(|i| 1700.0 + (i as f32 * 0.002).sin() * 30.0)
            .collect();
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        roundtrip(&ts, &vs);
        let raw = ts.len() * (8 + 4);
        assert!(
            bytes.len() * 4 < raw,
            "≥4× on a smooth frame: {} vs {raw}",
            bytes.len()
        );
    }

    #[test]
    fn special_values_bit_exact() {
        let ts = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            1e300,
            -7.25,
        ];
        let vs = [
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN with payload
            -0.0,
            0.0,
            f32::INFINITY,
            f32::MIN_POSITIVE / 4.0,
            f32::MAX,
            -1.5e-40,
        ];
        roundtrip(&ts, &vs);
    }

    #[test]
    fn non_monotonic_timestamps_take_the_escape() {
        let ts = [5.0, 3.0, 100.0, -2.0, 4.0];
        let vs = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        roundtrip(&ts, &vs);
    }

    #[test]
    fn constant_run_costs_two_bits_per_point() {
        let ts: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let vs = vec![42.5f32; 1000];
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        // Integer timestamps are NOT uniform in f64 bit space: the bit
        // delta is constant inside a binade but jumps at each power of
        // two, costing a raw escape there. Header 2 + first point ~13 +
        // ~2 bits/point + ~10 binade crossings × ~70 bits.
        assert!(
            bytes.len() < 2 + 13 + 1000 / 4 + 110,
            "constant run: {} bytes",
            bytes.len()
        );
        roundtrip(&ts, &vs);
    }

    #[test]
    fn single_point_block() {
        roundtrip(&[123.456], &[789.0]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let ts: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let vs: Vec<f32> = (0..100).map(|i| (i * 7 % 13) as f32 * 1.25).collect();
        let mut bytes = Vec::new();
        encode_block(&ts, &vs, &mut bytes);
        for cut in 0..bytes.len() {
            let (mut dt, mut dv) = (Vec::new(), Vec::new());
            assert_eq!(
                decode_block_into(&bytes[..cut], &mut dt, &mut dv),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn empty_block_header_is_an_error() {
        let (mut dt, mut dv) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_block_into(&[0, 0, 0], &mut dt, &mut dv),
            Err(CodecError::EmptyBlock)
        );
    }

    /// Pack a string of `0`/`1` characters MSB-first behind an `n`
    /// header, zero-padding the last byte.
    fn block_from_bits(n: u16, bits: &str) -> Vec<u8> {
        let mut out = n.to_le_bytes().to_vec();
        for chunk in bits.as_bytes().chunks(8) {
            let byte = chunk
                .iter()
                .enumerate()
                .fold(0u8, |b, (i, &c)| b | (u8::from(c == b'1') << (7 - i)));
            out.push(byte);
        }
        out
    }

    #[test]
    fn corrupt_value_window_is_an_error_not_a_panic() {
        // Two points: both raw first fields zero, a zero timestamp dod,
        // then a new value window with lead 31 and length 32.
        let bits = format!("{}0{}{}", "0".repeat(96), "11", "1".repeat(5 + 5 + 32));
        let bytes = block_from_bits(2, &bits);
        let (mut dt, mut dv) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_block_into(&bytes, &mut dt, &mut dv),
            Err(CodecError::Corrupt)
        );
        // The first 13 body bytes end right before the length field:
        // cut there, the block is only truncated.
        assert_eq!(
            decode_block_into(&bytes[..2 + 13], &mut dt, &mut dv),
            Err(CodecError::Truncated)
        );
    }

    fn block_sum(vs: &[f32]) -> BlockSum {
        let ts: Vec<f64> = (0..vs.len()).map(|i| i as f64).collect();
        encode_block(&ts, vs, &mut Vec::new())
    }

    /// The in-order fold the certificate stands in for.
    fn fold(acc: f64, vs: &[f32]) -> f64 {
        vs.iter().fold(acc, |acc, &v| acc + v as f64)
    }

    #[test]
    fn certificate_records_sum_and_exponent_bounds() {
        let c = block_sum(&[-0.0, 1.5, 0.0, -3.0]);
        assert_eq!(c.sum.to_bits(), (-1.5f64).to_bits());
        assert_eq!((c.lo, c.hi), (127, 128));
        let c = block_sum(&[-0.0, -0.0]);
        assert_eq!(c.sum.to_bits(), 0.0f64.to_bits(), "the fold starts at +0.0");
        assert_eq!((c.lo, c.hi), (254, 0));
        let c = block_sum(&[f32::from_bits(1), 2.0]);
        assert_eq!((c.lo, c.hi), (1, 128), "subnormals floor `lo` at 1");
        assert_eq!(block_sum(&[1.0, f32::INFINITY]).hi, 255);
        assert_eq!(block_sum(&[f32::NAN, 1.0]).add_to(0.0, 2), None);
        // One binade and sign throughout: the bounds come from the
        // first value; a later step into the next binade is seen.
        assert_eq!(block_sum(&[1.5, 1.75, 1.25, 1.75]).lo, 127);
        let c = block_sum(&[1.5, 1.75, 1.25, 2.5, 1.25]);
        assert_eq!((c.lo, c.hi), (127, 128));
    }

    #[test]
    fn certificate_adds_only_what_the_fold_adds_exactly() {
        // Quantised rail readings: exact from any nearby running sum.
        let lsb = 4000.0 / 4095.0;
        let rail: Vec<f32> = (0..1000)
            .map(|i| (1700 + i * 31 % 41) as f32 * lsb)
            .collect();
        let c = block_sum(&rail);
        for acc in [0.0, 1.0, 1e6 + 0.25, -123.0] {
            let got = c.add_to(acc, rail.len() as u32).expect("certified");
            assert_eq!(got.to_bits(), fold(acc, &rail).to_bits(), "acc {acc}");
        }
        // A running sum with bits far below the values' grid: the exact
        // sums would need more than 53 bits, so the fold would round.
        assert_eq!(c.add_to(1e-30, 1000), None);
        assert_eq!(c.add_to(-0.0, 1000), None);
        assert_eq!(c.add_to(f64::INFINITY, 1000), None);
        // 1e8 beside 1 + ε: a few values fit 53 bits, many do not.
        let mixed = [1e8f32, 1.000_000_1, 1e8, 1.000_000_1];
        let c = block_sum(&mixed);
        let got = c.add_to(0.0, 4).expect("four values fit");
        assert_eq!(got.to_bits(), fold(0.0, &mixed).to_bits());
        assert_eq!(c.add_to(0.0, 1 << 16), None);
        assert_eq!(c.add_to(3e9, 4), None);
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for x in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }
}
