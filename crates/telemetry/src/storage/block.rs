//! Sealed, immutable compressed blocks — the unit the tier engine
//! seals out of the hot ring, holds in the compressed in-memory tier,
//! and demotes to disk segments.

use super::codec::{encode_block, BlockSum, MAX_BLOCK_POINTS};

/// One immutable compressed run of a single series. Timestamps inside a
/// block are nondecreasing (they come out of a ring that enforces it),
/// so `t_min`/`t_max` are simply the first and last timestamp and a
/// range scan can skip whole blocks on metadata alone.
///
/// The block also keeps its values' [`BlockSum`] certificate, unpacked
/// into three fields so the struct stays 48 bytes on 64-bit targets. It
/// lives only in memory: segment files store the payload, not the
/// certificate.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    /// First timestamp in the block.
    pub t_min: f64,
    /// Last timestamp in the block.
    pub t_max: f64,
    /// Point count.
    pub n: u32,
    /// Gorilla-compressed payload (see [`super::codec`]), exactly as
    /// long as the encoder wrote it.
    pub bytes: Box<[u8]>,
    sum: f64,
    sum_lo: u8,
    sum_hi: u8,
}

impl SealedBlock {
    /// Seal a run of points (nondecreasing timestamps, 1..=65535 points)
    /// into a compressed block. The run is encoded into `scratch`
    /// (cleared first; keep it across seals) and the payload is then
    /// allocated once at its exact size, so the memory a block holds is
    /// the [`Self::size_bytes`] the tier budgets count.
    pub fn seal(ts: &[f64], vs: &[f32], scratch: &mut Vec<u8>) -> SealedBlock {
        assert!(!ts.is_empty() && ts.len() <= MAX_BLOCK_POINTS);
        scratch.clear();
        let BlockSum { sum, lo, hi } = encode_block(ts, vs, scratch);
        SealedBlock {
            t_min: ts[0],
            t_max: ts[ts.len() - 1],
            n: ts.len() as u32,
            bytes: scratch.as_slice().into(),
            sum,
            sum_lo: lo,
            sum_hi: hi,
        }
    }

    /// Does this block overlap the half-open window `[t0, t1)`?
    #[inline]
    pub fn overlaps(&self, t0: f64, t1: f64) -> bool {
        self.t_max >= t0 && self.t_min < t1
    }

    /// Compressed payload size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// `acc` with every value of the block added one by one in order,
    /// without decoding it: `Some` only when the block's [`BlockSum`]
    /// proves that fold exact (see [`BlockSum::add_to`]).
    #[inline]
    pub(crate) fn add_sum_to(&self, acc: f64) -> Option<f64> {
        BlockSum {
            sum: self.sum,
            lo: self.sum_lo,
            hi: self.sum_hi,
        }
        .add_to(acc, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::codec::decode_block_into;

    #[test]
    fn seal_records_bounds_and_roundtrips() {
        let ts: Vec<f64> = (0..300).map(|i| 5.0 + i as f64 * 0.25).collect();
        let vs: Vec<f32> = (0..300).map(|i| (i % 17) as f32 * 3.5).collect();
        let b = SealedBlock::seal(&ts, &vs, &mut Vec::new());
        assert_eq!(b.t_min, 5.0);
        assert_eq!(b.t_max, 5.0 + 299.0 * 0.25);
        assert_eq!(b.n, 300);
        let (mut dt, mut dv) = (Vec::new(), Vec::new());
        assert_eq!(decode_block_into(&b.bytes, &mut dt, &mut dv), Ok(300));
        assert_eq!(dt, ts);
        assert_eq!(dv, vs);
    }

    #[test]
    fn overlap_is_half_open() {
        let b = SealedBlock::seal(&[10.0, 20.0], &[1.0, 2.0], &mut Vec::new());
        assert!(b.overlaps(0.0, 10.5));
        assert!(b.overlaps(20.0, 21.0), "t_max is inclusive");
        assert!(b.overlaps(15.0, 16.0));
        assert!(!b.overlaps(0.0, 10.0), "t1 exclusive");
        assert!(!b.overlaps(20.0 + 1e-9, 30.0));
    }

    /// The certificate costs the block no more than 8 bytes over the
    /// 48 it had before it (on 64-bit targets it costs none).
    #[test]
    fn certificate_keeps_the_block_small() {
        assert!(std::mem::size_of::<SealedBlock>() <= 56);
    }
}
