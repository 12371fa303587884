//! Sealed, immutable compressed blocks — the unit the tier engine
//! seals out of the hot ring, holds in the compressed in-memory tier,
//! and demotes to disk segments.

use super::codec::{encode_block, MAX_BLOCK_POINTS};

/// One immutable compressed run of a single series. Timestamps inside a
/// block are nondecreasing (they come out of a ring that enforces it),
/// so `t_min`/`t_max` are simply the first and last timestamp and a
/// range scan can skip whole blocks on metadata alone.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    /// First timestamp in the block.
    pub t_min: f64,
    /// Last timestamp in the block.
    pub t_max: f64,
    /// Point count.
    pub n: u32,
    /// Gorilla-compressed payload (see [`super::codec`]).
    pub bytes: Vec<u8>,
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
        encode_block(ts, vs, scratch);
        SealedBlock {
            t_min: ts[0],
            t_max: ts[ts.len() - 1],
            n: ts.len() as u32,
            bytes: scratch.to_vec(),
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
}
