//! Full-rate DSP kernels for the acquisition hot path.
//!
//! At design scale the front end is 45 nodes × 8 muxed channels ×
//! 800 kS/s ≈ 288 MS/s (§III-A1). The general-purpose models in
//! [`crate::adc`] and [`crate::decimation`] — per-sample `f64`
//! quantisation with a division per call, window sums through iterator
//! chains, a fresh `Vec` per stage — are fine for fidelity experiments
//! but cannot carry that aggregate rate. This module provides the hot
//! loops as chunked, cache-blocked `f32` kernels over caller-owned
//! scratch buffers (zero steady-state allocation), in two variants
//! each:
//!
//! * a **scalar reference** (`*_scalar`) — the simple, obviously
//!   correct per-output loop, retained forever as the semantic spec;
//! * a **blocked kernel** (`*_block`) — shaped for the autovectorizer.
//!   Quantisation is a plain element-wise loop with select clamps;
//!   window sums process [`LANES`] independent outputs concurrently,
//!   breaking the floating-point add latency chain with [`LANES`]
//!   parallel accumulators.
//!
//! **Bit-exactness.** The blocked kernels are bit-identical to their
//! scalar references by construction: they never reassociate the
//! arithmetic of any single output. Quantisation is element-wise
//! (order-free), and its select clamps pick the same value as
//! `f32::max`/`min` wherever the difference could reach an output (NaN
//! and signed zeros included, see [`AdcKernel::digitise_block`]);
//! window sums keep each output's accumulation order exactly as the
//! scalar loop performs it — the blocked variants only interleave
//! *independent* outputs, which IEEE-754 evaluates identically
//! regardless of lane count, so [`LANES`] affects speed only. The
//! property tests at the bottom of this file pin the equivalence for
//! arbitrary lengths, factors and tail remainders, and for every `f32`
//! bit pattern the ADC can be fed.
//!
//! The kernels speak `f32` because that is the wire format
//! ([`crate::gateway::SampleFrame`] carries `f32` watts): quantising
//! straight into the payload precision removes a whole `f64 → f32`
//! conversion pass. A 12-bit code (≤ 4096 distinct values) is exactly
//! representable in `f32`, so no acquisition information is lost.

use crate::adc::SarAdc;

/// Outputs processed per blocked-kernel iteration: 8 matches one AVX2
/// `f32` vector. Lane count never affects results — see the module
/// docs.
pub const LANES: usize = 8;

/// 2^23 — smallest positive `f32` magnitude with ulp = 1.
const ROUND_MAGIC: f32 = 8_388_608.0;

/// Precomputed quantise/reconstruct constants for one [`SarAdc`]
/// configuration: the hot loop multiplies by a cached reciprocal
/// instead of dividing by the LSB each sample (the division in
/// [`SarAdc::quantise`] costs more than the rest of the sample's
/// arithmetic combined).
#[derive(Debug, Clone, Copy)]
pub struct AdcKernel {
    /// Watts at code 0.
    min: f32,
    /// Watts at the top code.
    max: f32,
    /// `1 / lsb`, the cached reciprocal.
    inv_lsb: f32,
    /// LSB in watts.
    lsb: f32,
    /// Highest code as `f32` (codes ≤ 2^24 are exact).
    max_code: f32,
}

impl AdcKernel {
    /// Kernel constants for an ADC configuration.
    pub fn new(adc: &SarAdc) -> Self {
        let lsb = adc.lsb() as f32;
        AdcKernel {
            min: adc.full_scale_min as f32,
            max: adc.full_scale_max as f32,
            inv_lsb: 1.0 / lsb,
            lsb,
            max_code: (adc.codes() - 1) as f32,
        }
    }

    /// Quantise one analog watt value and reconstruct the reported
    /// watts — the scalar spec both variants implement. Uses the
    /// multiply-by-reciprocal form, rounding to the nearest code by
    /// exponent alignment: adding and subtracting 2^23 forces an `f32`
    /// in `[0, 2^23)` onto the integer grid under round-to-nearest-
    /// even. `f32::round` would be a library call on baseline x86-64
    /// (no SSE4.1 `roundps`) and block vectorization; the alignment
    /// trick is two `addps`-class ops. RNE vs `round`'s half-away tie
    /// break and the `f32` reciprocal together keep results within one
    /// code of the `f64` [`SarAdc::quantise`] path, differing only on
    /// values at a code boundary.
    #[inline]
    pub fn digitise_one(&self, watts: f32) -> f32 {
        let clamped = watts.max(self.min).min(self.max);
        let scaled = (clamped - self.min) * self.inv_lsb;
        let code = ((scaled + ROUND_MAGIC) - ROUND_MAGIC).min(self.max_code);
        self.min + code * self.lsb
    }

    /// [`Self::digitise_one`] with every clamp written as a comparison
    /// select, which is what [`Self::digitise_block`] vectorizes.
    #[inline]
    fn digitise_select(&self, watts: f32) -> f32 {
        let lo = if watts > self.min { watts } else { self.min };
        let clamped = if lo < self.max { lo } else { self.max };
        let scaled = (clamped - self.min) * self.inv_lsb;
        let rounded = (scaled + ROUND_MAGIC) - ROUND_MAGIC;
        let code = if rounded < self.max_code {
            rounded
        } else {
            self.max_code
        };
        self.min + code * self.lsb
    }

    /// Scalar reference: digitise `input` into `out` (cleared first),
    /// one sample at a time.
    pub fn digitise_scalar(&self, input: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(input.iter().map(|&w| self.digitise_one(w)));
    }

    /// Blocked kernel: the spec's arithmetic per element, as a plain
    /// element-wise loop the compiler vectorizes with contiguous loads
    /// (a [`LANES`]-chunked form gets vectorized *across* chunks
    /// instead, with one strided scalar load per lane).
    ///
    /// The clamps are comparison selects. On baseline x86-64
    /// `f32::max`/`min` each lower to a NaN-aware sequence (`maxps`,
    /// `cmpunordps`, `andps`, `andnps`, `orps` and two register
    /// copies); `if w > min { w } else { min }` is one `maxps`, which
    /// returns its second operand when the compare is false. The two
    /// forms can differ only where that compare is false on unequal
    /// bits. A NaN input goes to `min` in both, and the later clamps
    /// keep it there. A signed-zero pair can come out with either sign,
    /// and the sign is lost in `(x - min) * inv_lsb + 2^23`. So every
    /// output bit matches [`Self::digitise_scalar`], pinned over
    /// arbitrary bit patterns below.
    pub fn digitise_block(&self, input: &[f32], out: &mut Vec<f32>) {
        // Size the output once and write in place — `extend`
        // bookkeeping would cost more than the arithmetic. No `clear()`
        // first: every slot is overwritten below, and clear-then-resize
        // would memset the whole buffer each call.
        out.resize(input.len(), 0.0);
        for (dst, &w) in out.iter_mut().zip(input) {
            *dst = self.digitise_select(w);
        }
    }
}

/// Scalar reference boxcar: `out[i]` is the mean of input window
/// `[i*m, (i+1)*m)`, summed in ascending index order. The tail
/// `input.len() % m` samples are dropped, exactly like
/// [`crate::decimation::boxcar_decimate`].
pub fn boxcar_scalar(input: &[f32], m: usize, out: &mut Vec<f32>) {
    assert!(m >= 1, "decimation factor must be ≥ 1");
    let inv = 1.0f32 / m as f32;
    out.clear();
    out.reserve(input.len() / m);
    for w in input.chunks_exact(m) {
        let mut acc = 0.0f32;
        for &x in w {
            acc += x;
        }
        out.push(acc * inv);
    }
}

/// Blocked boxcar: [`LANES`] windows reduced concurrently. Each
/// window's sum still runs in ascending index order (bit-exact vs
/// [`boxcar_scalar`]); the lanes are *independent* windows, so the `k`
/// loop advances [`LANES`] accumulator chains per step instead of
/// stalling on one add's latency.
pub fn boxcar_block(input: &[f32], m: usize, out: &mut Vec<f32>) {
    assert!(m >= 1, "decimation factor must be ≥ 1");
    let inv = 1.0f32 / m as f32;
    let n_out = input.len() / m;
    out.clear();
    out.reserve(n_out);
    let mut i = 0;
    while i + LANES <= n_out {
        // Slice the lanes' windows once: each has length exactly `m`,
        // so the `k` loop below indexes without bounds checks.
        let group = &input[i * m..(i + LANES) * m];
        let windows: [&[f32]; LANES] = std::array::from_fn(|j| &group[j * m..][..m]);
        let mut acc = [0.0f32; LANES];
        for k in 0..m {
            for (a, w) in acc.iter_mut().zip(&windows) {
                *a += w[k];
            }
        }
        out.extend(acc.map(|a| a * inv));
        i += LANES;
    }
    for w in input[i * m..n_out * m].chunks_exact(m) {
        let mut acc = 0.0f32;
        for &x in w {
            acc += x;
        }
        out.push(acc * inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decimation::boxcar_decimate;
    use davide_core::power::PowerTrace;
    use davide_core::rng::Rng;
    use davide_core::time::SimTime;
    use proptest::prelude::*;

    fn adc() -> SarAdc {
        SarAdc::am335x_power_channel()
    }

    #[test]
    fn digitise_matches_f64_model_within_one_lsb() {
        let adc = adc();
        let k = AdcKernel::new(&adc);
        let mut rng = Rng::seed_from(1);
        for _ in 0..10_000 {
            let w = rng.uniform_in(-100.0, 4100.0);
            let fast = k.digitise_one(w as f32) as f64;
            let slow = adc.to_watts(adc.quantise(w));
            assert!(
                (fast - slow).abs() <= adc.lsb() + 1e-3,
                "w={w}: kernel {fast} vs model {slow}"
            );
        }
    }

    #[test]
    fn digitise_block_bit_exact_including_tails() {
        let k = AdcKernel::new(&adc());
        let mut rng = Rng::seed_from(2);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for n in [0, 1, 7, LANES - 1, LANES, LANES + 1, 1000, 1003] {
            let input: Vec<f32> = (0..n)
                .map(|_| rng.uniform_in(-50.0, 4200.0) as f32)
                .collect();
            k.digitise_scalar(&input, &mut a);
            k.digitise_block(&input, &mut b);
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            assert_eq!(a.len(), b.len());
        }
    }

    /// ADC configurations whose rails sit at, below and across zero, so
    /// the signed-zero cases of the select clamps reach both rails.
    fn adc_rails() -> [SarAdc; 3] {
        let mut below = adc();
        below.full_scale_min = -400.0;
        below.full_scale_max = 0.0;
        let mut across = adc();
        across.full_scale_min = -0.0;
        across.full_scale_max = 250.0;
        [adc(), below, across]
    }

    /// One draw of the digitise properties: an arbitrary `f32` bit
    /// pattern for even `r`, otherwise a value in −500…4 500 W (below,
    /// across and above the power channel's range, where codes round).
    fn adc_input(r: u64) -> f32 {
        if r & 1 == 0 {
            f32::from_bits((r >> 32) as u32)
        } else {
            -500.0 + (r >> 40) as f32 * (5000.0 / (1u64 << 24) as f32)
        }
    }

    fn bits_equal(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn digitise_block_bit_exact_on_special_values() {
        for adc in adc_rails() {
            let k = AdcKernel::new(&adc);
            let (min, max) = (adc.full_scale_min as f32, adc.full_scale_max as f32);
            let specials = [
                f32::NAN,
                -f32::NAN,
                f32::from_bits(0x7fc0_dead), // quiet NaN with a payload
                f32::from_bits(0xff80_0001), // negative signalling NaN
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::from_bits(1), // smallest subnormal
                -f32::from_bits(1),
                f32::MIN_POSITIVE / 2.0,
                -f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
                min,
                -min,
                min.next_down(),
                min.next_up(),
                max,
                -max,
                max.next_down(),
                max.next_up(),
            ];
            // Repeat the list at every offset mod LANES, so each value
            // also runs through the vector body and the scalar tail.
            let input: Vec<f32> = (0..specials.len() * (LANES + 1) + 3)
                .map(|i| specials[i % specials.len()])
                .collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            k.digitise_scalar(&input, &mut a);
            k.digitise_block(&input, &mut b);
            assert!(bits_equal(&a, &b), "rails {min}..{max}");
            for &nan in &specials[..4] {
                assert_eq!(k.digitise_one(nan).to_bits(), k.digitise_one(min).to_bits());
            }
        }
    }

    #[test]
    fn boxcar_block_bit_exact_and_drops_tail() {
        let mut rng = Rng::seed_from(3);
        let input: Vec<f32> = (0..1605)
            .map(|_| rng.uniform_in(0.0, 4000.0) as f32)
            .collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for m in [1, 2, 3, 7, 16, 100, 2000] {
            boxcar_scalar(&input, m, &mut a);
            boxcar_block(&input, m, &mut b);
            assert_eq!(a.len(), input.len() / m, "m={m}");
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "m={m}"
            );
            assert_eq!(a.len(), b.len(), "m={m}");
        }
    }

    #[test]
    fn boxcar_kernel_tracks_f64_decimator() {
        let mut rng = Rng::seed_from(4);
        let input: Vec<f32> = (0..8000)
            .map(|_| rng.uniform_in(1000.0, 2000.0) as f32)
            .collect();
        let tr = PowerTrace::new(
            SimTime::ZERO,
            1.25e-6,
            input.iter().map(|&v| v as f64).collect(),
        );
        let slow = boxcar_decimate(&tr, 16);
        let mut fast = Vec::new();
        boxcar_block(&input, 16, &mut fast);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow.samples) {
            assert!((*f as f64 - s).abs() < 1e-2, "{f} vs {s}");
        }
    }

    #[test]
    fn kernels_reuse_scratch_without_reallocating() {
        let k = AdcKernel::new(&adc());
        let input = vec![1700.0f32; 8192];
        let mut out = Vec::with_capacity(8192);
        k.digitise_block(&input, &mut out);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        for _ in 0..100 {
            k.digitise_block(&input, &mut out);
            boxcar_block(&input, 16, &mut out);
            k.digitise_block(&input, &mut out);
        }
        assert_eq!(out.capacity(), cap, "steady state never regrows");
        assert_eq!(out.as_ptr(), ptr, "steady state never reallocates");
    }

    proptest! {
        /// Blocked digitise is bit-exact vs the scalar reference for
        /// arbitrary lengths (all tail remainders) and every `f32` bit
        /// pattern: NaNs, infinities, signed zeros and subnormals are
        /// where the select clamps differ in form from `f32::max`/`min`.
        #[test]
        fn prop_digitise_bit_exact(
            draws in proptest::collection::vec(any::<u64>(), 0..300),
            rails in 0usize..3,
        ) {
            let k = AdcKernel::new(&adc_rails()[rails]);
            let input: Vec<f32> = draws.iter().map(|&r| adc_input(r)).collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            k.digitise_scalar(&input, &mut a);
            k.digitise_block(&input, &mut b);
            prop_assert!(bits_equal(&a, &b));
        }

        /// Blocked boxcar is bit-exact vs the scalar reference for
        /// arbitrary lengths, factors, tail remainders and `f32` bit
        /// patterns. NaN sums compare as NaN only: Rust leaves the
        /// payload of a NaN result unspecified.
        #[test]
        fn prop_boxcar_bit_exact(
            draws in proptest::collection::vec(any::<u64>(), 0..400),
            m in 1usize..24,
        ) {
            // Mostly the ADC's output range, a quarter arbitrary bits.
            let input: Vec<f32> = draws
                .iter()
                .map(|&r| if r & 3 == 0 { f32::from_bits((r >> 32) as u32) } else { adc_input(r | 1) })
                .collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            boxcar_scalar(&input, m, &mut a);
            boxcar_block(&input, m, &mut b);
            prop_assert_eq!(a.len(), input.len() / m);
            prop_assert_eq!(a.len(), b.len());
            prop_assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())));
        }

        /// The streaming `Decimator` honours its pending-window
        /// contract under arbitrary chunkings: concatenated output is
        /// bit-identical to the batch function over the whole stream,
        /// and `pending()` always reports the partial tail the batch
        /// call would have dropped.
        #[test]
        fn prop_streaming_decimator_pending_contract(
            samples in proptest::collection::vec(0.0f64..4000.0, 1..500),
            m in 1usize..20,
            sizes in proptest::collection::vec(1usize..97, 1..8),
        ) {
            use crate::decimation::{boxcar_remainder, Decimator};
            let tr = PowerTrace::new(SimTime::ZERO, 1e-5, samples.clone());
            let batch = boxcar_decimate(&tr, m);
            let mut dec = Decimator::new(m);
            let mut out = Vec::new();
            let mut i = 0;
            let mut k = 0;
            while i < samples.len() {
                let sz = sizes[k % sizes.len()].min(samples.len() - i);
                dec.push(&samples[i..i + sz], &mut out);
                i += sz;
                k += 1;
                prop_assert_eq!(dec.pending(), boxcar_remainder(i, m));
            }
            prop_assert_eq!(out, batch.samples);
        }
    }
}

/// Quick per-stage cost probe for kernel work (not a correctness
/// test): `cargo test --release -p davide-telemetry stage_timing --
/// --ignored --nocapture` prints ns/sample for each hot-loop stage at
/// the E25 block size. The criterion benches in `davide-bench` are
/// the maintained numbers; this exists for fast iteration while
/// editing this file.
#[cfg(test)]
mod timing {
    use super::*;
    use std::time::Instant;

    fn per_sample(elapsed_ns: f64, reps: usize, n: usize) -> f64 {
        elapsed_ns / (reps as f64 * n as f64)
    }

    #[test]
    #[ignore]
    fn stage_timing() {
        const BLOCK: usize = 8_000;
        const REPS: usize = 36_000; // 288 M samples, one E25's worth
        let k = AdcKernel::new(&SarAdc::am335x_power_channel());
        let tpl: Vec<f32> = (0..BLOCK).map(|i| 1700.0 + (i % 37) as f32).collect();
        let mut raw = Vec::with_capacity(BLOCK);
        let mut dig = Vec::with_capacity(BLOCK);
        let mut dec = Vec::with_capacity(BLOCK / 16);

        let t = Instant::now();
        for r in 0..REPS {
            raw.clear();
            let w = (r % 7) as f32;
            raw.extend(tpl.iter().map(|&v| v + w));
        }
        let fill = per_sample(t.elapsed().as_nanos() as f64, REPS, BLOCK);
        let t = Instant::now();
        for _ in 0..REPS {
            k.digitise_block(&raw, &mut dig);
        }
        let digitise = per_sample(t.elapsed().as_nanos() as f64, REPS, BLOCK);
        let t = Instant::now();
        for _ in 0..REPS {
            boxcar_block(&dig, 16, &mut dec);
        }
        let boxcar = per_sample(t.elapsed().as_nanos() as f64, REPS, BLOCK);
        println!("fill:     {fill:.2} ns/sample");
        println!("digitise: {digitise:.2} ns/sample");
        println!("boxcar:   {boxcar:.2} ns/sample");
    }
}
